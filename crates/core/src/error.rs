//! Error type for protocol execution.

use core::fmt;
use std::borrow::Cow;
use ugc_grid::GridError;
use ugc_merkle::MerkleError;

/// Errors raised while executing a verification scheme.
///
/// The string fields are literals where this process raised the error
/// and owned copies where it was decoded from a journal or a remote
/// participant's report, so a decoded error frees what it holds.
///
/// Note the distinction from *cheating detection*: a detected cheater is a
/// successful run with a rejecting [`Verdict`](crate::Verdict), not an
/// error. Errors mean the protocol itself broke (transport failure,
/// malformed message, invalid configuration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeError {
    /// Transport or codec failure.
    Grid(GridError),
    /// Merkle-tree failure on the participant side.
    Merkle(MerkleError),
    /// The peer sent an unexpected message type.
    UnexpectedMessage {
        /// What the protocol step expected.
        expected: Cow<'static, str>,
        /// A short description of what arrived.
        got: Cow<'static, str>,
    },
    /// A reply referenced the wrong task.
    TaskMismatch {
        /// The task id this side is running.
        expected: u64,
        /// The task id the peer referenced.
        got: u64,
    },
    /// The participant answered with the wrong number of proofs.
    ProofCountMismatch {
        /// Number of samples challenged.
        expected: usize,
        /// Number of proofs received.
        got: usize,
    },
    /// A configuration parameter is out of range.
    InvalidConfig {
        /// Human-readable description of the violation.
        reason: Cow<'static, str>,
    },
    /// A commitment or proof carried bytes that do not form a valid digest
    /// or result for the scheme's hash/task.
    MalformedPayload {
        /// What failed to parse.
        what: Cow<'static, str>,
    },
    /// The session saw no peer activity within its deadline (a dropped
    /// message, a stalled participant) and was failed rather than left to
    /// hang the engine.
    TimedOut,
    /// The campaign journal failed: an I/O error, an injected kill point,
    /// or an undecodable record on resume. Carries an owned string because
    /// the underlying cause is formatted at the crash site.
    Journal {
        /// What the journal layer reported.
        reason: String,
    },
}

impl fmt::Display for SchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeError::Grid(e) => write!(f, "transport error: {e}"),
            SchemeError::Merkle(e) => write!(f, "merkle error: {e}"),
            SchemeError::UnexpectedMessage { expected, got } => {
                write!(f, "expected {expected} message, got {got}")
            }
            SchemeError::TaskMismatch { expected, got } => {
                write!(f, "task id mismatch: expected {expected}, got {got}")
            }
            SchemeError::ProofCountMismatch { expected, got } => {
                write!(f, "expected {expected} proofs, got {got}")
            }
            SchemeError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SchemeError::MalformedPayload { what } => write!(f, "malformed payload: {what}"),
            SchemeError::TimedOut => write!(f, "session exceeded its inactivity deadline"),
            SchemeError::Journal { reason } => write!(f, "campaign journal failed: {reason}"),
        }
    }
}

impl std::error::Error for SchemeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchemeError::Grid(e) => Some(e),
            SchemeError::Merkle(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GridError> for SchemeError {
    fn from(e: GridError) -> Self {
        SchemeError::Grid(e)
    }
}

impl From<MerkleError> for SchemeError {
    fn from(e: MerkleError) -> Self {
        SchemeError::Merkle(e)
    }
}

/// A wrong-width leaf in a participant's row is the error a per-leaf
/// tree build reported for it: same variant, same fields.
impl From<ugc_task::WidthMismatch> for SchemeError {
    fn from(e: ugc_task::WidthMismatch) -> Self {
        SchemeError::Merkle(MerkleError::MixedLeafWidth {
            expected: e.expected,
            found: e.found,
            index: e.index,
        })
    }
}

/// Names a message variant for diagnostics.
pub(crate) fn message_kind(msg: &ugc_grid::Message) -> &'static str {
    use ugc_grid::Message;
    match msg {
        Message::Assign(_) => "Assign",
        Message::Commit { .. } => "Commit",
        Message::Challenge { .. } => "Challenge",
        Message::Proofs { .. } => "Proofs",
        Message::CommitAndProofs { .. } => "CommitAndProofs",
        Message::AllResults { .. } => "AllResults",
        Message::Reports { .. } => "Reports",
        Message::RingerChallenge { .. } => "RingerChallenge",
        Message::RingerFound { .. } => "RingerFound",
        Message::Verdict { .. } => "Verdict",
        Message::Session { .. } => "Session",
        Message::Gone { .. } => "Gone",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e: SchemeError = GridError::Disconnected.into();
        assert_eq!(e, SchemeError::Grid(GridError::Disconnected));
        let e: SchemeError = MerkleError::EmptyTree.into();
        assert_eq!(e, SchemeError::Merkle(MerkleError::EmptyTree));
    }

    #[test]
    fn display_messages() {
        assert_eq!(
            SchemeError::UnexpectedMessage {
                expected: "Commit".into(),
                got: "Verdict".into()
            }
            .to_string(),
            "expected Commit message, got Verdict"
        );
        assert_eq!(
            SchemeError::TaskMismatch {
                expected: 1,
                got: 2
            }
            .to_string(),
            "task id mismatch: expected 1, got 2"
        );
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e = SchemeError::Grid(GridError::Disconnected);
        assert!(e.source().is_some());
        let e = SchemeError::InvalidConfig {
            reason: "m = 0".into(),
        };
        assert!(e.source().is_none());
    }

    #[test]
    fn message_kinds_cover_variants() {
        use ugc_grid::Message;
        assert_eq!(
            message_kind(&Message::Verdict {
                task_id: 0,
                accepted: true
            }),
            "Verdict"
        );
        assert_eq!(
            message_kind(&Message::Commit {
                task_id: 0,
                root: vec![]
            }),
            "Commit"
        );
    }
}
