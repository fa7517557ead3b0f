//! Common result types shared by every scheme.

use ugc_grid::{CostReport, LinkStats};
use ugc_task::ScreenReport;

/// The supervisor's accept/reject decision for one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every check passed; the work is accepted.
    Accepted,
    /// The claimed `f(x)` for a sample was wrong (Step 4.1 of CBS).
    WrongResult {
        /// The offending sample index.
        sample: u64,
    },
    /// The reconstructed root `Φ(R′)` differed from the commitment
    /// (Step 4.2 of CBS) — the participant did not know `f(x)` at
    /// commitment time.
    CommitmentMismatch {
        /// The offending sample index.
        sample: u64,
    },
    /// The participant's self-derived NI-CBS samples do not match Eq. (4).
    SampleDerivationMismatch,
    /// A screened report failed the supervisor's audit.
    ReportMismatch {
        /// The input whose report failed.
        input: u64,
    },
    /// A ringer was not found, or a bogus preimage was claimed.
    RingerMissed,
    /// Replicated results disagreed (double-check scheme).
    ReplicaDisagreement {
        /// First index at which the replicas disagree.
        index: u64,
    },
}

impl Verdict {
    /// Whether the verdict accepts the participant's work.
    #[must_use]
    pub fn is_accepted(&self) -> bool {
        matches!(self, Verdict::Accepted)
    }
}

impl core::fmt::Display for Verdict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Verdict::Accepted => write!(f, "accepted"),
            Verdict::WrongResult { sample } => write!(f, "wrong f(x) at sample {sample}"),
            Verdict::CommitmentMismatch { sample } => {
                write!(f, "commitment mismatch at sample {sample}")
            }
            Verdict::SampleDerivationMismatch => write!(f, "sample derivation mismatch"),
            Verdict::ReportMismatch { input } => write!(f, "report audit failed at input {input}"),
            Verdict::RingerMissed => write!(f, "ringer missed"),
            Verdict::ReplicaDisagreement { index } => {
                write!(f, "replicas disagree at index {index}")
            }
        }
    }
}

/// How the participant stores its Merkle tree (Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParticipantStorage {
    /// Keep the whole tree in memory: `O(|D|)` space, `O(log n)` proofs.
    Full,
    /// Keep only the top `H − ℓ` levels; rebuild height-`ℓ` subtrees on
    /// demand, recomputing `f` for the `2^ℓ` inputs of each subtree a
    /// round's samples fall in (once per subtree, however many share it).
    Partial {
        /// The unsaved-subtree height `ℓ ∈ [1, H]`.
        subtree_height: u32,
    },
}

/// Everything measured in one protocol round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// The supervisor's decision.
    pub verdict: Verdict,
    /// Whether the work was accepted (convenience for `verdict`).
    pub accepted: bool,
    /// Supervisor-side computation costs.
    pub supervisor_costs: CostReport,
    /// Participant-side computation costs.
    pub participant_costs: CostReport,
    /// Supervisor-side traffic (bytes/messages, both directions).
    pub supervisor_link: LinkStats,
    /// The screened "results of interest" the supervisor ended up with.
    pub reports: Vec<ScreenReport>,
}

impl RoundOutcome {
    pub(crate) fn new(
        verdict: Verdict,
        supervisor_costs: CostReport,
        participant_costs: CostReport,
        supervisor_link: LinkStats,
        reports: Vec<ScreenReport>,
    ) -> Self {
        RoundOutcome {
            accepted: verdict.is_accepted(),
            verdict,
            supervisor_costs,
            participant_costs,
            supervisor_link,
            reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accept_flag() {
        assert!(Verdict::Accepted.is_accepted());
        assert!(!Verdict::WrongResult { sample: 3 }.is_accepted());
        assert!(!Verdict::RingerMissed.is_accepted());
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Accepted.to_string(), "accepted");
        assert_eq!(
            Verdict::CommitmentMismatch { sample: 9 }.to_string(),
            "commitment mismatch at sample 9"
        );
    }

    #[test]
    fn outcome_mirrors_verdict() {
        let o = RoundOutcome::new(
            Verdict::Accepted,
            CostReport::default(),
            CostReport::default(),
            LinkStats::default(),
            Vec::new(),
        );
        assert!(o.accepted);
        let o = RoundOutcome::new(
            Verdict::SampleDerivationMismatch,
            CostReport::default(),
            CostReport::default(),
            LinkStats::default(),
            Vec::new(),
        );
        assert!(!o.accepted);
    }
}
