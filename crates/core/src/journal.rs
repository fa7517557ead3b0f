//! Durable campaigns: the record layer between the orchestrator and the
//! `ugc-journal` write-ahead log.
//!
//! The journal crate knows only about opaque payloads; this module gives
//! them meaning. A durable campaign writes one [`CampaignHeader`] record
//! (so `--resume` can reconstruct the run from the file alone), then one
//! record per settled round and one at the end. The orchestrator's round
//! loop writes all of them, through one [`DurableCampaign`]; the session
//! engine never touches the journal:
//!
//! | tag | record | written by | contents |
//! |----:|--------|------------|----------|
//! | 1 | `Header` | [`DurableCampaign::create`] | fleet shape, domain, chaos plan, CLI blob |
//! | 2 | `Round` | `commit`, after the round runs and before it is applied | round number, roster, one session result and one member's books per roster entry, sorted fault events |
//! | 3 | `Finished` | `finish` | the campaign summary digest, then the seal |
//!
//! A sealed journal therefore holds `1 + rounds + 1` records. The record
//! the journal writes is the unit [`DurableCampaign::resume`] reads back:
//! it replays every `Round` record, truncates a torn tail, and applies
//! each round to the campaign state through the same
//! `CampaignState::apply` the live loop calls — after checking that it is
//! a round a live run could have committed next. A round killed before
//! its record reached disk simply runs again. Because every record is a
//! pure function of the campaign and its seeds, whatever the transport,
//! the resumed run's verdicts, attempts, cost ledgers, fault log and
//! journal bytes are identical to a never-killed run's — the invariant
//! `tests/crash_resume.rs` proves at every kill point.
//!
//! Tags and 0/1 flags are single bytes; every integer is canonical
//! unsigned LEB128 in `ugc_grid::codec`'s one writer and reader (shared
//! with the [`SlotReport`](crate::SlotReport) and every wire message), so
//! a record of small counts is about a fifth of fixed-width words.
//! Truncated, overlong and over-64-bit integers and `u32` fields above
//! `u32::MAX` are refused, each codec refusal reported in the record's
//! words: two records that decode alike are one record. [`summary_digest`]
//! hashes a campaign's results in the same codec, so they have one byte
//! form.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use crate::engine::SessionResult;
use crate::orchestrator::{
    CampaignState, FleetSummary, MemberBooks, MemberSpec, MixedFleetConfig, RoundRecord,
};
use crate::session::SessionOutcome;
use crate::{ParticipantStorage, SchemeError, Verdict};
use std::path::Path;
use std::time::Duration;
use ugc_grid::codec::{self, put_bytes, put_list, put_var};
use ugc_grid::runtime::{FaultEvent, FaultPlan, LinkDirection};
use ugc_grid::{CostReport, GridError, LinkStats};
use ugc_hash::{HashFunction, Sha256};
use ugc_journal::{read_journal, CrashPlan, JournalError, JournalWriter, TailStatus};
use ugc_merkle::{MerkleError, OpeningRow};
use ugc_task::Domain;
use ugc_task::ScreenReport;

/// Maps a journal-crate failure into the scheme error the campaign loop
/// propagates.
fn jerr(e: &JournalError) -> SchemeError {
    SchemeError::Journal {
        reason: e.to_string(),
    }
}

/// A malformed-journal decode failure.
fn bad(reason: String) -> SchemeError {
    SchemeError::Journal { reason }
}

// ---------------------------------------------------------------------------
// Codec primitives: a byte for each tag and flag, canonical LEB128 for
// every integer.
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn get_u8(buf: &mut &[u8], context: &'static str) -> Result<u8, SchemeError> {
    let Some((&byte, rest)) = buf.split_first() else {
        return Err(bad(format!("unexpected end of record in {context}")));
    };
    *buf = rest;
    Ok(byte)
}

/// A flag byte: 0 or 1, and nothing else, so two records that decode
/// alike are one record.
fn get_flag(buf: &mut &[u8], context: &'static str) -> Result<bool, SchemeError> {
    match get_u8(buf, context)? {
        flag @ (0 | 1) => Ok(flag == 1),
        other => Err(bad(format!("{context} {other} is not 0 or 1"))),
    }
}

/// A codec refusal as a journal decode failure, in the record's words.
fn malformed(e: GridError) -> SchemeError {
    match e {
        GridError::UnexpectedEof { context } => {
            bad(format!("unexpected end of record in {context}"))
        }
        other => bad(other.to_string()),
    }
}

/// [`codec::get_var`], refusals as journal errors.
pub(crate) fn get_var(buf: &mut &[u8], context: &'static str) -> Result<u64, SchemeError> {
    codec::get_var(buf, context).map_err(malformed)
}

fn get_u32(buf: &mut &[u8], context: &'static str) -> Result<u32, SchemeError> {
    codec::get_u32(buf, context).map_err(malformed)
}

fn get_bytes(buf: &mut &[u8], context: &'static str) -> Result<Vec<u8>, SchemeError> {
    codec::get_bytes(buf, context).map_err(malformed)
}

fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_var(buf, v as u64);
}

fn get_usize(buf: &mut &[u8], context: &'static str) -> Result<usize, SchemeError> {
    let v = get_var(buf, context)?;
    usize::try_from(v).map_err(|_| bad(format!("{context}: {v} exceeds this platform's usize")))
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

fn get_string(buf: &mut &[u8], context: &'static str) -> Result<String, SchemeError> {
    let bytes = get_bytes(buf, context)?;
    String::from_utf8(bytes).map_err(|_| bad(format!("{context}: invalid UTF-8")))
}

/// Reads what [`put_list`](codec::put_list) wrote. Every item reads at least one byte, so
/// a hostile count fails at the end of the record, having reserved at
/// most 1 024 items.
fn get_list<T>(
    buf: &mut &[u8],
    context: &'static str,
    mut get: impl FnMut(&mut &[u8]) -> Result<T, SchemeError>,
) -> Result<Vec<T>, SchemeError> {
    let count = get_usize(buf, context)?;
    let mut items = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        items.push(get(buf)?);
    }
    Ok(items)
}

// ---------------------------------------------------------------------------
// Field codecs for every type a campaign record carries.
// ---------------------------------------------------------------------------

fn put_verdict(buf: &mut Vec<u8>, v: &Verdict) {
    match *v {
        Verdict::Accepted => put_u8(buf, 0),
        Verdict::WrongResult { sample } => {
            put_u8(buf, 1);
            put_var(buf, sample);
        }
        Verdict::CommitmentMismatch { sample } => {
            put_u8(buf, 2);
            put_var(buf, sample);
        }
        Verdict::SampleDerivationMismatch => put_u8(buf, 3),
        Verdict::ReportMismatch { input } => {
            put_u8(buf, 4);
            put_var(buf, input);
        }
        Verdict::RingerMissed => put_u8(buf, 5),
        Verdict::ReplicaDisagreement { index } => {
            put_u8(buf, 6);
            put_var(buf, index);
        }
    }
}

fn get_verdict(buf: &mut &[u8]) -> Result<Verdict, SchemeError> {
    Ok(match get_u8(buf, "verdict tag")? {
        0 => Verdict::Accepted,
        1 => Verdict::WrongResult {
            sample: get_var(buf, "verdict sample")?,
        },
        2 => Verdict::CommitmentMismatch {
            sample: get_var(buf, "verdict sample")?,
        },
        3 => Verdict::SampleDerivationMismatch,
        4 => Verdict::ReportMismatch {
            input: get_var(buf, "verdict input")?,
        },
        5 => Verdict::RingerMissed,
        6 => Verdict::ReplicaDisagreement {
            index: get_var(buf, "verdict index")?,
        },
        tag => return Err(bad(format!("unknown verdict tag {tag}"))),
    })
}

fn put_grid_error(buf: &mut Vec<u8>, e: &GridError) {
    match *e {
        GridError::UnexpectedEof { ref context } => {
            put_u8(buf, 0);
            put_str(buf, context);
        }
        GridError::UnknownTag { tag } => {
            put_u8(buf, 1);
            put_u8(buf, tag);
        }
        GridError::TrailingBytes { remaining } => {
            put_u8(buf, 2);
            put_usize(buf, remaining);
        }
        GridError::LengthOverflow { declared } => {
            put_u8(buf, 3);
            put_var(buf, declared);
        }
        GridError::Disconnected => put_u8(buf, 4),
        GridError::Empty => put_u8(buf, 5),
        GridError::TornFrame { expected, got } => {
            put_u8(buf, 6);
            put_var(buf, expected);
            put_var(buf, got);
        }
        GridError::HandshakeMismatch { ours, theirs } => {
            put_u8(buf, 7);
            put_var(buf, u64::from(ours));
            put_var(buf, u64::from(theirs));
        }
        GridError::OverlongInteger { ref context } => {
            put_u8(buf, 8);
            put_str(buf, context);
        }
        GridError::IntegerPast64Bits { ref context } => {
            put_u8(buf, 9);
            put_str(buf, context);
        }
        GridError::U32Overflow { ref context, value } => {
            put_u8(buf, 10);
            put_str(buf, context);
            put_var(buf, value);
        }
    }
}

fn get_grid_error(buf: &mut &[u8]) -> Result<GridError, SchemeError> {
    Ok(match get_u8(buf, "grid error tag")? {
        0 => GridError::UnexpectedEof {
            context: get_string(buf, "grid error context")?.into(),
        },
        1 => GridError::UnknownTag {
            tag: get_u8(buf, "grid error byte")?,
        },
        2 => GridError::TrailingBytes {
            remaining: get_usize(buf, "grid error remaining")?,
        },
        3 => GridError::LengthOverflow {
            declared: get_var(buf, "grid error declared")?,
        },
        4 => GridError::Disconnected,
        5 => GridError::Empty,
        6 => GridError::TornFrame {
            expected: get_var(buf, "grid error expected")?,
            got: get_var(buf, "grid error got")?,
        },
        7 => GridError::HandshakeMismatch {
            ours: get_u32(buf, "grid error ours")?,
            theirs: get_u32(buf, "grid error theirs")?,
        },
        8 => GridError::OverlongInteger {
            context: get_string(buf, "grid error context")?.into(),
        },
        9 => GridError::IntegerPast64Bits {
            context: get_string(buf, "grid error context")?.into(),
        },
        10 => GridError::U32Overflow {
            context: get_string(buf, "grid error context")?.into(),
            value: get_var(buf, "grid error value")?,
        },
        tag => return Err(bad(format!("unknown grid error tag {tag}"))),
    })
}

fn put_merkle_error(buf: &mut Vec<u8>, e: &MerkleError) {
    match *e {
        MerkleError::EmptyTree => put_u8(buf, 0),
        MerkleError::MixedLeafWidth {
            expected,
            found,
            index,
        } => {
            put_u8(buf, 1);
            put_usize(buf, expected);
            put_usize(buf, found);
            put_var(buf, index);
        }
        MerkleError::ZeroLeafWidth => put_u8(buf, 2),
        MerkleError::IndexOutOfRange { index, leaf_count } => {
            put_u8(buf, 3);
            put_var(buf, index);
            put_var(buf, leaf_count);
        }
        MerkleError::SubtreeHeightOutOfRange {
            subtree_height,
            tree_height,
        } => {
            put_u8(buf, 4);
            put_var(buf, u64::from(subtree_height));
            put_var(buf, u64::from(tree_height));
        }
        MerkleError::ProviderMismatch { subtree_index } => {
            put_u8(buf, 5);
            put_var(buf, subtree_index);
        }
        MerkleError::NoIndices => put_u8(buf, 6),
        MerkleError::OpeningShape {
            row,
            entries,
            width,
            found,
        } => {
            put_u8(buf, 7);
            put_u8(
                buf,
                match row {
                    OpeningRow::LeafValues => 0,
                    OpeningRow::LeafSiblings => 1,
                    OpeningRow::DigestSiblings => 2,
                },
            );
            put_usize(buf, entries);
            put_usize(buf, width);
            put_usize(buf, found);
        }
        MerkleError::LeavesNotResident { subtree_height } => {
            put_u8(buf, 8);
            put_var(buf, u64::from(subtree_height));
        }
    }
}

fn get_merkle_error(buf: &mut &[u8]) -> Result<MerkleError, SchemeError> {
    Ok(match get_u8(buf, "merkle error tag")? {
        0 => MerkleError::EmptyTree,
        1 => MerkleError::MixedLeafWidth {
            expected: get_usize(buf, "merkle expected width")?,
            found: get_usize(buf, "merkle found width")?,
            index: get_var(buf, "merkle leaf index")?,
        },
        2 => MerkleError::ZeroLeafWidth,
        3 => MerkleError::IndexOutOfRange {
            index: get_var(buf, "merkle index")?,
            leaf_count: get_var(buf, "merkle leaf count")?,
        },
        4 => MerkleError::SubtreeHeightOutOfRange {
            subtree_height: get_u32(buf, "merkle subtree height")?,
            tree_height: get_u32(buf, "merkle tree height")?,
        },
        5 => MerkleError::ProviderMismatch {
            subtree_index: get_var(buf, "merkle subtree index")?,
        },
        6 => MerkleError::NoIndices,
        7 => MerkleError::OpeningShape {
            row: match get_u8(buf, "merkle opening row")? {
                0 => OpeningRow::LeafValues,
                1 => OpeningRow::LeafSiblings,
                2 => OpeningRow::DigestSiblings,
                row => return Err(bad(format!("unknown merkle opening row {row}"))),
            },
            entries: get_usize(buf, "merkle expected row entries")?,
            width: get_usize(buf, "merkle row entry width")?,
            found: get_usize(buf, "merkle found row length")?,
        },
        8 => MerkleError::LeavesNotResident {
            subtree_height: get_u32(buf, "merkle subtree height")?,
        },
        tag => return Err(bad(format!("unknown merkle error tag {tag}"))),
    })
}

fn put_scheme_error(buf: &mut Vec<u8>, e: &SchemeError) {
    match e {
        SchemeError::Grid(inner) => {
            put_u8(buf, 0);
            put_grid_error(buf, inner);
        }
        SchemeError::Merkle(inner) => {
            put_u8(buf, 1);
            put_merkle_error(buf, inner);
        }
        SchemeError::UnexpectedMessage { expected, got } => {
            put_u8(buf, 2);
            put_str(buf, expected);
            put_str(buf, got);
        }
        SchemeError::TaskMismatch { expected, got } => {
            put_u8(buf, 3);
            put_var(buf, *expected);
            put_var(buf, *got);
        }
        SchemeError::ProofCountMismatch { expected, got } => {
            put_u8(buf, 4);
            put_usize(buf, *expected);
            put_usize(buf, *got);
        }
        SchemeError::InvalidConfig { reason } => {
            put_u8(buf, 5);
            put_str(buf, reason);
        }
        SchemeError::MalformedPayload { what } => {
            put_u8(buf, 6);
            put_str(buf, what);
        }
        SchemeError::TimedOut => put_u8(buf, 7),
        SchemeError::Journal { reason } => {
            put_u8(buf, 8);
            put_str(buf, reason);
        }
    }
}

fn get_scheme_error(buf: &mut &[u8]) -> Result<SchemeError, SchemeError> {
    Ok(match get_u8(buf, "scheme error tag")? {
        0 => SchemeError::Grid(get_grid_error(buf)?),
        1 => SchemeError::Merkle(get_merkle_error(buf)?),
        2 => SchemeError::UnexpectedMessage {
            expected: get_string(buf, "scheme error expected")?.into(),
            got: get_string(buf, "scheme error got")?.into(),
        },
        3 => SchemeError::TaskMismatch {
            expected: get_var(buf, "scheme error expected id")?,
            got: get_var(buf, "scheme error got id")?,
        },
        4 => SchemeError::ProofCountMismatch {
            expected: get_usize(buf, "scheme error expected proofs")?,
            got: get_usize(buf, "scheme error got proofs")?,
        },
        5 => SchemeError::InvalidConfig {
            reason: get_string(buf, "scheme error reason")?.into(),
        },
        6 => SchemeError::MalformedPayload {
            what: get_string(buf, "scheme error what")?.into(),
        },
        7 => SchemeError::TimedOut,
        8 => SchemeError::Journal {
            reason: get_string(buf, "scheme error journal reason")?,
        },
        tag => return Err(bad(format!("unknown scheme error tag {tag}"))),
    })
}

fn put_link(buf: &mut Vec<u8>, link: &LinkStats) {
    put_var(buf, link.bytes_sent);
    put_var(buf, link.bytes_received);
    put_var(buf, link.messages_sent);
    put_var(buf, link.messages_received);
}

fn get_link(buf: &mut &[u8]) -> Result<LinkStats, SchemeError> {
    Ok(LinkStats {
        bytes_sent: get_var(buf, "link bytes sent")?,
        bytes_received: get_var(buf, "link bytes received")?,
        messages_sent: get_var(buf, "link messages sent")?,
        messages_received: get_var(buf, "link messages received")?,
    })
}

pub(crate) fn put_report(buf: &mut Vec<u8>, report: &CostReport) {
    put_var(buf, report.f_evals);
    put_var(buf, report.hash_ops);
    put_var(buf, report.g_evals);
    put_var(buf, report.verify_ops);
}

pub(crate) fn get_report(buf: &mut &[u8]) -> Result<CostReport, SchemeError> {
    Ok(CostReport {
        f_evals: get_var(buf, "cost f_evals")?,
        hash_ops: get_var(buf, "cost hash_ops")?,
        g_evals: get_var(buf, "cost g_evals")?,
        verify_ops: get_var(buf, "cost verify_ops")?,
    })
}

fn put_outcome(buf: &mut Vec<u8>, outcome: &SessionOutcome) {
    put_verdict(buf, &outcome.verdict);
    put_list(buf, &outcome.reports, |buf, report| {
        put_var(buf, report.input);
        put_bytes(buf, &report.payload);
    });
}

fn get_outcome(buf: &mut &[u8]) -> Result<SessionOutcome, SchemeError> {
    Ok(SessionOutcome {
        verdict: get_verdict(buf)?,
        reports: get_list(buf, "report count", |buf| {
            Ok(ScreenReport {
                input: get_var(buf, "report input")?,
                payload: get_bytes(buf, "report payload")?,
            })
        })?,
    })
}

fn put_session(buf: &mut Vec<u8>, session: &SessionResult) {
    match &session.outcome {
        Ok(ok) => {
            put_u8(buf, 1);
            put_outcome(buf, ok);
        }
        Err(e) => {
            put_u8(buf, 0);
            put_scheme_error(buf, e);
        }
    }
    put_link(buf, &session.link);
}

fn get_session(buf: &mut &[u8]) -> Result<SessionResult, SchemeError> {
    let outcome = match get_u8(buf, "session result tag")? {
        1 => Ok(get_outcome(buf)?),
        0 => Err(get_scheme_error(buf)?),
        tag => return Err(bad(format!("unknown session result tag {tag}"))),
    };
    Ok(SessionResult {
        outcome,
        link: get_link(buf)?,
    })
}

pub(crate) fn put_part_result(buf: &mut Vec<u8>, result: &Result<bool, SchemeError>) {
    match result {
        Ok(found) => {
            put_u8(buf, 1);
            put_u8(buf, u8::from(*found));
        }
        Err(e) => {
            put_u8(buf, 0);
            put_scheme_error(buf, e);
        }
    }
}

pub(crate) fn get_part_result(buf: &mut &[u8]) -> Result<Result<bool, SchemeError>, SchemeError> {
    Ok(match get_u8(buf, "participant result tag")? {
        1 => Ok(get_flag(buf, "participant result flag")?),
        0 => Err(get_scheme_error(buf)?),
        tag => return Err(bad(format!("unknown participant result tag {tag}"))),
    })
}

fn put_books(buf: &mut Vec<u8>, books: &MemberBooks) {
    put_report(buf, &books.sup_costs);
    put_report(buf, &books.part_costs);
    put_list(buf, &books.part_results, put_part_result);
}

fn get_books(buf: &mut &[u8]) -> Result<MemberBooks, SchemeError> {
    Ok(MemberBooks {
        sup_costs: get_report(buf)?,
        part_costs: get_report(buf)?,
        part_results: get_list(buf, "participant result count", get_part_result)?,
    })
}

fn put_direction(buf: &mut Vec<u8>, direction: LinkDirection) {
    put_u8(
        buf,
        match direction {
            LinkDirection::Inbound => 0,
            LinkDirection::Outbound => 1,
        },
    );
}

fn get_direction(buf: &mut &[u8]) -> Result<LinkDirection, SchemeError> {
    Ok(match get_u8(buf, "fault direction")? {
        0 => LinkDirection::Inbound,
        1 => LinkDirection::Outbound,
        tag => return Err(bad(format!("unknown link direction {tag}"))),
    })
}

fn put_event(buf: &mut Vec<u8>, event: &FaultEvent) {
    match *event {
        FaultEvent::Dropped {
            link,
            direction,
            seq,
        } => {
            put_u8(buf, 0);
            put_var(buf, link);
            put_direction(buf, direction);
            put_var(buf, seq);
        }
        FaultEvent::Duplicated {
            link,
            direction,
            seq,
        } => {
            put_u8(buf, 1);
            put_var(buf, link);
            put_direction(buf, direction);
            put_var(buf, seq);
        }
        FaultEvent::Reordered {
            link,
            direction,
            seq,
        } => {
            put_u8(buf, 2);
            put_var(buf, link);
            put_direction(buf, direction);
            put_var(buf, seq);
        }
        FaultEvent::Delayed {
            link,
            direction,
            seq,
            micros,
        } => {
            put_u8(buf, 3);
            put_var(buf, link);
            put_direction(buf, direction);
            put_var(buf, seq);
            put_var(buf, u64::from(micros));
        }
        FaultEvent::Crashed { link, after } => {
            put_u8(buf, 4);
            put_var(buf, link);
            put_var(buf, after);
        }
    }
}

fn get_event(buf: &mut &[u8]) -> Result<FaultEvent, SchemeError> {
    Ok(match get_u8(buf, "fault event tag")? {
        0 => FaultEvent::Dropped {
            link: get_var(buf, "fault link")?,
            direction: get_direction(buf)?,
            seq: get_var(buf, "fault seq")?,
        },
        1 => FaultEvent::Duplicated {
            link: get_var(buf, "fault link")?,
            direction: get_direction(buf)?,
            seq: get_var(buf, "fault seq")?,
        },
        2 => FaultEvent::Reordered {
            link: get_var(buf, "fault link")?,
            direction: get_direction(buf)?,
            seq: get_var(buf, "fault seq")?,
        },
        3 => FaultEvent::Delayed {
            link: get_var(buf, "fault link")?,
            direction: get_direction(buf)?,
            seq: get_var(buf, "fault seq")?,
            micros: get_u32(buf, "fault micros")?,
        },
        4 => FaultEvent::Crashed {
            link: get_var(buf, "fault link")?,
            after: get_var(buf, "fault after")?,
        },
        tag => return Err(bad(format!("unknown fault event tag {tag}"))),
    })
}

// ---------------------------------------------------------------------------
// The campaign header.
// ---------------------------------------------------------------------------

/// Everything a resumed supervisor must know about the campaign it is
/// picking up: the fleet shape, the domain, and every digest-relevant
/// knob of [`MixedFleetConfig`].
///
/// Execution-only knobs are deliberately absent: the transport,
/// `parallelism`, `workers`, `steal_seed` and `lanes`. Digests are
/// invariant under all of them, so a campaign journaled over direct links
/// on a 4-worker box resumes over a broker — in process or a real
/// `ugc broker serve` grid — on a 64-worker one, under any work-stealing
/// order and any digest lane width. The opaque [`app`](Self::app) blob
/// carries whatever the CLI (or any embedder) needs to rebuild its own
/// task/fleet objects from the journal alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignHeader {
    /// Application-owned bytes (the CLI stores its campaign flags here).
    pub app: Vec<u8>,
    /// Participant-slot count per member, in member order.
    pub member_slots: Vec<u64>,
    /// The full domain the campaign partitions.
    pub domain: Domain,
    /// Participant tree storage mode.
    pub storage: ParticipantStorage,
    /// The seeded chaos plan, if any.
    pub chaos: Option<FaultPlan>,
    /// Per-session inactivity deadline, if any. The journal keeps whole
    /// microseconds, saturating at `u64::MAX`.
    pub deadline: Option<Duration>,
    /// Reassignment-round budget.
    pub retries: u32,
}

impl CampaignHeader {
    /// The header describing a [`run_mixed_fleet`](crate::run_mixed_fleet)
    /// call: derive it from the same arguments, attach the embedder's
    /// `app` blob.
    #[must_use]
    pub fn for_campaign<H: HashFunction>(
        members: &[MemberSpec<'_, H>],
        domain: Domain,
        config: &MixedFleetConfig,
        app: Vec<u8>,
    ) -> Self {
        CampaignHeader {
            app,
            member_slots: members.iter().map(|m| m.behaviours.len() as u64).collect(),
            domain,
            storage: config.storage,
            chaos: config.chaos,
            // At the journal's resolution, so that a decoded header
            // compares equal to the one its campaign would derive.
            deadline: config
                .deadline
                .map(|deadline| Duration::from_micros(deadline_micros(deadline))),
            retries: config.retries,
        }
    }
}

fn deadline_micros(deadline: Duration) -> u64 {
    u64::try_from(deadline.as_micros()).unwrap_or(u64::MAX)
}

fn encode_header(header: &CampaignHeader) -> Vec<u8> {
    let mut buf = vec![TAG_HEADER];
    put_bytes(&mut buf, &header.app);
    put_list(&mut buf, &header.member_slots, |buf, &n| put_var(buf, n));
    put_var(&mut buf, header.domain.start());
    put_var(&mut buf, header.domain.len());
    match header.storage {
        ParticipantStorage::Full => put_u8(&mut buf, 0),
        ParticipantStorage::Partial { subtree_height } => {
            put_u8(&mut buf, 1);
            put_var(&mut buf, u64::from(subtree_height));
        }
    }
    match header.chaos {
        None => put_u8(&mut buf, 0),
        Some(plan) => {
            put_u8(&mut buf, 1);
            put_var(&mut buf, plan.seed);
            put_var(&mut buf, u64::from(plan.drop_per_1024));
            put_var(&mut buf, u64::from(plan.dup_per_1024));
            put_var(&mut buf, u64::from(plan.reorder_per_1024));
            put_var(&mut buf, u64::from(plan.max_delay_micros));
            put_var(&mut buf, u64::from(plan.crash_per_1024));
        }
    }
    match header.deadline {
        None => put_u8(&mut buf, 0),
        Some(deadline) => {
            put_u8(&mut buf, 1);
            put_var(&mut buf, deadline_micros(deadline));
        }
    }
    put_var(&mut buf, u64::from(header.retries));
    buf
}

fn get_per_1024(buf: &mut &[u8], context: &'static str) -> Result<u16, SchemeError> {
    let v = get_u32(buf, context)?;
    u16::try_from(v).map_err(|_| bad(format!("{context}: rate {v} exceeds u16")))
}

fn decode_header(buf: &mut &[u8]) -> Result<CampaignHeader, SchemeError> {
    let app = get_bytes(buf, "header app blob")?;
    let member_slots = get_list(buf, "header member count", |buf| {
        get_var(buf, "header member slots")
    })?;
    let start = get_var(buf, "header domain start")?;
    let len = get_var(buf, "header domain len")?;
    let domain = Domain::try_new(start, len)
        .map_err(|_| bad(format!("header domain {start}+{len} is invalid")))?;
    let storage = match get_u8(buf, "header storage tag")? {
        0 => ParticipantStorage::Full,
        1 => ParticipantStorage::Partial {
            subtree_height: get_u32(buf, "header subtree height")?,
        },
        tag => return Err(bad(format!("unknown storage tag {tag}"))),
    };
    let chaos = match get_flag(buf, "header chaos flag")? {
        false => None,
        true => Some(FaultPlan {
            seed: get_var(buf, "header chaos seed")?,
            drop_per_1024: get_per_1024(buf, "header drop rate")?,
            dup_per_1024: get_per_1024(buf, "header dup rate")?,
            reorder_per_1024: get_per_1024(buf, "header reorder rate")?,
            max_delay_micros: get_u32(buf, "header max delay")?,
            crash_per_1024: get_per_1024(buf, "header crash rate")?,
        }),
    };
    let deadline = match get_flag(buf, "header deadline flag")? {
        false => None,
        true => Some(Duration::from_micros(get_var(buf, "header deadline")?)),
    };
    let retries = get_u32(buf, "header retries")?;
    Ok(CampaignHeader {
        app,
        member_slots,
        domain,
        storage,
        chaos,
        deadline,
        retries,
    })
}

// ---------------------------------------------------------------------------
// The record stream.
// ---------------------------------------------------------------------------

const TAG_HEADER: u8 = 1;
const TAG_ROUND: u8 = 2;
const TAG_FINISHED: u8 = 3;

/// One decoded campaign record (see the module-level table).
#[derive(Debug, PartialEq, Eq)]
enum Record {
    Header(CampaignHeader),
    Round(RoundRecord),
    Finished { digest: String },
}

fn encode_round(record: &RoundRecord) -> Vec<u8> {
    let mut buf = vec![TAG_ROUND];
    put_var(&mut buf, u64::from(record.round));
    put_list(&mut buf, &record.roster, |buf, &member| {
        put_usize(buf, member)
    });
    put_list(&mut buf, &record.sessions, put_session);
    put_list(&mut buf, &record.books, put_books);
    put_list(&mut buf, &record.events, put_event);
    buf
}

fn encode_finished(digest: &str) -> Vec<u8> {
    let mut buf = vec![TAG_FINISHED];
    put_str(&mut buf, digest);
    buf
}

fn decode_record(payload: &[u8]) -> Result<Record, SchemeError> {
    let mut buf = payload;
    let tag = get_u8(&mut buf, "record tag")?;
    let record = match tag {
        TAG_HEADER => Record::Header(decode_header(&mut buf)?),
        TAG_ROUND => Record::Round(RoundRecord {
            round: get_u32(&mut buf, "round number")?,
            roster: get_list(&mut buf, "round roster", |buf| {
                get_usize(buf, "roster member")
            })?,
            sessions: get_list(&mut buf, "session count", get_session)?,
            books: get_list(&mut buf, "member books count", get_books)?,
            events: get_list(&mut buf, "fault event count", get_event)?,
        }),
        TAG_FINISHED => Record::Finished {
            digest: get_string(&mut buf, "finish digest")?,
        },
        tag => return Err(bad(format!("unknown record tag {tag}"))),
    };
    if !buf.is_empty() {
        return Err(bad(format!(
            "record tag {tag} left {} undecoded trailing bytes",
            buf.len()
        )));
    }
    Ok(record)
}

// ---------------------------------------------------------------------------
// Replay and resume.
// ---------------------------------------------------------------------------

/// What [`DurableCampaign::resume`] found in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeReport {
    /// Committed rounds replayed into supervisor state.
    pub rounds_replayed: u32,
    /// Journal records kept (header + committed rounds).
    pub records_kept: u64,
    /// Intact records dropped: a `Finished` record whose seal never
    /// reached disk, written again when the campaign finishes.
    pub records_dropped: u64,
    /// The torn-tail warning, if the file ended mid-record.
    pub torn: Option<String>,
    /// Whether the journal was already sealed (the campaign finished).
    pub sealed: bool,
    /// The journaled summary digest, when the campaign had finished.
    pub finished_digest: Option<String>,
}

/// One crash-durable campaign: a write-ahead journal plus the replayed
/// state of whatever a previous (killed) run already committed.
///
/// Create one with [`create`](Self::create) for a fresh campaign or
/// [`resume`](Self::resume) to pick up a killed one, then pass it to
/// [`run_durable_fleet`](crate::run_durable_fleet).
pub struct DurableCampaign {
    /// `None` for a sealed journal: a finished campaign is read-only.
    writer: Option<JournalWriter>,
    header: CampaignHeader,
    /// The replayed state, until the round loop takes it.
    state: Option<CampaignState>,
}

impl std::fmt::Debug for DurableCampaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableCampaign")
            .field("header", &self.header)
            .field("replayed", &self.state.is_some())
            .finish_non_exhaustive()
    }
}

impl DurableCampaign {
    /// Starts a fresh journaled campaign: writes the header record, then
    /// arms `crash` — so "kill at record `n`" counts campaign records,
    /// and the header (which `--resume` needs) is always durable.
    ///
    /// # Errors
    ///
    /// Journal I/O failures, as [`SchemeError::Journal`].
    pub fn create(
        path: &Path,
        header: CampaignHeader,
        crash: CrashPlan,
    ) -> Result<Self, SchemeError> {
        let mut writer = JournalWriter::create(path).map_err(|e| jerr(&e))?;
        writer
            .append(&encode_header(&header))
            .map_err(|e| jerr(&e))?;
        writer.arm(crash);
        Ok(DurableCampaign {
            writer: Some(writer),
            header,
            state: None,
        })
    }

    /// Resumes a killed campaign from its journal: scans the file,
    /// truncates the torn tail and an unsealed `Finished` record, replays
    /// every round record through the same `CampaignState::apply` the
    /// live loop calls, and re-opens the journal for appending (arming
    /// `crash` for the continuation). A sealed journal resumes read-only:
    /// the campaign re-derives its summary without writing anything.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Journal`] when the file is not a journal, has no
    /// header record, contains records this build cannot decode, or
    /// commits a round no live run could have written: one that is not
    /// the next round, lies beyond the header's retry budget, does not
    /// run exactly the members still pending, or does not hold one
    /// session and one set of books for each of them.
    pub fn resume(path: &Path, crash: CrashPlan) -> Result<(Self, ResumeReport), SchemeError> {
        let journal = read_journal(path).map_err(|e| jerr(&e))?;
        let torn = match &journal.tail {
            TailStatus::Clean => None,
            TailStatus::Torn { offset, reason } => {
                Some(format!("torn tail at byte {offset}: {reason}"))
            }
        };
        let mut records = journal.records.iter().enumerate().map(|(index, raw)| {
            decode_record(&raw.payload)
                .map_err(|e| bad(format!("journal record {index} is undecodable: {e}")))
        });
        let Some(Record::Header(header)) = records.next().transpose()? else {
            return Err(bad(
                "journal has no campaign header record (crashed before the campaign began, or not a campaign journal)"
                    .to_string(),
            ));
        };
        let mut state = CampaignState::new(header.member_slots.len());
        let mut rounds_replayed = 0u32;
        // Records kept on resume: the header and every round. An unsealed
        // Finished record is truncated and written again.
        let mut keep: u64 = 1;
        let mut finished_digest: Option<String> = None;
        for (index, record) in (1u64..).zip(records) {
            let at = |reason: String| bad(format!("record {index}: {reason}"));
            match record? {
                Record::Header(_) => return Err(at("duplicate header".to_string())),
                Record::Round(round) => {
                    if let Some(reason) = refusal(&state, header.retries, &round) {
                        return Err(at(reason));
                    }
                    state.apply(round);
                    rounds_replayed += 1;
                    keep = index + 1;
                }
                Record::Finished { digest } => {
                    finished_digest = Some(digest);
                }
            }
        }
        let sealed = journal.seal.is_some();
        let total = journal.records.len() as u64;
        let (writer, records_kept, records_dropped) = if sealed {
            // A finished campaign: nothing to write, nothing to truncate.
            (None, total, 0)
        } else {
            let mut writer = JournalWriter::resume(path, keep).map_err(|e| jerr(&e))?;
            writer.arm(crash);
            (Some(writer), keep, total - keep)
        };
        let report = ResumeReport {
            rounds_replayed,
            records_kept,
            records_dropped,
            torn,
            sealed,
            finished_digest: if sealed { finished_digest } else { None },
        };
        Ok((
            DurableCampaign {
                writer,
                header,
                state: Some(state),
            },
            report,
        ))
    }

    /// The campaign header (from [`create`](Self::create), or as decoded
    /// from the journal on resume).
    #[must_use]
    pub fn header(&self) -> &CampaignHeader {
        &self.header
    }

    /// Takes the replayed state (present only after a resume, and only
    /// once).
    pub(crate) fn take_state(&mut self) -> Option<CampaignState> {
        self.state.take()
    }

    /// Appends one record; a read-only campaign writes nothing. After a
    /// failure — I/O, or the armed [`CrashPlan`]'s kill point — the
    /// writer refuses every later append too.
    fn append(&mut self, payload: &[u8]) -> Result<(), SchemeError> {
        match &mut self.writer {
            Some(writer) => writer.append(payload).map(drop).map_err(|e| jerr(&e)),
            None => Ok(()),
        }
    }

    /// Journals a settled round as one `Round` record, before the round
    /// is applied: resume replays the round once its record is on disk,
    /// and runs it again otherwise.
    pub(crate) fn commit(&mut self, record: &RoundRecord) -> Result<(), SchemeError> {
        self.append(&encode_round(record))
    }

    /// Journals the summary digest and seals the journal under it.
    pub(crate) fn finish(&mut self, digest: &str) -> Result<(), SchemeError> {
        self.append(&encode_finished(digest))?;
        match &mut self.writer {
            Some(writer) => writer.seal().map(drop).map_err(|e| jerr(&e)),
            None => Ok(()),
        }
    }
}

/// Why `record` is not a round a live run with retry budget `retries`
/// could have committed next from `state` — or `None` when it is.
fn refusal(state: &CampaignState, retries: u32, record: &RoundRecord) -> Option<String> {
    let round = record.round;
    let roster = &record.roster;
    if state.next_round != Some(round) || round > retries {
        Some(format!(
            "round {round} is not the next round ({:?}) within {retries} retries",
            state.next_round
        ))
    } else if roster.is_empty() || *roster != state.pending() {
        Some(format!(
            "round {round} runs {roster:?}, not the pending members {:?}",
            state.pending()
        ))
    } else if record.sessions.len() != roster.len() || record.books.len() != roster.len() {
        Some(format!(
            "round {round} settles {} and books {} of its {} members",
            record.sessions.len(),
            record.books.len(),
            roster.len()
        ))
    } else {
        None
    }
}

/// The canonical digest of a [`FleetSummary`]: SHA-256 (hex) over the
/// record codec's bytes for every schedule-invariant field, in this
/// order — the members as a counted list (participant, share start and
/// length, accepted flag, attempts, verdict, supervisor tx and rx bytes,
/// supervisor then participant costs), the session and byte totals, and
/// the sorted fault log as a counted list. Message counts, screened
/// reports and wall-clock time are not covered. Two runs of the same
/// seed — including a killed-and-resumed run — produce the same digest
/// at any worker count.
#[must_use]
pub fn summary_digest(summary: &FleetSummary) -> String {
    let mut buf = Vec::new();
    put_list(&mut buf, &summary.members, |buf, m| {
        put_usize(buf, m.participant);
        put_var(buf, m.share.start());
        put_var(buf, m.share.len());
        put_u8(buf, u8::from(m.outcome.accepted));
        put_var(buf, u64::from(m.attempts));
        put_verdict(buf, &m.outcome.verdict);
        put_var(buf, m.outcome.supervisor_link.bytes_sent);
        put_var(buf, m.outcome.supervisor_link.bytes_received);
        put_report(buf, &m.outcome.supervisor_costs);
        put_report(buf, &m.outcome.participant_costs);
    });
    put_var(&mut buf, summary.throughput.sessions);
    put_var(&mut buf, summary.throughput.bytes);
    put_list(&mut buf, &summary.fault_events, put_event);
    ugc_hash::hex::encode(&Sha256::digest(&buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "ugc-core-journal-{}-{tag}-{n}.wal",
            std::process::id()
        ))
    }

    fn sample_header() -> CampaignHeader {
        CampaignHeader {
            app: vec![9, 8, 7],
            member_slots: vec![1, 1, 2],
            domain: Domain::new(10, 300),
            storage: ParticipantStorage::Partial { subtree_height: 3 },
            chaos: Some(FaultPlan {
                seed: 42,
                drop_per_1024: 8,
                dup_per_1024: 4,
                reorder_per_1024: 2,
                max_delay_micros: 150,
                crash_per_1024: 1,
            }),
            deadline: Some(Duration::from_millis(250)),
            retries: 5,
        }
    }

    #[test]
    fn header_round_trips() {
        for header in [
            sample_header(),
            CampaignHeader {
                app: Vec::new(),
                member_slots: vec![1],
                domain: Domain::new(0, 8),
                storage: ParticipantStorage::Full,
                chaos: None,
                deadline: None,
                retries: 0,
            },
        ] {
            let encoded = encode_header(&header);
            assert_eq!(decode_record(&encoded).unwrap(), Record::Header(header));
        }
    }

    #[test]
    fn header_is_the_same_over_every_transport() {
        use crate::orchestrator::FleetScheme;
        use crate::TransportKind;
        use ugc_grid::HonestWorker;
        let scheme = FleetScheme::Naive { samples: 4 }.instantiate::<Sha256>(1);
        let behaviour = HonestWorker;
        let members = [MemberSpec::<'_, Sha256> {
            scheme: scheme.as_ref(),
            behaviours: vec![&behaviour],
        }];
        let domain = Domain::new(0, 64);
        let header = |transport| {
            encode_header(&CampaignHeader::for_campaign(
                &members,
                domain,
                &MixedFleetConfig {
                    transport,
                    ..MixedFleetConfig::default()
                },
                vec![1],
            ))
        };
        // Every transport digests a campaign identically, so a journal is
        // the same bytes over each, and resumes over any of them.
        let direct = header(TransportKind::Direct);
        assert_eq!(header(TransportKind::Brokered), direct);
        assert_eq!(header(TransportKind::Remote), direct);
    }

    /// A settled session: accepted with `bytes` sent and received, or
    /// timed out.
    fn session(accepted: bool, bytes: u64) -> SessionResult {
        SessionResult {
            outcome: if accepted {
                Ok(SessionOutcome {
                    verdict: Verdict::Accepted,
                    reports: Vec::new(),
                })
            } else {
                Err(SchemeError::TimedOut)
            },
            link: LinkStats {
                bytes_sent: bytes,
                bytes_received: bytes,
                messages_sent: 1,
                messages_received: 1,
            },
        }
    }

    /// Round `round` over `roster`, in which the members at the roster
    /// indices in `failed` time out; every member is charged `costs` on
    /// both sides.
    fn round(round: u32, roster: &[usize], failed: &[usize], costs: CostReport) -> RoundRecord {
        RoundRecord {
            round,
            roster: roster.to_vec(),
            sessions: (0..roster.len())
                .map(|r| session(!failed.contains(&r), 6))
                .collect(),
            books: roster
                .iter()
                .map(|_| MemberBooks {
                    sup_costs: costs,
                    part_costs: costs,
                    part_results: vec![Ok(false)],
                })
                .collect(),
            events: Vec::new(),
        }
    }

    /// `record`, encoded and decoded back.
    fn round_trip(record: &RoundRecord) -> RoundRecord {
        match decode_record(&encode_round(record)).unwrap() {
            Record::Round(decoded) => decoded,
            other => panic!("expected a round record, got {other:?}"),
        }
    }

    #[test]
    fn round_records_round_trip() {
        let costs = CostReport {
            f_evals: 1,
            hash_ops: 2,
            g_evals: 3,
            verify_ops: 4,
        };
        let mut record = round(3, &[0, 2, 5], &[1], costs);
        record.sessions[0] = SessionResult {
            outcome: Ok(SessionOutcome {
                verdict: Verdict::CommitmentMismatch { sample: 17 },
                reports: vec![ScreenReport {
                    input: 99,
                    payload: vec![1, 2, 3],
                }],
            }),
            link: LinkStats {
                bytes_sent: 10,
                bytes_received: 20,
                messages_sent: 3,
                messages_received: 4,
            },
        };
        record.books[2].part_results = vec![Ok(true), Err(SchemeError::TimedOut)];
        record.events = vec![
            FaultEvent::Dropped {
                link: 7,
                direction: LinkDirection::Inbound,
                seq: 3,
            },
            FaultEvent::Delayed {
                link: 8,
                direction: LinkDirection::Outbound,
                seq: 5,
                micros: 99,
            },
            FaultEvent::Crashed { link: 9, after: 2 },
        ];
        assert_eq!(round_trip(&record), record);

        let finished = encode_finished("abc123");
        assert_eq!(
            decode_record(&finished).unwrap(),
            Record::Finished {
                digest: "abc123".into()
            }
        );
    }

    #[test]
    fn error_variants_round_trip_through_settled_records() {
        let errors = vec![
            SchemeError::Grid(GridError::UnexpectedEof {
                context: "frame".into(),
            }),
            SchemeError::Grid(GridError::UnknownTag { tag: 200 }),
            SchemeError::Grid(GridError::TrailingBytes { remaining: 5 }),
            SchemeError::Grid(GridError::LengthOverflow { declared: 1 << 40 }),
            SchemeError::Grid(GridError::Disconnected),
            SchemeError::Merkle(MerkleError::MixedLeafWidth {
                expected: 4,
                found: 8,
                index: 2,
            }),
            SchemeError::Merkle(MerkleError::ProviderMismatch { subtree_index: 3 }),
            SchemeError::Merkle(MerkleError::NoIndices),
            SchemeError::Merkle(MerkleError::OpeningShape {
                row: OpeningRow::DigestSiblings,
                entries: 9,
                width: 32,
                found: 31,
            }),
            SchemeError::Merkle(MerkleError::OpeningShape {
                row: OpeningRow::LeafValues,
                entries: 1,
                width: 16,
                found: 0,
            }),
            SchemeError::Merkle(MerkleError::LeavesNotResident { subtree_height: 6 }),
            SchemeError::UnexpectedMessage {
                expected: "Commit".into(),
                got: "Verdict".into(),
            },
            SchemeError::TaskMismatch {
                expected: 1,
                got: 2,
            },
            SchemeError::ProofCountMismatch {
                expected: 3,
                got: 4,
            },
            SchemeError::InvalidConfig {
                reason: "m = 0".into(),
            },
            SchemeError::MalformedPayload {
                what: "root".into(),
            },
            SchemeError::TimedOut,
            SchemeError::Journal {
                reason: "killed".into(),
            },
        ];
        for error in errors {
            let mut record = round(0, &[0], &[], CostReport::default());
            record.sessions[0].outcome = Err(error.clone());
            let decoded = round_trip(&record).sessions.remove(0).outcome.unwrap_err();
            // The same error with the same text: a decoded string is an
            // owned copy of the literal, and prints the same.
            assert_eq!(decoded, error);
            assert_eq!(
                format!("{decoded} {decoded:?}"),
                format!("{error} {error:?}")
            );
        }
    }

    #[test]
    fn an_accepted_member_costs_at_most_32_bytes_a_round() {
        // One single-slot member's roster entry, session result and
        // books, at the scale of a swarm session.
        let costs = CostReport {
            f_evals: 8,
            hash_ops: 15,
            g_evals: 0,
            verify_ops: 4,
        };
        let mut one = round(0, &[7], &[], costs);
        one.sessions[0].link.bytes_sent = 150;
        one.sessions[0].link.bytes_received = 152;
        let row = encode_round(&one).len() - encode_round(&round(0, &[], &[], costs)).len();
        assert!(row <= 32, "a member's row is {row} B");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_round(&round(0, &[0], &[], CostReport::default()));
        payload.push(0xFF);
        let err = decode_record(&payload).unwrap_err();
        assert!(matches!(err, SchemeError::Journal { .. }), "{err}");
    }

    #[test]
    fn resume_replays_committed_rounds_and_drops_uncommitted_ones() {
        let path = temp_journal("replay");
        let header = CampaignHeader {
            member_slots: vec![1, 1],
            ..sample_header()
        };
        let mut campaign =
            DurableCampaign::create(&path, header.clone(), CrashPlan::never()).unwrap();
        let costs = CostReport {
            f_evals: 10,
            hash_ops: 4,
            g_evals: 0,
            verify_ops: 1,
        };
        // Round 0 commits: member 0 accepted, member 1 timed out. Then a
        // Finished record whose seal never reached disk (the "crash").
        campaign.commit(&round(0, &[0, 1], &[1], costs)).unwrap();
        campaign.append(&encode_finished("unsealed")).unwrap();
        drop(campaign);

        let (mut resumed, report) = DurableCampaign::resume(&path, CrashPlan::never()).unwrap();
        assert_eq!(resumed.header(), &header);
        assert_eq!(report.rounds_replayed, 1);
        assert_eq!(report.records_kept, 2); // the header and round 0
        assert_eq!(report.records_dropped, 1); // the unsealed Finished
        assert_eq!(report.torn, None);
        assert!(!report.sealed);
        assert_eq!(report.finished_digest, None);
        let state = resumed.take_state().unwrap();
        assert_eq!(state.next_round, Some(1));
        assert_eq!(state.pending(), vec![1]);
        // The replayed state is the live one: applying the same round to
        // a fresh state gives the same books, the byte total counting
        // only the accepted session.
        let mut live = CampaignState::new(2);
        live.apply(round(0, &[0, 1], &[1], costs));
        assert_eq!(format!("{state:?}"), format!("{live:?}"));
        assert!(
            format!("{state:?}").contains("total_bytes: 12"),
            "{state:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kill_point_latches_and_resume_continues() {
        let path = temp_journal("kill");
        // Kill at the 2nd campaign record (the header is unarmed).
        let mut campaign =
            DurableCampaign::create(&path, sample_header(), CrashPlan::at(2)).unwrap();
        let first = round(0, &[0, 1, 2], &[2], CostReport::default());
        campaign.commit(&first).unwrap();
        let retry = round(1, &[2], &[], CostReport::default());
        let failure = campaign.commit(&retry).unwrap_err();
        assert!(failure.to_string().contains("kill point"), "{failure}");
        // The killed campaign stays killed: every later write fails the
        // same way.
        assert_eq!(campaign.commit(&retry).unwrap_err(), failure);
        assert_eq!(campaign.finish("digest").unwrap_err(), failure);
        drop(campaign);

        let (_, report) = DurableCampaign::resume(&path, CrashPlan::never()).unwrap();
        assert_eq!(report.rounds_replayed, 1);
        assert_eq!(report.records_kept, 2); // the header and round 0
        assert_eq!(report.records_dropped, 0); // the killed round never reached disk
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sealed_journal_resumes_read_only() {
        let path = temp_journal("sealed");
        let mut campaign =
            DurableCampaign::create(&path, sample_header(), CrashPlan::never()).unwrap();
        let round = round(0, &[0, 1, 2], &[], CostReport::default());
        campaign.commit(&round).unwrap();
        campaign.finish("deadbeef").unwrap();
        drop(campaign);
        let sealed = std::fs::read(&path).unwrap();

        let (mut resumed, report) = DurableCampaign::resume(&path, CrashPlan::never()).unwrap();
        assert!(report.sealed);
        assert_eq!(report.rounds_replayed, 1);
        assert_eq!(report.records_kept, 3); // header, round, Finished
        assert_eq!(report.finished_digest.as_deref(), Some("deadbeef"));
        assert_eq!(report.records_dropped, 0);
        // The read-only campaign swallows writes and never fails.
        resumed.commit(&round).unwrap();
        resumed.finish("deadbeef").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), sealed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_headerless_and_malformed_journals() {
        let path = temp_journal("broken");
        let mut writer = JournalWriter::create(&path).unwrap();
        writer
            .append(&encode_round(&round(0, &[0], &[], CostReport::default())))
            .unwrap();
        drop(writer);
        let err = DurableCampaign::resume(&path, CrashPlan::never()).unwrap_err();
        assert!(matches!(err, SchemeError::Journal { .. }), "{err}");

        let mut writer = JournalWriter::create(&path).unwrap();
        writer.append(&[0xEE, 0xEE]).unwrap();
        drop(writer);
        let err = DurableCampaign::resume(&path, CrashPlan::never()).unwrap_err();
        assert!(matches!(err, SchemeError::Journal { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn summary_digest_covers_exactly_the_schedule_invariant_fields() {
        // Two members and one fault event; each edit changes one field.
        let fixture = || {
            let member = |participant, start| crate::orchestrator::FleetMember {
                participant,
                share: Domain::new(start, 32),
                outcome: crate::RoundOutcome::new(
                    Verdict::Accepted,
                    CostReport::default(),
                    CostReport::default(),
                    session(true, 150).link,
                    vec![ScreenReport {
                        input: start,
                        payload: Vec::new(),
                    }],
                ),
                attempts: 1,
            };
            FleetSummary {
                members: vec![member(0, 0), member(1, 32)],
                reports: Vec::new(),
                throughput: ugc_grid::Throughput::default(),
                fault_events: vec![FaultEvent::Crashed { link: 1, after: 4 }],
            }
        };
        let base = summary_digest(&fixture());
        let digest_after = |edit: &dyn Fn(&mut FleetSummary)| {
            let mut summary = fixture();
            edit(&mut summary);
            summary_digest(&summary)
        };
        let covered: [fn(&mut FleetSummary); 11] = [
            |s| s.members[1].participant = 2,
            |s| s.members[1].share = Domain::new(33, 32),
            |s| s.members[1].share = Domain::new(32, 31),
            |s| s.members[0].outcome.accepted = false,
            |s| s.members[0].attempts = 2,
            |s| s.members[0].outcome.verdict = Verdict::RingerMissed,
            |s| s.members[0].outcome.supervisor_link.bytes_sent += 1,
            |s| s.members[0].outcome.supervisor_link.bytes_received += 1,
            |s| s.throughput.sessions += 1,
            |s| s.throughput.bytes += 1,
            |s| s.fault_events[0] = FaultEvent::Crashed { link: 1, after: 5 },
        ];
        for (i, edit) in covered.iter().enumerate() {
            assert_ne!(digest_after(edit), base, "covered edit {i}");
        }
        for axis in 0..4 {
            let mut unit = [0; 4];
            unit[axis] = 1;
            let [f_evals, hash_ops, g_evals, verify_ops] = unit;
            let bump = CostReport {
                f_evals,
                hash_ops,
                g_evals,
                verify_ops,
            };
            let sup = digest_after(&|s| s.members[0].outcome.supervisor_costs = bump);
            let part = digest_after(&|s| s.members[1].outcome.participant_costs = bump);
            assert!(sup != base && part != base, "cost axis {axis}");
        }
        let uncovered: [fn(&mut FleetSummary); 4] = [
            |s| s.throughput.wall = Duration::from_secs(9),
            |s| s.members[0].outcome.reports.clear(),
            |s| s.members[0].outcome.supervisor_link.messages_sent += 1,
            |s| s.members[1].outcome.supervisor_link.messages_received += 1,
        ];
        for (i, edit) in uncovered.iter().enumerate() {
            assert_eq!(digest_after(edit), base, "uncovered edit {i}");
        }
    }
}
