//! Durable campaigns: the record layer between the orchestrator and the
//! `ugc-journal` write-ahead log.
//!
//! The journal crate knows only about opaque payloads; this module gives
//! them meaning. A durable campaign writes one [`CampaignHeader`] record
//! (so `--resume` can reconstruct the run from the file alone), then a
//! strictly sequential stream of round records:
//!
//! | tag | record | written by | contents |
//! |----:|--------|------------|----------|
//! | 1 | `Header` | [`DurableCampaign::create`] | fleet shape, domain, chaos plan, CLI blob |
//! | 2 | `RoundStart` | orchestrator | round number, roster (member indices) |
//! | 3 | `Settled` | session engine | per-session outcome + link stats, in registration order |
//! | 4 | `MemberState` | orchestrator | per-member `CostLedger` deltas + participant results |
//! | 5 | `RoundEnd` | orchestrator | round number, sorted fault events — the commit marker |
//! | 6 | `Finished` | orchestrator | the campaign summary digest, then the seal |
//!
//! Recovery is *round-atomic*: [`DurableCampaign::resume`] replays only
//! rounds that reached their `RoundEnd` commit marker, truncates everything
//! after the last one (including a torn tail), and hands the orchestrator a
//! [`ReplayState`] that seeds its loop exactly where the dead process left
//! off. Because every record the campaign loop writes is a pure function of
//! the seed, the resumed run's verdicts, attempts, cost ledgers and fault
//! log are bit-identical to a never-killed run — the invariant
//! `tests/crash_resume.rs` proves at every kill point.
//!
//! This file is deliberately named `journal.rs`: `ugc-lint`'s `lossy-cast`
//! rule audits journal/codec paths, so every narrowing here must be a
//! checked `try_from`, never an `as`.

use crate::backend::TransportKind;
use crate::engine::SessionResult;
use crate::orchestrator::{FleetSummary, MemberSpec, MixedFleetConfig};
use crate::session::SessionOutcome;
use crate::{ParticipantStorage, SchemeError, Verdict};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;
use ugc_grid::codec::{
    get_bytes, get_u32, get_u64, get_u64_list, put_bytes, put_u32, put_u64, put_u64_list,
};
use ugc_grid::runtime::{FaultEvent, FaultPlan, LinkDirection};
use ugc_grid::{CostLedger, CostReport, GridError, LinkStats};
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
// Codec primitives the grid codec does not provide.
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

fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

fn get_usize(buf: &mut &[u8], context: &'static str) -> Result<usize, SchemeError> {
    let v = get_u64(buf, context)?;
    usize::try_from(v).map_err(|_| bad(format!("{context}: {v} exceeds this platform's usize")))
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

fn get_string(buf: &mut &[u8], context: &'static str) -> Result<String, SchemeError> {
    let bytes = get_bytes(buf, context)?;
    String::from_utf8(bytes).map_err(|_| bad(format!("{context}: invalid UTF-8")))
}

/// Decodes a `&'static str` field. The originals are compile-time string
/// literals; round-tripping through the journal has to materialise them,
/// and leaking is the only safe way back to `'static`. Bounded in
/// practice: error strings are short and a resume decodes each record
/// once.
fn get_static_str(buf: &mut &[u8], context: &'static str) -> Result<&'static str, SchemeError> {
    Ok(Box::leak(get_string(buf, context)?.into_boxed_str()))
}

fn put_micros(buf: &mut Vec<u8>, d: Duration) {
    put_u64(buf, u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
}

// ---------------------------------------------------------------------------
// Field codecs for every type a campaign record carries.
// ---------------------------------------------------------------------------

fn put_verdict(buf: &mut Vec<u8>, v: &Verdict) {
    match *v {
        Verdict::Accepted => put_u8(buf, 0),
        Verdict::WrongResult { sample } => {
            put_u8(buf, 1);
            put_u64(buf, sample);
        }
        Verdict::CommitmentMismatch { sample } => {
            put_u8(buf, 2);
            put_u64(buf, sample);
        }
        Verdict::SampleDerivationMismatch => put_u8(buf, 3),
        Verdict::ReportMismatch { input } => {
            put_u8(buf, 4);
            put_u64(buf, input);
        }
        Verdict::RingerMissed => put_u8(buf, 5),
        Verdict::ReplicaDisagreement { index } => {
            put_u8(buf, 6);
            put_u64(buf, index);
        }
    }
}

fn get_verdict(buf: &mut &[u8]) -> Result<Verdict, SchemeError> {
    Ok(match get_u8(buf, "verdict tag")? {
        0 => Verdict::Accepted,
        1 => Verdict::WrongResult {
            sample: get_u64(buf, "verdict sample")?,
        },
        2 => Verdict::CommitmentMismatch {
            sample: get_u64(buf, "verdict sample")?,
        },
        3 => Verdict::SampleDerivationMismatch,
        4 => Verdict::ReportMismatch {
            input: get_u64(buf, "verdict input")?,
        },
        5 => Verdict::RingerMissed,
        6 => Verdict::ReplicaDisagreement {
            index: get_u64(buf, "verdict index")?,
        },
        tag => return Err(bad(format!("unknown verdict tag {tag}"))),
    })
}

fn put_grid_error(buf: &mut Vec<u8>, e: &GridError) {
    match *e {
        GridError::UnexpectedEof { context } => {
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
            put_u64(buf, declared);
        }
        GridError::Disconnected => put_u8(buf, 4),
        GridError::Empty => put_u8(buf, 5),
        GridError::TornFrame { expected, got } => {
            put_u8(buf, 6);
            put_u64(buf, expected);
            put_u64(buf, got);
        }
        GridError::HandshakeMismatch { ours, theirs } => {
            put_u8(buf, 7);
            put_u32(buf, ours);
            put_u32(buf, theirs);
        }
    }
}

fn get_grid_error(buf: &mut &[u8]) -> Result<GridError, SchemeError> {
    Ok(match get_u8(buf, "grid error tag")? {
        0 => GridError::UnexpectedEof {
            context: get_static_str(buf, "grid error context")?,
        },
        1 => GridError::UnknownTag {
            tag: get_u8(buf, "grid error byte")?,
        },
        2 => GridError::TrailingBytes {
            remaining: get_usize(buf, "grid error remaining")?,
        },
        3 => GridError::LengthOverflow {
            declared: get_u64(buf, "grid error declared")?,
        },
        4 => GridError::Disconnected,
        5 => GridError::Empty,
        6 => GridError::TornFrame {
            expected: get_u64(buf, "grid error expected")?,
            got: get_u64(buf, "grid error got")?,
        },
        7 => GridError::HandshakeMismatch {
            ours: get_u32(buf, "grid error ours")?,
            theirs: get_u32(buf, "grid error theirs")?,
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
            put_u64(buf, index);
        }
        MerkleError::ZeroLeafWidth => put_u8(buf, 2),
        MerkleError::IndexOutOfRange { index, leaf_count } => {
            put_u8(buf, 3);
            put_u64(buf, index);
            put_u64(buf, leaf_count);
        }
        MerkleError::SubtreeHeightOutOfRange {
            subtree_height,
            tree_height,
        } => {
            put_u8(buf, 4);
            put_u32(buf, subtree_height);
            put_u32(buf, tree_height);
        }
        MerkleError::ProviderMismatch { subtree_index } => {
            put_u8(buf, 5);
            put_u64(buf, subtree_index);
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
            put_u32(buf, subtree_height);
        }
    }
}

fn get_merkle_error(buf: &mut &[u8]) -> Result<MerkleError, SchemeError> {
    Ok(match get_u8(buf, "merkle error tag")? {
        0 => MerkleError::EmptyTree,
        1 => MerkleError::MixedLeafWidth {
            expected: get_usize(buf, "merkle expected width")?,
            found: get_usize(buf, "merkle found width")?,
            index: get_u64(buf, "merkle leaf index")?,
        },
        2 => MerkleError::ZeroLeafWidth,
        3 => MerkleError::IndexOutOfRange {
            index: get_u64(buf, "merkle index")?,
            leaf_count: get_u64(buf, "merkle leaf count")?,
        },
        4 => MerkleError::SubtreeHeightOutOfRange {
            subtree_height: get_u32(buf, "merkle subtree height")?,
            tree_height: get_u32(buf, "merkle tree height")?,
        },
        5 => MerkleError::ProviderMismatch {
            subtree_index: get_u64(buf, "merkle subtree index")?,
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
            put_u64(buf, *expected);
            put_u64(buf, *got);
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
            expected: get_static_str(buf, "scheme error expected")?,
            got: get_static_str(buf, "scheme error got")?,
        },
        3 => SchemeError::TaskMismatch {
            expected: get_u64(buf, "scheme error expected id")?,
            got: get_u64(buf, "scheme error got id")?,
        },
        4 => SchemeError::ProofCountMismatch {
            expected: get_usize(buf, "scheme error expected proofs")?,
            got: get_usize(buf, "scheme error got proofs")?,
        },
        5 => SchemeError::InvalidConfig {
            reason: get_static_str(buf, "scheme error reason")?,
        },
        6 => SchemeError::MalformedPayload {
            what: get_static_str(buf, "scheme error what")?,
        },
        7 => SchemeError::TimedOut,
        8 => SchemeError::Journal {
            reason: get_string(buf, "scheme error journal reason")?,
        },
        tag => return Err(bad(format!("unknown scheme error tag {tag}"))),
    })
}

fn put_link(buf: &mut Vec<u8>, link: &LinkStats) {
    put_u64(buf, link.bytes_sent);
    put_u64(buf, link.bytes_received);
    put_u64(buf, link.messages_sent);
    put_u64(buf, link.messages_received);
}

fn get_link(buf: &mut &[u8]) -> Result<LinkStats, SchemeError> {
    Ok(LinkStats {
        bytes_sent: get_u64(buf, "link bytes sent")?,
        bytes_received: get_u64(buf, "link bytes received")?,
        messages_sent: get_u64(buf, "link messages sent")?,
        messages_received: get_u64(buf, "link messages received")?,
    })
}

pub(crate) fn put_report(buf: &mut Vec<u8>, report: &CostReport) {
    put_u64(buf, report.f_evals);
    put_u64(buf, report.hash_ops);
    put_u64(buf, report.hash_wall_ops);
    put_u64(buf, report.g_evals);
    put_u64(buf, report.verify_ops);
}

pub(crate) fn get_report(buf: &mut &[u8]) -> Result<CostReport, SchemeError> {
    Ok(CostReport {
        f_evals: get_u64(buf, "cost f_evals")?,
        hash_ops: get_u64(buf, "cost hash_ops")?,
        hash_wall_ops: get_u64(buf, "cost hash_wall_ops")?,
        g_evals: get_u64(buf, "cost g_evals")?,
        verify_ops: get_u64(buf, "cost verify_ops")?,
    })
}

fn put_outcome(buf: &mut Vec<u8>, outcome: &SessionOutcome) {
    put_verdict(buf, &outcome.verdict);
    put_usize(buf, outcome.reports.len());
    for report in &outcome.reports {
        put_u64(buf, report.input);
        put_bytes(buf, &report.payload);
    }
}

fn get_outcome(buf: &mut &[u8]) -> Result<SessionOutcome, SchemeError> {
    let verdict = get_verdict(buf)?;
    let count = get_usize(buf, "report count")?;
    let mut reports = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        reports.push(ScreenReport {
            input: get_u64(buf, "report input")?,
            payload: get_bytes(buf, "report payload")?,
        });
    }
    Ok(SessionOutcome { verdict, reports })
}

fn put_session_result(buf: &mut Vec<u8>, outcome: &Result<SessionOutcome, SchemeError>) {
    match outcome {
        Ok(ok) => {
            put_u8(buf, 1);
            put_outcome(buf, ok);
        }
        Err(e) => {
            put_u8(buf, 0);
            put_scheme_error(buf, e);
        }
    }
}

fn get_session_result(buf: &mut &[u8]) -> Result<Result<SessionOutcome, SchemeError>, SchemeError> {
    Ok(match get_u8(buf, "session result tag")? {
        1 => Ok(get_outcome(buf)?),
        0 => Err(get_scheme_error(buf)?),
        tag => return Err(bad(format!("unknown session result tag {tag}"))),
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
        1 => Ok(get_u8(buf, "participant result flag")? != 0),
        0 => Err(get_scheme_error(buf)?),
        tag => return Err(bad(format!("unknown participant result tag {tag}"))),
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
            put_u64(buf, link);
            put_direction(buf, direction);
            put_u64(buf, seq);
        }
        FaultEvent::Duplicated {
            link,
            direction,
            seq,
        } => {
            put_u8(buf, 1);
            put_u64(buf, link);
            put_direction(buf, direction);
            put_u64(buf, seq);
        }
        FaultEvent::Reordered {
            link,
            direction,
            seq,
        } => {
            put_u8(buf, 2);
            put_u64(buf, link);
            put_direction(buf, direction);
            put_u64(buf, seq);
        }
        FaultEvent::Delayed {
            link,
            direction,
            seq,
            micros,
        } => {
            put_u8(buf, 3);
            put_u64(buf, link);
            put_direction(buf, direction);
            put_u64(buf, seq);
            put_u32(buf, micros);
        }
        FaultEvent::Crashed { link, after } => {
            put_u8(buf, 4);
            put_u64(buf, link);
            put_u64(buf, after);
        }
    }
}

fn get_event(buf: &mut &[u8]) -> Result<FaultEvent, SchemeError> {
    Ok(match get_u8(buf, "fault event tag")? {
        0 => FaultEvent::Dropped {
            link: get_u64(buf, "fault link")?,
            direction: get_direction(buf)?,
            seq: get_u64(buf, "fault seq")?,
        },
        1 => FaultEvent::Duplicated {
            link: get_u64(buf, "fault link")?,
            direction: get_direction(buf)?,
            seq: get_u64(buf, "fault seq")?,
        },
        2 => FaultEvent::Reordered {
            link: get_u64(buf, "fault link")?,
            direction: get_direction(buf)?,
            seq: get_u64(buf, "fault seq")?,
        },
        3 => FaultEvent::Delayed {
            link: get_u64(buf, "fault link")?,
            direction: get_direction(buf)?,
            seq: get_u64(buf, "fault seq")?,
            micros: get_u32(buf, "fault micros")?,
        },
        4 => FaultEvent::Crashed {
            link: get_u64(buf, "fault link")?,
            after: get_u64(buf, "fault after")?,
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
/// Execution-only knobs (`parallelism`, `workers`, `steal_seed`,
/// `lanes`) are deliberately absent: digests are invariant under them,
/// so a campaign journaled on a 4-worker box resumes correctly on a
/// 64-worker one — under any work-stealing order and any digest lane
/// width. The opaque
/// [`app`](Self::app) blob carries whatever the CLI (or any embedder)
/// needs to rebuild its own task/fleet objects from the journal alone.
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
    /// The *digest class* of the transport the sessions multiplex over,
    /// as its canonical representative
    /// ([`TransportKind::digest_canonical`](crate::TransportKind::digest_canonical)):
    /// `Direct`, or `Brokered` for both relayed transports. `Remote` and
    /// `Brokered` share a class because the relay semantics — and hence
    /// the digests — are identical, so a campaign journaled against an
    /// in-process broker legally resumes over a real `ugc broker serve`
    /// grid (and vice versa). Socket addresses and process layout are
    /// execution-only and never reach the header.
    pub transport: TransportKind,
    /// Whether messages ride in session envelopes.
    pub envelope: bool,
    /// The seeded chaos plan, if any.
    pub chaos: Option<FaultPlan>,
    /// Per-session inactivity deadline, if any.
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
            transport: config.transport.digest_canonical(),
            envelope: config.envelope,
            chaos: config.chaos,
            deadline: config.deadline,
            retries: config.retries,
        }
    }
}

fn encode_header(header: &CampaignHeader) -> Vec<u8> {
    let mut buf = vec![TAG_HEADER];
    put_bytes(&mut buf, &header.app);
    put_u64_list(&mut buf, &header.member_slots);
    put_u64(&mut buf, header.domain.start());
    put_u64(&mut buf, header.domain.len());
    match header.storage {
        ParticipantStorage::Full => put_u8(&mut buf, 0),
        ParticipantStorage::Partial { subtree_height } => {
            put_u8(&mut buf, 1);
            put_u32(&mut buf, subtree_height);
        }
    }
    put_u8(&mut buf, header.transport.digest_class());
    put_u8(&mut buf, u8::from(header.envelope));
    match header.chaos {
        None => put_u8(&mut buf, 0),
        Some(plan) => {
            put_u8(&mut buf, 1);
            put_u64(&mut buf, plan.seed);
            put_u32(&mut buf, u32::from(plan.drop_per_1024));
            put_u32(&mut buf, u32::from(plan.dup_per_1024));
            put_u32(&mut buf, u32::from(plan.reorder_per_1024));
            put_u32(&mut buf, plan.max_delay_micros);
            put_u32(&mut buf, u32::from(plan.crash_per_1024));
        }
    }
    match header.deadline {
        None => put_u8(&mut buf, 0),
        Some(deadline) => {
            put_u8(&mut buf, 1);
            put_micros(&mut buf, deadline);
        }
    }
    put_u32(&mut buf, header.retries);
    buf
}

fn get_per_1024(buf: &mut &[u8], context: &'static str) -> Result<u16, SchemeError> {
    let v = get_u32(buf, context)?;
    u16::try_from(v).map_err(|_| bad(format!("{context}: rate {v} exceeds u16")))
}

fn decode_header(buf: &mut &[u8]) -> Result<CampaignHeader, SchemeError> {
    let app = get_bytes(buf, "header app blob")?;
    let member_slots = get_u64_list(buf, "header member slots")?;
    let start = get_u64(buf, "header domain start")?;
    let len = get_u64(buf, "header domain len")?;
    let domain = Domain::try_new(start, len)
        .map_err(|_| bad(format!("header domain {start}+{len} is invalid")))?;
    let storage = match get_u8(buf, "header storage tag")? {
        0 => ParticipantStorage::Full,
        1 => ParticipantStorage::Partial {
            subtree_height: get_u32(buf, "header subtree height")?,
        },
        tag => return Err(bad(format!("unknown storage tag {tag}"))),
    };
    let transport = match get_u8(buf, "header transport tag")? {
        0 => TransportKind::Direct,
        1 => TransportKind::Brokered,
        tag => return Err(bad(format!("unknown transport tag {tag}"))),
    };
    let envelope = get_u8(buf, "header envelope flag")? != 0;
    let chaos = match get_u8(buf, "header chaos flag")? {
        0 => None,
        _ => Some(FaultPlan {
            seed: get_u64(buf, "header chaos seed")?,
            drop_per_1024: get_per_1024(buf, "header drop rate")?,
            dup_per_1024: get_per_1024(buf, "header dup rate")?,
            reorder_per_1024: get_per_1024(buf, "header reorder rate")?,
            max_delay_micros: get_u32(buf, "header max delay")?,
            crash_per_1024: get_per_1024(buf, "header crash rate")?,
        }),
    };
    let deadline = match get_u8(buf, "header deadline flag")? {
        0 => None,
        _ => Some(Duration::from_micros(get_u64(buf, "header deadline")?)),
    };
    let retries = get_u32(buf, "header retries")?;
    Ok(CampaignHeader {
        app,
        member_slots,
        domain,
        storage,
        transport,
        envelope,
        chaos,
        deadline,
        retries,
    })
}

// ---------------------------------------------------------------------------
// The record stream.
// ---------------------------------------------------------------------------

const TAG_HEADER: u8 = 1;
const TAG_ROUND_START: u8 = 2;
const TAG_SETTLED: u8 = 3;
const TAG_MEMBER_STATE: u8 = 4;
const TAG_ROUND_END: u8 = 5;
const TAG_FINISHED: u8 = 6;

/// One decoded campaign record (see the module-level table).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Record {
    Header(CampaignHeader),
    RoundStart {
        round: u32,
        roster: Vec<u64>,
    },
    Settled {
        roster_index: u64,
        outcome: Result<SessionOutcome, SchemeError>,
        link: LinkStats,
    },
    MemberState {
        member: u64,
        sup_delta: CostReport,
        part_delta: CostReport,
        part_results: Vec<Result<bool, SchemeError>>,
    },
    RoundEnd {
        round: u32,
        events: Vec<FaultEvent>,
    },
    Finished {
        digest: String,
    },
}

fn encode_round_start(round: u32, roster: &[usize]) -> Vec<u8> {
    let mut buf = vec![TAG_ROUND_START];
    put_u32(&mut buf, round);
    let roster: Vec<u64> = roster.iter().map(|&i| i as u64).collect();
    put_u64_list(&mut buf, &roster);
    buf
}

fn encode_settled(roster_index: usize, result: &SessionResult) -> Vec<u8> {
    let mut buf = vec![TAG_SETTLED];
    put_u64(&mut buf, roster_index as u64);
    put_session_result(&mut buf, &result.outcome);
    put_link(&mut buf, &result.link);
    buf
}

fn encode_member_state(
    member: usize,
    sup_delta: &CostReport,
    part_delta: &CostReport,
    part_results: &[Result<bool, SchemeError>],
) -> Vec<u8> {
    let mut buf = vec![TAG_MEMBER_STATE];
    put_u64(&mut buf, member as u64);
    put_report(&mut buf, sup_delta);
    put_report(&mut buf, part_delta);
    put_usize(&mut buf, part_results.len());
    for result in part_results {
        put_part_result(&mut buf, result);
    }
    buf
}

fn encode_round_end(round: u32, events: &[FaultEvent]) -> Vec<u8> {
    let mut buf = vec![TAG_ROUND_END];
    put_u32(&mut buf, round);
    put_usize(&mut buf, events.len());
    for event in events {
        put_event(&mut buf, event);
    }
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
        TAG_ROUND_START => Record::RoundStart {
            round: get_u32(&mut buf, "round number")?,
            roster: get_u64_list(&mut buf, "round roster")?,
        },
        TAG_SETTLED => Record::Settled {
            roster_index: get_u64(&mut buf, "settled roster index")?,
            outcome: get_session_result(&mut buf)?,
            link: get_link(&mut buf)?,
        },
        TAG_MEMBER_STATE => {
            let member = get_u64(&mut buf, "member index")?;
            let sup_delta = get_report(&mut buf)?;
            let part_delta = get_report(&mut buf)?;
            let count = get_usize(&mut buf, "participant result count")?;
            let mut part_results = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                part_results.push(get_part_result(&mut buf)?);
            }
            Record::MemberState {
                member,
                sup_delta,
                part_delta,
                part_results,
            }
        }
        TAG_ROUND_END => {
            let round = get_u32(&mut buf, "round number")?;
            let count = get_usize(&mut buf, "fault event count")?;
            let mut events = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                events.push(get_event(&mut buf)?);
            }
            Record::RoundEnd { round, events }
        }
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
// The recorder: journal-before-effect hooks for engine and orchestrator.
// ---------------------------------------------------------------------------

/// The write side of a durable campaign, shared between the orchestrator
/// loop and the [`SessionEngine`](crate::engine::SessionEngine).
///
/// Append failures (I/O, or an injected [`CrashPlan`] kill point) never
/// panic mid-round: the first failure is latched, subsequent appends are
/// no-ops, and the orchestrator checks [`failure`](Self::failure) at the
/// next round boundary — which is exactly the crash semantics the resume
/// path is built for.
pub struct CampaignRecorder {
    inner: Mutex<RecorderInner>,
}

struct RecorderInner {
    /// `None` when replaying a sealed journal: the campaign is read-only.
    writer: Option<JournalWriter>,
    failure: Option<String>,
}

impl CampaignRecorder {
    fn with_writer(writer: Option<JournalWriter>) -> Self {
        CampaignRecorder {
            inner: Mutex::new(RecorderInner {
                writer,
                failure: None,
            }),
        }
    }

    fn append(&self, payload: &[u8]) {
        let mut inner = self.inner.lock().expect("recorder lock poisoned");
        if inner.failure.is_some() {
            return;
        }
        let Some(writer) = inner.writer.as_mut() else {
            return;
        };
        if let Err(e) = writer.append(payload) {
            inner.failure = Some(e.to_string());
        }
    }

    /// Journals the start of reassignment round `round` over `roster`.
    pub(crate) fn round_start(&self, round: u32, roster: &[usize]) {
        self.append(&encode_round_start(round, roster));
    }

    /// Journals one settled session (called by the engine, in
    /// registration == roster order).
    pub(crate) fn settled(&self, roster_index: usize, result: &SessionResult) {
        self.append(&encode_settled(roster_index, result));
    }

    /// Journals one member's per-round ledger deltas and participant
    /// results.
    pub(crate) fn member_state(
        &self,
        member: usize,
        sup_delta: &CostReport,
        part_delta: &CostReport,
        part_results: &[Result<bool, SchemeError>],
    ) {
        self.append(&encode_member_state(
            member,
            sup_delta,
            part_delta,
            part_results,
        ));
    }

    /// Journals the round's commit marker with its sorted fault events.
    pub(crate) fn round_end(&self, round: u32, events: &[FaultEvent]) {
        self.append(&encode_round_end(round, events));
    }

    /// Journals the summary digest and seals the journal with the
    /// attestation record.
    ///
    /// # Errors
    ///
    /// Any latched or fresh journal failure, as
    /// [`SchemeError::Journal`].
    pub(crate) fn finish(&self, digest: &str) -> Result<(), SchemeError> {
        self.append(&encode_finished(digest));
        let mut inner = self.inner.lock().expect("recorder lock poisoned");
        if inner.failure.is_none() {
            if let Some(writer) = inner.writer.as_mut() {
                if let Err(e) = writer.seal() {
                    inner.failure = Some(e.to_string());
                }
            }
        }
        match &inner.failure {
            Some(reason) => Err(SchemeError::Journal {
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    /// The latched failure, if any append has failed.
    pub(crate) fn failure(&self) -> Option<String> {
        self.inner
            .lock()
            .expect("recorder lock poisoned")
            .failure
            .clone()
    }
}

// ---------------------------------------------------------------------------
// Replay and resume.
// ---------------------------------------------------------------------------

/// One member's journaled per-round effects, staged while the round's
/// records are scanned and applied only once its commit marker is seen:
/// `(member, supervisor delta, participant delta, participant verdicts)`.
type StagedMemberState = (
    usize,
    CostReport,
    CostReport,
    Vec<Result<bool, SchemeError>>,
);

/// Orchestrator state reconstructed from the journal's committed rounds:
/// the campaign loop starts from here instead of from scratch.
pub(crate) struct ReplayState {
    pub(crate) attempts: Vec<u32>,
    pub(crate) finals: Vec<Option<SessionResult>>,
    pub(crate) part_outcomes: Vec<Vec<Result<bool, SchemeError>>>,
    pub(crate) sup_deltas: Vec<CostReport>,
    pub(crate) part_deltas: Vec<CostReport>,
    pub(crate) fault_events: Vec<FaultEvent>,
    pub(crate) total_sessions: u64,
    pub(crate) total_bytes: u64,
    pub(crate) next_round: u32,
}

impl ReplayState {
    fn empty(members: usize) -> Self {
        ReplayState {
            attempts: vec![0; members],
            finals: (0..members).map(|_| None).collect(),
            part_outcomes: vec![Vec::new(); members],
            sup_deltas: vec![CostReport::default(); members],
            part_deltas: vec![CostReport::default(); members],
            fault_events: Vec::new(),
            total_sessions: 0,
            total_bytes: 0,
            next_round: 0,
        }
    }
}

/// Field-wise sum used when replaying per-round ledger deltas.
fn add_report(total: &mut CostReport, delta: &CostReport) {
    total.f_evals += delta.f_evals;
    total.hash_ops += delta.hash_ops;
    total.hash_wall_ops += delta.hash_wall_ops;
    total.g_evals += delta.g_evals;
    total.verify_ops += delta.verify_ops;
}

/// Field-wise difference between two ledger snapshots (counters are
/// monotonic, so this never underflows).
pub(crate) fn report_delta(now: &CostReport, before: &CostReport) -> CostReport {
    CostReport {
        f_evals: now.f_evals - before.f_evals,
        hash_ops: now.hash_ops - before.hash_ops,
        hash_wall_ops: now.hash_wall_ops - before.hash_wall_ops,
        g_evals: now.g_evals - before.g_evals,
        verify_ops: now.verify_ops - before.verify_ops,
    }
}

/// Charges a replayed delta into a fresh ledger.
pub(crate) fn charge_report(ledger: &CostLedger, report: &CostReport) {
    ledger.charge_f(report.f_evals);
    ledger.charge_hash_parallel(report.hash_ops, report.hash_wall_ops);
    ledger.charge_g(report.g_evals);
    ledger.charge_verify(report.verify_ops);
}

/// What [`DurableCampaign::resume`] found in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeReport {
    /// Committed rounds replayed into supervisor state.
    pub rounds_replayed: u32,
    /// Journal records kept (header + committed rounds).
    pub records_kept: u64,
    /// Intact records dropped because their round never committed.
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
    recorder: CampaignRecorder,
    header: CampaignHeader,
    replay: Option<ReplayState>,
}

impl std::fmt::Debug for DurableCampaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableCampaign")
            .field("header", &self.header)
            .field("replayed", &self.replay.is_some())
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
            recorder: CampaignRecorder::with_writer(Some(writer)),
            header,
            replay: None,
        })
    }

    /// Resumes a killed campaign from its journal: scans the file,
    /// truncates the torn tail and any uncommitted round, replays every
    /// committed round into the internal replay state, and re-opens the journal
    /// for appending (arming `crash` for the continuation). A sealed
    /// journal resumes read-only: the campaign re-derives its summary
    /// without writing anything.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Journal`] when the file is not a journal, has no
    /// header record, or contains records this build cannot decode.
    pub fn resume(path: &Path, crash: CrashPlan) -> Result<(Self, ResumeReport), SchemeError> {
        let journal = read_journal(path).map_err(|e| jerr(&e))?;
        let torn = match &journal.tail {
            TailStatus::Clean => None,
            TailStatus::Torn { offset, reason } => {
                Some(format!("torn tail at byte {offset}: {reason}"))
            }
        };
        let mut decoded = Vec::with_capacity(journal.records.len());
        for (index, raw) in journal.records.iter().enumerate() {
            decoded.push(
                decode_record(&raw.payload)
                    .map_err(|e| bad(format!("journal record {index} is undecodable: {e}")))?,
            );
        }
        let mut records = decoded.into_iter();
        let Some(Record::Header(header)) = records.next() else {
            return Err(bad(
                "journal has no campaign header record (crashed before the campaign began, or not a campaign journal)"
                    .to_string(),
            ));
        };
        let members = header.member_slots.len();
        let mut state = ReplayState::empty(members);
        let mut rounds_replayed = 0u32;
        // Records kept on resume: the header, plus everything up to (and
        // including) the last committed RoundEnd. A trailing uncommitted
        // round — or an unsealed Finished record — is truncated and re-run.
        let mut keep: u64 = 1;
        let mut current: Option<(u32, Vec<usize>)> = None;
        let mut finished_digest: Option<String> = None;
        // Staged, not-yet-committed effects of the round being scanned.
        let mut staged_settled: Vec<(usize, Result<SessionOutcome, SchemeError>, LinkStats)> =
            Vec::new();
        let mut staged_states: Vec<StagedMemberState> = Vec::new();
        for (offset, record) in records.enumerate() {
            let index = offset + 1; // absolute record index (0 = header)
            match record {
                Record::Header(_) => {
                    return Err(bad(format!("duplicate header at record {index}")));
                }
                Record::RoundStart { round, roster } => {
                    if current.is_some() {
                        return Err(bad(format!(
                            "record {index}: round {round} started before the previous round ended"
                        )));
                    }
                    let mut members_in_round = Vec::with_capacity(roster.len());
                    for raw in roster {
                        let member = usize::try_from(raw)
                            .ok()
                            .filter(|&m| m < members)
                            .ok_or_else(|| {
                                bad(format!("record {index}: roster member {raw} out of range"))
                            })?;
                        members_in_round.push(member);
                    }
                    current = Some((round, members_in_round));
                    staged_settled.clear();
                    staged_states.clear();
                }
                Record::Settled {
                    roster_index,
                    outcome,
                    link,
                } => {
                    let Some((_, roster)) = &current else {
                        return Err(bad(format!("record {index}: settled outside a round")));
                    };
                    let slot = usize::try_from(roster_index)
                        .ok()
                        .filter(|&s| s < roster.len())
                        .ok_or_else(|| {
                            bad(format!(
                                "record {index}: roster index {roster_index} out of range"
                            ))
                        })?;
                    staged_settled.push((roster[slot], outcome, link));
                }
                Record::MemberState {
                    member,
                    sup_delta,
                    part_delta,
                    part_results,
                } => {
                    if current.is_none() {
                        return Err(bad(format!("record {index}: member state outside a round")));
                    }
                    let member = usize::try_from(member)
                        .ok()
                        .filter(|&m| m < members)
                        .ok_or_else(|| {
                            bad(format!("record {index}: member {member} out of range"))
                        })?;
                    staged_states.push((member, sup_delta, part_delta, part_results));
                }
                Record::RoundEnd { round, events } => {
                    let Some((started, roster)) = current.take() else {
                        return Err(bad(format!("record {index}: round end outside a round")));
                    };
                    if started != round {
                        return Err(bad(format!(
                            "record {index}: round end {round} does not match round start {started}"
                        )));
                    }
                    // Commit: apply the staged round exactly as the live
                    // loop would have.
                    for &member in &roster {
                        state.attempts[member] += 1;
                        state.part_outcomes[member].clear();
                    }
                    state.total_sessions += roster.len() as u64;
                    for (member, outcome, link) in staged_settled.drain(..) {
                        // Mirrors the live loop: failed attempts are
                        // excluded from the byte total (their truncated
                        // traffic is a pump-timing race, not replayable
                        // state), so a resumed campaign reproduces the
                        // uninterrupted run's digest exactly.
                        if outcome.is_ok() {
                            state.total_bytes += link.bytes_sent + link.bytes_received;
                        }
                        state.finals[member] = Some(SessionResult { outcome, link });
                    }
                    for (member, sup_delta, part_delta, part_results) in staged_states.drain(..) {
                        add_report(&mut state.sup_deltas[member], &sup_delta);
                        add_report(&mut state.part_deltas[member], &part_delta);
                        state.part_outcomes[member] = part_results;
                    }
                    state.fault_events.extend(events);
                    state.next_round = round + 1;
                    rounds_replayed += 1;
                    keep = index as u64 + 1;
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
                recorder: CampaignRecorder::with_writer(writer),
                header,
                replay: Some(state),
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

    /// The recorder the orchestrator and engine write through.
    pub(crate) fn recorder(&self) -> &CampaignRecorder {
        &self.recorder
    }

    /// Takes the replayed state (present only after a resume, and only
    /// once).
    pub(crate) fn take_replay(&mut self) -> Option<ReplayState> {
        self.replay.take()
    }
}

/// The canonical digest of a [`FleetSummary`]: SHA-256 (hex) over every
/// schedule-invariant field — verdicts, attempts, shares, byte counts,
/// both cost ledgers, session/byte totals and the sorted fault log.
/// Wall-clock time is excluded. Two runs of the same seed — including a
/// killed-and-resumed run — produce the same digest at any worker count.
#[must_use]
pub fn summary_digest(summary: &FleetSummary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for m in &summary.members {
        let _ = writeln!(
            out,
            "member {} share {} accepted {} attempts {} verdict {:?} \
             link(tx {} rx {}) sup {:?} part {:?}",
            m.participant,
            m.share,
            m.outcome.accepted,
            m.attempts,
            m.outcome.verdict,
            m.outcome.supervisor_link.bytes_sent,
            m.outcome.supervisor_link.bytes_received,
            m.outcome.supervisor_costs,
            m.outcome.participant_costs,
        );
    }
    let _ = writeln!(
        out,
        "sessions {} bytes {}",
        summary.throughput.sessions, summary.throughput.bytes
    );
    let _ = writeln!(out, "faults {:?}", summary.fault_events);
    ugc_hash::hex::encode(&Sha256::digest(out.as_bytes()))
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
            transport: TransportKind::Brokered,
            envelope: true,
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
                transport: TransportKind::Direct,
                envelope: false,
                chaos: None,
                deadline: None,
                retries: 0,
            },
        ] {
            let encoded = encode_header(&header);
            let Record::Header(decoded) = decode_record(&encoded).unwrap() else {
                panic!("expected a header record");
            };
            assert_eq!(decoded, header);
        }
    }

    #[test]
    fn header_transport_is_digest_class_not_backend_identity() {
        use crate::orchestrator::FleetScheme;
        use ugc_grid::HonestWorker;
        let scheme = FleetScheme::Naive { samples: 4 }.instantiate::<Sha256>(1);
        let behaviour = HonestWorker;
        let members = [MemberSpec::<'_, Sha256> {
            scheme: scheme.as_ref(),
            behaviours: vec![&behaviour],
        }];
        let domain = Domain::new(0, 64);
        let header = |transport| {
            CampaignHeader::for_campaign(
                &members,
                domain,
                &MixedFleetConfig {
                    transport,
                    ..MixedFleetConfig::default()
                },
                vec![1],
            )
        };
        // Brokered and Remote share a digest class (identical relay
        // semantics → identical digests), so their headers are equal and
        // --resume across that backend change is legal...
        assert_eq!(
            header(TransportKind::Brokered),
            header(TransportKind::Remote)
        );
        assert_eq!(
            header(TransportKind::Remote).transport,
            TransportKind::Brokered
        );
        // ...while Direct is a distinct class, so that resume is refused.
        assert_ne!(header(TransportKind::Direct), header(TransportKind::Remote));
    }

    #[test]
    fn round_records_round_trip() {
        let start = encode_round_start(3, &[0, 2, 5]);
        assert_eq!(
            decode_record(&start).unwrap(),
            Record::RoundStart {
                round: 3,
                roster: vec![0, 2, 5]
            }
        );

        let result = SessionResult {
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
        let settled = encode_settled(1, &result);
        let Record::Settled {
            roster_index,
            outcome,
            link,
        } = decode_record(&settled).unwrap()
        else {
            panic!("expected a settled record");
        };
        assert_eq!(roster_index, 1);
        assert_eq!(
            outcome.unwrap().verdict,
            Verdict::CommitmentMismatch { sample: 17 }
        );
        assert_eq!(link, result.link);

        let sup = CostReport {
            f_evals: 1,
            hash_ops: 2,
            hash_wall_ops: 2,
            g_evals: 3,
            verify_ops: 4,
        };
        let results = vec![Ok(true), Err(SchemeError::TimedOut)];
        let member_state = encode_member_state(2, &sup, &CostReport::default(), &results);
        let Record::MemberState {
            member,
            sup_delta,
            part_results,
            ..
        } = decode_record(&member_state).unwrap()
        else {
            panic!("expected a member state record");
        };
        assert_eq!(member, 2);
        assert_eq!(sup_delta, sup);
        assert_eq!(part_results, results);

        let events = vec![
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
        let end = encode_round_end(4, &events);
        assert_eq!(
            decode_record(&end).unwrap(),
            Record::RoundEnd { round: 4, events }
        );

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
            SchemeError::Grid(GridError::UnexpectedEof { context: "frame" }),
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
                expected: "Commit",
                got: "Verdict",
            },
            SchemeError::TaskMismatch {
                expected: 1,
                got: 2,
            },
            SchemeError::ProofCountMismatch {
                expected: 3,
                got: 4,
            },
            SchemeError::InvalidConfig { reason: "m = 0" },
            SchemeError::MalformedPayload { what: "root" },
            SchemeError::TimedOut,
            SchemeError::Journal {
                reason: "killed".into(),
            },
        ];
        for error in errors {
            let result = SessionResult {
                outcome: Err(error.clone()),
                link: LinkStats::default(),
            };
            let Record::Settled { outcome, .. } =
                decode_record(&encode_settled(0, &result)).unwrap()
            else {
                panic!("expected a settled record");
            };
            assert_eq!(outcome.unwrap_err(), error);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_round_start(0, &[0]);
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
        let campaign = DurableCampaign::create(&path, header.clone(), CrashPlan::never()).unwrap();
        let rec = campaign.recorder();
        let ok = SessionResult {
            outcome: Ok(SessionOutcome {
                verdict: Verdict::Accepted,
                reports: Vec::new(),
            }),
            link: LinkStats {
                bytes_sent: 5,
                bytes_received: 7,
                messages_sent: 1,
                messages_received: 1,
            },
        };
        let failed = SessionResult {
            outcome: Err(SchemeError::TimedOut),
            link: LinkStats::default(),
        };
        // Round 0 commits: member 0 accepted, member 1 timed out.
        rec.round_start(0, &[0, 1]);
        rec.settled(0, &ok);
        rec.settled(1, &failed);
        let delta = CostReport {
            f_evals: 10,
            hash_ops: 4,
            hash_wall_ops: 2,
            g_evals: 0,
            verify_ops: 1,
        };
        rec.member_state(0, &delta, &delta, &[Ok(false)]);
        rec.member_state(1, &CostReport::default(), &CostReport::default(), &[]);
        rec.round_end(0, &[]);
        // Round 1 starts but never commits (the "crash").
        rec.round_start(1, &[1]);
        rec.settled(0, &ok);
        assert!(rec.failure().is_none());
        drop(campaign);

        let (mut resumed, report) = DurableCampaign::resume(&path, CrashPlan::never()).unwrap();
        assert_eq!(resumed.header(), &header);
        assert_eq!(report.rounds_replayed, 1);
        assert_eq!(report.records_kept, 7); // header + round 0's six records
        assert_eq!(report.records_dropped, 2); // round 1's uncommitted pair
        assert_eq!(report.torn, None);
        assert!(!report.sealed);
        let state = resumed.take_replay().unwrap();
        assert_eq!(state.attempts, vec![1, 1]);
        assert_eq!(state.next_round, 1);
        assert_eq!(state.total_sessions, 2);
        assert_eq!(state.total_bytes, 12);
        assert!(state.finals[0].as_ref().unwrap().outcome.is_ok());
        assert_eq!(
            state.finals[1]
                .as_ref()
                .unwrap()
                .outcome
                .as_ref()
                .unwrap_err(),
            &SchemeError::TimedOut
        );
        assert_eq!(state.sup_deltas[0], delta);
        assert_eq!(state.part_outcomes[0], vec![Ok(false)]);
        assert!(state.part_outcomes[1].is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kill_point_latches_and_resume_continues() {
        let path = temp_journal("kill");
        // Kill at the 2nd campaign record (the header is unarmed).
        let campaign = DurableCampaign::create(&path, sample_header(), CrashPlan::at(2)).unwrap();
        let rec = campaign.recorder();
        rec.round_start(0, &[0, 1, 2]);
        assert!(rec.failure().is_none());
        let ok = SessionResult {
            outcome: Ok(SessionOutcome {
                verdict: Verdict::Accepted,
                reports: Vec::new(),
            }),
            link: LinkStats::default(),
        };
        rec.settled(0, &ok);
        let failure = rec.failure().expect("the kill point must latch");
        assert!(failure.contains("kill point"), "{failure}");
        // Later appends stay latched without clobbering the first failure.
        rec.round_end(0, &[]);
        assert_eq!(rec.failure().unwrap(), failure);
        assert!(matches!(
            rec.finish("digest"),
            Err(SchemeError::Journal { .. })
        ));
        drop(campaign);

        let (_, report) = DurableCampaign::resume(&path, CrashPlan::never()).unwrap();
        assert_eq!(report.rounds_replayed, 0);
        assert_eq!(report.records_kept, 1); // just the header
        assert_eq!(report.records_dropped, 1); // the uncommitted round start
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sealed_journal_resumes_read_only() {
        let path = temp_journal("sealed");
        let campaign = DurableCampaign::create(&path, sample_header(), CrashPlan::never()).unwrap();
        let rec = campaign.recorder();
        rec.round_start(0, &[0, 1, 2]);
        rec.round_end(0, &[]);
        rec.finish("deadbeef").unwrap();
        drop(campaign);

        let (resumed, report) = DurableCampaign::resume(&path, CrashPlan::never()).unwrap();
        assert!(report.sealed);
        assert_eq!(report.finished_digest.as_deref(), Some("deadbeef"));
        assert_eq!(report.records_dropped, 0);
        // The read-only recorder swallows writes and never fails.
        resumed.recorder().round_start(9, &[0]);
        assert!(resumed.recorder().failure().is_none());
        resumed.recorder().finish("deadbeef").unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_headerless_and_malformed_journals() {
        let path = temp_journal("broken");
        let mut writer = JournalWriter::create(&path).unwrap();
        writer.append(&encode_round_start(0, &[0])).unwrap();
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
    fn report_delta_and_charge_are_inverses() {
        let ledger = CostLedger::new();
        ledger.charge_f(5);
        ledger.charge_hash_parallel(10, 4);
        let before = ledger.report();
        ledger.charge_f(3);
        ledger.charge_g(2);
        ledger.charge_verify(1);
        let delta = report_delta(&ledger.report(), &before);
        assert_eq!(delta.f_evals, 3);
        assert_eq!(delta.g_evals, 2);
        assert_eq!(delta.verify_ops, 1);
        assert_eq!(delta.hash_ops, 0);

        let replayed = CostLedger::new();
        charge_report(&replayed, &before);
        charge_report(&replayed, &delta);
        assert_eq!(replayed.report(), ledger.report());
    }
}
