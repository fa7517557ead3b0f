//! Durable campaigns: the record layer between the orchestrator and the
//! `ugc-journal` write-ahead log.
//!
//! The journal crate knows only about opaque payloads; this module gives
//! them meaning. A durable campaign writes one [`CampaignHeader`] record
//! (so `--resume` can reconstruct the run from the file alone), then a
//! strictly sequential stream of round records. The orchestrator's round
//! loop writes all of them, through one [`DurableCampaign`]; the session
//! engine never touches the journal:
//!
//! | tag | record | written by | contents |
//! |----:|--------|------------|----------|
//! | 1 | `Header` | [`DurableCampaign::create`] | fleet shape, domain, chaos plan, CLI blob |
//! | 2 | `RoundStart` | `round_start`, before the round runs | round number, roster (member indices) |
//! | 3 | `Settled` | `commit`, from the engine's results | per-session outcome + link stats, in roster order |
//! | 4 | `MemberState` | `commit` | per-member round costs + participant results, in roster order |
//! | 5 | `RoundEnd` | `commit` | round number, sorted fault events — the commit marker |
//! | 6 | `Finished` | `finish` | the campaign summary digest, then the seal |
//!
//! Recovery is *round-atomic*: [`DurableCampaign::resume`] replays only
//! rounds that reached their `RoundEnd` commit marker, truncates everything
//! after the last one (including a torn tail), and applies each committed
//! round to the campaign state through the same `CampaignState::apply` the
//! live loop calls — after checking that it is a round a live run could
//! have committed next. Because every record the campaign loop writes is a
//! pure function of the seed, the resumed run's verdicts, attempts, cost
//! ledgers, fault log and journal bytes are identical to a never-killed
//! run's — the invariant `tests/crash_resume.rs` proves at every kill
//! point.
//!
//! This file is deliberately named `journal.rs`: `ugc-lint`'s `lossy-cast`
//! rule audits journal/codec paths, so every narrowing here must be a
//! checked `try_from`, never an `as`.

use crate::backend::TransportKind;
use crate::engine::SessionResult;
use crate::orchestrator::{
    CampaignState, FleetSummary, MemberBooks, MemberSpec, MixedFleetConfig, RoundRecord,
};
use crate::session::SessionOutcome;
use crate::{ParticipantStorage, SchemeError, Verdict};
use std::path::Path;
use std::time::Duration;
use ugc_grid::codec::{
    get_bytes, get_u32, get_u64, get_u64_list, put_bytes, put_u32, put_u64, put_u64_list,
};
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
    put_u8(
        &mut buf,
        match header.transport.digest_canonical() {
            TransportKind::Direct => 0,
            _ => 1,
        },
    );
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
        books: MemberBooks,
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

fn encode_member_state(member: usize, books: &MemberBooks) -> Vec<u8> {
    let mut buf = vec![TAG_MEMBER_STATE];
    put_u64(&mut buf, member as u64);
    put_report(&mut buf, &books.sup_costs);
    put_report(&mut buf, &books.part_costs);
    put_usize(&mut buf, books.part_results.len());
    for result in &books.part_results {
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
            let sup_costs = get_report(&mut buf)?;
            let part_costs = get_report(&mut buf)?;
            let count = get_usize(&mut buf, "participant result count")?;
            let mut part_results = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                part_results.push(get_part_result(&mut buf)?);
            }
            Record::MemberState {
                member,
                books: MemberBooks {
                    sup_costs,
                    part_costs,
                    part_results,
                },
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
// Replay and resume.
// ---------------------------------------------------------------------------

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
    /// truncates the torn tail and any uncommitted round, replays every
    /// committed round through the same `CampaignState::apply` the live
    /// loop calls, and re-opens the journal for appending (arming `crash`
    /// for the continuation). A sealed journal resumes read-only:
    /// the campaign re-derives its summary without writing anything.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Journal`] when the file is not a journal, has no
    /// header record, contains records this build cannot decode, or
    /// commits a round no live run could have written: one that is not
    /// the next round, lies beyond the header's retry budget, does not
    /// run exactly the members still pending, or does not settle and book
    /// each of them once, in roster order.
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
        let mut state = CampaignState::new(header.member_slots.len());
        let mut rounds_replayed = 0u32;
        // Records kept on resume: the header, plus everything up to (and
        // including) the last committed RoundEnd. A trailing uncommitted
        // round — or an unsealed Finished record — is truncated and re-run.
        let mut keep: u64 = 1;
        // The round being read, until its RoundEnd commits it.
        let mut open: Option<RoundRecord> = None;
        let mut finished_digest: Option<String> = None;
        for (offset, record) in records.enumerate() {
            let index = offset + 1; // absolute record index (0 = header)
            let at = |reason: String| bad(format!("record {index}: {reason}"));
            match record {
                Record::Header(_) => return Err(at("duplicate header".to_string())),
                Record::RoundStart { round, roster } => {
                    if open.is_some() {
                        return Err(at(format!(
                            "round {round} started before the previous round ended"
                        )));
                    }
                    let roster = roster
                        .into_iter()
                        .map(usize::try_from)
                        .collect::<Result<_, _>>()
                        .map_err(|_| at("roster member exceeds this platform's usize".into()))?;
                    open = Some(RoundRecord {
                        round,
                        roster,
                        sessions: Vec::new(),
                        books: Vec::new(),
                        events: Vec::new(),
                    });
                }
                Record::Settled {
                    roster_index,
                    outcome,
                    link,
                } => {
                    let round = open
                        .as_mut()
                        .ok_or_else(|| at("settled outside a round".to_string()))?;
                    let expected = round.sessions.len();
                    if roster_index != expected as u64 {
                        return Err(at(format!(
                            "settled roster index {roster_index}, expected {expected}"
                        )));
                    }
                    round.sessions.push(SessionResult { outcome, link });
                }
                Record::MemberState { member, books } => {
                    let round = open
                        .as_mut()
                        .ok_or_else(|| at("member state outside a round".to_string()))?;
                    let expected = round.roster.get(round.books.len()).copied();
                    if expected.map(|m| m as u64) != Some(member) {
                        return Err(at(format!(
                            "member state for member {member}, expected {expected:?}"
                        )));
                    }
                    round.books.push(books);
                }
                Record::RoundEnd { round, events } => {
                    let mut record = open
                        .take()
                        .ok_or_else(|| at("round end outside a round".to_string()))?;
                    record.events = events;
                    if let Some(reason) = refusal(&state, header.retries, round, &record) {
                        return Err(at(reason));
                    }
                    state.apply(record);
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

    /// Journals the start of round `round` over `roster`, before the
    /// round has any effect.
    pub(crate) fn round_start(&mut self, round: u32, roster: &[usize]) -> Result<(), SchemeError> {
        self.append(&encode_round_start(round, roster))
    }

    /// Journals the rest of a settled round: one `Settled` per session
    /// and one `MemberState` per member, in roster order, then the
    /// `RoundEnd` commit marker — a round is replayed on resume only once
    /// that marker is on disk.
    pub(crate) fn commit(&mut self, record: &RoundRecord) -> Result<(), SchemeError> {
        for (roster_index, session) in record.sessions.iter().enumerate() {
            self.append(&encode_settled(roster_index, session))?;
        }
        for (&member, books) in record.roster.iter().zip(&record.books) {
            self.append(&encode_member_state(member, books))?;
        }
        self.append(&encode_round_end(record.round, &record.events))
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

/// Why `record`, closed by a `RoundEnd` for round `end`, is not a round a
/// live run with retry budget `retries` could have committed next from
/// `state` — or `None` when it is.
fn refusal(state: &CampaignState, retries: u32, end: u32, record: &RoundRecord) -> Option<String> {
    let round = record.round;
    let roster = &record.roster;
    if end != round {
        Some(format!(
            "round end {end} does not match round start {round}"
        ))
    } else if state.next_round != Some(round) || round > retries {
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
        let books = MemberBooks {
            sup_costs: sup,
            part_costs: CostReport::default(),
            part_results: results.clone(),
        };
        let Record::MemberState { member, books } =
            decode_record(&encode_member_state(2, &books)).unwrap()
        else {
            panic!("expected a member state record");
        };
        assert_eq!(member, 2);
        assert_eq!(books.sup_costs, sup);
        assert_eq!(books.part_results, results);

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
            hash_wall_ops: 2,
            g_evals: 0,
            verify_ops: 1,
        };
        // Round 0 commits: member 0 accepted, member 1 timed out.
        campaign.round_start(0, &[0, 1]).unwrap();
        campaign.commit(&round(0, &[0, 1], &[1], costs)).unwrap();
        // Round 1 starts but never commits (the "crash").
        campaign.round_start(1, &[1]).unwrap();
        campaign
            .append(&encode_settled(0, &session(true, 6)))
            .unwrap();
        drop(campaign);

        let (mut resumed, report) = DurableCampaign::resume(&path, CrashPlan::never()).unwrap();
        assert_eq!(resumed.header(), &header);
        assert_eq!(report.rounds_replayed, 1);
        assert_eq!(report.records_kept, 7); // header + round 0's six records
        assert_eq!(report.records_dropped, 2); // round 1's uncommitted pair
        assert_eq!(report.torn, None);
        assert!(!report.sealed);
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
        campaign.round_start(0, &[0, 1, 2]).unwrap();
        let round = round(0, &[0, 1, 2], &[], CostReport::default());
        let failure = campaign.commit(&round).unwrap_err();
        assert!(failure.to_string().contains("kill point"), "{failure}");
        // The killed campaign stays killed: every later write fails the
        // same way.
        assert_eq!(campaign.commit(&round).unwrap_err(), failure);
        assert_eq!(campaign.finish("digest").unwrap_err(), failure);
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
        let mut campaign =
            DurableCampaign::create(&path, sample_header(), CrashPlan::never()).unwrap();
        campaign.round_start(0, &[0, 1, 2]).unwrap();
        let round = round(0, &[0, 1, 2], &[], CostReport::default());
        campaign.commit(&round).unwrap();
        campaign.finish("deadbeef").unwrap();
        drop(campaign);
        let sealed = std::fs::read(&path).unwrap();

        let (mut resumed, report) = DurableCampaign::resume(&path, CrashPlan::never()).unwrap();
        assert!(report.sealed);
        assert_eq!(report.rounds_replayed, 1);
        assert_eq!(report.finished_digest.as_deref(), Some("deadbeef"));
        assert_eq!(report.records_dropped, 0);
        // The read-only campaign swallows writes and never fails.
        resumed.round_start(1, &[0]).unwrap();
        resumed.commit(&round).unwrap();
        resumed.finish("deadbeef").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), sealed);
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
}
