//! The session walk: one verification session of every distinct kind in
//! the roster, pumped by hand on one thread, with a span around every
//! call into a session state machine and around the encode and decode of
//! every message that crosses.
//!
//! A campaign runs the same state machines concurrently behind an engine,
//! a transport and a scheduler. The walk is what those sessions cost with
//! none of that around them, so `campaign ÷ walk` is the engine's and the
//! transport's doing, and the walk's own split says how much of a session
//! is the participant committing, the supervisor verifying, and the codec.

use crate::trace::Tracer;
use crate::workloads::View;
use std::collections::{BTreeMap, VecDeque};
use ugc_core::{
    LaneWidth, MemberSpec, Parallelism, ParticipantContext, ParticipantSession, ParticipantStorage,
    SupervisorContext,
};
use ugc_grid::{CostLedger, CostReport, Message};
use ugc_hash::Sha256;
use ugc_task::Domain;

/// The name a message kind goes by in span names.
#[must_use]
pub fn kind_name(msg: &Message) -> &'static str {
    match msg {
        Message::Assign(_) => "assign",
        Message::Commit { .. } => "commit",
        Message::Challenge { .. } => "challenge",
        Message::Proofs { .. } => "proofs",
        Message::CommitAndProofs { .. } => "commit_and_proofs",
        Message::AllResults { .. } => "all_results",
        Message::Reports { .. } => "reports",
        Message::RingerChallenge { .. } => "ringer_challenge",
        Message::RingerFound { .. } => "ringer_found",
        Message::Verdict { .. } => "verdict",
        Message::Session { .. } => "session",
        Message::Gone { .. } => "gone",
    }
}

/// Which way a message crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Supervisor to participant.
    Outward,
    /// Participant to supervisor.
    Inward,
}

/// One message that crossed during a walk.
#[derive(Debug, Clone)]
pub struct Crossing {
    pub direction: Direction,
    pub message: Message,
    pub frame_len: usize,
}

/// One kind of session in the roster and how many members run it.
pub struct Class {
    pub scheme: &'static str,
    pub share: Domain,
    pub cheats: bool,
    /// Index of the first member of this kind.
    pub member: usize,
    /// Members of this kind in the roster.
    pub multiplicity: u64,
}

/// Groups the roster by (scheme, share size, cheating or not). The
/// `cheaters` first members are the cheating ones.
#[must_use]
pub fn classes(view: &View<'_>, cheaters: u64) -> Vec<Class> {
    let shares = view
        .domain
        .split(view.members.len() as u64)
        .expect("the workload's domain splits over its members");
    let mut by_key: BTreeMap<(&'static str, u64, bool), Class> = BTreeMap::new();
    for (i, (member, share)) in view.members.iter().zip(shares).enumerate() {
        let cheats = (i as u64) < cheaters;
        by_key
            .entry((member.scheme.name(), share.len(), cheats))
            .or_insert(Class {
                scheme: member.scheme.name(),
                share,
                cheats,
                member: i,
                multiplicity: 0,
            })
            .multiplicity += 1;
    }
    by_key.into_values().collect()
}

/// What one walked session did, seen from outside.
#[derive(Debug, Clone, Default)]
pub struct SessionWalk {
    pub total_ns: u64,
    pub participant_ns: u64,
    pub supervisor_ns: u64,
    /// The participant's handling of `Assign`: evaluate `f` over the
    /// share, build the commitment.
    pub commit_ns: u64,
    /// The supervisor's handling of proofs and uploads.
    pub verify_ns: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub crossings: Vec<Crossing>,
    pub supervisor_costs: CostReport,
    pub participant_costs: CostReport,
    /// Leaves of the commitment tree the participant built (0 for the
    /// schemes that build none).
    pub tree_leaves: u64,
    /// Merkle proofs that crossed.
    pub proofs: u64,
    pub accepted: bool,
}

/// Supervisor-side handling that counts as verification.
fn is_upload(msg: &Message) -> bool {
    matches!(
        msg,
        Message::Proofs { .. }
            | Message::CommitAndProofs { .. }
            | Message::AllResults { .. }
            | Message::RingerFound { .. }
            | Message::Reports { .. }
    )
}

/// Encodes and decodes `msg` as a link would, with a span around each.
fn cross(
    tracer: &mut Tracer,
    walk: &mut SessionWalk,
    buf: &mut Vec<u8>,
    direction: Direction,
    msg: Message,
) -> Result<Message, String> {
    let kind = kind_name(&msg);
    buf.clear();
    let mark = tracer.spans().len();
    tracer.leaf("grid.codec", format!("encode.{kind}"), 1, || {
        msg.encode_into(buf)
    });
    let decoded = tracer
        .leaf("grid.codec", format!("decode.{kind}"), 1, || {
            Message::decode(buf)
        })
        .map_err(|e| format!("walk: {kind} did not decode: {e}"))?;
    let spans = tracer.since(mark);
    walk.encode_ns += spans[0].duration_ns();
    walk.decode_ns += spans[1].duration_ns();
    walk.crossings.push(Crossing {
        direction,
        message: msg,
        frame_len: buf.len(),
    });
    Ok(decoded)
}

/// Walks one session of `member` over `share`: builds both state
/// machines through the scheme's public constructors and pumps messages
/// between them until the supervisor has its outcome and every queued
/// message is delivered.
///
/// # Errors
///
/// A session raising a protocol error, or the dialogue stalling.
pub fn walk_session(
    tracer: &mut Tracer,
    view: &View<'_>,
    member: &MemberSpec<'_, Sha256>,
    share: Domain,
    label: &str,
) -> Result<SessionWalk, String> {
    let mut walk = SessionWalk::default();
    let (sup_ledger, part_ledger) = (CostLedger::new(), CostLedger::new());
    let slots = member.behaviours.len();
    let mut supervisor = member.scheme.supervisor_session(SupervisorContext {
        task: view.task,
        screener: view.screener,
        domain: share,
        task_ids: (0..slots as u64).collect(),
        ledger: sup_ledger.clone(),
    });
    let mut participants: Vec<Box<dyn ParticipantSession + '_>> = member
        .behaviours
        .iter()
        .map(|behaviour| {
            member.scheme.participant_session(ParticipantContext {
                task: view.task,
                screener: view.screener,
                behaviour: *behaviour,
                storage: ParticipantStorage::Full,
                parallelism: Parallelism::default(),
                lanes: LaneWidth::default(),
                ledger: part_ledger.clone(),
            })
        })
        .collect();

    let mark = tracer.spans().len();
    tracer.span("core.scheme", format!("session.{label}"), 1, |tracer| {
        let mut buf = Vec::new();
        let mut outward: VecDeque<(usize, Message)> = tracer
            .leaf("core.scheme", "supervisor.start", 1, || supervisor.start())
            .map_err(|e| format!("walk {label}: supervisor start: {e}"))?
            .into();
        let mut inward: VecDeque<(usize, Message)> = VecDeque::new();
        while !(outward.is_empty() && inward.is_empty()) {
            while let Some((slot, msg)) = outward.pop_front() {
                let kind = kind_name(&msg);
                let msg = cross(tracer, &mut walk, &mut buf, Direction::Outward, msg)?;
                let before = tracer.spans().len();
                let replies = tracer
                    .leaf("core.scheme", format!("participant.on_{kind}"), 1, || {
                        participants[slot].on_message(msg)
                    })
                    .map_err(|e| format!("walk {label}: participant on {kind}: {e}"))?;
                let took = tracer.since(before)[0].duration_ns();
                walk.participant_ns += took;
                if kind == "assign" {
                    walk.commit_ns += took;
                }
                inward.extend(replies.into_iter().map(|m| (slot, m)));
            }
            while let Some((slot, msg)) = inward.pop_front() {
                let kind = kind_name(&msg);
                let upload = is_upload(&msg);
                let msg = cross(tracer, &mut walk, &mut buf, Direction::Inward, msg)?;
                let before = tracer.spans().len();
                let replies = tracer
                    .leaf("core.scheme", format!("supervisor.on_{kind}"), 1, || {
                        supervisor.on_message(slot, msg)
                    })
                    .map_err(|e| format!("walk {label}: supervisor on {kind}: {e}"))?;
                let took = tracer.since(before)[0].duration_ns();
                walk.supervisor_ns += took;
                if upload {
                    walk.verify_ns += took;
                }
                outward.extend(replies);
            }
        }
        Ok::<(), String>(())
    })?;
    let spans = tracer.since(mark);
    walk.total_ns = spans[0].duration_ns();
    // `supervisor.start` is the first child of the session span.
    walk.supervisor_ns += spans[1].duration_ns();
    let outcome = supervisor
        .take_outcome()
        .ok_or_else(|| format!("walk {label}: dialogue ended without a verdict"))?;
    walk.accepted = outcome.verdict.is_accepted();
    walk.supervisor_costs = sup_ledger.report();
    walk.participant_costs = part_ledger.report();
    for crossing in &walk.crossings {
        // A commitment that crossed is a tree over the whole share.
        if let Message::Commit { .. } | Message::CommitAndProofs { .. } = &crossing.message {
            walk.tree_leaves = share.len();
        }
        if let Message::Proofs { proofs, .. } | Message::CommitAndProofs { proofs, .. } =
            &crossing.message
        {
            walk.proofs += proofs.len() as u64;
        }
    }
    Ok(walk)
}

/// One walk over every class, each weighted by how many members run it:
/// what the roster's sessions cost run one after another on one thread.
#[derive(Debug, Clone, Default)]
pub struct RosterWalk {
    pub total_ms: f64,
    pub participant_ms: f64,
    pub supervisor_ms: f64,
    pub commit_ms: f64,
    pub verify_ms: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub messages: f64,
    pub f_evals: f64,
    pub tree_leaves: f64,
    pub proofs: f64,
    /// Cheating members' sessions that ended in rejection, weighted.
    pub cheaters_caught: f64,
    /// The messages one session of each class exchanged, with the
    /// class's multiplicity.
    pub dialogues: Vec<(u64, Vec<Crossing>)>,
}

/// Walks every class once.
///
/// # Errors
///
/// As [`walk_session`].
pub fn walk_roster(
    tracer: &mut Tracer,
    view: &View<'_>,
    classes: &[Class],
) -> Result<RosterWalk, String> {
    let mut total = RosterWalk::default();
    for class in classes {
        let label = format!(
            "{}.{}{}",
            class.scheme,
            class.share.len(),
            if class.cheats { ".cheater" } else { "" }
        );
        let w = walk_session(
            tracer,
            view,
            &view.members[class.member],
            class.share,
            &label,
        )?;
        let k = class.multiplicity as f64;
        total.total_ms += k * w.total_ns as f64 / 1e6;
        total.participant_ms += k * w.participant_ns as f64 / 1e6;
        total.supervisor_ms += k * w.supervisor_ns as f64 / 1e6;
        total.commit_ms += k * w.commit_ns as f64 / 1e6;
        total.verify_ms += k * w.verify_ns as f64 / 1e6;
        total.encode_ns += k * w.encode_ns as f64;
        total.decode_ns += k * w.decode_ns as f64;
        total.messages += k * w.crossings.len() as f64;
        total.f_evals += k
            * (w.participant_costs.f_evals
                + w.supervisor_costs.f_evals
                + w.supervisor_costs.verify_ops) as f64;
        total.tree_leaves += k * w.tree_leaves as f64;
        total.proofs += k * w.proofs as f64;
        if class.cheats && !w.accepted {
            total.cheaters_caught += k;
        }
        total.dialogues.push((class.multiplicity, w.crossings));
    }
    Ok(total)
}
