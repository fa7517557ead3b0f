//! The session contract of all five schemes, state by state, on both
//! sides of the wire.
//!
//! Each session is brought to every state an honest exchange passes
//! through and is then handed a message out of order (one of a kind its
//! side never receives, and the one after the next), a duplicate of the
//! message that brought it there, the next message under the wrong task
//! id and — once finished — more mail. Every answer is asserted exactly,
//! `UnexpectedMessage` strings included: a failed session is journaled
//! with them, so they are part of every campaign attestation. No rejected
//! or ignored message may charge the ledger. A supervisor never started,
//! or past its first error, answers everything as its finished state does.

use uncheatable_grid::core::{
    FleetScheme, LaneWidth, Parallelism, ParticipantContext, ParticipantSession,
    ParticipantStorage, SchemeError, SupervisorContext, SupervisorSession, Verdict,
    VerificationScheme,
};
use uncheatable_grid::grid::{CostLedger, CostReport, HonestWorker, Message};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{Domain, MatchScreener};

/// Inputs per share.
const N: u64 = 16;
/// The wire task id of each supervisor slot.
const IDS: [u64; 2] = [7, 8];
/// What a wrong task id is offset by.
const SKEW: u64 = 100;

/// One state of a session, reached by feeding it the first messages of
/// an honest exchange.
struct Row {
    /// What the session tells a message of the wrong kind it expected.
    awaits: &'static str,
    /// The session's answer to the message that brought it here (for a
    /// supervisor's first row, what `start` sent): `kind@slot`, in order.
    reply: &'static str,
    /// The ledger in this state: `[f, hash, g, verify]`.
    ledger: [u64; 4],
    /// Whether a redelivery of the message that brought it here is stale
    /// (dropped uncharged by the drivers; answered with nothing while the
    /// session runs).
    stale: bool,
    /// The supervisor slots whose loss the session survives here.
    survives: &'static [usize],
}

const fn row(awaits: &'static str, reply: &'static str, ledger: [u64; 4]) -> Row {
    Row {
        awaits,
        reply,
        ledger,
        stale: false,
        survives: &[],
    }
}

const FINISHED: &str = "nothing (session finished)";
const REPLICAS: &str = "nothing (replicas already answered)";

/// A scheme and its two tables: supervisor states, then participant
/// states (slot 0's), each in the order an honest exchange visits them.
struct Case {
    scheme: FleetScheme,
    supervisor: Vec<Row>,
    participant: Vec<Row>,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            scheme: FleetScheme::Cbs {
                samples: 4,
                report_audit: 2,
            },
            supervisor: vec![
                row("Commit", "Assign@0", [0, 0, 0, 0]),
                row("Proofs", "Challenge@0", [0, 0, 0, 0]),
                row("Reports", "", [0, 0, 0, 0]),
                row(FINISHED, "Verdict@0", [4, 9, 0, 3]),
            ],
            participant: vec![
                row("Assign", "", [0, 0, 0, 0]),
                row("Challenge", "Commit@0", [16, 15, 0, 0]),
                row("Verdict", "Proofs@0 Reports@0", [16, 15, 0, 0]),
                row(FINISHED, "", [16, 15, 0, 0]),
            ],
        },
        Case {
            scheme: FleetScheme::NiCbs {
                samples: 4,
                g_iterations: 3,
                report_audit: 2,
            },
            supervisor: vec![
                row("CommitAndProofs", "Assign@0", [0, 0, 0, 0]),
                row("Reports", "", [0, 0, 0, 0]),
                row(FINISHED, "Verdict@0", [5, 10, 12, 4]),
            ],
            participant: vec![
                row("Assign", "", [0, 0, 0, 0]),
                row("Verdict", "CommitAndProofs@0 Reports@0", [16, 15, 12, 0]),
                row(FINISHED, "", [16, 15, 12, 0]),
            ],
        },
        Case {
            scheme: FleetScheme::Naive { samples: 4 },
            supervisor: vec![
                row("AllResults", "Assign@0", [0, 0, 0, 0]),
                row(FINISHED, "Verdict@0", [4, 0, 0, 4]),
            ],
            participant: vec![
                row("Assign", "", [0, 0, 0, 0]),
                row("Verdict", "AllResults@0", [16, 0, 0, 0]),
                row(FINISHED, "", [16, 0, 0, 0]),
            ],
        },
        Case {
            scheme: FleetScheme::Ringer { ringers: 2 },
            supervisor: vec![
                row("RingerFound", "Assign@0 RingerChallenge@0", [2, 0, 0, 0]),
                row("Reports", "", [2, 0, 0, 2]),
                row(FINISHED, "Verdict@0", [2, 0, 0, 2]),
            ],
            participant: vec![
                row("Assign", "", [0, 0, 0, 0]),
                row("RingerChallenge", "", [0, 0, 0, 0]),
                row("Verdict", "RingerFound@0 Reports@0", [16, 0, 0, 0]),
                row(FINISHED, "", [16, 0, 0, 0]),
            ],
        },
        Case {
            scheme: FleetScheme::DoubleCheck,
            supervisor: vec![
                row("AllResults", "Assign@0 Assign@1", [0, 0, 0, 0]),
                Row {
                    stale: true,
                    survives: &[0],
                    ..row("AllResults", "", [0, 0, 0, 0])
                },
                Row {
                    stale: true,
                    survives: &[0, 1],
                    ..row(REPLICAS, "Verdict@0 Verdict@1", [0, 0, 0, 16])
                },
            ],
            participant: vec![
                row("Assign", "", [0, 0, 0, 0]),
                row("Verdict", "AllResults@0", [16, 0, 0, 0]),
                row(FINISHED, "", [16, 0, 0, 0]),
            ],
        },
    ]
}

/// Names a message variant as the sessions do.
fn kind(msg: &Message) -> &'static str {
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

/// `msg` under task id `id`.
fn retask(mut msg: Message, id: u64) -> Message {
    match &mut msg {
        Message::Assign(a) => a.task_id = id,
        Message::Commit { task_id, .. }
        | Message::Challenge { task_id, .. }
        | Message::Proofs { task_id, .. }
        | Message::CommitAndProofs { task_id, .. }
        | Message::AllResults { task_id, .. }
        | Message::Reports { task_id, .. }
        | Message::RingerChallenge { task_id, .. }
        | Message::RingerFound { task_id, .. }
        | Message::Verdict { task_id, .. }
        | Message::Gone { task_id } => *task_id = id,
        Message::Session { .. } => unreachable!("sessions never see an envelope"),
    }
    msg
}

/// A reply batch as `kind@slot` words, or the error.
fn show<M>(result: Result<Vec<M>, SchemeError>, slot: impl Fn(&M) -> (usize, &Message)) -> String {
    match result {
        Ok(out) => out
            .iter()
            .map(|m| {
                let (slot, msg) = slot(m);
                format!("{}@{slot}", kind(msg))
            })
            .collect::<Vec<_>>()
            .join(" "),
        Err(e) => format!("error: {e:?}"),
    }
}

fn show_sup(result: Result<Vec<(usize, Message)>, SchemeError>) -> String {
    show(result, |(slot, msg)| (*slot, msg))
}

fn show_part(result: Result<Vec<Message>, SchemeError>) -> String {
    show(result, |msg| (0, msg))
}

fn unexpected(awaits: &'static str, got: &Message) -> String {
    format!(
        "error: {:?}",
        SchemeError::UnexpectedMessage {
            expected: awaits.into(),
            got: kind(got).into(),
        }
    )
}

fn mismatch(expected: u64) -> String {
    format!(
        "error: {:?}",
        SchemeError::TaskMismatch {
            expected,
            got: expected + SKEW,
        }
    )
}

fn costs(ledger: &CostLedger) -> [u64; 4] {
    let CostReport {
        f_evals,
        hash_ops,
        g_evals,
        verify_ops,
    } = ledger.report();
    [f_evals, hash_ops, g_evals, verify_ops]
}

/// The task, screener and share every session runs over.
struct World {
    task: PasswordSearch,
    screener: MatchScreener,
}

impl World {
    fn new() -> Self {
        let task = PasswordSearch::with_hidden_password(1, 5);
        let screener = task.match_screener();
        World { task, screener }
    }

    fn supervisor<'a>(
        &'a self,
        scheme: &'a dyn VerificationScheme<Sha256>,
        ledger: &CostLedger,
    ) -> Box<dyn SupervisorSession + 'a> {
        scheme.supervisor_session(SupervisorContext {
            task: &self.task,
            screener: &self.screener,
            domain: Domain::new(0, N),
            task_ids: IDS[..scheme.participant_slots()].to_vec(),
            ledger: ledger.clone(),
        })
    }

    fn participant<'a>(
        &'a self,
        scheme: &'a dyn VerificationScheme<Sha256>,
        ledger: &CostLedger,
    ) -> Box<dyn ParticipantSession + 'a> {
        scheme.participant_session(ParticipantContext {
            task: &self.task,
            screener: &self.screener,
            behaviour: &HonestWorker,
            storage: ParticipantStorage::Full,
            parallelism: Parallelism::serial(),
            lanes: LaneWidth::default(),
            ledger: ledger.clone(),
        })
    }

    /// An honest exchange, pumped in lockstep: what the supervisor
    /// received (with its slot), and what each participant slot received.
    fn exchange(
        &self,
        scheme: &dyn VerificationScheme<Sha256>,
    ) -> (Vec<(usize, Message)>, Vec<Vec<Message>>) {
        let mut supervisor = self.supervisor(scheme, &CostLedger::new());
        let mut participants: Vec<_> = (0..scheme.participant_slots())
            .map(|_| self.participant(scheme, &CostLedger::new()))
            .collect();
        let mut received = (Vec::new(), vec![Vec::new(); participants.len()]);
        let mut outward = supervisor.start().unwrap();
        while !outward.is_empty() {
            let mut inward = Vec::new();
            for (slot, msg) in outward.drain(..) {
                received.1[slot].push(msg.clone());
                let replies = participants[slot].on_message(msg).unwrap();
                inward.extend(replies.into_iter().map(|m| (slot, m)));
            }
            for (slot, msg) in inward {
                received.0.push((slot, msg.clone()));
                outward.extend(supervisor.on_message(slot, msg).unwrap());
            }
        }
        assert!(participants.iter().all(|p| p.finished() == Some(true)));
        received
    }
}

#[test]
fn every_state_of_every_session_answers_exactly() {
    let world = World::new();
    let alien_to_supervisor = Message::Verdict {
        task_id: IDS[0],
        accepted: true,
    };
    let alien_to_participant = Message::Commit {
        task_id: IDS[0],
        root: vec![0; 32],
    };
    for case in cases() {
        let scheme = case.scheme.instantiate::<Sha256>(3);
        let scheme = scheme.as_ref();
        let name = scheme.name();
        let (inbound, part_inbound) = world.exchange(scheme);
        assert_eq!(case.supervisor.len(), inbound.len() + 1, "{name}");
        assert_eq!(case.participant.len(), part_inbound[0].len() + 1, "{name}");

        // The supervisor, brought to state `depth` with a fresh ledger.
        let supervisor_at = |depth: usize| {
            let ledger = CostLedger::new();
            let mut session = world.supervisor(scheme, &ledger);
            let mut reply = show_sup(session.start());
            for (slot, msg) in &inbound[..depth] {
                reply = show_sup(session.on_message(*slot, msg.clone()));
            }
            (session, ledger, reply)
        };
        for (depth, row) in case.supervisor.iter().enumerate() {
            let at = format!("{name} supervisor, state {depth} ({})", row.awaits);
            let last = depth == inbound.len();
            let (mut session, ledger, reply) = supervisor_at(depth);
            assert_eq!(reply, row.reply, "{at}: reply");
            assert_eq!(costs(&ledger), row.ledger, "{at}: ledger");
            let outcome = session.take_outcome();
            assert_eq!(outcome.is_some(), last, "{at}: outcome");
            if let Some(outcome) = outcome {
                assert_eq!(outcome.verdict, Verdict::Accepted, "{at}");
                assert_eq!(outcome.reports.len(), 1, "{at}: reports");
            }
            for slot in 0..scheme.participant_slots() {
                let (mut session, ..) = supervisor_at(depth);
                let survives = session.on_peer_gone(slot);
                let expected = if row.survives.contains(&slot) {
                    Ok(())
                } else {
                    Err(SchemeError::Grid(
                        uncheatable_grid::grid::GridError::Disconnected,
                    ))
                };
                assert_eq!(survives, expected, "{at}: slot {slot} gone");
            }

            let mut probes = vec![("alien", 0, alien_to_supervisor.clone(), None)];
            if let Some((slot, next)) = inbound.get(depth) {
                let id = next.task_id();
                let skewed = retask(next.clone(), id + SKEW);
                probes.push(("wrong task", *slot, skewed, Some(mismatch(id))));
            }
            if let (Some((_, next)), Some((slot, after))) =
                (inbound.get(depth), inbound.get(depth + 1))
            {
                if kind(next) != kind(after) {
                    probes.push(("ahead", *slot, after.clone(), None));
                }
            }
            if let Some((slot, previous)) = depth.checked_sub(1).map(|d| &inbound[d]) {
                assert_eq!(
                    session.is_stale(*slot, previous),
                    row.stale,
                    "{at}: duplicate stale"
                );
                let ignored = (row.stale && !last).then(String::new);
                probes.push(("duplicate", *slot, previous.clone(), ignored));
            }
            for (probe, slot, msg, expected) in probes {
                let expected = expected.unwrap_or_else(|| unexpected(row.awaits, &msg));
                let (mut session, ledger, _) = supervisor_at(depth);
                let got = show_sup(session.on_message(slot, msg));
                assert_eq!(got, expected, "{at}: {probe}");
                assert_eq!(costs(&ledger), row.ledger, "{at}: {probe} charged");
                assert!(session.take_outcome().is_some() == last, "{at}: {probe}");
            }
        }

        // Participant slot 0, brought to state `depth`.
        let inbound = &part_inbound[0];
        let participant_at = |depth: usize| {
            let ledger = CostLedger::new();
            let mut session = world.participant(scheme, &ledger);
            let mut reply = String::new();
            for msg in &inbound[..depth] {
                reply = show_part(session.on_message(msg.clone()));
            }
            (session, ledger, reply)
        };
        for (depth, row) in case.participant.iter().enumerate() {
            let at = format!("{name} participant, state {depth} ({})", row.awaits);
            let last = depth == inbound.len();
            let (session, ledger, reply) = participant_at(depth);
            assert_eq!(reply, row.reply, "{at}: reply");
            assert_eq!(costs(&ledger), row.ledger, "{at}: ledger");
            assert_eq!(session.finished(), last.then_some(true), "{at}: finished");

            let mut probes = vec![("alien", alien_to_participant.clone(), None)];
            if let Some(next) = inbound.get(depth).filter(|m| kind(m) != "Assign") {
                let id = next.task_id();
                let skewed = retask(next.clone(), id + SKEW);
                probes.push(("wrong task", skewed, Some(mismatch(id))));
            }
            if let Some(after) = inbound.get(depth + 1) {
                probes.push(("ahead", after.clone(), None));
            }
            if let Some(previous) = depth.checked_sub(1).map(|d| &inbound[d]) {
                probes.push(("duplicate", previous.clone(), None));
            }
            for (probe, msg, expected) in probes {
                let expected = expected.unwrap_or_else(|| unexpected(row.awaits, &msg));
                let (mut session, ledger, _) = participant_at(depth);
                let got = show_part(session.on_message(msg));
                assert_eq!(got, expected, "{at}: {probe}");
                assert_eq!(costs(&ledger), row.ledger, "{at}: {probe} charged");
                assert_eq!(session.finished(), last.then_some(true), "{at}: {probe}");
            }
        }
    }
}

/// A supervisor that was never started, or that has failed, is over: it
/// answers as its finished state does and never yields an outcome.
#[test]
fn an_unstarted_or_failed_supervisor_answers_as_finished() {
    let world = World::new();
    let alien = Message::Verdict {
        task_id: IDS[0],
        accepted: true,
    };
    for case in cases() {
        let scheme = case.scheme.instantiate::<Sha256>(3);
        let scheme = scheme.as_ref();
        let name = scheme.name();
        let (inbound, _) = world.exchange(scheme);
        let (opened, finished) = (&case.supervisor[0], case.supervisor.last().unwrap());
        for failed in [false, true] {
            let at = format!(
                "{name} supervisor, {}",
                ["unstarted", "failed"][usize::from(failed)]
            );
            let ledger = CostLedger::new();
            let mut session = world.supervisor(scheme, &ledger);
            let mut charged = [0; 4];
            if failed {
                session.start().unwrap();
                let got = show_sup(session.on_message(0, alien.clone()));
                assert_eq!(got, unexpected(opened.awaits, &alien), "{at}: first error");
                charged = opened.ledger;
            }
            // Every message of the honest exchange, in order.
            for (slot, msg) in &inbound {
                assert_eq!(session.is_stale(*slot, msg), finished.stale, "{at}: stale");
                let got = show_sup(session.on_message(*slot, msg.clone()));
                assert_eq!(got, unexpected(finished.awaits, msg), "{at}");
                assert_eq!(costs(&ledger), charged, "{at}: charged");
            }
            assert!(session.take_outcome().is_none(), "{at}: outcome");
            for slot in 0..scheme.participant_slots() {
                let expected = if finished.survives.contains(&slot) {
                    Ok(())
                } else {
                    Err(SchemeError::Grid(
                        uncheatable_grid::grid::GridError::Disconnected,
                    ))
                };
                assert_eq!(
                    session.on_peer_gone(slot),
                    expected,
                    "{at}: slot {slot} gone"
                );
            }
        }
    }
}
