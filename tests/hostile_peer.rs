//! A participant speaks only for the slots it holds, and reports each of
//! them once.
//!
//! A slot's task id is its only address, so a peer that names another
//! slot's task id must not be heard as that slot: in process the engine
//! hears slot `k` only for task `k`, and between processes the broker
//! relays a participant's message only for a task routed to it. Neither
//! passes up a participant's `Gone`, which is the transport's own NACK.
//! And a remote
//! peer's slot reports are booked one per slot: a duplicate is a typed
//! error, not a member's costs counted twice and another's not at all.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Duration;
use uncheatable_grid::campaign::{CampaignPlan, FleetParams};
use uncheatable_grid::core::engine::SessionEngine;
use uncheatable_grid::core::scheme::cbs::CbsScheme;
use uncheatable_grid::core::{
    run_fleet_on, FleetSummary, InProcessBackend, LaneWidth, Parallelism, ParticipantContext,
    ParticipantSession, ParticipantStorage, RemoteGridBackend, RoundSpec, SchemeError, SlotReport,
    SupervisorContext, TransportBackend, TransportKind, VerificationScheme,
};
use uncheatable_grid::grid::tcp::{handshake_participant, handshake_supervisor};
use uncheatable_grid::grid::{
    CheatSelection, CostLedger, DialLink, HonestWorker, Message, SemiHonestCheater, WorkerBehaviour,
};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::netgrid::{self, GridServer};
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{Domain, ZeroGuesser};

/// Far longer than any scenario takes; only a wedged campaign reaches it.
const WATCHDOG: Duration = Duration::from_secs(60);

/// An honest session that speaks for slot 1 once: its first reply is
/// preceded by slot 1's death notice and a forged commitment for slot 1.
struct Impostor<'a> {
    honest: Box<dyn ParticipantSession + 'a>,
    injected: bool,
}

impl ParticipantSession for Impostor<'_> {
    fn on_message(&mut self, msg: Message) -> Result<Vec<Message>, SchemeError> {
        let mut replies = Vec::new();
        if !std::mem::replace(&mut self.injected, true) {
            replies.push(Message::Gone { task_id: 1 });
            replies.push(Message::Commit {
                task_id: 1,
                root: vec![0; 32],
            });
        }
        replies.extend(self.honest.on_message(msg)?);
        Ok(replies)
    }

    fn finished(&self) -> Option<bool> {
        self.honest.finished()
    }
}

#[test]
fn a_direct_link_cannot_speak_for_another_slot() {
    impostor_round(TransportKind::Direct);
}

#[test]
fn a_brokered_slot_cannot_speak_for_another_slot() {
    impostor_round(TransportKind::Brokered);
}

/// Slot 0 serves its own task honestly, but its first reply is preceded by
/// slot 1's death notice and a forged commitment for slot 1. Task 1 is
/// routed to slot 1, so neither is heard: both sessions are accepted.
fn impostor_round(kind: TransportKind) {
    let task = PasswordSearch::with_hidden_password(2, 5);
    let screener = task.match_screener();
    let scheme = CbsScheme {
        samples: 8,
        seed: 3,
        report_audit: 0,
    };
    let slot = |k: u64, ledger: CostLedger| -> Box<dyn ParticipantSession + '_> {
        let honest = VerificationScheme::<Sha256>::participant_session(
            &scheme,
            ParticipantContext {
                task: &task,
                screener: &screener,
                behaviour: &HonestWorker,
                storage: ParticipantStorage::Full,
                parallelism: Parallelism::serial(),
                lanes: LaneWidth::default(),
                ledger,
            },
        );
        match k {
            0 => Box::new(Impostor {
                honest,
                injected: false,
            }),
            _ => honest,
        }
    };
    let spec = RoundSpec {
        round: 0,
        chaos: None,
        workers: Some(2),
        steal_seed: 0,
    };
    let mut engine = SessionEngine::new();
    for start in [0, 32] {
        engine.add_session(1, |task_ids| {
            VerificationScheme::<Sha256>::supervisor_session(
                &scheme,
                SupervisorContext {
                    task: &task,
                    screener: &screener,
                    domain: Domain::new(start, 32),
                    task_ids,
                    ledger: CostLedger::new(),
                },
            )
        });
    }
    let round = InProcessBackend::new(kind)
        .run_round(&spec, engine, &slot)
        .unwrap();
    for (slot, result) in round.sessions.iter().enumerate() {
        assert!(
            result
                .outcome
                .as_ref()
                .is_ok_and(|o| o.verdict.is_accepted()),
            "{kind:?} slot {slot}: {:?}",
            result.outcome
        );
    }
}

#[test]
fn slot_k_serves_task_k_when_an_earlier_session_fails_at_start() {
    // Session 0 fails in its start (no samples) and assigns nothing; its
    // slot cheats on everything. Session 1's task is still served by slot
    // 1, which is honest, not dealt to the idle slot 0.
    let task = PasswordSearch::with_hidden_password(2, 5);
    let screener = task.match_screener();
    let schemes = [0, 8].map(|samples| CbsScheme {
        samples,
        seed: 3,
        report_audit: 0,
    });
    let cheater = SemiHonestCheater::new(0.0, CheatSelection::Scattered, ZeroGuesser::new(1), 3);
    let behaviours: [&dyn WorkerBehaviour; 2] = [&cheater, &HonestWorker];
    let slot = |k: u64, ledger| {
        let k = usize::try_from(k).unwrap();
        VerificationScheme::<Sha256>::participant_session(
            &schemes[k],
            ParticipantContext {
                task: &task,
                screener: &screener,
                behaviour: behaviours[k],
                storage: ParticipantStorage::Full,
                parallelism: Parallelism::serial(),
                lanes: LaneWidth::default(),
                ledger,
            },
        )
    };
    let mut engine = SessionEngine::new();
    for (scheme, start) in schemes.iter().zip([0, 32]) {
        engine.add_session(1, |task_ids| {
            VerificationScheme::<Sha256>::supervisor_session(
                scheme,
                SupervisorContext {
                    task: &task,
                    screener: &screener,
                    domain: Domain::new(start, 32),
                    task_ids,
                    ledger: CostLedger::new(),
                },
            )
        });
    }
    let spec = RoundSpec {
        round: 0,
        chaos: None,
        workers: Some(2),
        steal_seed: 0,
    };
    let round = InProcessBackend::new(TransportKind::Direct)
        .run_round(&spec, engine, &slot)
        .unwrap();
    assert!(matches!(
        round.sessions[0].outcome,
        Err(SchemeError::InvalidConfig { .. })
    ));
    let judged = round.sessions[1].outcome.as_ref().unwrap();
    assert!(judged.verdict.is_accepted(), "{:?}", judged.verdict);
    // Slot 1 ended on its verdict; slot 0, never assigned, on the round's
    // hang-up.
    assert!(round.reports[1].outcome.is_ok());
    assert!(round.reports[0].outcome.is_err());
}

/// Three honest CBS members over a remote grid.
fn params() -> FleetParams {
    FleetParams {
        participants: 3,
        cheaters: 0,
        n: 240,
        m: 8,
        seed: 11,
        scheme: "cbs".into(),
        transport: TransportKind::Remote,
        churn: false,
        chaos_seed: None,
    }
}

/// Runs the [`params`] campaign as the supervisor of the grid at `addr`.
fn supervise(addr: String) -> Result<FleetSummary, SchemeError> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let p = params();
        let plan = CampaignPlan::new(p.clone()).expect("plan");
        let stream = netgrid::connect(&addr).expect("supervisor connect");
        let (link, _welcome) = handshake_supervisor(stream, &p.encode()).expect("handshake");
        let mut backend = RemoteGridBackend::new(link).with_patience(Duration::from_secs(5));
        let members = plan.members();
        let result = run_fleet_on(
            plan.task(),
            plan.screener(),
            plan.domain(),
            &members,
            &plan.mixed_config(None, 0, LaneWidth::default()),
            &mut backend,
            None,
        );
        let _ = tx.send(result);
    });
    rx.recv_timeout(WATCHDOG)
        .expect("supervisor wedged: no result within the watchdog window")
}

/// A `ugc participant join` written out by hand, so that it can
/// misbehave around honest work: it serves every slot routed to it as
/// the real one does, but first shows each inbound message to `inject`
/// (with the link and its peer index), and hands each finished slot's
/// report to `report` to send.
fn hand_rolled_join(
    addr: &str,
    mut inject: impl FnMut(&mut DialLink, u32, &Message),
    mut report: impl FnMut(&mut DialLink, SlotReport),
) {
    let stream = netgrid::connect(addr).expect("joiner connect");
    let (mut link, welcome) = handshake_participant(stream).expect("joiner handshake");
    let params = FleetParams::decode(&welcome.params).expect("params");
    let plan = CampaignPlan::new(params).expect("plan");
    let mut live: BTreeMap<u64, (Box<dyn ParticipantSession + '_>, CostLedger)> = BTreeMap::new();
    while let Ok(msg) = link.recv() {
        inject(&mut link, welcome.peer_index, &msg);
        let slot = msg.task_id();
        let (session, ledger) = live.entry(slot).or_insert_with(|| {
            let ledger = CostLedger::new();
            let session = plan
                .participant_session(slot, ledger.clone())
                .expect("slot");
            (session, ledger)
        });
        let outcome = match session.on_message(msg) {
            Ok(replies) => {
                for reply in replies {
                    let _ = link.send(&reply);
                }
                match session.finished() {
                    Some(accepted) => Ok(accepted),
                    None => continue,
                }
            }
            Err(e) => Err(e),
        };
        let costs = ledger.report();
        live.remove(&slot);
        report(
            &mut link,
            SlotReport {
                slot,
                costs,
                outcome,
            },
        );
    }
}

fn send(link: &mut DialLink, report: &SlotReport) {
    let _ = link.send_control(&report.encode());
}

#[test]
fn a_joiner_cannot_speak_for_a_slot_another_joiner_holds() {
    // Two joiners; the broker deals tasks round-robin, so joiner `p` holds
    // the tasks congruent to `p` mod 2. The hand-rolled one, on its first
    // assignment, reports the other's task `1 − p` dead and forges its
    // commitment. Neither may reach the supervisor: every member is
    // accepted.
    let server = GridServer::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let serve = std::thread::spawn(move || server.run());
    let honest = {
        let addr = addr.clone();
        std::thread::spawn(move || netgrid::join(&addr))
    };
    let hostile = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut injected = 0;
            hand_rolled_join(
                &addr,
                |link, peer_index, _| {
                    let victim = 1 - u64::from(peer_index);
                    if injected == 0 {
                        let _ = link.send(&Message::Gone { task_id: victim });
                        let _ = link.send(&Message::Commit {
                            task_id: victim,
                            root: vec![0; 32],
                        });
                        injected += 1;
                    }
                },
                |link, report| send(link, &report),
            );
            injected
        })
    };

    let summary = supervise(addr).expect("the campaign ignores the impostor");
    assert_eq!(summary.accepted(), 3);
    assert_eq!(
        hostile.join().expect("hostile joiner"),
        1,
        "nothing injected"
    );
    honest.join().expect("honest joiner").expect("join outcome");
    serve.join().expect("serve thread").expect("serve outcome");
}

#[test]
fn a_slot_reported_twice_is_a_typed_error() {
    // One hand-rolled joiner serves every slot, then reports slot 0 twice
    // ahead of the others.
    let server = GridServer::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let serve = std::thread::spawn(move || server.run());
    let joiner = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            hand_rolled_join(
                &addr,
                |_, _, _| {},
                |link, report| {
                    held.push(report);
                    if held.len() == 3 {
                        held.sort_by_key(|r| r.slot);
                        send(link, &held[0]);
                        for report in &held {
                            send(link, report);
                        }
                    }
                },
            );
        })
    };

    let err = supervise(addr).expect_err("a slot reported twice must not be booked");
    assert!(
        matches!(&err, SchemeError::InvalidConfig { reason } if reason.contains("twice")),
        "{err}"
    );
    joiner.join().expect("joiner");
    serve.join().expect("serve thread").expect("serve outcome");
}
