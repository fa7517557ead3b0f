//! A participant speaks only for the slots it holds, and reports each of
//! them once.
//!
//! A slot's task id is its only address, so a peer that names another
//! slot's task id must not be heard as that slot: not over a direct link
//! (the link serves only its own tasks), and not through a broker (which
//! relays a participant's message only for a task routed to it, and never
//! relays a participant's `Gone`, the broker's own NACK). And a remote
//! peer's slot reports are booked one per slot: a duplicate is a typed
//! error, not a member's costs counted twice and another's not at all.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Duration;
use uncheatable_grid::campaign::{CampaignPlan, FleetParams};
use uncheatable_grid::core::engine::{DirectTransport, SessionEngine};
use uncheatable_grid::core::scheme::cbs::CbsScheme;
use uncheatable_grid::core::session::drive_participant;
use uncheatable_grid::core::{
    run_fleet_on, FleetSummary, LaneWidth, Parallelism, ParticipantContext, ParticipantSession,
    ParticipantStorage, RemoteGridBackend, SchemeError, SlotReport, SupervisorContext,
    TransportKind, VerificationScheme,
};
use uncheatable_grid::grid::tcp::{handshake_participant, handshake_supervisor};
use uncheatable_grid::grid::{
    duplex, ControlHandle, CostLedger, GridLink, HonestWorker, Message, TcpLink,
};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::netgrid::{self, GridServer};
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::Domain;

/// Far longer than any scenario takes; only a wedged campaign reaches it.
const WATCHDOG: Duration = Duration::from_secs(60);

#[test]
fn a_direct_link_cannot_speak_for_another_slot() {
    // Participant 0 reports slot 1 dead and forges slot 1's commitment
    // before slot 1's own participant has said a word; then both serve
    // their own slots honestly, and both must be accepted.
    let task = PasswordSearch::with_hidden_password(2, 5);
    let screener = task.match_screener();
    let scheme = CbsScheme {
        samples: 8,
        seed: 3,
        report_audit: 0,
    };
    let mut engine = SessionEngine::new();
    let mut transport = DirectTransport::new();
    let mut links = Vec::new();
    for task_id in 0..2u64 {
        let session = VerificationScheme::<Sha256>::supervisor_session(
            &scheme,
            SupervisorContext {
                task: &task,
                screener: &screener,
                domain: Domain::new(task_id * 32, 32),
                task_ids: vec![task_id],
                ledger: CostLedger::new(),
            },
        );
        engine.add_session(session, vec![task_id]).unwrap();
        let (sup_side, part_side) = duplex();
        transport.add_endpoint(sup_side, [task_id]);
        links.push(part_side);
    }
    let participate = |link: &dyn GridLink| {
        let mut session = VerificationScheme::<Sha256>::participant_session(
            &scheme,
            ParticipantContext {
                task: &task,
                screener: &screener,
                behaviour: &HonestWorker,
                storage: ParticipantStorage::Full,
                parallelism: Parallelism::serial(),
                lanes: LaneWidth::default(),
                ledger: CostLedger::new(),
            },
        );
        let _ = drive_participant(link, session.as_mut());
    };
    let (injected, go) = mpsc::channel();
    let results = std::thread::scope(|scope| {
        let [own, victim] = <[_; 2]>::try_from(links).unwrap();
        scope.spawn(move || {
            own.send(&Message::Gone { task_id: 1 }).unwrap();
            own.send(&Message::Commit {
                task_id: 1,
                root: vec![0; 32],
            })
            .unwrap();
            injected.send(()).unwrap();
            participate(&own);
        });
        scope.spawn(move || {
            go.recv().unwrap();
            participate(&victim);
        });
        let results = engine.run(&mut transport);
        drop(transport); // hang up: a participant left waiting ends
        results
    });
    for (slot, result) in results.iter().enumerate() {
        assert!(
            result
                .outcome
                .as_ref()
                .is_ok_and(|o| o.verdict.is_accepted()),
            "slot {slot}: {:?}",
            result.outcome
        );
    }
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
    mut inject: impl FnMut(&TcpLink, u32, &Message),
    mut report: impl FnMut(&ControlHandle, SlotReport),
) {
    let stream = netgrid::connect(addr).expect("joiner connect");
    let (link, welcome) = handshake_participant(stream).expect("joiner handshake");
    let params = FleetParams::decode(&welcome.params).expect("params");
    let plan = CampaignPlan::new(params).expect("plan");
    let control = link.control_handle();
    let mut live: BTreeMap<u64, (Box<dyn ParticipantSession + '_>, CostLedger)> = BTreeMap::new();
    while let Ok(msg) = link.recv() {
        inject(&link, welcome.peer_index, &msg);
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
            &control,
            SlotReport {
                slot,
                costs,
                outcome,
            },
        );
    }
}

fn send(control: &ControlHandle, report: &SlotReport) {
    let _ = control.send(report.encode());
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
                |control, report| send(control, &report),
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
                |control, report| {
                    held.push(report);
                    if held.len() == 3 {
                        held.sort_by_key(|r| r.slot);
                        send(control, &held[0]);
                        for report in &held {
                            send(control, report);
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
