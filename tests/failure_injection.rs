//! Failure injection: protocols must fail *cleanly* (typed errors, no
//! hangs, no panics) when peers die, lie structurally, or reorder
//! messages. Distributed-systems hygiene for the scheme layer.

use uncheatable_grid::core::scheme::cbs::CbsScheme;
use uncheatable_grid::core::session::{drive_participant, drive_supervisor};
use uncheatable_grid::core::{
    LaneWidth, Parallelism, ParticipantContext, ParticipantStorage, SchemeError, SessionOutcome,
    SupervisorContext, VerificationScheme,
};
use uncheatable_grid::grid::{
    duplex, Assignment, CostLedger, Endpoint, GridError, GridLink, HonestWorker, Message, Opening,
};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::Domain;

fn task() -> PasswordSearch {
    PasswordSearch::with_hidden_password(1, 2)
}

fn scheme(samples: usize) -> CbsScheme {
    CbsScheme {
        samples,
        seed: 1,
        report_audit: 0,
    }
}

/// The supervisor half of one CBS round (task id 1, 16 inputs) over
/// `endpoint`, whatever is on the other end.
fn supervise(
    endpoint: &Endpoint,
    task: &PasswordSearch,
    samples: usize,
) -> Result<SessionOutcome, SchemeError> {
    let scheme = scheme(samples);
    let screener = task.match_screener();
    let mut session = VerificationScheme::<Sha256>::supervisor_session(
        &scheme,
        SupervisorContext {
            task,
            screener: &screener,
            domain: Domain::new(0, 16),
            task_ids: vec![1],
            ledger: CostLedger::new(),
        },
    );
    drive_supervisor(&[endpoint], session.as_mut())
}

#[test]
fn supervisor_reports_disconnect_if_participant_dies_before_commit() {
    let t = task();
    let (sup_ep, part_ep) = duplex();
    drop(part_ep); // participant never shows up
    let err = supervise(&sup_ep, &t, 2).unwrap_err();
    assert_eq!(err, SchemeError::Grid(GridError::Disconnected));
}

#[test]
fn participant_reports_disconnect_if_supervisor_dies_after_commit() {
    let t = task();
    let (sup_ep, part_ep) = duplex();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let scheme = scheme(2);
            let screener = t.match_screener();
            let mut session = VerificationScheme::<Sha256>::participant_session(
                &scheme,
                ParticipantContext {
                    task: &t,
                    screener: &screener,
                    behaviour: &HonestWorker,
                    storage: ParticipantStorage::Full,
                    parallelism: Parallelism::default(),
                    lanes: LaneWidth::default(),
                    ledger: CostLedger::new(),
                },
            );
            drive_participant(&part_ep, session.as_mut())
        });
        sup_ep
            .send(&Message::Assign(Assignment {
                task_id: 1,
                domain: Domain::new(0, 16),
            }))
            .unwrap();
        let _commit = sup_ep.recv().unwrap();
        drop(sup_ep); // supervisor vanishes before challenging
        let err = handle.join().unwrap().unwrap_err();
        assert_eq!(err, SchemeError::Grid(GridError::Disconnected));
    });
}

#[test]
fn supervisor_rejects_out_of_order_messages() {
    let t = task();
    let (sup_ep, part_ep) = duplex();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _assign = part_ep.recv().unwrap();
            // Sends Reports where a Commit is expected.
            part_ep
                .send(&Message::Reports {
                    task_id: 1,
                    reports: vec![],
                })
                .unwrap();
        });
        let err = supervise(&sup_ep, &t, 2).unwrap_err();
        assert_eq!(
            err,
            SchemeError::UnexpectedMessage {
                expected: "Commit".into(),
                got: "Reports".into()
            }
        );
    });
}

#[test]
fn supervisor_rejects_wrong_task_id() {
    let t = task();
    let (sup_ep, part_ep) = duplex();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _assign = part_ep.recv().unwrap();
            part_ep
                .send(&Message::Commit {
                    task_id: 999,
                    root: vec![0u8; 32],
                })
                .unwrap();
        });
        let err = supervise(&sup_ep, &t, 2).unwrap_err();
        assert_eq!(
            err,
            SchemeError::TaskMismatch {
                expected: 1,
                got: 999
            }
        );
    });
}

#[test]
fn supervisor_rejects_malformed_commitment() {
    let t = task();
    let (sup_ep, part_ep) = duplex();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _assign = part_ep.recv().unwrap();
            part_ep
                .send(&Message::Commit {
                    task_id: 1,
                    root: vec![0u8; 31], // not a SHA-256 digest
                })
                .unwrap();
        });
        let err = supervise(&sup_ep, &t, 2).unwrap_err();
        assert_eq!(
            err,
            SchemeError::MalformedPayload {
                what: "commitment root".into()
            }
        );
    });
}

#[test]
fn supervisor_rejects_short_proof_list() {
    let t = task();
    let (sup_ep, part_ep) = duplex();
    std::thread::scope(|scope| {
        let challenged = scope.spawn(|| {
            let _assign = part_ep.recv().unwrap();
            part_ep
                .send(&Message::Commit {
                    task_id: 1,
                    root: vec![0u8; 32],
                })
                .unwrap();
            let Message::Challenge { mut samples, .. } = part_ep.recv().unwrap() else {
                panic!("expected Challenge");
            };
            part_ep
                .send(&Message::Proofs {
                    task_id: 1,
                    // Challenged three, opened none: leaves of the right
                    // width, just no leaves.
                    proofs: Box::new(Opening {
                        leaf_width: 16,
                        ..Opening::default()
                    }),
                })
                .unwrap();
            part_ep
                .send(&Message::Reports {
                    task_id: 1,
                    reports: vec![],
                })
                .unwrap();
            samples.sort_unstable();
            samples.dedup();
            samples.len()
        });
        let err = supervise(&sup_ep, &t, 3).unwrap_err();
        // The opening owes one leaf per *distinct* challenged index.
        let expected = challenged.join().unwrap();
        assert!((1..=3).contains(&expected));
        assert_eq!(err, SchemeError::ProofCountMismatch { expected, got: 0 });
    });
}
