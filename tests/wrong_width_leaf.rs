//! A leaf of the wrong width stays a typed error.
//!
//! The participant's results now travel as one flat row; a value one
//! byte short, appended unchecked, would silently shift every later
//! leaf — the commitment would be over garbage, the naive upload would
//! mis-frame, the ringer scan would compare across leaf boundaries.
//! Every scheme's participant session must instead fail the commit with
//! the `MixedLeafWidth` error (and index) a per-leaf tree build always
//! reported.

use uncheatable_grid::core::{
    FleetScheme, LaneWidth, Parallelism, ParticipantContext, ParticipantStorage, SchemeError,
};
use uncheatable_grid::grid::{Assignment, CostLedger, HonestWorker, Message, WorkerBehaviour};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::merkle::MerkleError;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{ComputeTask, Domain};

/// Honest everywhere, except that leaf 5 comes back one byte short.
struct ShortLeafAtFive;

impl WorkerBehaviour for ShortLeafAtFive {
    fn name(&self) -> &str {
        "short-leaf-at-five"
    }

    fn leaf_value(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        index: u64,
        ledger: &CostLedger,
    ) -> Vec<u8> {
        let mut value = HonestWorker.leaf_value(task, domain, index, ledger);
        if index == 5 {
            value.pop();
        }
        value
    }
}

#[test]
fn every_scheme_fails_the_commit_with_the_leaf_index() {
    let task = PasswordSearch::with_hidden_password(3, 40);
    let screener = task.match_screener();
    let domain = Domain::new(100, 64);
    let schemes = [
        FleetScheme::Cbs {
            samples: 6,
            report_audit: 0,
        },
        FleetScheme::NiCbs {
            samples: 6,
            g_iterations: 1,
            report_audit: 0,
        },
        FleetScheme::Naive { samples: 6 },
        FleetScheme::Ringer { ringers: 4 },
        FleetScheme::DoubleCheck,
    ];
    let storages = [
        ParticipantStorage::Full,
        ParticipantStorage::Partial { subtree_height: 2 },
    ];
    for scheme in schemes {
        for storage in storages {
            let scheme = scheme.instantiate::<Sha256>(7);
            let context = format!("{} {storage:?}", scheme.name());
            let mut session = scheme.participant_session(ParticipantContext {
                task: &task,
                screener: &screener,
                behaviour: &ShortLeafAtFive,
                storage,
                parallelism: Parallelism::serial(),
                lanes: LaneWidth::default(),
                ledger: CostLedger::new(),
            });
            let mut result = session.on_message(Message::Assign(Assignment { task_id: 9, domain }));
            if result.as_ref().is_ok_and(Vec::is_empty) {
                // The ringer participant evaluates once it has the ringers.
                result = session.on_message(Message::RingerChallenge {
                    task_id: 9,
                    ringers: vec![task.compute(103)],
                });
            }
            assert_eq!(
                result.unwrap_err(),
                SchemeError::Merkle(MerkleError::MixedLeafWidth {
                    expected: 16,
                    found: 15,
                    index: 5
                }),
                "{context}"
            );
            assert_eq!(session.finished(), None, "{context}");
        }
    }
}

#[test]
fn the_same_sessions_commit_when_every_leaf_is_whole() {
    // The control: the harness above reaches the commit for an honest
    // behaviour, so the error it pins is the leaf's and not the test's.
    let task = PasswordSearch::with_hidden_password(3, 40);
    let screener = task.match_screener();
    let scheme = FleetScheme::Cbs {
        samples: 6,
        report_audit: 0,
    }
    .instantiate::<Sha256>(7);
    let mut session = scheme.participant_session(ParticipantContext {
        task: &task,
        screener: &screener,
        behaviour: &HonestWorker,
        storage: ParticipantStorage::Full,
        parallelism: Parallelism::serial(),
        lanes: LaneWidth::default(),
        ledger: CostLedger::new(),
    });
    let out = session
        .on_message(Message::Assign(Assignment {
            task_id: 9,
            domain: Domain::new(100, 64),
        }))
        .unwrap();
    assert!(matches!(
        out.as_slice(),
        [Message::Commit { task_id: 9, .. }]
    ));
}
