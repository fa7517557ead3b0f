//! `Routes` against a reference model: the same rules, written the
//! plainest way, with a hang-up that sweeps every route instead of
//! looking at the participant's own tasks. The same operations must give
//! the same answers, step by step, and a relayed verdict ends its task's
//! route in both.

use proptest::prelude::*;
use std::collections::BTreeMap;
use ugc_grid::{Assignment, GridError, Message, Routes};
use ugc_task::Domain;

/// Task ids are drawn from a small range, so ids repeat and a task is
/// dealt again, often to another participant.
const TASKS: u64 = 10;

/// The most participants a case has.
const MAX_PARTICIPANTS: usize = 5;

/// The rules `Routes` keeps, with a hang-up that looks at every route.
#[derive(Default)]
struct Model {
    routes: BTreeMap<u64, usize>,
    next: usize,
    closed: Vec<bool>,
}

impl Model {
    fn route(
        &mut self,
        msg: &Message,
        send: impl FnOnce(usize) -> Result<(), GridError>,
    ) -> Result<Vec<u64>, GridError> {
        let task_id = msg.task_id();
        let idx = if matches!(msg, Message::Assign(_)) {
            let n = self.closed.len();
            let idx = (0..n)
                .map(|k| (self.next + k) % n)
                .find(|&i| !self.closed[i])
                .unwrap_or(self.next);
            self.next = (idx + 1) % n;
            self.routes.insert(task_id, idx);
            idx
        } else {
            *self.routes.get(&task_id).ok_or(GridError::Empty)?
        };
        if !self.closed[idx] {
            match send(idx) {
                Ok(()) => {
                    if matches!(msg, Message::Verdict { .. }) {
                        self.routes.remove(&task_id);
                    }
                    return Ok(Vec::new());
                }
                Err(GridError::Disconnected) => {}
                Err(e) => return Err(e),
            }
        }
        self.routes.remove(&task_id);
        let mut nacked = vec![task_id];
        nacked.extend(self.mark_gone(idx));
        Ok(nacked)
    }

    fn speaks_for(&self, idx: usize, msg: &Message) -> bool {
        !matches!(msg, Message::Gone { .. }) && self.routes.get(&msg.task_id()) == Some(&idx)
    }

    fn mark_gone(&mut self, idx: usize) -> Vec<u64> {
        let mut orphaned = Vec::new();
        if !std::mem::replace(&mut self.closed[idx], true) {
            self.routes.retain(|&task_id, &mut i| {
                if i == idx {
                    orphaned.push(task_id);
                }
                i != idx
            });
        }
        orphaned
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Deal `task` to the next participant; the send fails with
    /// `Disconnected` when `fails`.
    Assign { task: u64, fails: bool },
    /// Send a verdict for `task` along its route.
    Follow { task: u64, fails: bool },
    /// Participant `idx` (modulo the pool) is gone.
    Gone(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..TASKS, any::<u8>()).prop_map(|(task, roll)| Op::Assign {
            task,
            fails: roll % 8 == 0,
        }),
        (0..TASKS, any::<u8>()).prop_map(|(task, roll)| Op::Follow {
            task,
            fails: roll % 8 == 0,
        }),
        (0..MAX_PARTICIPANTS).prop_map(Op::Gone),
    ]
}

fn assign(task_id: u64) -> Message {
    Message::Assign(Assignment {
        task_id,
        domain: Domain::new(0, 8),
    })
}

fn verdict(task_id: u64) -> Message {
    Message::Verdict {
        task_id,
        accepted: true,
    }
}

/// A send that answers `fails` and records which participant it was for.
fn send_to(
    sent: &mut Option<usize>,
    fails: bool,
) -> impl FnOnce(usize) -> Result<(), GridError> + '_ {
    move |idx| {
        *sent = Some(idx);
        if fails {
            Err(GridError::Disconnected)
        } else {
            Ok(())
        }
    }
}

/// A NACK list is the routed task (if any) followed by orphans in
/// strictly ascending order, so no task is NACKed twice.
fn assert_well_formed(orphans: &[u64], routed: Option<u64>) {
    assert!(
        orphans.windows(2).all(|pair| pair[0] < pair[1]),
        "orphans not strictly ascending: {orphans:?}"
    );
    if let Some(task) = routed {
        assert!(!orphans.contains(&task), "{task} NACKed twice");
    }
}

proptest! {
    #[test]
    fn routes_answer_as_the_sweeping_model_does(
        participants in 1..=MAX_PARTICIPANTS,
        ops in proptest::collection::vec(op(), 0..60),
    ) {
        let mut routes = Routes::default();
        let mut model = Model::default();
        for idx in 0..participants {
            prop_assert_eq!(routes.add_participant(), idx);
            model.closed.push(false);
        }
        for op in ops {
            match op {
                Op::Assign { task, fails } | Op::Follow { task, fails } => {
                    let msg = if matches!(op, Op::Assign { .. }) {
                        assign(task)
                    } else {
                        verdict(task)
                    };
                    let (mut sent, mut model_sent) = (None, None);
                    let got = routes.route(&msg, |idx, _| send_to(&mut sent, fails)(idx));
                    let want = model.route(&msg, send_to(&mut model_sent, fails));
                    prop_assert_eq!(sent, model_sent);
                    if let Ok(nacked) = &got {
                        if let Some((&first, orphans)) = nacked.split_first() {
                            prop_assert_eq!(first, task);
                            assert_well_formed(orphans, Some(task));
                        }
                        // A relayed verdict, like a NACK, ends the route:
                        // nobody speaks for the task any more.
                        if matches!(op, Op::Follow { .. }) || !nacked.is_empty() {
                            for idx in 0..participants {
                                prop_assert!(!routes.speaks_for(idx, &verdict(task)));
                            }
                        }
                    }
                    prop_assert_eq!(got, want);
                }
                Op::Gone(idx) => {
                    let idx = idx % participants;
                    let got = routes.mark_gone(idx);
                    assert_well_formed(&got, None);
                    prop_assert_eq!(got, model.mark_gone(idx));
                }
            }
            for idx in 0..participants {
                for task in 0..TASKS {
                    for msg in [verdict(task), Message::Gone { task_id: task }] {
                        prop_assert_eq!(routes.speaks_for(idx, &msg), model.speaks_for(idx, &msg));
                    }
                }
            }
        }
    }
}
