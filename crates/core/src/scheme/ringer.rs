//! The ringer scheme of Golle and Mironov (the paper's Section 1.1
//! baseline).
//!
//! The supervisor pre-computes `f` on `d` secret inputs and sends the
//! *results* to the participant, who must report which inputs produce
//! them. Because `f` is one-way, the participant cannot find the ringers
//! without actually evaluating `f` across its domain; a cheater with
//! honesty ratio `r` misses each ringer independently with probability
//! `1 − r`, so detection is `1 − r^d`.
//!
//! Limitations the paper highlights (and this module demonstrates in
//! tests): it only works for one-way `f`, and the supervisor pays `d`
//! full evaluations per participant up front.

use crate::scheme::{check_task, materialize, Materialized};
use crate::session::{
    unexpected, Outbound, ParticipantContext, ParticipantSession, SessionOutcome,
    SupervisorContext, SupervisorSession, VerificationScheme,
};
use crate::{SchemeError, Verdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use ugc_grid::{Assignment, CostLedger, Message, WorkerBehaviour};
use ugc_hash::HashFunction;
use ugc_task::{ComputeTask, Domain, ScreenReport, Screener};

/// The ringer scheme as a [`VerificationScheme`].
///
/// [`run_round`](crate::scheme::run_round) runs one complete round of it
/// in-process (hash-free: any digest fills its trait parameter); the
/// supervisor session refuses to start with zero ringers or more ringers
/// than domain inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingerScheme {
    /// Number of ringers `d` planted in the domain.
    pub ringers: usize,
    /// Seed for secret ringer placement.
    pub seed: u64,
}

impl<H: HashFunction> VerificationScheme<H> for RingerScheme {
    fn name(&self) -> &'static str {
        "ringer"
    }

    fn supervisor_session<'a>(
        &'a self,
        ctx: SupervisorContext<'a>,
    ) -> Box<dyn SupervisorSession + 'a> {
        Box::new(RingerSupervisorSession {
            scheme: *self,
            task_id: ctx.task_ids.first().copied().unwrap_or_default(),
            task: ctx.task,
            domain: ctx.domain,
            ledger: ctx.ledger,
            state: SupState::NotStarted,
            outcome: None,
        })
    }

    fn participant_session<'a>(
        &'a self,
        ctx: ParticipantContext<'a>,
    ) -> Box<dyn ParticipantSession + 'a> {
        Box::new(RingerParticipantSession {
            task: ctx.task,
            screener: ctx.screener,
            behaviour: ctx.behaviour,
            ledger: ctx.ledger,
            state: PartState::AwaitAssign,
        })
    }
}

enum SupState {
    NotStarted,
    AwaitFound { secret_inputs: BTreeSet<u64> },
    AwaitReports { verdict: Verdict },
    Done,
}

struct RingerSupervisorSession<'a> {
    scheme: RingerScheme,
    task_id: u64,
    task: &'a dyn ComputeTask,
    domain: Domain,
    ledger: CostLedger,
    state: SupState,
    outcome: Option<SessionOutcome>,
}

impl SupervisorSession for RingerSupervisorSession<'_> {
    fn start(&mut self) -> Result<Vec<Outbound>, SchemeError> {
        if self.scheme.ringers == 0 {
            return Err(SchemeError::InvalidConfig {
                reason: "need at least one ringer".into(),
            });
        }
        if self.scheme.ringers as u64 > self.domain.len() {
            return Err(SchemeError::InvalidConfig {
                reason: "more ringers than domain inputs".into(),
            });
        }
        // Plant d distinct secret inputs and pre-compute their results.
        let mut rng = StdRng::seed_from_u64(self.scheme.seed ^ 0x7269_6e67);
        let mut secret_inputs = BTreeSet::new();
        while secret_inputs.len() < self.scheme.ringers {
            let i = rng.random_range(0..self.domain.len());
            secret_inputs.insert(self.domain.input(i).expect("sample within domain"));
        }
        // Batch the precomputation through the task's lane kernels (a
        // hash-bound task hashes all ringers together); the charge is one
        // unit cost per input, identical to scalar evaluation.
        let inputs: Vec<u64> = secret_inputs.iter().copied().collect();
        self.ledger
            .charge_f(self.task.unit_cost() * inputs.len() as u64);
        let mut ringer_values: Vec<Vec<u8>> = self.task.compute_batch(&inputs);
        // Sort the values so their order leaks nothing about input order.
        ringer_values.sort();
        self.state = SupState::AwaitFound { secret_inputs };
        Ok(vec![
            (
                0,
                Message::Assign(Assignment {
                    task_id: self.task_id,
                    domain: self.domain,
                }),
            ),
            (
                0,
                Message::RingerChallenge {
                    task_id: self.task_id,
                    ringers: ringer_values,
                },
            ),
        ])
    }

    fn on_message(&mut self, _slot: usize, msg: Message) -> Result<Vec<Outbound>, SchemeError> {
        match std::mem::replace(&mut self.state, SupState::Done) {
            SupState::AwaitFound { secret_inputs } => {
                let Message::RingerFound { task_id, inputs } = msg else {
                    return unexpected("RingerFound", &msg);
                };
                check_task(self.task_id, task_id)?;
                let found_set: BTreeSet<u64> = inputs.into_iter().collect();
                self.ledger.charge_verify(self.scheme.ringers as u64);
                let verdict = if found_set.is_superset(&secret_inputs) {
                    // Extra claims are tolerated only if they are true
                    // preimages of a planted value, which by construction
                    // they are not (values are unique per input for our
                    // tasks); reject any overclaim.
                    if found_set.len() == secret_inputs.len() {
                        Verdict::Accepted
                    } else {
                        Verdict::RingerMissed
                    }
                } else {
                    Verdict::RingerMissed
                };
                self.state = SupState::AwaitReports { verdict };
                Ok(Vec::new())
            }
            SupState::AwaitReports { verdict } => {
                let Message::Reports { task_id, reports } = msg else {
                    return unexpected("Reports", &msg);
                };
                check_task(self.task_id, task_id)?;
                let verdict_msg = Message::Verdict {
                    task_id: self.task_id,
                    accepted: verdict.is_accepted(),
                };
                self.outcome = Some(SessionOutcome {
                    verdict,
                    reports: reports
                        .into_iter()
                        .map(|(input, payload)| ScreenReport { input, payload })
                        .collect(),
                });
                Ok(vec![(0, verdict_msg)])
            }
            SupState::NotStarted | SupState::Done => unexpected("nothing (session finished)", &msg),
        }
    }

    fn take_outcome(&mut self) -> Option<SessionOutcome> {
        self.outcome.take()
    }
}

enum PartState {
    AwaitAssign,
    AwaitChallenge { task_id: u64, domain: Domain },
    AwaitVerdict { task_id: u64 },
    Done(bool),
}

struct RingerParticipantSession<'a> {
    task: &'a dyn ComputeTask,
    screener: &'a dyn Screener,
    behaviour: &'a dyn WorkerBehaviour,
    ledger: CostLedger,
    state: PartState,
}

impl ParticipantSession for RingerParticipantSession<'_> {
    fn on_message(&mut self, msg: Message) -> Result<Vec<Message>, SchemeError> {
        match std::mem::replace(&mut self.state, PartState::AwaitAssign) {
            PartState::AwaitAssign => {
                let Message::Assign(assignment) = msg else {
                    return unexpected("Assign", &msg);
                };
                self.state = PartState::AwaitChallenge {
                    task_id: assignment.task_id,
                    domain: assignment.domain,
                };
                Ok(Vec::new())
            }
            PartState::AwaitChallenge { task_id, domain } => {
                let Message::RingerChallenge {
                    task_id: tid,
                    ringers,
                } = msg
                else {
                    return unexpected("RingerChallenge", &msg);
                };
                check_task(task_id, tid)?;
                let ringer_set: BTreeSet<&[u8]> = ringers.iter().map(Vec::as_slice).collect();
                let Materialized {
                    row,
                    width,
                    reports,
                } = materialize(
                    self.task,
                    self.screener,
                    domain,
                    self.behaviour,
                    &self.ledger,
                )?;
                let mut found = Vec::new();
                for (i, leaf) in (0..).zip(row.chunks_exact(width)) {
                    if ringer_set.contains(leaf) {
                        found.push(domain.input(i).expect("index within domain"));
                    }
                }
                self.state = PartState::AwaitVerdict { task_id };
                Ok(vec![
                    Message::RingerFound {
                        task_id,
                        inputs: found,
                    },
                    Message::Reports {
                        task_id,
                        reports: reports.into_iter().map(|r| (r.input, r.payload)).collect(),
                    },
                ])
            }
            PartState::AwaitVerdict { task_id } => {
                let Message::Verdict {
                    task_id: tid,
                    accepted,
                } = msg
                else {
                    return unexpected("Verdict", &msg);
                };
                check_task(task_id, tid)?;
                self.state = PartState::Done(accepted);
                Ok(Vec::new())
            }
            done @ PartState::Done(_) => {
                self.state = done;
                unexpected("nothing (session finished)", &msg)
            }
        }
    }

    fn finished(&self) -> Option<bool> {
        match self.state {
            PartState::Done(accepted) => Some(accepted),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::run_round;
    use crate::session::drive_supervisor;
    use crate::MixedFleetConfig;
    use ugc_grid::{duplex, CheatSelection, GridLink, HonestWorker, SemiHonestCheater};
    use ugc_hash::Sha256;
    use ugc_task::workloads::PasswordSearch;
    use ugc_task::ZeroGuesser;

    fn config(d: usize, seed: u64) -> RingerScheme {
        RingerScheme { ringers: d, seed }
    }

    #[test]
    fn honest_participant_finds_all_ringers() {
        let task = PasswordSearch::with_hidden_password(1, 10);
        let screener = task.match_screener();
        for seed in 0..5 {
            let outcome = run_round::<Sha256>(
                &config(6, seed),
                &task,
                &screener,
                Domain::new(0, 128),
                &[&HonestWorker],
                &MixedFleetConfig::default(),
            )
            .unwrap();
            assert!(outcome.accepted, "seed {seed}");
        }
    }

    #[test]
    fn lazy_cheater_misses_ringers() {
        let task = PasswordSearch::with_hidden_password(1, 10);
        let screener = task.match_screener();
        let cheater =
            SemiHonestCheater::new(0.3, CheatSelection::Scattered, ZeroGuesser::new(4), 6);
        // With r = 0.3 and d = 8 the evasion probability is 0.3^8 ≈ 6.6e-5.
        let outcome = run_round::<Sha256>(
            &config(8, 3),
            &task,
            &screener,
            Domain::new(0, 256),
            &[&cheater],
            &MixedFleetConfig::default(),
        )
        .unwrap();
        assert!(!outcome.accepted);
        assert_eq!(outcome.verdict, Verdict::RingerMissed);
    }

    #[test]
    fn supervisor_pays_d_evaluations_upfront() {
        let task = PasswordSearch::with_hidden_password(1, 10);
        let screener = task.match_screener();
        let outcome = run_round::<Sha256>(
            &config(7, 1),
            &task,
            &screener,
            Domain::new(0, 128),
            &[&HonestWorker],
            &MixedFleetConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.supervisor_costs.f_evals, 7 * task.unit_cost());
    }

    #[test]
    fn traffic_is_constant_in_n() {
        let task = PasswordSearch::with_hidden_password(1, 10);
        let screener = task.match_screener();
        let small = run_round::<Sha256>(
            &config(4, 1),
            &task,
            &screener,
            Domain::new(0, 64),
            &[&HonestWorker],
            &MixedFleetConfig::default(),
        )
        .unwrap();
        let large = run_round::<Sha256>(
            &config(4, 1),
            &task,
            &screener,
            Domain::new(0, 4096),
            &[&HonestWorker],
            &MixedFleetConfig::default(),
        )
        .unwrap();
        // Only screened reports vary; the protocol itself is O(d).
        let diff = large.supervisor_link.bytes_received as i64
            - small.supervisor_link.bytes_received as i64;
        assert!(
            diff.unsigned_abs() < 256,
            "ringer traffic varied by {diff} bytes across a 64× domain"
        );
    }

    #[test]
    fn too_many_ringers_rejected() {
        let task = PasswordSearch::with_hidden_password(1, 2);
        let screener = task.match_screener();
        let err = run_round::<Sha256>(
            &config(5, 1),
            &task,
            &screener,
            Domain::new(0, 4),
            &[&HonestWorker],
            &MixedFleetConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
    }

    #[test]
    fn overclaiming_participant_rejected() {
        // A participant that spams extra "found" inputs must not pass.
        let task = PasswordSearch::with_hidden_password(1, 2);
        let domain = Domain::new(0, 32);
        let (sup_ep, part_ep) = duplex();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _ = part_ep.recv(); // Assign
                let _ = part_ep.recv(); // RingerChallenge
                part_ep
                    .send(&Message::RingerFound {
                        task_id: 5,
                        inputs: (0..32).collect(), // claim everything
                    })
                    .unwrap();
                part_ep
                    .send(&Message::Reports {
                        task_id: 5,
                        reports: vec![],
                    })
                    .unwrap();
                let _ = part_ep.recv();
            });
            let screener = task.match_screener();
            let scheme = RingerScheme {
                ringers: 3,
                seed: 2,
            };
            let mut session = VerificationScheme::<ugc_hash::Sha256>::supervisor_session(
                &scheme,
                SupervisorContext {
                    task: &task,
                    screener: &screener,
                    domain,
                    task_ids: vec![5],
                    ledger: CostLedger::new(),
                },
            );
            let outcome = drive_supervisor(&[&sup_ep], session.as_mut()).unwrap();
            assert_eq!(outcome.verdict, Verdict::RingerMissed);
        });
    }
}
