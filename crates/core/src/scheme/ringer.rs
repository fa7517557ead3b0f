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

use crate::scheme::frame::{
    Opened, ParticipantFrame, ParticipantMiddle, Reply, Step, SupervisorFrame, SupervisorMiddle,
};
use crate::scheme::{check_task, materialize, Materialized};
use crate::session::{
    unexpected, ParticipantContext, ParticipantSession, SessionOutcome, SupervisorContext,
    SupervisorSession, VerificationScheme,
};
use crate::{SchemeError, Verdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use ugc_grid::{Assignment, Message};
use ugc_hash::HashFunction;
use ugc_task::Domain;

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
        SupervisorFrame::boxed(*self, ctx)
    }

    fn participant_session<'a>(
        &'a self,
        ctx: ParticipantContext<'a>,
    ) -> Box<dyn ParticipantSession + 'a> {
        ParticipantFrame::boxed(*self, ctx)
    }
}

/// What the supervisor awaits next, and what it keeps meanwhile.
pub(crate) enum Awaiting {
    Found { secret_inputs: BTreeSet<u64> },
    Reports { verdict: Verdict },
}

/// The middle of a ringer session: the ringer hunt.
impl SupervisorMiddle for RingerScheme {
    type State = Awaiting;

    fn open(&self, ctx: &SupervisorContext<'_>) -> Opened<Self::State> {
        if self.ringers == 0 {
            return Err(SchemeError::InvalidConfig {
                reason: "need at least one ringer".into(),
            });
        }
        if self.ringers as u64 > ctx.domain.len() {
            return Err(SchemeError::InvalidConfig {
                reason: "more ringers than domain inputs".into(),
            });
        }
        // Plant d distinct secret inputs and pre-compute their results.
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7269_6e67);
        let mut secret_inputs = BTreeSet::new();
        while secret_inputs.len() < self.ringers {
            let i = rng.random_range(0..ctx.domain.len());
            secret_inputs.insert(ctx.domain.input(i).expect("sample within domain"));
        }
        // Batch the precomputation through the task's lane kernels (a
        // hash-bound task hashes all ringers together); the charge is one
        // unit cost per input, identical to scalar evaluation.
        let inputs: Vec<u64> = secret_inputs.iter().copied().collect();
        ctx.ledger
            .charge_f(ctx.task.unit_cost() * inputs.len() as u64);
        let mut ringers: Vec<Vec<u8>> = ctx.task.compute_batch(&inputs);
        // Sort the values so their order leaks nothing about input order.
        ringers.sort();
        let challenge = Message::RingerChallenge {
            task_id: ctx.task_ids[0],
            ringers,
        };
        Ok((Awaiting::Found { secret_inputs }, Some(challenge)))
    }

    fn on_message(
        &self,
        ctx: &SupervisorContext<'_>,
        state: Self::State,
        _slot: usize,
        msg: Message,
    ) -> Result<Step<Self::State>, SchemeError> {
        let expected = ctx.task_ids[0];
        match state {
            Awaiting::Found { secret_inputs } => {
                let Message::RingerFound { task_id, inputs } = msg else {
                    return unexpected("RingerFound", &msg);
                };
                check_task(expected, task_id)?;
                let found_set: BTreeSet<u64> = inputs.into_iter().collect();
                ctx.ledger.charge_verify(self.ringers as u64);
                // Extra claims are tolerated only if they are true
                // preimages of a planted value, which by construction they
                // are not (values are unique per input for our tasks);
                // reject any overclaim.
                let verdict = if found_set == secret_inputs {
                    Verdict::Accepted
                } else {
                    Verdict::RingerMissed
                };
                Ok(Step::Next(Awaiting::Reports { verdict }, Vec::new()))
            }
            Awaiting::Reports { verdict } => {
                let Message::Reports { task_id, reports } = msg else {
                    return unexpected("Reports", &msg);
                };
                check_task(expected, task_id)?;
                Ok(Step::Decided(SessionOutcome { verdict, reports }))
            }
        }
    }
}

/// The ringer participant hunts, once the challenge follows the
/// assignment, over the share it keeps meanwhile.
impl ParticipantMiddle for RingerScheme {
    type State = Domain;

    fn on_assign(&self, _ctx: &ParticipantContext<'_>, assignment: Assignment) -> Reply<Domain> {
        Ok((Vec::new(), Some(assignment.domain)))
    }

    fn on_message(
        &self,
        ctx: &ParticipantContext<'_>,
        task_id: u64,
        domain: Domain,
        msg: Message,
    ) -> Reply<Domain> {
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
        } = materialize(ctx, domain)?;
        let inputs = (0..)
            .zip(row.chunks_exact(width))
            .filter(|(_, leaf)| ringer_set.contains(leaf))
            .map(|(i, _)| domain.input(i).expect("index within domain"))
            .collect();
        let out = vec![
            Message::RingerFound { task_id, inputs },
            Message::Reports { task_id, reports },
        ];
        Ok((out, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::run_round;
    use crate::session::drive_supervisor;
    use crate::MixedFleetConfig;
    use ugc_grid::{duplex, CheatSelection, CostLedger, GridLink, HonestWorker, SemiHonestCheater};
    use ugc_hash::Sha256;
    use ugc_task::workloads::PasswordSearch;
    use ugc_task::{ComputeTask, ZeroGuesser};

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
