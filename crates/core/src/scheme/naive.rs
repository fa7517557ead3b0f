//! The naive sampling scheme (Section 1): upload everything, spot-check.
//!
//! The participant returns **all** `n` results (`O(n)` communication —
//! the cost CBS eliminates); the supervisor re-computes `m` random samples
//! and compares. Detection probability is identical to CBS
//! (`1 − (r + (1−r)q)^m`); only the costs differ, which is exactly what
//! the communication experiments measure.

use crate::sampling::draw_samples;
use crate::scheme::{check_task, materialize, Materialized};
use crate::session::{
    unexpected, Outbound, ParticipantContext, ParticipantSession, SessionOutcome,
    SupervisorContext, SupervisorSession, VerificationScheme,
};
use crate::{SchemeError, Verdict};
use ugc_grid::{Assignment, CostLedger, Message, WorkerBehaviour};
use ugc_hash::HashFunction;
use ugc_task::{ComputeTask, Domain, ScreenReport, Screener};

/// The naive sampling scheme as a [`VerificationScheme`]: flat `O(n)`
/// upload, spot-check `m` samples by recomputation.
///
/// [`run_round`](crate::scheme::run_round) runs one complete round of it
/// in-process; it is hash-free, so any digest fills its trait parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NaiveScheme {
    /// Number of spot-checked samples `m`.
    pub samples: usize,
    /// Supervisor sampling seed.
    pub seed: u64,
}

impl<H: HashFunction> VerificationScheme<H> for NaiveScheme {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn supervisor_session<'a>(
        &'a self,
        ctx: SupervisorContext<'a>,
    ) -> Box<dyn SupervisorSession + 'a> {
        Box::new(NaiveSupervisorSession {
            scheme: *self,
            task_id: ctx.task_ids.first().copied().unwrap_or_default(),
            task: ctx.task,
            screener: ctx.screener,
            domain: ctx.domain,
            ledger: ctx.ledger,
            done: false,
            outcome: None,
        })
    }

    fn participant_session<'a>(
        &'a self,
        ctx: ParticipantContext<'a>,
    ) -> Box<dyn ParticipantSession + 'a> {
        Box::new(FlatUploadParticipantSession::new(ctx))
    }
}

struct NaiveSupervisorSession<'a> {
    scheme: NaiveScheme,
    task_id: u64,
    task: &'a dyn ComputeTask,
    screener: &'a dyn Screener,
    domain: Domain,
    ledger: CostLedger,
    done: bool,
    outcome: Option<SessionOutcome>,
}

impl SupervisorSession for NaiveSupervisorSession<'_> {
    fn start(&mut self) -> Result<Vec<Outbound>, SchemeError> {
        if self.scheme.samples == 0 {
            return Err(SchemeError::InvalidConfig {
                reason: "samples must be positive".into(),
            });
        }
        Ok(vec![(
            0,
            Message::Assign(Assignment {
                task_id: self.task_id,
                domain: self.domain,
            }),
        )])
    }

    fn on_message(&mut self, _slot: usize, msg: Message) -> Result<Vec<Outbound>, SchemeError> {
        if self.done {
            return unexpected("nothing (session finished)", &msg);
        }
        let Message::AllResults {
            task_id,
            leaf_width,
            data,
        } = msg
        else {
            return unexpected("AllResults", &msg);
        };
        check_task(self.task_id, task_id)?;
        let width = leaf_width as usize;
        let (verdict, reports) = check_flat_upload(
            self.task,
            self.screener,
            self.domain,
            width,
            &data,
            self.scheme.samples,
            self.scheme.seed,
            &self.ledger,
        )?;
        self.done = true;
        let verdict_msg = Message::Verdict {
            task_id: self.task_id,
            accepted: verdict.is_accepted(),
        };
        self.outcome = Some(SessionOutcome { verdict, reports });
        Ok(vec![(0, verdict_msg)])
    }

    fn take_outcome(&mut self) -> Option<SessionOutcome> {
        self.outcome.take()
    }
}

/// The supervisor's naive-sampling check as a building block: validate the
/// flat layout, spot-check `m` samples by recomputation, screen the
/// verified results locally.
#[expect(
    clippy::too_many_arguments,
    reason = "private building block of the naive check"
)]
fn check_flat_upload(
    task: &dyn ComputeTask,
    screener: &dyn Screener,
    domain: Domain,
    width: usize,
    data: &[u8],
    samples: usize,
    seed: u64,
    ledger: &CostLedger,
) -> Result<(Verdict, Vec<ScreenReport>), SchemeError> {
    if width != task.output_width() || data.len() as u64 != domain.len() * width as u64 {
        return Err(SchemeError::MalformedPayload {
            what: "flat results layout".into(),
        });
    }
    let leaf = |i: u64| &data[(i as usize) * width..(i as usize + 1) * width];

    // Spot-check m samples by recomputation.
    let drawn = draw_samples(seed, samples, domain.len());
    let mut verdict = Verdict::Accepted;
    for &i in &drawn {
        let x = domain.input(i).expect("sample within domain");
        ledger.charge_verify(1);
        if !task.cheap_verification() {
            ledger.charge_f(task.unit_cost());
        }
        if !task.verify(x, leaf(i)) {
            verdict = Verdict::WrongResult { sample: i };
            break;
        }
    }
    // With every result in hand, the supervisor screens locally.
    let mut reports = Vec::new();
    if verdict.is_accepted() {
        for i in 0..domain.len() {
            let x = domain.input(i).expect("index within domain");
            if let Some(report) = screener.screen(x, leaf(i)) {
                reports.push(report);
            }
        }
    }
    Ok((verdict, reports))
}

enum FlatState {
    AwaitAssign,
    AwaitVerdict { task_id: u64 },
    Done(bool),
}

/// The participant session shared by every flat-upload scheme (naive
/// sampling and the double-check replicas): evaluate the behaviour over
/// the domain, upload all `n` results, await the verdict.
pub(crate) struct FlatUploadParticipantSession<'a> {
    task: &'a dyn ComputeTask,
    screener: &'a dyn Screener,
    behaviour: &'a dyn WorkerBehaviour,
    ledger: CostLedger,
    state: FlatState,
}

impl<'a> FlatUploadParticipantSession<'a> {
    pub(crate) fn new(ctx: ParticipantContext<'a>) -> Self {
        FlatUploadParticipantSession {
            task: ctx.task,
            screener: ctx.screener,
            behaviour: ctx.behaviour,
            ledger: ctx.ledger,
            state: FlatState::AwaitAssign,
        }
    }
}

impl ParticipantSession for FlatUploadParticipantSession<'_> {
    fn on_message(&mut self, msg: Message) -> Result<Vec<Message>, SchemeError> {
        match std::mem::replace(&mut self.state, FlatState::AwaitAssign) {
            FlatState::AwaitAssign => {
                let Message::Assign(assignment) = msg else {
                    return unexpected("Assign", &msg);
                };
                let domain = assignment.domain;
                let task_id = assignment.task_id;
                // The participant still screens locally (the supervisor
                // will anyway), but the defining trait is the flat upload.
                let Materialized { row, width, .. } = materialize(
                    self.task,
                    self.screener,
                    domain,
                    self.behaviour,
                    &self.ledger,
                )?;
                self.state = FlatState::AwaitVerdict { task_id };
                Ok(vec![Message::AllResults {
                    task_id,
                    leaf_width: width as u32,
                    data: row,
                }])
            }
            FlatState::AwaitVerdict { task_id } => {
                let Message::Verdict {
                    task_id: tid,
                    accepted,
                } = msg
                else {
                    return unexpected("Verdict", &msg);
                };
                check_task(task_id, tid)?;
                self.state = FlatState::Done(accepted);
                Ok(Vec::new())
            }
            done @ FlatState::Done(_) => {
                self.state = done;
                unexpected("nothing (session finished)", &msg)
            }
        }
    }

    fn finished(&self) -> Option<bool> {
        match self.state {
            FlatState::Done(accepted) => Some(accepted),
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

    fn config(m: usize, seed: u64) -> NaiveScheme {
        NaiveScheme { samples: m, seed }
    }

    #[test]
    fn honest_accepted_with_reports() {
        let task = PasswordSearch::with_hidden_password(3, 40);
        let screener = task.match_screener();
        let outcome = run_round::<Sha256>(
            &config(8, 1),
            &task,
            &screener,
            Domain::new(0, 64),
            &[&HonestWorker],
            &MixedFleetConfig::default(),
        )
        .unwrap();
        assert!(outcome.accepted);
        assert_eq!(outcome.reports.len(), 1);
        assert_eq!(outcome.reports[0].input, 40);
    }

    #[test]
    fn cheater_caught_like_cbs() {
        let task = PasswordSearch::with_hidden_password(3, 40);
        let screener = task.match_screener();
        let cheater =
            SemiHonestCheater::new(0.2, CheatSelection::Scattered, ZeroGuesser::new(7), 5);
        let outcome = run_round::<Sha256>(
            &config(16, 3),
            &task,
            &screener,
            Domain::new(0, 128),
            &[&cheater],
            &MixedFleetConfig::default(),
        )
        .unwrap();
        assert!(!outcome.accepted);
        assert!(matches!(outcome.verdict, Verdict::WrongResult { .. }));
    }

    #[test]
    fn upload_is_linear_in_n() {
        let task = PasswordSearch::with_hidden_password(3, 1);
        let screener = task.match_screener();
        let mut bytes = Vec::new();
        for bits in [6u32, 8] {
            let outcome = run_round::<Sha256>(
                &config(4, 1),
                &task,
                &screener,
                Domain::new(0, 1 << bits),
                &[&HonestWorker],
                &MixedFleetConfig::default(),
            )
            .unwrap();
            bytes.push(outcome.supervisor_link.bytes_received);
        }
        // 4× the domain → ≈4× the upload (the flat data dominates).
        let growth = bytes[1] as f64 / bytes[0] as f64;
        assert!(
            (3.0..5.0).contains(&growth),
            "naive upload growth {growth:.2}× for 4× domain"
        );
    }

    #[test]
    fn layout_mismatch_is_protocol_error() {
        let task = PasswordSearch::with_hidden_password(3, 1);
        let domain = Domain::new(0, 16);
        let (sup_ep, part_ep) = duplex();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _ = part_ep.recv();
                part_ep
                    .send(&Message::AllResults {
                        task_id: 2,
                        leaf_width: 16,
                        data: vec![0; 5], // wrong length
                    })
                    .unwrap();
            });
            let screener = task.match_screener();
            let scheme = NaiveScheme {
                samples: 4,
                seed: 1,
            };
            let mut session = VerificationScheme::<ugc_hash::Sha256>::supervisor_session(
                &scheme,
                SupervisorContext {
                    task: &task,
                    screener: &screener,
                    domain,
                    task_ids: vec![2],
                    ledger: CostLedger::new(),
                },
            );
            let err = drive_supervisor(&[&sup_ep], session.as_mut()).unwrap_err();
            assert_eq!(
                err,
                SchemeError::MalformedPayload {
                    what: "flat results layout".into()
                }
            );
        });
    }

    #[test]
    fn supervisor_work_is_m_not_n() {
        let task = PasswordSearch::with_hidden_password(3, 1);
        let screener = task.match_screener();
        let outcome = run_round::<Sha256>(
            &config(8, 2),
            &task,
            &screener,
            Domain::new(0, 1 << 10),
            &[&HonestWorker],
            &MixedFleetConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.supervisor_costs.f_evals, 8 * task.unit_cost());
        assert_eq!(outcome.supervisor_costs.verify_ops, 8);
    }
}
