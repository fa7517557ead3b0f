//! The naive sampling scheme (Section 1): upload everything, spot-check.
//!
//! The participant returns **all** `n` results (`O(n)` communication —
//! the cost CBS eliminates); the supervisor re-computes `m` random samples
//! and compares. Detection probability is identical to CBS
//! (`1 − (r + (1−r)q)^m`); only the costs differ, which is exactly what
//! the communication experiments measure.

use crate::sampling::draw_samples;
use crate::scheme::frame::{
    Opened, ParticipantFrame, ParticipantMiddle, Reply, Step, SupervisorFrame, SupervisorMiddle,
};
use crate::scheme::{check_samples, check_task, materialize, Materialized};
use crate::session::{
    unexpected, ParticipantContext, ParticipantSession, SessionOutcome, SupervisorContext,
    SupervisorSession, VerificationScheme,
};
use crate::{SchemeError, Verdict};
use core::convert::Infallible;
use ugc_grid::{Assignment, Message};
use ugc_hash::HashFunction;
use ugc_task::ScreenReport;

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
        SupervisorFrame::boxed(*self, ctx)
    }

    fn participant_session<'a>(
        &'a self,
        ctx: ParticipantContext<'a>,
    ) -> Box<dyn ParticipantSession + 'a> {
        ParticipantFrame::boxed(FlatUpload, ctx)
    }
}

/// The middle of a naive-sampling supervisor: the flat upload and its
/// spot-check.
impl SupervisorMiddle for NaiveScheme {
    type State = ();

    fn open(&self, _ctx: &SupervisorContext<'_>) -> Opened<()> {
        check_samples(self.samples)?;
        Ok(((), None))
    }

    fn on_message(
        &self,
        ctx: &SupervisorContext<'_>,
        (): (),
        _slot: usize,
        msg: Message,
    ) -> Result<Step<()>, SchemeError> {
        let Message::AllResults {
            task_id,
            leaf_width,
            data,
        } = msg
        else {
            return unexpected("AllResults", &msg);
        };
        check_task(ctx.task_ids[0], task_id)?;
        let width = flat_layout(ctx, leaf_width, &data)?;
        // Spot-check m samples by recomputation.
        let wrong = draw_samples(self.seed, self.samples, ctx.domain.len())
            .into_iter()
            .find(|&i| {
                let x = ctx.domain.input(i).expect("sample within domain");
                ctx.ledger.charge_verify(1);
                if !ctx.task.cheap_verification() {
                    ctx.ledger.charge_f(ctx.task.unit_cost());
                }
                let lo = (i as usize) * width;
                !ctx.task.verify(x, &data[lo..lo + width])
            });
        let outcome = match wrong {
            Some(sample) => SessionOutcome {
                verdict: Verdict::WrongResult { sample },
                reports: Vec::new(),
            },
            // With every result in hand, the supervisor screens locally.
            None => SessionOutcome {
                verdict: Verdict::Accepted,
                reports: screen_flat(ctx, width, &data),
            },
        };
        Ok(Step::Decided(outcome))
    }
}

/// Checks a flat upload's layout — the task's leaf width, one result per
/// input — and returns the width.
pub(crate) fn flat_layout(
    ctx: &SupervisorContext<'_>,
    leaf_width: u32,
    data: &[u8],
) -> Result<usize, SchemeError> {
    let width = ctx.task.output_width();
    if leaf_width as usize != width || data.len() as u64 != ctx.domain.len() * width as u64 {
        return Err(SchemeError::MalformedPayload {
            what: "flat results layout".into(),
        });
    }
    Ok(width)
}

/// Screens every result of a flat upload, as a supervisor holding them
/// all does.
pub(crate) fn screen_flat(
    ctx: &SupervisorContext<'_>,
    width: usize,
    data: &[u8],
) -> Vec<ScreenReport> {
    (0..ctx.domain.len())
        .filter_map(|i| {
            let x = ctx.domain.input(i).expect("index within domain");
            let lo = (i as usize) * width;
            ctx.screener.screen(x, &data[lo..lo + width])
        })
        .collect()
}

/// The participant middle of every flat-upload scheme (naive sampling
/// and the double-check replicas): evaluate the behaviour over the
/// domain and upload all `n` results.
pub(crate) struct FlatUpload;

impl ParticipantMiddle for FlatUpload {
    type State = Infallible;

    fn on_assign(&self, ctx: &ParticipantContext<'_>, assignment: Assignment) -> Reply<Infallible> {
        // The participant still screens locally (the supervisor will
        // anyway), but the defining trait is the flat upload.
        let Materialized { row, width, .. } = materialize(ctx, assignment.domain)?;
        let upload = Message::AllResults {
            task_id: assignment.task_id,
            leaf_width: width as u32,
            data: row,
        };
        Ok((vec![upload], None))
    }

    fn on_message(
        &self,
        _ctx: &ParticipantContext<'_>,
        _task_id: u64,
        state: Infallible,
        _msg: Message,
    ) -> Reply<Infallible> {
        match state {}
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
    use ugc_task::{ComputeTask, Domain, ZeroGuesser};

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
