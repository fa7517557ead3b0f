//! The straw-man scheme of Section 1: assign every task twice and compare.
//!
//! Detection is certain whenever at least one replica is honest and the
//! cheating replicas disagree with it — but *half of all grid cycles are
//! wasted on redundancy*, and the supervisor still absorbs two `O(n)`
//! uploads. This is the baseline that motivates everything else.

use crate::scheme::check_task;
use crate::scheme::naive::FlatUploadParticipantSession;
use crate::session::{
    unexpected, Outbound, ParticipantContext, ParticipantSession, SessionOutcome,
    SupervisorContext, SupervisorSession, VerificationScheme,
};
use crate::{SchemeError, Verdict};
use ugc_grid::{Assignment, CostLedger, Message};
use ugc_hash::HashFunction;
use ugc_task::{ComputeTask, Domain, Screener};

/// The double-check scheme as a [`VerificationScheme`]. The only
/// two-slot scheme: one supervisor session spans *two* participant
/// replicas, so its session demonstrates the engine's multi-peer routing.
/// [`run_round`](crate::scheme::run_round) runs one complete round of it
/// in-process, one replica per behaviour: the outcome's
/// `participant_costs` is the **sum over both replicas** — the paper's
/// point is precisely that this doubles the spent cycles — and its
/// `supervisor_link` the sum over both uploads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DoubleCheckScheme;

impl<H: HashFunction> VerificationScheme<H> for DoubleCheckScheme {
    fn name(&self) -> &'static str {
        "double-check"
    }

    fn participant_slots(&self) -> usize {
        2
    }

    fn supervisor_session<'a>(
        &'a self,
        ctx: SupervisorContext<'a>,
    ) -> Box<dyn SupervisorSession + 'a> {
        let mut task_ids = [0u64; 2];
        for (slot, id) in task_ids.iter_mut().zip(&ctx.task_ids) {
            *slot = *id;
        }
        Box::new(DoubleCheckSupervisorSession {
            task_ids,
            task: ctx.task,
            screener: ctx.screener,
            domain: ctx.domain,
            ledger: ctx.ledger,
            uploads: [None, None],
            done: false,
            outcome: None,
        })
    }

    fn participant_session<'a>(
        &'a self,
        ctx: ParticipantContext<'a>,
    ) -> Box<dyn ParticipantSession + 'a> {
        // A replica is wire-identical to a naive-sampling participant:
        // evaluate, flat-upload, await the verdict.
        Box::new(FlatUploadParticipantSession::new(ctx))
    }
}

struct DoubleCheckSupervisorSession<'a> {
    task_ids: [u64; 2],
    task: &'a dyn ComputeTask,
    screener: &'a dyn Screener,
    domain: Domain,
    ledger: CostLedger,
    uploads: [Option<Vec<u8>>; 2],
    done: bool,
    outcome: Option<SessionOutcome>,
}

impl SupervisorSession for DoubleCheckSupervisorSession<'_> {
    fn start(&mut self) -> Result<Vec<Outbound>, SchemeError> {
        Ok((0..2)
            .map(|slot| {
                (
                    slot,
                    Message::Assign(Assignment {
                        task_id: self.task_ids[slot],
                        domain: self.domain,
                    }),
                )
            })
            .collect())
    }

    fn on_message(&mut self, slot: usize, msg: Message) -> Result<Vec<Outbound>, SchemeError> {
        if self.done || slot > 1 {
            return unexpected("nothing (replicas already answered)", &msg);
        }
        let Message::AllResults {
            task_id,
            leaf_width,
            data,
        } = msg
        else {
            return unexpected("AllResults", &msg);
        };
        check_task(self.task_ids[slot], task_id)?;
        let width = self.task.output_width();
        if leaf_width as usize != width || data.len() as u64 != self.domain.len() * width as u64 {
            return Err(SchemeError::MalformedPayload {
                what: "flat results layout".into(),
            });
        }
        if let Some(existing) = &self.uploads[slot] {
            // At-least-once transports redeliver: an identical copy of a
            // replica's upload is idempotently ignored. This session
            // spans two links, so whether the duplicate lands before or
            // after the twin's upload is a cross-link race — tolerating
            // the redelivery is what keeps the verdict deterministic. A
            // *different* re-upload is still a protocol violation.
            return if *existing == data {
                Ok(Vec::new())
            } else {
                Err(SchemeError::MalformedPayload {
                    what: "replica re-upload diverged from its first upload".into(),
                })
            };
        }
        self.uploads[slot] = Some(data);
        let [Some(data_a), Some(data_b)] = &self.uploads else {
            return Ok(Vec::new()); // first replica in; wait for its twin
        };

        // Both uploads in hand: compare byte-for-byte, screen agreement.
        let verdict = match (0..self.domain.len()).find(|&i| {
            let lo = (i as usize) * width;
            data_a[lo..lo + width] != data_b[lo..lo + width]
        }) {
            Some(index) => Verdict::ReplicaDisagreement { index },
            None => Verdict::Accepted,
        };
        let mut reports = Vec::new();
        if verdict.is_accepted() {
            for i in 0..self.domain.len() {
                let x = self.domain.input(i).expect("index within domain");
                let lo = (i as usize) * width;
                if let Some(report) = self.screener.screen(x, &data_a[lo..lo + width]) {
                    reports.push(report);
                }
            }
        }
        let out = (0..2)
            .map(|s| {
                (
                    s,
                    Message::Verdict {
                        task_id: self.task_ids[s],
                        accepted: verdict.is_accepted(),
                    },
                )
            })
            .collect();
        // The comparison itself is linear but cheap; we charge one verify
        // op per compared record for the cost tables.
        self.ledger.charge_verify(self.domain.len());
        self.done = true;
        self.outcome = Some(SessionOutcome { verdict, reports });
        Ok(out)
    }

    fn is_stale(&self, slot: usize, msg: &Message) -> bool {
        // An identical redelivery of a replica's upload (fault-injected
        // duplication) carries no information: report it stale so the
        // drivers drop it uncharged wherever it lands relative to the
        // twin's upload — this session spans two links, so that order is
        // a race.
        if self.done {
            return true;
        }
        let Message::AllResults { task_id, data, .. } = msg else {
            return false;
        };
        slot <= 1 && *task_id == self.task_ids[slot] && self.uploads[slot].as_ref() == Some(data)
    }

    fn on_peer_gone(&mut self, slot: usize) -> Result<(), SchemeError> {
        // A replica that already uploaded has done everything this
        // session needs from it; its death must not fail the comparison
        // (whether the death notice beats the twin's upload across links
        // is a race). A replica that dies *before* uploading makes the
        // comparison impossible.
        if self.done || (slot <= 1 && self.uploads[slot].is_some()) {
            Ok(())
        } else {
            Err(SchemeError::Grid(ugc_grid::GridError::Disconnected))
        }
    }

    fn take_outcome(&mut self) -> Option<SessionOutcome> {
        self.outcome.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::run_round;
    use crate::MixedFleetConfig;
    use ugc_grid::{CheatSelection, HonestWorker, SemiHonestCheater};
    use ugc_hash::Sha256;
    use ugc_task::workloads::PasswordSearch;
    use ugc_task::ZeroGuesser;

    #[test]
    fn two_honest_replicas_agree() {
        let task = PasswordSearch::with_hidden_password(1, 20);
        let screener = task.match_screener();
        let outcome = run_round::<Sha256>(
            &DoubleCheckScheme,
            &task,
            &screener,
            Domain::new(0, 64),
            &[&HonestWorker, &HonestWorker],
            &MixedFleetConfig::default(),
        )
        .unwrap();
        assert!(outcome.accepted);
        assert_eq!(outcome.reports.len(), 1);
        // Both replicas burned the full task: 2n evaluations.
        assert_eq!(outcome.participant_costs.f_evals, 128);
    }

    #[test]
    fn cheating_replica_detected_with_certainty() {
        let task = PasswordSearch::with_hidden_password(1, 20);
        let screener = task.match_screener();
        let cheater =
            SemiHonestCheater::new(0.9, CheatSelection::Scattered, ZeroGuesser::new(2), 3);
        let outcome = run_round::<Sha256>(
            &DoubleCheckScheme,
            &task,
            &screener,
            Domain::new(0, 64),
            &[&HonestWorker, &cheater],
            &MixedFleetConfig::default(),
        )
        .unwrap();
        assert!(!outcome.accepted);
        assert!(matches!(
            outcome.verdict,
            Verdict::ReplicaDisagreement { .. }
        ));
    }

    #[test]
    fn colluding_identical_cheaters_evade() {
        // The known blind spot: identical deterministic cheaters agree.
        let task = PasswordSearch::with_hidden_password(1, 20);
        let screener = task.match_screener();
        let cheater_a = SemiHonestCheater::new(0.5, CheatSelection::Prefix, ZeroGuesser::new(7), 1);
        let cheater_b = SemiHonestCheater::new(0.5, CheatSelection::Prefix, ZeroGuesser::new(7), 1);
        let outcome = run_round::<Sha256>(
            &DoubleCheckScheme,
            &task,
            &screener,
            Domain::new(0, 64),
            &[&cheater_a, &cheater_b],
            &MixedFleetConfig::default(),
        )
        .unwrap();
        assert!(
            outcome.accepted,
            "colluding replicas slip through double-check"
        );
    }

    #[test]
    fn traffic_is_double_the_naive_upload() {
        let task = PasswordSearch::with_hidden_password(1, 2);
        let screener = task.match_screener();
        let outcome = run_round::<Sha256>(
            &DoubleCheckScheme,
            &task,
            &screener,
            Domain::new(0, 256),
            &[&HonestWorker, &HonestWorker],
            &MixedFleetConfig::default(),
        )
        .unwrap();
        // Two uploads of n × 16 bytes dominate the inbound traffic.
        assert!(outcome.supervisor_link.bytes_received as f64 > 2.0 * 256.0 * 16.0);
    }

    #[test]
    fn disagreement_reports_first_divergent_index() {
        let task = PasswordSearch::with_hidden_password(1, 2);
        let screener = task.match_screener();
        // Cheater honest on prefix 32 of 64: first divergence at 32.
        let cheater = SemiHonestCheater::new(0.5, CheatSelection::Prefix, ZeroGuesser::new(5), 9);
        let outcome = run_round::<Sha256>(
            &DoubleCheckScheme,
            &task,
            &screener,
            Domain::new(0, 64),
            &[&HonestWorker, &cheater],
            &MixedFleetConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.verdict, Verdict::ReplicaDisagreement { index: 32 });
    }
}
