//! The straw-man scheme of Section 1: assign every task twice and compare.
//!
//! Detection is certain whenever at least one replica is honest and the
//! cheating replicas disagree with it — but *half of all grid cycles are
//! wasted on redundancy*, and the supervisor still absorbs two `O(n)`
//! uploads. This is the baseline that motivates everything else.

use crate::scheme::check_task;
use crate::scheme::frame::{Opened, ParticipantFrame, Step, SupervisorFrame, SupervisorMiddle};
use crate::scheme::naive::{flat_layout, screen_flat, FlatUpload};
use crate::session::{
    unexpected, ParticipantContext, ParticipantSession, SessionOutcome, SupervisorContext,
    SupervisorSession, VerificationScheme,
};
use crate::{SchemeError, Verdict};
use ugc_grid::Message;
use ugc_hash::HashFunction;

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
        Self::SLOTS
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
        // A replica is wire-identical to a naive-sampling participant:
        // evaluate, flat-upload, await the verdict.
        ParticipantFrame::boxed(FlatUpload, ctx)
    }
}

/// The middle of a double-check supervisor: the two flat uploads and
/// their comparison. Its state is each replica's upload, once in.
impl SupervisorMiddle for DoubleCheckScheme {
    type State = [Option<Vec<u8>>; 2];

    const SLOTS: usize = 2;
    const FINISHED: &'static str = "nothing (replicas already answered)";

    fn open(&self, _ctx: &SupervisorContext<'_>) -> Opened<Self::State> {
        Ok(([None, None], None))
    }

    fn on_message(
        &self,
        ctx: &SupervisorContext<'_>,
        mut uploads: Self::State,
        slot: usize,
        msg: Message,
    ) -> Result<Step<Self::State>, SchemeError> {
        let Some(&expected) = ctx.task_ids.get(slot) else {
            return unexpected(Self::FINISHED, &msg);
        };
        let Message::AllResults {
            task_id,
            leaf_width,
            data,
        } = msg
        else {
            return unexpected("AllResults", &msg);
        };
        check_task(expected, task_id)?;
        let width = flat_layout(ctx, leaf_width, &data)?;
        if let Some(existing) = &uploads[slot] {
            // At-least-once transports redeliver: an identical copy of a
            // replica's upload is idempotently ignored. This session
            // spans two links, so whether the duplicate lands before or
            // after the twin's upload is a cross-link race — tolerating
            // the redelivery is what keeps the verdict deterministic. A
            // *different* re-upload is still a protocol violation.
            return if *existing == data {
                Ok(Step::Next(uploads, Vec::new()))
            } else {
                Err(SchemeError::MalformedPayload {
                    what: "replica re-upload diverged from its first upload".into(),
                })
            };
        }
        uploads[slot] = Some(data);
        let [Some(data_a), Some(data_b)] = uploads else {
            return Ok(Step::Next(uploads, Vec::new())); // wait for the twin
        };

        // Both uploads in hand: compare byte-for-byte, screen agreement.
        let verdict = match (0..ctx.domain.len()).find(|&i| {
            let lo = (i as usize) * width;
            data_a[lo..lo + width] != data_b[lo..lo + width]
        }) {
            Some(index) => Verdict::ReplicaDisagreement { index },
            None => Verdict::Accepted,
        };
        let reports = if verdict.is_accepted() {
            screen_flat(ctx, width, &data_a)
        } else {
            Vec::new()
        };
        // The comparison itself is linear but cheap; we charge one verify
        // op per compared record for the cost tables.
        ctx.ledger.charge_verify(ctx.domain.len());
        Ok(Step::Decided(SessionOutcome { verdict, reports }))
    }

    fn is_stale(
        &self,
        ctx: &SupervisorContext<'_>,
        uploads: Option<&Self::State>,
        slot: usize,
        msg: &Message,
    ) -> bool {
        // An identical redelivery of a replica's upload (fault-injected
        // duplication) carries no information: report it stale so the
        // drivers drop it uncharged wherever it lands relative to the
        // twin's upload — this session spans two links, so that order is
        // a race.
        let Some(uploads) = uploads else {
            return true;
        };
        let Message::AllResults { task_id, data, .. } = msg else {
            return false;
        };
        ctx.task_ids.get(slot) == Some(task_id) && uploads[slot].as_ref() == Some(data)
    }

    fn on_peer_gone(&self, uploads: Option<&Self::State>, slot: usize) -> Result<(), SchemeError> {
        // A replica that already uploaded has done everything this
        // session needs from it; its death must not fail the comparison
        // (whether the death notice beats the twin's upload across links
        // is a race). A replica that dies *before* uploading makes the
        // comparison impossible.
        match uploads {
            Some(uploads) if !uploads.get(slot).is_some_and(Option::is_some) => {
                Err(SchemeError::Grid(ugc_grid::GridError::Disconnected))
            }
            _ => Ok(()),
        }
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
    use ugc_task::{Domain, ZeroGuesser};

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
