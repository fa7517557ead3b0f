//! The verification schemes: the paper's CBS/NI-CBS and all baselines.
//!
//! Each scheme exposes two layers:
//!
//! 1. a *scheme object* ([`cbs::CbsScheme`], [`ni_cbs::NiCbsScheme`],
//!    [`naive::NaiveScheme`], [`double_check::DoubleCheckScheme`],
//!    [`ringer::RingerScheme`]) implementing
//!    [`VerificationScheme`] — the message-driven supervisor/participant
//!    state machines a [`SessionEngine`](crate::engine::SessionEngine)
//!    multiplexes over any transport, including a
//!    [`Broker`](ugc_grid::Broker). Every session is one frame, written
//!    once in this module: it sends the `Assign`s and the `Verdict`s and
//!    keeps the outcome, and a scheme supplies only its *middle* — CBS's
//!    commit, challenge and proofs, NI-CBS's single-shot bundle, naive
//!    sampling's flat upload and spot-check, double-check's two uploads
//!    and their comparison, the ringer hunt. [`run_round`] runs one stand-alone
//!    round of any of them — a one-member campaign on that engine — and
//!    returns a [`RoundOutcome`] with full cost and traffic accounting.
//!    Code that wants only one side of a round (an adversarial peer, a
//!    hand-built topology) builds the scheme's session and drives it with
//!    the blocking reference loops
//!    [`drive_supervisor`](crate::session::drive_supervisor) /
//!    [`drive_participant`](crate::session::drive_participant);
//! 2. attack entry points (e.g. [`ni_cbs::retry_attack`]) where the paper
//!    analyses one.

pub mod cbs;
pub mod double_check;
mod frame;
pub mod naive;
pub mod ni_cbs;
pub mod ringer;

use crate::orchestrator::{run_mixed_fleet, MemberSpec, MixedFleetConfig};
use crate::session::{ParticipantContext, VerificationScheme};
use crate::{RoundOutcome, SchemeError, Verdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ugc_grid::{CostLedger, WorkerBehaviour};
use ugc_hash::HashFunction;
use ugc_merkle::MerkleError;
use ugc_task::{ComputeTask, Domain, ScreenReport, Screener};

/// Runs one complete stand-alone round of `scheme` in-process:
/// [`run_mixed_fleet`] with a single member whose share is all of
/// `domain`, one entry of `behaviours` per
/// [slot](VerificationScheme::participant_slots). Storage mode, the
/// execution-only knobs (`parallelism`, `lanes`, `workers`) and, should a
/// caller want them, transport, chaos and deadline all arrive through
/// `config`, exactly as they do for a fleet.
///
/// The returned outcome's `supervisor_link` is the sum over every slot's
/// link and its `participant_costs` the sum over every slot's work — for
/// double-check that is both replicas, the paper's point being precisely
/// that it doubles the spent cycles.
///
/// # Errors
///
/// As [`run_fleet_on`](crate::run_fleet_on):
/// [`SchemeError::InvalidConfig`] if `behaviours` does not fill the
/// scheme's slots, otherwise the supervisor's error if it failed (unless
/// that is merely the echo of a participant that failed and hung up, in
/// which case the participant's error, with or without a chaos plan) and
/// the first participant error only if the supervisor succeeded.
pub fn run_round<H: HashFunction>(
    scheme: &dyn VerificationScheme<H>,
    task: &dyn ComputeTask,
    screener: &dyn Screener,
    domain: Domain,
    behaviours: &[&dyn WorkerBehaviour],
    config: &MixedFleetConfig,
) -> Result<RoundOutcome, SchemeError> {
    let member = MemberSpec {
        scheme,
        behaviours: behaviours.to_vec(),
    };
    let summary = run_mixed_fleet(task, screener, domain, &[member], config)?;
    let only = summary.members.into_iter().next();
    Ok(only.expect("a fleet of one yields one member").outcome)
}

/// Committed leaf values — one flat row, `width` bytes per leaf, as
/// [`WorkerBehaviour::leaf_row`] produced it — plus the screened reports
/// they induce.
pub(crate) struct Materialized {
    pub row: Vec<u8>,
    pub width: usize,
    pub reports: Vec<ScreenReport>,
}

/// Evaluates `ctx`'s behaviour over the whole `domain` once, screening
/// each committed value — the single pass a real participant performs.
///
/// # Errors
///
/// [`MerkleError::ZeroLeafWidth`] if the task's outputs are zero bytes
/// wide, [`MerkleError::MixedLeafWidth`] if the behaviour produced a leaf
/// that is not `task.output_width()` bytes, [`SchemeError::InvalidConfig`]
/// if the share's leaf row cannot be allocated at all.
pub(crate) fn materialize(
    ctx: &ParticipantContext<'_>,
    domain: Domain,
) -> Result<Materialized, SchemeError> {
    let width = ctx.task.output_width();
    if width == 0 {
        return Err(MerkleError::ZeroLeafWidth.into());
    }
    let row = ctx
        .behaviour
        .leaf_row(ctx.task, domain, &ctx.ledger)?
        .ok_or(SchemeError::InvalidConfig {
            reason: "share too large: its leaf row does not fit in memory".into(),
        })?;
    let reports = (0..)
        .zip(row.chunks_exact(width))
        .filter_map(|(i, value)| ctx.behaviour.report_for(ctx.screener, domain, i, value))
        .collect();
    Ok(Materialized {
        row,
        width,
        reports,
    })
}

/// Audits up to `audit` screened reports by recomputing `f` on the
/// reported inputs: payloads must match the true result and genuinely pass
/// the screener. Catches the malicious model's corrupted reports.
///
/// This is an extension beyond the paper's Section 3 (which focuses on the
/// semi-honest model); see DESIGN.md.
pub(crate) fn audit_reports(
    task: &dyn ComputeTask,
    screener: &dyn Screener,
    domain: Domain,
    reports: &[ScreenReport],
    audit: usize,
    seed: u64,
    ledger: &CostLedger,
) -> Option<Verdict> {
    if audit == 0 || reports.is_empty() {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0061_7564_6974);
    for _ in 0..audit.min(reports.len()) {
        let ScreenReport { input, payload } = &reports[rng.random_range(0..reports.len())];
        if !domain.contains(*input) {
            return Some(Verdict::ReportMismatch { input: *input });
        }
        ledger.charge_f(task.unit_cost());
        let truth = task.compute(*input);
        match screener.screen(*input, &truth) {
            Some(expected) if &expected.payload == payload => {}
            _ => return Some(Verdict::ReportMismatch { input: *input }),
        }
    }
    None
}

/// Refuses a sampling scheme configured with no samples.
pub(crate) fn check_samples(samples: usize) -> Result<(), SchemeError> {
    if samples == 0 {
        return Err(SchemeError::InvalidConfig {
            reason: "samples must be positive".into(),
        });
    }
    Ok(())
}

/// Checks a task-id echo.
pub(crate) fn check_task(expected: u64, got: u64) -> Result<(), SchemeError> {
    if expected == got {
        Ok(())
    } else {
        Err(SchemeError::TaskMismatch { expected, got })
    }
}

/// [`run_round`] under `storage`, everything else at its default — the
/// CBS and NI-CBS unit tests' round.
#[cfg(test)]
pub(crate) fn storage_round<H: HashFunction>(
    scheme: &dyn VerificationScheme<H>,
    task: &dyn ComputeTask,
    screener: &dyn Screener,
    domain: Domain,
    behaviours: &[&dyn WorkerBehaviour],
    storage: crate::ParticipantStorage,
) -> Result<RoundOutcome, SchemeError> {
    let config = MixedFleetConfig {
        storage,
        ..MixedFleetConfig::default()
    };
    run_round(scheme, task, screener, domain, behaviours, &config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_grid::HonestWorker;
    use ugc_hash::Sha256;
    use ugc_merkle::{LeafSet, MerkleOpening, MerkleTree};
    use ugc_task::workloads::PasswordSearch;
    use ugc_task::AcceptAllScreener;

    fn setup() -> (PasswordSearch, Domain, Vec<Vec<u8>>, MerkleTree<Sha256>) {
        let task = PasswordSearch::with_hidden_password(3, 5);
        let domain = Domain::new(0, 16);
        let leaves: Vec<Vec<u8>> = (0..16).map(|x| task.compute(x)).collect();
        let tree = MerkleTree::build(&leaves).unwrap();
        (task, domain, leaves, tree)
    }

    /// An honest participant's context over `task`, screening everything.
    fn honest<'a>(task: &'a PasswordSearch, ledger: &CostLedger) -> ParticipantContext<'a> {
        ParticipantContext {
            task,
            screener: &AcceptAllScreener,
            behaviour: &HonestWorker,
            storage: crate::ParticipantStorage::Full,
            parallelism: ugc_merkle::Parallelism::serial(),
            lanes: ugc_merkle::LaneWidth::default(),
            ledger: ledger.clone(),
        }
    }

    #[test]
    fn materialize_screens_and_counts() {
        let (task, domain, leaves, _) = setup();
        let ledger = CostLedger::new();
        let m = materialize(&honest(&task, &ledger), domain).unwrap();
        assert_eq!(m.row, leaves.concat());
        assert_eq!(m.width, 16);
        assert_eq!(m.reports.len(), 16);
        assert_eq!(ledger.report().f_evals, 16);
    }

    #[test]
    fn proof_wire_roundtrip() {
        // The wire opening is the tree's opening, field for field, and
        // what comes off the wire rebuilds the commitment where it lies.
        let (task, domain, leaves, tree) = setup();
        let samples = [7, 2, 7, 13];
        let ledger = CostLedger::new();
        let wire = cbs::open_samples(&honest(&task, &ledger), &tree, &samples, domain).unwrap();
        assert_eq!(ledger.report(), ugc_grid::CostReport::default());
        assert_eq!(wire.len(), 3);
        assert_eq!(
            wire.leaf_values,
            [&leaves[2][..], &leaves[7], &leaves[13]].concat()
        );
        let local = tree.open(&samples).unwrap();
        assert_eq!(wire.leaf_width as usize, local.leaf_width);
        let back = MerkleOpening {
            leaf_width: 16,
            leaf_values: wire.leaf_values.as_slice(),
            leaf_siblings: wire.leaf_siblings.as_slice(),
            digest_siblings: wire.digest_siblings.as_slice(),
        };
        assert_eq!(
            (back.leaf_values, back.leaf_siblings, back.digest_siblings),
            (
                local.leaf_values.as_slice(),
                local.leaf_siblings.as_slice(),
                local.digest_siblings.as_slice()
            )
        );
        let set = LeafSet::new(16, &samples).unwrap();
        assert!(back.verify::<Sha256>(&tree.root(), &set));
    }

    #[test]
    fn audit_accepts_truthful_reports() {
        let (task, domain, leaves, _) = setup();
        let ledger = CostLedger::new();
        let reports: Vec<ScreenReport> = (0..)
            .zip(leaves)
            .map(|(input, payload)| ScreenReport { input, payload })
            .collect();
        assert_eq!(
            audit_reports(&task, &AcceptAllScreener, domain, &reports, 8, 1, &ledger),
            None
        );
        assert!(ledger.report().f_evals > 0);
    }

    #[test]
    fn audit_catches_corrupted_payload() {
        let (task, domain, leaves, _) = setup();
        let ledger = CostLedger::new();
        let mut reports: Vec<ScreenReport> = (0..)
            .zip(leaves)
            .map(|(input, payload)| ScreenReport { input, payload })
            .collect();
        for report in &mut reports {
            report.payload[0] ^= 0xFF;
        }
        let verdict = audit_reports(&task, &AcceptAllScreener, domain, &reports, 4, 1, &ledger);
        assert!(matches!(verdict, Some(Verdict::ReportMismatch { .. })));
    }

    #[test]
    fn audit_catches_out_of_domain_report() {
        let (task, domain, _, _) = setup();
        let ledger = CostLedger::new();
        let reports = [ScreenReport {
            input: 999,
            payload: vec![0; 16],
        }];
        assert_eq!(
            audit_reports(&task, &AcceptAllScreener, domain, &reports, 1, 1, &ledger),
            Some(Verdict::ReportMismatch { input: 999 })
        );
    }

    #[test]
    fn audit_zero_is_noop() {
        let (task, domain, _, _) = setup();
        let ledger = CostLedger::new();
        let reports = [ScreenReport {
            input: 999,
            payload: vec![0; 16],
        }];
        assert_eq!(
            audit_reports(&task, &AcceptAllScreener, domain, &reports, 0, 1, &ledger),
            None
        );
        assert_eq!(ledger.report().f_evals, 0);
    }
}
