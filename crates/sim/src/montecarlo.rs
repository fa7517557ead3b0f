//! Monte-Carlo estimation of cheat-success probabilities.

use crate::stats::wilson_interval;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ugc_core::engine::SessionEngine;
use ugc_core::scheme::cbs::CbsScheme;
use ugc_core::scheme::run_round;
use ugc_core::session::{
    drive_participant, ParticipantContext, SupervisorContext, VerificationScheme,
};
use ugc_core::{LaneWidth, Parallelism, ParticipantStorage};
use ugc_grid::{duplex, Broker, CheatSelection, CostLedger, SemiHonestCheater};
use ugc_hash::Sha256;
use ugc_task::workloads::PasswordSearch;
use ugc_task::{Domain, LuckyGuesser};

/// Seed for trial `t`, derived from the experiment's base seed.
///
/// Every trial — fast or full-protocol, serial or sharded — keys its own
/// generator off this value, so an estimate is a pure function of
/// `(experiment, trials)` regardless of how the trials are scheduled
/// across threads.
fn trial_seed(base: u64, t: u32) -> u64 {
    base.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(t))
}

/// One cell of the detection-probability sweep (a point on the Fig. 2 /
/// Eq. 2 grids).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionExperiment {
    /// Domain size `n` (matters only for the protocol path).
    pub domain_size: u64,
    /// Sample count `m`.
    pub samples: usize,
    /// Honesty ratio `r`.
    pub honesty_ratio: f64,
    /// Guess quality `q` (probability a guessed leaf is correct).
    pub guess_quality: f64,
    /// Number of independent trials.
    pub trials: u32,
    /// Base seed; trial `t` derives its own seed from it.
    pub seed: u64,
}

/// A binomial rate estimate with a 99% Wilson interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateEstimate {
    /// Number of trials in which the cheater survived.
    pub successes: u32,
    /// Total trials.
    pub trials: u32,
    /// Point estimate `successes / trials`.
    pub rate: f64,
    /// Lower 99% Wilson bound.
    pub ci_low: f64,
    /// Upper 99% Wilson bound.
    pub ci_high: f64,
}

impl RateEstimate {
    fn from_counts(successes: u32, trials: u32) -> Self {
        let (mut ci_low, mut ci_high) =
            wilson_interval(u64::from(successes), u64::from(trials), 2.576);
        // Exact bounds at the extremes: the Wilson endpoints collapse to
        // 0/1 analytically there, but floating point can leave an
        // ulp-sized residue that would exclude tiny true probabilities.
        if successes == 0 {
            ci_low = 0.0;
        }
        if successes == trials {
            ci_high = 1.0;
        }
        RateEstimate {
            successes,
            trials,
            rate: f64::from(successes) / f64::from(trials),
            ci_low,
            ci_high,
        }
    }

    /// Whether the interval contains a theoretical value.
    #[must_use]
    pub fn contains(&self, p: f64) -> bool {
        self.ci_low <= p && p <= self.ci_high
    }
}

/// One Theorem 3 sampling event, keyed entirely by `(exp.seed, t)`.
fn fast_trial(exp: &DetectionExperiment, t: u32) -> bool {
    let mut rng = StdRng::seed_from_u64(trial_seed(exp.seed, t));
    for _ in 0..exp.samples {
        let honest = rng.random::<f64>() < exp.honesty_ratio;
        if !honest && rng.random::<f64>() >= exp.guess_quality {
            return false;
        }
    }
    true
}

/// The unreliable-grid overlay on a [`DetectionExperiment`]: each
/// verification attempt crashes (participant churn, lost messages) with
/// probability [`crash_probability`](Self::crash_probability) before it
/// can complete, and a crashed attempt is reassigned up to
/// [`retries`](Self::retries) times — the failure model the chaos runtime
/// injects with [`FaultPlan`](ugc_grid::FaultPlan).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    /// Probability that one attempt crashes before verifying anything.
    pub crash_probability: f64,
    /// Reassignments granted after a crashed attempt.
    pub retries: u32,
}

/// Chaos-aware fast path: estimates the probability that a cheater
/// escapes detection on a grid where attempts crash and are reassigned
/// per `churn`. A trial counts as an escape if every attempt crashed
/// (the work was never verified) or the first completed attempt survived
/// the Theorem 3 sampling event.
///
/// Validated against the closed form
/// [`cheat_success_probability_under_churn`](ugc_core::analysis::cheat_success_probability_under_churn);
/// deterministic per `(exp.seed, t)` like every other estimator here.
///
/// # Panics
///
/// Panics if `exp.trials == 0`, a probability is out of range, or
/// `churn.crash_probability` is not a probability.
#[must_use]
pub fn estimate_cheat_success_under_churn(
    exp: &DetectionExperiment,
    churn: &ChurnModel,
) -> RateEstimate {
    validate_fast(exp);
    assert!(
        (0.0..=1.0).contains(&churn.crash_probability),
        "crash probability out of range"
    );
    let survived = (0..exp.trials)
        .map(|t| {
            // An independent stream from the sampling event's: the same
            // trial seed must not correlate crashes with sample luck.
            let mut crash_rng = StdRng::seed_from_u64(trial_seed(exp.seed, t) ^ 0x0c4a_5b1e);
            let completed =
                (0..=churn.retries).any(|_| crash_rng.random::<f64>() >= churn.crash_probability);
            u32::from(if completed { fast_trial(exp, t) } else { true })
        })
        .sum();
    RateEstimate::from_counts(survived, exp.trials)
}

fn validate_fast(exp: &DetectionExperiment) {
    assert!(exp.trials > 0, "need at least one trial");
    assert!((0.0..=1.0).contains(&exp.honesty_ratio), "r out of range");
    assert!((0.0..=1.0).contains(&exp.guess_quality), "q out of range");
}

/// Fast path: simulates only the Theorem 3 event per trial — each of the
/// `m` uniform samples survives iff it lands in `D′` (probability `r`) or
/// the guess was lucky (probability `q`). Use for dense grids.
///
/// Each trial derives its own generator from the base seed, so the
/// estimate is bit-identical to
/// [`estimate_cheat_success_fast_parallel`] at any thread count.
///
/// # Panics
///
/// Panics if `trials == 0` or the probabilities are out of range.
#[must_use]
pub fn estimate_cheat_success_fast(exp: &DetectionExperiment) -> RateEstimate {
    validate_fast(exp);
    let survived = (0..exp.trials).map(|t| u32::from(fast_trial(exp, t))).sum();
    RateEstimate::from_counts(survived, exp.trials)
}

/// [`estimate_cheat_success_fast`] with the trials sharded over
/// `parallelism` worker threads. Deterministic: bit-identical counts to
/// the serial path for the same base seed, at any thread count — only
/// wall-clock time changes. This is the engine behind the Fig. 2
/// reproduction's 200k-trials-per-cell sweeps.
///
/// # Panics
///
/// As the serial variant.
#[must_use]
pub fn estimate_cheat_success_fast_parallel(
    exp: &DetectionExperiment,
    parallelism: Parallelism,
) -> RateEstimate {
    validate_fast(exp);
    let threads = (parallelism.get() as u32).min(exp.trials).max(1);
    if threads == 1 {
        return estimate_cheat_success_fast(exp);
    }
    let survived = crossbeam::thread::scope(|scope| {
        let per = exp.trials.div_ceil(threads);
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let exp = *exp;
                scope.spawn(move |_| {
                    let lo = w * per;
                    let hi = (lo + per).min(exp.trials);
                    (lo..hi)
                        .map(|t| u32::from(fast_trial(&exp, t)))
                        .sum::<u32>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).sum()
    })
    .expect("monte-carlo scope");
    RateEstimate::from_counts(survived, exp.trials)
}

/// Full-protocol path: every trial runs a complete interactive CBS round
/// (tree build, commitment, challenge, proofs, verification) against a
/// scattered semi-honest cheater whose guesser realises `q` exactly.
///
/// Orders of magnitude slower than the fast path; use it to validate that
/// the protocol's detection matches Theorem 3, then sweep with the fast
/// path.
///
/// # Panics
///
/// Panics if `trials == 0` or probabilities are out of range (as the fast
/// path), or if a protocol round fails outright (transport bugs — never
/// expected in-process).
#[must_use]
pub fn estimate_cheat_success_protocol(exp: &DetectionExperiment) -> RateEstimate {
    assert!(exp.trials > 0, "need at least one trial");
    let survived = (0..exp.trials)
        .map(|t| u32::from(run_protocol_trial(exp, t)))
        .sum();
    RateEstimate::from_counts(survived, exp.trials)
}

/// Parallel variant of [`estimate_cheat_success_protocol`]: splits the
/// trials over `parallelism` workers. Deterministic — trial `t` derives
/// the same seed regardless of which worker runs it, so the estimate is
/// bit-identical to the serial path at any thread count.
///
/// # Panics
///
/// As the serial variant.
#[must_use]
pub fn estimate_cheat_success_protocol_parallel(
    exp: &DetectionExperiment,
    parallelism: Parallelism,
) -> RateEstimate {
    assert!(exp.trials > 0, "need at least one trial");
    let threads = (parallelism.get() as u32).min(exp.trials).max(1);
    if threads == 1 {
        return estimate_cheat_success_protocol(exp);
    }
    let survived = crossbeam::thread::scope(|scope| {
        let per = exp.trials.div_ceil(threads);
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let exp = *exp;
                scope.spawn(move |_| {
                    let lo = w * per;
                    let hi = (lo + per).min(exp.trials);
                    (lo..hi)
                        .map(|t| u32::from(run_protocol_trial(&exp, t)))
                        .sum::<u32>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).sum()
    })
    .expect("monte-carlo scope");
    RateEstimate::from_counts(survived, exp.trials)
}

/// The cast of one protocol trial, shared by the in-process and the
/// brokered paths so both derive identical verdicts for the same `t`.
fn trial_cast(
    exp: &DetectionExperiment,
    t: u32,
) -> (
    PasswordSearch,
    SemiHonestCheater<LuckyGuesser<PasswordSearch>>,
    CbsScheme,
) {
    let trial_seed = trial_seed(exp.seed, t);
    let task = PasswordSearch::with_hidden_password(trial_seed, 0);
    let guesser = LuckyGuesser::new(task.clone(), exp.guess_quality, trial_seed ^ 0xaa);
    let cheater = SemiHonestCheater::new(
        exp.honesty_ratio,
        CheatSelection::Scattered,
        guesser,
        trial_seed ^ 0xbb,
    );
    let scheme = CbsScheme {
        samples: exp.samples,
        seed: trial_seed ^ 0xcc,
        report_audit: 0,
    };
    (task, cheater, scheme)
}

/// Full-protocol path over the **grid transport**: trials run as CBS
/// sessions multiplexed by a [`SessionEngine`] over one supervisor link
/// into a relaying [`Broker`], `concurrency` trials in flight per batch —
/// the deployment-shaped variant of [`estimate_cheat_success_protocol`].
///
/// Deterministic and **bit-identical** to the in-process path: trial `t`
/// derives the same task, cheater and sampling seed either way, so the
/// survival counts match exactly; only the transport differs.
///
/// # Panics
///
/// Panics if `trials == 0` or `concurrency == 0`, or on transport bugs
/// (never expected in-process).
#[must_use]
pub fn estimate_cheat_success_protocol_brokered(
    exp: &DetectionExperiment,
    concurrency: usize,
) -> RateEstimate {
    assert!(exp.trials > 0, "need at least one trial");
    assert!(concurrency > 0, "need at least one session in flight");
    let mut survived = 0u32;
    let mut next = 0u32;
    while next < exp.trials {
        let hi = (next + concurrency as u32).min(exp.trials);
        survived += brokered_batch(exp, next..hi);
        next = hi;
    }
    RateEstimate::from_counts(survived, exp.trials)
}

/// Runs one batch of trials as concurrent sessions over a broker link;
/// returns how many cheaters survived.
fn brokered_batch(exp: &DetectionExperiment, trials: core::ops::Range<u32>) -> u32 {
    let domain = Domain::new(0, exp.domain_size);
    let casts: Vec<_> = trials.map(|t| trial_cast(exp, t)).collect();
    let screeners: Vec<_> = casts
        .iter()
        .map(|(task, _, _)| task.match_screener())
        .collect();

    let mut engine = SessionEngine::new();
    let mut children = Vec::new();
    let mut part_endpoints = Vec::new();
    for (i, ((task, _, scheme), screener)) in casts.iter().zip(&screeners).enumerate() {
        let session = VerificationScheme::<Sha256>::supervisor_session(
            scheme,
            SupervisorContext {
                task,
                screener,
                domain,
                task_ids: vec![i as u64],
                ledger: CostLedger::new(),
            },
        );
        engine
            .add_session(session, vec![i as u64])
            .expect("batch task ids are unique");
        let (broker_side, part_side) = duplex();
        children.push(broker_side);
        part_endpoints.push(part_side);
    }
    let (mut sup_transport, broker_up) = duplex();
    let broker = Broker::new(broker_up, children);

    let results = std::thread::scope(|scope| {
        scope.spawn(move || broker.pump_until_closed());
        for (((task, cheater, scheme), screener), endpoint) in
            casts.iter().zip(&screeners).zip(part_endpoints)
        {
            // Each thread owns its endpoint so finishing hangs it up.
            scope.spawn(move || {
                let mut session = VerificationScheme::<Sha256>::participant_session(
                    scheme,
                    ParticipantContext {
                        task,
                        screener,
                        behaviour: cheater,
                        storage: ParticipantStorage::Full,
                        // Serial builds: parallelism lives at the batch level.
                        parallelism: Parallelism::serial(),
                        lanes: LaneWidth::default(),
                        ledger: CostLedger::new(),
                    },
                );
                drive_participant(&endpoint, session.as_mut())
                    .expect("brokered CBS round must not fail");
            });
        }
        let results = engine.run(&mut sup_transport);
        drop(sup_transport);
        results
    });
    results
        .into_iter()
        .map(|r| {
            u32::from(
                r.outcome
                    .expect("brokered CBS round must not fail")
                    .verdict
                    .is_accepted(),
            )
        })
        .sum()
}

/// One full CBS round for trial `t`; `true` iff the cheater survived.
fn run_protocol_trial(exp: &DetectionExperiment, t: u32) -> bool {
    let (task, cheater, scheme) = trial_cast(exp, t);
    run_round::<Sha256>(
        &scheme,
        &task,
        &task.match_screener(),
        Domain::new(0, exp.domain_size),
        &[&cheater],
        u64::from(t),
        ParticipantStorage::Full,
        // Serial tree build: the trial may already be running on a
        // saturated shard thread, so nesting a multi-threaded build would
        // oversubscribe the cores (parallelism lives at the trial level
        // here).
        Parallelism::serial(),
        // Lane-batched tree builds and sample hashing: bit-identical to
        // scalar, so estimates are unchanged at any width.
        LaneWidth::default(),
    )
    .expect("in-process CBS round must not fail")
    .accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_core::analysis::cheat_success_probability;

    #[test]
    fn fast_path_matches_eq2_across_grid() {
        for &(r, q, m) in &[
            (0.5, 0.0, 5usize),
            (0.5, 0.5, 8),
            (0.8, 0.0, 10),
            (0.9, 0.5, 20),
            (0.2, 0.0, 3),
        ] {
            let exp = DetectionExperiment {
                domain_size: 0, // unused on the fast path
                samples: m,
                honesty_ratio: r,
                guess_quality: q,
                trials: 20_000,
                seed: 7,
            };
            let est = estimate_cheat_success_fast(&exp);
            let theory = cheat_success_probability(r, q, m as u64);
            assert!(
                est.contains(theory),
                "r={r} q={q} m={m}: est [{:.4},{:.4}] excludes {:.4}",
                est.ci_low,
                est.ci_high,
                theory
            );
        }
    }

    #[test]
    fn fast_path_extremes() {
        let mut exp = DetectionExperiment {
            domain_size: 0,
            samples: 10,
            honesty_ratio: 1.0,
            guess_quality: 0.0,
            trials: 500,
            seed: 1,
        };
        assert_eq!(estimate_cheat_success_fast(&exp).rate, 1.0);
        exp.honesty_ratio = 0.0;
        assert_eq!(estimate_cheat_success_fast(&exp).rate, 0.0);
    }

    #[test]
    fn churn_estimate_matches_closed_form_across_grid() {
        use ugc_core::analysis::cheat_success_probability_under_churn;
        for &(r, q, m, c, retries) in &[
            (0.5, 0.0, 10usize, 0.3, 0u32),
            (0.5, 0.0, 10, 0.3, 3),
            (0.8, 0.2, 6, 0.5, 1),
            (0.5, 0.0, 14, 0.9, 8),
        ] {
            let exp = DetectionExperiment {
                domain_size: 0,
                samples: m,
                honesty_ratio: r,
                guess_quality: q,
                trials: 20_000,
                seed: 13,
            };
            let churn = ChurnModel {
                crash_probability: c,
                retries,
            };
            let est = estimate_cheat_success_under_churn(&exp, &churn);
            let theory = cheat_success_probability_under_churn(r, q, m as u64, c, retries);
            assert!(
                est.contains(theory),
                "r={r} q={q} m={m} c={c} retries={retries}: \
                 est [{:.4},{:.4}] excludes {:.4}",
                est.ci_low,
                est.ci_high,
                theory
            );
        }
    }

    #[test]
    fn churn_estimate_reduces_to_fast_path_without_crashes() {
        let exp = DetectionExperiment {
            domain_size: 0,
            samples: 8,
            honesty_ratio: 0.6,
            guess_quality: 0.1,
            trials: 5_000,
            seed: 3,
        };
        let no_churn = ChurnModel {
            crash_probability: 0.0,
            retries: 0,
        };
        assert_eq!(
            estimate_cheat_success_under_churn(&exp, &no_churn).successes,
            estimate_cheat_success_fast(&exp).successes
        );
    }

    #[test]
    fn churn_estimate_deterministic_per_seed() {
        let exp = DetectionExperiment {
            domain_size: 0,
            samples: 5,
            honesty_ratio: 0.5,
            guess_quality: 0.0,
            trials: 4_000,
            seed: 77,
        };
        let churn = ChurnModel {
            crash_probability: 0.4,
            retries: 2,
        };
        assert_eq!(
            estimate_cheat_success_under_churn(&exp, &churn).successes,
            estimate_cheat_success_under_churn(&exp, &churn).successes
        );
    }

    #[test]
    fn fast_path_deterministic_per_seed() {
        let exp = DetectionExperiment {
            domain_size: 0,
            samples: 6,
            honesty_ratio: 0.6,
            guess_quality: 0.1,
            trials: 5_000,
            seed: 33,
        };
        assert_eq!(
            estimate_cheat_success_fast(&exp).successes,
            estimate_cheat_success_fast(&exp).successes
        );
    }

    #[test]
    fn protocol_path_agrees_with_theory() {
        // Small but real: 300 full CBS rounds at r=0.5, q=0, m=3 → expect
        // survival ≈ 0.125.
        let exp = DetectionExperiment {
            domain_size: 64,
            samples: 3,
            honesty_ratio: 0.5,
            guess_quality: 0.0,
            trials: 300,
            seed: 11,
        };
        let est = estimate_cheat_success_protocol(&exp);
        let theory = cheat_success_probability(0.5, 0.0, 3);
        assert!(
            est.contains(theory),
            "protocol estimate [{:.3},{:.3}] excludes theory {:.3}",
            est.ci_low,
            est.ci_high,
            theory
        );
    }

    #[test]
    fn brokered_protocol_path_is_bit_identical_to_in_process() {
        // Same trials through the session engine + broker: the transport
        // must not change a single verdict.
        let exp = DetectionExperiment {
            domain_size: 64,
            samples: 3,
            honesty_ratio: 0.5,
            guess_quality: 0.0,
            trials: 40,
            seed: 11,
        };
        let in_process = estimate_cheat_success_protocol(&exp);
        for concurrency in [1usize, 4, 64] {
            let brokered = estimate_cheat_success_protocol_brokered(&exp, concurrency);
            assert_eq!(
                in_process.successes, brokered.successes,
                "brokered path diverged at concurrency {concurrency}"
            );
        }
    }

    #[test]
    fn protocol_path_with_lucky_guessers() {
        // q = 1: every guess is right, so the cheater always survives.
        let exp = DetectionExperiment {
            domain_size: 32,
            samples: 5,
            honesty_ratio: 0.3,
            guess_quality: 1.0,
            trials: 30,
            seed: 5,
        };
        let est = estimate_cheat_success_protocol(&exp);
        assert_eq!(est.rate, 1.0);
    }

    #[test]
    fn rate_estimate_interval_sane() {
        let est = RateEstimate::from_counts(0, 100);
        assert_eq!(est.rate, 0.0);
        assert!(est.ci_high > 0.0);
        assert!(est.contains(0.0));
        assert!(!est.contains(0.5));
    }

    #[test]
    fn zero_successes_interval_contains_tiny_probabilities() {
        // Regression: an ulp of Wilson rounding once excluded 1e-21.
        let est = RateEstimate::from_counts(0, 100_000);
        assert!(est.contains(1e-21));
        let est = RateEstimate::from_counts(100_000, 100_000);
        assert!(est.contains(1.0 - 1e-12));
    }

    #[test]
    fn parallel_protocol_estimate_equals_serial() {
        let exp = DetectionExperiment {
            domain_size: 32,
            samples: 3,
            honesty_ratio: 0.5,
            guess_quality: 0.0,
            trials: 64,
            seed: 21,
        };
        let serial = estimate_cheat_success_protocol(&exp);
        for threads in 1usize..=8 {
            let parallel =
                estimate_cheat_success_protocol_parallel(&exp, Parallelism::threads(threads));
            assert_eq!(
                parallel.successes, serial.successes,
                "threads={threads} diverged"
            );
        }
    }

    #[test]
    fn sharded_fast_estimate_identical_to_serial() {
        // The satellite requirement: for the same base seed the sharded
        // Monte-Carlo estimate must be *identical* (not just statistically
        // compatible) to the serial one, at every thread count.
        for seed in [0u64, 7, 0xdead_beef] {
            let exp = DetectionExperiment {
                domain_size: 0,
                samples: 9,
                honesty_ratio: 0.6,
                guess_quality: 0.2,
                trials: 10_001, // odd: exercises ragged shard boundaries
                seed,
            };
            let serial = estimate_cheat_success_fast(&exp);
            for threads in 1usize..=8 {
                let sharded =
                    estimate_cheat_success_fast_parallel(&exp, Parallelism::threads(threads));
                assert_eq!(
                    sharded.successes, serial.successes,
                    "seed={seed} threads={threads} diverged"
                );
            }
        }
    }

    #[test]
    fn fast_parallel_handles_more_threads_than_trials() {
        let exp = DetectionExperiment {
            domain_size: 0,
            samples: 2,
            honesty_ratio: 0.5,
            guess_quality: 0.0,
            trials: 3,
            seed: 1,
        };
        let serial = estimate_cheat_success_fast(&exp);
        let sharded = estimate_cheat_success_fast_parallel(&exp, Parallelism::threads(64));
        assert_eq!(serial.successes, sharded.successes);
    }
}
