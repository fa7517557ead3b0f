//! Monte-Carlo estimation of cheat-success probabilities.

use crate::stats::wilson_interval;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ugc_core::scheme::cbs::CbsScheme;
use ugc_core::scheme::run_round;
use ugc_core::{MixedFleetConfig, Parallelism};
use ugc_grid::{CheatSelection, SemiHonestCheater};
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
    estimate(exp.trials, Parallelism::serial(), |t| {
        // An independent stream from the sampling event's: the same
        // trial seed must not correlate crashes with sample luck.
        let mut crash_rng = StdRng::seed_from_u64(trial_seed(exp.seed, t) ^ 0x0c4a_5b1e);
        let completed =
            (0..=churn.retries).any(|_| crash_rng.random::<f64>() >= churn.crash_probability);
        !completed || fast_trial(exp, t)
    })
}

fn validate_fast(exp: &DetectionExperiment) {
    assert!((0.0..=1.0).contains(&exp.honesty_ratio), "r out of range");
    assert!((0.0..=1.0).contains(&exp.guess_quality), "q out of range");
}

/// The rate at which the trials `t` in `0..trials` survive, counted over
/// `parallelism` threads (contiguous shards; a single one runs on the
/// caller's thread). A trial is keyed by `t` alone, so the count is the
/// same at any thread count — only wall-clock time changes.
fn estimate(
    trials: u32,
    parallelism: Parallelism,
    survives: impl Fn(u32) -> bool + Sync,
) -> RateEstimate {
    assert!(trials > 0, "need at least one trial");
    let threads = (parallelism.get() as u32).clamp(1, trials);
    let per = trials.div_ceil(threads);
    let shard = |w: u32| -> u32 {
        let lo = w * per;
        (lo..(lo + per).min(trials))
            .map(|t| u32::from(survives(t)))
            .sum()
    };
    let survived = if threads == 1 {
        shard(0)
    } else {
        crossbeam::thread::scope(|scope| {
            let shard = &shard;
            let handles: Vec<_> = (0..threads)
                .map(|w| scope.spawn(move |_| shard(w)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker")).sum()
        })
        .expect("monte-carlo scope")
    };
    RateEstimate::from_counts(survived, trials)
}

/// Fast path: simulates only the Theorem 3 event per trial — each of the
/// `m` uniform samples survives iff it lands in `D′` (probability `r`) or
/// the guess was lucky (probability `q`). Use for dense grids: this is
/// the engine behind the Fig. 2 reproduction's 200k-trials-per-cell
/// sweeps.
///
/// The trials are sharded over `parallelism` threads
/// ([`Parallelism::serial`] runs them on the caller's); each derives its
/// own generator from the base seed, so the counts are bit-identical at
/// any thread count.
///
/// # Panics
///
/// Panics if `trials == 0` or the probabilities are out of range.
#[must_use]
pub fn estimate_cheat_success_fast(
    exp: &DetectionExperiment,
    parallelism: Parallelism,
) -> RateEstimate {
    validate_fast(exp);
    estimate(exp.trials, parallelism, |t| fast_trial(exp, t))
}

/// Full-protocol path: every trial runs a complete interactive CBS round
/// (tree build, commitment, challenge, proofs, verification) against a
/// scattered semi-honest cheater whose guesser realises `q` exactly.
///
/// Orders of magnitude slower than the fast path; use it to validate that
/// the protocol's detection matches Theorem 3, then sweep with the fast
/// path. Sharded and deterministic exactly as
/// [`estimate_cheat_success_fast`] is.
///
/// # Panics
///
/// Panics if `trials == 0`, or if a protocol round fails outright
/// (transport bugs — never expected in-process).
#[must_use]
pub fn estimate_cheat_success_protocol(
    exp: &DetectionExperiment,
    parallelism: Parallelism,
) -> RateEstimate {
    estimate(exp.trials, parallelism, |t| run_protocol_trial(exp, t))
}

/// One full CBS round for trial `t`; `true` iff the cheater survived.
fn run_protocol_trial(exp: &DetectionExperiment, t: u32) -> bool {
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
    run_round::<Sha256>(
        &scheme,
        &task,
        &task.match_screener(),
        Domain::new(0, exp.domain_size),
        &[&cheater],
        // One scheduler worker and a serial tree build: parallelism lives
        // at the trial level here, and threads inside a shard would
        // oversubscribe. Neither changes a digest, so neither an estimate.
        &MixedFleetConfig {
            workers: Some(1),
            parallelism: Parallelism::serial(),
            ..MixedFleetConfig::default()
        },
    )
    .expect("in-process CBS round must not fail")
    .accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_core::analysis::{cheat_success_probability, cheat_success_probability_under_churn};

    /// `m` samples against an `r`-honest cheater guessing right with
    /// probability `q`; the fast path never reads the domain size `n`.
    fn exp(n: u64, m: usize, r: f64, q: f64, trials: u32, seed: u64) -> DetectionExperiment {
        DetectionExperiment {
            domain_size: n,
            samples: m,
            honesty_ratio: r,
            guess_quality: q,
            trials,
            seed,
        }
    }

    fn assert_admits(est: RateEstimate, theory: f64, cell: &str) {
        assert!(
            est.contains(theory),
            "{cell}: est [{:.4},{:.4}] excludes {theory:.4}",
            est.ci_low,
            est.ci_high
        );
    }

    #[test]
    fn fast_path_matches_eq2_across_grid() {
        for &(r, q, m) in &[
            (0.5, 0.0, 5usize),
            (0.5, 0.5, 8),
            (0.8, 0.0, 10),
            (0.9, 0.5, 20),
            (0.2, 0.0, 3),
        ] {
            let est =
                estimate_cheat_success_fast(&exp(0, m, r, q, 20_000, 7), Parallelism::serial());
            let theory = cheat_success_probability(r, q, m as u64);
            assert_admits(est, theory, &format!("r={r} q={q} m={m}"));
        }
    }

    #[test]
    fn fast_path_extremes() {
        let always_honest = exp(0, 10, 1.0, 0.0, 500, 1);
        assert_eq!(
            estimate_cheat_success_fast(&always_honest, Parallelism::serial()).rate,
            1.0
        );
        let never_honest = exp(0, 10, 0.0, 0.0, 500, 1);
        assert_eq!(
            estimate_cheat_success_fast(&never_honest, Parallelism::serial()).rate,
            0.0
        );
    }

    #[test]
    fn churn_estimate_matches_closed_form_across_grid() {
        for &(r, q, m, c, retries) in &[
            (0.5, 0.0, 10usize, 0.3, 0u32),
            (0.5, 0.0, 10, 0.3, 3),
            (0.8, 0.2, 6, 0.5, 1),
            (0.5, 0.0, 14, 0.9, 8),
        ] {
            let churn = ChurnModel {
                crash_probability: c,
                retries,
            };
            let est = estimate_cheat_success_under_churn(&exp(0, m, r, q, 20_000, 13), &churn);
            let theory = cheat_success_probability_under_churn(r, q, m as u64, c, retries);
            assert_admits(
                est,
                theory,
                &format!("r={r} q={q} m={m} c={c} retries={retries}"),
            );
        }
    }

    #[test]
    fn churn_estimate_reduces_to_fast_path_without_crashes() {
        let exp = exp(0, 8, 0.6, 0.1, 5_000, 3);
        let no_churn = ChurnModel {
            crash_probability: 0.0,
            retries: 0,
        };
        assert_eq!(
            estimate_cheat_success_under_churn(&exp, &no_churn).successes,
            estimate_cheat_success_fast(&exp, Parallelism::serial()).successes
        );
    }

    #[test]
    fn churn_estimate_deterministic_per_seed() {
        let exp = exp(0, 5, 0.5, 0.0, 4_000, 77);
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
        let exp = exp(0, 6, 0.6, 0.1, 5_000, 33);
        assert_eq!(
            estimate_cheat_success_fast(&exp, Parallelism::serial()).successes,
            estimate_cheat_success_fast(&exp, Parallelism::serial()).successes
        );
    }

    #[test]
    fn protocol_path_agrees_with_theory() {
        // Small but real: 300 full CBS rounds at r=0.5, q=0, m=3 → expect
        // survival ≈ 0.125.
        let est =
            estimate_cheat_success_protocol(&exp(64, 3, 0.5, 0.0, 300, 11), Parallelism::serial());
        assert_admits(est, cheat_success_probability(0.5, 0.0, 3), "protocol");
    }

    #[test]
    fn protocol_path_with_lucky_guessers() {
        // q = 1: every guess is right, so the cheater always survives.
        let est =
            estimate_cheat_success_protocol(&exp(32, 5, 0.3, 1.0, 30, 5), Parallelism::serial());
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
        let exp = exp(32, 3, 0.5, 0.0, 64, 21);
        let serial = estimate_cheat_success_protocol(&exp, Parallelism::serial());
        for threads in [2usize, 3, 8] {
            let parallel = estimate_cheat_success_protocol(&exp, Parallelism::threads(threads));
            assert_eq!(
                parallel.successes, serial.successes,
                "threads={threads} diverged"
            );
        }
    }

    #[test]
    fn sharded_fast_estimate_identical_to_serial() {
        // For the same base seed the sharded estimate must be *identical*
        // (not just statistically compatible) to the serial one, at every
        // thread count.
        for seed in [0u64, 7, 0xdead_beef] {
            // An odd trial count exercises ragged shard boundaries.
            let exp = exp(0, 9, 0.6, 0.2, 10_001, seed);
            let serial = estimate_cheat_success_fast(&exp, Parallelism::serial());
            for threads in [2usize, 3, 8] {
                let sharded = estimate_cheat_success_fast(&exp, Parallelism::threads(threads));
                assert_eq!(
                    sharded.successes, serial.successes,
                    "seed={seed} threads={threads} diverged"
                );
            }
        }
    }

    #[test]
    fn fast_parallel_handles_more_threads_than_trials() {
        let exp = exp(0, 2, 0.5, 0.0, 3, 1);
        let serial = estimate_cheat_success_fast(&exp, Parallelism::serial());
        let sharded = estimate_cheat_success_fast(&exp, Parallelism::threads(64));
        assert_eq!(serial.successes, sharded.successes);
    }
}
