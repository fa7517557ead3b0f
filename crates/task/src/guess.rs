//! The cheap substitute function `f̌` of the semi-honest cheating model.
//!
//! Section 2.2 of the paper: a semi-honest cheater computes `f` honestly on
//! `D′ ⊂ D` and uses a much cheaper `f̌` — "for instance, a random guess" —
//! elsewhere. Theorem 3 parameterises the analysis by
//! `q = Pr[guess equals f(x)]`; these guessers realise a chosen `q` exactly
//! so the Monte-Carlo experiments can sweep it.

use crate::{ComputeTask, SplitMix64};

/// A cheap guess generator `f̌(x)` for uncomputed inputs.
///
/// Implementations are deterministic in `(x, salt)` (per seed) so a
/// cheater's Merkle tree is well-defined. The `salt` lets the NI-CBS
/// *retry attacker* (Section 4.2) re-roll its guesses between attempts:
/// salt 0 is the first attempt, each retry bumps it.
pub trait Guesser: Send + Sync {
    /// Produces the guessed result bytes for input `x` under `salt`.
    ///
    /// `width` is the task's output width; the returned vector must have
    /// exactly that length.
    fn guess_salted(&self, x: u64, width: usize, salt: u64) -> Vec<u8>;

    /// First-attempt guess (salt 0).
    fn guess(&self, x: u64, width: usize) -> Vec<u8> {
        self.guess_salted(x, width, 0)
    }
}

/// Guesses uniformly random bytes; `q ≈ 0` for any non-trivial task.
///
/// This is the paper's default assumption ("the probability that the
/// participant can guess the correct computation results … is negligible").
///
/// # Examples
///
/// ```
/// use ugc_task::{Guesser, ZeroGuesser};
///
/// let g = ZeroGuesser::new(1);
/// assert_eq!(g.guess(7, 8).len(), 8);
/// // Deterministic per (seed, x):
/// assert_eq!(g.guess(7, 8), ZeroGuesser::new(1).guess(7, 8));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ZeroGuesser {
    seed: u64,
}

impl ZeroGuesser {
    /// Creates a random-bytes guesser with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ZeroGuesser { seed }
    }
}

impl Guesser for ZeroGuesser {
    fn guess_salted(&self, x: u64, width: usize, salt: u64) -> Vec<u8> {
        let mut rng =
            SplitMix64::for_stream(self.seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f), x);
        let mut out = vec![0u8; width];
        for chunk in out.chunks_mut(8) {
            let bytes = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        out
    }
}

/// A guesser that is correct with exactly probability `q` (per input).
///
/// This is a *simulation oracle*: to decide whether a guess is lucky it
/// consults the true `f(x)` internally. The consultation is **not** charged
/// to the cheater's cost ledger — it models luck, not work. With
/// probability `q` it returns the true result; otherwise it returns a value
/// guaranteed to differ (the true result with one byte perturbed, matching
/// Theorem 3's event structure exactly).
///
/// # Examples
///
/// ```
/// use ugc_task::{ComputeTask, Guesser, LuckyGuesser};
/// use ugc_task::workloads::PasswordSearch;
///
/// let task = PasswordSearch::with_hidden_password(3, 4);
/// let always = LuckyGuesser::new(task.clone(), 1.0, 99);
/// assert_eq!(always.guess(5, 16), task.compute(5)); // q = 1: always right
/// let never = LuckyGuesser::new(task.clone(), 0.0, 99);
/// assert_ne!(never.guess(5, 16), task.compute(5)); // q = 0: always wrong
/// ```
pub struct LuckyGuesser<T> {
    task: T,
    q: f64,
    seed: u64,
}

impl<T: ComputeTask> LuckyGuesser<T> {
    /// Creates a guesser with success probability `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a probability.
    #[must_use]
    pub fn new(task: T, q: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&q) && q.is_finite(),
            "q must be in [0,1]"
        );
        LuckyGuesser { task, q, seed }
    }

    /// The configured success probability `q`.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }
}

impl<T: ComputeTask> Guesser for LuckyGuesser<T> {
    fn guess_salted(&self, x: u64, width: usize, salt: u64) -> Vec<u8> {
        let stream = self.seed ^ 0x6c75_636b ^ salt.wrapping_mul(0xa076_1d64_78bd_642f);
        let mut rng = SplitMix64::for_stream(stream, x);
        let truth = self.task.compute(x);
        debug_assert_eq!(truth.len(), width);
        if rng.next_f64() < self.q {
            truth
        } else {
            // Guaranteed-wrong value: flip one byte by a nonzero delta.
            let mut wrong = truth;
            let pos = (rng.next_below(width as u64)) as usize;
            let delta = 1 + (rng.next_below(255)) as u8;
            wrong[pos] = wrong[pos].wrapping_add(delta);
            wrong
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl ComputeTask for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn output_width(&self) -> usize {
            8
        }
        fn compute(&self, x: u64) -> Vec<u8> {
            x.to_le_bytes().to_vec()
        }
    }

    #[test]
    fn zero_guesser_is_deterministic() {
        let g = ZeroGuesser::new(5);
        assert_eq!(g.guess(10, 16), g.guess(10, 16));
        assert_ne!(g.guess(10, 16), g.guess(11, 16));
    }

    #[test]
    fn zero_guesser_respects_width() {
        let g = ZeroGuesser::new(5);
        for width in [1usize, 7, 8, 9, 32] {
            assert_eq!(g.guess(3, width).len(), width);
        }
    }

    #[test]
    fn zero_guesser_virtually_never_correct() {
        let g = ZeroGuesser::new(5);
        let hits = (0..1000u64)
            .filter(|&x| g.guess(x, 8) == Echo.compute(x))
            .count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn lucky_guesser_extremes() {
        let always = LuckyGuesser::new(Echo, 1.0, 42);
        let never = LuckyGuesser::new(Echo, 0.0, 42);
        for x in 0..100u64 {
            assert_eq!(always.guess(x, 8), Echo.compute(x));
            assert_ne!(never.guess(x, 8), Echo.compute(x));
        }
    }

    #[test]
    fn lucky_guesser_hits_q_statistically() {
        let q = 0.5;
        let g = LuckyGuesser::new(Echo, q, 7);
        let n = 20_000u64;
        let hits = (0..n).filter(|&x| g.guess(x, 8) == Echo.compute(x)).count() as f64;
        let rate = hits / n as f64;
        // 3-sigma band for a binomial with p = 0.5, n = 20000 is ±0.0106.
        assert!((rate - q).abs() < 0.015, "rate {rate} too far from q={q}");
    }

    #[test]
    fn lucky_guesser_is_deterministic() {
        let a = LuckyGuesser::new(Echo, 0.3, 9);
        let b = LuckyGuesser::new(Echo, 0.3, 9);
        for x in 0..50u64 {
            assert_eq!(a.guess(x, 8), b.guess(x, 8));
        }
    }

    #[test]
    #[should_panic(expected = "q must be in [0,1]")]
    fn invalid_q_rejected() {
        let _ = LuckyGuesser::new(Echo, 1.5, 0);
    }

    #[test]
    fn salt_rerolls_zero_guesses() {
        let g = ZeroGuesser::new(3);
        assert_ne!(g.guess_salted(5, 8, 0), g.guess_salted(5, 8, 1));
        assert_eq!(g.guess_salted(5, 8, 2), g.guess_salted(5, 8, 2));
        assert_eq!(g.guess(5, 8), g.guess_salted(5, 8, 0));
    }

    #[test]
    fn salt_rerolls_luck_but_not_truth() {
        // With q = 0.5 the same input must flip between lucky and unlucky
        // across salts, and a lucky guess is always the truth.
        let g = LuckyGuesser::new(Echo, 0.5, 11);
        let truth = Echo.compute(9);
        let outcomes: Vec<bool> = (0..64u64)
            .map(|salt| g.guess_salted(9, 8, salt) == truth)
            .collect();
        assert!(outcomes.iter().any(|&b| b), "never lucky across 64 salts");
        assert!(outcomes.iter().any(|&b| !b), "always lucky across 64 salts");
    }

    #[test]
    fn boxed_guesser_delegates() {
        let boxed: Box<dyn Guesser> = Box::new(ZeroGuesser::new(4));
        assert_eq!(boxed.guess(1, 8), ZeroGuesser::new(4).guess(1, 8));
    }
}
