//! Shared idle-backoff policy for the loops that still have to poll.
//!
//! Wherever a link can announce its own mail the stack sleeps on a
//! [`Doorbell`](crate::Doorbell) instead — the broker pump (in-process
//! and over TCP alike), the direct engine transport and the scheduler's
//! mail-woken tasks never poll. What is left has nothing to block on: an
//! engine enforcing per-session deadlines (`poll_with_deadline` must
//! look at the clock between looks at the transport), a supervisor
//! driving several blocking endpoints (`recv_any`), a TCP reader thread
//! waiting for its inbound queue to fall back under the high-water mark,
//! and scheduler tasks that have no wake source. Those loops face one
//! trade-off: react to traffic in nanoseconds while it is flowing, but
//! stop burning a core once the peers are deep in compute (tree builds
//! take seconds at scale). [`Backoff`] encodes one policy for all of
//! them — spin-yield first, then sleep on an exponential ladder — and
//! resets to the hot state the moment traffic resumes. The ladder's shape
//! (where the sleeps start and where they cap) is a [`BackoffPolicy`]:
//! the default is 10 µs → 100 µs → 1 ms, and deployments whose
//! latency/CPU trade-off differs (a battery-bound participant, a
//! latency-critical broker) tune it through
//! [`RuntimeOptions::with_backoff`](crate::runtime::RuntimeOptions::with_backoff).

use std::time::Duration;

/// How many idle sweeps spin-yield before the loop starts sleeping.
const YIELD_SWEEPS: u32 = 32;
/// Sweeps spent at each sleep rung before escalating to the next.
const SWEEPS_PER_RUNG: u32 = 8;

/// The shape of the sleep ladder: the first rung and the cap, in
/// microseconds. Rungs climb ×10 from `initial_micros` and clamp at
/// `cap_micros`; zero values are treated as 1 µs (a ladder must sleep
/// *some* positive time once it stops spinning).
///
/// # Examples
///
/// ```
/// use ugc_grid::BackoffPolicy;
///
/// // The default ladder: 10 µs → 100 µs → 1 ms cap.
/// assert_eq!(BackoffPolicy::default(), BackoffPolicy::new(10, 1_000));
/// // A snappier ladder for latency-critical pumps: 1 µs → 10 µs → 50 µs.
/// let fast = BackoffPolicy::new(1, 50);
/// assert_eq!(fast.initial_micros, 1);
/// assert_eq!(fast.cap_micros, 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Sleep length of the first rung, in microseconds.
    pub initial_micros: u64,
    /// Upper bound every rung clamps to, in microseconds.
    pub cap_micros: u64,
}

impl BackoffPolicy {
    /// A ladder starting at `initial_micros` and capping at `cap_micros`.
    #[must_use]
    pub const fn new(initial_micros: u64, cap_micros: u64) -> Self {
        BackoffPolicy {
            initial_micros,
            cap_micros,
        }
    }

    /// The sleep length of rung `rung` (0-based): `initial × 10^rung`,
    /// saturating, clamped to the cap.
    fn rung_micros(self, rung: u32) -> u64 {
        let cap = self.cap_micros.max(1);
        let mut micros = self.initial_micros.max(1);
        let mut climbed = 0;
        while climbed < rung && micros < cap {
            micros = micros.saturating_mul(10);
            climbed += 1;
        }
        micros.min(cap)
    }
}

impl Default for BackoffPolicy {
    /// The historical ladder: 10 µs first rung, 1 ms cap.
    fn default() -> Self {
        BackoffPolicy::new(10, 1_000)
    }
}

/// Exponential idle backoff: yield, then sleep up the policy's ladder
/// (10 µs → 100 µs → 1 ms by default).
///
/// Call [`wait`](Self::wait) on every idle sweep and
/// [`reset`](Self::reset) whenever the loop makes progress. The schedule
/// itself is exposed through [`pause`](Self::pause) so it can be unit
/// tested without measuring real sleeps.
///
/// # Examples
///
/// ```
/// use ugc_grid::Backoff;
///
/// let mut backoff = Backoff::new();
/// assert_eq!(backoff.pause(), None); // hot: spin-yield
/// backoff.reset();                   // traffic seen: stay hot
/// assert_eq!(backoff.pause(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Backoff {
    step: u32,
    policy: BackoffPolicy,
}

impl Backoff {
    /// A fresh (hot) backoff on the default ladder.
    #[must_use]
    pub const fn new() -> Self {
        Self::with_policy(BackoffPolicy::new(10, 1_000))
    }

    /// A fresh (hot) backoff climbing `policy`'s ladder.
    #[must_use]
    pub const fn with_policy(policy: BackoffPolicy) -> Self {
        Backoff { step: 0, policy }
    }

    /// Returns to the hot state; call when the loop made progress.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Whether the next sweep would still spin-yield (the loop has not
    /// been idle long enough to start sleeping). Lets callers observe
    /// the ladder state without advancing it.
    #[must_use]
    pub fn is_hot(&self) -> bool {
        self.step < YIELD_SWEEPS
    }

    /// Advances the schedule one idle sweep and returns what the sweep
    /// should do: `None` means spin-yield, `Some(d)` means sleep `d`.
    /// The returned durations climb the policy's ladder and then hold at
    /// its cap until [`reset`](Self::reset).
    pub fn pause(&mut self) -> Option<Duration> {
        let step = self.step;
        self.step = self.step.saturating_add(1);
        if step < YIELD_SWEEPS {
            return None;
        }
        let rung = (step - YIELD_SWEEPS) / SWEEPS_PER_RUNG;
        Some(Duration::from_micros(self.policy.rung_micros(rung)))
    }

    /// Performs one idle sweep: spin-yields while hot, sleeps per the
    /// ladder once the loop has been idle for a while.
    pub fn wait(&mut self) {
        match self.pause() {
            None => std::thread::yield_now(),
            Some(d) => std::thread::sleep(d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_yield_then_exponential_ladder() {
        let mut backoff = Backoff::new();
        for sweep in 0..YIELD_SWEEPS {
            assert_eq!(backoff.pause(), None, "sweep {sweep} must spin-yield");
        }
        for micros in [10, 100, 1_000] {
            for sweep in 0..SWEEPS_PER_RUNG {
                assert_eq!(
                    backoff.pause(),
                    Some(Duration::from_micros(micros)),
                    "rung {micros} µs, sweep {sweep}"
                );
            }
        }
    }

    #[test]
    fn cap_holds_at_one_millisecond() {
        let mut backoff = Backoff::new();
        for _ in 0..(YIELD_SWEEPS + SWEEPS_PER_RUNG * 3) {
            let _ = backoff.pause();
        }
        for _ in 0..1000 {
            assert_eq!(backoff.pause(), Some(Duration::from_millis(1)));
        }
    }

    #[test]
    fn is_hot_tracks_the_yield_phase_without_advancing_it() {
        let mut backoff = Backoff::new();
        assert!(backoff.is_hot());
        for _ in 0..YIELD_SWEEPS {
            assert!(backoff.is_hot(), "observation must not advance the ladder");
            let _ = backoff.pause();
        }
        assert!(!backoff.is_hot(), "past the yield phase the loop sleeps");
        backoff.reset();
        assert!(backoff.is_hot());
    }

    #[test]
    fn reset_returns_to_spinning() {
        let mut backoff = Backoff::new();
        for _ in 0..200 {
            let _ = backoff.pause();
        }
        assert!(backoff.pause().is_some());
        backoff.reset();
        assert_eq!(backoff.pause(), None);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut backoff = Backoff {
            step: u32::MAX - 1,
            policy: BackoffPolicy::default(),
        };
        assert_eq!(backoff.pause(), Some(Duration::from_millis(1)));
        assert_eq!(backoff.pause(), Some(Duration::from_millis(1)));
        assert_eq!(backoff.pause(), Some(Duration::from_millis(1)));
    }

    #[test]
    fn custom_policy_reshapes_the_ladder() {
        let mut backoff = Backoff::with_policy(BackoffPolicy::new(5, 70));
        for _ in 0..YIELD_SWEEPS {
            assert_eq!(backoff.pause(), None);
        }
        // 5 µs → 50 µs → clamped to the 70 µs cap, held forever.
        for micros in [5, 50, 70, 70, 70] {
            for _ in 0..SWEEPS_PER_RUNG {
                assert_eq!(backoff.pause(), Some(Duration::from_micros(micros)));
            }
        }
    }

    #[test]
    fn cap_below_initial_clamps_every_rung() {
        let policy = BackoffPolicy::new(500, 20);
        for rung in 0..10 {
            assert_eq!(policy.rung_micros(rung), 20);
        }
    }

    #[test]
    fn zero_values_are_treated_as_one_microsecond() {
        let policy = BackoffPolicy::new(0, 0);
        assert_eq!(policy.rung_micros(0), 1);
        assert_eq!(policy.rung_micros(5), 1);
        let policy = BackoffPolicy::new(0, 1_000);
        assert_eq!(policy.rung_micros(0), 1);
        assert_eq!(policy.rung_micros(1), 10);
    }

    #[test]
    fn huge_rungs_saturate_at_the_cap() {
        let policy = BackoffPolicy::new(10, u64::MAX);
        // 10 × 10^n saturates u64 without panicking, then holds.
        assert_eq!(policy.rung_micros(200), policy.rung_micros(199));
    }
}
