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
//! them — spin-yield first, then sleep on an exponential ladder
//! (10 µs → 100 µs → 1 ms) — and resets to the hot state the moment
//! traffic resumes.

use std::time::Duration;

/// How many idle sweeps spin-yield before the loop starts sleeping.
const YIELD_SWEEPS: u32 = 32;
/// Sweeps spent at each sleep rung before escalating to the next.
const SWEEPS_PER_RUNG: u32 = 8;

/// The sleep rungs, in microseconds; the last one is held.
const LADDER_MICROS: [u64; 3] = [10, 100, 1_000];

/// Exponential idle backoff: yield, then sleep up the ladder
/// (10 µs → 100 µs → 1 ms, held at the cap).
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
}

impl Backoff {
    /// A fresh (hot) backoff.
    #[must_use]
    pub const fn new() -> Self {
        Backoff { step: 0 }
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
    /// The returned durations climb the ladder and then hold at its cap
    /// until [`reset`](Self::reset).
    pub fn pause(&mut self) -> Option<Duration> {
        let step = self.step;
        self.step = self.step.saturating_add(1);
        if step < YIELD_SWEEPS {
            return None;
        }
        let rung = ((step - YIELD_SWEEPS) / SWEEPS_PER_RUNG) as usize;
        Some(Duration::from_micros(
            LADDER_MICROS[rung.min(LADDER_MICROS.len() - 1)],
        ))
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
        let mut backoff = Backoff { step: u32::MAX - 1 };
        assert_eq!(backoff.pause(), Some(Duration::from_millis(1)));
        assert_eq!(backoff.pause(), Some(Duration::from_millis(1)));
        assert_eq!(backoff.pause(), Some(Duration::from_millis(1)));
    }
}
