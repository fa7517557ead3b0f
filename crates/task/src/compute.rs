//! Task handles and evaluation counting.

use crate::{ComputeTask, WidthMismatch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared handle to a compute task, as passed between grid actors.
pub type TaskRef = Arc<dyn ComputeTask>;

/// A thread-safe evaluation counter shared between a [`CountingTask`] and
/// whoever audits it.
///
/// # Examples
///
/// ```
/// use ugc_task::SharedCounter;
///
/// let c = SharedCounter::new();
/// c.add(3);
/// assert_eq!(c.get(), 3);
/// c.reset();
/// assert_eq!(c.get(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedCounter {
    count: Arc<AtomicU64>,
}

impl SharedCounter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
    }
}

/// Wraps a task and counts every `f` evaluation through it.
///
/// The experiment harness wraps each participant's task in one of these so
/// measured costs (e.g. the `2^ℓ` subtree-rebuild evaluations of Section
/// 3.3, or a retry attacker's total work) come from actual call counts, not
/// from formulas.
///
/// # Examples
///
/// ```
/// use ugc_task::{ComputeTask, CountingTask};
/// use ugc_task::workloads::PasswordSearch;
///
/// let counted = CountingTask::new(PasswordSearch::with_hidden_password(1, 5));
/// let _ = counted.compute(0);
/// let _ = counted.compute(1);
/// assert_eq!(counted.evaluations(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CountingTask<T> {
    inner: T,
    counter: SharedCounter,
}

impl<T: ComputeTask> CountingTask<T> {
    /// Wraps `inner` with a fresh counter.
    #[must_use]
    pub fn new(inner: T) -> Self {
        CountingTask {
            inner,
            counter: SharedCounter::new(),
        }
    }

    /// Wraps `inner`, recording evaluations into an existing counter.
    #[must_use]
    pub fn with_counter(inner: T, counter: SharedCounter) -> Self {
        CountingTask { inner, counter }
    }

    /// Number of `compute` calls so far.
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.counter.get()
    }

    /// Handle to the underlying counter.
    #[must_use]
    pub fn counter(&self) -> SharedCounter {
        self.counter.clone()
    }

    /// The wrapped task.
    #[must_use]
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: ComputeTask> ComputeTask for CountingTask<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn output_width(&self) -> usize {
        self.inner.output_width()
    }

    fn compute(&self, x: u64) -> Vec<u8> {
        self.counter.add(1);
        self.inner.compute(x)
    }

    fn compute_into(&self, xs: &[u64], out: &mut [u8]) -> Result<(), WidthMismatch> {
        // One tick per input, exactly as the scalar path counts, so
        // batched and unbatched runs report identical evaluation totals.
        self.counter.add(xs.len() as u64);
        self.inner.compute_into(xs, out)
    }

    fn verify(&self, x: u64, claimed: &[u8]) -> bool {
        // Verification cost is tracked by the caller's ledger, not the
        // evaluation counter: cheap verifiers do not evaluate f.
        self.inner.verify(x, claimed)
    }

    fn cheap_verification(&self) -> bool {
        self.inner.cheap_verification()
    }

    fn unit_cost(&self) -> u64 {
        self.inner.unit_cost()
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
    fn counts_compute_calls() {
        let t = CountingTask::new(Echo);
        for x in 0..10 {
            let _ = t.compute(x);
        }
        assert_eq!(t.evaluations(), 10);
    }

    #[test]
    fn shared_counter_is_shared() {
        let counter = SharedCounter::new();
        let a = CountingTask::with_counter(Echo, counter.clone());
        let b = CountingTask::with_counter(Echo, counter.clone());
        let _ = a.compute(1);
        let _ = b.compute(2);
        assert_eq!(counter.get(), 2);
    }

    #[test]
    fn counter_threads() {
        let counter = SharedCounter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = counter.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(counter.get(), 4000);
    }

    #[test]
    fn batch_counts_one_tick_per_input() {
        let t = CountingTask::new(Echo);
        let xs: Vec<u64> = (0..13).collect();
        let batched = t.compute_batch(&xs);
        assert_eq!(t.evaluations(), 13);
        let scalar: Vec<Vec<u8>> = xs.iter().map(|&x| t.compute(x)).collect();
        assert_eq!(batched, scalar);
        assert_eq!(t.evaluations(), 26);
    }

    #[test]
    fn default_verify_not_counted() {
        let t = CountingTask::new(Echo);
        assert!(t.verify(3, &3u64.to_le_bytes()));
        assert_eq!(t.evaluations(), 0, "verify must not tick the f counter");
    }

    #[test]
    fn delegates_metadata() {
        let t = CountingTask::new(Echo);
        assert_eq!(t.name(), "echo");
        assert_eq!(t.output_width(), 8);
        assert_eq!(t.unit_cost(), 1);
        assert!(!t.cheap_verification());
    }
}
