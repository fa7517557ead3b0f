//! Per-actor cost accounting.
//!
//! The paper compares schemes along several cost axes: evaluations of `f`
//! (`C_f` units), hash operations for tree building and verification,
//! evaluations of the sample generator `g` (`C_g` units, central to the
//! Eq. (5) economics) and communication. A [`CostLedger`] collects all of
//! them for one actor; experiment tables are printed from ledger snapshots.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Default)]
struct Inner {
    f_evals: AtomicU64,
    hash_ops: AtomicU64,
    g_evals: AtomicU64,
    verify_ops: AtomicU64,
}

/// Thread-safe cost accumulator. Clones share the same counters.
///
/// # Examples
///
/// ```
/// use ugc_grid::CostLedger;
///
/// let ledger = CostLedger::new();
/// ledger.charge_f(100);
/// ledger.charge_hash(7);
/// let report = ledger.report();
/// assert_eq!(report.f_evals, 100);
/// assert_eq!(report.hash_ops, 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CostLedger {
    inner: Arc<Inner>,
}

impl CostLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `n` evaluations of the task function `f`.
    pub fn charge_f(&self, n: u64) {
        self.inner.f_evals.fetch_add(n, Ordering::Relaxed);
    }

    /// Charges `n` unit hash invocations (tree building, path checks): a
    /// count of work, the same however many threads or lanes it was spread
    /// over.
    pub fn charge_hash(&self, n: u64) {
        self.inner.hash_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Charges `n` unit-hash invocations spent inside the sample generator
    /// `g` (so a `g = MD5^k` evaluation charges `k`).
    pub fn charge_g(&self, n: u64) {
        self.inner.g_evals.fetch_add(n, Ordering::Relaxed);
    }

    /// Charges `n` result verifications (supervisor-side `f(x)` checks).
    pub fn charge_verify(&self, n: u64) {
        self.inner.verify_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot of all counters.
    #[must_use]
    pub fn report(&self) -> CostReport {
        CostReport {
            f_evals: self.inner.f_evals.load(Ordering::Relaxed),
            hash_ops: self.inner.hash_ops.load(Ordering::Relaxed),
            g_evals: self.inner.g_evals.load(Ordering::Relaxed),
            verify_ops: self.inner.verify_ops.load(Ordering::Relaxed),
        }
    }
}

/// Wall-clock throughput of a concurrent run: how many sessions finished
/// and how many supervisor-side bytes moved per second of real time.
///
/// Unlike [`CostReport`], which counts deterministic protocol work and is
/// compared bit for bit across transports, throughput measures the
/// machine and varies run to run — so it lives beside the ledger, never
/// inside an equality-checked report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Throughput {
    /// Wall-clock time of the measured run.
    pub wall: Duration,
    /// Verification sessions completed (attempts, including retried
    /// ones).
    pub sessions: u64,
    /// Supervisor-side bytes moved (sent + received) by attempts that
    /// settled successfully. Failed attempts are excluded: their traffic
    /// is cut off mid-protocol by the failure, and how much of it the
    /// supervisor observed before the cut is a scheduling race — the
    /// successful-attempt total is the part that replays bit-identically.
    pub bytes: u64,
}

impl Throughput {
    /// Sessions completed per wall-clock second (0 for an empty window).
    #[must_use]
    pub fn sessions_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.sessions as f64 / secs
        } else {
            0.0
        }
    }

    /// Supervisor-side bytes moved per wall-clock second.
    #[must_use]
    pub fn bytes_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.bytes as f64 / secs
        } else {
            0.0
        }
    }
}

impl core::fmt::Display for Throughput {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} sessions in {:.3}s ({:.1} sessions/s, {:.1} KiB/s)",
            self.sessions,
            self.wall.as_secs_f64(),
            self.sessions_per_sec(),
            self.bytes_per_sec() / 1024.0
        )
    }
}

/// An immutable snapshot of a [`CostLedger`]: the paper's four axes, each
/// a count of work, never of the host that did it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostReport {
    /// Task-function evaluations.
    pub f_evals: u64,
    /// Unit hash invocations (total work, regardless of parallelism).
    pub hash_ops: u64,
    /// Unit hashes spent in the sample generator `g`.
    pub g_evals: u64,
    /// Supervisor-side result verifications.
    pub verify_ops: u64,
}

impl CostReport {
    /// Component-wise sum of two reports, saturating: a total replayed
    /// from an outside journal can never overflow.
    #[must_use]
    pub fn combined(self, other: CostReport) -> CostReport {
        CostReport {
            f_evals: self.f_evals.saturating_add(other.f_evals),
            hash_ops: self.hash_ops.saturating_add(other.hash_ops),
            g_evals: self.g_evals.saturating_add(other.g_evals),
            verify_ops: self.verify_ops.saturating_add(other.verify_ops),
        }
    }
}

impl core::fmt::Display for CostReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "f={} hash={} g={} verify={}",
            self.f_evals, self.hash_ops, self.g_evals, self.verify_ops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let l = CostLedger::new();
        l.charge_f(3);
        l.charge_f(4);
        l.charge_hash(10);
        l.charge_g(5);
        l.charge_verify(2);
        assert_eq!(
            l.report(),
            CostReport {
                f_evals: 7,
                hash_ops: 10,
                g_evals: 5,
                verify_ops: 2
            }
        );
    }

    #[test]
    fn clones_share_counters() {
        let l = CostLedger::new();
        let l2 = l.clone();
        l2.charge_f(9);
        assert_eq!(l.report().f_evals, 9);
    }

    #[test]
    fn combined_adds() {
        let a = CostReport {
            f_evals: 1,
            hash_ops: 2,
            g_evals: 3,
            verify_ops: 4,
        };
        let b = CostReport {
            f_evals: 10,
            hash_ops: 20,
            g_evals: 30,
            verify_ops: 40,
        };
        assert_eq!(
            a.combined(b),
            CostReport {
                f_evals: 11,
                hash_ops: 22,
                g_evals: 33,
                verify_ops: 44
            }
        );
    }

    #[test]
    fn display_lists_all_axes() {
        let l = CostLedger::new();
        l.charge_f(1);
        assert_eq!(l.report().to_string(), "f=1 hash=0 g=0 verify=0");
    }

    #[test]
    fn concurrent_charging() {
        let l = CostLedger::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let ledger = l.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        ledger.charge_hash(1);
                    }
                });
            }
        });
        assert_eq!(l.report().hash_ops, 8000);
    }
}
