//! Thread-count configuration for the parallel build paths.
//!
//! Commitment construction is the participant's dominant cost (Section 3.1
//! of the paper builds `Φ(R)` over all `n` results), and it parallelises
//! almost perfectly: the padded leaf row splits into per-thread subtrees
//! hashed independently, with only the top `log(threads)` levels folded
//! serially. [`Parallelism`] is the knob every parallel entry point in
//! this workspace takes — [`MerkleTree::build_with`](crate::MerkleTree::build_with)
//! and [`MerkleTree::from_leaf_row`](crate::MerkleTree::from_leaf_row)
//! here, and (re-exported through `ugc-core`) the scheme layer's
//! participant builds. How a build was split is known to the tree's
//! level walk and to nothing else: no count, report or digest records it.

/// How many worker threads a parallel operation may use.
///
/// The default is one thread per available hardware core. All parallel
/// code paths in this workspace are *deterministic regardless of the
/// thread count*: results — digests, proofs, operation counts, ledgers —
/// are bit-identical to the serial path, so this knob trades wall-clock
/// time only.
///
/// # Examples
///
/// ```
/// use ugc_merkle::Parallelism;
///
/// assert!(Parallelism::default().get() >= 1);
/// assert_eq!(Parallelism::serial().get(), 1);
/// assert_eq!(Parallelism::threads(4).get(), 4);
/// assert_eq!(Parallelism::threads(0).get(), 1); // clamped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    /// Worker count, always ≥ 1.
    threads: usize,
}

impl Parallelism {
    /// Exactly `n` worker threads (clamped to at least 1).
    #[must_use]
    pub fn threads(n: usize) -> Self {
        Parallelism { threads: n.max(1) }
    }

    /// Single-threaded execution.
    #[must_use]
    pub fn serial() -> Self {
        Self::threads(1)
    }

    /// One worker per available hardware core (the default), read from
    /// the host once per process: on Linux each read re-parses cgroup
    /// files, and a joined participant opens a slot per task.
    #[must_use]
    pub fn available() -> Self {
        static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "the one read of the host's core count in ugc-merkle, memoised: execution layout, never a digest input"
        )]
        let cores = *CORES.get_or_init(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        Self::threads(cores)
    }

    /// The configured worker count (≥ 1).
    #[must_use]
    pub fn get(self) -> usize {
        self.threads
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::available()
    }
}

/// Number of independent leaf-row subtrees a parallel build splits into:
/// the largest power of two ≤ `threads`, capped so every subtree keeps at
/// least two leaves.
pub(crate) fn subtree_chunks(threads: usize, padded: u64) -> u64 {
    let t = threads.max(1) as u64;
    let floor_pow2 = 1u64 << (63 - t.leading_zeros());
    floor_pow2.min(padded / 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_at_least_one() {
        assert!(Parallelism::default().get() >= 1);
    }

    #[test]
    fn chunks_round_down_to_powers_of_two() {
        assert_eq!(subtree_chunks(1, 1 << 20), 1);
        assert_eq!(subtree_chunks(2, 1 << 20), 2);
        assert_eq!(subtree_chunks(3, 1 << 20), 2);
        assert_eq!(subtree_chunks(4, 1 << 20), 4);
        assert_eq!(subtree_chunks(7, 1 << 20), 4);
        assert_eq!(subtree_chunks(8, 1 << 20), 8);
    }

    #[test]
    fn chunks_capped_by_tree_size() {
        // Every subtree must keep ≥ 2 leaves.
        assert_eq!(subtree_chunks(8, 2), 1);
        assert_eq!(subtree_chunks(8, 4), 2);
        assert_eq!(subtree_chunks(8, 8), 4);
        assert_eq!(subtree_chunks(64, 16), 8);
    }
}
