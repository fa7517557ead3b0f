//! The storage-usage improvement of Section 3.3 of the paper.
//!
//! Instead of holding the whole `O(|D|)` tree, the participant stores only
//! the top `H − ℓ` levels
//! ([`MerkleTree::build_truncated`](crate::MerkleTree::build_truncated)).
//! Proving a sample then requires rebuilding the height-`ℓ` subtree
//! containing the sampled leaf
//! ([`MerkleTree::prove_with`](crate::MerkleTree::prove_with)) —
//! recomputing `f` for its `2^ℓ` inputs — which is the time/storage
//! trade-off the paper quantifies as `rco = 2m/S`: `m` samples, `m`
//! rebuilds. Opening a round's samples together
//! ([`MerkleTree::open_with`](crate::MerkleTree::open_with)) rebuilds
//! each subtree they fall in once, so `2m/S` is what a round costs at
//! most. All three calls are the tree's own; this module holds the cost
//! record they report and the tests that pin the trade-off.

/// Cost of the on-demand subtree rebuilds of one
/// [`MerkleTree::prove_with`](crate::MerkleTree::prove_with) (one
/// subtree) or [`MerkleTree::open_with`](crate::MerkleTree::open_with)
/// (every distinct subtree its leaves fall in, once each).
///
/// In the paper's accounting, the dominant term is `leaves_recomputed`
/// evaluations of `f` (up to `2^ℓ` per rebuilt subtree; fewer only at
/// the padded tail of the domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebuildStats {
    /// Calls made to the leaf provider (i.e., recomputations of `f`).
    pub leaves_recomputed: u64,
    /// Hash invocations spent rebuilding (`2^ℓ − 1` per subtree).
    pub hash_ops: u64,
}

impl RebuildStats {
    /// Accumulates another rebuild's costs into this one.
    pub fn absorb(&mut self, other: RebuildStats) {
        self.leaves_recomputed += other.leaves_recomputed;
        self.hash_ops += other.hash_ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MerkleError, MerkleTree};
    use ugc_hash::{Md5, Sha256};

    fn f(x: u64) -> Vec<u8> {
        x.wrapping_mul(0x0123_4567_89ab_cdef).to_le_bytes().to_vec()
    }

    #[test]
    fn root_matches_full_tree_all_levels() {
        let n = 64;
        let full: MerkleTree<Sha256> = MerkleTree::from_leaf_fn(n, 8, f).unwrap();
        for ell in 1..=6u32 {
            let partial: MerkleTree<Sha256> = MerkleTree::build_truncated(n, 8, ell, f).unwrap();
            assert_eq!(partial.root(), full.root(), "ℓ={ell}");
        }
    }

    #[test]
    fn root_matches_full_tree_unpadded_sizes() {
        for n in [3u64, 5, 17, 33, 100] {
            let full: MerkleTree<Sha256> = MerkleTree::from_leaf_fn(n, 8, f).unwrap();
            let partial: MerkleTree<Sha256> = MerkleTree::build_truncated(n, 8, 2, f).unwrap();
            assert_eq!(partial.root(), full.root(), "n={n}");
        }
    }

    #[test]
    fn proofs_identical_to_full_tree() {
        let n = 32;
        let full: MerkleTree<Md5> = MerkleTree::from_leaf_fn(n, 8, f).unwrap();
        let partial: MerkleTree<Md5> = MerkleTree::build_truncated(n, 8, 3, f).unwrap();
        for i in 0..n {
            let full_proof = full.prove(i).unwrap();
            let (partial_proof, _) = partial.prove_with(i, f).unwrap();
            assert_eq!(partial_proof, full_proof, "leaf {i}");
            assert!(partial_proof.verify(&full.root(), &f(i)));
        }
    }

    #[test]
    fn rebuild_cost_is_two_to_ell() {
        let n = 256;
        for ell in 1..=8u32 {
            let partial: MerkleTree<Sha256> = MerkleTree::build_truncated(n, 8, ell, f).unwrap();
            let (_, stats) = partial.prove_with(0, f).unwrap();
            assert_eq!(stats.leaves_recomputed, 1 << ell, "ℓ={ell}");
            assert_eq!(stats.hash_ops, (1 << ell) - 1, "ℓ={ell}");
        }
    }

    #[test]
    fn storage_shrinks_by_two_to_ell() {
        let n = 1 << 10;
        for ell in 1..=10u32 {
            let partial: MerkleTree<Sha256> = MerkleTree::build_truncated(n, 8, ell, f).unwrap();
            assert_eq!(partial.stored_node_count(), (1 << (10 - ell + 1)) - 1);
            assert_eq!(partial.paper_storage_units(), 1 << (10 - ell + 1));
        }
    }

    #[test]
    fn build_computes_each_leaf_once() {
        let n = 100;
        let calls = std::cell::Cell::new(0u64);
        let counted = |x: u64| {
            calls.set(calls.get() + 1);
            f(x)
        };
        let partial: MerkleTree<Sha256> = MerkleTree::build_truncated(n, 8, 3, counted).unwrap();
        assert_eq!(calls.get(), n);
        assert_eq!(partial.build_stats().leaves_recomputed, n);
    }

    #[test]
    fn subtree_height_bounds() {
        assert!(matches!(
            MerkleTree::<Sha256>::build_truncated(16, 8, 0, f).unwrap_err(),
            MerkleError::SubtreeHeightOutOfRange { .. }
        ));
        assert!(matches!(
            MerkleTree::<Sha256>::build_truncated(16, 8, 5, f).unwrap_err(),
            MerkleError::SubtreeHeightOutOfRange { .. }
        ));
        // ℓ = H stores the root only and rebuilds everything.
        let partial: MerkleTree<Sha256> = MerkleTree::build_truncated(16, 8, 4, f).unwrap();
        let full: MerkleTree<Sha256> = MerkleTree::from_leaf_fn(16, 8, f).unwrap();
        assert_eq!(partial.root(), full.root());
        let (_, stats) = partial.prove_with(7, f).unwrap();
        assert_eq!(stats.leaves_recomputed, 16);
    }

    #[test]
    fn inconsistent_provider_detected() {
        let partial: MerkleTree<Sha256> = MerkleTree::build_truncated(32, 8, 3, f).unwrap();
        let bad = |x: u64| if x == 9 { vec![0xFFu8; 8] } else { f(x) };
        // Leaf 9 lives in subtree 1 (indices 8..16).
        assert_eq!(
            partial.prove_with(10, bad).unwrap_err(),
            MerkleError::ProviderMismatch { subtree_index: 1 }
        );
        // Other subtrees are unaffected.
        assert!(partial.prove_with(20, bad).is_ok());
    }

    #[test]
    fn prove_out_of_range() {
        let partial: MerkleTree<Sha256> = MerkleTree::build_truncated(10, 8, 2, f).unwrap();
        assert!(matches!(
            partial.prove_with(10, f).unwrap_err(),
            MerkleError::IndexOutOfRange { .. }
        ));
    }

    #[test]
    fn tail_subtree_recomputes_only_real_leaves() {
        // n = 10 pads to 16; with ℓ = 2 the subtree over leaves 8..12
        // holds 2 real + 2 padding leaves … wait: 10 real leaves, so
        // subtree 2 (leaves 8..12) has real leaves 8 and 9 only.
        let partial: MerkleTree<Sha256> = MerkleTree::build_truncated(10, 8, 2, f).unwrap();
        let (_, stats) = partial.prove_with(9, f).unwrap();
        assert_eq!(stats.leaves_recomputed, 2);
    }

    #[test]
    fn rco_formula_matches_measured() {
        // Section 3.3: rco = m · 2^ℓ / 2^H. Measure it.
        let n: u64 = 1 << 12;
        let h = 12u32;
        let m = 16u64;
        for ell in [2u32, 4, 6] {
            let partial: MerkleTree<Sha256> = MerkleTree::build_truncated(n, 8, ell, f).unwrap();
            let mut total = RebuildStats::default();
            for s in 0..m {
                let idx = (s * 997) % n; // arbitrary in-range samples
                let (_, stats) = partial.prove_with(idx, f).unwrap();
                total.absorb(stats);
            }
            let measured_rco = total.leaves_recomputed as f64 / n as f64;
            let formula = (m as f64) * f64::from(1u32 << ell) / f64::from(1u32 << h);
            assert!(
                (measured_rco - formula).abs() < 1e-12,
                "ℓ={ell}: measured {measured_rco}, formula {formula}"
            );
        }
    }
}
