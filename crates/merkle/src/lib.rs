//! Merkle commitment trees for uncheatable grid computing.
//!
//! This crate implements the commitment structure at the centre of the
//! Commitment-Based Sampling (CBS) scheme of Du, Jia, Mangal and Murugesan
//! (*Uncheatable Grid Computing*, ICDCS 2004):
//!
//! * [`MerkleTree`] — the tree of Section 3.1. Leaves hold the raw
//!   computation results `Φ(L_i) = f(x_i)`; every internal node holds
//!   `Φ(V) = hash(Φ(V_left) || Φ(V_right))` (Eq. 1). The root is the
//!   participant's commitment. One type covers both ways of keeping it:
//!   resident in full ([`MerkleTree::from_leaf_row`], where
//!   [`build`](MerkleTree::build), [`build_with`](MerkleTree::build_with)
//!   and [`from_leaf_fn`](MerkleTree::from_leaf_fn) end), or — the
//!   storage-usage improvement of Section 3.3 — only down to depth
//!   `H − ℓ` ([`MerkleTree::build_truncated`]), rebuilding the height-`ℓ`
//!   subtree around a sample on demand ([`MerkleTree::prove_with`],
//!   costed in [`RebuildStats`]): `O(2^ℓ)` recomputation per proof for a
//!   `2^ℓ`-fold storage reduction, same root, same proof bytes. Every
//!   build is one level walk over power-of-two chunks of the padded leaf
//!   row; what differs is how many chunks there are and what is kept of
//!   each.
//! * [`MerkleProof`] — the per-sample *proof of honesty*: `f(x_i)` plus the
//!   `Φ` values of the siblings along the leaf-to-root path
//!   (`λ_1 … λ_H`). [`MerkleProof::verify`] is the supervisor's
//!   reconstruction `Λ(f(x), λ_1, …, λ_H) = Φ(R′)` compared against the
//!   commitment: the paper's Step 3 and 4 for one sample, and the
//!   reference the opening is tested against.
//! * [`MerkleOpening`] — the proof of honesty for all `m` samples of a
//!   round as one object ([`MerkleTree::open`], [`MerkleTree::open_with`]):
//!   the `m` paths with every sibling left out that another sampled leaf
//!   or an already rebuilt node supplies, in an order both sides derive
//!   from the sampled indices alone ([`LeafSet`]). The verifier checks the
//!   row lengths that set dictates ([`MerkleOpening::check_shape`]) and
//!   only then ([`CheckedOpening`]) rebuilds the root level by level, every level one batch through the digest
//!   lane kernels, straight from borrowed wire bytes, hashing each node
//!   on the way up once ([`OpeningShape::hash_ops`]).
//! * [`Parallelism`] and [`LaneWidth`] — the two execution knobs of the
//!   resident build: the padded leaf row splits into per-thread subtrees
//!   hashed independently with the top `log(threads)` levels folded
//!   serially, and each level goes through the message-parallel digest
//!   kernels. Both trade wall-clock time only: digests, proofs and
//!   [`MerkleTree::hash_ops`] are those of the serial scalar build at any
//!   setting, so nothing a tree reports depends on the host that built it.
//!
//! # Tree shape
//!
//! The paper assumes a complete binary tree. This implementation pads the
//! leaf count to the next power of two (minimum 2) with all-zero leaves.
//! Padding leaves are never sampled by the CBS protocol — sample indices are
//! drawn from the real domain `[0, n)` — so padding affects only the root
//! value, not the security argument.
//!
//! # Examples
//!
//! The Fig. 1 walk-through of the paper: eight leaves, sample `x_3`
//! (0-indexed leaf 2), siblings `L4, A, D, F`:
//!
//! ```
//! use ugc_merkle::MerkleTree;
//! use ugc_hash::Sha256;
//!
//! let results: Vec<[u8; 8]> = (0u64..8).map(|x| (x * x).to_le_bytes()).collect();
//! let tree: MerkleTree<Sha256> = MerkleTree::build(&results)?;
//! let commitment = tree.root();
//!
//! let proof = tree.prove(2)?;
//! assert!(proof.verify(&commitment, &results[2]));
//! assert!(!proof.verify(&commitment, &0u64.to_le_bytes())); // wrong f(x)
//! # Ok::<(), ugc_merkle::MerkleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod opening;
mod parallel;
mod partial;
mod proof;
mod tree;

pub use error::MerkleError;
pub use opening::{CheckedOpening, LeafSet, MerkleOpening, OpeningRow, OpeningShape};
pub use parallel::Parallelism;
pub use partial::RebuildStats;
pub use proof::MerkleProof;
pub use tree::MerkleTree;
pub use ugc_hash::LaneWidth;

/// Rounds `n` up to the padded leaf count used by every tree in this crate:
/// the next power of two, and at least 2.
///
/// # Examples
///
/// ```
/// assert_eq!(ugc_merkle::padded_leaf_count(1), 2);
/// assert_eq!(ugc_merkle::padded_leaf_count(5), 8);
/// assert_eq!(ugc_merkle::padded_leaf_count(8), 8);
/// ```
#[must_use]
pub fn padded_leaf_count(n: u64) -> u64 {
    n.max(2).next_power_of_two()
}

/// Height `H = log₂(padded leaf count)` of the tree over `n` leaves.
///
/// A proof for any leaf carries exactly `H` sibling values (`λ_1 … λ_H` in
/// the paper): one raw leaf plus `H − 1` digests.
///
/// # Examples
///
/// ```
/// assert_eq!(ugc_merkle::tree_height(2), 1);
/// assert_eq!(ugc_merkle::tree_height(1024), 10);
/// assert_eq!(ugc_merkle::tree_height(1025), 11);
/// ```
#[must_use]
pub fn tree_height(n: u64) -> u32 {
    padded_leaf_count(n).trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_rounds_up() {
        assert_eq!(padded_leaf_count(0), 2);
        assert_eq!(padded_leaf_count(1), 2);
        assert_eq!(padded_leaf_count(2), 2);
        assert_eq!(padded_leaf_count(3), 4);
        assert_eq!(padded_leaf_count(1 << 20), 1 << 20);
        assert_eq!(padded_leaf_count((1 << 20) + 1), 1 << 21);
    }

    #[test]
    fn heights() {
        assert_eq!(tree_height(1), 1);
        assert_eq!(tree_height(8), 3);
        assert_eq!(tree_height(9), 4);
    }
}
