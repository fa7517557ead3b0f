//! Error type for Merkle-tree construction and proof generation.

use crate::OpeningRow;
use core::fmt;

/// Errors produced by Merkle-tree operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MerkleError {
    /// A tree was requested over zero leaves.
    EmptyTree,
    /// A leaf had a different width than the first leaf.
    MixedLeafWidth {
        /// Width of the first leaf, which fixes the tree's leaf width.
        expected: usize,
        /// Width of the offending leaf.
        found: usize,
        /// Index of the offending leaf.
        index: u64,
    },
    /// Leaves must carry at least one byte of computation result.
    ZeroLeafWidth,
    /// A leaf index was outside `[0, leaf_count)`.
    IndexOutOfRange {
        /// The requested index.
        index: u64,
        /// Number of (real) leaves in the tree.
        leaf_count: u64,
    },
    /// The requested unsaved-subtree height `ℓ` is outside `[1, H]`.
    SubtreeHeightOutOfRange {
        /// The requested subtree height.
        subtree_height: u32,
        /// The tree height `H`.
        tree_height: u32,
    },
    /// A rebuilt subtree root did not match the stored digest — the leaf
    /// provider returned different results than at commitment time.
    ProviderMismatch {
        /// Index of the subtree whose root mismatched.
        subtree_index: u64,
    },
    /// [`leaf`](crate::MerkleTree::leaf),
    /// [`prove`](crate::MerkleTree::prove) or
    /// [`update_leaf`](crate::MerkleTree::update_leaf) was called on a tree
    /// that dropped its leaf row at commitment
    /// ([`build_truncated`](crate::MerkleTree::build_truncated)); such a
    /// tree proves through
    /// [`prove_with`](crate::MerkleTree::prove_with) and a leaf provider.
    LeavesNotResident {
        /// The tree's unsaved-subtree height `ℓ ≥ 1`.
        subtree_height: u32,
    },
    /// A [`LeafSet`](crate::LeafSet) was requested over no index at all:
    /// there is nothing to open and no path to the root.
    NoIndices,
    /// A row of a [`MerkleOpening`](crate::MerkleOpening) is not as long
    /// as its [`LeafSet`](crate::LeafSet) dictates — decided from the
    /// lengths alone, before anything is hashed.
    OpeningShape {
        /// The offending row.
        row: OpeningRow,
        /// Entries the index set dictates for this row.
        entries: usize,
        /// Bytes per entry: the leaf width, or the digest length.
        width: usize,
        /// Length of the row as presented, in bytes.
        found: usize,
    },
}

impl fmt::Display for MerkleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MerkleError::EmptyTree => write!(f, "cannot build a Merkle tree over zero leaves"),
            MerkleError::MixedLeafWidth {
                expected,
                found,
                index,
            } => write!(
                f,
                "leaf {index} is {found} bytes but the tree's leaf width is {expected}"
            ),
            MerkleError::ZeroLeafWidth => write!(f, "leaf width must be at least one byte"),
            MerkleError::IndexOutOfRange { index, leaf_count } => {
                write!(f, "leaf index {index} out of range for {leaf_count} leaves")
            }
            MerkleError::SubtreeHeightOutOfRange {
                subtree_height,
                tree_height,
            } => write!(
                f,
                "subtree height {subtree_height} outside [1, {tree_height}]"
            ),
            MerkleError::ProviderMismatch { subtree_index } => write!(
                f,
                "rebuilt subtree {subtree_index} does not match the committed digest"
            ),
            MerkleError::LeavesNotResident { subtree_height } => write!(
                f,
                "the tree keeps no leaf row (subtree height {subtree_height}); \
                 prove through a leaf provider"
            ),
            MerkleError::NoIndices => write!(f, "cannot open an empty set of leaves"),
            MerkleError::OpeningShape {
                row,
                entries,
                width,
                found,
            } => write!(
                f,
                "the opening's {row} row is {found} bytes, not {entries} entries of {width}"
            ),
        }
    }
}

impl std::error::Error for MerkleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            MerkleError::EmptyTree.to_string(),
            "cannot build a Merkle tree over zero leaves"
        );
        assert_eq!(
            MerkleError::MixedLeafWidth {
                expected: 8,
                found: 4,
                index: 3
            }
            .to_string(),
            "leaf 3 is 4 bytes but the tree's leaf width is 8"
        );
        assert_eq!(
            MerkleError::IndexOutOfRange {
                index: 9,
                leaf_count: 8
            }
            .to_string(),
            "leaf index 9 out of range for 8 leaves"
        );
        assert_eq!(
            MerkleError::OpeningShape {
                row: OpeningRow::DigestSiblings,
                entries: 5,
                width: 32,
                found: 128
            }
            .to_string(),
            "the opening's digest-sibling row is 128 bytes, not 5 entries of 32"
        );
        assert_eq!(
            MerkleError::LeavesNotResident { subtree_height: 3 }.to_string(),
            "the tree keeps no leaf row (subtree height 3); prove through a leaf provider"
        );
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<MerkleError>();
    }
}
