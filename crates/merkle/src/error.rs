//! Error type for Merkle-tree construction and proof generation.

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
    /// A path handed to [`fold_paths`](crate::fold_paths) carries a
    /// different number of siblings than the first path of its batch.
    PathLengthMismatch {
        /// Position of the offending path in the batch.
        path: usize,
        /// Length `H` of the batch's first path.
        expected: usize,
        /// Length of the offending path.
        found: usize,
    },
    /// A digest sibling handed to [`fold_paths`](crate::fold_paths) is not
    /// one digest wide.
    SiblingWidth {
        /// Position of the offending path in the batch.
        path: usize,
        /// Index of the offending entry in the path's digest siblings.
        level: usize,
        /// The hash function's digest length.
        expected: usize,
        /// Width of the offending sibling.
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
            MerkleError::PathLengthMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "path {path} has {found} siblings but the batch's paths have {expected}"
            ),
            MerkleError::SiblingWidth {
                path,
                level,
                expected,
                found,
            } => write!(
                f,
                "digest sibling {level} of path {path} is {found} bytes, not {expected}"
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
