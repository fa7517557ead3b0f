//! `MerkleTree::from_leaf_row` is where every resident constructor ends:
//! handed the flat row it must build exactly the tree `build_with` builds
//! from separate leaves — root, every proof, the operation count — at any
//! thread count and lane width, and the root must be the Eq. (1) fold a
//! scalar `digest_pair` computes by hand.

mod common;

use common::{leaves, reference_root};
use ugc_hash::{LaneWidth, Sha256};
use ugc_merkle::{MerkleError, MerkleTree, Parallelism};

#[test]
fn from_leaf_row_equals_build_with() {
    for width in [1usize, 16, 32, 33] {
        for n in 1..=257usize {
            let ls = leaves(n, width);
            let want_root = reference_root::<Sha256>(&ls);
            for threads in [1usize, 2, 4] {
                let parallelism = Parallelism::threads(threads);
                let context = format!("n={n} width={width} threads={threads}");
                let built: MerkleTree<Sha256> =
                    MerkleTree::build_with(&ls, parallelism, LaneWidth::Scalar).unwrap();
                let from_row: MerkleTree<Sha256> =
                    MerkleTree::from_leaf_row(ls.concat(), width, parallelism, LaneWidth::X8)
                        .unwrap();
                assert_eq!(from_row.root(), want_root, "{context}");
                assert_eq!(built.root(), want_root, "{context}");
                assert_eq!(from_row.leaf_count(), n as u64, "{context}");
                assert_eq!(from_row.leaf_width(), width, "{context}");
                assert_eq!(from_row.hash_ops(), built.hash_ops(), "{context}");
                assert_eq!(
                    from_row.hash_ops(),
                    from_row.padded_leaf_count() - 1,
                    "{context}"
                );
                for (i, leaf) in ls.iter().enumerate() {
                    let proof = from_row.prove(i as u64).unwrap();
                    assert_eq!(proof, built.prove(i as u64).unwrap(), "{context} leaf={i}");
                    assert!(proof.verify(&want_root, leaf), "{context} leaf={i}");
                    assert_eq!(from_row.leaf(i as u64).unwrap(), leaf.as_slice());
                }
            }
        }
    }
}

#[test]
fn from_leaf_row_rejects_degenerate_rows_typed() {
    let build = |row: Vec<u8>, width| {
        MerkleTree::<Sha256>::from_leaf_row(row, width, Parallelism::serial(), LaneWidth::default())
            .map(|tree| tree.leaf_count())
    };
    assert_eq!(build(vec![1, 2, 3], 0), Err(MerkleError::ZeroLeafWidth));
    assert_eq!(build(Vec::new(), 0), Err(MerkleError::ZeroLeafWidth));
    assert_eq!(build(Vec::new(), 4), Err(MerkleError::EmptyTree));
    assert_eq!(
        build(vec![0u8; 9], 4),
        Err(MerkleError::MixedLeafWidth {
            expected: 4,
            found: 1,
            index: 2
        })
    );
    assert_eq!(
        build(vec![0u8; 3], 4),
        Err(MerkleError::MixedLeafWidth {
            expected: 4,
            found: 3,
            index: 0
        })
    );
    assert_eq!(build(vec![0u8; 8], 4), Ok(2));
}

#[test]
fn from_leaf_row_pads_a_row_that_has_no_spare_capacity() {
    // Three leaves pad to four: the row must grow, whatever capacity the
    // caller's Vec happened to have.
    let ls = leaves(3, 16);
    let mut row = ls.concat();
    row.shrink_to_fit();
    let tree: MerkleTree<Sha256> =
        MerkleTree::from_leaf_row(row, 16, Parallelism::serial(), LaneWidth::default()).unwrap();
    assert_eq!(tree.padded_leaf_count(), 4);
    assert_eq!(tree.root(), reference_root::<Sha256>(&ls));
}
