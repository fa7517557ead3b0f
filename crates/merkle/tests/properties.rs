//! Property-based tests for the Merkle-tree invariants in DESIGN.md §5.

mod common;

use common::reference_root;
use proptest::prelude::*;
use ugc_hash::{HashFunction, Md5, Sha256};
use ugc_merkle::{
    LaneWidth, LeafSet, MerkleError, MerkleOpening, MerkleProof, MerkleTree, OpeningRow,
    Parallelism,
};

fn arb_leaves() -> impl Strategy<Value = Vec<Vec<u8>>> {
    (1usize..64, 1usize..24).prop_flat_map(|(n, width)| {
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), width..=width), n..=n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_leaf_proof_verifies(leaves in arb_leaves()) {
        let tree: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
        let root = tree.root();
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i as u64).unwrap();
            prop_assert!(proof.verify(&root, leaf));
        }
    }

    #[test]
    fn bit_flip_in_leaf_value_fails(leaves in arb_leaves(),
                                    which in any::<proptest::sample::Index>(),
                                    byte in any::<proptest::sample::Index>(),
                                    bit in 0u8..8) {
        let tree: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
        let i = which.index(leaves.len());
        let proof = tree.prove(i as u64).unwrap();
        let mut forged = leaves[i].clone();
        let b = byte.index(forged.len());
        forged[b] ^= 1 << bit;
        prop_assert!(!proof.verify(&tree.root(), &forged));
    }

    #[test]
    fn bit_flip_in_root_fails(leaves in arb_leaves(),
                              which in any::<proptest::sample::Index>(),
                              byte in 0usize..32, bit in 0u8..8) {
        let tree: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
        let i = which.index(leaves.len());
        let proof = tree.prove(i as u64).unwrap();
        let mut root = tree.root();
        root[byte] ^= 1 << bit;
        prop_assert!(!proof.verify(&root, &leaves[i]));
    }

    #[test]
    fn parallel_build_equals_serial_build(leaves in arb_leaves(), threads in 1usize..=8) {
        let serial: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
        let parallel: MerkleTree<Sha256> =
            MerkleTree::build_with(&leaves, Parallelism::threads(threads), LaneWidth::default())
                .unwrap();
        prop_assert_eq!(serial.root(), parallel.root());
        prop_assert_eq!(serial.hash_ops(), parallel.hash_ops());
        for i in 0..leaves.len() as u64 {
            prop_assert_eq!(serial.prove(i).unwrap(), parallel.prove(i).unwrap());
        }
    }

    #[test]
    fn reference_root_equals_batch_root(leaves in arb_leaves()) {
        let tree: MerkleTree<Md5> = MerkleTree::build(&leaves).unwrap();
        prop_assert_eq!(tree.root(), reference_root::<Md5>(&leaves));
    }

    #[test]
    fn partial_tree_equivalent_for_any_level(leaves in arb_leaves(), ell_seed in any::<u32>()) {
        let n = leaves.len() as u64;
        let width = leaves[0].len();
        let provider = |i: u64| &leaves[i as usize];
        let full: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
        let height = full.height();
        let ell = 1 + ell_seed % height;
        let partial: MerkleTree<Sha256> =
            MerkleTree::build_truncated(n, width, ell, provider).unwrap();
        prop_assert_eq!(partial.root(), full.root());
        for i in 0..n {
            let (p_proof, _) = partial.prove_with(i, provider).unwrap();
            prop_assert_eq!(p_proof, full.prove(i).unwrap());
        }
    }

    #[test]
    fn proof_roundtrips_through_parts(leaves in arb_leaves(),
                                      which in any::<proptest::sample::Index>()) {
        let tree: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
        let i = which.index(leaves.len());
        let proof = tree.prove(i as u64).unwrap();
        let rebuilt: MerkleProof<Sha256> = MerkleProof::from_parts(
            proof.leaf_index(),
            proof.leaf_sibling().to_vec(),
            proof.digest_siblings().to_vec(),
        );
        prop_assert!(rebuilt.verify(&tree.root(), &leaves[i]));
    }

    #[test]
    fn proof_size_is_logarithmic(leaves in arb_leaves()) {
        let tree: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
        let proof = tree.prove(0).unwrap();
        let width = leaves[0].len() as u64;
        let h = u64::from(tree.height());
        prop_assert_eq!(proof.payload_bytes(), width + (h - 1) * 32);
    }
}

type Leaf = [u8; 8];

fn arb_tree_and_updates() -> impl Strategy<Value = (Vec<Leaf>, Vec<(usize, Leaf)>)> {
    (1usize..48).prop_flat_map(|n| {
        let leaves = proptest::collection::vec(any::<[u8; 8]>(), n..=n);
        let updates = proptest::collection::vec((0..n, any::<[u8; 8]>()), 0..12);
        (leaves, updates)
    })
}

// Any sequence of leaf updates must leave the tree indistinguishable from
// a batch rebuild.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn update_sequence_equals_batch_rebuild((leaves, updates) in arb_tree_and_updates()) {
        let mut incremental: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
        let mut current = leaves.clone();
        for (index, value) in updates {
            incremental.update_leaf(index as u64, &value).unwrap();
            current[index] = value;
        }
        let batch: MerkleTree<Sha256> = MerkleTree::build(&current).unwrap();
        prop_assert_eq!(incremental.root(), batch.root());
        // Proofs from the incrementally-updated tree must also match.
        for i in 0..current.len() as u64 {
            prop_assert_eq!(incremental.prove(i).unwrap(), batch.prove(i).unwrap());
        }
    }
}

/// Opens `indices` against `tree` and folds the opening back to a root.
fn fold_indices<H: HashFunction>(
    tree: &MerkleTree<H>,
    indices: &[u64],
    lanes: LaneWidth,
) -> H::Digest {
    let set = LeafSet::new(tree.leaf_count(), indices).unwrap();
    tree.open(indices)
        .unwrap()
        .reconstruct_root::<H>(&set, lanes)
        .unwrap()
}

#[test]
fn folding_every_leaf_of_a_tree_yields_its_root_every_time() {
    // Every leaf sampled: each supplies its neighbour, every node above
    // is rebuilt, and the only siblings left to send are padding.
    for n in 1..=257u64 {
        for width in [1usize, 16, 32, 33] {
            let leaves = common::leaves(n as usize, width);
            let tree: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
            let all: Vec<u64> = (0..n).collect();
            let opening = tree.open(&all).unwrap();
            assert_eq!(opening.leaf_values, leaves.concat(), "n={n} width={width}");
            assert_eq!(opening.leaf_siblings.len(), (n % 2) as usize * width);
            for lanes in LaneWidth::ALL {
                assert_eq!(
                    fold_indices(&tree, &all, lanes),
                    tree.root(),
                    "n={n} width={width} lanes={lanes}"
                );
            }
        }
    }
}

#[test]
fn fold_batch_sizes_straddle_the_lane_groups() {
    // 1, 7: scalar tail only; 8: one full dispatch; 9: dispatch plus tail;
    // 64: eight dispatches at the bottom, fewer with every level as the
    // paths meet. With replacement, so duplicates occur. MD5's 32-byte
    // inner nodes take the general lane driver, SHA-256's 64-byte ones
    // the pad-64 fast path.
    let leaves = common::leaves(200, 16);
    let sha: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
    let md5: MerkleTree<Md5> = MerkleTree::build(&leaves).unwrap();
    for size in [1u64, 7, 8, 9, 64] {
        let indices: Vec<u64> = (0..size).map(|k| (k * 37 + size) % 200).collect();
        for lanes in LaneWidth::ALL {
            assert_eq!(
                fold_indices(&sha, &indices, lanes),
                sha.root(),
                "sha256 size={size} lanes={lanes}"
            );
            assert_eq!(
                fold_indices(&md5, &indices, lanes),
                md5.root(),
                "md5 size={size} lanes={lanes}"
            );
        }
    }
}

#[test]
fn fold_orders_each_level_by_its_own_index_bit() {
    // Eight paths that are left children at some levels and right
    // children at others, no two alike, meeting only at the root: every
    // level's batch mixes both concatenation orders.
    let leaves = common::leaves(256, 8);
    let tree: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
    let indices = [
        0b0000_0000u64,
        0b1111_1111,
        0b0101_0101,
        0b1010_1010,
        0b0011_0011,
        0b1100_1100,
        0b0000_1111,
        0b1111_0000,
    ];
    for level in 0..8 {
        let bits: Vec<u64> = indices.iter().map(|i| (i >> level) & 1).collect();
        assert!(bits.contains(&0) && bits.contains(&1), "level {level}");
    }
    for lanes in LaneWidth::ALL {
        assert_eq!(
            fold_indices(&tree, &indices, lanes),
            tree.root(),
            "lanes={lanes}"
        );
    }
    // The order is the index set's: the same rows presented under a set
    // with one bit of one index flipped have the right shape (that path
    // still meets no other below the root's children) and flip an order
    // somewhere on the way up, so they must not fold to the root.
    let opening = tree.open(&indices).unwrap();
    let honest = LeafSet::new(256, &indices).unwrap();
    assert!(opening.verify::<Sha256>(&tree.root(), &honest));
    let mut moved = indices;
    moved[3] ^= 1 << 5;
    let moved = LeafSet::new(256, &moved).unwrap();
    assert_eq!(moved.shape(), honest.shape());
    assert!(!opening.verify::<Sha256>(&tree.root(), &moved));
}

#[test]
fn partial_tree_proofs_fold_to_the_same_root() {
    for (n, ell) in [(1u64, 1u32), (5, 2), (64, 3), (100, 7), (257, 4)] {
        let leaves = common::leaves(n as usize, 16);
        let provider = |i: u64| &leaves[i as usize];
        let full: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
        let partial: MerkleTree<Sha256> =
            MerkleTree::build_truncated(n, 16, ell, provider).unwrap();
        let all: Vec<u64> = (0..n).collect();
        let thirds: Vec<u64> = (0..n).step_by(3).collect();
        for indices in [all, thirds] {
            let (opening, _) = partial.open_with(&indices, provider).unwrap();
            assert_eq!(opening, full.open(&indices).unwrap(), "n={n} ell={ell}");
            let set = LeafSet::new(n, &indices).unwrap();
            assert_eq!(
                opening.reconstruct_root::<Sha256>(&set, LaneWidth::default()),
                Ok(full.root()),
                "n={n} ell={ell}"
            );
        }
    }
}

#[test]
fn fold_rejects_malformed_batches_with_typed_errors() {
    // Rows as they come off the wire: byte strings of any length. Leaves
    // 3 and 9 of 16 four-byte leaves: two values, two leaf siblings, and
    // digest siblings at levels 1 and 2 of each path (they meet at the
    // root): four.
    let set = LeafSet::new(16, &[9, 3]).unwrap();
    let rows = |values: usize, leaf_siblings: usize, digests: usize| MerkleOpening {
        leaf_width: 4,
        leaf_values: vec![1u8; values],
        leaf_siblings: vec![2u8; leaf_siblings],
        digest_siblings: vec![9u8; digests],
    };
    let fold = |opening: &MerkleOpening| opening.reconstruct_root::<Sha256>(&set, LaneWidth::X8);
    let wrong = |row, entries, width, found| {
        Err(MerkleError::OpeningShape {
            row,
            entries,
            width,
            found,
        })
    };

    assert!(fold(&rows(8, 8, 128)).is_ok());
    // One digest short, one long, none at all, one byte short.
    for digests in [96usize, 160, 0, 127] {
        assert_eq!(
            fold(&rows(8, 8, digests)),
            wrong(OpeningRow::DigestSiblings, 4, 32, digests)
        );
    }
    for leaf_siblings in [4usize, 12, 0, 7] {
        assert_eq!(
            fold(&rows(8, leaf_siblings, 128)),
            wrong(OpeningRow::LeafSiblings, 2, 4, leaf_siblings)
        );
    }
    // The first row out of shape is the one reported.
    assert_eq!(fold(&rows(4, 0, 0)), wrong(OpeningRow::LeafValues, 2, 4, 4));
    // Rows of the right byte lengths under another leaf width are not.
    let mut wide = rows(8, 8, 128);
    wide.leaf_width = 8;
    assert_eq!(fold(&wide), wrong(OpeningRow::LeafValues, 2, 8, 8));
    wide.leaf_width = 0;
    assert_eq!(fold(&wide), Err(MerkleError::ZeroLeafWidth));
    // A SHA-256-shaped opening is malformed for MD5, not hashed differently.
    assert_eq!(
        rows(8, 8, 128).reconstruct_root::<Md5>(&set, LaneWidth::X8),
        Err(MerkleError::OpeningShape {
            row: OpeningRow::DigestSiblings,
            entries: 4,
            width: 16,
            found: 128
        })
    );
    // Borrowed rows — the verifier's view of a decoded message — are the
    // same opening.
    let owned = rows(8, 8, 128);
    let borrowed = MerkleOpening {
        leaf_width: 4,
        leaf_values: owned.leaf_values.as_slice(),
        leaf_siblings: owned.leaf_siblings.as_slice(),
        digest_siblings: owned.digest_siblings.as_slice(),
    };
    assert_eq!(
        borrowed.reconstruct_root::<Sha256>(&set, LaneWidth::X8),
        fold(&owned)
    );
}
