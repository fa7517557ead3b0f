//! Property-based tests for the Merkle-tree invariants in DESIGN.md §5.

mod common;

use common::reference_root;
use proptest::prelude::*;
use ugc_hash::{HashFunction, Md5, Sha256};
use ugc_merkle::{
    fold_paths, AuthPath, LaneWidth, MerkleError, MerkleProof, MerkleTree, Parallelism,
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

/// Proves `indices` against `tree` and folds the proofs as one batch.
fn fold_indices<H: HashFunction>(
    tree: &MerkleTree<H>,
    leaves: &[Vec<u8>],
    indices: &[usize],
    lanes: LaneWidth,
) -> Vec<H::Digest> {
    let proofs: Vec<MerkleProof<H>> = indices
        .iter()
        .map(|&i| tree.prove(i as u64).unwrap())
        .collect();
    let paths: Vec<AuthPath<'_, H::Digest>> = proofs
        .iter()
        .zip(indices)
        .map(|(proof, &i)| proof.as_path(&leaves[i]))
        .collect();
    fold_paths::<H, _>(&paths, lanes).unwrap()
}

#[test]
fn folding_every_leaf_of_a_tree_yields_its_root_every_time() {
    for n in 1..=257usize {
        for width in [1usize, 16, 32, 33] {
            let leaves = common::leaves(n, width);
            let tree: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
            let all: Vec<usize> = (0..n).collect();
            for lanes in LaneWidth::ALL {
                assert_eq!(
                    fold_indices(&tree, &leaves, &all, lanes),
                    vec![tree.root(); n],
                    "n={n} width={width} lanes={lanes}"
                );
            }
        }
    }
}

#[test]
fn fold_batch_sizes_straddle_the_lane_groups() {
    // 1, 7: scalar tail only; 8: one full dispatch; 9: dispatch plus tail;
    // 64: eight dispatches. With replacement, so duplicates occur. MD5's
    // 32-byte inner nodes take the general lane driver, SHA-256's 64-byte
    // ones the pad-64 fast path.
    let leaves = common::leaves(200, 16);
    let sha: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
    let md5: MerkleTree<Md5> = MerkleTree::build(&leaves).unwrap();
    for size in [1usize, 7, 8, 9, 64] {
        let indices: Vec<usize> = (0..size).map(|k| (k * 37 + size) % 200).collect();
        for lanes in LaneWidth::ALL {
            assert_eq!(
                fold_indices(&sha, &leaves, &indices, lanes),
                vec![sha.root(); size],
                "sha256 size={size} lanes={lanes}"
            );
            assert_eq!(
                fold_indices(&md5, &leaves, &indices, lanes),
                vec![md5.root(); size],
                "md5 size={size} lanes={lanes}"
            );
        }
    }
}

#[test]
fn fold_orders_each_level_by_its_own_index_bit() {
    // One dispatch whose eight paths are left children at some levels and
    // right children at others, no two alike: every level's batch mixes
    // both concatenation orders.
    let leaves = common::leaves(256, 8);
    let tree: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
    let indices = [
        0b0000_0000usize,
        0b1111_1111,
        0b0101_0101,
        0b1010_1010,
        0b0011_0011,
        0b1100_1100,
        0b0000_1111,
        0b1111_0000,
    ];
    for level in 0..8 {
        let bits: Vec<usize> = indices.iter().map(|i| (i >> level) & 1).collect();
        assert!(bits.contains(&0) && bits.contains(&1), "level {level}");
    }
    for lanes in LaneWidth::ALL {
        assert_eq!(
            fold_indices(&tree, &leaves, &indices, lanes),
            vec![tree.root(); 8],
            "lanes={lanes}"
        );
    }
    // A proof presented under another index flips an order somewhere and
    // must not fold to the root — per path, whatever its neighbours do.
    let proofs: Vec<MerkleProof<Sha256>> = indices
        .iter()
        .map(|&i| tree.prove(i as u64).unwrap())
        .collect();
    let mut paths: Vec<AuthPath<'_, [u8; 32]>> = proofs
        .iter()
        .zip(indices)
        .map(|(proof, i)| proof.as_path(&leaves[i]))
        .collect();
    paths[3].leaf_index ^= 1 << 5;
    let roots = fold_paths::<Sha256, _>(&paths, LaneWidth::default()).unwrap();
    for (k, root) in roots.iter().enumerate() {
        assert_eq!(*root == tree.root(), k != 3, "path {k}");
    }
}

#[test]
fn partial_tree_proofs_fold_to_the_same_root() {
    for (n, ell) in [(1u64, 1u32), (5, 2), (64, 3), (100, 7), (257, 4)] {
        let leaves = common::leaves(n as usize, 16);
        let provider = |i: u64| &leaves[i as usize];
        let full: MerkleTree<Sha256> = MerkleTree::build(&leaves).unwrap();
        let partial: MerkleTree<Sha256> =
            MerkleTree::build_truncated(n, 16, ell, provider).unwrap();
        let proofs: Vec<MerkleProof<Sha256>> = (0..n)
            .map(|i| partial.prove_with(i, provider).unwrap().0)
            .collect();
        let paths: Vec<AuthPath<'_, [u8; 32]>> = proofs
            .iter()
            .zip(&leaves)
            .map(|(proof, leaf)| proof.as_path(leaf))
            .collect();
        assert_eq!(
            fold_paths::<Sha256, _>(&paths, LaneWidth::default()).unwrap(),
            vec![full.root(); n as usize],
            "n={n} ell={ell}"
        );
    }
}

#[test]
fn fold_rejects_malformed_batches_with_typed_errors() {
    // Siblings as they come off the wire: byte vectors of any width.
    let wire = |widths: &[usize]| -> Vec<Vec<u8>> { widths.iter().map(|&w| vec![9; w]).collect() };
    fn path(digest_siblings: &[Vec<u8>]) -> AuthPath<'_, Vec<u8>> {
        AuthPath {
            leaf_index: 3,
            leaf_value: &[1; 4],
            leaf_sibling: &[2; 4],
            digest_siblings,
        }
    }
    let (good, short, empty) = (&wire(&[32, 32]), &wire(&[32]), &wire(&[]));
    let (narrow, wide) = (&wire(&[32, 31]), &wire(&[33, 32]));
    let fold = |paths: &[AuthPath<'_, Vec<u8>>]| fold_paths::<Sha256, _>(paths, LaneWidth::X8);

    assert_eq!(fold(&[path(good), path(good)]).unwrap().len(), 2);
    assert_eq!(
        fold(&[path(good), path(short)]),
        Err(MerkleError::PathLengthMismatch {
            path: 1,
            expected: 3,
            found: 2
        })
    );
    assert_eq!(
        fold(&[path(empty), path(empty), path(good)]),
        Err(MerkleError::PathLengthMismatch {
            path: 2,
            expected: 1,
            found: 3
        })
    );
    assert_eq!(
        fold(&[path(good), path(narrow)]),
        Err(MerkleError::SiblingWidth {
            path: 1,
            level: 1,
            expected: 32,
            found: 31
        })
    );
    assert_eq!(
        fold(&[path(wide)]),
        Err(MerkleError::SiblingWidth {
            path: 0,
            level: 0,
            expected: 32,
            found: 33
        })
    );
    // A SHA-256-shaped path is malformed for MD5, not hashed differently.
    assert_eq!(
        fold_paths::<Md5, _>(&[path(good)], LaneWidth::X8),
        Err(MerkleError::SiblingWidth {
            path: 0,
            level: 0,
            expected: 16,
            found: 32
        })
    );
}
