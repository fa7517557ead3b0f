//! One type, any resident depth: a tree built truncated at subtree height
//! `ℓ` (Section 3.3) must commit to the root the resident tree commits to
//! and prove every leaf with the same bytes, at the paper's price — `n`
//! evaluations and `padded − 1` hashes to build, the real leaves of one
//! `2^ℓ`-leaf subtree and `2^ℓ − 1` hashes per proof — for every leaf
//! count 1..=257, every `ℓ` in 1..=H and leaf widths on both sides of the
//! digest width. What a truncated tree cannot do is a typed error.

mod common;

use common::{leaves, reference_root};
use std::cell::Cell;
use ugc_hash::Sha256;
use ugc_merkle::{MerkleError, MerkleTree, RebuildStats};

#[test]
fn truncated_equals_resident_at_every_subtree_height() {
    for width in [1usize, 16, 32, 33] {
        for n in 1..=257u64 {
            let ls = leaves(n as usize, width);
            let calls = Cell::new(0u64);
            let provider = |i: u64| {
                calls.set(calls.get() + 1);
                &ls[i as usize]
            };
            let resident: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
            assert_eq!(resident.root(), reference_root::<Sha256>(&ls));
            assert_eq!(resident.subtree_height(), 0);
            let padded = resident.padded_leaf_count();
            for ell in 1..=resident.height() {
                let context = format!("n={n} width={width} ell={ell}");
                calls.set(0);
                let truncated: MerkleTree<Sha256> =
                    MerkleTree::build_truncated(n, width, ell, provider).unwrap();
                assert_eq!(calls.get(), n, "{context}");
                assert_eq!(truncated.root(), resident.root(), "{context}");
                assert_eq!(truncated.hash_ops(), padded - 1, "{context}");
                assert_eq!(truncated.subtree_height(), ell, "{context}");
                assert_eq!(
                    truncated.stored_node_count(),
                    (padded >> (ell - 1)) - 1,
                    "{context}"
                );
                // Every leaf of a small tree; the first and last real
                // leaf of every subtree of a large one (a proof hashes
                // its whole subtree again).
                let chunk = 1u64 << ell;
                let sampled = (0..n)
                    .filter(|i| n <= 33 || i % chunk == 0 || i % chunk == chunk - 1 || *i == n - 1);
                for i in sampled {
                    calls.set(0);
                    let (proof, stats) = truncated.prove_with(i, provider).unwrap();
                    assert_eq!(proof, resident.prove(i).unwrap(), "{context} leaf={i}");
                    let base = i - i % chunk;
                    let real = chunk.min(n - base);
                    assert_eq!(
                        stats,
                        RebuildStats {
                            leaves_recomputed: real,
                            hash_ops: chunk - 1
                        },
                        "{context} leaf={i}"
                    );
                    assert_eq!(calls.get(), real, "{context} leaf={i}");
                }
            }
            // ℓ = 0 is the resident tree: `prove_with` is `prove`, free
            // of charge and of provider calls.
            calls.set(0);
            let (proof, stats) = resident.prove_with(n - 1, provider).unwrap();
            assert_eq!(proof, resident.prove(n - 1).unwrap());
            assert_eq!(stats, RebuildStats::default());
            assert_eq!(calls.get(), 0);
        }
    }
}

#[test]
fn reading_the_leaf_row_of_a_truncated_tree_is_a_typed_error() {
    let ls = leaves(10, 8);
    for ell in 1..=4u32 {
        let mut tree: MerkleTree<Sha256> =
            MerkleTree::build_truncated(10, 8, ell, |i| &ls[i as usize]).unwrap();
        let root = tree.root();
        let not_resident = MerkleError::LeavesNotResident {
            subtree_height: ell,
        };
        // In range or not: the operation is what the tree cannot do.
        for index in [0u64, 9, 10] {
            assert_eq!(tree.leaf(index).unwrap_err(), not_resident);
            assert_eq!(tree.prove(index).unwrap_err(), not_resident);
            assert_eq!(tree.update_leaf(index, &[1; 8]).unwrap_err(), not_resident);
        }
        assert_eq!(tree.root(), root);
        assert!(tree.prove_with(9, |i| &ls[i as usize]).is_ok());
    }
}

#[test]
fn subtree_height_outside_one_to_h_is_a_typed_error_not_a_shift_overflow() {
    for (n, height) in [(1u64, 1u32), (2, 1), (3, 2), (16, 4), (17, 5), (257, 9)] {
        for ell in [0, height + 1, u32::MAX] {
            let built = MerkleTree::<Sha256>::build_truncated(n, 4, ell, |_| [0u8; 4]);
            assert_eq!(
                built.map(|tree| tree.root()).unwrap_err(),
                MerkleError::SubtreeHeightOutOfRange {
                    subtree_height: ell,
                    tree_height: height,
                },
                "n={n} ell={ell}"
            );
        }
        assert!(MerkleTree::<Sha256>::build_truncated(n, 4, height, |_| [0u8; 4]).is_ok());
    }
}

#[test]
fn a_wrong_width_leaf_from_the_provider_is_reported_with_its_index() {
    let provider = |i: u64| vec![0u8; if i == 6 { 3 } else { 4 }];
    let wrong = MerkleError::MixedLeafWidth {
        expected: 4,
        found: 3,
        index: 6,
    };
    let built = MerkleTree::<Sha256>::build_truncated(10, 4, 2, provider);
    assert_eq!(built.map(|tree| tree.root()).unwrap_err(), wrong);
    // Committed honestly, then asked to prove from a provider gone bad.
    let tree: MerkleTree<Sha256> = MerkleTree::build_truncated(10, 4, 2, |_| [0u8; 4]).unwrap();
    assert_eq!(tree.prove_with(5, provider).unwrap_err(), wrong);
    assert!(tree.prove_with(3, provider).is_ok());
}
