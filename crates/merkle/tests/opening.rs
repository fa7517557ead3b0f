//! One opening per round: for every leaf count 1..=257, leaf widths on
//! both sides of the digest width and every resident depth `ℓ`, an
//! opening of a challenge with duplicates must be the same bytes whatever
//! the tree kept, rebuild the committed root at every lane width, accept
//! exactly when the single proofs it replaces all accept, have the row
//! lengths a closed form over `(n, distinct indices)` predicts — never
//! more than those single proofs carry — and survive no flipped byte.
//! A truncated tree rebuilds each distinct covering subtree once.

mod common;

use common::{leaves, reference_root};
use std::cell::Cell;
use std::collections::BTreeSet;
use ugc_hash::{HashFunction, Md5, Sha256};
use ugc_merkle::{
    tree_height, LaneWidth, LeafSet, MerkleError, MerkleOpening, MerkleTree, OpeningShape,
    RebuildStats,
};

/// SplitMix64: the suite's only source of "random" challenges.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `size` indices below `n`, with replacement; every third draw repeats
/// an earlier one outright so that small challenges have duplicates too.
fn challenge(state: &mut u64, n: u64, size: usize) -> Vec<u64> {
    let mut indices: Vec<u64> = Vec::with_capacity(size);
    for k in 0..size {
        let draw = next(state);
        if k % 3 == 2 {
            indices.push(indices[draw as usize % k]);
        } else {
            indices.push(draw % n);
        }
    }
    indices
}

/// The shape of an opening worked out with sets rather than a sorted
/// walk: the known nodes of level `l` are `{i >> l}`, a node is lone when
/// its sibling is not among them.
fn closed_form(n: u64, distinct: &BTreeSet<u64>) -> OpeningShape {
    let height = tree_height(n);
    let level = |l: u32| -> BTreeSet<u64> { distinct.iter().map(|i| i >> l).collect() };
    let lone = |l: u32| {
        let known = level(l);
        known.iter().filter(|j| !known.contains(&(*j ^ 1))).count()
    };
    OpeningShape {
        leaves: distinct.len(),
        leaf_siblings: lone(0),
        digest_siblings: (1..height).map(lone).sum(),
        hash_ops: (1..=height).map(|l| level(l).len() as u64).sum(),
    }
}

/// Every property of the module docs, for leaves of `width` bytes.
fn assert_an_opening_is_the_single_proofs_without_what_they_share(width: usize) {
    let mut rng = 0x0be9_1a65u64 + width as u64;
    let mut size = 0;
    for n in 1..=257u64 {
        let ls = leaves(n as usize, width);
        let calls = Cell::new(0u64);
        let provider = |i: u64| {
            calls.set(calls.get() + 1);
            &ls[i as usize]
        };
        let resident: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
        let root = resident.root();
        let height = resident.height();
        for ell in 0..=height {
            size = size % 20 + 1;
            let indices = challenge(&mut rng, n, size);
            let context = format!("n={n} width={width} ell={ell} indices={indices:?}");
            let set = LeafSet::new(n, &indices).unwrap();
            let distinct: BTreeSet<u64> = indices.iter().copied().collect();
            assert!(set.indices().iter().eq(&distinct), "{context}");

            // The same bytes whatever the tree kept, at the paper's
            // price: each distinct covering subtree rebuilt once.
            let opening = resident.open(&indices).unwrap();
            calls.set(0);
            if ell == 0 {
                let (again, stats) = resident.open_with(&indices, provider).unwrap();
                assert_eq!(again, opening, "{context}");
                assert_eq!(stats, RebuildStats::default(), "{context}");
                assert_eq!(calls.get(), 0, "{context}");
            } else {
                let truncated: MerkleTree<Sha256> =
                    MerkleTree::build_truncated(n, width, ell, |i| &ls[i as usize]).unwrap();
                let (again, stats) = truncated.open_with(&indices, provider).unwrap();
                assert_eq!(again, opening, "{context}");
                let subtrees: BTreeSet<u64> = distinct.iter().map(|i| i >> ell).collect();
                let real: u64 = subtrees
                    .iter()
                    .map(|s| (1u64 << ell).min(n - (s << ell)))
                    .sum();
                assert_eq!(
                    stats,
                    RebuildStats {
                        leaves_recomputed: real,
                        hash_ops: subtrees.len() as u64 * ((1 << ell) - 1),
                    },
                    "{context}"
                );
                assert_eq!(calls.get(), real, "{context}");
                assert_eq!(
                    truncated.open(&indices).unwrap_err(),
                    MerkleError::LeavesNotResident {
                        subtree_height: ell
                    }
                );
            }

            // Row lengths: the closed form, and no more than the
            // single proofs of the distinct leaves carry.
            let shape = closed_form(n, &distinct);
            assert_eq!(set.shape(), shape, "{context}");
            assert_eq!(opening.leaf_width, width, "{context}");
            assert_eq!(opening.leaf_values.len(), shape.leaves * width, "{context}");
            assert_eq!(
                opening.leaf_siblings.len(),
                shape.leaf_siblings * width,
                "{context}"
            );
            assert_eq!(
                opening.digest_siblings.len(),
                shape.digest_siblings * 32,
                "{context}"
            );
            let proofs: Vec<_> = set
                .indices()
                .iter()
                .map(|&i| resident.prove(i).unwrap())
                .collect();
            let single_bytes: u64 = proofs.iter().map(|p| p.payload_bytes()).sum();
            let single_hashes: u64 = proofs.iter().map(|p| p.verification_hash_ops()).sum();
            assert!(shape.leaf_siblings <= shape.leaves, "{context}");
            assert!(
                shape.digest_siblings <= shape.leaves * (height as usize - 1),
                "{context}"
            );
            let sibling_bytes = opening.leaf_siblings.len() + opening.digest_siblings.len();
            assert!(sibling_bytes as u64 <= single_bytes, "{context}");
            assert!(shape.hash_ops <= single_hashes, "{context}");
            assert!(shape.hash_ops >= u64::from(height), "{context}");

            // It rebuilds the commitment, whatever the lane width.
            for lanes in LaneWidth::ALL {
                assert_eq!(
                    opening.reconstruct_root::<Sha256>(&set, lanes),
                    Ok(root),
                    "{context} lanes={lanes}"
                );
            }

            // It accepts exactly when every single proof accepts: the
            // honest values against the commitment, against another
            // root, and with one sampled value replaced.
            let singles_accept = |root: &[u8; 32], values: &[u8]| {
                proofs
                    .iter()
                    .zip(values.chunks_exact(width))
                    .all(|(proof, value)| proof.verify(root, value))
            };
            assert!(singles_accept(&root, &opening.leaf_values), "{context}");
            assert!(opening.verify::<Sha256>(&root, &set), "{context}");
            let mut other_root = root;
            other_root[next(&mut rng) as usize % 32] ^= 1;
            assert!(!singles_accept(&other_root, &opening.leaf_values));
            assert!(!opening.verify::<Sha256>(&other_root, &set), "{context}");

            // One flipped byte in any row is fatal — in the value row
            // it is also a single proof that no longer accepts.
            let flip = |row: &mut Vec<u8>, draw: u64| {
                if !row.is_empty() {
                    let at = draw as usize % row.len();
                    row[at] ^= 1 << (draw >> 61);
                }
                !row.is_empty()
            };
            let mut forged = opening.clone();
            if flip(&mut forged.leaf_values, next(&mut rng)) {
                assert!(!singles_accept(&root, &forged.leaf_values), "{context}");
                assert!(!forged.verify::<Sha256>(&root, &set), "{context}");
            }
            let mut forged = opening.clone();
            if flip(&mut forged.leaf_siblings, next(&mut rng)) {
                assert!(!forged.verify::<Sha256>(&root, &set), "{context}");
            }
            let mut forged = opening.clone();
            if flip(&mut forged.digest_siblings, next(&mut rng)) {
                assert!(!forged.verify::<Sha256>(&root, &set), "{context}");
            }
        }
    }
}

// One test per leaf width, so the harness runs them side by side.
#[test]
fn one_byte_leaves() {
    assert_an_opening_is_the_single_proofs_without_what_they_share(1);
}

#[test]
fn leaves_half_a_digest_wide() {
    assert_an_opening_is_the_single_proofs_without_what_they_share(16);
}

#[test]
fn leaves_a_digest_wide() {
    assert_an_opening_is_the_single_proofs_without_what_they_share(32);
}

#[test]
fn leaves_wider_than_a_digest() {
    assert_an_opening_is_the_single_proofs_without_what_they_share(33);
}

/// Every byte of every row, one flip at a time.
fn assert_every_byte_is_bound<H: HashFunction>(n: u64, width: usize, indices: &[u64]) {
    let ls = leaves(n as usize, width);
    let tree: MerkleTree<H> = MerkleTree::build(&ls).unwrap();
    let set = LeafSet::new(n, indices).unwrap();
    let opening = tree.open(indices).unwrap();
    let root = tree.root();
    assert_eq!(root, reference_root::<H>(&ls));
    assert!(opening.verify::<H>(&root, &set));
    let rows: [fn(&mut MerkleOpening) -> &mut Vec<u8>; 3] = [
        |o| &mut o.leaf_values,
        |o| &mut o.leaf_siblings,
        |o| &mut o.digest_siblings,
    ];
    for (r, row) in rows.iter().enumerate() {
        let mut forged = opening.clone();
        for at in 0..row(&mut forged).len() {
            row(&mut forged)[at] ^= 0x20;
            assert!(
                !forged.verify::<H>(&root, &set),
                "{} n={n} row {r} byte {at}",
                H::NAME
            );
            row(&mut forged)[at] ^= 0x20;
        }
        assert_eq!(forged, opening);
    }
}

#[test]
fn no_byte_of_any_row_can_change() {
    assert_every_byte_is_bound::<Sha256>(1, 16, &[0]);
    assert_every_byte_is_bound::<Sha256>(6, 2, &[4, 1, 4, 5]);
    assert_every_byte_is_bound::<Sha256>(100, 16, &[99, 0, 50, 51, 17, 64, 64, 3]);
    assert_every_byte_is_bound::<Md5>(257, 33, &[256, 255, 128, 1, 2, 200]);
}

#[test]
fn a_set_is_checked_where_it_is_made() {
    assert_eq!(LeafSet::new(8, &[]).unwrap_err(), MerkleError::NoIndices);
    assert_eq!(LeafSet::new(0, &[]).unwrap_err(), MerkleError::NoIndices);
    // The first offender in the order given, not the largest.
    assert_eq!(
        LeafSet::new(8, &[3, 9, 100, 8]).unwrap_err(),
        MerkleError::IndexOutOfRange {
            index: 9,
            leaf_count: 8
        }
    );
    let tree: MerkleTree<Sha256> = MerkleTree::build(&leaves(8, 4)).unwrap();
    assert_eq!(tree.open(&[]).unwrap_err(), MerkleError::NoIndices);
    assert_eq!(
        tree.open(&[7, 8]).unwrap_err(),
        MerkleError::IndexOutOfRange {
            index: 8,
            leaf_count: 8
        }
    );
    // Padding leaves are not openable either: 5 real leaves pad to 8.
    let padded: MerkleTree<Sha256> = MerkleTree::build(&leaves(5, 4)).unwrap();
    assert!(padded.open(&[4]).is_ok());
    assert!(padded.open(&[5]).is_err());
    // An opening answers one set only: under a set of another leaf count
    // its rows have the wrong shape before they have the wrong root.
    let set = LeafSet::new(8, &[2, 6]).unwrap();
    let opening = tree.open(&[2, 6]).unwrap();
    assert!(opening.verify::<Sha256>(&tree.root(), &set));
    let taller = LeafSet::new(9, &[2, 6]).unwrap();
    assert!(matches!(
        opening.reconstruct_root::<Sha256>(&taller, LaneWidth::default()),
        Err(MerkleError::OpeningShape { .. })
    ));
}

#[test]
fn a_provider_gone_bad_is_caught_per_subtree() {
    let ls = leaves(32, 8);
    let tree: MerkleTree<Sha256> =
        MerkleTree::build_truncated(32, 8, 3, |i| &ls[i as usize]).unwrap();
    let bad = |i: u64| {
        if i == 9 {
            vec![0xFF; 8]
        } else {
            ls[i as usize].clone()
        }
    };
    // Leaf 9 lives in subtree 1 (leaves 8..16): a challenge that touches
    // it fails there, one that does not never calls the provider on it.
    assert_eq!(
        tree.open_with(&[20, 10, 3], bad).unwrap_err(),
        MerkleError::ProviderMismatch { subtree_index: 1 }
    );
    assert!(tree.open_with(&[20, 3, 31], bad).is_ok());
    let short = |i: u64| vec![0u8; if i == 21 { 7 } else { 8 }];
    assert_eq!(
        tree.open_with(&[20], short).unwrap_err(),
        MerkleError::MixedLeafWidth {
            expected: 8,
            found: 7,
            index: 21
        }
    );
}
