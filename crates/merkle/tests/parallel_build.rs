//! Exhaustive serial/threaded equivalence: for every leaf count 1..=257
//! and every thread count 1..=8, `build_with` must build the serial
//! tree — the Eq. (1) root, every proof, the hash-op count.

mod common;

use common::{leaves, reference_root};
use ugc_hash::{LaneWidth, Md5, Sha256};
use ugc_merkle::{MerkleTree, Parallelism};

#[test]
fn threaded_build_identical_for_all_sizes_and_thread_counts() {
    for n in 1..=257u64 {
        let ls = leaves(n as usize, 12);
        let serial: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
        assert_eq!(serial.root(), reference_root::<Sha256>(&ls), "n={n}");
        // Proofs read every internal node level, so equality here pins
        // the whole node array, not just the root.
        let proofs: Vec<_> = (0..n).map(|i| serial.prove(i).unwrap()).collect();
        for threads in 1..=8usize {
            let threaded: MerkleTree<Sha256> =
                MerkleTree::build_with(&ls, Parallelism::threads(threads), LaneWidth::default())
                    .unwrap();
            assert_eq!(
                serial.root(),
                threaded.root(),
                "root diverged at n={n} threads={threads}"
            );
            assert_eq!(
                threaded.hash_ops(),
                threaded.padded_leaf_count() - 1,
                "op count diverged at n={n} threads={threads}"
            );
            for (i, proof) in (0..n).zip(&proofs) {
                assert_eq!(
                    *proof,
                    threaded.prove(i).unwrap(),
                    "proof diverged at n={n} threads={threads} leaf={i}"
                );
            }
        }
    }
}

#[test]
fn threaded_build_proofs_identical_md5() {
    // MD5's 32-byte inner nodes take the general lane driver where
    // SHA-256's 64-byte ones take the pad-64 fast path. Sampled sizes;
    // the SHA-256 check above is exhaustive.
    for n in [1u64, 2, 3, 31, 64, 100, 255, 256, 257] {
        let ls = leaves(n as usize, 12);
        let serial: MerkleTree<Md5> = MerkleTree::build(&ls).unwrap();
        assert_eq!(serial.root(), reference_root::<Md5>(&ls), "n={n}");
        for threads in 1..=8usize {
            let threaded: MerkleTree<Md5> =
                MerkleTree::build_with(&ls, Parallelism::threads(threads), LaneWidth::default())
                    .unwrap();
            for i in 0..n {
                assert_eq!(
                    serial.prove(i).unwrap(),
                    threaded.prove(i).unwrap(),
                    "proof diverged at n={n} threads={threads} leaf={i}"
                );
            }
        }
    }
}
