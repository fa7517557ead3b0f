//! Property-based tests for the hash primitives.
//!
//! Invariants (DESIGN.md §5): incremental update equals one-shot digest for
//! any chunking, digests are length-stable, and the pair digest equals
//! hashing the concatenation.

use proptest::prelude::*;
use ugc_hash::{
    digest_batch, digest_iterated_batch, digest_pairs_into, hex, streaming_digest_pair, HashChain,
    HashFunction, IteratedHash, LaneWidth, Md5, Sha256,
};

fn chunked_digest<H: HashFunction>(data: &[u8], cuts: &[usize]) -> H::Digest {
    let mut st = H::new_state();
    let mut rest = data;
    for &cut in cuts {
        let take = cut.min(rest.len());
        let (head, tail) = rest.split_at(take);
        H::update(&mut st, head);
        rest = tail;
    }
    H::update(&mut st, rest);
    H::finalize(st)
}

proptest! {
    #[test]
    fn md5_chunking_invariance(data in proptest::collection::vec(any::<u8>(), 0..512),
                               cuts in proptest::collection::vec(0usize..200, 0..8)) {
        prop_assert_eq!(chunked_digest::<Md5>(&data, &cuts), Md5::digest(&data));
    }

    #[test]
    fn sha256_chunking_invariance(data in proptest::collection::vec(any::<u8>(), 0..512),
                                  cuts in proptest::collection::vec(0usize..200, 0..8)) {
        prop_assert_eq!(chunked_digest::<Sha256>(&data, &cuts), Sha256::digest(&data));
    }

    #[test]
    fn hex_encode_length(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(hex::encode(&bytes).len(), bytes.len() * 2);
    }

    #[test]
    fn digest_lengths_stable(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        prop_assert_eq!(Md5::digest(&data).len(), Md5::DIGEST_LEN);
        prop_assert_eq!(Sha256::digest(&data).len(), Sha256::DIGEST_LEN);
    }

    #[test]
    fn pair_digest_equals_concat(a in proptest::collection::vec(any::<u8>(), 0..128),
                                 b in proptest::collection::vec(any::<u8>(), 0..128)) {
        let concat: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(Sha256::digest_pair(&a, &b), Sha256::digest(&concat));
        prop_assert_eq!(Md5::digest_pair(&a, &b), Md5::digest(&concat));
    }

    #[test]
    fn pair_digest_fast_path_equals_streaming(
        a in proptest::collection::vec(any::<u8>(), 0..160),
        b in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        // Lengths up to 320 cross both the one-/two-block boundary (56)
        // and the stack fast-path cut-off (119) for every algorithm.
        prop_assert_eq!(Md5::digest_pair(&a, &b), streaming_digest_pair::<Md5>(&a, &b));
        prop_assert_eq!(Sha256::digest_pair(&a, &b), streaming_digest_pair::<Sha256>(&a, &b));
    }

    #[test]
    fn iterated_hash_composes(data in proptest::collection::vec(any::<u8>(), 0..64),
                              k in 1u64..16) {
        let g = IteratedHash::<Sha256>::new(k);
        let mut manual = Sha256::digest(&data);
        for _ in 1..k {
            manual = Sha256::digest(manual.as_ref());
        }
        prop_assert_eq!(g.apply(&data), manual);
    }

    #[test]
    fn chain_prefix_consistent(seed in proptest::collection::vec(any::<u8>(), 1..64),
                               k in 1u64..8, m in 1usize..16) {
        // Taking m elements then re-deriving must agree element-wise.
        let g = IteratedHash::<Md5>::new(k);
        let first: Vec<_> = HashChain::new(g, &seed).take(m).collect();
        let second: Vec<_> = HashChain::new(g, &seed).take(m).collect();
        prop_assert_eq!(first, second);
    }

    #[test]
    fn digest_to_u64_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let d = Sha256::digest(&data);
        prop_assert_eq!(Sha256::digest_to_u64(&d), Sha256::digest_to_u64(&d));
    }

    #[test]
    fn lane_batch_equals_scalar_every_width(
        // Lengths up to 140 cross the one-/two-block padding boundaries
        // (55/56, 119/120); batch sizes up to 9 cover the fully-scalar,
        // 4-wide, padded 8-wide and 8-wide-plus-tail dispatch shapes.
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..140), 0..10),
    ) {
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        for width in LaneWidth::ALL {
            prop_assert_eq!(
                digest_batch::<Md5>(&refs, width),
                msgs.iter().map(|m| Md5::digest(m)).collect::<Vec<_>>(),
                "md5 {}", width
            );
            prop_assert_eq!(
                digest_batch::<Sha256>(&refs, width),
                msgs.iter().map(|m| Sha256::digest(m)).collect::<Vec<_>>(),
                "sha256 {}", width
            );
        }
    }

    #[test]
    fn lane_pairs_equal_scalar_pair_digest(
        pairs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..80),
             proptest::collection::vec(any::<u8>(), 0..80)),
            0..10),
    ) {
        let refs: Vec<(&[u8], &[u8])> =
            pairs.iter().map(|(a, b)| (a.as_slice(), b.as_slice())).collect();
        for width in LaneWidth::ALL {
            let mut lanes = vec![[0u8; 32]; refs.len()];
            digest_pairs_into::<Sha256>(&mut lanes, |j| refs[j], width);
            prop_assert_eq!(
                lanes,
                pairs.iter().map(|(a, b)| Sha256::digest_pair(a, b)).collect::<Vec<_>>(),
                "{}", width
            );
        }
    }

    #[test]
    fn lane_iterated_batch_equals_scalar_chains(
        seeds in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..10),
        k in 1u64..16,
    ) {
        let refs: Vec<&[u8]> = seeds.iter().map(|s| s.as_slice()).collect();
        for width in LaneWidth::ALL {
            prop_assert_eq!(
                digest_iterated_batch::<Md5>(&refs, k, width),
                seeds.iter().map(|s| Md5::digest_iterated(s, k)).collect::<Vec<_>>(),
                "{}", width
            );
        }
    }

    #[test]
    fn lane_order_is_independent(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..100), 8..9),
    ) {
        // Lane i's digest depends only on message i: reversing the batch
        // exactly reverses the outputs.
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let forward = digest_batch::<Md5>(&refs, LaneWidth::X8);
        let reversed_refs: Vec<&[u8]> = refs.iter().rev().copied().collect();
        let mut reversed = digest_batch::<Md5>(&reversed_refs, LaneWidth::X8);
        reversed.reverse();
        prop_assert_eq!(forward, reversed);
    }
}
