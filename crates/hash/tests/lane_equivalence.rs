//! Lane-vs-scalar equivalence: the multi-lane digest kernels must be
//! bit-identical to per-message scalar hashing for every algorithm, at
//! every padding boundary, for ragged batches and mixed per-lane lengths.
//!
//! Every assertion runs at both [`LaneWidth`]s, so the same checks prove
//! that the wide kernels match the scalar path and that the `Scalar`
//! setting — the reference — agrees with per-message hashing too.

use ugc_hash::{
    digest_batch, digest_iterated_batch, digest_pairs_into, HashFunction, LaneWidth, Md5, Sha256,
};

/// Message lengths that exercise every padding case: empty, one byte,
/// both sides of the one-block boundary (55/56), the block edge
/// (63/64/65), and both sides of the two-block boundary (119/120), plus
/// an exact two-block message (128).
const BOUNDARY_LENS: [usize; 10] = [0, 1, 55, 56, 63, 64, 65, 119, 120, 128];

/// Deterministic pseudo-random message of length `len`.
fn message(len: usize, tag: u64) -> Vec<u8> {
    let mut state = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ len as u64;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 56).to_le_bytes()[0]
        })
        .collect()
}

/// Every pair through the one dispatcher, into a fresh `Vec`.
fn digest_pairs<H: HashFunction>(pairs: &[(&[u8], &[u8])], width: LaneWidth) -> Vec<H::Digest> {
    let mut out = vec![H::Digest::default(); pairs.len()];
    digest_pairs_into::<H>(&mut out, |j| pairs[j], width);
    out
}

fn assert_batch_matches_scalar<H: HashFunction>(payloads: &[Vec<u8>], context: &str) {
    let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    let scalar: Vec<H::Digest> = payloads.iter().map(|p| H::digest(p)).collect();
    for width in LaneWidth::ALL {
        let lanes = digest_batch::<H>(&refs, width);
        assert_eq!(lanes, scalar, "{context} width={width}");
    }
}

#[test]
fn padding_boundaries_match_scalar_for_every_algorithm() {
    for &len in &BOUNDARY_LENS {
        // A full batch of same-length messages at each boundary length.
        let payloads: Vec<Vec<u8>> = (0..8).map(|i| message(len, i)).collect();
        assert_batch_matches_scalar::<Md5>(&payloads, &format!("md5 len={len}"));
        assert_batch_matches_scalar::<Sha256>(&payloads, &format!("sha256 len={len}"));
    }
}

#[test]
fn ragged_batches_match_scalar_for_every_algorithm() {
    // Batch sizes straddling both kernel widths: 1..=2 go fully scalar,
    // 3..=5 take one 4-wide dispatch (and a scalar fifth), 6..=8 one
    // 8-wide dispatch, 9 an 8-wide dispatch plus a tail.
    for n in 1..=9usize {
        let payloads: Vec<Vec<u8>> = (0..n).map(|i| message(24 + i, i as u64)).collect();
        assert_batch_matches_scalar::<Md5>(&payloads, &format!("md5 n={n}"));
        assert_batch_matches_scalar::<Sha256>(&payloads, &format!("sha256 n={n}"));
    }
}

#[test]
fn mixed_per_lane_lengths_match_scalar() {
    // Every boundary length in the same dispatch: one- and two-block
    // lanes in the transposed passes, the longer ones through the scalar
    // one-shot.
    let payloads: Vec<Vec<u8>> = BOUNDARY_LENS
        .iter()
        .enumerate()
        .map(|(i, &len)| message(len, i as u64))
        .collect();
    assert_batch_matches_scalar::<Md5>(&payloads, "md5 mixed");
    assert_batch_matches_scalar::<Sha256>(&payloads, "sha256 mixed");
}

#[test]
fn lane_order_independence() {
    // Lane i's digest depends only on message i: reversing the batch
    // reverses the outputs and changes nothing else.
    let payloads: Vec<Vec<u8>> = (0..8).map(|i| message(30 + 7 * i as usize, i)).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    let reversed_refs: Vec<&[u8]> = refs.iter().rev().copied().collect();
    for width in LaneWidth::ALL {
        let forward = digest_batch::<Sha256>(&refs, width);
        let mut reversed = digest_batch::<Sha256>(&reversed_refs, width);
        reversed.reverse();
        assert_eq!(forward, reversed, "width={width}");
    }
}

#[test]
fn two_segment_pairs_match_concatenation() {
    for &split in &[0usize, 1, 32, 55, 64, 100] {
        let payloads: Vec<Vec<u8>> = (0..9).map(|i| message(120, 1000 + i)).collect();
        let pairs: Vec<(&[u8], &[u8])> = payloads
            .iter()
            .map(|p| {
                let (a, b) = p.split_at(split.min(p.len()));
                (a, b)
            })
            .collect();
        let scalar: Vec<_> = payloads.iter().map(|p| Sha256::digest(p)).collect();
        for width in LaneWidth::ALL {
            let lanes = digest_pairs::<Sha256>(&pairs, width);
            assert_eq!(lanes, scalar, "split={split} width={width}");
        }
    }
}

#[test]
fn iterated_chains_match_scalar() {
    let seeds: Vec<Vec<u8>> = (0..9).map(|i| message(16, 2000 + i)).collect();
    let refs: Vec<&[u8]> = seeds.iter().map(|s| s.as_slice()).collect();
    for k in [1u64, 2, 7, 64] {
        let scalar: Vec<_> = seeds.iter().map(|s| Md5::digest_iterated(s, k)).collect();
        for width in LaneWidth::ALL {
            let lanes = digest_iterated_batch::<Md5>(&refs, k, width);
            assert_eq!(lanes, scalar, "k={k} width={width}");
        }
    }
}

#[test]
fn fixed_width_dispatch_matches_scalar_digests() {
    // Drive the trait entry points directly (not the batch helpers):
    // these are what the Merkle level builder calls per group.
    let payloads: Vec<Vec<u8>> = (0..8).map(|i| message(45 + i, 3000 + i as u64)).collect();
    let msgs8: [(&[u8], &[u8]); 8] = core::array::from_fn(|l| (payloads[l].as_slice(), &[][..]));
    let msgs4: [(&[u8], &[u8]); 4] = core::array::from_fn(|l| (payloads[l].as_slice(), &[][..]));
    let got8 = Sha256::digest_lanes_8(&msgs8);
    let got4 = Md5::digest_lanes_4(&msgs4);
    for l in 0..8 {
        assert_eq!(got8[l], Sha256::digest(&payloads[l]), "sha256 lane {l}");
    }
    for l in 0..4 {
        assert_eq!(got4[l], Md5::digest(&payloads[l]), "md5 lane {l}");
    }
}

/// Eight two-segment messages, lane `l` split as `splits[l % splits.len()]`,
/// checked against scalar `digest_pair` through `digest_pairs` at both
/// widths and through the fixed-width trait entry points.
fn assert_sha256_pairs_match_scalar(splits: &[(usize, usize)], context: &str) {
    let payloads: Vec<(Vec<u8>, Vec<u8>)> = (0..8)
        .map(|l| {
            let (la, lb) = splits[l % splits.len()];
            (message(la, 4000 + l as u64), message(lb, 5000 + l as u64))
        })
        .collect();
    let pairs: Vec<(&[u8], &[u8])> = payloads
        .iter()
        .map(|(a, b)| (a.as_slice(), b.as_slice()))
        .collect();
    let scalar: Vec<[u8; 32]> = pairs
        .iter()
        .map(|(a, b)| Sha256::digest_pair(a, b))
        .collect();
    for width in LaneWidth::ALL {
        assert_eq!(
            digest_pairs::<Sha256>(&pairs, width),
            scalar,
            "{context} width={width}"
        );
    }
    let msgs8: [(&[u8], &[u8]); 8] = core::array::from_fn(|l| pairs[l]);
    let msgs4: [(&[u8], &[u8]); 4] = core::array::from_fn(|l| pairs[l]);
    assert_eq!(
        Sha256::digest_lanes_8(&msgs8)[..],
        scalar[..],
        "{context} x8"
    );
    assert_eq!(
        Sha256::digest_lanes_4(&msgs4)[..],
        scalar[..4],
        "{context} x4"
    );
}

#[test]
fn sha256_all_64_byte_lanes_take_the_fixed_shape_path() {
    // Every lane totals exactly 64 bytes — the Merkle inner node — however
    // the two segments split it.
    assert_sha256_pairs_match_scalar(&[(32, 32)], "32|32");
    assert_sha256_pairs_match_scalar(&[(16, 48)], "16|48");
    assert_sha256_pairs_match_scalar(&[(64, 0)], "64|0");
    assert_sha256_pairs_match_scalar(&[(32, 32), (16, 48), (64, 0), (0, 64), (1, 63)], "mixed");
}

#[test]
fn sha256_one_odd_lane_among_64s_falls_back_and_matches() {
    // One lane a byte short or a byte long: the fixed shape no longer
    // holds for the dispatch, whose second block takes the general pass.
    for odd in [(31, 32), (32, 33), (63, 0), (0, 65)] {
        for position in [0usize, 3, 7] {
            let mut splits = [(32usize, 32usize); 8];
            splits[position] = odd;
            assert_sha256_pairs_match_scalar(&splits, &format!("odd={odd:?} at {position}"));
        }
    }
}

#[test]
fn sha256_uniform_one_block_shapes_match() {
    // The leaf level of a tree over 16-byte results, and the largest
    // message that still pads into one block.
    assert_sha256_pairs_match_scalar(&[(16, 16)], "16|16");
    assert_sha256_pairs_match_scalar(&[(0, 55)], "0|55");
}

#[test]
fn fips_vectors_through_digest_batch() {
    // FIPS 180-4 / RFC 1321 vectors, repeated to fill every lane of one
    // 8-wide and one 4-wide dispatch plus a scalar tail.
    let abc: &[u8] = b"abc";
    let two_block: &[u8] = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    let msgs: Vec<&[u8]> = (0..13).map(|i| [abc, two_block, b""][i % 3]).collect();
    let hex = |d: &[u8]| ugc_hash::hex::encode(d);
    let sha256 = [
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ];
    let md5 = [
        "900150983cd24fb0d6963f7d28e17f72",
        "8215ef0796a20bcaaae116d3876c664a",
        "d41d8cd98f00b204e9800998ecf8427e",
    ];
    for width in LaneWidth::ALL {
        for (i, d) in digest_batch::<Sha256>(&msgs, width).iter().enumerate() {
            assert_eq!(hex(d), sha256[i % 3], "sha256 message {i} width={width}");
        }
        for (i, d) in digest_batch::<Md5>(&msgs, width).iter().enumerate() {
            assert_eq!(hex(d), md5[i % 3], "md5 message {i} width={width}");
        }
    }
}

/// The one dispatcher against per-pair `digest_pair`: every batch size
/// 0..=17 (each partial group — the 3-, 5-, 6- and 7-message groups pad a
/// kernel's spare lanes — behind zero, one and two full groups), uniform
/// node-shaped pairs and per-lane lengths across all three block counts.
fn assert_dispatcher_matches_per_pair<H: HashFunction>() {
    for n in 0..=17usize {
        let uniform: Vec<(Vec<u8>, Vec<u8>)> = (0..n as u64)
            .map(|i| {
                (
                    message(H::DIGEST_LEN, 6000 + i),
                    message(H::DIGEST_LEN, 7000 + i),
                )
            })
            .collect();
        let mixed: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
            .map(|i| {
                let total = BOUNDARY_LENS[(i + n) % BOUNDARY_LENS.len()];
                let a = total * (i % 4) / 3;
                (
                    message(a, 8000 + i as u64),
                    message(total - a, 9000 + i as u64),
                )
            })
            .collect();
        for (shape, payloads) in [("uniform", &uniform), ("mixed", &mixed)] {
            let pairs: Vec<(&[u8], &[u8])> = payloads
                .iter()
                .map(|(a, b)| (a.as_slice(), b.as_slice()))
                .collect();
            let want: Vec<H::Digest> = pairs.iter().map(|(a, b)| H::digest_pair(a, b)).collect();
            for width in LaneWidth::ALL {
                assert_eq!(
                    digest_pairs::<H>(&pairs, width),
                    want,
                    "{} {shape} n={n} width={width}",
                    H::NAME
                );
            }
        }
    }
}

#[test]
fn dispatcher_matches_per_pair_digest_for_every_batch_size() {
    assert_dispatcher_matches_per_pair::<Md5>();
    assert_dispatcher_matches_per_pair::<Sha256>();
}
