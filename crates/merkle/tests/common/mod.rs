//! The leaf generator and the root oracle the suites share.

use ugc_hash::HashFunction;

/// `n` leaves of `width` bytes, each distinct from its neighbours.
pub fn leaves(n: usize, width: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            (0..width)
                .map(|j| ((i * 131 + j * 31 + 7) % 251) as u8)
                .collect()
        })
        .collect()
}

/// Eq. (1) by hand: zero-pad to a power of two (at least two leaves),
/// hash leaf pairs, then digest pairs up to the root — one scalar
/// `digest_pair` at a time, no tree, no lanes, no threads.
pub fn reference_root<H: HashFunction>(leaves: &[impl AsRef<[u8]>]) -> H::Digest {
    let zero = vec![0u8; leaves[0].as_ref().len()];
    let leaf = |i: usize| leaves.get(i).map_or(&zero[..], AsRef::as_ref);
    let padded = leaves.len().max(2).next_power_of_two();
    let mut level: Vec<H::Digest> = (0..padded / 2)
        .map(|t| H::digest_pair(leaf(2 * t), leaf(2 * t + 1)))
        .collect();
    while level.len() > 1 {
        level = level
            .chunks_exact(2)
            .map(|pair| H::digest_pair(pair[0].as_ref(), pair[1].as_ref()))
            .collect();
    }
    level[0]
}
