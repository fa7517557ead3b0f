//! SHA-1 (FIPS 180-4), implemented from the specification.
//!
//! Included because the paper names "MD5 or SHA" as the Merkle-tree hash;
//! SHA-1 sits between MD5 and SHA-256 in the cost model. Like MD5 it is
//! broken for collision resistance and kept here for fidelity and
//! benchmarking, not for new designs.

/// FIPS 180-4 initial hash value.
pub(crate) const IV: [u32; 5] = [
    0x6745_2301,
    0xefcd_ab89,
    0x98ba_dcfe,
    0x1032_5476,
    0xc3d2_e1f0,
];

/// One SHA-1 compression round over a single 64-byte block.
pub(crate) fn compress(h: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *h;
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i / 20 {
            0 => ((b & c) | (!b & d), 0x5a82_7999),
            1 => (b ^ c ^ d, 0x6ed9_eba1),
            2 => ((b & c) | (b & d) | (c & d), 0x8f1b_bcdc),
            _ => (b ^ c ^ d, 0xca62_c1d6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
}

/// Serialises the working state into the big-endian digest.
pub(crate) fn digest_from_words(h: &[u32; 5]) -> [u8; 20] {
    let mut out = [0u8; 20];
    for (chunk, word) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The SHA-1 hash function (FIPS 180-4).
///
/// # Examples
///
/// ```
/// use ugc_hash::{HashFunction, Sha1, hex};
///
/// assert_eq!(
///     hex::encode(Sha1::digest(b"abc").as_ref()),
///     "a9993e364706816aba3e25717850c26c9cd0d89d",
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Sha1;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex, HashFunction};

    crate::scaffold::tests::scaffold_tests!(Sha1);

    fn sha1_hex(input: &[u8]) -> String {
        hex::encode(Sha1::digest(input).as_ref())
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(sha1_hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(sha1_hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            sha1_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(sha1_hex(&data), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }
}
