//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! The default Merkle-tree hash in this reproduction: collision-resistant,
//! so Theorem 2 of the paper (uncheatability of the commitment) holds with
//! today's knowledge, unlike MD5.

/// FIPS 180-4 round constants (shared with the transposed lane kernels
/// in `crate::lanes`).
#[rustfmt::skip]
pub(crate) const K: [u32; 64] = [
    0x428a_2f98, 0x7137_4491, 0xb5c0_fbcf, 0xe9b5_dba5,
    0x3956_c25b, 0x59f1_11f1, 0x923f_82a4, 0xab1c_5ed5,
    0xd807_aa98, 0x1283_5b01, 0x2431_85be, 0x550c_7dc3,
    0x72be_5d74, 0x80de_b1fe, 0x9bdc_06a7, 0xc19b_f174,
    0xe49b_69c1, 0xefbe_4786, 0x0fc1_9dc6, 0x240c_a1cc,
    0x2de9_2c6f, 0x4a74_84aa, 0x5cb0_a9dc, 0x76f9_88da,
    0x983e_5152, 0xa831_c66d, 0xb003_27c8, 0xbf59_7fc7,
    0xc6e0_0bf3, 0xd5a7_9147, 0x06ca_6351, 0x1429_2967,
    0x27b7_0a85, 0x2e1b_2138, 0x4d2c_6dfc, 0x5338_0d13,
    0x650a_7354, 0x766a_0abb, 0x81c2_c92e, 0x9272_2c85,
    0xa2bf_e8a1, 0xa81a_664b, 0xc24b_8b70, 0xc76c_51a3,
    0xd192_e819, 0xd699_0624, 0xf40e_3585, 0x106a_a070,
    0x19a4_c116, 0x1e37_6c08, 0x2748_774c, 0x34b0_bcb5,
    0x391c_0cb3, 0x4ed8_aa4a, 0x5b9c_ca4f, 0x682e_6ff3,
    0x748f_82ee, 0x78a5_636f, 0x84c8_7814, 0x8cc7_0208,
    0x90be_fffa, 0xa450_6ceb, 0xbef9_a3f7, 0xc671_78f2,
];

/// FIPS 180-4 initial hash value.
pub(crate) const IV: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// `K[i] + W[i]` for the padding block that follows exactly 64 message
/// bytes: `W[0] = 0x8000_0000`, `W[15] = 512`, the rest expanded by the
/// FIPS 180-4 schedule. Computed at compile time; the scalar
/// [`compress_pad64`] and the lane kernels' pad-64 pass both run from it.
pub(crate) const PAD64_KW: [u32; 64] = {
    let mut w = [0u32; 64];
    w[0] = 0x8000_0000;
    w[15] = 512;
    let mut i = 16;
    while i < 64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
        i += 1;
    }
    let mut i = 0;
    while i < 64 {
        w[i] = w[i].wrapping_add(K[i]);
        i += 1;
    }
    w
};

/// The 64 rounds and the feed-forward of one compression, `kw(i)` being
/// round `i`'s `K[i] + W[i]`.
#[inline(always)]
fn rounds(h: &mut [u32; 8], kw: impl Fn(usize) -> u32) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(kw(i));
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
    h[5] = h[5].wrapping_add(f);
    h[6] = h[6].wrapping_add(g);
    h[7] = h[7].wrapping_add(hh);
}

/// One SHA-256 compression round over a single 64-byte block.
pub(crate) fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    rounds(h, |i| K[i].wrapping_add(w[i]));
}

/// The second compression of every 64-byte message: its block is the
/// constant padding block (`0x80`, zeros, bit length 512), so there is no
/// schedule to expand — the rounds run from [`PAD64_KW`].
pub(crate) fn compress_pad64(h: &mut [u32; 8]) {
    rounds(h, |i| PAD64_KW[i]);
}

/// Serialises the working state into the big-endian digest.
pub(crate) fn digest_from_words(h: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The SHA-256 hash function (FIPS 180-4).
///
/// # Examples
///
/// ```
/// use ugc_hash::{HashFunction, Sha256, hex};
///
/// assert_eq!(
///     hex::encode(Sha256::digest(b"abc").as_ref()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Sha256;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex, HashFunction};

    crate::scaffold::tests::scaffold_tests!(Sha256);

    fn sha256_hex(input: &[u8]) -> String {
        hex::encode(Sha256::digest(input).as_ref())
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256_hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn avalanche_on_single_bit() {
        let d1 = Sha256::digest(&[0b0000_0000]);
        let d2 = Sha256::digest(&[0b0000_0001]);
        let differing: u32 = d1
            .iter()
            .zip(d2.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        // Expect roughly half of 256 bits to flip; use a loose band.
        assert!(
            (80..=176).contains(&differing),
            "only {differing} bits differ"
        );
    }
}
