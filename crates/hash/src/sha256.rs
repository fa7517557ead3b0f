//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! The default Merkle-tree hash in this reproduction: collision-resistant,
//! so Theorem 2 of the paper (uncheatability of the commitment) holds with
//! today's knowledge, unlike MD5.

use crate::HashFunction;

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
fn compress_pad64(h: &mut [u32; 8]) {
    rounds(h, |i| PAD64_KW[i]);
}

/// Multi-block compression kernel: feeds every full 64-byte block of
/// `data` to [`compress`] directly from the input slice — no per-block
/// staging copy, one dispatch for the whole run — and returns the
/// unconsumed tail (`< 64` bytes).
fn compress_blocks<'a>(h: &mut [u32; 8], data: &'a [u8]) -> &'a [u8] {
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(h, block.try_into().expect("64-byte block"));
    }
    blocks.remainder()
}

/// Serialises the working state into the big-endian digest.
pub(crate) fn digest_from_words(h: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Streaming SHA-256 state.
#[derive(Debug, Clone)]
pub struct Sha256State {
    h: [u32; 8],
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256State {
    fn default() -> Self {
        Sha256State {
            h: IV,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }
}

impl Sha256State {
    fn compress(&mut self, block: &[u8; 64]) {
        compress(&mut self.h, block);
    }

    fn absorb(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        data = compress_blocks(&mut self.h, data);
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    fn complete(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let pad_len = 1 + ((55u64.wrapping_sub(self.len)) % 64) as usize;
        self.absorb(&pad[..pad_len]);
        self.absorb(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buf_len, 0);
        digest_from_words(&self.h)
    }
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

impl HashFunction for Sha256 {
    type Digest = [u8; 32];
    type State = Sha256State;

    const DIGEST_LEN: usize = 32;
    const BLOCK_LEN: usize = 64;
    const NAME: &'static str = "SHA-256";

    fn new_state() -> Sha256State {
        Sha256State::default()
    }

    fn digest_from_bytes(bytes: &[u8]) -> Option<[u8; 32]> {
        bytes.try_into().ok()
    }

    fn update(state: &mut Sha256State, data: &[u8]) {
        state.absorb(data);
    }

    fn finalize(state: Sha256State) -> [u8; 32] {
        state.complete()
    }

    /// One-shot multi-block fast path: every full block is compressed
    /// straight out of `data` (no streaming-state staging copy) and the
    /// padded tail — at most two blocks — is assembled on the stack.
    fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = IV;
        let tail = compress_blocks(&mut h, data);
        let mut buf = [0u8; 128];
        buf[..tail.len()].copy_from_slice(tail);
        buf[tail.len()] = 0x80;
        let end = if tail.len() < 56 { 64 } else { 128 };
        let bit_len = (data.len() as u64).wrapping_mul(8);
        buf[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut h, &buf[..end]);
        digest_from_words(&h)
    }

    /// Merkle inner-node fast path: `a || b` plus its padding is assembled
    /// directly on the stack (at most two blocks for a total of ≤ 119
    /// bytes), skipping the streaming state entirely. A total of exactly
    /// 64 bytes — two SHA-256 digests, every inner node — is one block of
    /// message and the constant padding block.
    fn digest_pair(a: &[u8], b: &[u8]) -> [u8; 32] {
        let total = a.len() + b.len();
        if total == 64 {
            let mut block = [0u8; 64];
            block[..a.len()].copy_from_slice(a);
            block[a.len()..].copy_from_slice(b);
            let mut h = IV;
            compress(&mut h, &block);
            compress_pad64(&mut h);
            return digest_from_words(&h);
        }
        if total > 119 {
            // total + 0x80 + 8-byte length no longer fits two blocks.
            return crate::streaming_digest_pair::<Self>(a, b);
        }
        let mut buf = [0u8; 128];
        buf[..a.len()].copy_from_slice(a);
        buf[a.len()..total].copy_from_slice(b);
        buf[total] = 0x80;
        let end = if total < 56 { 64 } else { 128 };
        buf[end - 8..end].copy_from_slice(&((total as u64) * 8).to_be_bytes());
        let mut h = IV;
        compress_blocks(&mut h, &buf[..end]);
        digest_from_words(&h)
    }

    /// `g = H^k` fast path: a 32-byte digest always re-hashes as a single
    /// padded block whose padding bytes never change, so one stack block
    /// is reused across all iterations.
    fn digest_iterated(input: &[u8], iterations: u64) -> [u8; 32] {
        assert!(
            iterations > 0,
            "digest_iterated requires at least 1 iteration"
        );
        let mut digest = Self::digest(input);
        if iterations == 1 {
            return digest;
        }
        let mut block = [0u8; 64];
        block[32] = 0x80;
        block[56..].copy_from_slice(&256u64.to_be_bytes());
        for _ in 1..iterations {
            block[..32].copy_from_slice(&digest);
            let mut h = IV;
            compress(&mut h, &block);
            digest = digest_from_words(&h);
        }
        digest
    }

    /// Four-message transposed lane kernel; see [`crate::LaneKernel`].
    fn digest_lanes_4(msgs: &[(&[u8], &[u8]); 4]) -> [[u8; 32]; 4] {
        crate::lanes::sha256_digest_lanes(msgs)
    }

    /// Eight-message transposed lane kernel; see [`crate::LaneKernel`].
    fn digest_lanes_8(msgs: &[(&[u8], &[u8]); 8]) -> [[u8; 32]; 8] {
        crate::lanes::sha256_digest_lanes(msgs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

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
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1234).collect();
        for chunk in [1usize, 13, 64, 200] {
            let mut st = Sha256::new_state();
            for piece in data.chunks(chunk) {
                Sha256::update(&mut st, piece);
            }
            assert_eq!(
                Sha256::finalize(st),
                Sha256::digest(&data),
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn boundary_lengths() {
        for len in [55usize, 56, 57, 63, 64, 65, 128, 129] {
            let data = vec![0xC3u8; len];
            let mut st = Sha256::new_state();
            for b in &data {
                Sha256::update(&mut st, core::slice::from_ref(b));
            }
            assert_eq!(Sha256::finalize(st), Sha256::digest(&data), "len {len}");
        }
    }

    #[test]
    fn digest_pair_is_concatenation() {
        assert_eq!(Sha256::digest_pair(b"a", b"bc"), Sha256::digest(b"abc"));
    }

    #[test]
    fn multi_block_oneshot_matches_streaming_state() {
        // The one-shot digest compresses whole blocks straight from the
        // input; the streaming state buffers unaligned pieces. Both must
        // agree at every length around the block and padding boundaries
        // and far beyond them.
        for len in (0usize..=260).chain([1000, 4096, 65536, 65537]) {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let mut st = Sha256::new_state();
            for piece in data.chunks(61) {
                Sha256::update(&mut st, piece);
            }
            assert_eq!(Sha256::finalize(st), Sha256::digest(&data), "len {len}");
        }
    }

    #[test]
    fn digest_pair_fast_path_boundaries() {
        // One-block (< 56), two-block (56..=119) and streaming-fallback
        // (> 119) totals, including the exact cut-overs.
        for (la, lb) in [
            (0, 0),
            (16, 16),
            (32, 32), // 64: the constant-padding-block path, at every split
            (16, 48),
            (64, 0),
            (0, 64),
            (27, 28), // 55: largest single block
            (28, 28), // 56: smallest two-block
            (60, 59), // 119: largest two-block
            (60, 60), // 120: fallback
            (100, 100),
        ] {
            let a: Vec<u8> = (0..la).map(|i| 0x3C ^ i as u8).collect();
            let b: Vec<u8> = (0..lb).map(|i| 0xC3 ^ i as u8).collect();
            let concat: Vec<u8> = [a.as_slice(), b.as_slice()].concat();
            assert_eq!(
                Sha256::digest_pair(&a, &b),
                Sha256::digest(&concat),
                "la={la} lb={lb}"
            );
            assert_eq!(
                Sha256::digest_pair(&a, &b),
                crate::streaming_digest_pair::<Sha256>(&a, &b),
                "la={la} lb={lb}"
            );
        }
    }

    #[test]
    fn digest_iterated_matches_loop() {
        for k in [1u64, 2, 3, 17] {
            assert_eq!(
                Sha256::digest_iterated(b"seed", k),
                crate::streaming_digest_iterated::<Sha256>(b"seed", k),
                "k={k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 1 iteration")]
    fn digest_iterated_rejects_zero() {
        let _ = Sha256::digest_iterated(b"x", 0);
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
