//! The Merkle–Damgård construction under MD5 and SHA-256, written once.
//!
//! The two algorithms differ in four things — initial value,
//! compression function, number of 32-bit state words, and whether words
//! and the appended bit length are little- or big-endian — which is what
//! [`Compression`] asks of them. Everything else is this file: 64-byte
//! blocks, the `0x80` marker, zero fill to 56 mod 64, the 8-byte length.
//! There are two ways through it, and a padding or length bug has one
//! place to live in each:
//!
//! * [`State`] — the streaming state behind
//!   [`HashFunction::update`] / [`HashFunction::finalize`], for input of
//!   any length in any chunking;
//! * [`digest_pair`] — the one-shot for `a ‖ b` of at most 119 bytes (two
//!   blocks once padded), laid out on the stack by [`pad`]. Every Merkle
//!   node, every leaf and every link of a `g = H^k` chain is that short, so
//!   this is the path the protocol runs; `digest(x)` is
//!   `digest_pair(x, &[])`, and anything longer takes the streaming state.
//!   The lane driver pads with it too, through [`LaneCompression`].

use crate::lanes::load_words;
use crate::HashFunction;

/// What one algorithm brings to the construction: a chaining value of `N`
/// words and the function that folds a 64-byte block into it.
pub(crate) trait Compression<const N: usize>: HashFunction {
    /// Initial chaining value.
    const IV: [u32; N];

    /// Byte order of the message words, the digest and the appended bit
    /// length: little-endian for MD5, big-endian for SHA-256.
    const LITTLE_ENDIAN: bool;

    /// Folds one 64-byte block into the chaining value.
    fn compress(h: &mut [u32; N], block: &[u8; 64]);

    /// Folds in `block`, the one that ends every 64-byte message: `0x80`,
    /// zeros, bit length 512. Constant, so an algorithm may ignore it and
    /// run from a table.
    fn compress_pad64(h: &mut [u32; N], block: &[u8; 64]) {
        Self::compress(h, block);
    }

    /// Serialises the chaining value into the digest.
    fn digest_from_words(h: &[u32; N]) -> Self::Digest;
}

/// [`Compression`] over `L` independent lanes, every chaining value and
/// message word held transposed in `[word][lane]` rows so that one pass
/// compresses one block of each lane.
pub(crate) trait LaneCompression<const N: usize>: Compression<N> {
    /// Folds one block per lane into `h`. `w` arrives holding the sixteen
    /// message words of each lane's block and may be consumed as the
    /// rolling schedule.
    fn compress_lanes<const L: usize>(h: &mut [[u32; L]; N], w: &mut [[u32; L]; 16]);

    /// [`compress_pad64`](Compression::compress_pad64) in every lane:
    /// block 1 of every padded message in `bufs` is the constant one.
    fn compress_lanes_pad64<const L: usize>(h: &mut [[u32; L]; N], bufs: &[[u8; 128]; L]) {
        Self::compress_lanes(h, &mut load_words(bufs, 1, Self::LITTLE_ENDIAN));
    }
}

/// The bit length of a `total`-byte message as the final 8 bytes of its
/// padding.
fn length_bytes<C: Compression<N>, const N: usize>(total: u64) -> [u8; 8] {
    let bits = total.wrapping_mul(8);
    if C::LITTLE_ENDIAN {
        bits.to_le_bytes()
    } else {
        bits.to_be_bytes()
    }
}

/// Feeds every full 64-byte block of `data` to the compression function
/// straight from the input slice — no staging copy — and returns the
/// unconsumed tail (`< 64` bytes).
fn compress_blocks<'a, C: Compression<N>, const N: usize>(
    h: &mut [u32; N],
    data: &'a [u8],
) -> &'a [u8] {
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        C::compress(h, block.try_into().expect("64-byte block"));
    }
    blocks.remainder()
}

/// Streaming hasher state of an algorithm with `N` state words.
#[derive(Debug, Clone)]
pub struct State<const N: usize> {
    h: [u32; N],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl<const N: usize> State<N> {
    pub(crate) fn new<C: Compression<N>>() -> Self {
        State {
            h: C::IV,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    pub(crate) fn absorb<C: Compression<N>>(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                C::compress(&mut self.h, &self.buf);
                self.buf_len = 0;
            }
        }
        data = compress_blocks::<C, N>(&mut self.h, data);
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    pub(crate) fn complete<C: Compression<N>>(mut self) -> C::Digest {
        // Padding: 0x80, zeros until the length is 56 mod 64, then the
        // 64-bit bit length of the message proper.
        let length = length_bytes::<C, N>(self.len);
        let mut pad = [0u8; 64];
        pad[0] = 0x80;
        let pad_len = 1 + (55u64.wrapping_sub(self.len) % 64) as usize;
        self.absorb::<C>(&pad[..pad_len]);
        self.absorb::<C>(&length);
        debug_assert_eq!(self.buf_len, 0);
        C::digest_from_words(&self.h)
    }
}

/// Lays the padded message `a ‖ b` out in `buf`, which must arrive
/// zeroed: the content, the `0x80` marker, and the bit length at the end
/// of the last block. Returns the number of 64-byte blocks — one below 56
/// bytes, two up to 119 — or `None`, leaving `buf` untouched, for a
/// message that no longer fits two blocks.
pub(crate) fn pad<C: Compression<N>, const N: usize>(
    a: &[u8],
    b: &[u8],
    buf: &mut [u8; 128],
) -> Option<usize> {
    let total = a.len() + b.len();
    if total > 119 {
        return None;
    }
    buf[..a.len()].copy_from_slice(a);
    buf[a.len()..total].copy_from_slice(b);
    buf[total] = 0x80;
    let end = if total < 56 { 64 } else { 128 };
    buf[end - 8..end].copy_from_slice(&length_bytes::<C, N>(total as u64));
    Some(end / 64)
}

/// `hash(a ‖ b)` with message and padding assembled on the stack — at
/// most two blocks — and no streaming state. A total of exactly 64 bytes
/// (two SHA-256 digests: every inner node) is one block of message and the
/// constant padding block; more than 119 bytes no longer fit two blocks
/// and take the streaming state.
pub(crate) fn digest_pair<C: Compression<N>, const N: usize>(a: &[u8], b: &[u8]) -> C::Digest {
    let mut buf = [0u8; 128];
    let Some(blocks) = pad::<C, N>(a, b, &mut buf) else {
        return crate::streaming_digest_pair::<C>(a, b);
    };
    let mut h = C::IV;
    if a.len() + b.len() == 64 {
        compress_blocks::<C, N>(&mut h, &buf[..64]);
        C::compress_pad64(&mut h, buf[64..].try_into().expect("64-byte block"));
    } else {
        compress_blocks::<C, N>(&mut h, &buf[..64 * blocks]);
    }
    C::digest_from_words(&h)
}

/// Puts `$alg` on the scaffold: its [`Compression`] from the items of
/// `$module` (`IV`, `compress`, `digest_from_words`, optionally a tabled
/// `pad64`), and its [`HashFunction`] — streaming through [`State`],
/// one-shot through [`digest_pair`], and lane groups through the lane
/// driver `crate::lanes::$lanes` over its [`LaneCompression`].
macro_rules! merkle_damgard {
    (
        $alg:ident, $module:ident, $words:expr, $digest_len:expr, $name:expr,
        little_endian = $le:expr $(, pad64 = $pad64:path)?, lanes = $lanes:ident
    ) => {
        impl Compression<$words> for crate::$alg {
            const IV: [u32; $words] = crate::$module::IV;
            const LITTLE_ENDIAN: bool = $le;

            fn compress(h: &mut [u32; $words], block: &[u8; 64]) {
                crate::$module::compress(h, block);
            }

            $(fn compress_pad64(h: &mut [u32; $words], _: &[u8; 64]) {
                $pad64(h);
            })?

            fn digest_from_words(h: &[u32; $words]) -> [u8; $digest_len] {
                crate::$module::digest_from_words(h)
            }
        }

        impl HashFunction for crate::$alg {
            type Digest = [u8; $digest_len];
            type State = State<$words>;

            const DIGEST_LEN: usize = $digest_len;
            const NAME: &'static str = $name;

            fn new_state() -> Self::State {
                State::new::<Self>()
            }

            fn digest_from_bytes(bytes: &[u8]) -> Option<Self::Digest> {
                bytes.try_into().ok()
            }

            fn update(state: &mut Self::State, data: &[u8]) {
                state.absorb::<Self>(data);
            }

            fn finalize(state: Self::State) -> Self::Digest {
                state.complete::<Self>()
            }

            fn digest_pair(a: &[u8], b: &[u8]) -> Self::Digest {
                digest_pair::<Self, $words>(a, b)
            }

            fn digest_lanes_4(msgs: &[(&[u8], &[u8]); 4]) -> [Self::Digest; 4] {
                crate::lanes::$lanes::<Self, $words, 4>(msgs)
            }

            fn digest_lanes_8(msgs: &[(&[u8], &[u8]); 8]) -> [Self::Digest; 8] {
                crate::lanes::$lanes::<Self, $words, 8>(msgs)
            }
        }
    };
}

merkle_damgard! {
    Md5, md5, 4, 16, "MD5",
    little_endian = true, lanes = digest_lanes
}
merkle_damgard! {
    Sha256, sha256, 8, 32, "SHA-256",
    little_endian = false, pad64 = crate::sha256::compress_pad64, lanes = digest_lanes
}

/// The construction's boundary tests, generic over the algorithm;
/// `scaffold_tests!` stamps them into each algorithm's own test module
/// beside its published vectors.
#[cfg(test)]
pub(crate) mod tests {
    use crate::{streaming_digest_pair, HashFunction};

    /// Empty, one byte, both sides of the one-block edge (55/56), of the
    /// block edge (63/64/65) and of the two-block edge (119/120, where
    /// the one-shot hands over to the streaming state), and two whole
    /// blocks.
    const BOUNDARY_LENS: [usize; 10] = [0, 1, 55, 56, 63, 64, 65, 119, 120, 128];

    fn message(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    fn streamed<H: HashFunction>(data: &[u8], chunk: usize) -> H::Digest {
        let mut st = H::new_state();
        for piece in data.chunks(chunk) {
            H::update(&mut st, piece);
        }
        H::finalize(st)
    }

    pub(crate) fn boundary_lengths<H: HashFunction>() {
        for len in BOUNDARY_LENS {
            let data = message(len);
            assert_eq!(H::digest(&data), streamed::<H>(&data, 1), "len {len}");
        }
    }

    pub(crate) fn streaming_equals_oneshot<H: HashFunction>() {
        let data = message(1234);
        let want = H::digest(&data);
        for chunk in [1usize, 3, 13, 63, 64, 65, 127, 200, 1234] {
            assert_eq!(streamed::<H>(&data, chunk), want, "chunk size {chunk}");
        }
    }

    pub(crate) fn digest_pair_is_concatenation<H: HashFunction>() {
        assert_eq!(H::digest_pair(b"grid", b"work"), H::digest(b"gridwork"));
    }

    /// Every split of `a ‖ b` at every boundary total: the stack-assembled
    /// one-shot against the streaming reference.
    pub(crate) fn digest_pair_fast_path_boundaries<H: HashFunction>() {
        for total in BOUNDARY_LENS {
            let data = message(total);
            let want = streamed::<H>(&data, 64);
            for split in 0..=total {
                let (a, b) = data.split_at(split);
                assert_eq!(H::digest_pair(a, b), want, "{split}|{}", total - split);
                assert_eq!(
                    streaming_digest_pair::<H>(a, b),
                    want,
                    "{split}|{}",
                    total - split
                );
            }
        }
    }

    pub(crate) fn digest_iterated_matches_loop<H: HashFunction>() {
        for k in [1u64, 2, 3, 17, 100] {
            let mut want = H::digest(b"seed");
            for _ in 1..k {
                want = H::digest(want.as_ref());
            }
            assert_eq!(H::digest_iterated(b"seed", k), want, "k={k}");
        }
    }

    /// [`pad`](super::pad), the layout the one-shot and the lanes share,
    /// at every total from empty to one past the two-block limit.
    fn pad_layout<C: super::Compression<N>, const N: usize>() {
        for total in 0..=120usize {
            let data = message(total);
            let (a, b) = data.split_at(total / 3);
            let mut buf = [0u8; 128];
            let blocks = super::pad::<C, N>(a, b, &mut buf);
            if total == 120 {
                assert_eq!(blocks, None);
                assert_eq!(buf, [0; 128], "an unpadded message leaves buf alone");
                continue;
            }
            let want_blocks = if total < 56 { 1 } else { 2 };
            assert_eq!(blocks, Some(want_blocks), "total {total}");
            let end = 64 * want_blocks;
            assert_eq!(buf[..total], data[..], "total {total}");
            assert_eq!(buf[total], 0x80, "total {total}");
            // The bit length, below 2^16 for every total here.
            let [hi, lo] = u16::try_from(8 * total).unwrap().to_be_bytes();
            let length = if C::LITTLE_ENDIAN {
                [lo, hi, 0, 0, 0, 0, 0, 0]
            } else {
                [0, 0, 0, 0, 0, 0, hi, lo]
            };
            assert_eq!(buf[end - 8..end], length, "total {total}");
            let mut zeros = buf[total + 1..end - 8].iter().chain(&buf[end..]);
            assert!(zeros.all(|&x| x == 0), "total {total}");
        }
    }

    #[test]
    fn pad_lays_out_every_total_in_both_byte_orders() {
        pad_layout::<crate::Md5, 4>();
        pad_layout::<crate::Sha256, 8>();
    }

    macro_rules! scaffold_tests {
        ($alg:ty) => {
            #[test]
            fn boundary_lengths() {
                crate::scaffold::tests::boundary_lengths::<$alg>();
            }

            #[test]
            fn streaming_equals_oneshot() {
                crate::scaffold::tests::streaming_equals_oneshot::<$alg>();
            }

            #[test]
            fn digest_pair_is_concatenation() {
                crate::scaffold::tests::digest_pair_is_concatenation::<$alg>();
            }

            #[test]
            fn digest_pair_fast_path_boundaries() {
                crate::scaffold::tests::digest_pair_fast_path_boundaries::<$alg>();
            }

            #[test]
            fn digest_iterated_matches_loop() {
                crate::scaffold::tests::digest_iterated_matches_loop::<$alg>();
            }

            #[test]
            #[should_panic(expected = "at least 1 iteration")]
            fn digest_iterated_rejects_zero() {
                let _ = <$alg as crate::HashFunction>::digest_iterated(b"x", 0);
            }
        };
    }
    pub(crate) use scaffold_tests;
}
