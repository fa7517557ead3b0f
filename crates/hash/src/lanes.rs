//! Message-parallel multi-lane digest kernels ("SIMD within a register").
//!
//! The hash-bound paths of this reproduction — Merkle construction over
//! result leaves (Eq. 1 of the paper), ringer precomputation, iterated
//! `g = H^k` chains across independent seeds — hash many *small,
//! independent* messages. A single-message kernel leaves instruction-level
//! parallelism on the table: every 64-byte compression is one serial
//! dependency chain. Running 4 or 8 independent messages through a
//! *transposed* (struct-of-arrays) compression loop instead gives the
//! optimizer independent `u32` lanes — portable safe Rust, no intrinsics,
//! no build flag, `#![forbid(unsafe_code)]` preserved.
//!
//! # What the compiler does with each kernel
//!
//! Whether those lanes become vector instructions is the compiler's
//! decision, and it differs per algorithm (x86_64, baseline SSE2):
//!
//! * **MD5** has one rotate a round, by a per-round amount read from a
//!   table; LLVM widens the whole round (`paddd`/`pand`/`por`/`pslld`).
//! * **SHA-256** has twelve rotates a round, all by constants. There is
//!   no vector rotate below AVX-512, LLVM prices a constant vector
//!   rotate above the scalar `ror` it replaces, and so a round written
//!   with `rotate_right` stays scalar in every lane — which is what this
//!   file shipped until PR 15 (0 vector shifts, 80 scalar rotates in
//!   `digest_lanes_8`). [`sha256_compress_lanes`] therefore spells
//!   Σ0/Σ1/σ0/σ1 as *plain shifts XORed*, ordered so that no two
//!   neighbouring terms are the two halves of one rotation, e.g.
//!   `Σ1(e) = ((e>>6)^(e<<21)) ^ ((e>>11)^(e<<7)) ^ ((e>>25)^(e<<26))`.
//!   Those are the same six shifts an SSE2 or NEON rotate costs anyway,
//!   so the vector code loses nothing, and LLVM widens all of them. The
//!   scalar `sha256::compress` keeps its rotates: one lane has a real
//!   `ror`, and the shift form measures about 15 % slower there.
//!
//! The gain lives in emitted code, so CI reads it: the `test` job runs
//! `cargo rustc -p ugc-hash --release --lib -- --emit asm` and then
//! `.github/check_lane_codegen.sh`, which fails unless it finds exactly
//! the four `sha256_compress_lanes*` symbols (the general and the pad-64
//! kernel at widths 4 and 8), each with vector shifts (`pslld`/`psrld`)
//! and at most a handful of scalar `rol`/`ror`.
//!
//! # Shapes
//!
//! Every message is presented as two segments `(a, b)` and hashed as the
//! concatenation `a ‖ b`: one shape serves both the Merkle inner-node
//! operation `hash(Φ(V_left) ‖ Φ(V_right))` and plain single messages
//! (`(msg, &[])`). One generic driver, [`digest_lanes`], pads each lane
//! with the one-shot's own [`pad`]: a lane of at most 119 bytes is one or
//! two blocks, and a longer one takes the scalar `digest_pair`. Lanes are
//! independent — per-lane lengths may differ — so every digest is
//! bit-identical to the scalar path, which the replay/journal/wire-
//! equivalence contract depends on.
//!
//! One dispatcher, [`digest_pairs_into`], cuts a batch of any size into
//! kernel passes: groups of eight, a last group of six or seven as one
//! 8-wide pass and of three or four as one 4-wide pass (spare lanes
//! repeat the group's last message and are discarded; five is four and
//! one), one or two leftovers through the scalar one-shot. A Merkle level,
//! the levels of an opening and a batch of leaves or chain links all go
//! through it.
//!
//! [`LaneWidth`] has two settings: [`X8`](LaneWidth::X8), that policy,
//! and [`Scalar`](LaneWidth::Scalar), one `digest_pair` per message — the
//! reference the tests hold the kernels to. It is execution-only: it
//! never changes a digest.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use crate::scaffold::{pad, LaneCompression};
use crate::{md5, sha256, HashFunction, Md5, Sha256};

/// Whether batches of independent messages go through the transposed
/// lane kernels or one at a time.
///
/// This is an *execution* knob like `Parallelism`: it never changes a
/// digest, only how fast digests are produced. It is therefore excluded
/// from campaign-identity material (journal headers, params blobs).
///
/// # Examples
///
/// ```
/// use ugc_hash::LaneWidth;
///
/// assert_eq!(LaneWidth::default(), LaneWidth::X8);
/// assert_eq!(LaneWidth::X8.name(), "x8");
/// assert_eq!(LaneWidth::parse("scalar"), Some(LaneWidth::Scalar));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum LaneWidth {
    /// One message at a time — the reference scalar kernels.
    Scalar,
    /// Eight messages per transposed compression pass, a short last
    /// group through the 4-wide kernel (the default).
    #[default]
    X8,
}

impl LaneWidth {
    /// Both widths, for sweeps and equivalence tests.
    pub const ALL: [LaneWidth; 2] = [LaneWidth::Scalar, LaneWidth::X8];

    /// The width's stable lowercase name (`"scalar"`, `"x8"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LaneWidth::Scalar => "scalar",
            LaneWidth::X8 => "x8",
        }
    }

    /// Parses a width name as produced by [`name`](Self::name).
    #[must_use]
    pub fn parse(s: &str) -> Option<LaneWidth> {
        LaneWidth::ALL.into_iter().find(|w| w.name() == s)
    }
}

impl core::fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Loads the sixteen 32-bit message words of block `block` of each lane's
/// padded message into transposed `[word][lane]` layout.
pub(crate) fn load_words<const L: usize>(
    bufs: &[[u8; 128]; L],
    block: usize,
    le: bool,
) -> [[u32; L]; 16] {
    let mut m = [[0u32; L]; 16];
    for (w, row) in m.iter_mut().enumerate() {
        let at = 64 * block + 4 * w;
        for (l, slot) in row.iter_mut().enumerate() {
            let bytes: [u8; 4] = bufs[l][at..at + 4].try_into().expect("4-byte message word");
            *slot = if le {
                u32::from_le_bytes(bytes)
            } else {
                u32::from_be_bytes(bytes)
            };
        }
    }
    m
}

/// The feed-forward that ends a compression: `h += s`, row by row.
#[inline(always)]
fn add_rows<const L: usize, const N: usize>(h: &mut [[u32; L]; N], s: &[[u32; L]; N]) {
    for (row, add) in h.iter_mut().zip(s) {
        for l in 0..L {
            row[l] = row[l].wrapping_add(add[l]);
        }
    }
}

/// `Σ1`, `Σ0`, `σ0`, `σ1` of FIPS 180-4 as plain shifts XORed in an
/// order in which no two neighbouring terms form a rotate (see the module
/// doc): each pair below mixes the right half of one rotation with the
/// left half of another, so LLVM keeps twelve independent shifts per
/// round — which it widens — instead of re-fusing them into `fshr` calls
/// — which it will not.
#[inline(always)]
fn big_sigma1(e: u32) -> u32 {
    ((e >> 6) ^ (e << 21)) ^ ((e >> 11) ^ (e << 7)) ^ ((e >> 25) ^ (e << 26))
}

#[inline(always)]
fn big_sigma0(a: u32) -> u32 {
    ((a >> 2) ^ (a << 19)) ^ ((a >> 13) ^ (a << 10)) ^ ((a >> 22) ^ (a << 30))
}

#[inline(always)]
fn small_sigma0(x: u32) -> u32 {
    ((x >> 7) ^ (x << 14)) ^ ((x >> 18) ^ (x << 25)) ^ (x >> 3)
}

#[inline(always)]
fn small_sigma1(x: u32) -> u32 {
    ((x >> 17) ^ (x << 13)) ^ ((x >> 19) ^ (x << 15)) ^ (x >> 10)
}

/// One SHA-256 round over `L` lanes. `s` holds the eight working rows in
/// a rotating frame — round `i` finds `a` at `s[(8 - i % 8) % 8]` — so a
/// round writes two rows (`d += t1` becomes the next `e`, `h = t1 + t2`
/// the next `a`) and moves none. `kw[l]` is `K[i] + W[i]` of lane `l`.
#[inline(always)]
fn sha256_round<const L: usize>(s: &mut [[u32; L]; 8], i: usize, kw: &[u32; L]) {
    let at = |r: usize| (r + 8 - i % 8) % 8;
    let (a, b, c) = (s[at(0)], s[at(1)], s[at(2)]);
    let (e, f, g) = (s[at(4)], s[at(5)], s[at(6)]);
    let mut t1 = s[at(7)];
    for l in 0..L {
        let ch = g[l] ^ (e[l] & (f[l] ^ g[l]));
        t1[l] = t1[l]
            .wrapping_add(big_sigma1(e[l]))
            .wrapping_add(ch)
            .wrapping_add(kw[l]);
    }
    let d = &mut s[at(3)];
    for l in 0..L {
        d[l] = d[l].wrapping_add(t1[l]);
    }
    let h = &mut s[at(7)];
    for l in 0..L {
        let maj = (a[l] & b[l]) ^ (c[l] & (a[l] ^ b[l]));
        h[l] = t1[l].wrapping_add(big_sigma0(a[l])).wrapping_add(maj);
    }
}

/// One transposed SHA-256 compression pass: `L` independent lanes, state
/// and message words in `[word][lane]` rows. `w` arrives holding the
/// sixteen message words of each lane's block and is consumed as the
/// 16-row rolling schedule (`W[i]` overwrites `W[i − 16]`).
///
/// Kept out of line so the release assembly has one symbol per width for
/// the CI codegen guard (`.github/check_lane_codegen.sh`) to inspect.
#[inline(never)]
fn sha256_compress_lanes<const L: usize>(h: &mut [[u32; L]; 8], w: &mut [[u32; L]; 16]) {
    let mut s = *h;
    for i in 0..64 {
        if i >= 16 {
            let (w15, w7, w2) = (w[(i + 1) % 16], w[(i + 9) % 16], w[(i + 14) % 16]);
            let row = &mut w[i % 16];
            for l in 0..L {
                row[l] = row[l]
                    .wrapping_add(small_sigma0(w15[l]))
                    .wrapping_add(w7[l])
                    .wrapping_add(small_sigma1(w2[l]));
            }
        }
        let mut kw = w[i % 16];
        for x in &mut kw {
            *x = x.wrapping_add(sha256::K[i]);
        }
        sha256_round(&mut s, i, &kw);
    }
    add_rows(h, &s);
}

/// The second compression of every 64-byte message: its block is the
/// constant padding block (`0x80`, zeros, bit length 512), so the
/// schedule is the precomputed [`sha256::PAD64_KW`] table — the same for
/// every lane — and no message word is loaded or expanded.
#[inline(never)]
fn sha256_compress_lanes_pad64<const L: usize>(h: &mut [[u32; L]; 8]) {
    let mut s = *h;
    for (i, &kw) in sha256::PAD64_KW.iter().enumerate() {
        sha256_round(&mut s, i, &[kw; L]);
    }
    add_rows(h, &s);
}

/// One transposed MD5 compression pass: `L` independent lanes, state in
/// `[word][lane]` layout. Same round structure as the scalar
/// `md5::compress`, with every scalar `u32` widened to a `[u32; L]` row.
impl LaneCompression<4> for Md5 {
    fn compress_lanes<const L: usize>(h: &mut [[u32; L]; 4], m: &mut [[u32; L]; 16]) {
        let [mut a, mut b, mut c, mut d] = *h;
        for i in 0..64 {
            let mut f = [0u32; L];
            let g = match i / 16 {
                0 => i,
                1 => (5 * i + 1) % 16,
                2 => (3 * i + 5) % 16,
                _ => (7 * i) % 16,
            };
            match i / 16 {
                0 => {
                    for l in 0..L {
                        f[l] = (b[l] & c[l]) | (!b[l] & d[l]);
                    }
                }
                1 => {
                    for l in 0..L {
                        f[l] = (d[l] & b[l]) | (!d[l] & c[l]);
                    }
                }
                2 => {
                    for l in 0..L {
                        f[l] = b[l] ^ c[l] ^ d[l];
                    }
                }
                _ => {
                    for l in 0..L {
                        f[l] = c[l] ^ (b[l] | !d[l]);
                    }
                }
            }
            let tmp = d;
            d = c;
            c = b;
            for l in 0..L {
                b[l] = b[l].wrapping_add(
                    a[l].wrapping_add(f[l])
                        .wrapping_add(md5::K[i])
                        .wrapping_add(m[g][l])
                        .rotate_left(md5::S[i]),
                );
            }
            a = tmp;
        }
        add_rows(h, &[a, b, c, d]);
    }
}

impl LaneCompression<8> for Sha256 {
    fn compress_lanes<const L: usize>(h: &mut [[u32; L]; 8], w: &mut [[u32; L]; 16]) {
        sha256_compress_lanes(h, w);
    }

    fn compress_lanes_pad64<const L: usize>(h: &mut [[u32; L]; 8], _: &[[u8; 128]; L]) {
        sha256_compress_lanes_pad64(h);
    }
}

/// `L`-lane digests of `L` two-segment messages `a ‖ b`: every lane padded
/// by [`pad`], block 0 of all lanes in one transposed pass, block 1 in a
/// second when any lane has two blocks — from the tabled
/// [`compress_lanes_pad64`](LaneCompression::compress_lanes_pad64) when
/// every lane totals exactly 64 bytes. A lane over 119 bytes rides along
/// on zeros and takes the scalar [`digest_pair`](HashFunction::digest_pair).
pub(crate) fn digest_lanes<C: LaneCompression<N>, const N: usize, const L: usize>(
    msgs: &[(&[u8], &[u8]); L],
) -> [C::Digest; L] {
    let mut bufs = [[0u8; 128]; L];
    let blocks: [_; L] = core::array::from_fn(|l| pad::<C, N>(msgs[l].0, msgs[l].1, &mut bufs[l]));
    let mut h: [[u32; L]; N] = core::array::from_fn(|word| [C::IV[word]; L]);
    let mut out = [C::Digest::default(); L];
    let mut finish = |h: &[[u32; L]; N], done: Option<usize>| {
        for l in (0..L).filter(|&l| blocks[l] == done) {
            out[l] = C::digest_from_words(&core::array::from_fn(|word| h[word][l]));
        }
    };
    C::compress_lanes(&mut h, &mut load_words(&bufs, 0, C::LITTLE_ENDIAN));
    finish(&h, Some(1));
    if blocks.contains(&Some(2)) {
        if msgs.iter().all(|(a, b)| a.len() + b.len() == 64) {
            C::compress_lanes_pad64(&mut h, &bufs);
        } else {
            C::compress_lanes(&mut h, &mut load_words(&bufs, 1, C::LITTLE_ENDIAN));
        }
        finish(&h, Some(2));
    }
    for l in (0..L).filter(|&l| blocks[l].is_none()) {
        out[l] = C::digest_pair(msgs[l].0, msgs[l].1);
    }
    out
}

/// Hashes `out.len()` independent two-segment messages, `pair(j)` into
/// `out[j]` — the one dispatcher every batch goes through. At
/// [`LaneWidth::X8`] groups of eight take the 8-wide kernel; a last group
/// that fills more than half of a kernel's lanes is dispatched to it with
/// the spare lanes repeating its last message — six messages are one
/// 8-wide pass, three are one 4-wide pass, and either costs less than the
/// narrower kernel plus scalar calls would; one or two go through the
/// scalar [`digest_pair`](HashFunction::digest_pair). Bit-identical to
/// per-message hashing at either width — the messages of one batch never
/// depend on each other.
///
/// # Examples
///
/// ```
/// use ugc_hash::{digest_pairs_into, HashFunction, LaneWidth, Md5};
///
/// // One level of a Merkle tree: six nodes over twelve children.
/// let children: Vec<_> = (0u8..12).map(|i| Md5::digest(&[i])).collect();
/// let mut level = [[0u8; 16]; 6];
/// digest_pairs_into::<Md5>(
///     &mut level,
///     |j| (&children[2 * j], &children[2 * j + 1]),
///     LaneWidth::X8,
/// );
/// assert_eq!(level[5], Md5::digest_pair(&children[10], &children[11]));
/// ```
pub fn digest_pairs_into<'a, H: HashFunction>(
    out: &mut [H::Digest],
    pair: impl Fn(usize) -> (&'a [u8], &'a [u8]),
    width: LaneWidth,
) {
    let n = out.len();
    let mut j = 0;
    if width == LaneWidth::X8 {
        while n - j > 5 {
            let msgs: [(&[u8], &[u8]); 8] = core::array::from_fn(|l| pair((j + l).min(n - 1)));
            let real = (n - j).min(8);
            out[j..j + real].copy_from_slice(&H::digest_lanes_8(&msgs)[..real]);
            j += real;
        }
        while n - j > 2 {
            let msgs: [(&[u8], &[u8]); 4] = core::array::from_fn(|l| pair((j + l).min(n - 1)));
            let real = (n - j).min(4);
            out[j..j + real].copy_from_slice(&H::digest_lanes_4(&msgs)[..real]);
            j += real;
        }
    }
    while j < n {
        let (a, b) = pair(j);
        out[j] = H::digest_pair(a, b);
        j += 1;
    }
}

/// [`digest_pairs_into`] over single-segment messages, into a fresh `Vec`.
#[must_use]
pub fn digest_batch<H: HashFunction>(msgs: &[&[u8]], width: LaneWidth) -> Vec<H::Digest> {
    let mut out = vec![H::Digest::default(); msgs.len()];
    digest_pairs_into::<H>(&mut out, |j| (msgs[j], &[]), width);
    out
}

/// Applies `H` `iterations` times to each seed independently
/// (`H(H(…H(seed)…))`), stepping all chains in lockstep through
/// [`digest_pairs_into`] — the message-parallel form of
/// [`HashFunction::digest_iterated`] across independent seeds.
///
/// # Panics
///
/// Panics if `iterations == 0` (`H^0` would be the identity).
#[must_use]
pub fn digest_iterated_batch<H: HashFunction>(
    seeds: &[&[u8]],
    iterations: u64,
    width: LaneWidth,
) -> Vec<H::Digest> {
    assert!(
        iterations > 0,
        "digest_iterated requires at least 1 iteration"
    );
    let mut digests = digest_batch::<H>(seeds, width);
    if iterations > 1 {
        let mut next = digests.clone();
        for _ in 1..iterations {
            digest_pairs_into::<H>(&mut next, |j| (digests[j].as_ref(), &[]), width);
            core::mem::swap(&mut digests, &mut next);
        }
    }
    digests
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Md5, Sha256};

    fn message(len: usize, tag: u8) -> Vec<u8> {
        (0..len)
            .map(|i| u8::try_from(i % 251).expect("residue < 251") ^ tag)
            .collect()
    }

    #[test]
    fn lane_width_knob() {
        assert_eq!(LaneWidth::default(), LaneWidth::X8);
        for w in LaneWidth::ALL {
            assert_eq!(LaneWidth::parse(w.name()), Some(w));
            assert_eq!(w.to_string(), w.name());
        }
        assert_eq!(LaneWidth::parse("x4"), None);
        assert_eq!(LaneWidth::parse("x16"), None);
    }

    #[test]
    fn uniform_lanes_match_scalar() {
        let a = message(40, 1);
        let b = message(40, 2);
        let msgs: [(&[u8], &[u8]); 4] = [(&a, &b); 4];
        assert_eq!(Md5::digest_lanes_4(&msgs), [Md5::digest_pair(&a, &b); 4]);
        assert_eq!(
            Sha256::digest_lanes_4(&msgs),
            [Sha256::digest_pair(&a, &b); 4]
        );
    }

    /// The literal second block of every 64-byte message: `0x80`, zeros,
    /// and the bit length 512 = `0x0200` big-endian.
    fn pad64_block() -> [u8; 64] {
        let mut block = [0u8; 64];
        block[0] = 0x80;
        block[62] = 0x02;
        block
    }

    #[test]
    fn pad64_table_is_the_schedule_of_the_literal_padding_block() {
        // FIPS 180-4 §6.2.2 step 1 over the literal block, with rotates.
        let block = pad64_block();
        let mut w = [0u32; 64];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        for (i, word) in w.iter().enumerate() {
            assert_eq!(
                sha256::PAD64_KW[i],
                word.wrapping_add(sha256::K[i]),
                "round {i}"
            );
        }
    }

    #[test]
    fn pad64_kernel_equals_scalar_compress_of_the_padding_block() {
        // Distinct chaining values per lane, so a lane mix-up would show.
        let states: [[u32; 8]; 4] =
            [3u32, 5, 7, 9].map(|odd| sha256::IV.map(|word| word.wrapping_mul(odd)));
        let mut lanes: [[u32; 4]; 8] =
            core::array::from_fn(|word| core::array::from_fn(|l| states[l][word]));
        sha256_compress_lanes_pad64(&mut lanes);
        for (l, state) in states.iter().enumerate() {
            let mut want = *state;
            sha256::compress(&mut want, &pad64_block());
            let got: [u32; 8] = core::array::from_fn(|word| lanes[word][l]);
            assert_eq!(got, want, "lane {l}");
        }
    }

    #[test]
    fn sha256_lane_compression_equals_scalar_compress() {
        let bufs: [[u8; 128]; 8] =
            [0u8, 1, 2, 3, 4, 5, 6, 7].map(|tag| message(128, tag).try_into().unwrap());
        let mut lanes = [[0u32; 8]; 8];
        for (row, iv) in lanes.iter_mut().zip(sha256::IV) {
            row.fill(iv);
        }
        sha256_compress_lanes(&mut lanes, &mut load_words(&bufs, 1, false));
        for (l, buf) in bufs.iter().enumerate() {
            let mut want = sha256::IV;
            sha256::compress(&mut want, buf[64..].try_into().unwrap());
            let got: [u32; 8] = core::array::from_fn(|word| lanes[word][l]);
            assert_eq!(got, want, "lane {l}");
        }
    }

    #[test]
    fn sha256_fast_path_and_general_driver_agree() {
        // Every split of a 64-byte total, through the tabled pad-64 pass
        // (all four lanes 64 bytes) and through the general second pass
        // (a fourth lane one byte longer).
        let payload = message(64, 9);
        let longer = message(65, 9);
        for split in [0usize, 16, 31, 32, 33, 48, 64] {
            let (a, b) = payload.split_at(split);
            let want = Sha256::digest(&payload);
            let tabled = Sha256::digest_lanes_4(&[(a, b); 4]);
            assert_eq!(tabled, [want; 4], "split={split}");
            let general = Sha256::digest_lanes_4(&[(a, b), (a, b), (a, b), (&longer, &[])]);
            assert_eq!(general[..3], [want; 3], "split={split}");
        }
    }

    #[test]
    fn mixed_lengths_match_scalar() {
        // One- and two-block lanes and one past the two-block limit (the
        // scalar one) in the same dispatch.
        let lens = [0usize, 55, 56, 63, 64, 65, 119, 120];
        let payloads: Vec<Vec<u8>> = lens.iter().map(|&n| message(n, 7)).collect();
        let msgs: [(&[u8], &[u8]); 8] = core::array::from_fn(|l| (payloads[l].as_slice(), &[][..]));
        let lanes = Sha256::digest_lanes_8(&msgs);
        for (l, payload) in payloads.iter().enumerate() {
            assert_eq!(lanes[l], Sha256::digest(payload), "lane {l}");
        }
    }

    #[test]
    fn ragged_batches_match_scalar() {
        for n in 1..=9usize {
            let payloads: Vec<Vec<u8>> = (0..n).map(|i| message(8 + i, 3)).collect();
            let msgs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            for width in LaneWidth::ALL {
                let got = digest_batch::<Md5>(&msgs, width);
                let want: Vec<_> = payloads.iter().map(|p| Md5::digest(p)).collect();
                assert_eq!(got, want, "n={n} width={width}");
            }
        }
    }

    #[test]
    fn iterated_batch_matches_scalar_chains() {
        let seeds: Vec<Vec<u8>> = (0..6).map(|i| message(16, i)).collect();
        let refs: Vec<&[u8]> = seeds.iter().map(|s| s.as_slice()).collect();
        for width in LaneWidth::ALL {
            let got = digest_iterated_batch::<Sha256>(&refs, 5, width);
            let want: Vec<_> = seeds
                .iter()
                .map(|s| Sha256::digest_iterated(s, 5))
                .collect();
            assert_eq!(got, want, "width={width}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1 iteration")]
    fn iterated_batch_rejects_zero_iterations() {
        let _ = digest_iterated_batch::<Md5>(&[b"x"], 0, LaneWidth::X8);
    }
}
