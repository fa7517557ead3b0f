//! From-scratch cryptographic hash primitives for uncheatable grid computing.
//!
//! The commitment-based sampling (CBS) scheme of Du et al. (ICDCS 2004) builds
//! Merkle trees over computation results using "a one-way hash function such as
//! MD5 or SHA" (Eq. 1 of the paper), and its non-interactive variant derives
//! sample indices from an *iterated* one-way function `g = H^k` whose cost can
//! be tuned (Section 4.2). This crate provides exactly those primitives,
//! implemented from the specifications (RFC 1321, FIPS 180-4) with no external
//! dependencies:
//!
//! * [`Md5`], [`Sha256`] — validated against the official test
//!   vectors. Each is its constants and its compression function; the
//!   Merkle–Damgård construction around them is written once, and there
//!   are two ways through it: the streaming state
//!   ([`HashFunction::update`] / [`HashFunction::finalize`]) for input of
//!   any length, and a stack-assembled one-shot
//!   ([`HashFunction::digest_pair`]) for the ≤ 119-byte messages the
//!   protocol hashes — leaves, Merkle nodes, chain links.
//! * [`HashFunction`] — the compile-time interface the Merkle tree and the
//!   CBS protocol are generic over.
//! * [`digest_pairs_into`] and its `Vec`-returning forms [`digest_batch`]
//!   and [`digest_iterated_batch`] — many independent messages at once
//!   through the transposed lane kernels, at a [`LaneWidth`] that never
//!   changes a digest.
//! * [`IteratedHash`] and [`HashChain`] — the hardened `g = H^k` construction
//!   from Section 4.2 of the paper.
//! * [`hex`] — dependency-free hex encoding for vectors and display.
//!
//! # Examples
//!
//! ```
//! use ugc_hash::{HashFunction, Sha256, hex};
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     hex::encode(digest.as_ref()),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hex;
mod iterated;
mod lanes;
mod md5;
mod scaffold;
mod sha256;

pub use iterated::{HashChain, IteratedHash};
pub use lanes::{digest_batch, digest_iterated_batch, digest_pairs_into, LaneWidth};
pub use md5::Md5;
pub use sha256::Sha256;

use core::fmt;

/// A cryptographic hash function usable for Merkle commitments.
///
/// Implementations are *stateless at the type level*: hashing is exposed as
/// associated functions so that protocol code can be generic over the
/// algorithm without carrying values around. Streaming is available through
/// the paired [`HashFunction::State`] type.
///
/// # Examples
///
/// ```
/// use ugc_hash::{HashFunction, Md5};
///
/// // One-shot.
/// let d1 = Md5::digest(b"hello world");
/// // Streaming, in two chunks.
/// let mut st = Md5::new_state();
/// Md5::update(&mut st, b"hello ");
/// Md5::update(&mut st, b"world");
/// let d2 = Md5::finalize(st);
/// assert_eq!(d1, d2);
/// ```
pub trait HashFunction: Clone + Send + Sync + 'static {
    /// Fixed-size digest produced by this algorithm.
    type Digest: Copy
        + Clone
        + Default
        + Eq
        + PartialEq
        + Ord
        + PartialOrd
        + core::hash::Hash
        + AsRef<[u8]>
        + fmt::Debug
        + Send
        + Sync
        + 'static;

    /// Streaming hasher state.
    type State: Clone + Send + Sync;

    /// Digest length in bytes.
    const DIGEST_LEN: usize;

    /// Human-readable algorithm name (e.g. `"SHA-256"`).
    const NAME: &'static str;

    /// Creates a fresh streaming state.
    fn new_state() -> Self::State;

    /// Reconstructs a digest from raw bytes (e.g. received off the wire).
    ///
    /// Returns `None` unless `bytes` is exactly [`DIGEST_LEN`](Self::DIGEST_LEN)
    /// bytes long.
    fn digest_from_bytes(bytes: &[u8]) -> Option<Self::Digest>;

    /// Absorbs `data` into the streaming state.
    fn update(state: &mut Self::State, data: &[u8]);

    /// Consumes the state and produces the digest.
    fn finalize(state: Self::State) -> Self::Digest;

    /// Hashes a single byte string: [`digest_pair`](Self::digest_pair)
    /// with an empty second half.
    fn digest(data: &[u8]) -> Self::Digest {
        Self::digest_pair(data, &[])
    }

    /// Hashes the concatenation `a || b` without materialising it.
    ///
    /// This is the Merkle-tree inner-node operation
    /// `Φ(V) = hash(Φ(V_left) || Φ(V_right))` from Eq. (1) of the paper.
    /// [`Md5`] and [`Sha256`] assemble a message of at most 119 bytes and
    /// its padding — two blocks — on the stack and compress from there;
    /// inner nodes hash exactly two digests, so no streaming state is
    /// needed. Longer input takes the streaming state, which is also this
    /// default.
    fn digest_pair(a: &[u8], b: &[u8]) -> Self::Digest {
        streaming_digest_pair::<Self>(a, b)
    }

    /// Applies the hash `iterations` times: `H(H(…H(input)…))`.
    ///
    /// This is the inner loop of the hardened sample generator
    /// `g = H^k` (Section 4.2 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0` (`H^0` would be the identity).
    fn digest_iterated(input: &[u8], iterations: u64) -> Self::Digest {
        assert!(
            iterations > 0,
            "digest_iterated requires at least 1 iteration"
        );
        let mut digest = Self::digest(input);
        for _ in 1..iterations {
            digest = Self::digest(digest.as_ref());
        }
        digest
    }

    /// Digests four independent two-segment messages (`a ‖ b` each) in
    /// one dispatch through a transposed message-parallel kernel; results
    /// are bit-identical to four [`digest_pair`](Self::digest_pair) calls.
    fn digest_lanes_4(msgs: &[(&[u8], &[u8]); 4]) -> [Self::Digest; 4];

    /// Digests eight independent two-segment messages in one dispatch;
    /// see [`digest_lanes_4`](Self::digest_lanes_4).
    fn digest_lanes_8(msgs: &[(&[u8], &[u8]); 8]) -> [Self::Digest; 8];

    /// Converts a digest into a `u64` by reading its first 8 bytes
    /// little-endian.
    ///
    /// The NI-CBS sample derivation (Eq. 4 of the paper) interprets hash
    /// outputs as integers modulo the domain size; this is the canonical
    /// integer interpretation used throughout this reproduction.
    fn digest_to_u64(digest: &Self::Digest) -> u64 {
        let bytes = digest.as_ref();
        let mut buf = [0u8; 8];
        let take = bytes.len().min(8);
        buf[..take].copy_from_slice(&bytes[..take]);
        u64::from_le_bytes(buf)
    }
}

/// Reference implementation of [`HashFunction::digest_pair`] through the
/// streaming state.
///
/// The concrete algorithms override `digest_pair` with the stack-assembled
/// one-shot, which hands messages over 119 bytes to this function; below
/// that it is the reference the one-shot is tested against.
///
/// # Examples
///
/// ```
/// use ugc_hash::{streaming_digest_pair, HashFunction, Sha256};
///
/// assert_eq!(
///     streaming_digest_pair::<Sha256>(b"ab", b"c"),
///     Sha256::digest_pair(b"ab", b"c"),
/// );
/// ```
pub fn streaming_digest_pair<H: HashFunction>(a: &[u8], b: &[u8]) -> H::Digest {
    let mut st = H::new_state();
    H::update(&mut st, a);
    H::update(&mut st, b);
    H::finalize(st)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_to_u64_reads_first_bytes_le() {
        let d = Sha256::digest(b"int");
        let v = Sha256::digest_to_u64(&d);
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&d.as_ref()[..8]);
        assert_eq!(v, u64::from_le_bytes(buf));
    }

    #[test]
    fn digest_from_bytes_roundtrip() {
        let d = Sha256::digest(b"wire");
        assert_eq!(Sha256::digest_from_bytes(d.as_ref()), Some(d));
        assert_eq!(Sha256::digest_from_bytes(&d.as_ref()[..31]), None);
        let d = Md5::digest(b"wire");
        assert_eq!(Md5::digest_from_bytes(d.as_ref()), Some(d));
        assert_eq!(Md5::digest_from_bytes(&[]), None);
    }
}
