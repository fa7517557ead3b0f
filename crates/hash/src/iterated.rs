//! Iterated ("hardened") one-way functions, Section 4.2 of the paper.
//!
//! The non-interactive CBS scheme derives sample indices from the Merkle
//! root via a one-way function `g`. To price out the *retry attack* — where
//! a cheater keeps re-rolling uncommitted leaves until the derived samples
//! all land in its honestly-computed subset — the paper makes `g` expensive
//! by defining `g ≡ (MD5)^k`: MD5 applied `k` times. [`IteratedHash`]
//! implements that construction for any [`HashFunction`], and [`HashChain`]
//! implements the `g^k(Φ(R))` chaining of Eq. (4) used by sample derivation.

use crate::HashFunction;

/// The hardened one-way function `g = H^k` from Section 4.2.
///
/// `k = 1` is the plain hash. Larger `k` multiplies the cost `C_g`
/// linearly, which is exactly the knob Eq. (5) of the paper tunes so that
/// `(1/r^m) · m · C_g ≥ n · C_f`.
///
/// # Examples
///
/// ```
/// use ugc_hash::{HashFunction, IteratedHash, Md5};
///
/// let g1 = IteratedHash::<Md5>::new(1);
/// assert_eq!(g1.apply(b"seed").as_ref(), Md5::digest(b"seed").as_ref());
///
/// let g3 = IteratedHash::<Md5>::new(3);
/// let manual = Md5::digest(Md5::digest(Md5::digest(b"seed").as_ref()).as_ref());
/// assert_eq!(g3.apply(b"seed"), manual);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct IteratedHash<H> {
    iterations: u64,
    _marker: core::marker::PhantomData<H>,
}

// Manual impls: `IteratedHash` is a value regardless of whether `H` itself
// is `Copy` (derive would wrongly bound `H: Copy`).
impl<H> Clone for IteratedHash<H> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<H> Copy for IteratedHash<H> {}

impl<H: HashFunction> IteratedHash<H> {
    /// Creates `g = H^iterations`.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`: `H^0` would be the identity function,
    /// which is not one-way.
    #[must_use]
    pub fn new(iterations: u64) -> Self {
        assert!(iterations > 0, "IteratedHash requires at least 1 iteration");
        IteratedHash {
            iterations,
            _marker: core::marker::PhantomData,
        }
    }

    /// Number of underlying hash applications per [`apply`](Self::apply).
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Applies `g` to `input`: hashes once, then re-hashes the digest
    /// `iterations - 1` more times ([`HashFunction::digest_iterated`]) —
    /// the hot path of NI-CBS sample derivation.
    #[must_use]
    pub fn apply(&self, input: &[u8]) -> H::Digest {
        H::digest_iterated(input, self.iterations)
    }
}

/// The hash chain `g^k(seed)` of Eq. (4): `g^1 = g(seed)`,
/// `g^k = g(g^{k-1}(seed))`.
///
/// NI-CBS derives the `k`-th sample index from the `k`-th chain element.
/// The iterator yields `g^1(seed), g^2(seed), …`.
///
/// # Examples
///
/// ```
/// use ugc_hash::{HashChain, HashFunction, IteratedHash, Sha256};
///
/// let g = IteratedHash::<Sha256>::new(1);
/// let mut chain = HashChain::new(g, b"root");
/// let first = chain.next().unwrap();
/// assert_eq!(first, Sha256::digest(b"root"));
/// let second = chain.next().unwrap();
/// assert_eq!(second, Sha256::digest(first.as_ref()));
/// ```
#[derive(Debug, Clone)]
pub struct HashChain<H: HashFunction> {
    g: IteratedHash<H>,
    state: ChainState<H::Digest>,
}

#[derive(Debug, Clone)]
enum ChainState<D> {
    /// Chain not started: holds the seed bytes.
    Seed(Vec<u8>),
    /// Chain in progress: holds `g^k(seed)` for the last emitted `k`.
    Running(D),
}

impl<H: HashFunction> HashChain<H> {
    /// Starts the chain `g^k(seed)` for `k = 1, 2, …`.
    #[must_use]
    pub fn new(g: IteratedHash<H>, seed: &[u8]) -> Self {
        HashChain {
            g,
            state: ChainState::Seed(seed.to_vec()),
        }
    }

    /// Total underlying hash invocations needed to emit `m` chain elements.
    ///
    /// This is the honest participant's (and supervisor's) sample-derivation
    /// cost `m · C_g`, measured in unit hashes.
    #[must_use]
    pub fn cost_of(g: &IteratedHash<H>, m: u64) -> u64 {
        m.saturating_mul(g.iterations())
    }
}

impl<H: HashFunction> Iterator for HashChain<H> {
    type Item = H::Digest;

    fn next(&mut self) -> Option<H::Digest> {
        let next = match &self.state {
            ChainState::Seed(seed) => self.g.apply(seed),
            ChainState::Running(digest) => self.g.apply(digest.as_ref()),
        };
        self.state = ChainState::Running(next);
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Md5, Sha256};

    #[test]
    fn one_iteration_is_plain_hash() {
        let g = IteratedHash::<Sha256>::new(1);
        assert_eq!(g.apply(b"data"), Sha256::digest(b"data"));
    }

    #[test]
    fn k_iterations_compose() {
        let g5 = IteratedHash::<Md5>::new(5);
        let mut manual = Md5::digest(b"x");
        for _ in 0..4 {
            manual = Md5::digest(manual.as_ref());
        }
        assert_eq!(g5.apply(b"x"), manual);
    }

    #[test]
    #[should_panic(expected = "at least 1 iteration")]
    fn zero_iterations_rejected() {
        let _ = IteratedHash::<Md5>::new(0);
    }

    #[test]
    fn chain_matches_eq4_recurrence() {
        // Eq. (4): g^1 = g(seed); g^k = g(g^{k-1}).
        let g = IteratedHash::<Sha256>::new(2);
        let chain: Vec<_> = HashChain::new(g, b"PhiR").take(4).collect();
        let g1 = g.apply(b"PhiR");
        let g2 = g.apply(g1.as_ref());
        let g3 = g.apply(g2.as_ref());
        let g4 = g.apply(g3.as_ref());
        assert_eq!(chain, vec![g1, g2, g3, g4]);
    }

    #[test]
    fn chain_elements_distinct() {
        let g = IteratedHash::<Sha256>::new(1);
        let elems: Vec<_> = HashChain::new(g, b"seed").take(64).collect();
        for i in 0..elems.len() {
            for j in (i + 1)..elems.len() {
                assert_ne!(elems[i], elems[j], "chain collided at {i},{j}");
            }
        }
    }

    #[test]
    fn chain_is_deterministic() {
        let g = IteratedHash::<Md5>::new(3);
        let a: Vec<_> = HashChain::new(g, b"s").take(8).collect();
        let b: Vec<_> = HashChain::new(g, b"s").take(8).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let g = IteratedHash::<Md5>::new(1);
        let a: Vec<_> = HashChain::new(g, b"s1").take(4).collect();
        let b: Vec<_> = HashChain::new(g, b"s2").take(4).collect();
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn cost_model() {
        let g = IteratedHash::<Md5>::new(1000);
        assert_eq!(HashChain::cost_of(&g, 50), 50_000);
        let g1 = IteratedHash::<Md5>::new(1);
        assert_eq!(HashChain::cost_of(&g1, 50), 50);
    }
}
