//! Authentication paths: the participant's per-sample proof of honesty.

use crate::tree::hash_pairs_level;
use crate::MerkleError;
use ugc_hash::{HashFunction, LaneWidth, Sha256};

/// A Merkle authentication path for one sampled leaf.
///
/// This is the data the participant sends in Step 3 of the CBS scheme for a
/// sample `x`: the `Φ` values of the siblings along the path from `x`'s leaf
/// to the root (`λ_1, …, λ_H` in the paper). The sampled result `f(x)`
/// itself travels alongside the proof, not inside it — the supervisor first
/// checks `f(x)` for correctness and only then reconstructs the root.
///
/// The first sibling (`λ_1`) is a raw leaf value (the neighbouring
/// `f(x_{i±1})`); all higher siblings are digests.
///
/// # Examples
///
/// ```
/// use ugc_merkle::MerkleTree;
/// use ugc_hash::Sha256;
///
/// let leaves: Vec<[u8; 2]> = (0u16..4).map(|x| x.to_be_bytes()).collect();
/// let tree: MerkleTree<Sha256> = MerkleTree::build(&leaves)?;
/// let proof = tree.prove(1)?;
/// assert_eq!(proof.leaf_index(), 1);
/// assert_eq!(proof.path_len(), tree.height());
/// assert!(proof.verify(&tree.root(), &leaves[1]));
/// # Ok::<(), ugc_merkle::MerkleError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof<H: HashFunction = Sha256> {
    leaf_index: u64,
    leaf_sibling: Vec<u8>,
    digest_siblings: Vec<H::Digest>,
}

impl<H: HashFunction> MerkleProof<H> {
    /// Assembles a proof from its wire components.
    ///
    /// `digest_siblings` are ordered bottom-up (level just above the leaves
    /// first). Used by the tree's prover and by the wire codec's decoder.
    #[must_use]
    pub fn from_parts(
        leaf_index: u64,
        leaf_sibling: Vec<u8>,
        digest_siblings: Vec<H::Digest>,
    ) -> Self {
        MerkleProof {
            leaf_index,
            leaf_sibling,
            digest_siblings,
        }
    }

    /// Index of the proven leaf within the domain.
    #[must_use]
    pub fn leaf_index(&self) -> u64 {
        self.leaf_index
    }

    /// The raw sibling leaf value `λ_1` (the neighbour's `f` result).
    #[must_use]
    pub fn leaf_sibling(&self) -> &[u8] {
        &self.leaf_sibling
    }

    /// The digest siblings `λ_2 … λ_H`, bottom-up.
    #[must_use]
    pub fn digest_siblings(&self) -> &[H::Digest] {
        &self.digest_siblings
    }

    /// Total path length `H` (number of λ values).
    #[must_use]
    pub fn path_len(&self) -> u32 {
        self.digest_siblings.len() as u32 + 1
    }

    /// Reconstructs the root `Φ(R′) = Λ(leaf_value, λ_1, …, λ_H)`.
    ///
    /// This is the supervisor-side recursion of Eq. (1): combine the claimed
    /// `f(x)` with each sibling in turn, ordering each concatenation by the
    /// path position encoded in [`leaf_index`](Self::leaf_index).
    #[must_use]
    pub fn reconstruct_root(&self, leaf_value: &[u8]) -> H::Digest {
        let mut idx = self.leaf_index;
        let (left, right) = ordered(idx, leaf_value, &self.leaf_sibling);
        let mut acc = H::digest_pair(left, right);
        for sibling in &self.digest_siblings {
            idx >>= 1;
            let (left, right) = ordered(idx, acc.as_ref(), sibling.as_ref());
            acc = H::digest_pair(left, right);
        }
        acc
    }

    /// Step 4.2 of the CBS scheme: reconstruct the root from the (already
    /// correctness-checked) `leaf_value` and compare with the commitment
    /// `Φ(R)`. Returns `true` iff `Φ(R′) = Φ(R)`.
    #[must_use]
    pub fn verify(&self, committed_root: &H::Digest, leaf_value: &[u8]) -> bool {
        self.reconstruct_root(leaf_value) == *committed_root
    }

    /// This proof and the claimed `leaf_value` as one borrowed
    /// [`AuthPath`], the shape [`fold_paths`] takes.
    #[must_use]
    pub fn as_path<'a>(&'a self, leaf_value: &'a [u8]) -> AuthPath<'a, H::Digest> {
        AuthPath {
            leaf_index: self.leaf_index,
            leaf_value,
            leaf_sibling: &self.leaf_sibling,
            digest_siblings: &self.digest_siblings,
        }
    }

    /// Number of hash invocations [`verify`](Self::verify) performs
    /// (`H`, the tree height).
    #[must_use]
    pub fn verification_hash_ops(&self) -> u64 {
        u64::from(self.path_len())
    }

    /// Size of the proof's payload in bytes as it travels on the wire:
    /// the sibling leaf plus `H − 1` digests. (The leaf index adds a fixed
    /// 8 bytes of framing, accounted by the codec.)
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.leaf_sibling.len() as u64 + (self.digest_siblings.len() * H::DIGEST_LEN) as u64
    }
}

/// One authentication path as it sits in a decoded message: the claimed
/// `f(x)` and `λ_1 … λ_H`, all borrowed — the input of [`fold_paths`].
///
/// `D` is whatever holds a digest sibling's bytes: `Vec<u8>` off the
/// wire, `H::Digest` out of a [`MerkleProof`].
#[derive(Debug, Clone, Copy)]
pub struct AuthPath<'a, D> {
    /// Index of the proven leaf within the domain.
    pub leaf_index: u64,
    /// The claimed leaf value `f(x)`.
    pub leaf_value: &'a [u8],
    /// The raw sibling leaf value `λ_1`.
    pub leaf_sibling: &'a [u8],
    /// The digest siblings `λ_2 … λ_H`, bottom-up.
    pub digest_siblings: &'a [D],
}

/// `(acc, sibling)` in the order the node at path position `bit` hashes
/// them: `acc` is the left child iff the bit is 0.
fn ordered<'a>(bit: u64, acc: &'a [u8], sibling: &'a [u8]) -> (&'a [u8], &'a [u8]) {
    if bit & 1 == 0 {
        (acc, sibling)
    } else {
        (sibling, acc)
    }
}

/// Reconstructs the roots of a batch of authentication paths, level by
/// level: `roots[i] = Λ(f(x_i), λ_{1,i}, …, λ_{H,i})`, bit-identical to
/// [`MerkleProof::reconstruct_root`] on each path at any `lanes`.
///
/// This is Step 4.2 of the CBS scheme for all `m` samples at once. The
/// `m` reconstructions never depend on each other, so level `l` of every
/// path goes through the message-parallel lane kernels as one batch —
/// `H` batches of `m` hashes where the per-path walk is `m·H` scalar
/// ones. No proof is built and no sibling copied; the only allocation is
/// the two digest rows the levels alternate between.
///
/// # Errors
///
/// [`MerkleError::PathLengthMismatch`] unless every path has as many
/// digest siblings as the first, [`MerkleError::SiblingWidth`] unless
/// every digest sibling is exactly `H::DIGEST_LEN` bytes. Nothing is
/// hashed in either case.
///
/// # Examples
///
/// ```
/// use ugc_hash::Sha256;
/// use ugc_merkle::{fold_paths, LaneWidth, MerkleTree};
///
/// let leaves: Vec<[u8; 2]> = (0u16..6).map(|x| x.to_be_bytes()).collect();
/// let tree: MerkleTree<Sha256> = MerkleTree::build(&leaves)?;
/// let proofs = [tree.prove(1)?, tree.prove(4)?];
/// let paths = [proofs[0].as_path(&leaves[1]), proofs[1].as_path(&leaves[4])];
/// let roots = fold_paths::<Sha256, _>(&paths, LaneWidth::default())?;
/// assert_eq!(roots, [tree.root(); 2]);
/// # Ok::<(), ugc_merkle::MerkleError>(())
/// ```
pub fn fold_paths<H: HashFunction, D: AsRef<[u8]>>(
    paths: &[AuthPath<'_, D>],
    lanes: LaneWidth,
) -> Result<Vec<H::Digest>, MerkleError> {
    let Some(first) = paths.first() else {
        return Ok(Vec::new());
    };
    let levels = first.digest_siblings.len();
    for (p, path) in paths.iter().enumerate() {
        if path.digest_siblings.len() != levels {
            return Err(MerkleError::PathLengthMismatch {
                path: p,
                expected: levels + 1,
                found: path.digest_siblings.len() + 1,
            });
        }
        for (level, sibling) in path.digest_siblings.iter().enumerate() {
            if sibling.as_ref().len() != H::DIGEST_LEN {
                return Err(MerkleError::SiblingWidth {
                    path: p,
                    level,
                    expected: H::DIGEST_LEN,
                    found: sibling.as_ref().len(),
                });
            }
        }
    }
    // Two rows of `m` digests: each level reads one and writes the other.
    let mut acc = vec![H::digest(&[]); paths.len()];
    let mut next = acc.clone();
    hash_pairs_level::<H>(
        &mut acc,
        |i| {
            ordered(
                paths[i].leaf_index,
                paths[i].leaf_value,
                paths[i].leaf_sibling,
            )
        },
        lanes,
    );
    for (level, shift) in (0..levels).zip(1u32..) {
        let below = &acc;
        hash_pairs_level::<H>(
            &mut next,
            |i| {
                let path = &paths[i];
                // Past the index's 64 bits every position is a left child.
                let bit = path.leaf_index.checked_shr(shift).unwrap_or(0);
                ordered(bit, below[i].as_ref(), path.digest_siblings[level].as_ref())
            },
            lanes,
        );
        core::mem::swap(&mut acc, &mut next);
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MerkleTree;
    use ugc_hash::{Md5, Sha256};

    fn tree(n: u64) -> (Vec<[u8; 8]>, MerkleTree<Sha256>) {
        let leaves: Vec<[u8; 8]> = (0..n).map(|x| x.to_le_bytes()).collect();
        let tree = MerkleTree::build(&leaves).unwrap();
        (leaves, tree)
    }

    #[test]
    fn reconstruct_matches_root_for_honest_leaf() {
        let (leaves, t) = tree(16);
        for i in 0..16u64 {
            let proof = t.prove(i).unwrap();
            assert_eq!(proof.reconstruct_root(&leaves[i as usize]), t.root());
        }
    }

    #[test]
    fn path_len_is_tree_height() {
        for n in [1u64, 2, 5, 8, 64, 100] {
            let (_, t) = tree(n);
            let proof = t.prove(0).unwrap();
            assert_eq!(proof.path_len(), t.height(), "n={n}");
        }
    }

    #[test]
    fn tampered_leaf_sibling_fails() {
        let (leaves, t) = tree(8);
        let proof = t.prove(4).unwrap();
        let mut sib = proof.leaf_sibling().to_vec();
        sib[0] ^= 0x80;
        let forged: MerkleProof<Sha256> =
            MerkleProof::from_parts(4, sib, proof.digest_siblings().to_vec());
        assert!(!forged.verify(&t.root(), &leaves[4]));
    }

    #[test]
    fn tampered_digest_sibling_fails() {
        let (leaves, t) = tree(8);
        let proof = t.prove(4).unwrap();
        for level in 0..proof.digest_siblings().len() {
            let mut sibs = proof.digest_siblings().to_vec();
            sibs[level][0] ^= 1;
            let forged: MerkleProof<Sha256> =
                MerkleProof::from_parts(4, proof.leaf_sibling().to_vec(), sibs);
            assert!(
                !forged.verify(&t.root(), &leaves[4]),
                "tamper at level {level} undetected"
            );
        }
    }

    #[test]
    fn wrong_index_fails() {
        // A valid proof presented under a different index flips the
        // concatenation order somewhere along the path.
        let (leaves, t) = tree(8);
        let proof = t.prove(5).unwrap();
        let forged: MerkleProof<Sha256> = MerkleProof::from_parts(
            4,
            proof.leaf_sibling().to_vec(),
            proof.digest_siblings().to_vec(),
        );
        assert!(!forged.verify(&t.root(), &leaves[5]));
    }

    #[test]
    fn proof_for_one_tree_fails_on_another() {
        let (leaves_a, a) = tree(8);
        let other: Vec<[u8; 8]> = (100..108u64).map(|x| x.to_le_bytes()).collect();
        let b: MerkleTree<Sha256> = MerkleTree::build(&other).unwrap();
        let proof = a.prove(2).unwrap();
        assert!(proof.verify(&a.root(), &leaves_a[2]));
        assert!(!proof.verify(&b.root(), &leaves_a[2]));
    }

    #[test]
    fn verification_cost_is_height() {
        let (_, t) = tree(64);
        let proof = t.prove(10).unwrap();
        assert_eq!(proof.verification_hash_ops(), u64::from(t.height()));
    }

    #[test]
    fn payload_bytes_accounts_leaf_and_digests() {
        let (_, t) = tree(64); // height 6: 1 leaf sibling + 5 digests
        let proof = t.prove(0).unwrap();
        assert_eq!(proof.payload_bytes(), 8 + 5 * 32);
        let leaves: Vec<[u8; 8]> = (0..64u64).map(|x| x.to_le_bytes()).collect();
        let md5_tree: MerkleTree<Md5> = MerkleTree::build(&leaves).unwrap();
        let md5_proof = md5_tree.prove(0).unwrap();
        assert_eq!(md5_proof.payload_bytes(), 8 + 5 * 16);
    }

    #[test]
    fn fold_of_one_path_is_reconstruct_root() {
        let (leaves, t) = tree(16);
        for i in 0..16u64 {
            let proof = t.prove(i).unwrap();
            // Honest and wrong leaf values alike: the fold is the same
            // function, not merely equal on accepted proofs.
            for value in [&leaves[i as usize], &leaves[(i as usize + 1) % 16]] {
                for lanes in LaneWidth::ALL {
                    assert_eq!(
                        fold_paths::<Sha256, _>(&[proof.as_path(value)], lanes).unwrap(),
                        [proof.reconstruct_root(value)],
                        "i={i} lanes={lanes}"
                    );
                }
            }
        }
        assert!(fold_paths::<Sha256, [u8; 32]>(&[], LaneWidth::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn fold_follows_reconstruct_root_past_64_levels() {
        // No tree is this tall, but a path off the wire can be: the index
        // has run out of bits and every further node is a left child.
        let siblings: Vec<[u8; 32]> = (0..70u8).map(|b| [b; 32]).collect();
        let proof: MerkleProof<Sha256> = MerkleProof::from_parts(u64::MAX, vec![7; 8], siblings);
        assert_eq!(
            fold_paths::<Sha256, _>(&[proof.as_path(&[1; 8])], LaneWidth::default()).unwrap(),
            [proof.reconstruct_root(&[1; 8])]
        );
    }

    #[test]
    fn accessors_roundtrip_from_parts() {
        let (_, t) = tree(16);
        let proof = t.prove(9).unwrap();
        let rebuilt: MerkleProof<Sha256> = MerkleProof::from_parts(
            proof.leaf_index(),
            proof.leaf_sibling().to_vec(),
            proof.digest_siblings().to_vec(),
        );
        assert_eq!(rebuilt, proof);
    }
}
