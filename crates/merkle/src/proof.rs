//! Authentication paths: the participant's per-sample proof of honesty.
//!
//! The schemes ship one [`MerkleOpening`](crate::MerkleOpening) per round
//! instead of `m` of these; this is the paper's Fig. 1 object, one sample
//! and its `λ_1 … λ_H`, and the reference an opening is tested against.

use ugc_hash::{HashFunction, Sha256};

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

    /// Number of hash invocations [`verify`](Self::verify) performs
    /// (`H`, the tree height).
    #[must_use]
    pub fn verification_hash_ops(&self) -> u64 {
        u64::from(self.path_len())
    }

    /// Size of the proof's payload in bytes as it travels on the wire:
    /// the sibling leaf plus `H − 1` digests. (The leaf index adds its
    /// LEB128 length of framing, accounted by the codec.)
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.leaf_sibling.len() as u64 + (self.digest_siblings.len() * H::DIGEST_LEN) as u64
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LeafSet, MerkleTree};
    use ugc_hash::{LaneWidth, Md5, Sha256};

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
        // An opening of one leaf is that leaf's path: the same sibling
        // bytes, and — honest value or not — the same rebuilt root.
        let (leaves, t) = tree(16);
        for i in 0..16u64 {
            let proof = t.prove(i).unwrap();
            let set = LeafSet::new(16, &[i]).unwrap();
            let mut opening = t.open(&[i]).unwrap();
            assert_eq!(opening.leaf_siblings, proof.leaf_sibling());
            assert_eq!(opening.digest_siblings, proof.digest_siblings().concat());
            for value in [&leaves[i as usize], &leaves[(i as usize + 1) % 16]] {
                opening.leaf_values = value.to_vec();
                for lanes in LaneWidth::ALL {
                    assert_eq!(
                        opening.reconstruct_root::<Sha256>(&set, lanes),
                        Ok(proof.reconstruct_root(value)),
                        "i={i} lanes={lanes}"
                    );
                }
            }
        }
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
