//! One opening for a set of leaves: the proof of honesty for all `m`
//! samples of a round at once — [`LeafSet`] (what both sides derive the
//! order from), [`OpeningShape`] (what it dictates), [`MerkleOpening`]
//! (the three rows) and [`CheckedOpening`] (rows of the dictated lengths:
//! the verifier).

use crate::{tree_height, MerkleError};
use core::marker::PhantomData;
use ugc_hash::{digest_pairs_into, HashFunction, LaneWidth};

/// One level of the canonical order: `nodes` are the sorted distinct
/// known positions of a level. Calls `parent(i, node, lone)` once per
/// parent in ascending order — `node = nodes[i]` its first known child,
/// `lone` whether that child's sibling has to be supplied (else it is
/// `nodes[i + 1]`) — then replaces `nodes` by the parents.
pub(crate) fn ascend(nodes: &mut Vec<u64>, mut parent: impl FnMut(usize, u64, bool)) {
    let mut parents = 0;
    let mut i = 0;
    while i < nodes.len() {
        let node = nodes[i];
        let lone = node & 1 == 1 || nodes.get(i + 1) != Some(&(node + 1));
        parent(i, node, lone);
        // `parents ≤ i`: the slot written has already been read.
        nodes[parents] = node >> 1;
        parents += 1;
        i += if lone { 1 } else { 2 };
    }
    nodes.truncate(parents);
}

/// Where one child of a parent comes from.
#[derive(Clone, Copy)]
enum Source {
    /// Known node `i` of the level below.
    Known(usize),
    /// Entry `k` of that level's sibling row.
    Supplied(usize),
}

/// Fills `pairs` with the two children of every parent of `nodes`, left
/// first, and moves `nodes` up a level. `supplied` counts the sibling-row
/// entries handed out so far.
fn plan_level(nodes: &mut Vec<u64>, pairs: &mut Vec<(Source, Source)>, supplied: &mut usize) {
    pairs.clear();
    ascend(nodes, |i, node, lone| {
        let known = Source::Known(i);
        pairs.push(if !lone {
            (known, Source::Known(i + 1))
        } else if node & 1 == 0 {
            (known, Source::Supplied(*supplied))
        } else {
            (Source::Supplied(*supplied), known)
        });
        *supplied += usize::from(lone);
    });
}

/// Entry `at` of a flat row of `width`-byte entries.
fn entry(row: &[u8], at: usize, width: usize) -> &[u8] {
    &row[at * width..][..width]
}

/// The leaves one opening proves: the sorted distinct indices of a
/// challenge over a tree of `leaf_count` leaves, every one in range.
///
/// This is all the canonical order depends on, so prover and verifier
/// that build a `LeafSet` from the same challenge agree on every row of
/// the opening — which entry is which node's sibling — without a byte of
/// it on the wire.
///
/// # Examples
///
/// ```
/// use ugc_merkle::{LeafSet, MerkleError};
///
/// // Duplicates collapse, order is forgotten.
/// let set = LeafSet::new(8, &[5, 2, 5, 3])?;
/// assert_eq!(set.indices(), [2, 3, 5]);
/// assert_eq!(set.position(5), Some(2));
/// // Leaves 2 and 3 are each other's sibling; 5 needs leaf 4. Above,
/// // node 1 of level 1 (over 2, 3) needs node 0 and node 2 (over 4, 5)
/// // needs node 3; their parents are the two halves of the root.
/// let shape = set.shape();
/// assert_eq!((shape.leaf_siblings, shape.digest_siblings), (1, 2));
/// assert_eq!(shape.hash_ops, 2 + 2 + 1);
/// assert_eq!(
///     LeafSet::new(8, &[1, 8]).unwrap_err(),
///     MerkleError::IndexOutOfRange { index: 8, leaf_count: 8 },
/// );
/// # Ok::<(), MerkleError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafSet {
    leaf_count: u64,
    indices: Vec<u64>,
}

impl LeafSet {
    /// The set of `indices` — any order, duplicates welcome — among the
    /// `leaf_count` real leaves of a tree.
    ///
    /// # Errors
    ///
    /// * [`MerkleError::NoIndices`] if `indices` is empty.
    /// * [`MerkleError::IndexOutOfRange`] for the first index, in the
    ///   order given, that is `≥ leaf_count`.
    pub fn new(leaf_count: u64, indices: &[u64]) -> Result<Self, MerkleError> {
        if indices.is_empty() {
            return Err(MerkleError::NoIndices);
        }
        if let Some(&index) = indices.iter().find(|&&i| i >= leaf_count) {
            return Err(MerkleError::IndexOutOfRange { index, leaf_count });
        }
        let mut indices = indices.to_vec();
        indices.sort_unstable();
        indices.dedup();
        Ok(LeafSet {
            leaf_count,
            indices,
        })
    }

    /// Number of real leaves of the tree the set indexes into.
    #[must_use]
    pub fn leaf_count(&self) -> u64 {
        self.leaf_count
    }

    /// The distinct indices, ascending — the order of
    /// [`MerkleOpening::leaf_values`].
    #[must_use]
    pub fn indices(&self) -> &[u64] {
        &self.indices
    }

    /// Number of distinct leaves (at least one).
    #[must_use]
    #[expect(clippy::len_without_is_empty, reason = "never empty: `new` refuses")]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Where leaf `index` sits in [`indices`](Self::indices), if it is in
    /// the set.
    #[must_use]
    pub fn position(&self, index: u64) -> Option<usize> {
        self.indices.binary_search(&index).ok()
    }

    /// The closed form of the opening over this set: how many entries
    /// each row holds and how many hashes rebuilding the root takes.
    #[must_use]
    pub fn shape(&self) -> OpeningShape {
        let mut shape = OpeningShape {
            leaves: self.indices.len(),
            leaf_siblings: 0,
            digest_siblings: 0,
            hash_ops: 0,
        };
        let mut nodes = self.indices.clone();
        ascend(&mut nodes, |_, _, lone| {
            shape.leaf_siblings += usize::from(lone);
        });
        shape.hash_ops += nodes.len() as u64;
        for _ in 1..tree_height(self.leaf_count) {
            ascend(&mut nodes, |_, _, lone| {
                shape.digest_siblings += usize::from(lone);
            });
            shape.hash_ops += nodes.len() as u64;
        }
        shape
    }
}

/// What a [`LeafSet`] dictates about its opening, before a byte of it is
/// seen: the entry count of each row and the cost of verifying it.
///
/// `m` single proofs carry `m` leaf values, `m` leaf siblings and
/// `m·(H − 1)` digest siblings and cost `m·H` hashes; every field here is
/// at most that, and equal only when no two paths meet below the root's
/// children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpeningShape {
    /// Distinct leaves opened: entries of the leaf-value row.
    pub leaves: usize,
    /// Entries of the leaf-sibling row: sampled leaves whose neighbour
    /// is not sampled too.
    pub leaf_siblings: usize,
    /// Entries of the digest-sibling row, over levels `1 … H − 1`.
    pub digest_siblings: usize,
    /// Hash invocations [`MerkleOpening::reconstruct_root`] performs: one
    /// per distinct node on the paths from the opened leaves to the root.
    pub hash_ops: u64,
}

/// Which row of a [`MerkleOpening`] an error is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpeningRow {
    /// [`MerkleOpening::leaf_values`].
    LeafValues,
    /// [`MerkleOpening::leaf_siblings`].
    LeafSiblings,
    /// [`MerkleOpening::digest_siblings`].
    DigestSiblings,
}

impl core::fmt::Display for OpeningRow {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            OpeningRow::LeafValues => "leaf-value",
            OpeningRow::LeafSiblings => "leaf-sibling",
            OpeningRow::DigestSiblings => "digest-sibling",
        })
    }
}

/// One opening for a set of leaves (Step 3 of the CBS scheme for all `m`
/// samples at once): the sampled `f(x_i)` and every sibling the verifier
/// cannot work out for itself, as three flat rows.
///
/// The `m` authentication paths of a round meet on their way to the
/// root, and everything above a meeting point is the same sibling sent
/// again, while a sibling that is itself a sampled leaf — or the hash of
/// nodes the verifier has just rebuilt — need not be sent at all. An
/// opening is the `m` paths with both kinds left out: no index, no
/// length per sibling.
///
/// # The canonical order
///
/// Both sides derive it from the challenged indices and the leaf count
/// alone ([`LeafSet`]). Level 0 is the padded leaf row, level `l` the
/// `2^(H−l)` nodes over it. The *known* nodes of level 0 are the sorted
/// distinct sampled leaves; the known nodes of level `l + 1` are the
/// parents of the known nodes of level `l`. A known node is *lone* when
/// its sibling is not known too. Then:
///
/// * [`leaf_values`](Self::leaf_values) holds the sampled leaves in index
///   order;
/// * [`leaf_siblings`](Self::leaf_siblings) holds the sibling of every
///   lone leaf, in index order;
/// * [`digest_siblings`](Self::digest_siblings) holds the sibling of every
///   lone node of levels `1 … H − 1`, level by level bottom-up, in node
///   order within a level.
///
/// The verifier rebuilds level `l + 1` from the known nodes of level `l`
/// and the siblings of the lone ones — every level one batch through the
/// level hasher every tree build uses — and compares the one node of
/// level `H` with the commitment. Each known node above the leaves is
/// hashed exactly once: [`OpeningShape::hash_ops`] of them, never more
/// than `H` per distinct leaf, where `m` single proofs hash `m·H`.
///
/// `B` is whatever holds a row's bytes: `Vec<u8>` out of
/// [`MerkleTree::open`](crate::MerkleTree::open), `&[u8]` over a decoded
/// message — the verifier reads the wire bytes where they lie. The rows
/// are plain bytes whatever the hash function; the digest width comes in
/// with the `H` of [`reconstruct_root`](Self::reconstruct_root).
///
/// # Examples
///
/// ```
/// use ugc_hash::Sha256;
/// use ugc_merkle::{LeafSet, MerkleTree};
///
/// let leaves: Vec<[u8; 2]> = (0u16..6).map(|x| x.to_be_bytes()).collect();
/// let tree: MerkleTree<Sha256> = MerkleTree::build(&leaves)?;
/// let challenge = [4, 1, 4, 5];
/// let opening = tree.open(&challenge)?;
/// assert_eq!(opening.leaf_values, [leaves[1], leaves[4], leaves[5]].concat());
/// // Leaf 1 needs leaf 0; leaves 4 and 5 have each other.
/// assert_eq!(opening.leaf_siblings, leaves[0]);
/// let set = LeafSet::new(6, &challenge)?;
/// assert!(opening.verify::<Sha256>(&tree.root(), &set));
/// # Ok::<(), ugc_merkle::MerkleError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MerkleOpening<B = Vec<u8>> {
    /// Width of one leaf in bytes.
    pub leaf_width: usize,
    /// The sampled leaf values, in index order, back to back.
    pub leaf_values: B,
    /// The raw sibling of every lone sampled leaf, in index order.
    pub leaf_siblings: B,
    /// The digest sibling of every lone known node of levels
    /// `1 … H − 1`, bottom-up, in node order within a level.
    pub digest_siblings: B,
}

impl<B: AsRef<[u8]>> MerkleOpening<B> {
    /// Checks that every row is exactly as long as `set` dictates for
    /// leaves of [`leaf_width`](Self::leaf_width) bytes and digests of
    /// `H::DIGEST_LEN`. Reads three lengths; hashes nothing. The
    /// [`CheckedOpening`] it returns is the only thing that rebuilds a
    /// root, so no row is ever read at a length nobody checked — and a
    /// caller with work of its own between check and reconstruction
    /// walks the shape once.
    ///
    /// # Errors
    ///
    /// [`MerkleError::ZeroLeafWidth`], or [`MerkleError::OpeningShape`]
    /// naming the first row (values, leaf siblings, digest siblings) of
    /// any other length.
    pub fn check_shape<'a, H: HashFunction>(
        &'a self,
        set: &'a LeafSet,
    ) -> Result<CheckedOpening<'a, H>, MerkleError> {
        if self.leaf_width == 0 {
            return Err(MerkleError::ZeroLeafWidth);
        }
        let rows = MerkleOpening {
            leaf_width: self.leaf_width,
            leaf_values: self.leaf_values.as_ref(),
            leaf_siblings: self.leaf_siblings.as_ref(),
            digest_siblings: self.digest_siblings.as_ref(),
        };
        let shape = set.shape();
        for (row, bytes, entries, width) in [
            (
                OpeningRow::LeafValues,
                rows.leaf_values,
                shape.leaves,
                rows.leaf_width,
            ),
            (
                OpeningRow::LeafSiblings,
                rows.leaf_siblings,
                shape.leaf_siblings,
                rows.leaf_width,
            ),
            (
                OpeningRow::DigestSiblings,
                rows.digest_siblings,
                shape.digest_siblings,
                H::DIGEST_LEN,
            ),
        ] {
            let found = bytes.len();
            // A product that overflows is a length no row can have.
            if entries.checked_mul(width) != Some(found) {
                return Err(MerkleError::OpeningShape {
                    row,
                    entries,
                    width,
                    found,
                });
            }
        }
        Ok(CheckedOpening {
            rows,
            set,
            shape,
            hash: PhantomData,
        })
    }

    /// Rebuilds the root `Φ(R′)` from the opened leaves and the supplied
    /// siblings: [`check_shape`](Self::check_shape), then
    /// [`CheckedOpening::reconstruct_root`].
    ///
    /// # Errors
    ///
    /// As [`check_shape`](Self::check_shape), before anything is hashed:
    /// a row of any other length than `set` dictates is never read.
    pub fn reconstruct_root<H: HashFunction>(
        &self,
        set: &LeafSet,
        lanes: LaneWidth,
    ) -> Result<H::Digest, MerkleError> {
        Ok(self.check_shape::<H>(set)?.reconstruct_root(lanes))
    }

    /// Step 4.2 of the CBS scheme for the whole round: rebuild the root
    /// from the (already correctness-checked) leaf values and compare
    /// with the commitment `Φ(R)`. `true` iff the rows have the shape
    /// `set` dictates and `Φ(R′) = Φ(R)`.
    #[must_use]
    pub fn verify<H: HashFunction>(&self, committed_root: &H::Digest, set: &LeafSet) -> bool {
        self.reconstruct_root::<H>(set, LaneWidth::default())
            .is_ok_and(|rebuilt| rebuilt == *committed_root)
    }
}

/// A [`MerkleOpening`] whose rows are known to have exactly the lengths
/// its [`LeafSet`] dictates under `H`: what
/// [`MerkleOpening::check_shape`] hands back, and what rebuilds the root.
pub struct CheckedOpening<'a, H> {
    rows: MerkleOpening<&'a [u8]>,
    set: &'a LeafSet,
    shape: OpeningShape,
    hash: PhantomData<fn() -> H>,
}

impl<H: HashFunction> CheckedOpening<'_, H> {
    /// What the set dictated: the entry count of each row, and the
    /// hashes [`reconstruct_root`](Self::reconstruct_root) performs.
    #[must_use]
    pub fn shape(&self) -> OpeningShape {
        self.shape
    }

    /// Rebuilds the root `Φ(R′)` level by level, every level one batch
    /// through the digest lane kernels: [`OpeningShape::hash_ops`]
    /// hashes, the same digest at any `lanes`.
    #[must_use]
    pub fn reconstruct_root(&self, lanes: LaneWidth) -> H::Digest {
        let rows = &self.rows;
        let mut nodes = self.set.indices().to_vec();
        let mut pairs = Vec::with_capacity(nodes.len());

        let mut supplied = 0;
        plan_level(&mut nodes, &mut pairs, &mut supplied);
        let mut known = vec![H::digest(&[]); pairs.len()];
        let leaf = |source| match source {
            Source::Known(at) => entry(rows.leaf_values, at, rows.leaf_width),
            Source::Supplied(at) => entry(rows.leaf_siblings, at, rows.leaf_width),
        };
        digest_pairs_into::<H>(&mut known, |j| (leaf(pairs[j].0), leaf(pairs[j].1)), lanes);

        // The digest row is one run across the levels above.
        let mut supplied = 0;
        let mut next = known.clone();
        for _ in 1..tree_height(self.set.leaf_count()) {
            plan_level(&mut nodes, &mut pairs, &mut supplied);
            let below = &known;
            let digest = |source| match source {
                Source::Known(at) => below[at].as_ref(),
                Source::Supplied(at) => entry(rows.digest_siblings, at, H::DIGEST_LEN),
            };
            digest_pairs_into::<H>(
                &mut next[..pairs.len()],
                |j| (digest(pairs[j].0), digest(pairs[j].1)),
                lanes,
            );
            core::mem::swap(&mut known, &mut next);
        }
        known[0]
    }
}
