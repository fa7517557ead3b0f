//! The full Merkle tree of Section 3.1 of the paper.

use crate::parallel::subtree_chunks;
use crate::{padded_leaf_count, MerkleError, MerkleProof, Parallelism};
use ugc_hash::{HashFunction, LaneWidth, Sha256};

/// Hashes `out.len()` two-segment pairs produced by `pair(j)` into
/// `out[j]` through the transposed message-parallel lane kernels, the
/// remainder through the scalar `digest_pair` fast path. Bit-identical to
/// per-pair hashing at any width — the pairs of one batch never depend
/// on each other.
///
/// A group that fills more than half of a kernel's lanes is dispatched
/// to it with the spare lanes repeating its last pair: six pairs are one
/// 8-wide pass, three are one 4-wide pass, and either costs less than the
/// narrower kernel plus scalar calls would. A tree level never has such a
/// group (its sizes are powers of two); the `m` paths of
/// [`fold_paths`](crate::fold_paths) usually do.
pub(crate) fn hash_pairs_level<'a, H: HashFunction>(
    out: &mut [H::Digest],
    pair: impl Fn(usize) -> (&'a [u8], &'a [u8]),
    lanes: LaneWidth,
) {
    let n = out.len();
    let mut j = 0;
    if lanes.lanes() >= 8 {
        while n - j > 5 {
            let msgs: [(&[u8], &[u8]); 8] = core::array::from_fn(|l| pair((j + l).min(n - 1)));
            let real = (n - j).min(8);
            out[j..j + real].copy_from_slice(&H::digest_lanes_8(&msgs)[..real]);
            j += real;
        }
    }
    if lanes.lanes() >= 4 {
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

/// A complete binary Merkle tree whose leaves are raw computation results.
///
/// Following Eq. (1) of the paper:
///
/// ```text
/// Φ(L_i) = f(x_i)                                  (leaves: raw results)
/// Φ(V)   = hash(Φ(V_left) || Φ(V_right))           (internal nodes)
/// ```
///
/// The leaf count is padded to a power of two (≥ 2) with all-zero leaves;
/// see the crate docs for why this is sound. All leaves must have the same
/// width, as `f` maps into a fixed-size result type.
///
/// The tree stores the padded leaf data plus one digest per internal node,
/// i.e. `O(|D|)` space — the cost Section 3.3 of the paper then optimises
/// with [`PartialMerkleTree`](crate::PartialMerkleTree).
///
/// # Examples
///
/// ```
/// use ugc_merkle::MerkleTree;
/// use ugc_hash::Md5;
///
/// let leaves: Vec<[u8; 4]> = (0u32..6).map(|x| x.to_be_bytes()).collect();
/// let tree: MerkleTree<Md5> = MerkleTree::build(&leaves)?;
/// assert_eq!(tree.leaf_count(), 6);
/// assert_eq!(tree.padded_leaf_count(), 8);
/// assert_eq!(tree.height(), 3);
/// let proof = tree.prove(5)?;
/// assert!(proof.verify(&tree.root(), &leaves[5]));
/// # Ok::<(), ugc_merkle::MerkleError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree<H: HashFunction = Sha256> {
    /// Padded leaf data, `padded * leaf_width` bytes, row-major.
    leaves: Vec<u8>,
    /// Internal-node digests in binary-heap order; index 0 unused, root at 1,
    /// node `i` has children `2i` and `2i+1`. Length `padded`.
    nodes: Vec<H::Digest>,
    leaf_count: u64,
    padded: u64,
    leaf_width: usize,
    hash_ops: u64,
    /// Hash invocations on the build's critical path: the longest chain of
    /// sequentially-dependent hashes. Equals `hash_ops` for serial builds.
    hash_ops_wall: u64,
}

impl<H: HashFunction> MerkleTree<H> {
    /// Builds a tree over `leaves`, each leaf being one `f(x_i)` result:
    /// [`build_with`](Self::build_with) on one thread at the default lane
    /// width.
    ///
    /// # Errors
    ///
    /// * [`MerkleError::EmptyTree`] if `leaves` is empty.
    /// * [`MerkleError::ZeroLeafWidth`] if leaves are zero-length.
    /// * [`MerkleError::MixedLeafWidth`] if leaves differ in width.
    pub fn build<L: AsRef<[u8]>>(leaves: &[L]) -> Result<Self, MerkleError> {
        Self::build_with(leaves, Parallelism::serial(), LaneWidth::default())
    }

    /// Builds the same tree as [`build`](Self::build) using up to
    /// `parallelism` worker threads.
    ///
    /// The padded leaf row splits into one power-of-two subtree per
    /// worker; each worker hashes its subtree independently and the top
    /// `log(workers)` levels fold serially. Every node digest — and
    /// therefore the root, all proofs, and [`hash_ops`](Self::hash_ops) —
    /// is bit-identical to the serial build at any thread count.
    /// [`hash_ops_wall`](Self::hash_ops_wall) reports the critical-path
    /// cost actually paid.
    ///
    /// # Errors
    ///
    /// As [`build`](Self::build).
    ///
    /// # Examples
    ///
    /// ```
    /// use ugc_merkle::{MerkleTree, Parallelism};
    /// use ugc_hash::Sha256;
    ///
    /// let leaves: Vec<[u8; 8]> = (0u64..100).map(|x| x.to_le_bytes()).collect();
    /// let serial: MerkleTree<Sha256> = MerkleTree::build(&leaves)?;
    /// let parallel: MerkleTree<Sha256> =
    ///     MerkleTree::build_parallel(&leaves, Parallelism::threads(4))?;
    /// assert_eq!(serial.root(), parallel.root());
    /// # Ok::<(), ugc_merkle::MerkleError>(())
    /// ```
    pub fn build_parallel<L: AsRef<[u8]>>(
        leaves: &[L],
        parallelism: Parallelism,
    ) -> Result<Self, MerkleError> {
        Self::build_with(leaves, parallelism, LaneWidth::default())
    }

    /// Builds the same tree as [`build`](Self::build) with both execution
    /// knobs explicit: up to `parallelism` worker threads *and* the
    /// message-parallel lane width used inside each worker (or the single
    /// thread). Neither knob changes any digest — `hash_ops` and every
    /// node are bit-identical to the serial scalar build.
    ///
    /// The leaves are copied, width-checked, into one flat row, which
    /// [`from_leaf_row`](Self::from_leaf_row) then hashes; a caller that
    /// already holds its results as such a row skips the copy by calling
    /// that directly.
    ///
    /// # Errors
    ///
    /// As [`build`](Self::build).
    ///
    /// # Examples
    ///
    /// ```
    /// use ugc_merkle::{LaneWidth, MerkleTree, Parallelism};
    /// use ugc_hash::Sha256;
    ///
    /// let leaves: Vec<[u8; 8]> = (0u64..100).map(|x| x.to_le_bytes()).collect();
    /// let scalar: MerkleTree<Sha256> =
    ///     MerkleTree::build_with(&leaves, Parallelism::serial(), LaneWidth::Scalar)?;
    /// let laned: MerkleTree<Sha256> =
    ///     MerkleTree::build_with(&leaves, Parallelism::threads(4), LaneWidth::X8)?;
    /// assert_eq!(scalar.root(), laned.root());
    /// # Ok::<(), ugc_merkle::MerkleError>(())
    /// ```
    pub fn build_with<L: AsRef<[u8]>>(
        leaves: &[L],
        parallelism: Parallelism,
        lanes: LaneWidth,
    ) -> Result<Self, MerkleError> {
        let width = leaves.first().ok_or(MerkleError::EmptyTree)?.as_ref().len();
        let n = leaves.len() as u64;
        Self::from_leaf_fn_with(n, width, |i| &leaves[i as usize], parallelism, lanes)
    }

    /// Builds a tree by evaluating `leaf_fn(i)` for `i ∈ [0, n)`:
    /// the results fill one flat row, which
    /// [`from_leaf_row`](Self::from_leaf_row) hashes **on one thread at
    /// [`LaneWidth::default`]** — unlike its sibling constructors this
    /// one takes neither execution knob, because its callers (the
    /// Section 4.2 retry attack, the partial-tree tests) build small trees
    /// from closures and never needed them.
    ///
    /// `leaf_fn` must return exactly `leaf_width` bytes per call; this is the
    /// participant-side entry point where `leaf_fn` computes (or fakes —
    /// see the cheating behaviours in `ugc-grid`) the result `f(x_i)`.
    ///
    /// # Errors
    ///
    /// * [`MerkleError::EmptyTree`] if `n == 0`.
    /// * [`MerkleError::ZeroLeafWidth`] if `leaf_width == 0`.
    /// * [`MerkleError::MixedLeafWidth`] if `leaf_fn` returns a wrong-width
    ///   result.
    pub fn from_leaf_fn<F>(n: u64, leaf_width: usize, leaf_fn: F) -> Result<Self, MerkleError>
    where
        F: FnMut(u64) -> Vec<u8>,
    {
        if n == 0 {
            return Err(MerkleError::EmptyTree);
        }
        Self::from_leaf_fn_with(
            n,
            leaf_width,
            leaf_fn,
            Parallelism::serial(),
            LaneWidth::default(),
        )
    }

    /// Fills a row with `leaf_fn(0..n)`, each value checked against
    /// `width`, and hands it to [`from_leaf_row`](Self::from_leaf_row).
    fn from_leaf_fn_with<V: AsRef<[u8]>>(
        n: u64,
        width: usize,
        mut leaf_fn: impl FnMut(u64) -> V,
        parallelism: Parallelism,
        lanes: LaneWidth,
    ) -> Result<Self, MerkleError> {
        if width == 0 {
            return Err(MerkleError::ZeroLeafWidth);
        }
        // Room for the padding, so `from_leaf_row` extends in place.
        let mut row = Vec::with_capacity((padded_leaf_count(n) as usize) * width);
        for index in 0..n {
            let value = leaf_fn(index);
            let bytes = value.as_ref();
            if bytes.len() != width {
                return Err(MerkleError::MixedLeafWidth {
                    expected: width,
                    found: bytes.len(),
                    index,
                });
            }
            row.extend_from_slice(bytes);
        }
        Self::from_leaf_row(row, width, parallelism, lanes)
    }

    /// Builds the tree over a flat leaf row: `row` holds `n` results of
    /// `width` bytes each, back to back — exactly what
    /// `ComputeTask::compute_into` and `WorkerBehaviour::leaf_row`
    /// produce. The tree takes ownership, zero-pads the row in place to
    /// the power-of-two leaf count and hashes it: no copy, no per-leaf
    /// allocation. Every other constructor fills such a row and ends
    /// here.
    ///
    /// `parallelism` and `lanes` are execution knobs as in
    /// [`build_with`](Self::build_with).
    ///
    /// # Errors
    ///
    /// * [`MerkleError::ZeroLeafWidth`] if `width == 0`.
    /// * [`MerkleError::EmptyTree`] if `row` is empty.
    /// * [`MerkleError::MixedLeafWidth`] if `row.len()` is not a multiple
    ///   of `width`: the trailing `row.len() % width` bytes are reported
    ///   as a short leaf at index `row.len() / width`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ugc_merkle::{LaneWidth, MerkleError, MerkleTree, Parallelism};
    /// use ugc_hash::Sha256;
    ///
    /// let leaves: Vec<[u8; 8]> = (0u64..100).map(|x| x.to_le_bytes()).collect();
    /// let row: Vec<u8> = leaves.concat();
    /// let tree: MerkleTree<Sha256> =
    ///     MerkleTree::from_leaf_row(row, 8, Parallelism::serial(), LaneWidth::default())?;
    /// assert_eq!(tree.leaf_count(), 100);
    /// assert_eq!(tree.root(), MerkleTree::<Sha256>::build(&leaves)?.root());
    ///
    /// let ragged = MerkleTree::<Sha256>::from_leaf_row(
    ///     vec![0u8; 20], 8, Parallelism::serial(), LaneWidth::default());
    /// assert_eq!(
    ///     ragged.unwrap_err(),
    ///     MerkleError::MixedLeafWidth { expected: 8, found: 4, index: 2 },
    /// );
    /// # Ok::<(), ugc_merkle::MerkleError>(())
    /// ```
    pub fn from_leaf_row(
        mut row: Vec<u8>,
        width: usize,
        parallelism: Parallelism,
        lanes: LaneWidth,
    ) -> Result<Self, MerkleError> {
        if width == 0 {
            return Err(MerkleError::ZeroLeafWidth);
        }
        if row.is_empty() {
            return Err(MerkleError::EmptyTree);
        }
        let n = (row.len() / width) as u64;
        if row.len() % width != 0 {
            return Err(MerkleError::MixedLeafWidth {
                expected: width,
                found: row.len() % width,
                index: n,
            });
        }
        let padded = padded_leaf_count(n);
        row.resize((padded as usize) * width, 0);
        let mut tree = MerkleTree {
            leaves: row,
            nodes: Vec::new(),
            leaf_count: n,
            padded,
            leaf_width: width,
            hash_ops: 0,
            hash_ops_wall: 0,
        };
        if parallelism.get() > 1 {
            tree.hash_all_parallel(parallelism.get(), lanes);
        } else {
            tree.hash_all(lanes);
        }
        Ok(tree)
    }

    /// Recomputes every internal digest from the leaf data, lane-batching
    /// each level (the nodes of a level are mutually independent).
    fn hash_all(&mut self, lanes: LaneWidth) {
        let padded = self.padded as usize;
        // Heap slot 0 is a placeholder; fill with the digest of nothing.
        let mut nodes: Vec<H::Digest> = vec![H::digest(&[]); padded];
        let mut ops = 0u64;
        let width = self.leaf_width;
        let leaves = &self.leaves;
        // Bottom internal level hashes raw leaf pairs.
        {
            let (_, bottom) = nodes.split_at_mut(padded / 2);
            hash_pairs_level::<H>(
                bottom,
                |t| {
                    let off = 2 * t * width;
                    (
                        &leaves[off..off + width],
                        &leaves[off + width..off + 2 * width],
                    )
                },
                lanes,
            );
            ops += self.padded / 2;
        }
        // Upper levels hash digest pairs, one level at a time: the level
        // of `size` nodes at heap [size, 2·size) reads its children from
        // [2·size, 4·size).
        let mut size = padded / 4;
        while size >= 1 {
            let (lo, hi) = nodes.split_at_mut(2 * size);
            let hi = &hi[..];
            let (_, level) = lo.split_at_mut(size);
            hash_pairs_level::<H>(
                level,
                |j| (hi[2 * j].as_ref(), hi[2 * j + 1].as_ref()),
                lanes,
            );
            ops += size as u64;
            size /= 2;
        }
        self.nodes = nodes;
        self.hash_ops = ops;
        self.hash_ops_wall = ops;
    }

    /// [`hash_all`](Self::hash_all) split over `threads` scoped workers:
    /// one power-of-two subtree of the padded leaf row per worker, then a
    /// serial fold of the top `log(workers)` levels. Digests are
    /// bit-identical to the serial pass.
    fn hash_all_parallel(&mut self, threads: usize, lanes: LaneWidth) {
        let padded = self.padded as usize;
        let chunks = subtree_chunks(threads, self.padded) as usize;
        if chunks <= 1 {
            self.hash_all(lanes);
            return;
        }
        let chunk = padded / chunks; // leaves per subtree; power of two ≥ 2
        let width = self.leaf_width;
        let leaves = &self.leaves;
        let locals: Vec<(Vec<H::Digest>, u64)> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..chunks)
                .map(|t| {
                    scope.spawn(move |_| {
                        // Local binary heap over this worker's subtree:
                        // index 0 unused, subtree root at 1. Each level is
                        // lane-batched exactly like the serial pass.
                        let mut local: Vec<H::Digest> = vec![H::digest(&[]); chunk];
                        let base = t * chunk;
                        {
                            let (_, bottom) = local.split_at_mut(chunk / 2);
                            hash_pairs_level::<H>(
                                bottom,
                                |s| {
                                    let off = (base + 2 * s) * width;
                                    (
                                        &leaves[off..off + width],
                                        &leaves[off + width..off + 2 * width],
                                    )
                                },
                                lanes,
                            );
                        }
                        let mut size = chunk / 4;
                        while size >= 1 {
                            let (lo, hi) = local.split_at_mut(2 * size);
                            let hi = &hi[..];
                            let (_, level) = lo.split_at_mut(size);
                            hash_pairs_level::<H>(
                                level,
                                |j| (hi[2 * j].as_ref(), hi[2 * j + 1].as_ref()),
                                lanes,
                            );
                            size /= 2;
                        }
                        // One hash per internal node of the subtree.
                        (local, (chunk - 1) as u64)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("merkle build worker panicked"))
                .collect()
        })
        .expect("merkle build scope");

        let mut nodes: Vec<H::Digest> = vec![H::digest(&[]); padded];
        let mut total = 0u64;
        let mut wall = 0u64;
        for (t, (local, ops)) in locals.iter().enumerate() {
            total += ops;
            wall = wall.max(*ops);
            // Scatter: local heap level [2^d, 2^{d+1}) lands at the global
            // contiguous range starting at (chunks + t) · 2^d.
            let mut level = 1usize;
            while level < chunk {
                let dst = (chunks + t) * level;
                nodes[dst..dst + level].copy_from_slice(&local[level..2 * level]);
                level *= 2;
            }
        }
        // Fold the top log2(chunks) levels serially.
        let mut top_ops = 0u64;
        for i in (1..chunks).rev() {
            nodes[i] = H::digest_pair(nodes[2 * i].as_ref(), nodes[2 * i + 1].as_ref());
            top_ops += 1;
        }
        self.nodes = nodes;
        self.hash_ops = total + top_ops;
        self.hash_ops_wall = wall + top_ops;
    }

    fn leaf_slice(&self, padded_index: usize) -> &[u8] {
        let off = padded_index * self.leaf_width;
        &self.leaves[off..off + self.leaf_width]
    }

    /// Leaf bytes by padded index (padding leaves included); used by the
    /// persistence layer.
    pub(crate) fn padded_leaf_slice(&self, padded_index: u64) -> &[u8] {
        self.leaf_slice(padded_index as usize)
    }

    /// Reassembles a tree from persisted raw storage. The caller (the
    /// persistence layer) guarantees geometric consistency.
    pub(crate) fn from_raw_parts(
        leaves: Vec<u8>,
        nodes: Vec<H::Digest>,
        leaf_count: u64,
        leaf_width: usize,
    ) -> Self {
        let padded = crate::padded_leaf_count(leaf_count);
        debug_assert_eq!(leaves.len() as u64, padded * leaf_width as u64);
        debug_assert_eq!(nodes.len() as u64, padded);
        MerkleTree {
            leaves,
            nodes,
            leaf_count,
            padded,
            leaf_width,
            hash_ops: 0,
            hash_ops_wall: 0,
        }
    }

    /// The committed root `Φ(R)`.
    ///
    /// For the degenerate two-leaf tree the root is the single internal
    /// node; in general it is heap node 1.
    #[must_use]
    pub fn root(&self) -> H::Digest {
        self.nodes[1]
    }

    /// Number of real (unpadded) leaves, `n = |D|`.
    #[must_use]
    pub fn leaf_count(&self) -> u64 {
        self.leaf_count
    }

    /// Leaf count after power-of-two padding.
    #[must_use]
    pub fn padded_leaf_count(&self) -> u64 {
        self.padded
    }

    /// Tree height `H`; every proof carries `H` sibling values.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.padded.trailing_zeros()
    }

    /// Width of each leaf in bytes.
    #[must_use]
    pub fn leaf_width(&self) -> usize {
        self.leaf_width
    }

    /// Number of hash invocations performed to build the tree
    /// (`padded − 1`), identical for serial and parallel builds.
    #[must_use]
    pub fn hash_ops(&self) -> u64 {
        self.hash_ops
    }

    /// Hash invocations on the build's critical path: the longest chain
    /// of hashes any single thread computed. Equals
    /// [`hash_ops`](Self::hash_ops) after a serial build; after
    /// [`build_parallel`](Self::build_parallel) with `w` workers it is
    /// roughly `hash_ops / w` plus the `w − 1` serial fold hashes — the
    /// wall-clock hash cost the parallel build actually paid.
    #[must_use]
    pub fn hash_ops_wall(&self) -> u64 {
        self.hash_ops_wall
    }

    /// The raw result bytes stored in leaf `index`.
    ///
    /// # Errors
    ///
    /// [`MerkleError::IndexOutOfRange`] if `index ≥ leaf_count`.
    pub fn leaf(&self, index: u64) -> Result<&[u8], MerkleError> {
        if index >= self.leaf_count {
            return Err(MerkleError::IndexOutOfRange {
                index,
                leaf_count: self.leaf_count,
            });
        }
        Ok(self.leaf_slice(index as usize))
    }

    /// Internal digest at heap position `heap_index` (root = 1).
    ///
    /// Exposed for the partial-tree equivalence tests; not part of the
    /// protocol surface.
    #[doc(hidden)]
    #[must_use]
    pub fn node_digest(&self, heap_index: u64) -> H::Digest {
        self.nodes[heap_index as usize]
    }

    /// Replaces the value of leaf `index` and recomputes the digests along
    /// its path to the root, returning the number of hash invocations
    /// spent (`H`, the tree height).
    ///
    /// This is the primitive behind the Section 4.2 *retry attack*: a
    /// cheater re-rolls one uncommitted leaf and pays only `O(log n)`
    /// hashes per attempt to refresh its commitment.
    ///
    /// # Errors
    ///
    /// * [`MerkleError::IndexOutOfRange`] if `index ≥ leaf_count`.
    /// * [`MerkleError::MixedLeafWidth`] if `value` has the wrong width.
    pub fn update_leaf(&mut self, index: u64, value: &[u8]) -> Result<u64, MerkleError> {
        if index >= self.leaf_count {
            return Err(MerkleError::IndexOutOfRange {
                index,
                leaf_count: self.leaf_count,
            });
        }
        if value.len() != self.leaf_width {
            return Err(MerkleError::MixedLeafWidth {
                expected: self.leaf_width,
                found: value.len(),
                index,
            });
        }
        let off = (index as usize) * self.leaf_width;
        self.leaves[off..off + self.leaf_width].copy_from_slice(value);
        // Re-hash the leaf pair, then the digest path up to the root.
        let mut ops = 0u64;
        let pair = index & !1;
        let mut node = (self.padded + index) >> 1;
        self.nodes[node as usize] = H::digest_pair(
            self.leaf_slice(pair as usize),
            self.leaf_slice((pair + 1) as usize),
        );
        ops += 1;
        while node > 1 {
            node >>= 1;
            self.nodes[node as usize] = H::digest_pair(
                self.nodes[(2 * node) as usize].as_ref(),
                self.nodes[(2 * node + 1) as usize].as_ref(),
            );
            ops += 1;
        }
        self.hash_ops += ops;
        self.hash_ops_wall += ops;
        Ok(ops)
    }

    /// Generates the proof of honesty for leaf `index` (Step 3 of the CBS
    /// scheme): the sibling leaf value plus the digest siblings along the
    /// path to the root.
    ///
    /// # Errors
    ///
    /// [`MerkleError::IndexOutOfRange`] if `index ≥ leaf_count`.
    pub fn prove(&self, index: u64) -> Result<MerkleProof<H>, MerkleError> {
        if index >= self.leaf_count {
            return Err(MerkleError::IndexOutOfRange {
                index,
                leaf_count: self.leaf_count,
            });
        }
        let leaf_sibling = self.leaf_slice((index ^ 1) as usize).to_vec();
        let mut digest_siblings = Vec::with_capacity(self.height() as usize - 1);
        // Heap position of the leaf's parent.
        let mut node = (self.padded + index) >> 1;
        while node > 1 {
            digest_siblings.push(self.nodes[(node ^ 1) as usize]);
            node >>= 1;
        }
        Ok(MerkleProof::from_parts(
            index,
            leaf_sibling,
            digest_siblings,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_hash::{Md5, Sha256};

    fn leaves(n: u64) -> Vec<[u8; 8]> {
        (0..n)
            .map(|x| (x.wrapping_mul(0x9e37_79b9)).to_le_bytes())
            .collect()
    }

    #[test]
    fn build_rejects_empty() {
        let empty: Vec<[u8; 8]> = Vec::new();
        assert_eq!(
            MerkleTree::<Sha256>::build(&empty).unwrap_err(),
            MerkleError::EmptyTree
        );
    }

    #[test]
    fn build_rejects_zero_width() {
        let zero: Vec<Vec<u8>> = vec![vec![], vec![]];
        assert_eq!(
            MerkleTree::<Sha256>::build(&zero).unwrap_err(),
            MerkleError::ZeroLeafWidth
        );
    }

    #[test]
    fn build_rejects_mixed_width() {
        let mixed: Vec<Vec<u8>> = vec![vec![1, 2], vec![3]];
        assert_eq!(
            MerkleTree::<Sha256>::build(&mixed).unwrap_err(),
            MerkleError::MixedLeafWidth {
                expected: 2,
                found: 1,
                index: 1
            }
        );
    }

    #[test]
    fn single_leaf_tree() {
        let tree: MerkleTree<Sha256> = MerkleTree::build(&leaves(1)).unwrap();
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.padded_leaf_count(), 2);
        assert_eq!(tree.height(), 1);
        // Root = H(leaf0 || zero-pad).
        let expected = Sha256::digest_pair(&0u64.to_le_bytes(), &[0u8; 8]);
        assert_eq!(tree.root(), expected);
    }

    #[test]
    fn two_leaf_root_matches_manual_eq1() {
        let ls = leaves(2);
        let tree: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
        assert_eq!(tree.root(), Sha256::digest_pair(&ls[0], &ls[1]));
    }

    #[test]
    fn four_leaf_root_matches_manual_eq1() {
        let ls = leaves(4);
        let tree: MerkleTree<Md5> = MerkleTree::build(&ls).unwrap();
        let b = Md5::digest_pair(&ls[0], &ls[1]);
        let c = Md5::digest_pair(&ls[2], &ls[3]);
        assert_eq!(tree.root(), Md5::digest_pair(b.as_ref(), c.as_ref()));
    }

    #[test]
    fn padding_is_zero_leaves() {
        // 3 real leaves pad to 4 with one zero leaf.
        let ls = leaves(3);
        let tree: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
        let mut padded = ls.iter().map(|l| l.to_vec()).collect::<Vec<_>>();
        padded.push(vec![0u8; 8]);
        let manual: MerkleTree<Sha256> = MerkleTree::build(&padded).unwrap();
        assert_eq!(tree.root(), manual.root());
    }

    #[test]
    fn from_leaf_fn_matches_build() {
        let ls = leaves(10);
        let a: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
        let b: MerkleTree<Sha256> =
            MerkleTree::from_leaf_fn(10, 8, |i| ls[i as usize].to_vec()).unwrap();
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn from_leaf_fn_rejects_wrong_width() {
        let err = MerkleTree::<Sha256>::from_leaf_fn(4, 8, |i| {
            if i == 2 {
                vec![0u8; 7]
            } else {
                vec![0u8; 8]
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            MerkleError::MixedLeafWidth {
                expected: 8,
                found: 7,
                index: 2
            }
        );
    }

    #[test]
    fn hash_ops_is_padded_minus_one() {
        for n in [1u64, 2, 3, 8, 9, 100] {
            let tree: MerkleTree<Sha256> =
                MerkleTree::from_leaf_fn(n, 8, |i| i.to_le_bytes().to_vec()).unwrap();
            assert_eq!(tree.hash_ops(), tree.padded_leaf_count() - 1, "n={n}");
            assert_eq!(tree.hash_ops_wall(), tree.hash_ops(), "n={n}");
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        for n in [1u64, 2, 3, 5, 16, 33, 100, 257] {
            let ls = leaves(n);
            let serial: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
            for threads in 1..=8usize {
                let parallel: MerkleTree<Sha256> =
                    MerkleTree::build_parallel(&ls, crate::Parallelism::threads(threads)).unwrap();
                // Every internal node, not just the root.
                for i in 1..serial.padded_leaf_count() {
                    assert_eq!(
                        serial.node_digest(i),
                        parallel.node_digest(i),
                        "n={n} threads={threads} node={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_width_is_bit_identical_at_any_setting() {
        // LaneWidth is an execution knob: every node digest and both op
        // counters must match the scalar serial build at any combination
        // of lane width and thread count.
        for n in [1u64, 2, 3, 5, 16, 33, 100, 257] {
            let ls = leaves(n);
            let reference: MerkleTree<Sha256> =
                MerkleTree::build_with(&ls, crate::Parallelism::serial(), LaneWidth::Scalar)
                    .unwrap();
            for lanes in LaneWidth::ALL {
                for threads in [1usize, 3, 4] {
                    let tree: MerkleTree<Sha256> =
                        MerkleTree::build_with(&ls, crate::Parallelism::threads(threads), lanes)
                            .unwrap();
                    for i in 1..reference.padded_leaf_count() {
                        assert_eq!(
                            reference.node_digest(i),
                            tree.node_digest(i),
                            "n={n} lanes={lanes} threads={threads} node={i}"
                        );
                    }
                    assert_eq!(reference.hash_ops(), tree.hash_ops(), "n={n} lanes={lanes}");
                }
            }
        }
    }

    #[test]
    fn lane_width_is_bit_identical_for_md5() {
        let ls = leaves(100);
        let scalar: MerkleTree<Md5> =
            MerkleTree::build_with(&ls, crate::Parallelism::serial(), LaneWidth::Scalar).unwrap();
        for lanes in [LaneWidth::X4, LaneWidth::X8] {
            let laned: MerkleTree<Md5> =
                MerkleTree::build_with(&ls, crate::Parallelism::serial(), lanes).unwrap();
            assert_eq!(scalar.root(), laned.root(), "lanes={lanes}");
        }
    }

    #[test]
    fn parallel_build_reports_exact_section3_op_count() {
        // Section 3: building over n leaves costs the 2n − 1 tree nodes
        // minus the n leaves themselves — padded − 1 hash invocations —
        // and the per-thread tallies merged at join must reproduce it
        // exactly.
        for n in [2u64, 7, 64, 100, 257] {
            let ls = leaves(n);
            for threads in [2usize, 3, 8] {
                let tree: MerkleTree<Sha256> =
                    MerkleTree::build_parallel(&ls, crate::Parallelism::threads(threads)).unwrap();
                assert_eq!(
                    tree.hash_ops(),
                    tree.padded_leaf_count() - 1,
                    "n={n} threads={threads}"
                );
                assert!(tree.hash_ops_wall() <= tree.hash_ops());
            }
        }
    }

    #[test]
    fn parallel_build_wall_ops_reflect_the_split() {
        // 256 padded leaves over 4 workers: each worker hashes 63 nodes,
        // the fold hashes 3 more → wall = 66 while total = 255.
        let ls = leaves(256);
        let tree: MerkleTree<Sha256> =
            MerkleTree::build_parallel(&ls, crate::Parallelism::threads(4)).unwrap();
        assert_eq!(tree.hash_ops(), 255);
        assert_eq!(tree.hash_ops_wall(), 66);
    }

    #[test]
    fn parallel_build_validates_like_serial() {
        let par = crate::Parallelism::threads(4);
        let empty: Vec<[u8; 8]> = Vec::new();
        assert_eq!(
            MerkleTree::<Sha256>::build_parallel(&empty, par).unwrap_err(),
            MerkleError::EmptyTree
        );
        let mixed: Vec<Vec<u8>> = vec![vec![1, 2], vec![3]];
        assert_eq!(
            MerkleTree::<Sha256>::build_parallel(&mixed, par).unwrap_err(),
            MerkleError::MixedLeafWidth {
                expected: 2,
                found: 1,
                index: 1
            }
        );
    }

    #[test]
    fn parallel_build_update_leaf_still_works() {
        let mut ls = leaves(64);
        let mut tree: MerkleTree<Sha256> =
            MerkleTree::build_parallel(&ls, crate::Parallelism::threads(8)).unwrap();
        tree.update_leaf(17, &[5u8; 8]).unwrap();
        ls[17] = [5u8; 8];
        let rebuilt: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
        assert_eq!(tree.root(), rebuilt.root());
    }

    #[test]
    fn leaf_accessor_roundtrip() {
        let ls = leaves(7);
        let tree: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
        for (i, l) in ls.iter().enumerate() {
            assert_eq!(tree.leaf(i as u64).unwrap(), l.as_slice());
        }
        assert!(tree.leaf(7).is_err());
    }

    #[test]
    fn all_proofs_verify() {
        for n in [1u64, 2, 3, 5, 8, 16, 33] {
            let ls = leaves(n);
            let tree: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
            let root = tree.root();
            for i in 0..n {
                let proof = tree.prove(i).unwrap();
                assert!(
                    proof.verify(&root, &ls[i as usize]),
                    "n={n} leaf={i} proof failed"
                );
            }
        }
    }

    #[test]
    fn proof_rejects_wrong_leaf_value() {
        let ls = leaves(8);
        let tree: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
        let proof = tree.prove(3).unwrap();
        assert!(!proof.verify(&tree.root(), &[0xFFu8; 8]));
    }

    #[test]
    fn proof_rejects_wrong_root() {
        let ls = leaves(8);
        let tree: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
        let other: MerkleTree<Sha256> = MerkleTree::build(&leaves(9)[1..]).unwrap();
        let proof = tree.prove(3).unwrap();
        assert!(!proof.verify(&other.root(), &ls[3]));
    }

    #[test]
    fn prove_out_of_range() {
        let tree: MerkleTree<Sha256> = MerkleTree::build(&leaves(4)).unwrap();
        assert_eq!(
            tree.prove(4).unwrap_err(),
            MerkleError::IndexOutOfRange {
                index: 4,
                leaf_count: 4
            }
        );
    }

    #[test]
    fn changing_any_leaf_changes_root() {
        let base = leaves(16);
        let tree: MerkleTree<Sha256> = MerkleTree::build(&base).unwrap();
        for i in 0..16usize {
            let mut mutated = base.clone();
            mutated[i][0] ^= 1;
            let other: MerkleTree<Sha256> = MerkleTree::build(&mutated).unwrap();
            assert_ne!(tree.root(), other.root(), "leaf {i} mutation not detected");
        }
    }

    #[test]
    fn update_leaf_matches_rebuild() {
        let mut ls = leaves(16);
        let mut tree: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
        for i in [0u64, 3, 7, 15] {
            let new_value = (i + 1000).to_le_bytes();
            let ops = tree.update_leaf(i, &new_value).unwrap();
            assert_eq!(ops, u64::from(tree.height()));
            ls[i as usize] = new_value;
            let rebuilt: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
            assert_eq!(tree.root(), rebuilt.root(), "after updating leaf {i}");
        }
    }

    #[test]
    fn update_leaf_then_prove() {
        let ls = leaves(8);
        let mut tree: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
        tree.update_leaf(5, &[9u8; 8]).unwrap();
        let proof = tree.prove(5).unwrap();
        assert!(proof.verify(&tree.root(), &[9u8; 8]));
        let proof0 = tree.prove(0).unwrap();
        assert!(proof0.verify(&tree.root(), &ls[0]));
    }

    #[test]
    fn update_leaf_validates_arguments() {
        let mut tree: MerkleTree<Sha256> = MerkleTree::build(&leaves(4)).unwrap();
        assert!(matches!(
            tree.update_leaf(4, &[0u8; 8]),
            Err(MerkleError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            tree.update_leaf(0, &[0u8; 7]),
            Err(MerkleError::MixedLeafWidth { .. })
        ));
    }

    #[test]
    fn update_leaf_restores_original_root() {
        let ls = leaves(8);
        let mut tree: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
        let original = tree.root();
        tree.update_leaf(2, &[1u8; 8]).unwrap();
        assert_ne!(tree.root(), original);
        tree.update_leaf(2, &ls[2]).unwrap();
        assert_eq!(tree.root(), original);
    }

    #[test]
    fn fig1_walkthrough() {
        // Fig. 1 of the paper: 8 leaves, sample x_3 (leaf index 2 when
        // 0-indexed). The proof must contain Φ(L4) (the leaf sibling) and
        // the digests Φ(A), Φ(D)... — here we verify the reconstruction
        // footnote: Φ(B) = hash(f(x3)||Φ(L4)), Φ(C) = hash(Φ(A)||Φ(B)),
        // Φ(E) = hash(Φ(C)||Φ(D)), Φ(R) = hash(Φ(E)||Φ(F)).
        let ls = leaves(8);
        let tree: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
        let proof = tree.prove(2).unwrap();
        assert_eq!(proof.leaf_sibling(), &ls[3]); // Φ(L4)
        let phi_a = Sha256::digest_pair(&ls[0], &ls[1]);
        let phi_b = Sha256::digest_pair(&ls[2], &ls[3]);
        let phi_c = Sha256::digest_pair(phi_a.as_ref(), phi_b.as_ref());
        let phi_d = Sha256::digest_pair(&ls[4], &ls[5]);
        let phi_e = Sha256::digest_pair(&ls[6], &ls[7]);
        let phi_f = Sha256::digest_pair(phi_d.as_ref(), phi_e.as_ref());
        assert_eq!(proof.digest_siblings(), &[phi_a, phi_f]);
        let root = Sha256::digest_pair(phi_c.as_ref(), phi_f.as_ref());
        assert_eq!(tree.root(), root);
        assert!(proof.verify(&root, &ls[2]));
    }
}
