//! The Merkle tree of Section 3.1 of the paper, resident in full or —
//! Section 3.3 — only down to depth `H − ℓ`.
//!
//! Every build, whatever it keeps and however many threads it uses, is
//! the same walk: [`hash_chunk`] turns a power-of-two run of the padded
//! leaf row into the binary heap of the subtree over it, one
//! [`digest_pairs_into`] call per level. The serial build hashes the row
//! as one chunk, the threaded build one chunk per worker, the truncated
//! build one `2^ℓ`-leaf chunk at a time keeping only each chunk's root,
//! and a proof or opening from a truncated tree hashes again each chunk
//! one of its leaves lies in, once.

use crate::opening::ascend;
use crate::parallel::subtree_chunks;
use crate::{
    padded_leaf_count, LeafSet, MerkleError, MerkleOpening, MerkleProof, Parallelism, RebuildStats,
};
use ugc_hash::{digest_pairs_into, HashFunction, LaneWidth, Sha256};

/// The level walk under every build: hashes `chunk` — `heap.len()` leaves
/// of `width` bytes, a power of two ≥ 2 — into `heap`, the binary heap of
/// the subtree over it (index 0 unused, subtree root at 1, node `i` over
/// children `2i` and `2i + 1`). The nodes of a level are mutually
/// independent, so each level is one lane-batched call; `heap.len() − 1`
/// hashes in all.
fn hash_chunk<H: HashFunction>(
    heap: &mut [H::Digest],
    chunk: &[u8],
    width: usize,
    lanes: LaneWidth,
) {
    let leaves = heap.len();
    debug_assert!(leaves >= 2 && leaves.is_power_of_two());
    debug_assert_eq!(chunk.len(), leaves * width);
    // The bottom digest level hashes raw leaf pairs.
    let (_, bottom) = heap.split_at_mut(leaves / 2);
    digest_pairs_into::<H>(
        bottom,
        |t| {
            let off = 2 * t * width;
            (
                &chunk[off..off + width],
                &chunk[off + width..off + 2 * width],
            )
        },
        lanes,
    );
    // Upper levels hash digest pairs: the level of `size` nodes at heap
    // [size, 2·size) reads its children from [2·size, 4·size).
    let mut size = leaves / 4;
    while size >= 1 {
        let (lo, hi) = heap.split_at_mut(2 * size);
        let hi = &hi[..];
        let (_, level) = lo.split_at_mut(size);
        digest_pairs_into::<H>(
            level,
            |j| (hi[2 * j].as_ref(), hi[2 * j + 1].as_ref()),
            lanes,
        );
        size /= 2;
    }
}

/// A heap of `len` digests before any is hashed; slot 0 stays this filler.
fn blank_heap<H: HashFunction>(len: usize) -> Vec<H::Digest> {
    vec![H::digest(&[]); len]
}

/// Hashes the levels above `heap[width..2·width]` — the roots of `width`
/// already-hashed subtrees — serially, up to the root at 1.
fn fold_top<H: HashFunction>(heap: &mut [H::Digest], width: usize) {
    for i in (1..width).rev() {
        heap[i] = H::digest_pair(heap[2 * i].as_ref(), heap[2 * i + 1].as_ref());
    }
}

/// Hashes the padded leaf `row` into its full heap on up to `threads`
/// scoped workers: one power-of-two chunk of the row per worker, each
/// worker's local heap scattered into place, then a serial fold of the
/// top `log(workers)` levels. One worker is one chunk whose local heap
/// *is* the result. Bit-identical at any thread count.
fn hash_row<H: HashFunction>(
    row: &[u8],
    width: usize,
    threads: usize,
    lanes: LaneWidth,
) -> Vec<H::Digest> {
    let padded = row.len() / width;
    let chunks = subtree_chunks(threads, padded as u64) as usize;
    if chunks <= 1 {
        let mut nodes = blank_heap::<H>(padded);
        hash_chunk::<H>(&mut nodes, row, width, lanes);
        return nodes;
    }
    let chunk = padded / chunks; // leaves per worker; power of two ≥ 2
    let locals: Vec<Vec<H::Digest>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = row
            .chunks_exact(chunk * width)
            .map(|leaves| {
                scope.spawn(move |_| {
                    let mut local = blank_heap::<H>(chunk);
                    hash_chunk::<H>(&mut local, leaves, width, lanes);
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("merkle build worker panicked"))
            .collect()
    })
    .expect("merkle build scope");
    let mut nodes = blank_heap::<H>(padded);
    for (t, local) in locals.iter().enumerate() {
        // Scatter: local heap level [2^d, 2^{d+1}) lands at the global
        // contiguous range starting at (chunks + t) · 2^d.
        let mut level = 1usize;
        while level < chunk {
            let dst = (chunks + t) * level;
            nodes[dst..dst + level].copy_from_slice(&local[level..2 * level]);
            level *= 2;
        }
    }
    fold_top::<H>(&mut nodes, chunks);
    nodes
}

/// Bytes in a row of `leaves` leaves of `width` bytes each; panics
/// rather than wrap to the size of some other tree's row.
fn row_bytes(leaves: u64, width: usize) -> usize {
    usize::try_from(leaves)
        .ok()
        .and_then(|leaves| leaves.checked_mul(width))
        .expect("leaf row larger than the address space")
}

/// Fills `row` with the leaves from index `base` on: `provider(i)` for
/// every real leaf `i < n`, width-checked, zeros for the padding past
/// `n`. Returns the number of provider calls made.
fn fill_leaves<V: AsRef<[u8]>>(
    row: &mut [u8],
    base: u64,
    n: u64,
    width: usize,
    provider: &mut impl FnMut(u64) -> V,
) -> Result<u64, MerkleError> {
    let real = n.saturating_sub(base).min((row.len() / width) as u64);
    let (filled, padding) = row.split_at_mut(real as usize * width);
    for (index, slot) in (base..).zip(filled.chunks_exact_mut(width)) {
        let value = provider(index);
        let bytes = value.as_ref();
        if bytes.len() != width {
            return Err(MerkleError::MixedLeafWidth {
                expected: width,
                found: bytes.len(),
                index,
            });
        }
        slot.copy_from_slice(bytes);
    }
    padding.fill(0);
    Ok(real)
}

/// The sibling walk: appends the sibling of `node` and of each of its
/// ancestors below the root of `heap`, bottom-up.
fn push_siblings<D: Copy>(heap: &[D], mut node: usize, out: &mut Vec<D>) {
    while node > 1 {
        out.push(heap[node ^ 1]);
        node >>= 1;
    }
}

/// The leaf level of an opening: appends the leaves `nodes` of `row` to
/// `values` and the neighbour of every lone one to `siblings`, and moves
/// `nodes` up to their parents.
fn open_leaves(
    row: &[u8],
    width: usize,
    nodes: &mut Vec<u64>,
    values: &mut Vec<u8>,
    siblings: &mut Vec<u8>,
) {
    let leaf = |i: u64| &row[i as usize * width..][..width];
    for &node in nodes.iter() {
        values.extend_from_slice(leaf(node));
    }
    ascend(nodes, |_, node, lone| {
        if lone {
            siblings.extend_from_slice(leaf(node ^ 1));
        }
    });
}

/// A digest level of an opening: `nodes` index the level of `heap` that
/// starts at `first`; appends the sibling of every lone one to `siblings`
/// and moves `nodes` up to their parents.
fn open_digests<D: AsRef<[u8]>>(
    heap: &[D],
    first: usize,
    nodes: &mut Vec<u64>,
    siblings: &mut Vec<u8>,
) {
    ascend(nodes, |_, node, lone| {
        if lone {
            siblings.extend_from_slice(heap[first + (node ^ 1) as usize].as_ref());
        }
    });
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
/// How much of the tree stays in memory is the *subtree height* `ℓ`
/// ([`subtree_height`](Self::subtree_height)). At `ℓ = 0` — what
/// [`build`](Self::build), [`build_with`](Self::build_with),
/// [`from_leaf_fn`](Self::from_leaf_fn) and
/// [`from_leaf_row`](Self::from_leaf_row) produce — the padded leaf row
/// and every digest are resident, `O(|D|)` space. At `ℓ ≥ 1`
/// ([`build_truncated`](Self::build_truncated), Section 3.3) the leaf
/// row is dropped and the digests are kept only down to depth `H − ℓ`:
/// `O(|D| / 2^ℓ)` space, and every proof recomputes the `2^ℓ` leaves
/// around its sample ([`prove_with`](Self::prove_with)). Root and proofs
/// are the same bytes at every `ℓ`.
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
    /// Padded leaf data, `padded * leaf_width` bytes, row-major; empty
    /// when `subtree_height ≥ 1`.
    leaves: Vec<u8>,
    /// Digests in binary-heap order; index 0 unused, root at 1, node `i`
    /// has children `2i` and `2i+1`. Holds depths `0 ..= H − max(ℓ, 1)`:
    /// length `padded` at `ℓ ≤ 1`, `2^(H−ℓ+1)` in general, the deepest
    /// level being the roots of the `2^(H−ℓ)` unsaved subtrees.
    nodes: Vec<H::Digest>,
    leaf_count: u64,
    padded: u64,
    leaf_width: usize,
    /// `ℓ`: 0 keeps everything, `ℓ ≥ 1` keeps depths `0 ..= H − ℓ` only.
    subtree_height: u32,
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

    /// Builds the same tree as [`build`](Self::build) with both execution
    /// knobs explicit: up to `parallelism` worker threads *and* the
    /// message-parallel lane width used inside each worker (or the single
    /// thread). The padded leaf row splits into one power-of-two subtree
    /// per worker; each worker hashes its subtree independently and the
    /// top `log(workers)` levels fold serially. Neither knob changes any
    /// digest or count — every node, every proof and
    /// [`hash_ops`](Self::hash_ops) are bit-identical to the serial scalar
    /// build; they trade wall-clock time only.
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
    /// Section 4.2 retry attack, the partial-storage tests) build small
    /// trees from closures and never needed them.
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
    ///
    /// # Panics
    ///
    /// If `n · leaf_width` bytes overflow `usize`: no machine holds that row.
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
        let mut row = Vec::with_capacity(row_bytes(padded_leaf_count(n), width));
        row.resize(row_bytes(n, width), 0);
        fill_leaves(&mut row, 0, n, width, &mut leaf_fn)?;
        Self::from_leaf_row(row, width, parallelism, lanes)
    }

    /// Builds the tree over a flat leaf row: `row` holds `n` results of
    /// `width` bytes each, back to back — exactly what
    /// `ComputeTask::compute_into` and `WorkerBehaviour::leaf_row`
    /// produce. The tree takes ownership, zero-pads the row in place to
    /// the power-of-two leaf count and hashes it: no copy, no per-leaf
    /// allocation. Every other resident constructor fills such a row and
    /// ends here.
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
        row.resize(row_bytes(padded, width), 0);
        let nodes = hash_row::<H>(&row, width, parallelism.get(), lanes);
        Ok(MerkleTree {
            leaves: row,
            nodes,
            leaf_count: n,
            padded,
            leaf_width: width,
            subtree_height: 0,
        })
    }

    /// Builds the tree of Section 3.3 over `n` leaves of `leaf_width`
    /// bytes: the same commitment as the resident constructors, stored
    /// only down to depth `H − subtree_height` (Fig. 3 of the paper).
    ///
    /// The `provider` computes `f(x_i)` for `i ∈ [0, n)`; it is called once
    /// per real leaf, one `2^ℓ`-leaf subtree at a time (exactly as the
    /// participant would evaluate its task), after which the results are
    /// *discarded* — that is the point of the scheme. The build holds
    /// `O(2^ℓ)` scratch beside the stored digests, never the whole row.
    ///
    /// # Errors
    ///
    /// * [`MerkleError::EmptyTree`] / [`MerkleError::ZeroLeafWidth`] on a
    ///   degenerate domain.
    /// * [`MerkleError::SubtreeHeightOutOfRange`] unless
    ///   `1 ≤ subtree_height ≤ H`.
    /// * [`MerkleError::MixedLeafWidth`] if the provider returns a
    ///   wrong-width leaf.
    ///
    /// # Examples
    ///
    /// ```
    /// use ugc_merkle::MerkleTree;
    /// use ugc_hash::Sha256;
    ///
    /// let f = |x: u64| (x * x).to_le_bytes();
    /// let full: MerkleTree<Sha256> = MerkleTree::from_leaf_fn(64, 8, |x| f(x).to_vec())?;
    /// let partial: MerkleTree<Sha256> = MerkleTree::build_truncated(64, 8, 3, f)?;
    /// assert_eq!(partial.root(), full.root());
    /// assert_eq!(partial.stored_node_count(), 15); // depths 0..=3 of 6
    ///
    /// let (proof, stats) = partial.prove_with(17, f)?;
    /// assert_eq!(stats.leaves_recomputed, 8); // 2^ℓ f-evaluations
    /// assert_eq!(proof, full.prove(17)?);
    /// assert!(proof.verify(&full.root(), &f(17)));
    /// # Ok::<(), ugc_merkle::MerkleError>(())
    /// ```
    pub fn build_truncated<V: AsRef<[u8]>>(
        n: u64,
        leaf_width: usize,
        subtree_height: u32,
        mut provider: impl FnMut(u64) -> V,
    ) -> Result<Self, MerkleError> {
        if n == 0 {
            return Err(MerkleError::EmptyTree);
        }
        if leaf_width == 0 {
            return Err(MerkleError::ZeroLeafWidth);
        }
        let padded = padded_leaf_count(n);
        let height = padded.trailing_zeros();
        if subtree_height == 0 || subtree_height > height {
            return Err(MerkleError::SubtreeHeightOutOfRange {
                subtree_height,
                tree_height: height,
            });
        }
        let chunk = 1usize << subtree_height;
        let subtrees = (padded >> subtree_height) as usize;
        let mut nodes = blank_heap::<H>(2 * subtrees);
        let mut row = vec![0u8; chunk * leaf_width];
        let mut heap = blank_heap::<H>(chunk);
        for (t, base) in (0..padded).step_by(chunk).enumerate() {
            fill_leaves(&mut row, base, n, leaf_width, &mut provider)?;
            hash_chunk::<H>(&mut heap, &row, leaf_width, LaneWidth::default());
            nodes[subtrees + t] = heap[1];
        }
        fold_top::<H>(&mut nodes, subtrees);
        Ok(MerkleTree {
            leaves: Vec::new(),
            nodes,
            leaf_count: n,
            padded,
            leaf_width,
            subtree_height,
        })
    }

    fn leaf_slice(&self, padded_index: usize) -> &[u8] {
        let off = padded_index * self.leaf_width;
        &self.leaves[off..off + self.leaf_width]
    }

    fn check_index(&self, index: u64) -> Result<(), MerkleError> {
        if index < self.leaf_count {
            Ok(())
        } else {
            Err(MerkleError::IndexOutOfRange {
                index,
                leaf_count: self.leaf_count,
            })
        }
    }

    /// What reads or writes the leaf row needs: a tree that kept it.
    fn check_resident(&self) -> Result<(), MerkleError> {
        if self.subtree_height == 0 {
            Ok(())
        } else {
            Err(MerkleError::LeavesNotResident {
                subtree_height: self.subtree_height,
            })
        }
    }

    /// The committed root `Φ(R)`: heap node 1, at every subtree height.
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

    /// Number of hash invocations the build performed: `padded − 1`, one
    /// per internal node, at any subtree height, thread count and lane
    /// width. A count of work, never of how it was spread over threads.
    #[must_use]
    pub fn hash_ops(&self) -> u64 {
        self.padded - 1
    }

    /// The unsaved-subtree height `ℓ`: 0 for a tree that keeps its leaf
    /// row and every digest, `1 ≤ ℓ ≤ H` for one stored down to depth
    /// `H − ℓ` ([`build_truncated`](Self::build_truncated)).
    #[must_use]
    pub fn subtree_height(&self) -> u32 {
        self.subtree_height
    }

    /// Number of digests held in memory: `2^(H−ℓ+1) − 1` at `ℓ ≥ 1`
    /// (counting the root; the paper rounds this to `S = 2^(H−ℓ+1)`),
    /// all `2^H − 1` at `ℓ = 0`.
    #[must_use]
    pub fn stored_node_count(&self) -> u64 {
        self.nodes.len() as u64 - 1
    }

    /// The paper's storage figure `S = 2^(H−ℓ+1)`, in tree nodes (at
    /// `ℓ = 0` the leaves count as nodes: the whole tree).
    #[must_use]
    pub fn paper_storage_units(&self) -> u64 {
        1u64 << (self.height() - self.subtree_height + 1)
    }

    /// Bytes of storage actually used: the digests held, plus the leaf
    /// row at `ℓ = 0`.
    #[must_use]
    pub fn stored_bytes(&self) -> u64 {
        self.stored_node_count() * H::DIGEST_LEN as u64 + self.leaves.len() as u64
    }

    /// Costs incurred while building: each real leaf computed once, each
    /// internal node hashed once.
    #[must_use]
    pub fn build_stats(&self) -> RebuildStats {
        RebuildStats {
            leaves_recomputed: self.leaf_count,
            hash_ops: self.hash_ops(),
        }
    }

    /// The raw result bytes stored in leaf `index`.
    ///
    /// # Errors
    ///
    /// * [`MerkleError::LeavesNotResident`] on a truncated tree.
    /// * [`MerkleError::IndexOutOfRange`] if `index ≥ leaf_count`.
    pub fn leaf(&self, index: u64) -> Result<&[u8], MerkleError> {
        self.check_resident()?;
        self.check_index(index)?;
        Ok(self.leaf_slice(index as usize))
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
    /// * [`MerkleError::LeavesNotResident`] on a truncated tree.
    /// * [`MerkleError::IndexOutOfRange`] if `index ≥ leaf_count`.
    /// * [`MerkleError::MixedLeafWidth`] if `value` has the wrong width.
    pub fn update_leaf(&mut self, index: u64, value: &[u8]) -> Result<u64, MerkleError> {
        self.check_resident()?;
        self.check_index(index)?;
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
        Ok(ops)
    }

    /// Generates the proof of honesty for leaf `index` (Step 3 of the CBS
    /// scheme) from a tree that kept its leaf row: the sibling leaf value
    /// plus the digest siblings along the path to the root —
    /// [`prove_with`](Self::prove_with) at `ℓ = 0`, which needs no provider.
    ///
    /// # Errors
    ///
    /// * [`MerkleError::LeavesNotResident`] on a truncated tree.
    /// * [`MerkleError::IndexOutOfRange`] if `index ≥ leaf_count`.
    pub fn prove(&self, index: u64) -> Result<MerkleProof<H>, MerkleError> {
        self.check_resident()?;
        self.prove_with(index, |_| [0u8; 0]).map(|(proof, _)| proof)
    }

    /// Generates the proof of honesty for leaf `index` at any subtree
    /// height: the siblings below depth `H − ℓ` come from rebuilding the
    /// height-`ℓ` subtree that contains the leaf (Fig. 3(b) of the paper:
    /// the shaded, unsaved area), the rest from the stored digests.
    ///
    /// `provider` must recompute the same `f(x_i)` values committed at
    /// build time; it is called for the real leaves of that one subtree
    /// and, at `ℓ = 0`, not at all. Returns the proof — the same bytes at
    /// every `ℓ` — and the rebuild cost (zero at `ℓ = 0`).
    ///
    /// # Errors
    ///
    /// * [`MerkleError::IndexOutOfRange`] if `index ≥ leaf_count`.
    /// * [`MerkleError::MixedLeafWidth`] if the provider returns a
    ///   wrong-width leaf.
    /// * [`MerkleError::ProviderMismatch`] if the rebuilt subtree root does
    ///   not match the stored digest (the provider is inconsistent with the
    ///   commitment).
    pub fn prove_with<V: AsRef<[u8]>>(
        &self,
        index: u64,
        mut provider: impl FnMut(u64) -> V,
    ) -> Result<(MerkleProof<H>, RebuildStats), MerkleError> {
        self.check_index(index)?;
        let ell = self.subtree_height;
        let width = self.leaf_width;
        let mut digest_siblings = Vec::with_capacity(self.height() as usize - 1);
        let mut stats = RebuildStats::default();
        let leaf_sibling = if ell == 0 {
            self.leaf_slice((index ^ 1) as usize).to_vec()
        } else {
            let chunk = 1usize << ell;
            let mut row = vec![0u8; chunk * width];
            let mut heap = blank_heap::<H>(chunk);
            self.rebuild_subtree(index >> ell, &mut row, &mut heap, &mut provider, &mut stats)?;
            let local = index as usize % chunk;
            push_siblings(&heap, (chunk + local) >> 1, &mut digest_siblings);
            row[(local ^ 1) * width..][..width].to_vec()
        };
        // Heap position of the deepest resident ancestor: the leaf's
        // parent, or the root of the subtree just rebuilt.
        let resident = (self.padded + index) >> ell.max(1);
        push_siblings(&self.nodes, resident as usize, &mut digest_siblings);
        Ok((
            MerkleProof::from_parts(index, leaf_sibling, digest_siblings),
            stats,
        ))
    }

    /// Recomputes unsaved subtree `subtree` (`ℓ ≥ 1`): fills `row` with
    /// its `2^ℓ` leaves through `provider`, hashes them into `heap`, adds
    /// the cost to `stats` and checks the rebuilt root against the stored
    /// one.
    fn rebuild_subtree<V: AsRef<[u8]>>(
        &self,
        subtree: u64,
        row: &mut [u8],
        heap: &mut [H::Digest],
        provider: &mut impl FnMut(u64) -> V,
        stats: &mut RebuildStats,
    ) -> Result<(), MerkleError> {
        let ell = self.subtree_height;
        stats.leaves_recomputed += fill_leaves(
            row,
            subtree << ell,
            self.leaf_count,
            self.leaf_width,
            provider,
        )?;
        hash_chunk::<H>(heap, row, self.leaf_width, LaneWidth::default());
        stats.hash_ops += heap.len() as u64 - 1;
        if heap[1] != self.nodes[((self.padded >> ell) + subtree) as usize] {
            return Err(MerkleError::ProviderMismatch {
                subtree_index: subtree,
            });
        }
        Ok(())
    }

    /// Opens the leaves `indices` — the round's challenge as it came, any
    /// order, duplicates and all — from a tree that kept its leaf row:
    /// [`open_with`](Self::open_with) at `ℓ = 0`, which needs no provider.
    ///
    /// # Errors
    ///
    /// * [`MerkleError::LeavesNotResident`] on a truncated tree.
    /// * [`MerkleError::NoIndices`] / [`MerkleError::IndexOutOfRange`] as
    ///   [`LeafSet::new`].
    pub fn open(&self, indices: &[u64]) -> Result<MerkleOpening, MerkleError> {
        self.check_resident()?;
        self.open_with(indices, |_| [0u8; 0])
            .map(|(opening, _)| opening)
    }

    /// Opens the leaves `indices` at any subtree height, in one pass over
    /// their sorted distinct set ([`LeafSet`]): the sampled values and,
    /// level by level, the sibling of every node on their paths that
    /// neither another sampled leaf nor the verifier's own hashing
    /// supplies.
    ///
    /// Below depth `H − ℓ` the values and siblings come from rebuilding
    /// the unsaved subtrees the leaves lie in — **each distinct subtree
    /// once**, however many of the leaves share it — the rest from the
    /// stored digests. `provider` must recompute the `f(x_i)` committed at
    /// build time; it is called for the real leaves of those subtrees
    /// and, at `ℓ = 0`, not at all. Returns the opening — the same bytes
    /// at every `ℓ` — and the total rebuild cost (zero at `ℓ = 0`).
    ///
    /// # Errors
    ///
    /// * [`MerkleError::NoIndices`] / [`MerkleError::IndexOutOfRange`] as
    ///   [`LeafSet::new`].
    /// * [`MerkleError::MixedLeafWidth`] / [`MerkleError::ProviderMismatch`]
    ///   as [`prove_with`](Self::prove_with).
    pub fn open_with<V: AsRef<[u8]>>(
        &self,
        indices: &[u64],
        mut provider: impl FnMut(u64) -> V,
    ) -> Result<(MerkleOpening, RebuildStats), MerkleError> {
        let set = LeafSet::new(self.leaf_count, indices)?;
        let shape = set.shape();
        let ell = self.subtree_height;
        let width = self.leaf_width;
        let mut stats = RebuildStats::default();
        let mut leaf_values = Vec::with_capacity(shape.leaves * width);
        let mut leaf_siblings = Vec::with_capacity(shape.leaf_siblings * width);
        let mut digest_siblings = Vec::with_capacity(shape.digest_siblings * H::DIGEST_LEN);

        // The known nodes of the level being opened, moved up as it is.
        let mut nodes;
        if ell == 0 {
            nodes = set.indices().to_vec();
            open_leaves(
                &self.leaves,
                width,
                &mut nodes,
                &mut leaf_values,
                &mut leaf_siblings,
            );
        } else {
            // The canonical order is level-major and a rebuild is
            // subtree-major: each rebuilt subtree appends its share of
            // every level below `ℓ` to that level's run, and ascending
            // subtrees keep every run in node order.
            let chunk = 1usize << ell;
            let mut row = vec![0u8; chunk * width];
            let mut heap = blank_heap::<H>(chunk);
            let mut below: Vec<Vec<u8>> = vec![Vec::new(); ell as usize - 1];
            for run in set.indices().chunk_by(|a, b| a >> ell == b >> ell) {
                self.rebuild_subtree(
                    run[0] >> ell,
                    &mut row,
                    &mut heap,
                    &mut provider,
                    &mut stats,
                )?;
                let mut local: Vec<u64> = run.iter().map(|i| i % chunk as u64).collect();
                open_leaves(
                    &row,
                    width,
                    &mut local,
                    &mut leaf_values,
                    &mut leaf_siblings,
                );
                for (level, out) in (1..).zip(&mut below) {
                    open_digests(&heap, chunk >> level, &mut local, out);
                }
            }
            digest_siblings.extend(below.into_iter().flatten());
            nodes = set.indices().iter().map(|i| i >> ell).collect();
            nodes.dedup();
        }
        // Levels `max(ℓ, 1) … H − 1` are resident.
        for level in ell.max(1)..self.height() {
            let first = (self.padded >> level) as usize;
            open_digests(&self.nodes, first, &mut nodes, &mut digest_siblings);
        }
        Ok((
            MerkleOpening {
                leaf_width: width,
                leaf_values,
                leaf_siblings,
                digest_siblings,
            },
            stats,
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

    fn threaded(ls: &[[u8; 8]], threads: usize) -> MerkleTree<Sha256> {
        MerkleTree::build_with(ls, Parallelism::threads(threads), LaneWidth::default()).unwrap()
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
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        for n in [1u64, 2, 3, 5, 16, 33, 100, 257] {
            let ls = leaves(n);
            let serial: MerkleTree<Sha256> = MerkleTree::build(&ls).unwrap();
            for threads in 1..=8usize {
                let parallel = threaded(&ls, threads);
                // Every internal node, not just the root.
                assert_eq!(serial.nodes, parallel.nodes, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn lane_width_is_bit_identical_at_any_setting() {
        // LaneWidth is an execution knob: every node digest and the op
        // counter must match the scalar serial build at any combination
        // of lane width and thread count.
        for n in [1u64, 2, 3, 5, 16, 33, 100, 257] {
            let ls = leaves(n);
            let reference: MerkleTree<Sha256> =
                MerkleTree::build_with(&ls, Parallelism::serial(), LaneWidth::Scalar).unwrap();
            for lanes in LaneWidth::ALL {
                for threads in [1usize, 3, 4] {
                    let tree: MerkleTree<Sha256> =
                        MerkleTree::build_with(&ls, Parallelism::threads(threads), lanes).unwrap();
                    assert_eq!(
                        reference.nodes, tree.nodes,
                        "n={n} lanes={lanes} threads={threads}"
                    );
                    assert_eq!(reference.hash_ops(), tree.hash_ops(), "n={n} lanes={lanes}");
                }
            }
        }
    }

    #[test]
    fn lane_width_is_bit_identical_for_md5() {
        let ls = leaves(100);
        let scalar: MerkleTree<Md5> =
            MerkleTree::build_with(&ls, Parallelism::serial(), LaneWidth::Scalar).unwrap();
        let laned: MerkleTree<Md5> =
            MerkleTree::build_with(&ls, Parallelism::serial(), LaneWidth::X8).unwrap();
        assert_eq!(scalar.root(), laned.root());
    }

    #[test]
    fn parallel_build_reports_exact_section3_op_count() {
        // Section 3: building over n leaves costs the 2n − 1 tree nodes
        // minus the n leaves themselves — padded − 1 hash invocations —
        // however many workers shared them.
        for n in [2u64, 7, 64, 100, 257] {
            let ls = leaves(n);
            for threads in [2usize, 3, 8] {
                let tree = threaded(&ls, threads);
                assert_eq!(
                    tree.hash_ops(),
                    tree.padded_leaf_count() - 1,
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_build_validates_like_serial() {
        let par = Parallelism::threads(4);
        let lanes = LaneWidth::default();
        let empty: Vec<[u8; 8]> = Vec::new();
        assert_eq!(
            MerkleTree::<Sha256>::build_with(&empty, par, lanes).unwrap_err(),
            MerkleError::EmptyTree
        );
        let mixed: Vec<Vec<u8>> = vec![vec![1, 2], vec![3]];
        assert_eq!(
            MerkleTree::<Sha256>::build_with(&mixed, par, lanes).unwrap_err(),
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
        let mut tree = threaded(&ls, 8);
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
