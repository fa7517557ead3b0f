//! The computation model of uncheatable grid computing.
//!
//! Section 2.1 of Du et al. (ICDCS 2004) defines a grid computation by a
//! function `f : X → T` over a finite domain, a *screener* `S` that filters
//! the outputs worth reporting, and a partition of `X` into per-participant
//! sub-domains. This crate provides those pieces:
//!
//! * [`ComputeTask`] — the function `f`, producing fixed-width encoded
//!   results that become Merkle leaves (`Φ(L_i) = f(x_i)`).
//! * [`Screener`] — the screener `S(x, f(x))`, whose run-time is assumed
//!   negligible next to `f`.
//! * [`Domain`] — a contiguous index range `D = {x_1 … x_n}` with
//!   partitioning for task distribution.
//! * [`Guesser`] — the cheap substitute function `f̌` of the semi-honest
//!   cheating model, with a tunable probability `q` of guessing the correct
//!   result (the `q` of Theorem 3).
//! * [`workloads`] — four laptop-scale stand-ins for the applications the
//!   paper motivates: password search (§3's brute-force example), prime
//!   search (GIMPS), SETI-style chirp detection (SETI@home) and synthetic
//!   drug-docking (IBM smallpox grid). Each is deterministic in
//!   `(seed, x)` so commitments are reproducible.
//!
//! # Examples
//!
//! ```
//! use ugc_task::{ComputeTask, Domain, Screener};
//! use ugc_task::workloads::PasswordSearch;
//!
//! let domain = Domain::new(0, 1 << 10);
//! let task = PasswordSearch::with_hidden_password(42, 777); // password is input 777
//! let screener = task.match_screener();
//! let hits: Vec<u64> = domain
//!     .inputs()
//!     .filter(|&x| screener.screen(x, &task.compute(x)).is_some())
//!     .collect();
//! assert_eq!(hits, vec![777]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compute;
mod domain;
mod guess;
mod rng;
mod screener;
pub mod workloads;

pub use compute::{CountingTask, SharedCounter};
pub use domain::{Domain, DomainError};
pub use guess::{Guesser, LuckyGuesser, ZeroGuesser};
pub use rng::SplitMix64;
pub use screener::{AcceptAllScreener, MatchScreener, ScreenReport, Screener, ThresholdScreener};

/// A value that should have been [`ComputeTask::output_width`] bytes and
/// was not: the typed form of "this leaf would have shifted every later
/// one" when results are written into one flat row.
///
/// `ugc-core` surfaces it as `MerkleError::MixedLeafWidth` with the same
/// three fields, which is what a per-leaf tree build reported before the
/// row existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WidthMismatch {
    /// The width every value must have.
    pub expected: usize,
    /// The width of the offending value.
    pub found: usize,
    /// Which value: its position in the batch, or its leaf index.
    pub index: u64,
}

impl core::fmt::Display for WidthMismatch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "value {} is {} bytes, expected {}",
            self.index, self.found, self.expected
        )
    }
}

impl std::error::Error for WidthMismatch {}

/// The function `f : X → T` evaluated by participants.
///
/// Outputs are encoded to a fixed width so they can serve directly as
/// Merkle-tree leaves (the paper's `Φ(L_i) = f(x_i)`). Implementations must
/// be deterministic: the same `x` always yields the same bytes, otherwise
/// commitments would be unverifiable.
///
/// The supervisor may be able to check a claimed result *cheaper* than
/// recomputing (the paper's factoring example); such tasks override
/// [`verify`](Self::verify) and advertise it via
/// [`cheap_verification`](Self::cheap_verification).
pub trait ComputeTask: Send + Sync {
    /// Short human-readable task name for reports.
    fn name(&self) -> &str;

    /// Width in bytes of every encoded output (the Merkle leaf width).
    fn output_width(&self) -> usize;

    /// Evaluates `f(x)` and encodes it to exactly
    /// [`output_width`](Self::output_width) bytes.
    fn compute(&self, x: u64) -> Vec<u8>;

    /// Evaluates `f` on a batch of independent inputs straight into a
    /// flat row: output `i` lands in
    /// `out[i * width..(i + 1) * width]`, `width` being
    /// [`output_width`](Self::output_width). This is the form the
    /// participant's commitment consumes — the row *is* the Merkle leaf
    /// row, so no per-output `Vec` is ever allocated.
    ///
    /// The default loops over [`compute`](Self::compute) and checks every
    /// output against `width`; hash-bound tasks override it to run
    /// several inputs through a message-parallel digest kernel (e.g.
    /// [`workloads::PasswordSearch`] over MD5 lanes). The bytes must be
    /// identical to per-input `compute` calls — batching is an execution
    /// detail, never a semantic one.
    ///
    /// # Errors
    ///
    /// [`WidthMismatch`] naming the first input (by position in `xs`)
    /// whose output is not `width` bytes; `out` is then partly written.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != xs.len() * width`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ugc_task::ComputeTask;
    /// use ugc_task::workloads::PasswordSearch;
    ///
    /// let task = PasswordSearch::with_hidden_password(7, 2);
    /// let xs = [0u64, 1, 2];
    /// let mut row = vec![0u8; xs.len() * task.output_width()];
    /// task.compute_into(&xs, &mut row)?;
    /// assert_eq!(&row[32..], task.compute(2).as_slice());
    /// assert_eq!(&row[32..], task.target());
    /// # Ok::<(), ugc_task::WidthMismatch>(())
    /// ```
    fn compute_into(&self, xs: &[u64], out: &mut [u8]) -> Result<(), WidthMismatch> {
        let width = self.output_width();
        assert_eq!(out.len(), xs.len() * width, "one output slot per input");
        for (i, &x) in xs.iter().enumerate() {
            let value = self.compute(x);
            if value.len() != width {
                return Err(WidthMismatch {
                    expected: width,
                    found: value.len(),
                    index: i as u64,
                });
            }
            out[i * width..(i + 1) * width].copy_from_slice(&value);
        }
        Ok(())
    }

    /// Evaluates `f` on a batch of independent inputs, returning one
    /// encoded output per input, in order: [`compute_into`] a scratch row
    /// (1024 inputs at a time), split per input. A task that batches
    /// overrides `compute_into` only.
    ///
    /// # Panics
    ///
    /// Panics if the task breaks its own contract and produces an output
    /// that is not [`output_width`](Self::output_width) bytes.
    ///
    /// [`compute_into`]: Self::compute_into
    fn compute_batch(&self, xs: &[u64]) -> Vec<Vec<u8>> {
        // A scratch row of this many outputs stays cache-resident while
        // it is filled and split, however long `xs` is.
        const CHUNK: usize = 1024;
        let width = self.output_width();
        let mut row = vec![0u8; xs.len().min(CHUNK) * width];
        let mut outputs = Vec::with_capacity(xs.len());
        for chunk in xs.chunks(CHUNK) {
            let row = &mut row[..chunk.len() * width];
            self.compute_into(chunk, row)
                .expect("task outputs are output_width bytes");
            outputs.extend((0..chunk.len()).map(|i| row[i * width..(i + 1) * width].to_vec()));
        }
        outputs
    }

    /// Checks whether `claimed` equals `f(x)`.
    ///
    /// The default recomputes `f`; tasks with asymmetric verification
    /// override this.
    fn verify(&self, x: u64, claimed: &[u8]) -> bool {
        claimed == self.compute(x).as_slice()
    }

    /// Whether [`verify`](Self::verify) is substantially cheaper than
    /// [`compute`](Self::compute).
    fn cheap_verification(&self) -> bool {
        false
    }

    /// Abstract cost `C_f` of one evaluation, in arbitrary work units.
    ///
    /// Used by the Eq. (5) economics of the hardened NI-CBS scheme, where
    /// the attack cost `(1/r^m)·m·C_g` is compared against `n·C_f`.
    fn unit_cost(&self) -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;
    impl ComputeTask for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn output_width(&self) -> usize {
            8
        }
        fn compute(&self, x: u64) -> Vec<u8> {
            (x * 2).to_le_bytes().to_vec()
        }
    }

    #[test]
    fn default_verify_recomputes() {
        let t = Doubler;
        assert!(t.verify(21, &42u64.to_le_bytes()));
        assert!(!t.verify(21, &43u64.to_le_bytes()));
    }

    #[test]
    fn default_cost_and_verification_flags() {
        let t = Doubler;
        assert_eq!(t.unit_cost(), 1);
        assert!(!t.cheap_verification());
    }
}
