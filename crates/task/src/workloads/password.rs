//! Brute-force password search: the paper's Section 3 running example.
//!
//! The supervisor knows a password digest and farms the key space out to
//! participants; `f(x) = MD5^w(salt ‖ x)` and the screener reports any `x`
//! whose digest matches the target. Because `f` is one-way this workload is
//! also compatible with the Golle–Mironov ringer scheme, making it the
//! baseline-comparison workload.

use crate::{ComputeTask, MatchScreener, WidthMismatch};
use ugc_hash::{digest_iterated_batch, HashFunction, LaneWidth, Md5};

/// Keyed password-hash search over a `u64` key space.
///
/// The `work_factor` iterates MD5 to scale the per-evaluation cost `C_f` —
/// the knob the Eq. (5) economics experiments sweep.
///
/// # Examples
///
/// ```
/// use ugc_task::ComputeTask;
/// use ugc_task::workloads::PasswordSearch;
///
/// let task = PasswordSearch::with_hidden_password(7, 1234);
/// assert_eq!(task.output_width(), 16);
/// // Only the hidden password hashes to the target:
/// assert_eq!(task.compute(1234), task.target().to_vec());
/// assert_ne!(task.compute(1233), task.target().to_vec());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PasswordSearch {
    salt: u64,
    target: [u8; 16],
    work_factor: u32,
}

impl PasswordSearch {
    /// Creates a search whose hidden password is the input `password`.
    ///
    /// The salt is derived from `seed`; `work_factor` defaults to 1.
    #[must_use]
    pub fn with_hidden_password(seed: u64, password: u64) -> Self {
        Self::with_work_factor(seed, password, 1)
    }

    /// Like [`with_hidden_password`](Self::with_hidden_password) with an
    /// explicit MD5 iteration count (`C_f` scale).
    ///
    /// # Panics
    ///
    /// Panics if `work_factor == 0`.
    #[must_use]
    pub fn with_work_factor(seed: u64, password: u64, work_factor: u32) -> Self {
        assert!(work_factor > 0, "work factor must be positive");
        let mut task = PasswordSearch {
            salt: seed,
            target: [0u8; 16],
            work_factor,
        };
        task.target = Self::digest(task.salt, password, work_factor);
        task
    }

    fn digest(salt: u64, x: u64, work_factor: u32) -> [u8; 16] {
        let mut material = [0u8; 16];
        material[..8].copy_from_slice(&salt.to_le_bytes());
        material[8..].copy_from_slice(&x.to_le_bytes());
        let mut digest = Md5::digest(&material);
        for _ in 1..work_factor {
            digest = Md5::digest(&digest);
        }
        digest
    }

    /// The digest being searched for.
    #[must_use]
    pub fn target(&self) -> &[u8; 16] {
        &self.target
    }

    /// Screener that reports inputs hashing to the target.
    #[must_use]
    pub fn match_screener(&self) -> MatchScreener {
        MatchScreener::new(self.target.to_vec())
    }
}

impl ComputeTask for PasswordSearch {
    fn name(&self) -> &str {
        "password-search"
    }

    fn output_width(&self) -> usize {
        16
    }

    fn compute(&self, x: u64) -> Vec<u8> {
        Self::digest(self.salt, x, self.work_factor).to_vec()
    }

    /// Batch evaluation through the MD5 message-parallel lane kernels:
    /// each candidate's `salt ‖ x` material hashes in a lane of the
    /// transposed compression state, and the `MD5^w` re-hash chain steps
    /// all lanes together. Byte-identical to per-input [`compute`]
    /// (`f(x) = H^w(salt ‖ x)` either way).
    ///
    /// [`compute`]: Self::compute
    fn compute_into(&self, xs: &[u64], out: &mut [u8]) -> Result<(), WidthMismatch> {
        assert_eq!(out.len(), xs.len() * 16, "one output slot per input");
        let materials: Vec<[u8; 16]> = xs
            .iter()
            .map(|&x| {
                let mut material = [0u8; 16];
                material[..8].copy_from_slice(&self.salt.to_le_bytes());
                material[8..].copy_from_slice(&x.to_le_bytes());
                material
            })
            .collect();
        let seeds: Vec<&[u8]> = materials.iter().map(|m| m.as_slice()).collect();
        let digests =
            digest_iterated_batch::<Md5>(&seeds, u64::from(self.work_factor), LaneWidth::default());
        for (slot, digest) in out.chunks_exact_mut(16).zip(&digests) {
            slot.copy_from_slice(digest);
        }
        Ok(())
    }

    /// Compares `claimed` with the digest on the stack: the supervisor
    /// verifies one sample at a time, so this allocates nothing.
    fn verify(&self, x: u64, claimed: &[u8]) -> bool {
        claimed == Self::digest(self.salt, x, self.work_factor).as_slice()
    }

    fn unit_cost(&self) -> u64 {
        u64::from(self.work_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Screener;

    #[test]
    fn hidden_password_is_found_by_screener() {
        let task = PasswordSearch::with_hidden_password(99, 500);
        let screener = task.match_screener();
        let hits: Vec<u64> = (0..1000u64)
            .filter(|&x| screener.screen(x, &task.compute(x)).is_some())
            .collect();
        assert_eq!(hits, vec![500]);
    }

    #[test]
    fn deterministic() {
        let a = PasswordSearch::with_hidden_password(1, 2);
        let b = PasswordSearch::with_hidden_password(1, 2);
        assert_eq!(a.compute(77), b.compute(77));
        assert_eq!(a.target(), b.target());
    }

    #[test]
    fn different_salts_differ() {
        let a = PasswordSearch::with_hidden_password(1, 2);
        let b = PasswordSearch::with_hidden_password(3, 2);
        assert_ne!(a.compute(77), b.compute(77));
    }

    #[test]
    fn work_factor_changes_digest_and_cost() {
        let w1 = PasswordSearch::with_work_factor(5, 0, 1);
        let w3 = PasswordSearch::with_work_factor(5, 0, 3);
        assert_ne!(w1.compute(9), w3.compute(9));
        assert_eq!(w1.unit_cost(), 1);
        assert_eq!(w3.unit_cost(), 3);
    }

    #[test]
    fn work_factor_iterates_md5() {
        let w2 = PasswordSearch::with_work_factor(5, 0, 2);
        let once = PasswordSearch::with_work_factor(5, 0, 1).compute(9);
        assert_eq!(w2.compute(9), Md5::digest(&once).to_vec());
    }

    #[test]
    #[should_panic(expected = "work factor must be positive")]
    fn zero_work_factor_rejected() {
        let _ = PasswordSearch::with_work_factor(1, 1, 0);
    }

    #[test]
    fn output_width_matches_md5() {
        let task = PasswordSearch::with_hidden_password(1, 1);
        assert_eq!(task.compute(0).len(), task.output_width());
    }

    #[test]
    fn compute_batch_matches_compute() {
        for work_factor in [1u32, 2, 5] {
            let task = PasswordSearch::with_work_factor(11, 3, work_factor);
            for n in [0usize, 1, 3, 4, 7, 8, 9, 17] {
                let xs: Vec<u64> = (0..n as u64).map(|x| x.wrapping_mul(0x1234_5677)).collect();
                let batched = task.compute_batch(&xs);
                let scalar: Vec<Vec<u8>> = xs.iter().map(|&x| task.compute(x)).collect();
                assert_eq!(batched, scalar, "w={work_factor} n={n}");
            }
        }
    }

    #[test]
    fn default_verify_works() {
        let task = PasswordSearch::with_hidden_password(1, 1);
        let fx = task.compute(10);
        assert!(task.verify(10, &fx));
        assert!(!task.verify(11, &fx));
        // A miss: one flipped bit, or a claim of the wrong width.
        let mut flipped = fx.clone();
        flipped[15] ^= 1;
        assert!(!task.verify(10, &flipped));
        assert!(!task.verify(10, &fx[..15]));
        assert!(!task.verify(10, &[]));
    }
}
