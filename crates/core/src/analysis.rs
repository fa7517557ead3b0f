//! Every closed form in the paper's analysis, as checked functions.
//!
//! These are the formulas the Monte-Carlo experiments validate and the
//! figure-regeneration binaries plot:
//!
//! * Eq. (2): [`cheat_success_probability`] — Theorem 3; extended to
//!   unreliable grids by [`cheat_success_probability_under_churn`].
//! * Eq. (3): [`required_sample_size`] — the Fig. 2 curves.
//! * Section 3.3: [`rco`], [`rco_from_levels`] — the storage trade-off.
//! * Section 4.2: [`ni_expected_attempts`], [`ni_attack_cost`],
//!   [`min_g_cost_for_uncheatability`] — the Eq. (5) economics.
//! * Communication closed forms: [`cbs_traffic_bytes`] (an upper bound:
//!   one opening per round sends what `m` paths share once),
//!   [`naive_traffic_bytes`] — the `O(m log n)` vs `O(n)` comparison,
//!   extrapolatable to the paper's `n = 2⁶⁴` "16 million terabytes"
//!   example.

/// `base^e` for any sample count: `powi` (what every printed figure was
/// computed with) while the exponent fits an `i32`, `powf` beyond, where
/// a cast would wrap the exponent.
fn pow(base: f64, e: u64) -> f64 {
    match i32::try_from(e) {
        Ok(e) => base.powi(e),
        Err(_) => base.powf(e as f64),
    }
}

/// Eq. (2): the probability that a participant with honesty ratio `r` and
/// guess quality `q` survives `m` uniform samples:
/// `Pr = (r + (1 − r)·q)^m`.
///
/// # Panics
///
/// Panics unless `r` and `q` are probabilities.
///
/// # Examples
///
/// ```
/// use ugc_core::analysis::cheat_success_probability;
///
/// // Half-honest, no guessing luck, 14 samples — just under 1e-4:
/// let p = cheat_success_probability(0.5, 0.0, 14);
/// assert!(p < 1e-4 && p > 1e-5);
/// // Full honesty always survives:
/// assert_eq!(cheat_success_probability(1.0, 0.0, 50), 1.0);
/// ```
#[must_use]
pub fn cheat_success_probability(r: f64, q: f64, m: u64) -> f64 {
    assert!((0.0..=1.0).contains(&r), "r must be a probability");
    assert!((0.0..=1.0).contains(&q), "q must be a probability");
    pow(r + (1.0 - r) * q, m)
}

/// Probability that the supervisor catches the cheater: `1 −` Eq. (2).
#[must_use]
pub fn detection_probability(r: f64, q: f64, m: u64) -> f64 {
    1.0 - cheat_success_probability(r, q, m)
}

/// Eq. (2) under churn: the probability a cheater escapes detection when
/// each verification attempt independently crashes (participant churn,
/// message loss) with probability `c` before completing, and a crashed
/// attempt is reassigned up to `retries` times.
///
/// A cheater escapes if every attempt crashed (its work was never
/// verified — the conservative reading) or the first completed attempt
/// survived the sampling:
/// `Pr = c^(retries+1) + (1 − c^(retries+1)) · (r + (1 − r)q)^m`.
///
/// With `c = 0` this reduces to Eq. (2); as `retries → ∞` it converges
/// back to Eq. (2) for any `c < 1` — churn costs wall-clock and cycles
/// but, given enough reassignments, no detection power. This is the
/// closed form the chaos soak validates empirically.
///
/// # Panics
///
/// Panics unless `r`, `q` and `crash` are probabilities.
///
/// # Examples
///
/// ```
/// use ugc_core::analysis::{cheat_success_probability, cheat_success_probability_under_churn};
///
/// let base = cheat_success_probability(0.5, 0.0, 10);
/// // No churn: identical to Eq. (2).
/// assert_eq!(cheat_success_probability_under_churn(0.5, 0.0, 10, 0.0, 0), base);
/// // Heavy churn with no retries leaves most cheats unverified…
/// assert!(cheat_success_probability_under_churn(0.5, 0.0, 10, 0.9, 0) > 0.9);
/// // …but a few reassignments claw detection back.
/// assert!(cheat_success_probability_under_churn(0.5, 0.0, 10, 0.9, 20) < 0.2);
/// ```
#[must_use]
pub fn cheat_success_probability_under_churn(
    r: f64,
    q: f64,
    m: u64,
    crash: f64,
    retries: u32,
) -> f64 {
    assert!((0.0..=1.0).contains(&crash), "crash must be a probability");
    let never_verified = pow(crash, u64::from(retries) + 1);
    never_verified + (1.0 - never_verified) * cheat_success_probability(r, q, m)
}

/// Eq. (3): the smallest sample count `m` with
/// `(r + (1 − r)q)^m ≤ ε`, i.e. `m ≥ log ε / log(r + (1 − r)q)`.
///
/// Returns `None` when no finite `m` works (`r + (1 − r)q = 1`, e.g. a
/// fully honest participant, or `ε ≥ 1` making `m = 0` sufficient —
/// `Some(0)` is returned for the latter).
///
/// # Panics
///
/// Panics unless `r`, `q` are probabilities and `0 < ε`.
///
/// # Examples
///
/// The two Fig. 2 anchor points quoted in the paper's text:
///
/// ```
/// use ugc_core::analysis::required_sample_size;
///
/// // r = 0.5, q = 0.5, ε = 1e-4 → 33 samples.
/// assert_eq!(required_sample_size(1e-4, 0.5, 0.5), Some(33));
/// // r = 0.5, q ≈ 0 → 14 samples.
/// assert_eq!(required_sample_size(1e-4, 0.5, 0.0), Some(14));
/// ```
#[must_use]
pub fn required_sample_size(epsilon: f64, r: f64, q: f64) -> Option<u64> {
    assert!((0.0..=1.0).contains(&r), "r must be a probability");
    assert!((0.0..=1.0).contains(&q), "q must be a probability");
    assert!(epsilon > 0.0 && epsilon.is_finite(), "ε must be positive");
    if epsilon >= 1.0 {
        return Some(0);
    }
    let base = r + (1.0 - r) * q;
    if base >= 1.0 {
        return None;
    }
    if base <= 0.0 {
        return Some(1);
    }
    // m = ⌈log ε / log base⌉, with a guard for floating-point edge cases.
    let mut m = (epsilon.ln() / base.ln()).ceil() as u64;
    while m > 0 && pow(base, m - 1) <= epsilon {
        m -= 1;
    }
    while pow(base, m) > epsilon {
        m += 1;
    }
    Some(m)
}

/// Section 3.3: relative computation overhead `rco = 2m/S`, where `S` is
/// the paper's storage figure `2^(H−ℓ+1)` in tree nodes.
///
/// # Panics
///
/// Panics if `storage_units == 0`.
///
/// # Examples
///
/// The paper's anchor: `m = 64` samples with 4G (`2³²`) storage units give
/// `rco = 2⁻²⁵`:
///
/// ```
/// use ugc_core::analysis::rco;
///
/// assert_eq!(rco(64, 1u64 << 32), 2f64.powi(-25));
/// ```
#[must_use]
pub fn rco(m: u64, storage_units: u64) -> f64 {
    assert!(storage_units > 0, "storage must be positive");
    2.0 * m as f64 / storage_units as f64
}

/// Section 3.3 in height form: `rco = m·2^ℓ / 2^H`.
///
/// # Panics
///
/// Panics unless `ell ≤ height < 64`.
#[must_use]
pub fn rco_from_levels(m: u64, height: u32, ell: u32) -> f64 {
    assert!(ell <= height, "subtree height exceeds tree height");
    assert!(height < 64, "height out of range");
    m as f64 * 2f64.powi(ell as i32) / 2f64.powi(height as i32)
}

/// Section 4.2: expected retry-attack attempts `1 / r^m` until all `m`
/// self-derived samples land in the honest subset.
///
/// # Panics
///
/// Panics unless `0 < r ≤ 1`.
#[must_use]
pub fn ni_expected_attempts(r: f64, m: u64) -> f64 {
    assert!(r > 0.0 && r <= 1.0, "r must be in (0,1]");
    pow(r, m).recip()
}

/// Section 4.2: expected attack cost `(1/r^m)·m·C_g`, in unit hashes, as
/// the paper accounts it (all `m` chain elements per attempt).
#[must_use]
pub fn ni_attack_cost(r: f64, m: u64, c_g: u64) -> f64 {
    ni_expected_attempts(r, m) * m as f64 * c_g as f64
}

/// Eq. (5) solved for `C_g`: the minimum per-evaluation cost of `g` such
/// that cheating is uneconomical, `C_g ≥ n·C_f·r^m / m`.
///
/// # Panics
///
/// Panics unless `0 < r ≤ 1` and `m > 0`.
///
/// # Examples
///
/// ```
/// use ugc_core::analysis::min_g_cost_for_uncheatability;
///
/// // n = 2^20 unit-cost evaluations, r = 0.9, m = 50:
/// let c_g = min_g_cost_for_uncheatability(0.9, 50, 1 << 20, 1);
/// // 0.9^50 ≈ 5.15e-3, so C_g ≈ 2^20 × 5.15e-3 / 50 ≈ 108.
/// assert!((100.0..120.0).contains(&c_g));
/// ```
#[must_use]
pub fn min_g_cost_for_uncheatability(r: f64, m: u64, n: u64, c_f: u64) -> f64 {
    assert!(r > 0.0 && r <= 1.0, "r must be in (0,1]");
    assert!(m > 0, "m must be positive");
    n as f64 * c_f as f64 * pow(r, m) / m as f64
}

/// Whether Eq. (5) holds: `(1/r^m)·m·C_g ≥ n·C_f`.
#[must_use]
pub fn eq5_holds(r: f64, m: u64, c_g: u64, n: u64, c_f: u64) -> bool {
    ni_attack_cost(r, m, c_g) >= n as f64 * c_f as f64
}

/// Closed-form participant→supervisor payload for the naive schemes:
/// `n × leaf_width` result bytes.
#[must_use]
pub fn naive_traffic_bytes(n: u64, leaf_width: u64) -> u64 {
    n.saturating_mul(leaf_width)
}

/// Closed-form participant→supervisor payload for CBS as the paper counts
/// it: the commitment plus `m` proofs of `f(x)`, the sibling leaf, and
/// `H − 1` digests each — `D + m·(2w + (H − 1)·D)`.
///
/// This is an **upper bound** on what a round sends. The `m` samples
/// travel as one opening (`ugc_grid::Opening`) that carries a repeated
/// sample once, every sibling two paths share once, and no sibling that
/// is itself a sampled leaf or a node the supervisor rebuilds; the bound
/// is met exactly by a single sample, and by `m` distinct ones only if
/// no two paths meet below the root's children. The same holds for the
/// paper's `m·H` verification hashes and `m` evaluations against what
/// the supervisor's ledger counts
/// (`scheme::cbs::tests::the_papers_closed_forms_bound_every_round`).
///
/// `height` is `⌈log₂ n⌉` (via [`ugc_merkle::tree_height`]).
#[must_use]
pub fn cbs_traffic_bytes(m: u64, height: u32, leaf_width: u64, digest_len: u64) -> u64 {
    let per_proof = 2 * leaf_width + u64::from(height.saturating_sub(1)) * digest_len;
    digest_len + m.saturating_mul(per_proof)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq2_monotone_in_m() {
        let p10 = cheat_success_probability(0.7, 0.1, 10);
        let p20 = cheat_success_probability(0.7, 0.1, 20);
        assert!(p20 < p10);
    }

    #[test]
    fn eq2_extremes() {
        assert_eq!(cheat_success_probability(1.0, 0.0, 100), 1.0);
        assert_eq!(cheat_success_probability(0.0, 1.0, 100), 1.0);
        assert_eq!(cheat_success_probability(0.0, 0.0, 1), 0.0);
        assert_eq!(cheat_success_probability(0.5, 0.0, 1), 0.5);
    }

    #[test]
    fn eq2_zero_samples_always_survive() {
        assert_eq!(cheat_success_probability(0.1, 0.0, 0), 1.0);
    }

    #[test]
    fn detection_complements_eq2() {
        for &(r, q, m) in &[(0.5, 0.0, 10u64), (0.9, 0.5, 33), (0.2, 0.1, 5)] {
            let sum = cheat_success_probability(r, q, m) + detection_probability(r, q, m);
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn eq3_paper_anchor_points() {
        // The two numbers quoted in Section 3.2 of the paper.
        assert_eq!(required_sample_size(1e-4, 0.5, 0.5), Some(33));
        assert_eq!(required_sample_size(1e-4, 0.5, 0.0), Some(14));
    }

    #[test]
    fn eq3_result_is_minimal() {
        for &(r, q) in &[(0.1, 0.0), (0.5, 0.5), (0.9, 0.0), (0.8, 0.3)] {
            let m = required_sample_size(1e-4, r, q).unwrap();
            assert!(cheat_success_probability(r, q, m) <= 1e-4);
            if m > 0 {
                assert!(cheat_success_probability(r, q, m - 1) > 1e-4);
            }
        }
    }

    #[test]
    fn eq3_grows_with_honesty_ratio() {
        // A nearly-honest cheater is harder to catch (Fig. 2 shape).
        let low = required_sample_size(1e-4, 0.1, 0.0).unwrap();
        let high = required_sample_size(1e-4, 0.9, 0.0).unwrap();
        assert!(high > low);
        // And q = 0.5 needs more samples than q = 0 everywhere.
        for r10 in 1..10u32 {
            let r = f64::from(r10) / 10.0;
            assert!(
                required_sample_size(1e-4, r, 0.5).unwrap()
                    >= required_sample_size(1e-4, r, 0.0).unwrap()
            );
        }
    }

    #[test]
    fn eq3_honest_unreachable() {
        assert_eq!(required_sample_size(1e-4, 1.0, 0.0), None);
        assert_eq!(required_sample_size(1e-4, 0.5, 1.0), None);
    }

    #[test]
    fn eq3_trivial_epsilon() {
        assert_eq!(required_sample_size(1.0, 0.5, 0.0), Some(0));
    }

    #[test]
    fn eq3_zero_base() {
        assert_eq!(required_sample_size(1e-4, 0.0, 0.0), Some(1));
    }

    #[test]
    fn rco_paper_anchor() {
        assert_eq!(rco(64, 1u64 << 32), 2f64.powi(-25));
    }

    #[test]
    fn rco_level_form_agrees() {
        // S = 2^(H−ℓ+1) makes the two forms identical.
        for &(m, h, ell) in &[(16u64, 20u32, 5u32), (64, 12, 3), (50, 30, 10)] {
            let s = 1u64 << (h - ell + 1);
            assert!((rco(m, s) - rco_from_levels(m, h, ell)).abs() < 1e-15);
        }
    }

    #[test]
    fn rco_independent_of_domain_size() {
        // "regardless of how large a task is" — rco depends only on m and S.
        assert_eq!(rco(64, 1 << 20), rco(64, 1 << 20));
        assert!((rco_from_levels(64, 40, 21) - rco(64, 1 << 20)).abs() < 1e-18);
        assert!((rco_from_levels(64, 30, 11) - rco(64, 1 << 20)).abs() < 1e-18);
    }

    #[test]
    fn ni_attempts_grow_exponentially() {
        assert_eq!(ni_expected_attempts(0.5, 10), 1024.0);
        assert_eq!(ni_expected_attempts(1.0, 10), 1.0);
        assert!(ni_expected_attempts(0.5, 20) > ni_expected_attempts(0.5, 10));
    }

    #[test]
    fn eq5_crossover() {
        let (r, m, n, c_f) = (0.5, 10, 1u64 << 20, 1);
        let threshold = min_g_cost_for_uncheatability(r, m, n, c_f);
        // Just above the threshold Eq. (5) holds; just below it fails.
        assert!(eq5_holds(r, m, threshold.ceil() as u64 + 1, n, c_f));
        assert!(!eq5_holds(r, m, (threshold / 2.0) as u64, n, c_f));
    }

    #[test]
    fn traffic_closed_forms() {
        // Paper's motivating example: a 2^64 domain with 16-byte results
        // needs ~16 million terabytes for the naive upload…
        let naive = naive_traffic_bytes(u64::MAX, 16);
        // Saturates: more bytes than u64 can count…
        assert_eq!(naive, u64::MAX);
        // …while CBS with m = 50 stays in the tens of kilobytes.
        let cbs = cbs_traffic_bytes(50, 64, 16, 16);
        assert!(cbs < 100_000, "CBS traffic {cbs} bytes");
    }

    #[test]
    fn cbs_traffic_is_logarithmic() {
        let small = cbs_traffic_bytes(50, 10, 8, 32);
        let big = cbs_traffic_bytes(50, 40, 8, 32);
        // 4× the height (n from 2^10 to 2^40) must cost ≈4×, not 2^30×.
        assert!(big < 5 * small);
    }

    #[test]
    #[should_panic(expected = "r must be a probability")]
    fn eq2_rejects_bad_r() {
        let _ = cheat_success_probability(1.5, 0.0, 1);
    }

    #[test]
    fn churn_closed_form_limits() {
        let base = cheat_success_probability(0.5, 0.2, 12);
        // c = 0 is Eq. (2) exactly, at any retry budget.
        assert_eq!(
            cheat_success_probability_under_churn(0.5, 0.2, 12, 0.0, 0),
            base
        );
        assert_eq!(
            cheat_success_probability_under_churn(0.5, 0.2, 12, 0.0, 9),
            base
        );
        // c = 1 with finite retries: nothing ever gets verified.
        assert_eq!(
            cheat_success_probability_under_churn(0.5, 0.2, 12, 1.0, 3),
            1.0
        );
        // Monotone: more retries ⇒ less escape probability.
        let p0 = cheat_success_probability_under_churn(0.5, 0.2, 12, 0.3, 0);
        let p3 = cheat_success_probability_under_churn(0.5, 0.2, 12, 0.3, 3);
        let p9 = cheat_success_probability_under_churn(0.5, 0.2, 12, 0.3, 9);
        assert!(p0 > p3 && p3 > p9 && p9 >= base);
        // Convergence back to Eq. (2): churn costs cycles, not detection.
        assert!(
            (cheat_success_probability_under_churn(0.5, 0.2, 12, 0.3, 60) - base).abs() < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "crash must be a probability")]
    fn churn_rejects_bad_crash_rate() {
        let _ = cheat_success_probability_under_churn(0.5, 0.0, 1, 1.5, 0);
    }

    #[test]
    #[should_panic(expected = "storage must be positive")]
    fn rco_rejects_zero_storage() {
        let _ = rco(1, 0);
    }
}
