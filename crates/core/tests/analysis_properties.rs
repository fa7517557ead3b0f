//! Property-based tests for the closed-form analysis module: the formulas
//! must be internally consistent (minimality, monotonicity, identities)
//! over their whole parameter space, not just at the paper's anchors.

use proptest::prelude::*;
use ugc_core::analysis::{
    cbs_traffic_bytes, cheat_success_probability, cheat_success_probability_under_churn,
    detection_probability, eq5_holds, min_g_cost_for_uncheatability, ni_attack_cost,
    ni_expected_attempts, rco, rco_from_levels, required_sample_size,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn eq3_is_minimal_and_sufficient(r in 0.0f64..0.999, q in 0.0f64..0.999,
                                     eps_exp in 1i32..12) {
        let epsilon = 10f64.powi(-eps_exp);
        prop_assume!(r + (1.0 - r) * q < 1.0);
        let m = required_sample_size(epsilon, r, q).unwrap();
        prop_assert!(cheat_success_probability(r, q, m) <= epsilon,
                     "m={m} insufficient");
        if m > 0 {
            prop_assert!(cheat_success_probability(r, q, m - 1) > epsilon,
                         "m={m} not minimal");
        }
    }

    #[test]
    fn eq2_monotone_in_each_argument(r in 0.01f64..0.99, q in 0.0f64..0.99, m in 1u64..60) {
        let base = cheat_success_probability(r, q, m);
        // More samples → lower survival.
        prop_assert!(cheat_success_probability(r, q, m + 1) <= base);
        // More honesty → higher survival.
        prop_assert!(cheat_success_probability((r + 0.01).min(1.0), q, m) >= base);
        // Better guessing → higher survival.
        prop_assert!(cheat_success_probability(r, (q + 0.01).min(1.0), m) >= base);
    }

    #[test]
    fn detection_is_complement(r in 0.0f64..=1.0, q in 0.0f64..=1.0, m in 0u64..100) {
        let sum = cheat_success_probability(r, q, m) + detection_probability(r, q, m);
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rco_forms_agree(m in 1u64..1000, h in 1u32..40, ell_seed in any::<u32>()) {
        let ell = 1 + ell_seed % h;
        let s = 1u64 << (h - ell + 1);
        prop_assert!((rco(m, s) - rco_from_levels(m, h, ell)).abs() < 1e-12);
    }

    #[test]
    fn rco_halves_per_extra_storage_doubling(m in 1u64..1000, s_bits in 2u32..40) {
        let s = 1u64 << s_bits;
        prop_assert!((rco(m, s) - rco(m, 2 * s) * 2.0).abs() < 1e-15);
    }

    #[test]
    fn eq5_threshold_is_tight(r in 0.3f64..0.99, m in 1u64..40, n_bits in 4u32..30) {
        let n = 1u64 << n_bits;
        let c_min = min_g_cost_for_uncheatability(r, m, n, 1);
        // Strictly above the threshold the inequality holds…
        let above = (c_min.ceil() as u64).saturating_add(1);
        prop_assert!(eq5_holds(r, m, above, n, 1));
        // …and well below it fails (guard against degenerate c_min < 2).
        if c_min >= 4.0 {
            prop_assert!(!eq5_holds(r, m, (c_min / 4.0) as u64, n, 1));
        }
    }

    #[test]
    fn attack_cost_scales_linearly_in_cg(r in 0.3f64..0.95, m in 1u64..30, cg in 1u64..1000) {
        let one = ni_attack_cost(r, m, 1);
        let many = ni_attack_cost(r, m, cg);
        prop_assert!((many / one - cg as f64).abs() < 1e-6);
    }

    #[test]
    fn expected_attempts_match_eq2_inverse(r in 0.1f64..1.0, m in 1u64..40) {
        // 1/r^m is exactly the inverse of Eq. (2) at q = 0.
        let attempts = ni_expected_attempts(r, m);
        let survival = cheat_success_probability(r, 0.0, m);
        prop_assert!((attempts * survival - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cbs_traffic_monotone_in_all_dims(m in 1u64..100, h in 2u32..63,
                                        w in 1u64..64, d in 8u64..64) {
        let base = cbs_traffic_bytes(m, h, w, d);
        prop_assert!(cbs_traffic_bytes(m + 1, h, w, d) >= base);
        prop_assert!(cbs_traffic_bytes(m, h + 1, w, d) >= base);
        prop_assert!(cbs_traffic_bytes(m, h, w + 1, d) >= base);
        prop_assert!(cbs_traffic_bytes(m, h, w, d + 1) >= base);
    }
}

#[test]
fn exponents_past_i32_do_not_wrap() {
    // An i32 cast wraps 2^31 to a negative exponent, 2^32 to 0 and
    // u64::MAX to -1.
    let mut last = 1.0;
    for m in [(1u64 << 31) - 1, 1 << 31, 1 << 32, u64::MAX] {
        let p = cheat_success_probability(0.5, 0.5, m);
        assert!((0.0..=last).contains(&p), "m = {m}: {p}");
        assert!((0.0..=1.0).contains(&detection_probability(0.5, 0.5, m)));
        last = p;
    }
    // retries + 1 at u32::MAX is not an exponent of 0: a crash rate below
    // 1 leaves nothing unverified, a crash rate of 1 everything.
    let base = cheat_success_probability(0.5, 0.2, 12);
    assert_eq!(
        cheat_success_probability_under_churn(0.5, 0.2, 12, 0.3, u32::MAX),
        base
    );
    assert_eq!(
        cheat_success_probability_under_churn(0.5, 0.2, 12, 1.0, u32::MAX),
        1.0
    );
    assert!(ni_expected_attempts(0.5, 1 << 32).is_infinite());
    assert_eq!(
        min_g_cost_for_uncheatability(0.5, u64::MAX, 1 << 20, 1),
        0.0
    );
}

#[test]
fn eq3_beyond_i32_samples_is_minimal() {
    // m ≈ 2.3e9: the guard loops must not evaluate a wrapped exponent.
    let (epsilon, r) = (1e-10, 0.99999999);
    let m = required_sample_size(epsilon, r, 0.0).unwrap();
    assert!(m > i32::MAX as u64, "{m}");
    assert!(cheat_success_probability(r, 0.0, m) <= epsilon);
    assert!(cheat_success_probability(r, 0.0, m - 1) > epsilon);
}
