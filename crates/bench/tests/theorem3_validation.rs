//! Quantitative validation of **Theorem 3 / Eq. (2)** and the Fig. 2
//! sample-size law, through the Monte-Carlo harness.

use ugc_bench::{
    estimate_cheat_success_fast, estimate_cheat_success_protocol, DetectionExperiment,
};
use ugc_core::analysis::{cheat_success_probability, required_sample_size};

#[test]
fn fast_simulator_tracks_eq2_over_a_grid() {
    for &(r, q, m) in &[
        (0.3, 0.0, 4usize),
        (0.5, 0.0, 8),
        (0.5, 0.5, 10),
        (0.7, 0.2, 12),
        (0.9, 0.0, 25),
    ] {
        let est = estimate_cheat_success_fast(&DetectionExperiment {
            domain_size: 0,
            samples: m,
            honesty_ratio: r,
            guess_quality: q,
            trials: 30_000,
            seed: 1234,
        });
        let theory = cheat_success_probability(r, q, m as u64);
        assert!(
            est.contains(theory),
            "r={r} q={q} m={m}: [{:.4},{:.4}] excludes {theory:.4}",
            est.ci_low,
            est.ci_high
        );
    }
}

#[test]
fn full_protocol_tracks_eq2() {
    // 250 complete CBS rounds (tree, commitment, proofs, verification).
    let est = estimate_cheat_success_protocol(&DetectionExperiment {
        domain_size: 64,
        samples: 2,
        honesty_ratio: 0.5,
        guess_quality: 0.0,
        trials: 250,
        seed: 777,
    });
    let theory = cheat_success_probability(0.5, 0.0, 2);
    assert!(
        est.contains(theory),
        "protocol [{:.3},{:.3}] excludes {theory:.3}",
        est.ci_low,
        est.ci_high
    );
}

#[test]
fn fig2_sample_sizes_suppress_cheating_to_epsilon() {
    // At the Fig. 2 operating points, the simulated survival rate must be
    // ≤ ε (up to Monte-Carlo noise: with 200k trials and ε = 1e-4 we
    // expect ~20 survivors; accept ≤ 60).
    for &(r, q) in &[(0.5, 0.0), (0.5, 0.5), (0.8, 0.0)] {
        let m = required_sample_size(1e-4, r, q).unwrap();
        let est = estimate_cheat_success_fast(&DetectionExperiment {
            domain_size: 0,
            samples: m as usize,
            honesty_ratio: r,
            guess_quality: q,
            trials: 200_000,
            seed: 9,
        });
        assert!(
            est.successes <= 60,
            "r={r} q={q} m={m}: {} survivors in 200k trials",
            est.successes
        );
    }
}

#[test]
fn detection_improves_monotonically_with_samples() {
    let rate_at = |m: usize| {
        estimate_cheat_success_fast(&DetectionExperiment {
            domain_size: 0,
            samples: m,
            honesty_ratio: 0.8,
            guess_quality: 0.0,
            trials: 50_000,
            seed: 5,
        })
        .rate
    };
    let r1 = rate_at(1);
    let r5 = rate_at(5);
    let r20 = rate_at(20);
    assert!(r1 > r5 && r5 > r20, "{r1} {r5} {r20}");
}
