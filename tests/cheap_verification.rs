//! The paper's asymmetric-verification point (Section 3.1): "There are
//! many computations whose verification is much less expensive than the
//! computations themselves." With the factoring workload, the supervisor
//! verifies samples without a single `f` evaluation.

use uncheatable_grid::core::sampling::draw_samples;
use uncheatable_grid::core::scheme::{cbs::CbsScheme, run_round};
use uncheatable_grid::core::MixedFleetConfig;
use uncheatable_grid::grid::{CheatSelection, HonestWorker, SemiHonestCheater};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::{FactoringSearch, PasswordSearch};
use uncheatable_grid::task::{ComputeTask, Domain, MatchScreener, ZeroGuesser};

fn factoring() -> FactoringSearch {
    // Odd candidates near 10^9: plenty of hard-ish semiprimes.
    FactoringSearch::new(999_999_001, 2)
}

#[test]
fn supervisor_never_evaluates_f_for_cheap_verification_tasks() {
    let task = factoring();
    // Screen for "smallest factor is 3" — arbitrary but deterministic.
    let mut target = 3u64.to_le_bytes().to_vec();
    target.extend_from_slice(&(999_999_001u64.div_ceil(3)).to_le_bytes());
    let screener = MatchScreener::new(target);
    let outcome = run_round::<Sha256>(
        &CbsScheme {
            samples: 16,
            seed: 4,
            report_audit: 0,
        },
        &task,
        &screener,
        Domain::new(0, 128),
        &[&HonestWorker],
        &MixedFleetConfig::default(),
    )
    .unwrap();
    assert!(outcome.accepted);
    // One verification per distinct sample — the 16 draws repeat one —
    // and zero recomputations of the expensive f.
    let mut distinct = draw_samples(4, 16, 128);
    distinct.sort_unstable();
    distinct.dedup();
    let distinct = distinct.len() as u64;
    assert_eq!(distinct, 15);
    assert_eq!(outcome.supervisor_costs.verify_ops, distinct);
    assert_eq!(outcome.supervisor_costs.f_evals, 0);
    // Contrast: the password task (no cheap verifier) pays C_f for each.
    let pw = PasswordSearch::with_hidden_password(1, 2);
    let pw_screener = pw.match_screener();
    let pw_outcome = run_round::<Sha256>(
        &CbsScheme {
            samples: 16,
            seed: 4,
            report_audit: 0,
        },
        &pw,
        &pw_screener,
        Domain::new(0, 128),
        &[&HonestWorker],
        &MixedFleetConfig::default(),
    )
    .unwrap();
    assert_eq!(
        pw_outcome.supervisor_costs.f_evals,
        distinct * pw.unit_cost()
    );
}

#[test]
fn factoring_cheater_is_still_caught() {
    let task = factoring();
    let screener = MatchScreener::new(vec![0u8; 16]); // matches nothing
    let cheater = SemiHonestCheater::new(0.3, CheatSelection::Scattered, ZeroGuesser::new(9), 2);
    let outcome = run_round::<Sha256>(
        &CbsScheme {
            samples: 20,
            seed: 8,
            report_audit: 0,
        },
        &task,
        &screener,
        Domain::new(0, 128),
        &[&cheater],
        &MixedFleetConfig::default(),
    )
    .unwrap();
    assert!(!outcome.accepted);
    // Guessed (p, m) pairs essentially never form a valid factorisation,
    // so the cheap verifier rejects them outright.
}

#[test]
fn forged_but_valid_factorisation_still_fails_the_commitment() {
    // Subtle case: for 1001-style multi-factor candidates a cheater could
    // send a *valid but non-canonical* factorisation after the challenge.
    // verify() accepts it — but the Merkle reconstruction still fails,
    // because the committed leaf differs. Theorem 2 carries the day.
    use uncheatable_grid::merkle::MerkleTree;
    let task = FactoringSearch::new(1001, 0x10001); // mixed candidates
    let honest_leaves: Vec<Vec<u8>> = (0..16u64).map(|x| task.compute(x)).collect();
    let tree: MerkleTree<Sha256> = MerkleTree::build(&honest_leaves).unwrap();
    // x = 0: N = 1001 = 7 × 11 × 13; alternative valid answer (11, 91).
    let mut alternative = 11u64.to_le_bytes().to_vec();
    alternative.extend_from_slice(&91u64.to_le_bytes());
    assert!(task.verify(0, &alternative), "alternative must be valid");
    let proof = tree.prove(0).unwrap();
    // The supervisor checks the *claimed* value against the commitment:
    assert!(!proof.verify(&tree.root(), &alternative));
    assert!(proof.verify(&tree.root(), &honest_leaves[0]));
}
