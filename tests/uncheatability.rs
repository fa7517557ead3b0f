//! **Theorems 2 and 3 (Uncheatability)** end to end: commitment binding,
//! post-challenge recomputation, and the quantitative detection law.

use proptest::prelude::*;
use uncheatable_grid::core::analysis::cheat_success_probability;
use uncheatable_grid::core::scheme::{cbs::CbsScheme, run_round};
use uncheatable_grid::core::session::{drive_participant, drive_supervisor};
use uncheatable_grid::core::{
    LaneWidth, MixedFleetConfig, Parallelism, ParticipantContext, ParticipantStorage,
    SupervisorContext, Verdict, VerificationScheme,
};
use uncheatable_grid::grid::{
    duplex, CheatSelection, CostLedger, Endpoint, GridLink, HonestWorker, Message, Opening,
    SemiHonestCheater,
};
use uncheatable_grid::hash::{HashFunction, Sha256};
use uncheatable_grid::merkle::MerkleTree;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{ComputeTask, Domain, LuckyGuesser, ZeroGuesser};

/// The supervisor half of one CBS round over `endpoint`, whatever is on
/// the other end; returns its verdict.
fn supervise(
    endpoint: &Endpoint,
    task: &PasswordSearch,
    domain: Domain,
    task_id: u64,
    scheme: CbsScheme,
) -> Verdict {
    let screener = task.match_screener();
    let mut session = VerificationScheme::<Sha256>::supervisor_session(
        &scheme,
        SupervisorContext {
            task,
            screener: &screener,
            domain,
            task_ids: vec![task_id],
            ledger: CostLedger::new(),
        },
    );
    drive_supervisor(&[endpoint], session.as_mut())
        .unwrap()
        .verdict
}

/// A cheater with r = 0 and q = 0 must be caught by any sample.
#[test]
fn fully_lazy_cheater_always_caught() {
    let task = PasswordSearch::with_hidden_password(1, 2);
    let screener = task.match_screener();
    for seed in 0..10u64 {
        let cheater =
            SemiHonestCheater::new(0.0, CheatSelection::Prefix, ZeroGuesser::new(seed), seed);
        let outcome = run_round::<Sha256>(
            &CbsScheme {
                samples: 1,
                seed,
                report_audit: 0,
            },
            &task,
            &screener,
            Domain::new(0, 64),
            &[&cheater],
            &MixedFleetConfig::default(),
        )
        .unwrap();
        assert!(!outcome.accepted, "seed {seed}");
    }
}

/// Theorem 2's exact scenario: the participant recomputes the *correct*
/// `f(x)` after learning the sample, but its commitment holds garbage —
/// the reconstruction must expose it.
#[test]
fn post_challenge_recomputation_detected() {
    let task = PasswordSearch::with_hidden_password(7, 3);
    let domain = Domain::new(0, 32);
    let (sup_ep, part_ep) = duplex();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // The adaptive cheater: commit garbage, answer with true f(x).
            let Message::Assign(a) = part_ep.recv().unwrap() else {
                panic!("expected Assign");
            };
            let garbage: Vec<Vec<u8>> = (0..32u64).map(|x| vec![x as u8; 16]).collect();
            let tree: MerkleTree<Sha256> = MerkleTree::build(&garbage).unwrap();
            part_ep
                .send(&Message::Commit {
                    task_id: a.task_id,
                    root: tree.root().to_vec(),
                })
                .unwrap();
            let Message::Challenge { samples, .. } = part_ep.recv().unwrap() else {
                panic!("expected Challenge");
            };
            // Answer with the *true* results (computed now, after the
            // challenge) over the garbage tree's siblings.
            let garbage_opening = tree.open(&samples).unwrap();
            let distinct: std::collections::BTreeSet<u64> = samples.iter().copied().collect();
            let proofs = Opening {
                leaf_width: 16,
                leaf_values: distinct.iter().flat_map(|&i| task.compute(i)).collect(), // correct f(x)!
                leaf_siblings: garbage_opening.leaf_siblings,
                digest_siblings: garbage_opening.digest_siblings,
            };
            part_ep
                .send(&Message::Proofs {
                    task_id: a.task_id,
                    proofs: Box::new(proofs),
                })
                .unwrap();
            part_ep
                .send(&Message::Reports {
                    task_id: a.task_id,
                    reports: vec![],
                })
                .unwrap();
            let _ = part_ep.recv();
        });
        let verdict = supervise(
            &sup_ep,
            &task,
            domain,
            1,
            CbsScheme {
                samples: 5,
                seed: 2,
                report_audit: 0,
            },
        );
        // Correct f(x) but Φ(R′) ≠ Φ(R): caught by the commitment check.
        assert!(matches!(verdict, Verdict::CommitmentMismatch { .. }));
    });
}

/// A man-in-the-middle who swaps the commitment after the fact breaks the
/// exchange: the honest participant's proofs no longer verify.
#[test]
fn commitment_is_binding_across_the_wire() {
    let task = PasswordSearch::with_hidden_password(5, 6);
    let domain = Domain::new(0, 16);
    let (sup_ep, mitm_sup) = duplex();
    let (mitm_part, part_ep) = duplex();
    let scheme = CbsScheme {
        samples: 3,
        seed: 4,
        report_audit: 0,
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let screener = task.match_screener();
            let mut session = VerificationScheme::<Sha256>::participant_session(
                &scheme,
                ParticipantContext {
                    task: &task,
                    screener: &screener,
                    behaviour: &HonestWorker,
                    storage: ParticipantStorage::Full,
                    parallelism: Parallelism::default(),
                    lanes: LaneWidth::default(),
                    ledger: CostLedger::new(),
                },
            );
            let _ = drive_participant(&part_ep, session.as_mut());
        });
        // The MITM relays everything except the commitment, which it
        // replaces with its own digest.
        scope.spawn(|| {
            let assign = mitm_sup.recv().unwrap();
            mitm_part.send(&assign).unwrap();
            let Message::Commit { task_id, .. } = mitm_part.recv().unwrap() else {
                panic!("expected Commit");
            };
            mitm_sup
                .send(&Message::Commit {
                    task_id,
                    root: Sha256::digest(b"swapped").to_vec(),
                })
                .unwrap();
            let challenge = mitm_sup.recv().unwrap();
            mitm_part.send(&challenge).unwrap();
            let proofs = mitm_part.recv().unwrap();
            mitm_sup.send(&proofs).unwrap();
            let reports = mitm_part.recv().unwrap();
            mitm_sup.send(&reports).unwrap();
            let verdict = mitm_sup.recv().unwrap();
            mitm_part.send(&verdict).unwrap();
        });
        let verdict = supervise(&sup_ep, &task, domain, 9, scheme);
        assert!(matches!(verdict, Verdict::CommitmentMismatch { .. }));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any prefix cheater with r < 1 is caught once a sample lands in the
    /// guessed region — and with m = 48, q = 0, survival needs all 48
    /// samples in D′ (probability r^48 < 0.4^48 ≈ 1e-19 for r ≤ 0.4).
    #[test]
    fn low_ratio_cheaters_never_survive_48_samples(
        r in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        let task = PasswordSearch::with_hidden_password(seed, 1);
        let screener = task.match_screener();
        let cheater = SemiHonestCheater::new(
            r,
            CheatSelection::Scattered,
            ZeroGuesser::new(seed),
            seed,
        );
        let outcome = run_round::<Sha256>(
            &CbsScheme { samples: 48, seed, report_audit: 0 },
            &task,
            &screener,
            Domain::new(0, 128),
            &[&cheater],
            &MixedFleetConfig::default(),
        ).unwrap();
        prop_assert!(!outcome.accepted);
    }
}

/// Theorem 3's two-sided nature: a *lucky-guess* cheater (q = 1) survives
/// every sample even though it computed nothing — the formula says
/// `(r + (1-r)·1)^m = 1` and the protocol agrees.
#[test]
fn perfect_guessers_survive_as_theorem3_predicts() {
    let task = PasswordSearch::with_hidden_password(3, 4);
    let screener = task.match_screener();
    let guesser = LuckyGuesser::new(task.clone(), 1.0, 5);
    let cheater = SemiHonestCheater::new(0.0, CheatSelection::Prefix, guesser, 5);
    let outcome = run_round::<Sha256>(
        &CbsScheme {
            samples: 20,
            seed: 6,
            report_audit: 0,
        },
        &task,
        &screener,
        Domain::new(0, 64),
        &[&cheater],
        &MixedFleetConfig::default(),
    )
    .unwrap();
    assert!(outcome.accepted);
    assert_eq!(cheat_success_probability(0.0, 1.0, 20), 1.0);
}
