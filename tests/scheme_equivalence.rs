//! Cross-scheme invariants: identical verdicts and reports where theory
//! says so, the cost ordering the paper claims, and — since the session
//! refactor — proof that the engine-over-broker path is **bit-identical**
//! to the legacy in-process rounds for all five schemes (verdicts,
//! supervisor byte counts, and every `CostLedger` axis).

use uncheatable_grid::core::scheme::cbs::{run_cbs, CbsConfig, CbsScheme};
use uncheatable_grid::core::scheme::double_check::{
    run_double_check, DoubleCheckConfig, DoubleCheckScheme,
};
use uncheatable_grid::core::scheme::naive::{run_naive, NaiveConfig, NaiveScheme};
use uncheatable_grid::core::scheme::ni_cbs::{run_ni_cbs, NiCbsConfig, NiCbsScheme};
use uncheatable_grid::core::scheme::ringer::{run_ringer, RingerConfig, RingerScheme};
use uncheatable_grid::core::{
    run_mixed_fleet, MemberSpec, MixedFleetConfig, ParticipantStorage, RoundOutcome, TransportKind,
    VerificationScheme,
};
use uncheatable_grid::grid::{
    CheatSelection, HonestWorker, MaliciousWorker, SemiHonestCheater, WorkerBehaviour,
};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{Domain, ZeroGuesser};

const N: u64 = 1 << 14;
const M: usize = 20;

fn all_outcomes() -> Vec<(&'static str, uncheatable_grid::core::RoundOutcome)> {
    let task = PasswordSearch::with_hidden_password(2, 77);
    let screener = task.match_screener();
    let domain = Domain::new(0, N);
    vec![
        (
            "naive",
            run_naive(
                &task,
                &screener,
                domain,
                &HonestWorker,
                &NaiveConfig {
                    task_id: 1,
                    samples: M,
                    seed: 3,
                },
            )
            .unwrap(),
        ),
        (
            "cbs",
            run_cbs::<Sha256, _, _, _>(
                &task,
                &screener,
                domain,
                &HonestWorker,
                ParticipantStorage::Full,
                &CbsConfig {
                    task_id: 1,
                    samples: M,
                    seed: 3,
                    report_audit: 0,
                },
            )
            .unwrap(),
        ),
        (
            "cbs-partial",
            run_cbs::<Sha256, _, _, _>(
                &task,
                &screener,
                domain,
                &HonestWorker,
                ParticipantStorage::Partial { subtree_height: 4 },
                &CbsConfig {
                    task_id: 1,
                    samples: M,
                    seed: 3,
                    report_audit: 0,
                },
            )
            .unwrap(),
        ),
        (
            "ni-cbs",
            run_ni_cbs::<Sha256, _, _, _>(
                &task,
                &screener,
                domain,
                &HonestWorker,
                ParticipantStorage::Full,
                &NiCbsConfig {
                    task_id: 1,
                    samples: M,
                    g_iterations: 1,
                    report_audit: 0,
                    audit_seed: 0,
                },
            )
            .unwrap(),
        ),
    ]
}

#[test]
fn every_scheme_accepts_and_finds_the_password() {
    for (name, outcome) in all_outcomes() {
        assert!(outcome.accepted, "{name} rejected an honest worker");
        assert_eq!(
            outcome.reports.iter().map(|r| r.input).collect::<Vec<_>>(),
            vec![77],
            "{name} lost the interesting result"
        );
    }
}

#[test]
fn full_and_partial_cbs_send_identical_bytes() {
    let outcomes = all_outcomes();
    let cbs = &outcomes[1].1;
    let partial = &outcomes[2].1;
    // Same commitment, same proofs, same reports — the storage mode is
    // invisible on the wire.
    assert_eq!(
        cbs.supervisor_link.bytes_received,
        partial.supervisor_link.bytes_received
    );
    assert_eq!(
        cbs.supervisor_link.bytes_sent,
        partial.supervisor_link.bytes_sent
    );
}

#[test]
fn cbs_upload_beats_naive_by_an_order_of_magnitude() {
    let outcomes = all_outcomes();
    let naive = outcomes[0].1.supervisor_link.bytes_received;
    let cbs = outcomes[1].1.supervisor_link.bytes_received;
    assert!(
        naive > 10 * cbs,
        "expected ≥10× gap at n = 2^14: naive {naive} vs CBS {cbs}"
    );
}

#[test]
fn ni_cbs_halves_the_round_trips() {
    let outcomes = all_outcomes();
    let cbs = &outcomes[1].1;
    let ni = &outcomes[3].1;
    assert_eq!(cbs.supervisor_link.messages_sent, 3); // Assign, Challenge, Verdict
    assert_eq!(ni.supervisor_link.messages_sent, 2); // Assign, Verdict
    assert!(ni.supervisor_link.bytes_sent < cbs.supervisor_link.bytes_sent);
}

#[test]
fn supervisor_compute_is_sampled_not_linear() {
    for (name, outcome) in all_outcomes() {
        assert!(
            outcome.supervisor_costs.f_evals <= (M as u64) + 5,
            "{name}: supervisor recomputed {} times",
            outcome.supervisor_costs.f_evals
        );
    }
}

#[test]
fn participant_baseline_work_is_the_task_itself() {
    for (name, outcome) in all_outcomes() {
        assert!(
            outcome.participant_costs.f_evals >= N,
            "{name}: participant skipped work while honest"
        );
        // Partial storage rebuilds add at most m × 2^ℓ evaluations.
        assert!(
            outcome.participant_costs.f_evals <= N + (M as u64) * 16,
            "{name}: unexpected participant workload {}",
            outcome.participant_costs.f_evals
        );
    }
}

// ---------------------------------------------------------------------------
// Engine-vs-legacy equivalence: every scheme, multiplexed over the broker
// transport, must reproduce the pre-refactor in-process rounds bit for bit.
// ---------------------------------------------------------------------------

/// Runs one session of `scheme` through the engine over the relaying
/// broker and returns the member's outcome.
fn engine_round<S: uncheatable_grid::task::Screener>(
    task: &PasswordSearch,
    screener: &S,
    domain: Domain,
    scheme: &dyn VerificationScheme<Sha256>,
    behaviours: Vec<&dyn WorkerBehaviour>,
    storage: ParticipantStorage,
) -> RoundOutcome {
    let members = vec![MemberSpec { scheme, behaviours }];
    let summary = run_mixed_fleet(
        task,
        screener,
        domain,
        &members,
        &MixedFleetConfig {
            storage,
            transport: TransportKind::Brokered,
            ..MixedFleetConfig::default()
        },
    )
    .unwrap();
    summary.members.into_iter().next().unwrap().outcome
}

/// Bit-identity across everything a round measures.
fn assert_outcomes_identical(name: &str, legacy: &RoundOutcome, engine: &RoundOutcome) {
    assert_eq!(legacy.verdict, engine.verdict, "{name}: verdict diverged");
    assert_eq!(
        legacy.supervisor_link, engine.supervisor_link,
        "{name}: supervisor byte counts diverged"
    );
    assert_eq!(
        legacy.supervisor_costs, engine.supervisor_costs,
        "{name}: supervisor ledger diverged"
    );
    assert_eq!(
        legacy.participant_costs, engine.participant_costs,
        "{name}: participant ledger diverged"
    );
    assert_eq!(legacy.reports, engine.reports, "{name}: reports diverged");
}

#[test]
fn engine_matches_legacy_cbs() {
    let task = PasswordSearch::with_hidden_password(3, 40);
    let screener = task.match_screener();
    let domain = Domain::new(0, 128);
    for (storage, behaviour) in [
        (
            ParticipantStorage::Full,
            &HonestWorker as &dyn WorkerBehaviour,
        ),
        (
            ParticipantStorage::Partial { subtree_height: 3 },
            &HonestWorker as &dyn WorkerBehaviour,
        ),
    ] {
        let legacy = run_cbs::<Sha256, _, _, _>(
            &task,
            &screener,
            domain,
            &behaviour,
            storage,
            &CbsConfig {
                task_id: 0,
                samples: 16,
                seed: 9,
                report_audit: 2,
            },
        )
        .unwrap();
        let scheme = CbsScheme {
            samples: 16,
            seed: 9,
            report_audit: 2,
        };
        let engine = engine_round(&task, &screener, domain, &scheme, vec![behaviour], storage);
        assert_outcomes_identical("cbs", &legacy, &engine);
    }
}

#[test]
fn engine_matches_legacy_cbs_on_a_cheater() {
    let task = PasswordSearch::with_hidden_password(3, 40);
    let screener = task.match_screener();
    let domain = Domain::new(0, 256);
    let cheater = SemiHonestCheater::new(0.3, CheatSelection::Scattered, ZeroGuesser::new(5), 11);
    let legacy = run_cbs::<Sha256, _, _, _>(
        &task,
        &screener,
        domain,
        &cheater,
        ParticipantStorage::Full,
        &CbsConfig {
            task_id: 0,
            samples: 20,
            seed: 4,
            report_audit: 0,
        },
    )
    .unwrap();
    let scheme = CbsScheme {
        samples: 20,
        seed: 4,
        report_audit: 0,
    };
    let engine = engine_round(
        &task,
        &screener,
        domain,
        &scheme,
        vec![&cheater],
        ParticipantStorage::Full,
    );
    assert!(!legacy.accepted);
    assert_outcomes_identical("cbs-cheater", &legacy, &engine);
}

#[test]
fn engine_matches_legacy_ni_cbs() {
    let task = PasswordSearch::with_hidden_password(5, 9);
    let screener = task.match_screener();
    let domain = Domain::new(0, 128);
    let legacy = run_ni_cbs::<Sha256, _, _, _>(
        &task,
        &screener,
        domain,
        &HonestWorker,
        ParticipantStorage::Full,
        &NiCbsConfig {
            task_id: 0,
            samples: 10,
            g_iterations: 3,
            report_audit: 1,
            audit_seed: 6,
        },
    )
    .unwrap();
    let scheme = NiCbsScheme {
        samples: 10,
        g_iterations: 3,
        report_audit: 1,
        audit_seed: 6,
    };
    let engine = engine_round(
        &task,
        &screener,
        domain,
        &scheme,
        vec![&HonestWorker],
        ParticipantStorage::Full,
    );
    assert_outcomes_identical("ni-cbs", &legacy, &engine);
}

#[test]
fn engine_matches_legacy_naive() {
    let task = PasswordSearch::with_hidden_password(3, 40);
    let screener = task.match_screener();
    let domain = Domain::new(0, 128);
    let cheater = SemiHonestCheater::new(0.4, CheatSelection::Scattered, ZeroGuesser::new(7), 5);
    for behaviour in [&HonestWorker as &dyn WorkerBehaviour, &cheater] {
        let legacy = run_naive(
            &task,
            &screener,
            domain,
            &behaviour,
            &NaiveConfig {
                task_id: 0,
                samples: 12,
                seed: 2,
            },
        )
        .unwrap();
        let scheme = NaiveScheme {
            samples: 12,
            seed: 2,
        };
        let engine = engine_round(
            &task,
            &screener,
            domain,
            &scheme,
            vec![behaviour],
            ParticipantStorage::Full,
        );
        assert_outcomes_identical("naive", &legacy, &engine);
    }
}

#[test]
fn engine_matches_legacy_ringer() {
    let task = PasswordSearch::with_hidden_password(1, 10);
    let screener = task.match_screener();
    let domain = Domain::new(0, 128);
    let legacy = run_ringer(
        &task,
        &screener,
        domain,
        &HonestWorker,
        &RingerConfig {
            task_id: 0,
            ringers: 6,
            seed: 3,
        },
    )
    .unwrap();
    let scheme = RingerScheme {
        ringers: 6,
        seed: 3,
    };
    let engine = engine_round(
        &task,
        &screener,
        domain,
        &scheme,
        vec![&HonestWorker],
        ParticipantStorage::Full,
    );
    assert_outcomes_identical("ringer", &legacy, &engine);
}

#[test]
fn engine_matches_legacy_double_check() {
    let task = PasswordSearch::with_hidden_password(1, 20);
    let screener = task.match_screener();
    let domain = Domain::new(0, 64);
    let cheater = SemiHonestCheater::new(0.9, CheatSelection::Scattered, ZeroGuesser::new(2), 3);
    for replica_b in [&HonestWorker as &dyn WorkerBehaviour, &cheater] {
        let legacy = run_double_check(
            &task,
            &screener,
            domain,
            &HonestWorker,
            &replica_b,
            &DoubleCheckConfig { task_id: 0 },
        )
        .unwrap();
        let engine = engine_round(
            &task,
            &screener,
            domain,
            &DoubleCheckScheme,
            vec![&HonestWorker, replica_b],
            ParticipantStorage::Full,
        );
        assert_outcomes_identical("double-check", &legacy, &engine);
    }
}

#[test]
fn engine_matches_legacy_with_a_corrupting_malicious_worker() {
    // The malicious model needs the report-audit extension; prove the
    // engine path rejects it exactly like the legacy path.
    let task = PasswordSearch::with_hidden_password(3, 10);
    let screener = uncheatable_grid::task::AcceptAllScreener;
    let malicious = MaliciousWorker::new(1.0, 8);
    let legacy = run_cbs::<Sha256, _, _, _>(
        &task,
        &screener,
        Domain::new(0, 64),
        &malicious,
        ParticipantStorage::Full,
        &CbsConfig {
            task_id: 0,
            samples: 10,
            seed: 6,
            report_audit: 4,
        },
    )
    .unwrap();
    let scheme = CbsScheme {
        samples: 10,
        seed: 6,
        report_audit: 4,
    };
    let engine = engine_round(
        &task,
        &screener,
        Domain::new(0, 64),
        &scheme,
        vec![&malicious],
        ParticipantStorage::Full,
    );
    assert!(!legacy.accepted);
    assert_outcomes_identical("cbs-malicious", &legacy, &engine);
}
