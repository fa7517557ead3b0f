//! Concurrency hygiene: the protocol stack must tolerate many rounds in
//! flight at once (a real supervisor verifies hundreds of participants
//! concurrently), and the public types must be `Send`/`Sync` so users can
//! drive them from their own executors.

use uncheatable_grid::core::scheme::{cbs::CbsScheme, run_round};
use uncheatable_grid::core::MixedFleetConfig;
use uncheatable_grid::grid::{
    CheatSelection, CostLedger, Endpoint, HonestWorker, SemiHonestCheater,
};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::merkle::{MerkleProof, MerkleTree};
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{Domain, ZeroGuesser};

#[test]
fn key_types_are_send_and_sync() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<MerkleTree<Sha256>>();
    send_sync::<MerkleProof<Sha256>>();
    send_sync::<CostLedger>();
    send_sync::<PasswordSearch>();
    send_sync::<SemiHonestCheater<ZeroGuesser>>();
    fn send_only<T: Send>() {}
    send_only::<Endpoint>();
}

#[test]
fn many_concurrent_rounds_stay_isolated() {
    // 16 independent rounds on 16 threads, alternating honest/cheating:
    // verdicts must match the behaviour, regardless of interleaving.
    let task = PasswordSearch::with_hidden_password(11, 5);
    let results: Vec<(usize, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16usize)
            .map(|i| {
                let task = &task;
                scope.spawn(move || {
                    let screener = task.match_screener();
                    let scheme = CbsScheme {
                        samples: 24,
                        seed: 100 + i as u64,
                        report_audit: 0,
                    };
                    let accepted = if i % 2 == 0 {
                        run_round::<Sha256>(
                            &scheme,
                            task,
                            &screener,
                            Domain::new(0, 200),
                            &[&HonestWorker],
                            &MixedFleetConfig::default(),
                        )
                        .unwrap()
                        .accepted
                    } else {
                        let cheater = SemiHonestCheater::new(
                            0.3,
                            CheatSelection::Scattered,
                            ZeroGuesser::new(i as u64),
                            i as u64,
                        );
                        run_round::<Sha256>(
                            &scheme,
                            task,
                            &screener,
                            Domain::new(0, 200),
                            &[&cheater],
                            &MixedFleetConfig::default(),
                        )
                        .unwrap()
                        .accepted
                    };
                    (i, accepted)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, accepted) in results {
        if i % 2 == 0 {
            assert!(accepted, "honest round {i} rejected");
        } else {
            assert!(!accepted, "cheating round {i} accepted");
        }
    }
}

#[test]
fn shared_task_across_threads_is_consistent() {
    // A single task instance evaluated from many threads must agree with
    // itself — determinism is load-bearing for commitments.
    let task = PasswordSearch::with_hidden_password(9, 100);
    let reference: Vec<Vec<u8>> = (0..64)
        .map(|x| {
            use uncheatable_grid::task::ComputeTask;
            task.compute(x)
        })
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let task = &task;
            let reference = &reference;
            scope.spawn(move || {
                use uncheatable_grid::task::ComputeTask;
                for x in 0..64u64 {
                    assert_eq!(task.compute(x), reference[x as usize]);
                }
            });
        }
    });
}

#[test]
fn mixed_scheme_campaign_over_one_broker_link() {
    // The session engine's full generality: five schemes, ten participant
    // slots, three behaviour kinds (honest, semi-honest, malicious), all
    // multiplexed over ONE supervisor link into a relaying broker — with
    // per-session verdicts and ledger totals exactly as each scheme's
    // theory demands.
    use uncheatable_grid::core::scheme::cbs::CbsScheme;
    use uncheatable_grid::core::scheme::double_check::DoubleCheckScheme;
    use uncheatable_grid::core::scheme::naive::NaiveScheme;
    use uncheatable_grid::core::scheme::ni_cbs::NiCbsScheme;
    use uncheatable_grid::core::scheme::ringer::RingerScheme;
    use uncheatable_grid::core::{
        run_mixed_fleet, MemberSpec, MixedFleetConfig, TransportKind, Verdict,
    };
    use uncheatable_grid::grid::{MaliciousWorker, WorkerBehaviour};
    use uncheatable_grid::task::AcceptAllScreener;

    let task = PasswordSearch::with_hidden_password(7, 3);
    let screener = AcceptAllScreener; // every input reports: feeds the audit
    let honest = HonestWorker;
    let lazy = SemiHonestCheater::new(0.2, CheatSelection::Scattered, ZeroGuesser::new(4), 9);
    let malicious = MaliciousWorker::new(1.0, 5);

    let cbs = CbsScheme {
        samples: 24,
        seed: 11,
        report_audit: 0,
    };
    let cbs_audited = CbsScheme {
        samples: 10,
        seed: 12,
        report_audit: 4,
    };
    let ni = NiCbsScheme {
        samples: 24,
        g_iterations: 2,
        report_audit: 0,
        audit_seed: 13,
    };
    let naive = NaiveScheme {
        samples: 24,
        seed: 14,
    };
    let ringer = RingerScheme {
        ringers: 8,
        seed: 15,
    };
    let double_check = DoubleCheckScheme;

    // member, scheme, behaviours, expected acceptance
    let members: Vec<(MemberSpec<'_, Sha256>, bool)> = vec![
        (spec(&cbs, vec![&honest]), true),
        (spec(&cbs, vec![&lazy]), false),
        (spec(&ni, vec![&honest]), true),
        (spec(&ni, vec![&lazy]), false),
        (spec(&naive, vec![&honest]), true),
        (spec(&naive, vec![&lazy]), false),
        (spec(&ringer, vec![&honest]), true),
        (spec(&cbs_audited, vec![&malicious]), false),
        (spec(&double_check, vec![&honest, &lazy]), false),
    ];
    fn spec<'a>(
        scheme: &'a dyn uncheatable_grid::core::VerificationScheme<Sha256>,
        behaviours: Vec<&'a dyn WorkerBehaviour>,
    ) -> MemberSpec<'a, Sha256> {
        MemberSpec { scheme, behaviours }
    }
    let expected: Vec<bool> = members.iter().map(|(_, ok)| *ok).collect();
    let specs: Vec<MemberSpec<'_, Sha256>> = members.into_iter().map(|(m, _)| m).collect();
    assert!(
        specs.iter().map(|m| m.behaviours.len()).sum::<usize>() >= 8,
        "campaign must exercise at least 8 participants"
    );

    let n_members = specs.len() as u64;
    let share = 64u64;
    let summary = run_mixed_fleet(
        &task,
        &screener,
        Domain::new(0, n_members * share),
        &specs,
        &MixedFleetConfig {
            transport: TransportKind::Brokered,
            ..MixedFleetConfig::default()
        },
    )
    .unwrap();

    // Per-session verdicts match each scheme's theory.
    assert_eq!(summary.members.len(), expected.len());
    for (member, expected) in summary.members.iter().zip(&expected) {
        assert_eq!(
            member.outcome.accepted, *expected,
            "member {} ({}) verdict diverged: {}",
            member.participant, member.share, member.outcome.verdict
        );
    }
    assert!(matches!(
        summary.members[7].outcome.verdict,
        Verdict::ReportMismatch { .. }
    ));
    assert!(matches!(
        summary.members[8].outcome.verdict,
        Verdict::ReplicaDisagreement { .. }
    ));

    // Per-session ledger totals: each member's accounting is isolated even
    // though every message crossed the same broker link.
    let m = &summary.members;
    assert_eq!(m[0].outcome.participant_costs.f_evals, share); // honest CBS: n evals
                                                               // One check per distinct sample: 24 draws over the share repeat a few.
    let mut distinct = uncheatable_grid::core::sampling::draw_samples(11, 24, share);
    distinct.sort_unstable();
    distinct.dedup();
    assert!(distinct.len() < 24);
    assert_eq!(
        m[0].outcome.supervisor_costs.verify_ops,
        distinct.len() as u64
    );
    assert_eq!(m[2].outcome.supervisor_costs.g_evals, 24 * 2); // Eq. (4), both sides
    assert_eq!(m[2].outcome.participant_costs.g_evals, 24 * 2);
    assert_eq!(m[4].outcome.participant_costs.f_evals, share); // honest naive
    assert!(m[1].outcome.participant_costs.f_evals < share); // the lazy cheater skipped work
    assert_eq!(
        m[6].outcome.supervisor_costs.f_evals,
        8 * uncheatable_grid::task::ComputeTask::unit_cost(&task) // d ringers precomputed
    );
    assert_eq!(m[7].outcome.participant_costs.f_evals, share); // malicious ≠ lazy
                                                               // Double-check burns both replicas' cycles; the honest one did all 64.
    assert!(m[8].outcome.participant_costs.f_evals > share);

    // The honest members' screened reports all survived aggregation.
    assert!(!summary.reports.is_empty());
}

#[test]
fn mixed_campaign_identical_across_transports() {
    // Direct links and a relayed broker must yield the same verdicts —
    // the transport is invisible to the sessions.
    use uncheatable_grid::core::scheme::cbs::CbsScheme;
    use uncheatable_grid::core::scheme::ni_cbs::NiCbsScheme;
    use uncheatable_grid::core::{run_mixed_fleet, MemberSpec, MixedFleetConfig, TransportKind};
    use uncheatable_grid::grid::WorkerBehaviour;

    let task = PasswordSearch::with_hidden_password(3, 50);
    let screener = task.match_screener();
    let honest = HonestWorker;
    let lazy = SemiHonestCheater::new(0.3, CheatSelection::Scattered, ZeroGuesser::new(2), 6);
    let cbs = CbsScheme {
        samples: 20,
        seed: 5,
        report_audit: 0,
    };
    let ni = NiCbsScheme {
        samples: 20,
        g_iterations: 1,
        report_audit: 0,
        audit_seed: 5,
    };
    let run = |transport: TransportKind| -> Vec<bool> {
        let members: Vec<MemberSpec<'_, Sha256>> = vec![
            MemberSpec {
                scheme: &cbs,
                behaviours: vec![&honest as &dyn WorkerBehaviour],
            },
            MemberSpec {
                scheme: &ni,
                behaviours: vec![&lazy],
            },
            MemberSpec {
                scheme: &cbs,
                behaviours: vec![&lazy],
            },
            MemberSpec {
                scheme: &ni,
                behaviours: vec![&honest],
            },
        ];
        run_mixed_fleet(
            &task,
            &screener,
            Domain::new(0, 256),
            &members,
            &MixedFleetConfig {
                transport,
                ..MixedFleetConfig::default()
            },
        )
        .unwrap()
        .members
        .iter()
        .map(|m| m.outcome.accepted)
        .collect()
    };
    let baseline = run(TransportKind::Direct);
    assert_eq!(baseline, vec![true, false, false, true]);
    assert_eq!(baseline, run(TransportKind::Brokered));
}
