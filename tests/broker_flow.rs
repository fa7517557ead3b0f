//! The Section 4 deployment: NI-CBS through a GRACE-style broker, with the
//! supervisor blind to participant identity.

use uncheatable_grid::core::scheme::ni_cbs::{verify_ni_round, NiCbsScheme};
use uncheatable_grid::core::session::drive_participant;
use uncheatable_grid::core::{
    LaneWidth, Parallelism, ParticipantContext, ParticipantStorage, SupervisorContext,
    VerificationScheme,
};
use uncheatable_grid::grid::{
    duplex, Assignment, Broker, CheatSelection, CostLedger, Doorbell, Endpoint, GridLink,
    HonestWorker, Message, SemiHonestCheater, WorkerBehaviour,
};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{Domain, ZeroGuesser};

const M: usize = 15;

#[test]
fn brokered_ni_cbs_accepts_honest_rejects_cheater() {
    let task = PasswordSearch::with_hidden_password(8, 10);
    let domain_a = Domain::new(0, 128);
    let domain_b = Domain::new(128, 128);

    let (sup_ep, broker_up) = duplex();
    let (down_a, part_a) = duplex();
    let (down_b, part_b) = duplex();
    let broker = Broker::new(broker_up, vec![down_a, down_b]);

    let honest = HonestWorker;
    let cheater = SemiHonestCheater::new(0.4, CheatSelection::Scattered, ZeroGuesser::new(1), 3);

    let scheme = NiCbsScheme {
        samples: M,
        g_iterations: 1,
        report_audit: 0,
        audit_seed: 0,
    };
    // The participant half of one NI-CBS round, blocking on its link.
    let participate = |endpoint: Endpoint, behaviour: &dyn WorkerBehaviour| {
        let screener = task.match_screener();
        let mut session = VerificationScheme::<Sha256>::participant_session(
            &scheme,
            ParticipantContext {
                task: &task,
                screener: &screener,
                behaviour,
                storage: ParticipantStorage::Full,
                parallelism: Parallelism::default(),
                lanes: LaneWidth::default(),
                ledger: CostLedger::new(),
            },
        );
        let _ = drive_participant(&endpoint, session.as_mut());
    };

    let (verdicts, stats) = std::thread::scope(|scope| {
        scope.spawn(|| participate(part_a, &honest));
        scope.spawn(|| participate(part_b, &cheater));
        let pump = scope.spawn(move || broker.pump(&Doorbell::new(), |_| None));

        // Supervisor side, by hand, through the broker.
        let ledger = CostLedger::new();
        let screener = task.match_screener();
        let domains = [domain_a, domain_b];
        for (task_id, domain) in (0u64..).zip(domains) {
            sup_ep
                .send(&Message::Assign(Assignment { task_id, domain }))
                .unwrap();
        }
        // Each task's bundle and reports arrive in order; the two tasks
        // interleave however their participants finish.
        let mut bundles = [None, None];
        let mut verdicts = [None, None];
        while verdicts.contains(&None) {
            let msg = sup_ep.recv().unwrap();
            let k = usize::try_from(msg.task_id()).unwrap();
            match msg {
                Message::CommitAndProofs { root, proofs, .. } => bundles[k] = Some((root, proofs)),
                Message::Reports { task_id, reports } => {
                    let (root, proofs) = bundles[k].take().expect("bundle before reports");
                    let ctx = SupervisorContext {
                        task: &task,
                        screener: &screener,
                        domain: domains[k],
                        task_ids: vec![task_id],
                        ledger: ledger.clone(),
                    };
                    let verdict =
                        verify_ni_round::<Sha256>(&scheme, &ctx, &root, &proofs, &reports).unwrap();
                    sup_ep
                        .send(&Message::Verdict {
                            task_id,
                            accepted: verdict.is_accepted(),
                        })
                        .unwrap();
                    verdicts[k] = Some(verdict);
                }
                // A participant that got its verdict hangs up, and the
                // broker NACKs its finished task.
                Message::Gone { .. } => {}
                other => panic!("unexpected relay: {other:?}"),
            }
        }
        drop(sup_ep);
        (verdicts.map(Option::unwrap), pump.join().unwrap())
    });

    assert!(verdicts[0].is_accepted(), "honest participant rejected");
    assert!(!verdicts[1].is_accepted(), "cheater accepted");
    assert_eq!(stats.outward, 4);
    assert_eq!(stats.inward, 4);
}
