//! Cross-scheme invariants: identical verdicts and reports where theory
//! says so, the cost ordering the paper claims, and proof that the one
//! driver — the session engine, over direct links and over the relaying
//! broker — is **bit-identical** to a blocking round assembled by hand
//! from `duplex`, `drive_supervisor` and a `drive_participant` thread per
//! slot, for all five schemes (verdicts, supervisor byte counts, and
//! every `CostLedger` axis).

use std::sync::Mutex;
use uncheatable_grid::core::scheme::cbs::CbsScheme;
use uncheatable_grid::core::scheme::double_check::DoubleCheckScheme;
use uncheatable_grid::core::scheme::naive::NaiveScheme;
use uncheatable_grid::core::scheme::ni_cbs::NiCbsScheme;
use uncheatable_grid::core::scheme::ringer::RingerScheme;
use uncheatable_grid::core::scheme::run_round;
use uncheatable_grid::core::session::{drive_participant, drive_supervisor};
use uncheatable_grid::core::{
    LaneWidth, MixedFleetConfig, Parallelism, ParticipantContext, ParticipantStorage, RoundOutcome,
    SupervisorContext, TransportKind, VerificationScheme,
};
use uncheatable_grid::grid::{
    duplex, CheatSelection, CostLedger, Doorbell, Endpoint, GridError, GridLink, HonestWorker,
    LinkStats, MaliciousWorker, Message, SemiHonestCheater, WorkerBehaviour,
};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{Domain, Screener, ZeroGuesser};

const N: u64 = 1 << 14;
const M: usize = 20;

fn all_outcomes() -> Vec<(&'static str, RoundOutcome)> {
    let task = PasswordSearch::with_hidden_password(2, 77);
    let screener = task.match_screener();
    let domain = Domain::new(0, N);
    let cbs = CbsScheme {
        samples: M,
        seed: 3,
        report_audit: 0,
    };
    let ni_cbs = NiCbsScheme {
        samples: M,
        g_iterations: 1,
        report_audit: 0,
        audit_seed: 0,
    };
    let naive = NaiveScheme {
        samples: M,
        seed: 3,
    };
    let partial = ParticipantStorage::Partial { subtree_height: 4 };
    let table: [(_, &dyn VerificationScheme<Sha256>, _); 4] = [
        ("naive", &naive, ParticipantStorage::Full),
        ("cbs", &cbs, ParticipantStorage::Full),
        ("cbs-partial", &cbs, partial),
        ("ni-cbs", &ni_cbs, ParticipantStorage::Full),
    ];
    table
        .into_iter()
        .map(|(name, scheme, storage)| {
            let config = MixedFleetConfig {
                storage,
                ..MixedFleetConfig::default()
            };
            let outcome =
                run_round(scheme, &task, &screener, domain, &[&HonestWorker], &config).unwrap();
            (name, outcome)
        })
        .collect()
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
// Engine-vs-legacy equivalence: every scheme, run by the one driver over
// direct links and over the broker, must reproduce the blocking
// one-link-per-slot round bit for bit.
// ---------------------------------------------------------------------------

/// A participant's link that counts what crosses it by its own rule —
/// the encoded length plus a 4-byte frame header — so the blocking
/// reference does not take its byte counts from the code under test.
struct CountingLink {
    link: Endpoint,
    stats: Mutex<LinkStats>,
}

impl CountingLink {
    fn new(link: Endpoint) -> Self {
        CountingLink {
            link,
            stats: Mutex::new(LinkStats::default()),
        }
    }

    fn received(&self, msg: Result<Message, GridError>) -> Result<Message, GridError> {
        let msg = msg?;
        let mut stats = self.stats.lock().unwrap();
        stats.bytes_received += msg.encode().len() as u64 + 4;
        stats.messages_received += 1;
        Ok(msg)
    }
}

impl GridLink for CountingLink {
    fn send(&self, msg: &Message) -> Result<(), GridError> {
        self.link.send(msg)?;
        let mut stats = self.stats.lock().unwrap();
        stats.bytes_sent += msg.encode().len() as u64 + 4;
        stats.messages_sent += 1;
        Ok(())
    }

    fn recv(&self) -> Result<Message, GridError> {
        self.received(self.link.recv())
    }

    fn try_recv(&self) -> Result<Message, GridError> {
        self.received(self.link.try_recv())
    }

    fn subscribe(&self, bell: &Doorbell, key: usize) {
        self.link.subscribe(bell, key);
    }
}

/// The "legacy" side: one round of `scheme` with no engine, scheduler or
/// backend in it — a duplex link per slot, each participant session on
/// its own thread under `drive_participant`, the supervisor session on
/// this thread under `drive_supervisor`.
fn blocking_round(
    task: &PasswordSearch,
    screener: &dyn Screener,
    domain: Domain,
    scheme: &dyn VerificationScheme<Sha256>,
    behaviours: &[&dyn WorkerBehaviour],
    storage: ParticipantStorage,
) -> RoundOutcome {
    let (sup_ledger, part_ledger) = (CostLedger::new(), CostLedger::new());
    let (sup_eps, part_eps): (Vec<Endpoint>, Vec<CountingLink>) = behaviours
        .iter()
        .map(|_| {
            let (sup, part) = duplex();
            (sup, CountingLink::new(part))
        })
        .unzip();
    let outcome = std::thread::scope(|scope| {
        for (endpoint, &behaviour) in part_eps.iter().zip(behaviours) {
            let mut session = scheme.participant_session(ParticipantContext {
                task,
                screener,
                behaviour,
                storage,
                parallelism: Parallelism::serial(),
                lanes: LaneWidth::default(),
                ledger: part_ledger.clone(),
            });
            scope.spawn(move || drive_participant(endpoint, session.as_mut()).unwrap());
        }
        let mut session = scheme.supervisor_session(SupervisorContext {
            task,
            screener,
            domain,
            task_ids: (0..behaviours.len() as u64).collect(),
            ledger: sup_ledger.clone(),
        });
        drive_supervisor(&sup_eps.iter().collect::<Vec<_>>(), session.as_mut()).unwrap()
    });
    // What the supervisor sent is what its participants received — once
    // anything a participant left unread is taken too — and the other way
    // round.
    let mut supervisor_link = LinkStats::default();
    for part in &part_eps {
        while part.try_recv().is_ok() {}
        let slot = *part.stats.lock().unwrap();
        supervisor_link.bytes_sent += slot.bytes_received;
        supervisor_link.bytes_received += slot.bytes_sent;
        supervisor_link.messages_sent += slot.messages_received;
        supervisor_link.messages_received += slot.messages_sent;
    }
    RoundOutcome {
        accepted: outcome.verdict.is_accepted(),
        verdict: outcome.verdict,
        supervisor_costs: sup_ledger.report(),
        participant_costs: part_ledger.report(),
        supervisor_link,
        reports: outcome.reports,
    }
}

/// Runs `scheme` against `behaviours` the blocking way and through
/// [`run_round`] over direct links and over the broker, under full and
/// under partial storage, and requires bit-identity across everything a
/// round measures. Returns the full-storage blocking outcome.
fn assert_engine_matches_legacy(
    name: &str,
    task: &PasswordSearch,
    screener: &dyn Screener,
    domain: Domain,
    scheme: &dyn VerificationScheme<Sha256>,
    behaviours: &[&dyn WorkerBehaviour],
) -> RoundOutcome {
    let storages = [
        ParticipantStorage::Partial { subtree_height: 3 },
        ParticipantStorage::Full,
    ];
    let [_, full] = storages.map(|storage| {
        let legacy = blocking_round(task, screener, domain, scheme, behaviours, storage);
        for transport in [TransportKind::Direct, TransportKind::Brokered] {
            let config = MixedFleetConfig {
                storage,
                transport,
                ..MixedFleetConfig::default()
            };
            let engine = run_round(scheme, task, screener, domain, behaviours, &config).unwrap();
            let case = format!("{name} ({storage:?}, {transport:?})");
            assert_eq!(legacy.verdict, engine.verdict, "{case}: verdict diverged");
            assert_eq!(
                legacy.supervisor_link, engine.supervisor_link,
                "{case}: supervisor byte counts diverged"
            );
            assert_eq!(
                legacy.supervisor_costs, engine.supervisor_costs,
                "{case}: supervisor ledger diverged"
            );
            assert_eq!(
                legacy.participant_costs, engine.participant_costs,
                "{case}: participant ledger diverged"
            );
            assert_eq!(legacy.reports, engine.reports, "{case}: reports diverged");
        }
        legacy
    });
    full
}

fn cheater(r: f64) -> SemiHonestCheater<ZeroGuesser> {
    SemiHonestCheater::new(r, CheatSelection::Scattered, ZeroGuesser::new(5), 11)
}

#[test]
fn engine_matches_legacy_cbs() {
    let task = PasswordSearch::with_hidden_password(3, 40);
    let screener = task.match_screener();
    let scheme = CbsScheme {
        samples: 16,
        seed: 9,
        report_audit: 2,
    };
    let legacy = assert_engine_matches_legacy(
        "cbs",
        &task,
        &screener,
        Domain::new(0, 128),
        &scheme,
        &[&HonestWorker],
    );
    assert!(legacy.accepted);
}

#[test]
fn engine_matches_legacy_cbs_on_a_cheater() {
    let task = PasswordSearch::with_hidden_password(3, 40);
    let screener = task.match_screener();
    let scheme = CbsScheme {
        samples: 20,
        seed: 4,
        report_audit: 0,
    };
    let legacy = assert_engine_matches_legacy(
        "cbs-cheater",
        &task,
        &screener,
        Domain::new(0, 256),
        &scheme,
        &[&cheater(0.3)],
    );
    assert!(!legacy.accepted);
}

#[test]
fn engine_matches_legacy_ni_cbs() {
    let task = PasswordSearch::with_hidden_password(5, 9);
    let screener = task.match_screener();
    let scheme = NiCbsScheme {
        samples: 10,
        g_iterations: 3,
        report_audit: 1,
        audit_seed: 6,
    };
    let cheater = cheater(0.3);
    for behaviour in [&HonestWorker as &dyn WorkerBehaviour, &cheater] {
        assert_engine_matches_legacy(
            "ni-cbs",
            &task,
            &screener,
            Domain::new(0, 128),
            &scheme,
            &[behaviour],
        );
    }
}

#[test]
fn engine_matches_legacy_naive() {
    let task = PasswordSearch::with_hidden_password(3, 40);
    let screener = task.match_screener();
    let scheme = NaiveScheme {
        samples: 12,
        seed: 2,
    };
    let cheater = cheater(0.4);
    for behaviour in [&HonestWorker as &dyn WorkerBehaviour, &cheater] {
        assert_engine_matches_legacy(
            "naive",
            &task,
            &screener,
            Domain::new(0, 128),
            &scheme,
            &[behaviour],
        );
    }
}

#[test]
fn engine_matches_legacy_ringer() {
    let task = PasswordSearch::with_hidden_password(1, 10);
    let screener = task.match_screener();
    let scheme = RingerScheme {
        ringers: 6,
        seed: 3,
    };
    let cheater = cheater(0.3);
    for behaviour in [&HonestWorker as &dyn WorkerBehaviour, &cheater] {
        assert_engine_matches_legacy(
            "ringer",
            &task,
            &screener,
            Domain::new(0, 128),
            &scheme,
            &[behaviour],
        );
    }
}

#[test]
fn engine_matches_legacy_double_check() {
    let task = PasswordSearch::with_hidden_password(1, 20);
    let screener = task.match_screener();
    let cheater = cheater(0.9);
    for replica_b in [&HonestWorker as &dyn WorkerBehaviour, &cheater] {
        assert_engine_matches_legacy(
            "double-check",
            &task,
            &screener,
            Domain::new(0, 64),
            &DoubleCheckScheme,
            &[&HonestWorker, replica_b],
        );
    }
}

#[test]
fn engine_matches_legacy_with_a_corrupting_malicious_worker() {
    // The malicious model needs the report-audit extension; prove the
    // engine rejects it exactly like the blocking round.
    let task = PasswordSearch::with_hidden_password(3, 10);
    let scheme = CbsScheme {
        samples: 10,
        seed: 6,
        report_audit: 4,
    };
    let legacy = assert_engine_matches_legacy(
        "cbs-malicious",
        &task,
        &uncheatable_grid::task::AcceptAllScreener,
        Domain::new(0, 64),
        &scheme,
        &[&MaliciousWorker::new(1.0, 8)],
    );
    assert!(!legacy.accepted);
}
