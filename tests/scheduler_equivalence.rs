//! Scheduler equivalence: a campaign's digest is a function of its seeds
//! alone, not of how its participant slots are scheduled — same seed and
//! chaos plan in, same `FaultLog`, verdicts and `CostLedger` axes out —
//! for all five schemes, over both transports, at any worker-pool size
//! *and any work-stealing seed*.
//!
//! The reference is a checked-in table of golden digests ([`GOLDEN`],
//! [`QUIET_GOLDEN`]), recorded at the last commit that still had a second
//! execution model — one blocking OS thread per participant slot — on
//! that path. The scheduler pool must keep reproducing them bit for bit.
//! Every campaign here has CBS and NI-CBS members, so all five constants
//! were recorded again when wire version 2 replaced a round's `m`
//! per-sample proofs by one opening (fewer bytes and fewer supervisor
//! hashes, both of which a digest covers): what they pin since is that
//! every pool size, steal seed, lane width and transport still lands on
//! one value. That nothing *else* moved is pinned where schemes run
//! apart — the `naive`, `ringer` and `double-check` rows of
//! `tests/cli.rs` were not touched.
//!
//! All five were recorded once more when `summary_digest` went from
//! hashing `{:?}` text to hashing the journal's record codec, and the
//! cost report lost a fifth counter that always repeated the hash count.
//! No campaign changed, only the bytes its summary is hashed from: the
//! old text digest, with that counter written as the hash count,
//! computed over that change's summaries reproduces every previous
//! constant, over both transports.
//!
//! All five were recorded once more at wire version 5, which writes every
//! message integer in LEB128 and so changes what each session is charged.
//! A copy of that change whose `Message::charged` returned the version-4
//! fixed-width length (with the version-3 params blob and journal version
//! 5) reproduced every previous constant.
//!
//! This is the replay-digest property the event-driven design rests on:
//! fault decisions are a pure function of `(seed, link, direction, seq)`
//! and each link carries exactly one session's protocol sequence, so no
//! interleaving — a 1-worker or 8-worker run-queue, or a stolen batch
//! landing on another worker's queue — can change what any participant
//! observes. The work-stealing victim order and the batched message
//! stepping it schedules are exercised here explicitly: sweeping
//! `steal_seed` permutes which worker polls which session without moving
//! a single digest bit.

use std::time::Duration;
use uncheatable_grid::core::scheme::cbs::CbsScheme;
use uncheatable_grid::core::scheme::double_check::DoubleCheckScheme;
use uncheatable_grid::core::scheme::naive::NaiveScheme;
use uncheatable_grid::core::scheme::ni_cbs::NiCbsScheme;
use uncheatable_grid::core::scheme::ringer::RingerScheme;
use uncheatable_grid::core::{
    run_mixed_fleet, summary_digest, FleetSummary, LaneWidth, MemberSpec, MixedFleetConfig,
    TransportKind,
};
use uncheatable_grid::grid::runtime::FaultPlan;
use uncheatable_grid::grid::{
    CheatSelection, HonestWorker, MaliciousWorker, SemiHonestCheater, WorkerBehaviour,
};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::merkle::Parallelism;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{AcceptAllScreener, Domain, ZeroGuesser};

/// `summary_digest` of [`campaign`] per chaos seed — everything that must
/// not depend on scheduling: verdicts, attempts, per-session supervisor
/// traffic, every `CostLedger` axis and the injected-fault log
/// (wall-clock throughput is real time and deliberately excluded). The
/// digest canonicalises the transport, so one value serves `Direct` and
/// `Brokered` alike — itself part of what is pinned.
#[rustfmt::skip]
const GOLDEN: [(u64, &str); 4] = [
    (0xC4A05,  "754818431c150b003f2a1249f496b223ee4307a9adfe82aec99fabb0057a4ea4"),
    (0x5EED5,  "cbaf641c85aa6bdbb9ac695e689bd6185ccbf4a805d65ef56e27c7aabccfe155"),
    (42,       "2c806807490d8b825e4320f96b74cf27c7b30478288b8339da706d2cf99a50c9"),
    (0xD12EC7, "25fce2129ba41c692d89110f2b5548dad2ac65372bc540058a640d260a498559"),
];

/// `summary_digest` of the chaos-free brokered fleet of
/// [`quiet_fleet_identical_across_execution_models`].
const QUIET_GOLDEN: &str = "c2d2c605ce61a679ed5d19f3124feaa76cb0f8fa36494f722664e5947ab5389e";

struct Schemes {
    cbs: CbsScheme,
    ni: NiCbsScheme,
    naive: NaiveScheme,
    ringer: RingerScheme,
    double_check: DoubleCheckScheme,
}

impl Schemes {
    fn new(seed: u64) -> Self {
        Schemes {
            cbs: CbsScheme {
                samples: 16,
                seed: seed ^ 11,
                report_audit: 2,
            },
            ni: NiCbsScheme {
                samples: 16,
                g_iterations: 2,
                report_audit: 0,
                audit_seed: seed ^ 13,
            },
            naive: NaiveScheme {
                samples: 16,
                seed: seed ^ 14,
            },
            ringer: RingerScheme {
                ringers: 6,
                seed: seed ^ 15,
            },
            double_check: DoubleCheckScheme,
        }
    }
}

/// One member per scheme plus a cheating CBS member: 7 participant slots
/// covering every scheme's dialogue shape, honest and dishonest.
fn members<'a>(
    schemes: &'a Schemes,
    honest: &'a HonestWorker,
    lazy: &'a SemiHonestCheater<ZeroGuesser>,
    malicious: &'a MaliciousWorker,
) -> Vec<MemberSpec<'a, Sha256>> {
    vec![
        MemberSpec {
            scheme: &schemes.cbs,
            behaviours: vec![honest as &dyn WorkerBehaviour],
        },
        MemberSpec {
            scheme: &schemes.ni,
            behaviours: vec![honest],
        },
        MemberSpec {
            scheme: &schemes.naive,
            behaviours: vec![honest],
        },
        MemberSpec {
            scheme: &schemes.ringer,
            behaviours: vec![honest],
        },
        MemberSpec {
            scheme: &schemes.double_check,
            behaviours: vec![honest, honest],
        },
        MemberSpec {
            scheme: &schemes.cbs,
            behaviours: vec![lazy],
        },
        // The report audit (report_audit: 2 on the CBS scheme) is what
        // catches a malicious worker that computes f honestly but
        // corrupts what it screens.
        MemberSpec {
            scheme: &schemes.cbs,
            behaviours: vec![malicious],
        },
    ]
}

fn campaign(
    chaos_seed: u64,
    transport: TransportKind,
    workers: usize,
    steal_seed: u64,
    lanes: LaneWidth,
) -> FleetSummary {
    let task = PasswordSearch::with_hidden_password(7, 3);
    let screener = AcceptAllScreener;
    let honest = HonestWorker;
    let lazy = SemiHonestCheater::new(0.2, CheatSelection::Scattered, ZeroGuesser::new(4), 9);
    let malicious = MaliciousWorker::new(1.0, 5);
    let schemes = Schemes::new(chaos_seed);
    let specs = members(&schemes, &honest, &lazy, &malicious);
    let slots: usize = specs.iter().map(|m| m.behaviours.len()).sum();
    assert_eq!(slots, 8);
    run_mixed_fleet(
        &task,
        &screener,
        Domain::new(0, specs.len() as u64 * 64),
        &specs,
        &MixedFleetConfig {
            transport,
            chaos: Some(FaultPlan::chaos(chaos_seed).with_churn(150)),
            deadline: Some(Duration::from_secs(20)),
            retries: 8,
            workers: Some(workers),
            steal_seed,
            lanes,
            ..MixedFleetConfig::default()
        },
    )
    .expect("the campaign must converge within the retry budget")
}

/// One transport's golden digests at `workers ∈ {1, 4, 8}` (8 = one
/// worker per slot) and each of `steal_seeds`, and once more per seed
/// hashing one message at a time: the lane width is execution-only too.
fn assert_reproduces_golden(transport: TransportKind, steal_seeds: &[u64]) {
    for (chaos_seed, golden) in GOLDEN {
        for workers in [1, 4, 8] {
            for &steal_seed in steal_seeds {
                assert_eq!(
                    summary_digest(&campaign(
                        chaos_seed,
                        transport,
                        workers,
                        steal_seed,
                        LaneWidth::default()
                    )),
                    golden,
                    "{transport:?} seed {chaos_seed:#x}: {workers} workers with steal seed \
                     {steal_seed:#x} diverged from the digest recorded on the \
                     thread-per-participant path"
                );
            }
        }
        let scalar = campaign(chaos_seed, transport, 4, steal_seeds[0], LaneWidth::Scalar);
        assert_eq!(
            summary_digest(&scalar),
            golden,
            "{transport:?} seed {chaos_seed:#x}: scalar lanes diverged from the golden digest"
        );
    }
}

/// The tentpole property, brokered: the scheduler at any pool size
/// produces the fault log, verdicts and ledgers that one blocking thread
/// per participant produced — across several chaos seeds.
#[test]
fn brokered_scheduler_matches_thread_per_participant_at_any_pool_size() {
    assert_reproduces_golden(TransportKind::Brokered, &[0]);
}

/// The same property over direct per-participant links (no broker):
/// the engine's transport must not matter to the equivalence.
#[test]
fn direct_scheduler_matches_thread_per_participant() {
    assert_reproduces_golden(TransportKind::Direct, &[0]);
}

/// The work-stealing victim order is scheduling-only. Sweeping the steal
/// seed at several pool sizes — over both transports — permutes which
/// worker polls which session (and which stolen batches land where)
/// without moving a digest bit.
#[test]
fn steal_seed_never_reaches_digests() {
    for transport in [TransportKind::Direct, TransportKind::Brokered] {
        assert_reproduces_golden(transport, &[1, 0xDEAD_BEEF, u64::MAX]);
    }
}

/// The digests pin the right campaign: honest members accepted, cheaters
/// rejected, faults actually injected.
#[test]
fn scheduler_verdicts_are_correct_under_chaos() {
    let summary = campaign(0xC4A05, TransportKind::Brokered, 4, 0, LaneWidth::default());
    let expected = [true, true, true, true, true, false, false];
    assert_eq!(summary.members.len(), expected.len());
    for (member, expected) in summary.members.iter().zip(expected) {
        assert_eq!(
            member.outcome.accepted, expected,
            "member {} ({}): {} after {} attempts",
            member.participant, member.share, member.outcome.verdict, member.attempts
        );
    }
    assert!(
        !summary.fault_events.is_empty(),
        "a nonzero chaos seed must inject faults"
    );
}

/// A clean (chaos-free) fleet is pinned too — the scheduler is not only
/// for storms — including at the default pool size (`workers: None`, one
/// per available core).
#[test]
fn quiet_fleet_identical_across_execution_models() {
    let task = PasswordSearch::with_hidden_password(3, 100);
    let screener = task.match_screener();
    let honest = HonestWorker;
    let schemes = Schemes::new(1);
    for workers in [None, Some(1), Some(4)] {
        let specs = vec![
            MemberSpec::<'_, Sha256> {
                scheme: &schemes.cbs,
                behaviours: vec![&honest as &dyn WorkerBehaviour],
            },
            MemberSpec {
                scheme: &schemes.ni,
                behaviours: vec![&honest],
            },
            MemberSpec {
                scheme: &schemes.double_check,
                behaviours: vec![&honest, &honest],
            },
        ];
        let summary = run_mixed_fleet(
            &task,
            &screener,
            Domain::new(0, 192),
            &specs,
            &MixedFleetConfig {
                transport: TransportKind::Brokered,
                workers,
                ..MixedFleetConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            summary_digest(&summary),
            QUIET_GOLDEN,
            "workers {workers:?}"
        );
    }
}

/// Host shape is execution layout too. Shares of 4 096 leaves are past
/// the threshold where a full-storage tree build goes threaded, which the
/// golden tables' 64-leaf shares never reach: however many threads the
/// build is lent — on a real host, however many cores it has — the
/// campaign digests identically and every ledger reads the same.
#[test]
fn tree_build_thread_count_never_reaches_digests_or_ledgers() {
    let task = PasswordSearch::with_hidden_password(7, 3);
    let screener = task.match_screener();
    let honest = HonestWorker;
    let schemes = Schemes::new(19);
    let run = |parallelism| {
        let specs = vec![
            MemberSpec::<'_, Sha256> {
                scheme: &schemes.cbs,
                behaviours: vec![&honest as &dyn WorkerBehaviour],
            },
            MemberSpec {
                scheme: &schemes.ni,
                behaviours: vec![&honest],
            },
        ];
        run_mixed_fleet(
            &task,
            &screener,
            Domain::new(0, 2 * 4096),
            &specs,
            &MixedFleetConfig {
                parallelism,
                workers: Some(2),
                ..MixedFleetConfig::default()
            },
        )
        .unwrap()
    };
    let serial = run(Parallelism::serial());
    assert_eq!(serial.accepted(), 2);
    for member in &serial.members {
        let costs = member.outcome.participant_costs;
        assert_eq!(member.share.len(), 4096);
        assert_eq!(costs.hash_ops, 4095);
    }
    for threads in [2, 8] {
        let threaded = run(Parallelism::threads(threads));
        assert_eq!(
            summary_digest(&threaded),
            summary_digest(&serial),
            "{threads} build threads moved the campaign digest"
        );
        for (a, b) in threaded.members.iter().zip(&serial.members) {
            assert_eq!(
                a.outcome.participant_costs, b.outcome.participant_costs,
                "{threads} build threads, member {}",
                a.participant
            );
            assert_eq!(
                a.outcome.supervisor_costs, b.outcome.supervisor_costs,
                "{threads} build threads, member {}",
                a.participant
            );
        }
    }
}
