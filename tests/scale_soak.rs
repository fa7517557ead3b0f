//! The scale soak: a 1000-participant mixed-scheme campaign on a
//! 4-worker scheduler pool — the workload no host could run on one OS
//! thread per participant, and the acceptance test of the event-driven
//! design:
//!
//! 1. **It completes, correctly** — a thousand poll-driven sessions
//!    (all five schemes, honest members and planted cheaters, seeded
//!    churn) multiplex over four OS threads and every verdict matches
//!    the theory.
//! 2. **Worker count is invisible** — the replay digest (verdicts,
//!    attempts, ledgers, byte counts, fault log) is bit-identical at
//!    `workers ∈ {1, 4, 1000}` and across replays of the same seed.
//!
//! CI runs this file as the dedicated `scale-soak` job under a hard
//! `timeout-minutes` guard, so a reintroduced scheduler stall fails in
//! minutes.

use uncheatable_grid::core::scheme::cbs::CbsScheme;
use uncheatable_grid::core::scheme::double_check::DoubleCheckScheme;
use uncheatable_grid::core::scheme::naive::NaiveScheme;
use uncheatable_grid::core::scheme::ni_cbs::NiCbsScheme;
use uncheatable_grid::core::scheme::ringer::RingerScheme;
use uncheatable_grid::core::{
    run_mixed_fleet, FleetSummary, MemberSpec, MixedFleetConfig, TransportKind, VerificationScheme,
};
use uncheatable_grid::grid::runtime::FaultPlan;
use uncheatable_grid::grid::{CheatSelection, HonestWorker, SemiHonestCheater, WorkerBehaviour};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{AcceptAllScreener, Domain, ZeroGuesser};

/// Participant slots in the campaign (the paper's "huge pool").
const SLOTS: usize = 1000;
/// Inputs per member share — tiny on purpose: the soak stresses
/// scheduling and multiplexing, not `f`.
const SHARE: u64 = 8;
/// Every `CHEAT_EVERY`-th member is a planted cheater (on CBS, whose
/// sample checks catch it deterministically for this seed).
const CHEAT_EVERY: usize = 100;
/// The campaign's fixed seed: fault schedule, scheme seeds and cheat
/// placement all derive from it.
const SOAK_SEED: u64 = 0x5CA1_E50A;

/// The deterministic fingerprint that must not vary with worker count:
/// verdicts, attempts, per-session traffic, ledgers, fault log.
fn digest(summary: &FleetSummary) -> String {
    let mut out = String::new();
    for m in &summary.members {
        out.push_str(&format!(
            "{}:{}:{}:{:?}:{}:{}:{:?}:{:?};",
            m.participant,
            m.outcome.accepted,
            m.attempts,
            m.outcome.verdict,
            m.outcome.supervisor_link.bytes_sent,
            m.outcome.supervisor_link.bytes_received,
            m.outcome.supervisor_costs,
            m.outcome.participant_costs,
        ));
    }
    out.push_str(&format!(
        "sessions {} bytes {} faults {:?}",
        summary.throughput.sessions, summary.throughput.bytes, summary.fault_events
    ));
    out
}

struct Schemes {
    cbs: CbsScheme,
    ni: NiCbsScheme,
    naive: NaiveScheme,
    ringer: RingerScheme,
    double_check: DoubleCheckScheme,
}

/// Runs the 1000-slot campaign on a pool of the given size.
fn campaign(workers: usize) -> FleetSummary {
    let task = PasswordSearch::with_hidden_password(SOAK_SEED, 3);
    let screener = AcceptAllScreener;
    let honest = HonestWorker;
    let cheater = SemiHonestCheater::new(
        0.2,
        CheatSelection::Scattered,
        ZeroGuesser::new(SOAK_SEED ^ 4),
        9,
    );
    let schemes = Schemes {
        cbs: CbsScheme {
            samples: 6,
            seed: SOAK_SEED ^ 11,
            report_audit: 0,
        },
        ni: NiCbsScheme {
            samples: 6,
            g_iterations: 1,
            report_audit: 0,
            audit_seed: SOAK_SEED ^ 13,
        },
        naive: NaiveScheme {
            samples: 6,
            seed: SOAK_SEED ^ 14,
        },
        ringer: RingerScheme {
            ringers: 4,
            seed: SOAK_SEED ^ 15,
        },
        double_check: DoubleCheckScheme,
    };
    // Cycle the five schemes until exactly SLOTS participant slots are
    // filled (double-check consumes two per member); plant a cheater on
    // every CHEAT_EVERY-th member, always on CBS so the sample check —
    // not scheme-specific luck — catches it.
    let mut members: Vec<MemberSpec<'_, Sha256>> = Vec::new();
    let mut slots = 0usize;
    let mut kind = 0usize;
    while slots < SLOTS {
        let member = if members.len() % CHEAT_EVERY == CHEAT_EVERY - 1 {
            MemberSpec {
                scheme: &schemes.cbs as &dyn VerificationScheme<Sha256>,
                behaviours: vec![&cheater as &dyn WorkerBehaviour],
            }
        } else {
            match kind % 5 {
                0 => MemberSpec {
                    scheme: &schemes.cbs,
                    behaviours: vec![&honest],
                },
                1 => MemberSpec {
                    scheme: &schemes.ni,
                    behaviours: vec![&honest],
                },
                2 => MemberSpec {
                    scheme: &schemes.naive,
                    behaviours: vec![&honest],
                },
                3 => MemberSpec {
                    scheme: &schemes.ringer,
                    behaviours: vec![&honest],
                },
                // Only while two slots still fit.
                _ if slots + 2 <= SLOTS => MemberSpec {
                    scheme: &schemes.double_check,
                    behaviours: vec![&honest, &honest],
                },
                _ => MemberSpec {
                    scheme: &schemes.cbs,
                    behaviours: vec![&honest],
                },
            }
        };
        slots += member.behaviours.len();
        kind += 1;
        members.push(member);
    }
    assert_eq!(slots, SLOTS);
    let domain = Domain::new(0, members.len() as u64 * SHARE);
    run_mixed_fleet(
        &task,
        &screener,
        domain,
        &members,
        &MixedFleetConfig {
            transport: TransportKind::Brokered,
            // Churn but no drops: crashed sessions fail fast through the
            // broker's Gone NACK and are reassigned, so no inactivity
            // deadline (a wall-clock quantity) is needed at any pool
            // size.
            chaos: Some(FaultPlan::chaos(SOAK_SEED).with_churn(40)),
            retries: 8,
            workers: Some(workers),
            ..MixedFleetConfig::default()
        },
    )
    .expect("the scale campaign must converge within the retry budget")
}

/// The headline acceptance test: 1000 participants complete on 4
/// workers with the verdicts the theory demands, replaying
/// bit-identically — and the digest does not change at `workers ∈
/// {1, 4, 1000}`.
#[test]
fn thousand_participants_on_four_workers_complete_and_replay_bit_identically() {
    let four = campaign(4);
    for member in &four.members {
        let planted_cheater = member.participant % CHEAT_EVERY == CHEAT_EVERY - 1;
        assert_eq!(
            member.outcome.accepted, !planted_cheater,
            "member {}: {} after {} attempts",
            member.participant, member.outcome.verdict, member.attempts
        );
    }
    // 1000 slots ≈ 834 members (double-check members hold two slots);
    // churn retries push the session count above the member count.
    assert!(
        four.members.len() >= 800,
        "expected ≥800 members over 1000 slots, saw {}",
        four.members.len()
    );
    assert!(
        four.throughput.sessions >= four.members.len() as u64,
        "expected ≥{} sessions, saw {}",
        four.members.len(),
        four.throughput.sessions
    );
    assert!(
        !four.fault_events.is_empty(),
        "a nonzero chaos seed must inject faults"
    );

    let four_digest = digest(&four);
    // Replay at the same pool size: bit-identical.
    assert_eq!(
        four_digest,
        digest(&campaign(4)),
        "the same seed must replay bit-identically on 4 workers"
    );
    // Pool size is invisible: a single worker and one-per-participant
    // produce the same campaign.
    assert_eq!(
        four_digest,
        digest(&campaign(1)),
        "1-worker digest diverged from 4 workers"
    );
    assert_eq!(
        four_digest,
        digest(&campaign(SLOTS)),
        "{SLOTS}-worker digest diverged from 4 workers"
    );
}
