//! The chaos soak: mixed five-scheme campaigns on the scheduler pool
//! with seeded fault injection (duplication, reordering, latency,
//! crash/restart churn, message loss). Verifies the three guarantees a
//! campaign makes under faults:
//!
//! 1. **Correctness under chaos** — honest participants end up accepted,
//!    cheaters rejected, no matter what the fault plan does to the links
//!    (failed sessions are reassigned until a clean attempt lands).
//! 2. **No hangs** — a crashed participant or a dropped message fails its
//!    session with a typed error ([`GridError::Disconnected`] /
//!    [`SchemeError::TimedOut`]) instead of wedging the engine.
//! 3. **Bit-identical replay** — the same seed reproduces the same fault
//!    log, the same per-member attempt counts, verdicts and byte counts.
//!
//! CI runs this file as the dedicated `chaos-soak` job under a hard
//! `timeout-minutes` guard, so a reintroduced hang fails fast.

use std::time::{Duration, Instant};
use uncheatable_grid::core::scheme::cbs::CbsScheme;
use uncheatable_grid::core::scheme::double_check::DoubleCheckScheme;
use uncheatable_grid::core::scheme::naive::NaiveScheme;
use uncheatable_grid::core::scheme::ni_cbs::NiCbsScheme;
use uncheatable_grid::core::scheme::ringer::RingerScheme;
use uncheatable_grid::core::{
    chaos_link_id, run_mixed_fleet, FleetSummary, MemberSpec, MixedFleetConfig, SchemeError,
    TransportKind, VerificationScheme,
};
use uncheatable_grid::grid::runtime::FaultPlan;
use uncheatable_grid::grid::{
    CheatSelection, GridError, HonestWorker, MaliciousWorker, SemiHonestCheater, WorkerBehaviour,
};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{AcceptAllScreener, Domain, ZeroGuesser};

fn spec<'a>(
    scheme: &'a dyn VerificationScheme<Sha256>,
    behaviours: Vec<&'a dyn WorkerBehaviour>,
) -> MemberSpec<'a, Sha256> {
    MemberSpec { scheme, behaviours }
}

/// A replay-comparable fingerprint of everything that must be
/// deterministic: verdicts, attempts, per-session supervisor traffic,
/// ledger totals and the injected-fault log. (Wall-clock throughput is
/// real time and deliberately excluded.)
fn digest(summary: &FleetSummary) -> String {
    let mut out = String::new();
    for m in &summary.members {
        out.push_str(&format!(
            "member {} share {} accepted {} attempts {} verdict {:?} \
             link(tx {} rx {}) sup {:?} part {:?}\n",
            m.participant,
            m.share,
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
        "sessions {} bytes {}\n",
        summary.throughput.sessions, summary.throughput.bytes
    ));
    out.push_str(&format!("faults {:?}\n", summary.fault_events));
    out
}

/// The acceptance campaign: all five schemes, ten participant slots,
/// three behaviour kinds, a nonzero chaos seed with churn — completed
/// with the verdicts each scheme's theory demands, twice, bit-identically.
#[test]
fn mixed_five_scheme_chaos_campaign_is_correct_and_replays_bit_identically() {
    let task = PasswordSearch::with_hidden_password(7, 3);
    let screener = AcceptAllScreener;
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

    let run = || {
        // (member, expected acceptance)
        let members: Vec<(MemberSpec<'_, Sha256>, bool)> = vec![
            (spec(&cbs, vec![&honest]), true),
            (spec(&cbs, vec![&lazy]), false),
            (spec(&ni, vec![&honest]), true),
            (spec(&ni, vec![&lazy]), false),
            (spec(&naive, vec![&honest]), true),
            (spec(&naive, vec![&lazy]), false),
            (spec(&ringer, vec![&honest]), true),
            (spec(&cbs_audited, vec![&malicious]), false),
            (spec(&double_check, vec![&honest, &honest]), true),
        ];
        let expected: Vec<bool> = members.iter().map(|(_, ok)| *ok).collect();
        let specs: Vec<MemberSpec<'_, Sha256>> = members.into_iter().map(|(m, _)| m).collect();
        assert!(
            specs.iter().map(|m| m.behaviours.len()).sum::<usize>() >= 8,
            "the soak must run at least 8 participant slots"
        );
        let summary = run_mixed_fleet(
            &task,
            &screener,
            Domain::new(0, specs.len() as u64 * 64),
            &specs,
            &MixedFleetConfig {
                transport: TransportKind::Brokered,
                chaos: Some(FaultPlan::chaos(0xC4A05).with_churn(200)),
                deadline: Some(Duration::from_secs(20)),
                retries: 8,
                ..MixedFleetConfig::default()
            },
        )
        .expect("chaos campaign must converge within the retry budget");
        (summary, expected)
    };

    let (first, expected) = run();
    for (member, expected) in first.members.iter().zip(&expected) {
        assert_eq!(
            member.outcome.accepted, *expected,
            "member {} ({}) verdict diverged under chaos: {} after {} attempts",
            member.participant, member.share, member.outcome.verdict, member.attempts
        );
    }
    // The chaos actually bit: faults were injected and recorded.
    assert!(
        !first.fault_events.is_empty(),
        "a nonzero chaos seed must inject faults"
    );
    // Throughput is measured, not estimated.
    assert!(first.throughput.sessions >= 9);
    assert!(first.throughput.bytes > 0);
    assert!(first.throughput.wall > Duration::ZERO);
    assert!(first.throughput.sessions_per_sec() > 0.0);

    // Bit-identical replay from the same seed.
    let (second, _) = run();
    assert_eq!(
        digest(&first),
        digest(&second),
        "the same chaos seed must replay bit-identically"
    );
}

/// Regression: a participant that crashes mid-session must fail its
/// session with a typed error — for every scheme, over both transports —
/// never hang the engine.
#[test]
fn crash_mid_session_fails_cleanly_for_every_scheme() {
    let task = PasswordSearch::with_hidden_password(1, 2);
    let screener = AcceptAllScreener;
    let honest = HonestWorker;
    // Every link crashes; find a seed whose slot-0 participant dies
    // within its first two messages, early enough to strand any scheme's
    // dialogue.
    let plan = (0..)
        .map(|seed| FaultPlan::quiet(seed).with_churn(1024))
        .find(|plan| matches!(plan.link(chaos_link_id(0, 0)).crash_after(), Some(k) if k <= 2))
        .unwrap();

    let cbs = CbsScheme {
        samples: 8,
        seed: 1,
        report_audit: 0,
    };
    let ni = NiCbsScheme {
        samples: 8,
        g_iterations: 1,
        report_audit: 0,
        audit_seed: 2,
    };
    let naive = NaiveScheme {
        samples: 8,
        seed: 3,
    };
    let ringer = RingerScheme {
        ringers: 4,
        seed: 4,
    };
    let double_check = DoubleCheckScheme;
    let schemes: Vec<(&str, &dyn VerificationScheme<Sha256>, usize)> = vec![
        ("cbs", &cbs, 1),
        ("ni-cbs", &ni, 1),
        ("naive", &naive, 1),
        ("ringer", &ringer, 1),
        ("double-check", &double_check, 2),
    ];
    for (name, scheme, slots) in schemes {
        for transport in [TransportKind::Direct, TransportKind::Brokered] {
            #[expect(
                clippy::disallowed_methods,
                reason = "test-harness stopwatch — bounds how long the soak may take, asserts nothing semantic"
            )]
            let started = Instant::now();
            let err = run_mixed_fleet(
                &task,
                &screener,
                Domain::new(0, 32),
                &[spec(scheme, vec![&honest as &dyn WorkerBehaviour; slots])],
                &MixedFleetConfig {
                    transport,
                    chaos: Some(plan),
                    deadline: Some(Duration::from_secs(10)),
                    retries: 0,
                    ..MixedFleetConfig::default()
                },
            )
            .expect_err("a crashed participant must fail the session");
            assert!(
                matches!(
                    err,
                    SchemeError::Grid(GridError::Disconnected) | SchemeError::TimedOut
                ),
                "{name}/{transport:?}: unexpected error {err}"
            );
            assert!(
                started.elapsed() < Duration::from_secs(15),
                "{name}/{transport:?}: crash handling took {:?} — engine hang?",
                started.elapsed()
            );
        }
    }
}

/// A crashed session is reassigned to a fresh participant (with a fresh
/// fault schedule) and recovers — the restart half of crash/restart
/// churn.
#[test]
fn crashed_session_is_reassigned_and_recovers() {
    let task = PasswordSearch::with_hidden_password(3, 5);
    let screener = task.match_screener();
    let scheme = CbsScheme {
        samples: 10,
        seed: 6,
        report_audit: 0,
    };
    // Round 0's link crashes early; round 1's replacement link does not
    // crash at all.
    let plan = (0..)
        .map(|seed| FaultPlan::quiet(seed).with_churn(512))
        .find(|plan| {
            matches!(plan.link(chaos_link_id(0, 0)).crash_after(), Some(k) if k <= 2)
                && plan.link(chaos_link_id(1, 0)).crash_after().is_none()
        })
        .unwrap();
    let honest = HonestWorker;
    let summary = run_mixed_fleet(
        &task,
        &screener,
        Domain::new(0, 64),
        &[spec(&scheme, vec![&honest])],
        &MixedFleetConfig {
            transport: TransportKind::Brokered,
            chaos: Some(plan),
            deadline: Some(Duration::from_secs(10)),
            retries: 2,
            ..MixedFleetConfig::default()
        },
    )
    .expect("the reassigned attempt must succeed");
    let member = &summary.members[0];
    assert!(
        member.outcome.accepted,
        "verdict: {}",
        member.outcome.verdict
    );
    assert_eq!(member.attempts, 2, "exactly one reassignment expected");
    assert!(
        summary.fault_events.iter().any(
            |e| matches!(e, uncheatable_grid::grid::FaultEvent::Crashed { link, .. }
                if *link == chaos_link_id(0, 0))
        ),
        "the crash must be on the record: {:?}",
        summary.fault_events
    );
    assert_eq!(summary.throughput.sessions, 2);
}

/// A dropped message stalls its session; the per-session deadline fails
/// it with [`SchemeError::TimedOut`] instead of hanging, and a retry
/// (whose fresh link drops nothing) recovers.
#[test]
fn dropped_messages_time_out_and_reassignment_recovers() {
    let task = PasswordSearch::with_hidden_password(2, 4);
    let screener = task.match_screener();
    let scheme = CbsScheme {
        samples: 6,
        seed: 8,
        report_audit: 0,
    };
    use uncheatable_grid::grid::runtime::{FaultDecision, LinkDirection};
    // Round 0: the participant's very first inbound message (the
    // assignment) is dropped. Round 1: a fault-free dialogue.
    let plan = (0..)
        .map(|seed| FaultPlan::quiet(seed).with_drops(256))
        .find(|plan| {
            let round0 = plan.link(chaos_link_id(0, 0));
            let round1 = plan.link(chaos_link_id(1, 0));
            round0.decision(LinkDirection::Inbound, 0) == FaultDecision::Drop
                && (0..6).all(|seq| {
                    round1.decision(LinkDirection::Inbound, seq) == FaultDecision::Deliver
                        && round1.decision(LinkDirection::Outbound, seq) == FaultDecision::Deliver
                })
        })
        .unwrap();
    let honest = HonestWorker;
    let run = |retries: u32| {
        run_mixed_fleet(
            &task,
            &screener,
            Domain::new(0, 32),
            &[spec(&scheme, vec![&honest])],
            &MixedFleetConfig {
                transport: TransportKind::Brokered,
                chaos: Some(plan),
                deadline: Some(Duration::from_millis(400)),
                retries,
                ..MixedFleetConfig::default()
            },
        )
    };
    // Without retries the timeout surfaces as the campaign's error.
    #[expect(
        clippy::disallowed_methods,
        reason = "test-harness stopwatch — asserts the timeout fires promptly, not any semantic result"
    )]
    let started = Instant::now();
    let err = run(0).expect_err("a dropped assignment must time the session out");
    assert_eq!(err, SchemeError::TimedOut);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "timeout handling took {:?}",
        started.elapsed()
    );
    // With a retry the session is reassigned onto a clean link and lands.
    let summary = run(1).expect("the retry must recover the session");
    assert!(summary.members[0].outcome.accepted);
    assert_eq!(summary.members[0].attempts, 2);
}
