//! The Section 4 scenario: a GRACE-style Grid Resource Broker stands
//! between supervisor and participants, so interactive CBS's
//! commit → challenge round-trip is impossible — NI-CBS to the rescue.
//!
//! Three participants run on their own threads behind the broker. The
//! supervisor never addresses them directly; it just pushes assignments
//! and receives single-shot commit-and-proof bundles routed back by task
//! id. One participant is a cheater and is rejected. Finally the retry
//! attack is run and priced out with the Eq. (5) hardened generator.
//!
//! Run: `cargo run --release --example broker_noninteractive`

use uncheatable_grid::core::analysis::{min_g_cost_for_uncheatability, ni_expected_attempts};
use uncheatable_grid::core::scheme::ni_cbs::{
    retry_attack, verify_ni_round, NiCbsScheme, RetryAttackConfig,
};
use uncheatable_grid::core::session::drive_participant;
use uncheatable_grid::core::{
    LaneWidth, Parallelism, ParticipantContext, ParticipantStorage, SchemeError, SupervisorContext,
    Verdict, VerificationScheme,
};
use uncheatable_grid::grid::{
    duplex, Assignment, Broker, CheatSelection, CostLedger, Endpoint, GridLink, HonestWorker,
    LinkStats, Message, SemiHonestCheater, WorkerBehaviour,
};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::PrimalitySearch;
use uncheatable_grid::task::{Domain, Screener, ZeroGuesser};

const M: usize = 25;
const G_ITER: u64 = 1;
/// What both sides of the broker run.
const SCHEME: NiCbsScheme = NiCbsScheme {
    samples: M,
    g_iterations: G_ITER,
    report_audit: 0,
    audit_seed: 0,
};

/// Receives the routed-back bundles and verifies each task once its
/// commit bundle and reports are both in, answering with the verdict.
/// Tasks interleave however their participants finish; each task's own
/// messages arrive in order. Every message is charged to `traffic`.
fn collect_tasks(
    endpoint: &Endpoint,
    task: &PrimalitySearch,
    screener: &dyn Screener,
    shares: &[Domain],
    ledger: &CostLedger,
    traffic: &mut LinkStats,
) -> Result<Vec<(u64, Verdict)>, SchemeError> {
    let mut bundles = vec![None; shares.len()];
    let mut verdicts = Vec::new();
    while verdicts.len() < shares.len() {
        let msg = endpoint.recv()?;
        traffic.bytes_received += msg.charged();
        let Some(share) = usize::try_from(msg.task_id())
            .ok()
            .filter(|&k| k < shares.len())
        else {
            continue;
        };
        match msg {
            Message::CommitAndProofs { root, proofs, .. } => bundles[share] = Some((root, proofs)),
            Message::Reports { task_id, reports } => {
                let (root, proofs) =
                    bundles[share]
                        .take()
                        .ok_or(SchemeError::UnexpectedMessage {
                            expected: "CommitAndProofs".into(),
                            got: "Reports".into(),
                        })?;
                // The opening carries no indices: it is read as the answer
                // to the samples the commitment derives (Eq. 4), and to no
                // others.
                let ctx = SupervisorContext {
                    task,
                    screener,
                    domain: shares[share],
                    task_ids: vec![task_id],
                    ledger: ledger.clone(),
                };
                let verdict = verify_ni_round::<Sha256>(&SCHEME, &ctx, &root, &proofs, &reports)?;
                let answer = Message::Verdict {
                    task_id,
                    accepted: verdict.is_accepted(),
                };
                endpoint.send(&answer)?;
                traffic.bytes_sent += answer.charged();
                verdicts.push((task_id, verdict));
            }
            // A participant that got its verdict hangs up, and the broker
            // NACKs its finished task.
            _ => {}
        }
    }
    verdicts.sort_by_key(|&(task_id, _)| task_id);
    Ok(verdicts)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Hunting primes among odd numbers near 10^12 (GIMPS-flavoured).
    let task = PrimalitySearch::new(1_000_000_000_001, 2);
    let prime_screener = PrimeScreener;
    let search_space = Domain::new(0, 3 * 4096);
    let shares = search_space.split(3)?;

    // Wire up: supervisor ↔ broker ↔ 3 participants.
    let (sup_ep, broker_up) = duplex();
    let mut broker_down = Vec::new();
    let mut part_eps = Vec::new();
    for _ in 0..3 {
        let (b, p) = duplex();
        broker_down.push(b);
        part_eps.push(p);
    }
    let broker = Broker::new(broker_up, broker_down);

    let honest = HonestWorker;
    let cheater = SemiHonestCheater::new(0.5, CheatSelection::Scattered, ZeroGuesser::new(5), 77);
    let behaviours: Vec<&dyn WorkerBehaviour> = vec![&honest, &cheater, &honest];
    let sup_ledger = CostLedger::new();

    let (verdicts, relay, traffic) = std::thread::scope(|scope| -> Result<_, SchemeError> {
        // The broker relays, one thread per link, until the supervisor
        // hangs up.
        let relay = scope.spawn(move || broker.relay());
        // Participants: blind NI-CBS workers behind the broker.
        for (ep, behaviour) in part_eps.iter().zip(behaviours) {
            let task = &task;
            scope.spawn(move || {
                // Participants learn the task id from the Assign.
                let mut session = VerificationScheme::<Sha256>::participant_session(
                    &SCHEME,
                    ParticipantContext {
                        task,
                        screener: &PrimeScreener,
                        behaviour,
                        storage: ParticipantStorage::Full,
                        parallelism: Parallelism::default(),
                        lanes: LaneWidth::default(),
                        ledger: CostLedger::new(),
                    },
                );
                drive_participant(ep, session.as_mut())
            });
        }
        // Supervisor: push three assignments into the broker, then verify
        // each routed-back bundle and answer with its verdict.
        let mut traffic = LinkStats::default();
        for (task_id, &domain) in (0u64..).zip(&shares) {
            let assign = Message::Assign(Assignment { task_id, domain });
            sup_ep.send(&assign)?;
            traffic.bytes_sent += assign.charged();
        }
        let verdicts = collect_tasks(
            &sup_ep,
            &task,
            &prime_screener,
            &shares,
            &sup_ledger,
            &mut traffic,
        )?;
        drop(sup_ep); // hang up: the relay ends and returns
        Ok((
            verdicts,
            relay.join().expect("broker relay panicked"),
            traffic,
        ))
    })?;

    println!("Brokered NI-CBS round (supervisor never saw a participant):\n");
    for (task_id, verdict) in &verdicts {
        println!("task {task_id}: {verdict}");
    }
    println!(
        "\nbroker relayed {} outward / {} inward messages; supervisor traffic: {} B out, {} B in",
        relay.outward, relay.inward, traffic.bytes_sent, traffic.bytes_received
    );

    println!("\n== Why the non-interactive scheme needs a hardened g ==");
    let r: f64 = 0.5;
    let small_m = 6;
    println!(
        "with m = {small_m}, a cheater expects r^-m = {} retry attempts:",
        ni_expected_attempts(r, small_m as u64)
    );
    let attacker = SemiHonestCheater::new(r, CheatSelection::Prefix, ZeroGuesser::new(1), 1);
    let outcome = retry_attack::<Sha256, _, _>(
        &task,
        Domain::new(0, 1 << 10),
        &attacker,
        &RetryAttackConfig {
            samples: small_m,
            g_iterations: 1,
            max_attempts: 1_000_000,
        },
    )?;
    println!(
        "measured: succeeded after {} attempts, spending {} unit hashes — \
         far less than honestly computing the other half",
        outcome.attempts,
        outcome.g_unit_hashes + outcome.tree_hashes
    );
    let c_g = min_g_cost_for_uncheatability(r, small_m as u64, 1 << 10, 12);
    println!(
        "Eq. (5) defence: set g = MD5^k with k ≥ {:.0}; then the expected attack \
         cost exceeds the task's {} work units",
        c_g.ceil(),
        (1u64 << 10) * 12
    );
    Ok(())
}

/// Screens for inputs whose primality verdict is 1.
#[derive(Clone, Copy)]
struct PrimeScreener;

impl Screener for PrimeScreener {
    fn screen(&self, x: u64, fx: &[u8]) -> Option<uncheatable_grid::task::ScreenReport> {
        (fx.len() == 16 && fx[0] == 1).then(|| uncheatable_grid::task::ScreenReport {
            input: x,
            payload: fx.to_vec(),
        })
    }
}
