//! A full verification campaign: detection is only half the story — the
//! supervisor must also *recover* the tainted shares.
//!
//! Eight participants (two of them cheaters with different laziness
//! levels) screen a drug library under NI-CBS. Rejected shares are
//! reassigned to a trusted fallback pool in follow-up rounds until the
//! whole library is verifiably screened. The run prints the per-round
//! verdict map and the total cycle bill — the cost cheating imposes on
//! the grid.
//!
//! Run: `cargo run --release --example fleet_campaign`

use uncheatable_grid::core::scheme::run_round;
use uncheatable_grid::core::{run_mixed_fleet, FleetScheme, MemberSpec, MixedFleetConfig};
use uncheatable_grid::grid::{CheatSelection, HonestWorker, SemiHonestCheater, WorkerBehaviour};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::DrugScreening;
use uncheatable_grid::task::{ComputeTask, Domain, ZeroGuesser};

/// Rounds the campaign may take before it gives up on a share.
const MAX_ROUNDS: u64 = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lab = DrugScreening::new(2026);
    let screener = lab.screener();
    let library = Domain::new(0, 8 * 600);

    let honest = HonestWorker;
    let slacker = SemiHonestCheater::new(0.8, CheatSelection::Scattered, ZeroGuesser::new(1), 10);
    let freeloader =
        SemiHonestCheater::new(0.1, CheatSelection::Scattered, ZeroGuesser::new(2), 11);
    let fleet: Vec<&dyn WorkerBehaviour> = vec![
        &honest,
        &honest,
        &slacker,
        &honest,
        &freeloader,
        &honest,
        &honest,
        &honest,
    ];
    let scheme = FleetScheme::NiCbs {
        samples: 30,
        g_iterations: 1,
        report_audit: 2,
    };
    let seed = 14; // base seed; each member's is derived from it
    let config = MixedFleetConfig::default();

    // Round 1: the whole fleet over the whole library.
    let schemes = scheme.instantiate_fleet::<Sha256>(seed, fleet.len());
    let members: Vec<MemberSpec<'_, Sha256>> = schemes
        .iter()
        .zip(&fleet)
        .map(|(member, &worker)| MemberSpec {
            scheme: member.as_ref(),
            behaviours: vec![worker],
        })
        .collect();
    let first = run_mixed_fleet(&lab, &screener, library, &members, &config)?;
    let verdict_line = |share: Domain, verdict: &dyn std::fmt::Display| {
        format!("  share {:>14}: {verdict}", share.to_string())
    };
    let mut rounds: Vec<Vec<String>> = vec![first
        .members
        .iter()
        .map(|m| verdict_line(m.share, &m.outcome.verdict))
        .collect()];
    let mut reports = first.reports.clone();
    let mut burned: u64 = first
        .members
        .iter()
        .map(|m| m.outcome.participant_costs.f_evals)
        .sum();
    let mut pending = first.shares_to_reassign();

    // Later rounds: each tainted share goes, whole, to the trusted pool
    // (re-splitting is unnecessary — shares are already participant-sized),
    // under a scheme seed derived afresh for the round.
    for round in 2..=MAX_ROUNDS {
        if pending.is_empty() {
            break;
        }
        let reseed = seed.wrapping_add(round).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut tainted = Vec::new();
        for share in pending {
            let member = scheme.instantiate_fleet::<Sha256>(reseed, 1).remove(0);
            let outcome = run_round(member.as_ref(), &lab, &screener, share, &[&honest], &config)?;
            rounds.push(vec![verdict_line(share, &outcome.verdict)]);
            burned += outcome.participant_costs.f_evals;
            if outcome.accepted {
                reports.extend(outcome.reports);
            } else {
                tainted.push(share);
            }
        }
        pending = tainted;
    }
    reports.sort_by_key(|r| r.input);
    reports.dedup();

    println!(
        "campaign over {} molecules, fleet of {} ({} rounds needed, complete: {})\n",
        library.len(),
        fleet.len(),
        rounds.len(),
        pending.is_empty()
    );
    for (i, round) in rounds.iter().enumerate() {
        println!("round {}:", i + 1);
        for line in round {
            println!("{line}");
        }
    }
    println!(
        "\ncandidate molecules reported (verified): {}",
        reports.len()
    );
    let ideal = library.len() * lab.unit_cost();
    println!(
        "cycle bill: {} work units vs {} ideal (+{:.1}% — the price of cheating,\n\
         paid in re-runs rather than in corrupted science)",
        burned,
        ideal,
        100.0 * (burned as f64 / ideal as f64 - 1.0)
    );
    Ok(())
}
