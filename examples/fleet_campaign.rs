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

use uncheatable_grid::core::{run_campaign, FleetScheme, MixedFleetConfig};
use uncheatable_grid::grid::{CheatSelection, HonestWorker, SemiHonestCheater, WorkerBehaviour};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::DrugScreening;
use uncheatable_grid::task::{ComputeTask, Domain, ZeroGuesser};

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

    let summary = run_campaign::<Sha256, _, _, _, _>(
        &lab,
        &screener,
        library,
        &fleet,
        &HonestWorker, // the trusted re-run pool
        FleetScheme::NiCbs {
            samples: 30,
            g_iterations: 1,
            report_audit: 2,
        },
        14, // base seed; each member's is derived from it
        &MixedFleetConfig::default(),
        4,
    )?;

    println!(
        "campaign over {} molecules, fleet of {} ({} rounds needed, complete: {})\n",
        library.len(),
        fleet.len(),
        summary.rounds.len(),
        summary.complete
    );
    for (i, round) in summary.rounds.iter().enumerate() {
        println!("round {}:", i + 1);
        for member in &round.members {
            println!(
                "  share {:>14}: {}",
                member.share.to_string(),
                member.outcome.verdict
            );
        }
    }
    println!(
        "\ncandidate molecules reported (verified): {}",
        summary.reports.len()
    );
    let ideal = library.len() * lab.unit_cost();
    let burned = summary.total_participant_f_evals();
    println!(
        "cycle bill: {} work units vs {} ideal (+{:.1}% — the price of cheating,\n\
         paid in re-runs rather than in corrupted science)",
        burned,
        ideal,
        100.0 * (burned as f64 / ideal as f64 - 1.0)
    );
    Ok(())
}
