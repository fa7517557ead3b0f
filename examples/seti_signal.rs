//! SETI@home, uncheatable: the paper's opening example.
//!
//! Participants analyse synthetic radio chunks for narrowband carriers;
//! "top-contributor" cheaters (the behaviour SETI@home actually reported)
//! fake a fraction of their chunks. NI-CBS verifies each work unit without
//! the supervisor re-receiving — or re-computing — the whole unit, and the
//! run shows what the cheater's laziness would have cost science: planted
//! signals in the faked region go unreported.
//!
//! Run: `cargo run --release --example seti_signal`

use uncheatable_grid::core::scheme::{ni_cbs::NiCbsScheme, run_round};
use uncheatable_grid::core::MixedFleetConfig;
use uncheatable_grid::grid::{CheatSelection, HonestWorker, SemiHonestCheater};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::SetiSignal;
use uncheatable_grid::task::{ComputeTask, Domain, Screener, ZeroGuesser};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let telescope = SetiSignal::new(1977); // the year of the Wow! signal
    let screener = telescope.screener();
    let work_unit = Domain::new(0, 2_000);
    let scheme = NiCbsScheme {
        samples: 40,
        g_iterations: 1,
        report_audit: 0,
        audit_seed: 0,
    };

    // Ground truth, for the narration only.
    let planted: Vec<u64> = work_unit
        .inputs()
        .filter(|&x| telescope.has_planted_signal(x))
        .collect();
    println!(
        "work unit: {} chunks, {} carry planted carriers\n",
        work_unit.len(),
        planted.len()
    );

    println!("== Honest analysis (NI-CBS verified) ==");
    let outcome = run_round::<Sha256>(
        &scheme,
        &telescope,
        &screener,
        work_unit,
        &[&HonestWorker],
        &MixedFleetConfig::default(),
    )?;
    println!("verdict: {}", outcome.verdict);
    let mut found: Vec<u64> = outcome.reports.iter().map(|r| r.input).collect();
    found.sort_unstable();
    let true_hits = found.iter().filter(|x| planted.contains(x)).count();
    println!(
        "detections reported: {} ({} of them planted carriers)",
        found.len(),
        true_hits
    );
    println!(
        "DFT work: {} chunk analyses, {} tree hashes, {} B uploaded\n",
        outcome.participant_costs.f_evals / telescope.unit_cost(),
        outcome.participant_costs.hash_ops,
        outcome.supervisor_link.bytes_received
    );

    println!("== Leaderboard chaser (fakes 40% of chunks) ==");
    let cheater = SemiHonestCheater::new(0.6, CheatSelection::Scattered, ZeroGuesser::new(8), 42);
    let outcome = run_round::<Sha256>(
        &scheme,
        &telescope,
        &screener,
        work_unit,
        &[&cheater],
        &MixedFleetConfig::default(),
    )?;
    println!("verdict: {}", outcome.verdict);
    // What would have been lost had the cheating gone undetected: planted
    // signals in chunks the cheater never analysed.
    let missed = planted
        .iter()
        .filter(|&&x| {
            let truth = telescope.compute(x);
            // The cheater's committed value for x differs from the truth iff
            // it guessed there; a guessed chunk can't report a real carrier.
            outcome.reports.iter().all(|r| r.input != x) && screener.screen(x, &truth).is_some()
        })
        .count();
    println!(
        "science at risk: {missed} planted carriers sat in chunks the cheater faked or \
         mis-screened"
    );
    println!(
        "cheater evaluated only {} of {} chunks before NI-CBS rejected the unit",
        outcome.participant_costs.f_evals / telescope.unit_cost(),
        work_unit.len()
    );
    Ok(())
}
