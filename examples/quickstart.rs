//! Quickstart: one interactive CBS round, narrated.
//!
//! Reproduces the Fig. 1 story of the paper on a small domain: a
//! supervisor assigns a password-search task, the participant commits a
//! Merkle tree over its results, the supervisor samples and verifies.
//! Then the same round is run against a half-honest cheater, who is
//! caught.
//!
//! Run: `cargo run --example quickstart`

use uncheatable_grid::core::scheme::{cbs::CbsScheme, run_round};
use uncheatable_grid::core::MixedFleetConfig;
use uncheatable_grid::grid::{CheatSelection, HonestWorker, SemiHonestCheater};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{Domain, ZeroGuesser};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The supervisor wants f(x) = MD5(salt‖x) for one million… well, 4096
    // keys, hunting for the one that hashes to a known target.
    let task = PasswordSearch::with_hidden_password(2024, 1337);
    let screener = task.match_screener();
    let domain = Domain::new(0, 4096);
    let scheme = CbsScheme {
        samples: 30,
        seed: 7,
        report_audit: 0,
    };

    println!("== Honest participant ==");
    let outcome = run_round::<Sha256>(
        &scheme,
        &task,
        &screener,
        domain,
        &[&HonestWorker],
        &MixedFleetConfig::default(),
    )?;
    println!("verdict:          {}", outcome.verdict);
    println!(
        "password found:   x = {} (reported by the screener)",
        outcome.reports[0].input
    );
    println!(
        "traffic:          {} B down, {} B up (vs {} B for a naive full upload)",
        outcome.supervisor_link.bytes_sent,
        outcome.supervisor_link.bytes_received,
        4096 * 16,
    );
    println!(
        "supervisor work:  {} f-evals ({} sampled checks) — not 4096",
        outcome.supervisor_costs.f_evals, outcome.supervisor_costs.verify_ops,
    );

    println!("\n== Semi-honest cheater (r = 0.5) ==");
    let cheater = SemiHonestCheater::new(0.5, CheatSelection::Scattered, ZeroGuesser::new(3), 99);
    let outcome = run_round::<Sha256>(
        &scheme,
        &task,
        &screener,
        domain,
        &[&cheater],
        &MixedFleetConfig::default(),
    )?;
    println!("verdict:          {}", outcome.verdict);
    println!(
        "cheater's saving: computed only {} of 4096 evaluations before being caught",
        outcome.participant_costs.f_evals,
    );
    println!(
        "detection theory: Pr[survive 30 samples] = 0.5^30 ≈ {:.1e}",
        0.5f64.powi(30),
    );
    Ok(())
}
