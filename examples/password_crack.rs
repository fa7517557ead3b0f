//! The paper's Section 3 motivating scenario: brute-force password search
//! distributed over several participants, one of whom cheats.
//!
//! The supervisor partitions a 2¹⁶ key space over four participants (the
//! Section 2.1 partition), runs interactive CBS against each, and compares
//! the result with the Golle–Mironov ringer scheme — the related-work
//! baseline that also works here because password hashing is one-way.
//!
//! Run: `cargo run --release --example password_crack`

use uncheatable_grid::core::scheme::{cbs::CbsScheme, ringer::RingerScheme, run_round};
use uncheatable_grid::core::MixedFleetConfig;
use uncheatable_grid::grid::{CheatSelection, HonestWorker, SemiHonestCheater, WorkerBehaviour};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{Domain, ZeroGuesser};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let task = PasswordSearch::with_hidden_password(9000, 51_200); // hidden in participant 3's share
    let screener = task.match_screener();
    let key_space = Domain::new(0, 1 << 16);
    let shares = key_space.split(4)?;

    // Participant 2 computes only 70% of its share and fakes the rest.
    let cheater = SemiHonestCheater::new(0.7, CheatSelection::Scattered, ZeroGuesser::new(4), 22);
    let honest = HonestWorker;
    let behaviours: Vec<&dyn WorkerBehaviour> = vec![&honest, &honest, &cheater, &honest];

    println!("CBS over 4 participants, 2^16 keys, m = 25 samples each:\n");
    let mut password = None;
    for (i, (share, behaviour)) in shares.iter().zip(&behaviours).enumerate() {
        let outcome = run_round::<Sha256>(
            &CbsScheme {
                samples: 25,
                seed: 1000 + i as u64,
                report_audit: 0,
            },
            &task,
            &screener,
            *share,
            &[*behaviour],
            &MixedFleetConfig::default(),
        )?;
        println!(
            "participant {i}: share {share}, behaviour {:<11} → {}",
            behaviour.name(),
            outcome.verdict
        );
        if let Some(report) = outcome.reports.first() {
            password = Some(report.input);
        }
    }
    match password {
        Some(x) => println!("\npassword recovered: x = {x}"),
        None => println!("\npassword not in the accepted shares — reassign the rejected share!"),
    }

    println!("\nSame scenario under the ringer scheme (d = 25 ringers each):\n");
    for (i, (share, behaviour)) in shares.iter().zip(&behaviours).enumerate() {
        let outcome = run_round::<Sha256>(
            &RingerScheme {
                ringers: 25,
                seed: 2000 + i as u64,
            },
            &task,
            &screener,
            *share,
            &[*behaviour],
            &MixedFleetConfig::default(),
        )?;
        println!(
            "participant {i}: behaviour {:<11} → {} (supervisor pre-paid {} f-evals)",
            behaviour.name(),
            outcome.verdict,
            outcome.supervisor_costs.f_evals
        );
    }
    println!(
        "\nTrade-off reproduced: ringers are cheaper on the wire but the supervisor\n\
         pays d evaluations per participant up front, and the trick only works for\n\
         one-way f — CBS handles generic computations."
    );
    Ok(())
}
