//! Every synthetic workload through the full CBS pipeline: the schemes are
//! workload-generic (the paper's "generic computations" claim vs the
//! ringer scheme's one-way-only restriction).

use uncheatable_grid::core::scheme::{cbs::CbsScheme, ni_cbs::NiCbsScheme, run_round};
use uncheatable_grid::core::MixedFleetConfig;
use uncheatable_grid::grid::{CheatSelection, HonestWorker, SemiHonestCheater};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::{
    DrugScreening, PasswordSearch, PrimalitySearch, SetiSignal,
};
use uncheatable_grid::task::{ComputeTask, Domain, Screener, ZeroGuesser};

fn cbs_scheme(m: usize) -> CbsScheme {
    CbsScheme {
        samples: m,
        seed: 11,
        report_audit: 3,
    }
}

fn assert_honest_accepted<T: ComputeTask, S: Screener>(task: &T, screener: &S, n: u64) {
    let outcome = run_round::<Sha256>(
        &cbs_scheme(15),
        task,
        screener,
        Domain::new(0, n),
        &[&HonestWorker],
        &MixedFleetConfig::default(),
    )
    .unwrap();
    assert!(outcome.accepted, "honest {} rejected", task.name());
}

fn assert_cheater_caught<T: ComputeTask, S: Screener>(task: &T, screener: &S, n: u64) {
    let cheater = SemiHonestCheater::new(0.3, CheatSelection::Scattered, ZeroGuesser::new(2), 7);
    let outcome = run_round::<Sha256>(
        &cbs_scheme(25),
        task,
        screener,
        Domain::new(0, n),
        &[&cheater],
        &MixedFleetConfig::default(),
    )
    .unwrap();
    assert!(!outcome.accepted, "cheater on {} not caught", task.name());
}

#[test]
fn password_search_cbs() {
    let task = PasswordSearch::with_hidden_password(1, 100);
    let screener = task.match_screener();
    assert_honest_accepted(&task, &screener, 512);
    assert_cheater_caught(&task, &screener, 512);
}

#[test]
fn primality_search_cbs() {
    let task = PrimalitySearch::new(1_000_001, 2);
    // Screen for primes: verdict byte 1.
    struct Primes;
    impl Screener for Primes {
        fn screen(&self, x: u64, fx: &[u8]) -> Option<uncheatable_grid::task::ScreenReport> {
            (fx.first() == Some(&1)).then(|| uncheatable_grid::task::ScreenReport {
                input: x,
                payload: fx.to_vec(),
            })
        }
    }
    assert_honest_accepted(&task, &Primes, 400);
    assert_cheater_caught(&task, &Primes, 400);
}

#[test]
fn seti_signal_cbs() {
    let task = SetiSignal::new(5);
    let screener = task.screener();
    assert_honest_accepted(&task, &screener, 256);
    assert_cheater_caught(&task, &screener, 256);
}

#[test]
fn drug_screening_cbs() {
    let task = DrugScreening::new(9);
    let screener = task.screener();
    assert_honest_accepted(&task, &screener, 256);
    assert_cheater_caught(&task, &screener, 256);
}

#[test]
fn seti_reports_match_local_screening() {
    // The screened reports delivered through the protocol equal what a
    // local evaluation would flag.
    let task = SetiSignal::new(31);
    let screener = task.screener();
    let n = 600;
    let outcome = run_round::<Sha256>(
        &NiCbsScheme {
            samples: 10,
            g_iterations: 1,
            report_audit: 5,
            audit_seed: 0,
        },
        &task,
        &screener,
        Domain::new(0, n),
        &[&HonestWorker],
        &MixedFleetConfig::default(),
    )
    .unwrap();
    assert!(outcome.accepted);
    let local: Vec<u64> = (0..n)
        .filter(|&x| screener.screen(x, &task.compute(x)).is_some())
        .collect();
    let via_protocol: Vec<u64> = outcome.reports.iter().map(|r| r.input).collect();
    assert_eq!(via_protocol, local);
}

#[test]
fn primality_witness_output_foils_simple_flag_guessing() {
    // The 16-byte output (verdict + witness) makes blind guessing fail even
    // if the cheater guesses the verdict bit right: a composite's witness
    // is a specific Miller–Rabin base.
    let task = PrimalitySearch::new(1_000_001, 2);
    let composite_with_flag_guess = |x: u64| {
        let mut fake = vec![0u8; 16];
        // Suppose the cheater knows composites dominate and guesses "0".
        fake[0] = 0;
        fake == task.compute(x)
    };
    let correct_blind_guesses = (0..200u64)
        .filter(|&x| composite_with_flag_guess(x))
        .count();
    // The verdict alone would be right ~85% of the time; with the witness
    // the full output is essentially never right.
    assert_eq!(correct_blind_guesses, 0);
}
