//! **Theorem 1 (Soundness)** across every scheme: an honest participant is
//! always accepted, for arbitrary domains, sample counts, storage modes
//! and hash functions.

use proptest::prelude::*;
use uncheatable_grid::core::scheme::{
    cbs::CbsScheme, double_check::DoubleCheckScheme, naive::NaiveScheme, ni_cbs::NiCbsScheme,
    ringer::RingerScheme, run_round,
};
use uncheatable_grid::core::{MixedFleetConfig, ParticipantStorage, VerificationScheme};
use uncheatable_grid::grid::{HonestWorker, WorkerBehaviour};
use uncheatable_grid::hash::{HashFunction, Md5, Sha256};
use uncheatable_grid::merkle::tree_height;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::Domain;

/// Whether one stand-alone round of `scheme` over `0..n` accepts honest
/// participants in every slot.
fn honest_accepted<H: HashFunction>(
    scheme: &dyn VerificationScheme<H>,
    task: &PasswordSearch,
    n: u64,
    storage: ParticipantStorage,
) -> bool {
    let config = MixedFleetConfig {
        storage,
        ..MixedFleetConfig::default()
    };
    let honest = vec![&HonestWorker as &dyn WorkerBehaviour; scheme.participant_slots()];
    let screener = task.match_screener();
    run_round(scheme, task, &screener, Domain::new(0, n), &honest, &config)
        .unwrap()
        .accepted
}

const FULL: ParticipantStorage = ParticipantStorage::Full;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cbs_accepts_honest(n in 1u64..300, m in 1usize..40, seed in any::<u64>()) {
        let task = PasswordSearch::with_hidden_password(seed, n / 2);
        let scheme = CbsScheme { samples: m, seed, report_audit: 2 };
        prop_assert!(honest_accepted::<Sha256>(&scheme, &task, n, FULL));
    }

    #[test]
    fn cbs_partial_accepts_honest(n in 2u64..300, m in 1usize..20,
                                  ell_seed in any::<u32>(), seed in any::<u64>()) {
        let task = PasswordSearch::with_hidden_password(seed, 0);
        let subtree_height = 1 + ell_seed % tree_height(n);
        let scheme = CbsScheme { samples: m, seed, report_audit: 0 };
        let partial = ParticipantStorage::Partial { subtree_height };
        prop_assert!(honest_accepted::<Sha256>(&scheme, &task, n, partial));
    }

    #[test]
    fn ni_cbs_accepts_honest(n in 1u64..300, m in 1usize..40,
                             k in 1u64..8, seed in any::<u64>()) {
        let task = PasswordSearch::with_hidden_password(seed, 0);
        let scheme = NiCbsScheme {
            samples: m,
            g_iterations: k,
            report_audit: 1,
            audit_seed: seed,
        };
        prop_assert!(honest_accepted::<Md5>(&scheme, &task, n, FULL));
    }

    #[test]
    fn naive_accepts_honest(n in 1u64..300, m in 1usize..40, seed in any::<u64>()) {
        let task = PasswordSearch::with_hidden_password(seed, 0);
        let scheme = NaiveScheme { samples: m, seed };
        prop_assert!(honest_accepted::<Sha256>(&scheme, &task, n, FULL));
    }

    #[test]
    fn ringer_accepts_honest(n in 8u64..300, d in 1usize..8, seed in any::<u64>()) {
        let task = PasswordSearch::with_hidden_password(seed, 1);
        let scheme = RingerScheme { ringers: d, seed };
        prop_assert!(honest_accepted::<Sha256>(&scheme, &task, n, FULL));
    }

    #[test]
    fn double_check_accepts_honest_pair(n in 1u64..200, seed in any::<u64>()) {
        let task = PasswordSearch::with_hidden_password(seed, 0);
        prop_assert!(honest_accepted::<Sha256>(&DoubleCheckScheme, &task, n, FULL));
    }
}

#[test]
fn soundness_holds_for_every_hash_function() {
    let task = PasswordSearch::with_hidden_password(4, 8);
    let scheme = CbsScheme {
        samples: 12,
        seed: 9,
        report_audit: 0,
    };
    assert!(honest_accepted::<Md5>(&scheme, &task, 100, FULL));
    assert!(honest_accepted::<Sha256>(&scheme, &task, 100, FULL));
}

#[test]
fn soundness_holds_for_offset_domains() {
    // Domains need not start at zero (participants get sub-ranges).
    let task = PasswordSearch::with_hidden_password(4, 5_000_010);
    let screener = task.match_screener();
    let outcome = run_round::<Sha256>(
        &CbsScheme {
            samples: 10,
            seed: 3,
            report_audit: 0,
        },
        &task,
        &screener,
        Domain::new(5_000_000, 64),
        &[&HonestWorker],
        &MixedFleetConfig::default(),
    )
    .unwrap();
    assert!(outcome.accepted);
    assert_eq!(outcome.reports[0].input, 5_000_010);
}
