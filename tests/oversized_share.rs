//! A share too large to hold is a typed error before any work is done.
//!
//! `n` is outside input — a command line, a relay's `Welcome`, a journal
//! header — and the participant's leaf row is `n · width` bytes. That
//! product used to be taken unchecked: at 2⁶⁰ leaves it wrapped to an
//! empty row and the first write panicked, at 2⁶⁴ − 1 the allocation
//! panicked, and a cheater's row, sized by the wrapped product, grew for
//! hours. Now the row is reserved first, and a share that cannot have
//! one fails with `InvalidConfig` while the ledger still reads zero `f`.

use std::process::{Command, Output};
use uncheatable_grid::core::{
    FleetScheme, LaneWidth, Parallelism, ParticipantContext, ParticipantStorage, SchemeError,
};
use uncheatable_grid::grid::{
    Assignment, CheatSelection, CostLedger, HonestWorker, Message, SemiHonestCheater,
    WorkerBehaviour,
};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{ComputeTask, Domain, ZeroGuesser};

/// 2⁶⁰ leaves of 16 bytes: the row's byte count overflows `u64`.
const HUGE: u64 = 1 << 60;

fn ugc(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ugc"))
        .args(args.split_whitespace())
        .output()
        .expect("ugc binary runs")
}

#[test]
fn overflowing_shares_print_usage_and_fail() {
    for args in [
        "run --scheme cbs --workload password --n 1152921504606846976 --m 1",
        "run --scheme cbs --workload password --n 18446744073709551615 --m 1",
        "run --scheme cbs --workload password --n 1152921504606846977 --m 1 --cheat 0.5",
        "fleet --participants 2 --n 2305843009213693952 --m 1",
    ] {
        let out = ugc(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {err}");
        assert!(
            err.contains("error: invalid configuration: share too large"),
            "{args}: {err}"
        );
        assert!(err.contains("usage: ugc"), "{args}: {err}");
        assert!(!err.contains("panicked"), "{args}: {err}");
    }
}

#[test]
fn leaf_row_refuses_an_unallocatable_share_before_evaluating_f() {
    let task = PasswordSearch::with_hidden_password(3, 40);
    let cheater = SemiHonestCheater::new(0.5, CheatSelection::Scattered, ZeroGuesser::new(16), 1);
    // The honest override and the trait's default (the cheater's).
    for behaviour in [&HonestWorker as &dyn WorkerBehaviour, &cheater] {
        for len in [HUGE, u64::MAX] {
            let ledger = CostLedger::new();
            let row = behaviour.leaf_row(&task, Domain::new(0, len), &ledger);
            assert_eq!(row, Ok(None), "{} over {len} leaves", behaviour.name());
            assert_eq!(ledger.report().f_evals, 0, "{}", behaviour.name());
        }
    }
}

#[test]
fn every_scheme_fails_the_commit_with_invalid_config() {
    let task = PasswordSearch::with_hidden_password(3, 40);
    let screener = task.match_screener();
    let schemes = [
        FleetScheme::Cbs {
            samples: 6,
            report_audit: 0,
        },
        FleetScheme::NiCbs {
            samples: 6,
            g_iterations: 1,
            report_audit: 0,
        },
        FleetScheme::Naive { samples: 6 },
        FleetScheme::Ringer { ringers: 4 },
        FleetScheme::DoubleCheck,
    ];
    for scheme in schemes {
        let scheme = scheme.instantiate::<Sha256>(7);
        let ledger = CostLedger::new();
        let mut session = scheme.participant_session(ParticipantContext {
            task: &task,
            screener: &screener,
            behaviour: &HonestWorker,
            storage: ParticipantStorage::Full,
            parallelism: Parallelism::serial(),
            lanes: LaneWidth::default(),
            ledger: ledger.clone(),
        });
        let domain = Domain::new(0, HUGE);
        let mut result = session.on_message(Message::Assign(Assignment { task_id: 9, domain }));
        if result.as_ref().is_ok_and(Vec::is_empty) {
            // The ringer participant evaluates once it has the ringers.
            result = session.on_message(Message::RingerChallenge {
                task_id: 9,
                ringers: vec![task.compute(3)],
            });
        }
        assert!(
            matches!(result, Err(SchemeError::InvalidConfig { .. })),
            "{}: {result:?}",
            scheme.name()
        );
        assert_eq!(ledger.report().f_evals, 0, "{}", scheme.name());
    }
}
