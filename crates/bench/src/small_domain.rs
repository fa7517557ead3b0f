//! The paper's **Section 5 open problem**: CBS degrades as `|D|` shrinks.
//! "When |D| = 1 … the cost of verifying a sample is as expensive as
//! conducting the task. Therefore, the scheme is no better than the naive
//! double-check-every-result scheme."
//!
//! We sweep the per-participant domain size downward at fixed sample count
//! and report the supervisor's verification work as a fraction of the
//! task — the quantity that explodes to ≥ 1 at tiny domains — plus the
//! commitment overhead per useful result.

use crate::Table;
use crate::{round, Report};
use ugc_core::scheme::cbs::CbsScheme;
use ugc_core::ParticipantStorage::Full;
use ugc_grid::HonestWorker;
use ugc_task::workloads::PasswordSearch;
use ugc_task::{ComputeTask, Domain};

pub(crate) fn run(report: &mut Report) {
    report.say("Section 5 — CBS efficiency collapses on small per-participant domains\n");
    let task = PasswordSearch::with_hidden_password(11, 0);

    let mut table = Table::new(
        "n per task|m used|sup f-evals|sup/task ratio|commit hashes|bytes moved|bytes/task-byte"
            .split('|'),
    );
    let mut ratios = Vec::new();
    for bits in [14u32, 10, 6, 3, 1, 0] {
        let n = 1u64 << bits;
        // The supervisor cannot sample more than is useful; m caps at n.
        let m = 20usize.min(n as usize);
        let scheme = CbsScheme {
            samples: m,
            seed: 5,
            report_audit: 0,
        };
        let outcome = round(&scheme, &task, Domain::new(0, n), &[&HonestWorker], Full);
        report.check(
            format!("small_domain n={n}: the honest round is accepted"),
            outcome.accepted,
        );
        let f_evals = outcome.supervisor_costs.f_evals;
        let ratio = f_evals as f64 / (n * task.unit_cost()) as f64;
        ratios.push(ratio);
        let moved = outcome.supervisor_link.bytes_received + outcome.supervisor_link.bytes_sent;
        let hashes = outcome.participant_costs.hash_ops;
        let per_byte = moved as f64 / (n * 16) as f64;
        table.push(
            format!("{n}|{m}|{f_evals}|{ratio:.2}|{hashes}|{moved}|{per_byte:.1}").split('|'),
        );
    }
    report.table(&table);
    report.check(
        "small_domain: the supervisor's share never falls as n shrinks",
        ratios.windows(2).all(|w| w[0] <= w[1]),
    );
    report.check(
        "small_domain: about 0.1% of the task at n = 2^14, all of it at n = 1",
        ratios[0] < 0.002 && ratios.last() == Some(&1.0),
    );
    report.conclude(
        "Shape reproduced: at n = 2^14 the supervisor re-does ~0.1% of the task;\n\
         at n = 1 it re-does 100% — exactly the naive double-check, as §5 observes.\n\
         Efficient verification for tiny |D| is the paper's stated open problem.",
    );
}
