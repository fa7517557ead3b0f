//! `WorkerBehaviour::leaf_row` is the batched form of `leaf_value`: for
//! every behaviour it must yield the same bytes and charge the ledger the
//! same totals as asking for each leaf in turn — at sizes on both sides
//! of the honest worker's 1024-input chunk — and an override must survive
//! the `&dyn WorkerBehaviour` the schemes hold a behaviour through.

use std::sync::atomic::{AtomicUsize, Ordering};
use ugc_grid::{
    CheatSelection, CostLedger, HonestWorker, MaliciousWorker, SemiHonestCheater, WorkerBehaviour,
};
use ugc_task::workloads::{PasswordSearch, PrimalitySearch};
use ugc_task::{ComputeTask, Domain, WidthMismatch, ZeroGuesser};

const SIZES: [u64; 5] = [1, 7, 1024, 1025, 2500];

fn assert_row_matches_leaf_values(behaviour: &dyn WorkerBehaviour, task: &dyn ComputeTask) {
    for n in SIZES {
        let domain = Domain::new(17, n);
        let per_leaf = CostLedger::new();
        let expected: Vec<u8> = (0..n)
            .flat_map(|i| behaviour.leaf_value(task, domain, i, &per_leaf))
            .collect();
        let batched = CostLedger::new();
        let row = behaviour
            .leaf_row(task, domain, &batched)
            .unwrap()
            .expect("a small row fits");
        let context = format!("{} on {} n={n}", behaviour.name(), task.name());
        assert_eq!(
            row.len() as u64,
            n * task.output_width() as u64,
            "{context}"
        );
        assert!(row == expected, "{context}: row bytes differ");
        assert_eq!(batched.report(), per_leaf.report(), "{context}");
    }
}

fn assert_through_dyn<B: WorkerBehaviour>(behaviour: B) {
    // unit_cost 3 (so a per-chunk charge must multiply) and unit_cost 1.
    let password = PasswordSearch::with_work_factor(5, 3, 3);
    let primes = PrimalitySearch::new(1_000_003, 2);
    for task in [&password as &dyn ComputeTask, &primes] {
        assert_row_matches_leaf_values(&behaviour, task);
    }
}

#[test]
fn honest_row_matches_leaf_values() {
    assert_through_dyn(HonestWorker);
}

#[test]
fn semi_honest_rows_match_leaf_values() {
    for selection in [CheatSelection::Prefix, CheatSelection::Scattered] {
        assert_through_dyn(SemiHonestCheater::new(
            0.6,
            selection,
            ZeroGuesser::new(9),
            21,
        ));
    }
}

#[test]
fn malicious_row_matches_leaf_values() {
    assert_through_dyn(MaliciousWorker::new(0.5, 3));
}

/// One-byte outputs; counts calls of `compute` and of `compute_into`.
#[derive(Default)]
struct Probe {
    scalar_calls: AtomicUsize,
    batch_calls: AtomicUsize,
}

impl ComputeTask for Probe {
    fn name(&self) -> &str {
        "probe"
    }
    fn output_width(&self) -> usize {
        1
    }
    fn compute(&self, x: u64) -> Vec<u8> {
        self.scalar_calls.fetch_add(1, Ordering::Relaxed);
        vec![x.to_le_bytes()[0]]
    }
    fn compute_into(&self, xs: &[u64], out: &mut [u8]) -> Result<(), WidthMismatch> {
        self.batch_calls.fetch_add(1, Ordering::Relaxed);
        for (slot, x) in out.iter_mut().zip(xs) {
            *slot = x.to_le_bytes()[0];
        }
        Ok(())
    }
}

#[test]
fn honest_override_batches_in_1024_input_chunks_through_every_pointer() {
    // If a trait object missed the `leaf_row` override, the default
    // would call `leaf_value` — and so `compute` — once per leaf.
    let behaviour: &dyn WorkerBehaviour = &HonestWorker;
    let probe = Probe::default();
    let ledger = CostLedger::new();
    let row = behaviour
        .leaf_row(&probe, Domain::new(0, 2500), &ledger)
        .unwrap()
        .expect("a small row fits");
    assert_eq!(row.len(), 2500);
    assert_eq!(row[2499], 2499u64.to_le_bytes()[0]);
    assert_eq!(probe.batch_calls.load(Ordering::Relaxed), 3);
    assert_eq!(probe.scalar_calls.load(Ordering::Relaxed), 0);
    assert_eq!(ledger.report().f_evals, 2500);
}

/// Declares 8-byte outputs and returns 7 bytes for the one input named.
struct ShortAt(u64);

impl ComputeTask for ShortAt {
    fn name(&self) -> &str {
        "short-at"
    }
    fn output_width(&self) -> usize {
        8
    }
    fn compute(&self, x: u64) -> Vec<u8> {
        let mut out = x.to_le_bytes().to_vec();
        if x == self.0 {
            out.pop();
        }
        out
    }
}

#[test]
fn a_wrong_width_leaf_is_reported_with_its_leaf_index() {
    // The domain starts at 3, so input 5 is leaf 2 and input 1503 is leaf
    // 1500 — past the honest worker's first chunk, whose offset it must
    // add to the position `compute_into` reports.
    let domain = Domain::new(3, 2000);
    let malicious = MaliciousWorker::new(0.0, 1);
    for (input, leaf) in [(5, 2), (1503, 1500)] {
        let expected = Err(WidthMismatch {
            expected: 8,
            found: 7,
            index: leaf,
        });
        let ledger = CostLedger::new();
        assert_eq!(
            HonestWorker.leaf_row(&ShortAt(input), domain, &ledger),
            expected
        );
        assert_eq!(
            malicious.leaf_row(&ShortAt(input), domain, &ledger),
            expected
        );
    }
}
