//! `compute_into` and `compute_batch` are execution details: for every
//! workload they must produce exactly the bytes per-input `compute`
//! produces, and a [`CountingTask`] must tick once per input whichever
//! way it is driven.

use std::sync::atomic::{AtomicUsize, Ordering};
use ugc_task::workloads::{
    DrugScreening, FactoringSearch, PasswordSearch, PrimalitySearch, SetiSignal,
};
use ugc_task::{ComputeTask, CountingTask, WidthMismatch};

/// Batch sizes around the 4- and 8-lane kernel widths, and one beyond a
/// single `HonestWorker` chunk boundary's worth of raggedness.
const SIZES: [usize; 8] = [0, 1, 3, 4, 7, 8, 9, 37];

fn inputs(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| 1000 + i.wrapping_mul(0x9e37_79b9) % 50_000)
        .collect()
}

fn assert_batched_forms_match_compute(task: &dyn ComputeTask) {
    let width = task.output_width();
    for n in SIZES {
        let xs = inputs(n);
        let scalar: Vec<Vec<u8>> = xs.iter().map(|&x| task.compute(x)).collect();
        let mut row = vec![0xEE_u8; n * width];
        task.compute_into(&xs, &mut row).unwrap();
        assert_eq!(row, scalar.concat(), "{} compute_into n={n}", task.name());
        assert_eq!(
            task.compute_batch(&xs),
            scalar,
            "{} compute_batch n={n}",
            task.name()
        );
    }
}

#[test]
fn every_workload_batches_to_the_bytes_compute_produces() {
    assert_batched_forms_match_compute(&PasswordSearch::with_work_factor(11, 3, 1));
    assert_batched_forms_match_compute(&PasswordSearch::with_work_factor(11, 3, 3));
    assert_batched_forms_match_compute(&PrimalitySearch::new(1_000_003, 2));
    assert_batched_forms_match_compute(&SetiSignal::with_shape(5, 64, 16, 0.1));
    assert_batched_forms_match_compute(&DrugScreening::with_shape(9, 8, 4));
    assert_batched_forms_match_compute(&FactoringSearch::new(1_000_001, 2));
}

/// Counts calls of its `compute_into` override.
struct Overriding(AtomicUsize);

impl ComputeTask for Overriding {
    fn name(&self) -> &str {
        "overriding"
    }
    fn output_width(&self) -> usize {
        1
    }
    fn compute(&self, x: u64) -> Vec<u8> {
        vec![x.to_le_bytes()[0]]
    }
    fn compute_into(&self, xs: &[u64], out: &mut [u8]) -> Result<(), WidthMismatch> {
        self.0.fetch_add(1, Ordering::Relaxed);
        for (slot, x) in out.iter_mut().zip(xs) {
            *slot = x.to_le_bytes()[0];
        }
        Ok(())
    }
}

#[test]
fn a_compute_into_override_survives_indirection() {
    // A trait object must reach the `compute_into` override (and
    // `compute_batch` must too), or it silently falls back to the
    // default loop over `compute`.
    let task = Overriding(AtomicUsize::new(0));
    let handle: &dyn ComputeTask = &task;
    let mut row = [0u8; 3];
    handle.compute_into(&[7, 8, 9], &mut row).unwrap();
    assert_eq!(row, [7, 8, 9]);
    assert_eq!(handle.compute_batch(&[1, 2]), vec![vec![1], vec![2]]);
    assert_eq!(task.0.load(Ordering::Relaxed), 2);
}

fn assert_counting_ticks_once_per_input<T: ComputeTask>(task: T) {
    let xs = inputs(37);
    let counted = CountingTask::new(task);
    let name = counted.name();
    for &x in &xs {
        let _ = counted.compute(x);
    }
    assert_eq!(counted.evaluations(), 37, "{name} compute");
    let mut row = vec![0u8; xs.len() * counted.output_width()];
    counted.compute_into(&xs, &mut row).unwrap();
    assert_eq!(counted.evaluations(), 74, "{name} compute_into");
    let _ = counted.compute_batch(&xs);
    assert_eq!(counted.evaluations(), 111, "{name} compute_batch");
}

#[test]
fn counting_task_ticks_once_per_input_in_every_form() {
    assert_counting_ticks_once_per_input(PasswordSearch::with_hidden_password(1, 5));
    assert_counting_ticks_once_per_input(PrimalitySearch::new(1_000_003, 2));
}

/// Declares 8-byte outputs and returns 7 bytes for input 5.
struct ShortAtFive;

impl ComputeTask for ShortAtFive {
    fn name(&self) -> &str {
        "short-at-five"
    }
    fn output_width(&self) -> usize {
        8
    }
    fn compute(&self, x: u64) -> Vec<u8> {
        let mut out = x.to_le_bytes().to_vec();
        if x == 5 {
            out.pop();
        }
        out
    }
}

#[test]
fn default_compute_into_reports_a_wrong_width_output_typed() {
    let xs: Vec<u64> = (3..10).collect();
    let mut row = vec![0u8; xs.len() * 8];
    assert_eq!(
        ShortAtFive.compute_into(&xs, &mut row),
        Err(WidthMismatch {
            expected: 8,
            found: 7,
            index: 2
        })
    );
    // Without the offending input the same task fills the row.
    let xs: Vec<u64> = (6..10).collect();
    let mut row = vec![0u8; xs.len() * 8];
    assert_eq!(ShortAtFive.compute_into(&xs, &mut row), Ok(()));
    assert_eq!(&row[..8], &6u64.to_le_bytes());
}

#[test]
#[should_panic(expected = "one output slot per input")]
fn compute_into_rejects_a_mis_sized_row() {
    let mut row = vec![0u8; 15];
    let _ = PasswordSearch::with_hidden_password(1, 1).compute_into(&[1], &mut row);
}
