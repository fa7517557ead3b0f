//! What a run reports: the one-line result on standard output and the
//! fuller result file `--out` writes.

use crate::json::Value;
use crate::workloads::{nproc, pool_workers, Kind};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Shorthand for building a metric list.
#[must_use]
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The outcome of one run (measured or traced) of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub kind: Kind,
    pub seed: u64,
    pub traced: bool,
    /// Every operation passed its digest check and at least one ran.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Numbers that explain the metrics (sample counts, percentile used,
    /// calibration readings); written to the result file only.
    pub detail: Vec<(String, Value)>,
}

impl RunResult {
    /// The object the contract asks for on the last line of standard
    /// output: exactly `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn summary_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_value()),
        ])
        .render()
    }

    fn metrics_value(&self) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The result file: the summary plus where, on what and with which
    /// inputs it was measured. `tags` are `key=value` pairs the caller
    /// passed with `--tag` (compiler version, commit).
    #[must_use]
    pub fn file(&self, seconds: u64, tags: &[(String, String)]) -> Value {
        Value::obj([
            ("workload", Value::str(self.kind.name())),
            ("traced", Value::Bool(self.traced)),
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(seconds as f64)),
            ("workers", Value::Num(pool_workers() as f64)),
            ("nproc", Value::Num(nproc() as f64)),
            (
                "tags",
                Value::Obj(
                    tags.iter()
                        .map(|(k, v)| (k.clone(), Value::str(v.as_str())))
                        .collect(),
                ),
            ),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_value()),
            ("detail", Value::Obj(self.detail.clone())),
        ])
    }
}
