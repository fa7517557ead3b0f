//! `compare A… -- B…`: two sets of result files, row by row.
//!
//! A set is several runs of the whole benchmark (result files written
//! with `--out`); its value for a metric is the median over its runs. One
//! row per (workload, end-to-end metric), with a verdict drawn from the
//! bound `BENCHMARK.json` fixes for the metric:
//!
//! * **unresolved** — a side's spread (interquartile range over median)
//!   is wider than the bound and the two sides' ranges overlap: the runs
//!   cannot tell the sides apart at this bound;
//! * **worse** / **better** — B's median is worse / better than A's by
//!   more than the bound;
//! * **within bound** otherwise.
//!
//! Metrics that are counts made by the program compare for equality, run
//! by run, among runs of the same seed. Any *worse* row, any differing
//! count and any failed operation makes the exit status non-zero.

use crate::json::{self, Value};
use crate::stats;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// End-to-end metrics that are counts: functions of the seed alone.
const EXACT: [&str; 2] = ["wire_bytes_per_session", "supervisor_cost_ratio"];

/// Where the metric definitions live: the file the acceptance check
/// reads, so bounds and directions are written down once.
fn benchmark_json() -> Result<Value, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text)
}

/// One end-to-end metric's definition.
struct Definition {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn definitions(benchmark: &Value) -> Result<Vec<Definition>, String> {
    let Some(Value::Arr(items)) = benchmark.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    items
        .iter()
        .map(|item| {
            Some(Definition {
                name: item.get("name")?.as_str()?.to_string(),
                lower_is_better: item.get("better")?.as_str()? == "lower",
                bound: item.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: an end_to_end entry lacks name, better or bound".into())
}

/// One result file, reduced to what a comparison needs.
struct Run {
    workload: String,
    traced: bool,
    seed: u64,
    clean: bool,
    metrics: BTreeMap<String, (f64, String)>,
}

fn load(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |key: &str| {
        doc.get(key)
            .ok_or_else(|| format!("{path}: no {key:?} field"))
    };
    let metrics = field("metrics")?
        .members()
        .iter()
        .filter_map(|(name, m)| {
            let value = m.get("value")?.as_f64()?;
            let unit = m.get("unit")?.as_str()?.to_string();
            Some((name.clone(), (value, unit)))
        })
        .collect();
    Ok(Run {
        workload: field("workload")?
            .as_str()
            .ok_or_else(|| format!("{path}: workload is not a string"))?
            .to_string(),
        traced: field("traced")? == &Value::Bool(true),
        seed: field("seed")?.as_f64().unwrap_or(0.0) as u64,
        clean: field("correct")? == &Value::Bool(true) && field("failed")?.as_f64() == Some(0.0),
        metrics,
    })
}

/// The verdict on one timing row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for one metric.
#[must_use]
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (qa, qb) = (stats::quartiles(a), stats::quartiles(b));
    let spread = |q: [f64; 3]| {
        if q[1] == 0.0 {
            0.0
        } else {
            (q[2] - q[0]) / q[1].abs()
        }
    };
    let range = |v: &[f64]| {
        v.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                (lo.min(*x), hi.max(*x))
            })
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if spread(qa).max(spread(qb)) > bound && overlap {
        return Verdict::Unresolved;
    }
    let change = if qa[1] == 0.0 {
        0.0
    } else {
        (qb[1] - qa[1]) / qa[1].abs()
    };
    let worsening = if lower_is_better { change } else { -change };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Whether every run of one seed read the same value, on both sides.
fn counts_agree(runs: &[&Run], metric: &str) -> bool {
    let mut by_seed: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for run in runs {
        if let Some((value, _)) = run.metrics.get(metric) {
            by_seed.entry(run.seed).or_default().insert(value.to_bits());
        }
    }
    by_seed.values().all(|values| values.len() == 1)
}

/// One side's runs of one workload, measured or traced.
fn pick<'a>(runs: &'a [Run], workload: &str, traced: bool) -> Vec<&'a Run> {
    runs.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .collect()
}

fn values(runs: &[&Run], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.get(metric).map(|(v, _)| *v))
        .collect()
}

/// `compare`'s entry point. `Ok(true)` when nothing is worse.
///
/// # Errors
///
/// Unreadable files, or a side with no runs.
pub fn main(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare takes two sets of result files separated by --")?;
    let load_all = |paths: &[String]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    let (a_runs, b_runs) = (load_all(&args[..split])?, load_all(&args[split + 1..])?);
    if a_runs.is_empty() || b_runs.is_empty() {
        return Err("compare needs at least one result file on each side".into());
    }
    let definitions = definitions(&benchmark_json()?)?;
    let mut all_fine = true;

    let workloads: BTreeSet<&str> = a_runs
        .iter()
        .chain(&b_runs)
        .map(|r| r.workload.as_str())
        .collect();
    println!(
        "{:<14} {:<42} {:>36} {:>36} {:>8}  verdict",
        "workload", "metric", "A q1 / median / q3", "B q1 / median / q3", "change"
    );
    for workload in workloads {
        for traced in [false, true] {
            let (a, b) = (
                pick(&a_runs, workload, traced),
                pick(&b_runs, workload, traced),
            );
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let both: Vec<&Run> = a.iter().chain(&b).copied().collect();
            let failed = both.iter().filter(|r| !r.clean).count();
            if failed > 0 {
                all_fine = false;
                println!("{workload:<14} {failed} run(s) had failed operations  WORSE");
            }
            let names: Vec<(String, String)> = if traced {
                a[0].metrics
                    .iter()
                    .map(|(name, (_, unit))| (name.clone(), unit.clone()))
                    .collect()
            } else {
                definitions
                    .iter()
                    .map(|d| (d.name.clone(), String::new()))
                    .collect()
            };
            for (name, unit) in names {
                let (va, vb) = (values(&a, &name), values(&b, &name));
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let (qa, qb) = (stats::quartiles(&va), stats::quartiles(&vb));
                let change = if qa[1] == 0.0 {
                    0.0
                } else {
                    (qb[1] - qa[1]) / qa[1].abs()
                };
                let definition = definitions.iter().find(|d| d.name == name && !traced);
                let verdict = if EXACT.contains(&name.as_str()) || unit == "count" {
                    if counts_agree(&both, &name) {
                        "identical"
                    } else {
                        all_fine = false;
                        "DIFFERS"
                    }
                } else if let Some(d) = definition {
                    let verdict = judge(&va, &vb, d.lower_is_better, d.bound);
                    all_fine &= verdict != Verdict::Worse;
                    verdict.label()
                } else {
                    // Per-layer timings have no bound: they explain, they
                    // do not gate.
                    ""
                };
                println!(
                    "{workload:<14} {name:<42} {:>36} {:>36} {:>+7.1}%  {verdict}",
                    format!("{:.4} / {:.4} / {:.4}", qa[0], qa[1], qa[2]),
                    format!("{:.4} / {:.4} / {:.4}", qb[0], qb[1], qb[2]),
                    change * 100.0,
                );
            }
        }
    }
    Ok(all_fine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{metric, RunResult};
    use crate::workloads::Kind;

    #[test]
    fn verdicts_follow_the_bound() {
        let a = [100.0, 101.0, 102.0, 103.0, 104.0];
        let shifted = |by: f64| a.map(|x| x * by);
        assert_eq!(judge(&a, &shifted(1.02), true, 0.10), Verdict::WithinBound);
        assert_eq!(judge(&a, &shifted(1.20), true, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &shifted(0.80), true, 0.10), Verdict::Better);
        // The same shift read the other way round.
        assert_eq!(judge(&a, &shifted(1.20), false, 0.10), Verdict::Better);
        assert_eq!(judge(&a, &shifted(0.80), false, 0.10), Verdict::Worse);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let a = [80.0, 90.0, 100.0, 110.0, 120.0];
        let b = [85.0, 95.0, 105.0, 115.0, 125.0];
        assert_eq!(judge(&a, &b, true, 0.10), Verdict::Unresolved);
        // Wide but disjoint: every run of B reads worse than every run of A.
        let far = a.map(|x| x * 2.0);
        assert_eq!(judge(&a, &far, true, 0.10), Verdict::Worse);
    }

    #[test]
    fn result_file_written_by_the_run_is_read_back() {
        let result = RunResult {
            kind: Kind::SessionSwarm,
            seed: 12,
            traced: false,
            correct: true,
            attempted: 7,
            failed: 0,
            metrics: vec![
                metric("campaign_ms_p50", "ms", 31.25),
                metric("wire_bytes_per_session", "B", 589.4460431654676),
            ],
            detail: vec![("samples".to_string(), Value::Num(7.0))],
        };
        let dir = crate::workloads::out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("compare-test-{}.json", std::process::id()));
        let tags = [("rustc".to_string(), "rustc 1.95.0 (\"quoted\")".to_string())];
        std::fs::write(&path, result.file(15, &tags).render_pretty()).unwrap();
        let run = load(path.to_str().unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(run.workload, "session_swarm");
        assert_eq!((run.seed, run.traced, run.clean), (12, false, true));
        assert_eq!(run.metrics["campaign_ms_p50"], (31.25, "ms".to_string()));
        assert_eq!(run.metrics["wire_bytes_per_session"].0, 589.4460431654676);
        assert!(counts_agree(&[&run, &run], "wire_bytes_per_session"));
    }
}
