//! `ugc-benchmark` — the repository benchmark.
//!
//! ```text
//! ugc-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!               [--out FILE] [--tag KEY=VALUE]...
//! ugc-benchmark compare A1.json A2.json … -- B1.json B2.json …
//! ```
//!
//! `--trace 0` (the default) is the measured run and prints the
//! end-to-end metrics; `--trace 1` is the traced run and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Without
//! `--workload`, each workload runs in turn in a child process of its
//! own, as the acceptance driver runs them. See `README.md`.

#![forbid(unsafe_code)]

mod clock;
mod compare;
mod json;
mod layers;
mod measure;
mod probes;
mod report;
mod stats;
mod trace;
mod walk;
mod workloads;

use std::process::ExitCode;
use workloads::Kind;

const USAGE: &str =
    "usage: ugc-benchmark [--workload commit_heavy|session_swarm|churn_durable|wire_loopback] \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--tag KEY=VALUE]...
       ugc-benchmark compare A1.json A2.json ... -- B1.json B2.json ...";

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 11;
/// The window a run measures for when none is given; `BENCHMARK.json`
/// carries the same number as `run_seconds`.
const DEFAULT_SECONDS: u64 = 28;

struct Options {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    tags: Vec<(String, String)>,
    /// Set by the measured run on the set-up processes it starts.
    setup_probe: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        tags: Vec::new(),
        setup_probe: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload =
                    Some(Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                o.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| "--seconds takes a whole number from 1 to 60".to_string())?;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => o.out = Some(value()?.clone()),
            "--setup-probe" => o.setup_probe = true,
            "--tag" => {
                let (k, v) = value()?
                    .split_once('=')
                    .ok_or_else(|| "--tag takes KEY=VALUE".to_string())?;
                o.tags.push((k.to_string(), v.to_string()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// Runs one workload in this process and prints its result.
fn run_one(kind: Kind, o: &Options) -> Result<bool, String> {
    if o.setup_probe {
        return measure::setup_probe(kind, o.seed).map(|()| true);
    }
    let result = if o.trace {
        let (result, tracer) = layers::run(kind, o.seed, o.seconds)?;
        let path = workloads::out_dir().join(format!("trace-{}.json", kind.name()));
        std::fs::write(&path, tracer.to_json().render_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        result
    } else {
        measure::run(kind, o.seed, o.seconds)?
    };
    for m in &result.metrics {
        println!(
            "{:<14} {:<34} {:>16.4} {}",
            kind.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    if let Some(path) = &o.out {
        std::fs::write(path, result.file(o.seconds, &o.tags).render_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", result.summary_line());
    Ok(result.correct)
}

/// Runs every workload in turn, each in a fresh child process.
fn run_all(args: &[String], o: &Options) -> Result<bool, String> {
    if o.out.is_some() {
        return Err("--out names one workload's result file; pass --workload with it".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_correct = true;
    for kind in Kind::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(args)
            .status()
            .map_err(|e| format!("cannot start {}: {e}", kind.name()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().is_some_and(|a| a == "compare") {
        compare::main(&args[1..])
    } else {
        parse_options(&args).and_then(|o| match o.workload {
            Some(kind) => run_one(kind, &o),
            None => run_all(&args, &o),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
