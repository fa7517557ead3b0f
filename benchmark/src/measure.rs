//! The measured run: set-up, then a closed loop of whole campaigns for a
//! fixed window, tracing off. Every end-to-end metric comes from here and
//! from nowhere else.
//!
//! Load shape: closed loop, one client — the next campaign starts when
//! the previous one returns. One operation is one campaign.
//!
//! The time metrics are **host-adjusted**. The hosts this runs on are
//! shared: a neighbour takes part of a core for seconds or minutes at a
//! time, and a campaign that takes 95 ms in one minute takes 160 ms in
//! the next with no change to the code. So the window is cut into
//! one-second slices, the host's capacity is gauged between slices with a
//! fixed integer loop of the benchmark's own ([`clock::host_capacity_ms`]),
//! and every time read in a slice is divided by how much slower than the
//! reference the gauge ran beside it. The raw readings are kept in the
//! result file, and raw medians and tails are per-layer metrics of the
//! traced run (`facade.campaign.ms_p50`, `facade.campaign.ms_p90`).

use crate::clock;
use crate::json::Value;
use crate::report::{metric, RunResult};
use crate::stats;
use crate::workloads::{pool_workers, Counts, Kind, Workload};
use std::time::Duration;
use ugc_core::summary_digest;

/// How many times set-up is repeated, each in a fresh process; `setup_s`
/// and `peak_rss_mb` are medians over them.
const SETUP_REPS: usize = 5;

/// Unmeasured campaigns at the end of each set-up, so caches, allocator
/// arenas and lazy statics are warm before the window opens.
const WARMUPS: usize = 3;

/// The window is cut into slices at least this long. CPU time is read
/// from `/proc` in 10 ms ticks, so a slice resolves it to about 1 %.
const SLICE: Duration = Duration::from_secs(1);

/// Gauge readings taken at each slice boundary; the boundary's reading is
/// the fastest of them.
const GAUGE_ROUNDS: usize = 3;

/// How many times slower than the reference host this host is running
/// right now: about 1 on a quiet host of the baseline's kind, more when a
/// neighbour is busy. One more thread than the pool has workers, so that the guest
/// scheduler's time-slicing is gauged along with the cores.
#[must_use]
pub fn host_slowdown() -> f64 {
    let reading = (0..GAUGE_ROUNDS)
        .map(|_| clock::host_capacity_ms(pool_workers() + 1))
        .fold(f64::INFINITY, f64::min);
    reading / clock::CAPACITY_REFERENCE_MS
}

/// A workload that is built, has its reference digest, and is warm.
pub struct Ready {
    pub workload: Workload,
    pub reference: String,
}

/// One set-up: build the roster, compute the reference digest on a
/// different execution layout, run the warm-up campaigns (which must
/// already reproduce the digest).
///
/// # Errors
///
/// Any campaign failing or diverging before measurement has begun.
pub fn set_up(kind: Kind, seed: u64) -> Result<Ready, String> {
    let workload = Workload::build(kind, seed)?;
    let reference = workload.reference_digest()?;
    for i in 0..WARMUPS {
        let digest = summary_digest(&workload.operation()?);
        if digest != reference {
            return Err(format!(
                "{}: warm-up campaign {i} diverged from the reference digest \
                 ({digest} != {reference})",
                kind.name()
            ));
        }
    }
    Ok(Ready {
        workload,
        reference,
    })
}

/// The body of a set-up process (`--setup-probe`): set up, print the
/// process's peak resident memory in MB, leave nothing behind. The
/// measuring process times it from spawn to exit.
///
/// # Errors
///
/// Set-up failing, or `/proc` not saying how much memory was used.
pub fn setup_probe(kind: Kind, seed: u64) -> Result<(), String> {
    let ready = set_up(kind, seed)?;
    ready.workload.clean_up();
    println!("{}", clock::peak_rss_mb()?);
    Ok(())
}

/// Runs one set-up in a fresh process of this executable and returns how
/// long the process lived, in seconds, and its peak resident memory in MB.
fn set_up_in_child(kind: Kind, seed: u64) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let (output, took) = clock::time(|| {
        std::process::Command::new(exe)
            .args([
                "--workload",
                kind.name(),
                "--seed",
                &seed.to_string(),
                "--setup-probe",
            ])
            .output()
    });
    let output = output.map_err(|e| format!("cannot start a set-up process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "set-up process failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let rss_mb = String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|_| "set-up process did not print its peak memory".to_string())?;
    Ok((took.as_secs_f64(), rss_mb))
}

/// One campaign, timed and checked: its wall time and its counts, or
/// `None` if it failed or diverged from the reference digest — a failed
/// operation has no timing worth keeping.
#[must_use]
pub fn checked_operation(ready: &Ready) -> Option<(Duration, Counts)> {
    let (outcome, took) = clock::time(|| ready.workload.operation());
    match outcome {
        Ok(summary) if summary_digest(&summary) == ready.reference => {
            Some((took, Counts::of(&summary)))
        }
        _ => None,
    }
}

/// What one slice of the window did, as read.
struct Slice {
    wall_s: f64,
    cpu_s: f64,
    sessions: u64,
    /// Wall times of its passing campaigns.
    campaign_ms: Vec<f64>,
    /// [`host_slowdown`] beside it: the smaller of the readings taken
    /// before and after.
    slowdown: f64,
}

/// Runs the measured window for `kind` and reports the end-to-end
/// metrics.
///
/// # Errors
///
/// Set-up failing, or `/proc` not being readable. Failures inside the
/// window are counted, not raised.
pub fn run(kind: Kind, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let (mut setup_s, mut setup_raw_s, mut setup_rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    let mut gauge = host_slowdown();
    for _ in 0..SETUP_REPS {
        let (took, rss_mb) = set_up_in_child(kind, seed)?;
        let gauge_after = host_slowdown();
        setup_s.push(took / gauge.min(gauge_after));
        setup_raw_s.push(took);
        setup_rss_mb.push(rss_mb);
        gauge = gauge_after;
    }
    let ready = set_up(kind, seed)?;

    let window = Duration::from_secs(seconds);
    let mut slices = Vec::new();
    let mut totals = Counts::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = clock::now();
    gauge = host_slowdown();
    while started.elapsed() < window {
        let (slice_started, cpu_before) = (clock::now(), clock::process_cpu_seconds()?);
        let (mut sessions, mut campaign_ms) = (0, Vec::new());
        while slice_started.elapsed() < SLICE {
            attempted += 1;
            match checked_operation(&ready) {
                Some((took, counts)) => {
                    campaign_ms.push(clock::ms(took));
                    sessions += counts.sessions;
                    totals.add(&counts);
                }
                None => failed += 1,
            }
        }
        let (wall_s, cpu_s) = (
            slice_started.elapsed().as_secs_f64(),
            clock::process_cpu_seconds()? - cpu_before,
        );
        let gauge_after = host_slowdown();
        slices.push(Slice {
            wall_s,
            cpu_s,
            sessions,
            campaign_ms,
            slowdown: gauge.min(gauge_after),
        });
        gauge = gauge_after;
    }
    let window_rss_mb = clock::peak_rss_mb()?;
    ready.workload.clean_up();

    let worked: Vec<&Slice> = slices.iter().filter(|s| s.sessions > 0).collect();
    let over = |f: fn(&Slice) -> f64| worked.iter().map(|s| f(s)).collect::<Vec<f64>>();
    let per_s = over(|s| s.sessions as f64 / s.wall_s);
    let cpu_ms = over(|s| s.cpu_s * 1e3 / s.sessions as f64);
    let slowdown = over(|s| s.slowdown);
    let per_s_adjusted = over(|s| s.sessions as f64 / s.wall_s * s.slowdown);
    let cpu_ms_adjusted = over(|s| s.cpu_s * 1e3 / s.sessions as f64 / s.slowdown);
    let raw = stats::sorted(worked.iter().flat_map(|s| s.campaign_ms.clone()).collect());
    let adjusted = stats::sorted(
        worked
            .iter()
            .flat_map(|s| s.campaign_ms.iter().map(|ms| ms / s.slowdown))
            .collect(),
    );
    let (tail_p, tail_ms) = stats::tail_percentile(&raw);
    let sessions = (totals.sessions as f64).max(1.0);
    let metrics = vec![
        metric("setup_s", "s", stats::median(&setup_s)),
        metric("sessions_per_s", "1/s", stats::median(&per_s_adjusted)),
        metric("campaign_ms_p50", "ms", stats::quantile(&adjusted, 0.5)),
        metric("cpu_ms_per_session", "ms", stats::median(&cpu_ms_adjusted)),
        metric("peak_rss_mb", "MB", stats::median(&setup_rss_mb)),
        metric(
            "wire_bytes_per_session",
            "B",
            totals.wire_bytes as f64 / sessions,
        ),
        metric(
            "supervisor_cost_ratio",
            "ratio",
            totals.supervisor_ops as f64 / (totals.participant_ops as f64).max(1.0),
        ),
    ];
    let numbers = |values: &[f64]| Value::Arr(values.iter().map(|v| Value::Num(*v)).collect());
    let number = |name: &str, value: f64| (name.to_string(), Value::Num(value));
    let detail = vec![
        number("samples", raw.len() as f64),
        number("failed_share", failed as f64 / attempted.max(1) as f64),
        number(
            "sessions_per_campaign",
            sessions / (raw.len() as f64).max(1.0),
        ),
        number("host_slowdown_median", stats::median(&slowdown)),
        number("raw_sessions_per_s", stats::median(&per_s)),
        number("raw_cpu_ms_per_session", stats::median(&cpu_ms)),
        number("raw_campaign_ms_p10", stats::quantile(&raw, 0.1)),
        number("raw_campaign_ms_p50", stats::quantile(&raw, 0.5)),
        number("raw_campaign_ms_tail_percentile", tail_p),
        number("raw_campaign_ms_tail", tail_ms),
        number("raw_setup_s", stats::median(&setup_raw_s)),
        number("window_peak_rss_mb", window_rss_mb),
        ("setup_s_each".to_string(), numbers(&setup_s)),
        ("setup_peak_rss_mb_each".to_string(), numbers(&setup_rss_mb)),
        ("slice_host_slowdown".to_string(), numbers(&slowdown)),
        ("slice_raw_sessions_per_s".to_string(), numbers(&per_s)),
        ("slice_raw_cpu_ms_per_session".to_string(), numbers(&cpu_ms)),
    ];
    Ok(RunResult {
        kind,
        seed,
        traced: false,
        correct: failed == 0 && !raw.is_empty(),
        attempted,
        failed,
        metrics,
        detail,
    })
}
