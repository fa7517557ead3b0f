//! The traced run: where a workload's time goes, layer by layer.
//!
//! Three sources, all recorded from outside the crates:
//!
//! * **campaign spans** around the end-to-end operation, traced and
//!   untraced in alternation, so the cost of tracing itself is known;
//! * the **session walk** (`walk.rs`): one session of every kind in the
//!   roster pumped by hand, which splits a session into participant,
//!   supervisor and codec time;
//! * **probes** (`probes.rs`) and **variant campaigns**: a layer's public
//!   function alone at the workload's shape, or the same roster run with
//!   one layer swapped (other transport, one worker, faults on, journal
//!   on), for what the walk cannot isolate.
//!
//! End-to-end metrics are never taken from this run.

use crate::clock;
use crate::json::Value;
use crate::measure::{self, Ready};
use crate::probes;
use crate::report::{metric, Metric, RunResult};
use crate::stats;
use crate::trace::Tracer;
use crate::walk::{self, Crossing, RosterWalk};
use crate::workloads::{
    churn_plan, pool_workers, Counts, Kind, Workload, CHURN_DEADLINE, CHURN_RETRIES, WIRE_JOINERS,
};
use std::time::Duration;
use ugc_core::{summary_digest, DurableCampaign, MixedFleetConfig, TransportKind};
use ugc_journal::{read_journal, verify_journal, CrashPlan};
use uncheatable_grid::campaign::FleetParams;
use uncheatable_grid::netgrid;

/// Traced/untraced campaign pairs the campaign phase takes at least.
const MIN_CAMPAIGN_PAIRS: usize = 20;
/// Times the whole roster is walked; walk timings are the median walk.
const WALK_REPS: usize = 5;
/// Classes below this share of the roster are left out of the message
/// mix the link probes replay (they still count in the walk).
const MIX_MIN_SHARE: f64 = 0.05;

/// Two variants of a campaign, run alternately.
struct Paired {
    /// Each side's median wall time.
    a_ms: f64,
    b_ms: f64,
    /// Median over pairs of `a ÷ b` and of `a − b`. A pair runs within
    /// one host phase, so these hold still where the medians do not.
    ratio: f64,
    diff_ms: f64,
}

/// Runs `a` and `b` alternately `pairs` times. Alternating keeps a host
/// phase from landing on one side only.
fn alternate(
    pairs: usize,
    mut a: impl FnMut() -> Result<(), String>,
    mut b: impl FnMut() -> Result<(), String>,
) -> Result<Paired, String> {
    let (mut a_ms, mut b_ms) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        let (ra, ta) = clock::time(&mut a);
        ra?;
        let (rb, tb) = clock::time(&mut b);
        rb?;
        a_ms.push(clock::ms(ta));
        b_ms.push(clock::ms(tb));
    }
    let per_pair = |f: fn(f64, f64) -> f64| {
        stats::median(
            &a_ms
                .iter()
                .zip(&b_ms)
                .map(|(a, b)| f(*a, *b))
                .collect::<Vec<f64>>(),
        )
    };
    Ok(Paired {
        a_ms: stats::median(&a_ms),
        b_ms: stats::median(&b_ms),
        ratio: per_pair(|a, b| a / b),
        diff_ms: per_pair(|a, b| a - b),
    })
}

/// What the campaign phase measured.
struct CampaignPhase {
    attempted: u64,
    failed: u64,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    counts: Counts,
}

fn campaign_phase(tracer: &mut Tracer, ready: &Ready, budget: Duration) -> CampaignPhase {
    let mut phase = CampaignPhase {
        attempted: 0,
        failed: 0,
        traced_ms: Vec::new(),
        untraced_ms: Vec::new(),
        counts: Counts::default(),
    };
    let started = clock::now();
    let mut pairs = 0;
    while pairs < MIN_CAMPAIGN_PAIRS || started.elapsed() < budget {
        pairs += 1;
        for traced in [false, true] {
            phase.attempted += 1;
            let outcome = if traced {
                tracer.leaf("facade.campaign", "campaign", 1, || {
                    measure::checked_operation(ready)
                })
            } else {
                measure::checked_operation(ready)
            };
            match outcome {
                Some((took, counts)) => {
                    phase.counts = counts;
                    let times = if traced {
                        &mut phase.traced_ms
                    } else {
                        &mut phase.untraced_ms
                    };
                    times.push(clock::ms(took));
                }
                None => phase.failed += 1,
            }
        }
    }
    phase
}

/// The median of one timing across walk repetitions.
fn walk_median(reps: &[RosterWalk], field: fn(&RosterWalk) -> f64) -> f64 {
    stats::median(&reps.iter().map(field).collect::<Vec<f64>>())
}

/// The in-process variants of a workload's configuration.
struct Variants {
    /// The workload's own configuration, faults and retries off.
    clean: MixedFleetConfig,
    /// `clean` with the churn workload's fault plan on.
    faulted: MixedFleetConfig,
}

fn variants(w: &Workload) -> Variants {
    let clean = MixedFleetConfig {
        chaos: None,
        retries: 0,
        deadline: None,
        ..w.config
    };
    Variants {
        clean,
        faulted: MixedFleetConfig {
            chaos: Some(churn_plan(w.seed)),
            retries: CHURN_RETRIES,
            deadline: Some(CHURN_DEADLINE),
            ..clean
        },
    }
}

/// One remote campaign of one member over one input: all set-up, no
/// work — server bind, the joins, the handshakes, teardown.
fn empty_remote_campaign(seed: u64) -> Result<(), String> {
    let params = FleetParams {
        participants: 1,
        cheaters: 0,
        n: 1,
        m: 1,
        seed,
        scheme: "cbs".into(),
        transport: TransportKind::Brokered,
        churn: false,
        chaos_seed: None,
    };
    netgrid::run_remote_campaign(&params, WIRE_JOINERS).map(|_| ())
}

/// Runs the traced run for `kind`. Returns the result and the trace.
///
/// # Errors
///
/// Set-up, the walk or a probe failing: a layer that cannot be measured
/// is a broken benchmark, not a number.
pub fn run(kind: Kind, seed: u64, seconds: u64) -> Result<(RunResult, Tracer), String> {
    let calib_before = clock::host_calibration_ns();
    let slowdown_before = measure::host_slowdown();
    let ready = measure::set_up(kind, seed)?;
    let w = &ready.workload;
    let view = w.view();
    let mut tracer = Tracer::new();
    let total = Duration::from_secs(seconds);
    let probe_budget = total / 100;
    // Variant campaigns: each group of alternating pairs gets about a
    // fifteenth of the run, and at least three pairs.
    let pairs_for =
        |est_ms: f64| ((total.as_secs_f64() * 1e3 / 15.0 / est_ms.max(1.0)) as usize).clamp(3, 30);

    // (a) The end-to-end operation, traced and not.
    let phase = campaign_phase(&mut tracer, &ready, total / 3);
    let all_sorted = stats::sorted([phase.traced_ms.clone(), phase.untraced_ms.clone()].concat());
    let own_ms = stats::quantile(&all_sorted, 0.5);
    let (tail_p, tail_ms) = stats::tail_percentile(&all_sorted);
    let counts = phase.counts;
    let sessions = (counts.sessions as f64).max(1.0);

    // (b) The session walk.
    let classes = walk::classes(&view, w.cheaters());
    let walks: Vec<RosterWalk> = (0..WALK_REPS)
        .map(|rep| {
            tracer.span("core.scheme", format!("walk.{rep}"), counts.sessions, |t| {
                walk::walk_roster(t, &view, &classes)
            })
        })
        .collect::<Result<_, _>>()?;
    let first = &walks[0];
    let walk_ms = walk_median(&walks, |w| w.total_ms);
    let participant_ms = walk_median(&walks, |w| w.participant_ms);
    let supervisor_ms = walk_median(&walks, |w| w.supervisor_ms);
    let members = view.members.len() as f64;
    let dialogues: Vec<(u64, Vec<Crossing>)> = first
        .dialogues
        .iter()
        .filter(|(multiplicity, _)| *multiplicity as f64 >= MIX_MIN_SHARE * members)
        .cloned()
        .collect();
    let mix: Vec<Crossing> = dialogues
        .iter()
        .flat_map(|(_, d)| d.iter().cloned())
        .collect();

    // (c) Probes at this workload's shape.
    let share = classes[0].share;
    let hash = tracer.leaf("hash", "probe.hash", 3, || probes::hash(probe_budget));
    let eval_ns = tracer.leaf("task", "probe.compute_batch", share.len(), || {
        probes::task_eval_ns_per_input(view.task, share, probe_budget)
    });
    let merkle = tracer.leaf("merkle", "probe.merkle", share.len(), || {
        probes::merkle(view.task, share, probe_budget)
    })?;
    let duplex_ns = tracer.leaf("grid.transport", "probe.duplex", mix.len() as u64, || {
        probes::duplex_ns_per_msg(&mix, probe_budget)
    })?;
    let relay_ns = tracer.leaf("grid.broker", "probe.relay", mix.len() as u64, || {
        probes::broker_relay_ns_per_msg(&dialogues, probe_budget)
    })?;
    let sched = tracer.leaf("grid.scheduler", "probe.scheduler", 1000, || {
        probes::scheduler(pool_workers(), probe_budget)
    });
    let decision_ns = tracer.leaf("grid.fault", "probe.decision", 1, || {
        probes::fault_decision_ns(&churn_plan(seed), probe_budget)
    });
    let wire = tracer.leaf("grid.wire", "probe.frames", mix.len() as u64, || {
        probes::wire(&mix, probe_budget)
    })?;
    let tcp = tracer.leaf("grid.tcp", "probe.loopback", 1, || {
        probes::tcp(probe_budget)
    })?;
    // The wire workload's shape is fixed: its probes and its variant pair
    // are the same on every workload's traced run.
    let wire_twin = Workload::build(Kind::WireLoopback, seed)?;
    let wire_params = wire_twin.params().expect("the wire workload has params");
    let plan_expand_ns = tracer.leaf("facade.campaign", "probe.plan_expand", 1, || {
        probes::plan_expand_ns(wire_params, probe_budget)
    })?;

    // (d) Variant campaigns of this roster, in alternating pairs.
    let v = variants(w);
    let run = |config: &MixedFleetConfig| w.run_in_process(config).map(|_| ());
    let with = |transport| MixedFleetConfig {
        transport,
        ..v.clean
    };
    let brokered_vs_direct = tracer.leaf("grid.broker", "variant.brokered_vs_direct", 0, || {
        alternate(
            pairs_for(own_ms),
            || run(&with(TransportKind::Brokered)),
            || run(&with(TransportKind::Direct)),
        )
    })?;
    let one_worker = MixedFleetConfig {
        workers: Some(1),
        ..w.config
    };
    let one_worker_vs_pool =
        tracer.leaf("grid.scheduler", "variant.one_worker_vs_pool", 0, || {
            alternate(
                pairs_for(own_ms * 2.0),
                || run(&one_worker),
                || run(&w.config),
            )
        })?;
    let faulted_vs_clean = tracer.leaf("grid.fault", "variant.faulted_vs_clean", 0, || {
        alternate(pairs_for(own_ms), || run(&v.faulted), || run(&v.clean))
    })?;
    let mut seal_records = 0.0;
    let journaled_vs_not = tracer.leaf("journal", "variant.journaled_vs_not", 0, || {
        alternate(
            pairs_for(own_ms),
            || {
                let (summary, seal) = w.run_journaled(&w.config, CrashPlan::never())?;
                seal_records = seal.records as f64;
                if summary_digest(&summary) == ready.reference {
                    Ok(())
                } else {
                    Err("journaled campaign diverged from the reference digest".to_string())
                }
            },
            || run(&w.config),
        )
    })?;
    // The last journaled campaign's file is still there: read its record
    // sizes, time its verification, then replay half of it.
    let journal = read_journal(w.journal_path()).map_err(|e| e.to_string())?;
    let record_sizes: Vec<usize> = journal.records.iter().map(|r| r.payload.len()).collect();
    let journal_bytes = std::fs::metadata(w.journal_path())
        .map_err(|e| e.to_string())?
        .len();
    let verify_reps: Vec<f64> = (0..5)
        .map(|_| {
            let (seal, took) = tracer.leaf(
                "journal",
                "probe.verify",
                journal.records.len() as u64,
                || clock::time(|| verify_journal(w.journal_path())),
            );
            seal.map(|_| clock::ms(took)).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let append_us = tracer.leaf("journal", "probe.append", record_sizes.len() as u64, || {
        probes::journal_append_us(
            &w.journal_path().with_extension("probe"),
            &record_sizes,
            probe_budget,
        )
    })?;
    let resume_reps: Vec<f64> = (0..3)
        .map(|_| {
            let kill_at = (journal.records.len() as u64 / 2).max(1);
            if w.run_journaled(&w.config, CrashPlan::at(kill_at)).is_ok() {
                return Err(format!("resume probe: kill point {kill_at} did not fire"));
            }
            let (resumed, took) = tracer.leaf("core.journal", "probe.resume", kill_at, || {
                clock::time(|| -> Result<String, String> {
                    let (mut campaign, _report) =
                        DurableCampaign::resume(w.journal_path(), CrashPlan::never())
                            .map_err(|e| e.to_string())?;
                    ugc_core::run_durable_fleet(
                        view.task,
                        view.screener,
                        view.domain,
                        &view.members,
                        &w.config,
                        &mut campaign,
                    )
                    .map(|summary| summary_digest(&summary))
                    .map_err(|e| e.to_string())
                })
            });
            if resumed? != ready.reference {
                return Err(
                    "resume probe: resumed campaign diverged from the reference digest".into(),
                );
            }
            Ok(clock::ms(took))
        })
        .collect::<Result<_, String>>()?;

    // (e) The wire.
    let remote_vs_twin = tracer.leaf("facade.netgrid", "variant.remote_vs_brokered", 0, || {
        alternate(
            pairs_for(80.0),
            || netgrid::run_remote_campaign(wire_params, WIRE_JOINERS).map(|_| ()),
            || wire_twin.run_in_process(&wire_twin.config).map(|_| ()),
        )
    })?;
    let grid_setup_reps: Vec<f64> = (0..10)
        .map(|_| {
            let (r, took) = tracer.leaf("facade.netgrid", "probe.grid_setup", 1, || {
                clock::time(|| empty_remote_campaign(seed))
            });
            r.map(|()| clock::ms(took))
        })
        .collect::<Result<_, _>>()?;
    wire_twin.clean_up();
    w.clean_up();
    let calib_after = clock::host_calibration_ns();

    // Estimated from outside: a probe's cost times the count the walk's
    // cost reports and messages give.
    let task_ms_in_walk = first.f_evals * eval_ns / 1e6;
    let merkle_ms_in_walk = (first.tree_leaves * merkle.build_ns_per_leaf
        + first.proofs * (merkle.prove_ns + merkle.verify_ns))
        / 1e6;
    let cheaters = w.cheaters() as f64;

    let metrics: Vec<Metric> = vec![
        metric("hash.sha256_pair_ns", "ns", hash.pair_ns),
        metric("hash.sha256_leaf_ns", "ns", hash.leaf_ns),
        metric("hash.sha256_stream_mb_s", "MB/s", hash.stream_mb_s),
        metric(
            "hash.ops_per_session",
            "count",
            counts.participant_hash_ops as f64 / sessions,
        ),
        metric("merkle.build_ns_per_leaf", "ns", merkle.build_ns_per_leaf),
        metric("merkle.prove_ns", "ns", merkle.prove_ns),
        metric("merkle.verify_ns", "ns", merkle.verify_ns),
        metric("merkle.walk_share", "ratio", merkle_ms_in_walk / walk_ms),
        metric("task.eval_ns_per_input", "ns", eval_ns),
        metric(
            "task.f_evals_per_session",
            "count",
            counts.participant_f_evals as f64 / sessions,
        ),
        metric("task.walk_share", "ratio", task_ms_in_walk / walk_ms),
        metric(
            "core.scheme.participant_ms_per_campaign",
            "ms",
            participant_ms,
        ),
        metric(
            "core.scheme.supervisor_ms_per_campaign",
            "ms",
            supervisor_ms,
        ),
        metric(
            "core.scheme.supervisor_over_participant_time",
            "ratio",
            supervisor_ms / participant_ms,
        ),
        metric(
            "core.scheme.commit_ms",
            "ms",
            walk_median(&walks, |w| w.commit_ms),
        ),
        metric(
            "core.scheme.verify_ms",
            "ms",
            walk_median(&walks, |w| w.verify_ms),
        ),
        metric(
            "core.scheme.cheaters_caught_share",
            "ratio",
            if cheaters > 0.0 {
                counts.rejected as f64 / cheaters
            } else {
                0.0
            },
        ),
        metric("core.engine.campaign_over_walk", "ratio", own_ms / walk_ms),
        metric(
            "core.orchestrator.attempts_per_session",
            "count",
            counts.attempts as f64 / sessions,
        ),
        metric(
            "grid.codec.encode_ns_per_msg",
            "ns",
            walk_median(&walks, |w| w.encode_ns / w.messages),
        ),
        metric(
            "grid.codec.decode_ns_per_msg",
            "ns",
            walk_median(&walks, |w| w.decode_ns / w.messages),
        ),
        metric(
            "grid.codec.msgs_per_session",
            "count",
            counts.messages as f64 / sessions,
        ),
        metric("grid.transport.duplex_ns_per_msg", "ns", duplex_ns),
        metric("grid.broker.relay_ns_per_msg", "ns", relay_ns),
        metric(
            "grid.broker.brokered_over_direct",
            "ratio",
            brokered_vs_direct.ratio,
        ),
        metric("grid.scheduler.poll_ns", "ns", sched.poll_ns),
        metric("grid.scheduler.park_wake_us", "us", sched.park_wake_us),
        metric(
            "grid.scheduler.workers1_slowdown",
            "ratio",
            one_worker_vs_pool.ratio,
        ),
        metric(
            "grid.fault.events_per_campaign",
            "count",
            counts.fault_events as f64,
        ),
        metric("grid.fault.decision_ns", "ns", decision_ns),
        metric("grid.fault.retry_cost_ms", "ms", faulted_vs_clean.diff_ms),
        metric("journal.append_us", "us", append_us),
        metric("journal.verify_ms", "ms", stats::median(&verify_reps)),
        metric("journal.records_per_campaign", "count", seal_records),
        metric("journal.bytes_per_campaign", "B", journal_bytes as f64),
        metric("journal.overhead_ms", "ms", journaled_vs_not.diff_ms),
        metric("core.journal.resume_ms", "ms", stats::median(&resume_reps)),
        metric("grid.wire.write_frame_ns", "ns", wire.write_frame_ns),
        metric("grid.wire.read_frame_ns", "ns", wire.read_frame_ns),
        metric("grid.tcp.frame_rtt_us", "us", tcp.frame_rtt_us),
        metric("grid.tcp.stream_msgs_per_s", "1/s", tcp.stream_msgs_per_s),
        metric("grid.tcp.handshake_ms", "ms", tcp.handshake_ms),
        metric(
            "facade.netgrid.grid_setup_ms",
            "ms",
            stats::median(&grid_setup_reps),
        ),
        metric(
            "facade.netgrid.remote_over_brokered",
            "ratio",
            remote_vs_twin.ratio,
        ),
        metric("facade.campaign.plan_expand_us", "us", plan_expand_ns / 1e3),
        metric("facade.campaign.ms_p50", "ms", own_ms),
        metric("facade.campaign.ms_p90", "ms", tail_ms),
        metric("facade.campaign.tail_percentile", "%", tail_p),
        metric(
            "bench.trace_overhead_share",
            "ratio",
            stats::median(&phase.traced_ms) / stats::median(&phase.untraced_ms) - 1.0,
        ),
        metric("bench.host_slowdown", "ratio", slowdown_before),
        metric("bench.host_calib_ns", "ns", calib_before),
        metric(
            "bench.host_calib_drift",
            "ratio",
            calib_after / calib_before - 1.0,
        ),
    ];
    let detail = vec![
        ("campaign_ms_p50".to_string(), Value::Num(own_ms)),
        (
            "campaign_samples".to_string(),
            Value::Num(all_sorted.len() as f64),
        ),
        ("walk_ms_per_campaign".to_string(), Value::Num(walk_ms)),
        (
            "walk_messages_per_campaign".to_string(),
            Value::Num(first.messages),
        ),
        (
            "brokered_ms".to_string(),
            Value::Num(brokered_vs_direct.a_ms),
        ),
        ("direct_ms".to_string(), Value::Num(brokered_vs_direct.b_ms)),
        (
            "workers1_ms".to_string(),
            Value::Num(one_worker_vs_pool.a_ms),
        ),
        ("faulted_ms".to_string(), Value::Num(faulted_vs_clean.a_ms)),
        ("clean_ms".to_string(), Value::Num(faulted_vs_clean.b_ms)),
        (
            "journaled_ms".to_string(),
            Value::Num(journaled_vs_not.a_ms),
        ),
        (
            "unjournaled_ms".to_string(),
            Value::Num(journaled_vs_not.b_ms),
        ),
        ("remote_ms".to_string(), Value::Num(remote_vs_twin.a_ms)),
        (
            "remote_twin_ms".to_string(),
            Value::Num(remote_vs_twin.b_ms),
        ),
        (
            "classes".to_string(),
            Value::Arr(
                classes
                    .iter()
                    .map(|c| {
                        Value::obj([
                            ("scheme", Value::str(c.scheme)),
                            ("share", Value::Num(c.share.len() as f64)),
                            ("cheats", Value::Bool(c.cheats)),
                            ("members", Value::Num(c.multiplicity as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    let result = RunResult {
        kind,
        seed,
        traced: true,
        correct: phase.failed == 0 && phase.attempted > 0,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics,
        detail,
    };
    Ok((result, tracer))
}
