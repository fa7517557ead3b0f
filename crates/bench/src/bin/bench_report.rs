//! Records the performance baseline: runs the workloads behind the six
//! criterion benches plus the PR 2 serial-vs-parallel comparisons, the
//! PR 3 session-engine workloads, the PR 4 chaos-soak campaign, the
//! PR 5 scheduler-scale campaign (1000 participants on a fixed pool),
//! the PR 7 journal-overhead comparison (the same fleet with and
//! without the write-ahead campaign journal) and the PR 8 hot-path
//! workloads (`steal_scale`: the 1000-slot campaign across work-stealing
//! pool sizes; `hash_blocks`: the multi-block one-shot digest kernel vs
//! the streaming state), the PR 9 `wire_overhead` comparison (the same
//! campaign over the in-process broker vs the framed TCP wire protocol
//! on loopback), the PR 10 `hash_lanes`/`merkle_lanes` comparisons
//! (message-parallel multi-lane digest kernels vs scalar dispatch of the
//! same batches), and writes the measurements to a JSON file so the perf
//! trajectory can be compared across PRs.
//!
//! Every serial/parallel pair is checked for **bit-identical output**
//! (roots, Monte-Carlo counts), the engine-over-broker round is checked
//! bit-identical to the legacy in-process round (verdict, bytes,
//! ledgers), the chaos soak is checked to replay bit-identically from
//! its seed, and the scheduler-scale campaign is checked bit-identical
//! across worker counts {1, 4, 8} *and* work-stealing seeds (the PR 8
//! stealing scheduler must keep every digest bit in place no matter
//! which worker wins which task); any divergence fails the run with a
//! non-zero exit code, which is what the CI quick-mode step keys off.
//!
//! `--compare BASELINE.json` is the **trajectory gate**: workloads shared
//! with the baseline file must not regress more than 2× (the build fails
//! otherwise), so a perf cliff cannot land silently.
//!
//! Run: `cargo run --release -p ugc-bench --bin bench_report`
//! (`--quick` shrinks sizes for CI; `--out PATH` overrides
//! `BENCH_pr10.json`; `--compare PATH` enables the gate).

#![forbid(unsafe_code)]

use criterion::{black_box, Bencher};
use std::fmt::Write as _;
use std::time::Duration;
use ugc_core::sampling::derive_samples;
use ugc_core::scheme::cbs::{run_cbs, CbsConfig, CbsScheme};
use ugc_core::scheme::double_check::DoubleCheckScheme;
use ugc_core::scheme::naive::NaiveScheme;
use ugc_core::scheme::ni_cbs::NiCbsScheme;
use ugc_core::scheme::ringer::RingerScheme;
use ugc_core::{
    run_durable_fleet, run_mixed_fleet, summary_digest, CampaignHeader, DurableCampaign,
    FleetSummary, FleetTransport, MemberSpec, MixedFleetConfig, ParticipantStorage,
    VerificationScheme,
};
use ugc_grid::runtime::FaultPlan;
use ugc_grid::{CostLedger, HonestWorker, WorkerBehaviour};
use ugc_hash::{
    digest_batch, digest_iterated_batch, streaming_digest_iterated, streaming_digest_pair,
    HashFunction, IteratedHash, LaneWidth, Md5, Sha256,
};
use ugc_journal::CrashPlan;
use ugc_merkle::{MerkleTree, Parallelism, PartialMerkleTree, StreamingBuilder};
use ugc_sim::{
    estimate_cheat_success_fast, estimate_cheat_success_fast_parallel, DetectionExperiment,
};
use ugc_task::workloads::PasswordSearch;
use ugc_task::{ComputeTask, Domain};
use uncheatable_grid::campaign::{CampaignPlan, FleetParams};
use uncheatable_grid::netgrid;

/// One measured workload.
struct Entry {
    name: &'static str,
    ns_per_op: f64,
}

/// Median-of-N ns/op through the vendored smoke-timer.
fn time<O>(routine: impl FnMut() -> O) -> f64 {
    let mut bencher = Bencher::default();
    bencher.iter(routine);
    bencher.median_ns_per_iter().expect("measured")
}

fn leaves(n: u64) -> Vec<[u8; 16]> {
    (0..n)
        .map(|x| {
            let mut leaf = [0u8; 16];
            leaf[..8].copy_from_slice(&x.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes());
            leaf
        })
        .collect()
}

/// Extracts the baseline's `"mode"` field. Entry names are shared
/// between quick and full runs but measure different sizes, so a
/// cross-mode comparison would gate nothing: it must be refused.
fn parse_baseline_mode(text: &str) -> Option<String> {
    text.lines()
        .filter_map(|line| line.trim().strip_prefix("\"mode\": \""))
        .map(|rest| rest.trim_end_matches(['"', ','].as_slice()).to_owned())
        .next()
}

/// Extracts the `{"name": …, "ns_per_op": …}` pairs from a baseline file
/// written by an earlier `bench_report` run (any PR's schema).
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut entries = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("{\"name\": \"") else {
            continue;
        };
        let Some((name, rest)) = rest.split_once("\", \"ns_per_op\": ") else {
            continue;
        };
        let value = rest.trim_end_matches(['}', ',', ' ']);
        if let Ok(ns_per_op) = value.parse::<f64>() {
            entries.push((name.to_owned(), ns_per_op));
        }
    }
    entries
}

/// How much slower a workload may get against the baseline before the
/// trajectory gate fails the build.
const GATE_REGRESSION_FACTOR: f64 = 2.0;

/// The chaos-soak campaign: all five schemes, ten participant threads
/// behind the broker, seeded duplication/reordering/latency plus
/// crash/restart churn. Returns the fleet summary; the caller checks the
/// replay digest and records throughput.
fn run_soak(n_per_member: u64) -> FleetSummary {
    let task = PasswordSearch::with_hidden_password(7, 3);
    let screener = task.match_screener();
    let honest = HonestWorker;
    let cbs = CbsScheme {
        samples: 16,
        seed: 11,
        report_audit: 0,
    };
    let ni = NiCbsScheme {
        samples: 16,
        g_iterations: 2,
        report_audit: 0,
        audit_seed: 13,
    };
    let naive = NaiveScheme {
        samples: 16,
        seed: 14,
    };
    let ringer = RingerScheme {
        ringers: 8,
        seed: 15,
    };
    let double_check = DoubleCheckScheme;
    let schemes: Vec<&dyn VerificationScheme<Sha256>> = vec![
        &cbs,
        &ni,
        &naive,
        &ringer,
        &double_check,
        &cbs,
        &ni,
        &naive,
        &ringer,
    ];
    let members: Vec<MemberSpec<'_, Sha256>> = schemes
        .into_iter()
        .map(|scheme| MemberSpec {
            scheme,
            behaviours: vec![&honest as &dyn WorkerBehaviour; scheme.participant_slots()],
        })
        .collect();
    let total = n_per_member * members.len() as u64;
    run_mixed_fleet(
        &task,
        &screener,
        Domain::new(0, total),
        &members,
        &MixedFleetConfig {
            transport: FleetTransport::Brokered,
            chaos: Some(FaultPlan::chaos(0x50a6_c4a0).with_churn(150)),
            deadline: Some(Duration::from_secs(30)),
            retries: 8,
            ..MixedFleetConfig::default()
        },
    )
    .expect("the soak campaign must converge within its retry budget")
}

/// The PR 5 scheduler-scale campaign: 1000 participant slots — the five
/// schemes cycling, honest workers, seeded churn — multiplexed over a
/// fixed [`GridScheduler`](ugc_grid::runtime::GridScheduler) pool behind
/// the broker. No host could run this on one OS thread per participant;
/// the work-stealing scheduler (PR 8) runs it on any pool size — and
/// under any steal-seed victim order — with a bit-identical outcome.
fn run_scheduler_scale(workers: usize, steal_seed: u64) -> FleetSummary {
    const SLOTS: usize = 1000;
    const SHARE: u64 = 8;
    let task = PasswordSearch::with_hidden_password(0x5CA1_E50A, 3);
    let screener = task.match_screener();
    let honest = HonestWorker;
    let cbs = CbsScheme {
        samples: 6,
        seed: 11,
        report_audit: 0,
    };
    let ni = NiCbsScheme {
        samples: 6,
        g_iterations: 1,
        report_audit: 0,
        audit_seed: 13,
    };
    let naive = NaiveScheme {
        samples: 6,
        seed: 14,
    };
    let ringer = RingerScheme {
        ringers: 4,
        seed: 15,
    };
    let double_check = DoubleCheckScheme;
    let cycle: [&dyn VerificationScheme<Sha256>; 5] = [&cbs, &ni, &naive, &ringer, &double_check];
    let mut members: Vec<MemberSpec<'_, Sha256>> = Vec::new();
    let mut slots = 0usize;
    let mut kind = 0usize;
    while slots < SLOTS {
        let scheme = cycle[kind % cycle.len()];
        let scheme: &dyn VerificationScheme<Sha256> = if slots + scheme.participant_slots() > SLOTS
        {
            &cbs
        } else {
            scheme
        };
        slots += scheme.participant_slots();
        kind += 1;
        members.push(MemberSpec {
            scheme,
            behaviours: vec![&honest as &dyn WorkerBehaviour; scheme.participant_slots()],
        });
    }
    run_mixed_fleet(
        &task,
        &screener,
        Domain::new(0, members.len() as u64 * SHARE),
        &members,
        &MixedFleetConfig {
            transport: FleetTransport::Brokered,
            // Churn but no drops: failed sessions NACK fast through the
            // broker, so no wall-clock deadline is involved at any pool
            // size.
            chaos: Some(FaultPlan::chaos(0x5CA1_E50A).with_churn(40)),
            retries: 8,
            workers: Some(workers),
            steal_seed,
            ..MixedFleetConfig::default()
        },
    )
    .expect("the scheduler-scale campaign must converge within its retry budget")
}

/// The deterministic part of a soak summary: verdicts, attempts, bytes
/// and the injected-fault log — everything that must replay identically.
fn soak_digest(summary: &FleetSummary) -> String {
    let mut out = String::new();
    for m in &summary.members {
        let _ = write!(
            out,
            "{}:{}:{}:{}:{};",
            m.participant,
            m.outcome.accepted,
            m.attempts,
            m.outcome.supervisor_link.bytes_sent,
            m.outcome.supervisor_link.bytes_received
        );
    }
    let _ = write!(out, "faults {:?}", summary.fault_events);
    out
}

fn main() {
    let mut quick = false;
    let mut out_path = String::from("BENCH_pr10.json");
    let mut compare_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out requires a path"),
            "--compare" => compare_path = Some(args.next().expect("--compare requires a path")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_report [--quick] [--out PATH] [--compare BASELINE.json]");
                std::process::exit(2);
            }
        }
    }

    let parallelism = Parallelism::default();
    let threads = parallelism.get();
    let merkle_n: u64 = if quick { 1 << 12 } else { 1 << 16 };
    let proof_n: u64 = if quick { 1 << 10 } else { 1 << 14 };
    let hash_bytes: usize = if quick { 4096 } else { 65536 };
    let sim_trials: u32 = if quick { 2_000 } else { 20_000 };
    let e2e_n: u64 = if quick { 1 << 8 } else { 1 << 12 };
    println!(
        "bench_report: mode={} threads={threads} merkle_leaves={merkle_n} sim_trials={sim_trials}",
        if quick { "quick" } else { "full" }
    );

    let mut entries: Vec<Entry> = Vec::new();
    let mut divergence = false;

    // --- Tentpole 1: Merkle construction, serial vs parallel. ---
    let data = leaves(merkle_n);
    let serial_tree = MerkleTree::<Sha256>::build(&data).unwrap();
    let parallel_tree = MerkleTree::<Sha256>::build_parallel(&data, parallelism).unwrap();
    if serial_tree.root() != parallel_tree.root() {
        eprintln!("DIVERGENCE: parallel merkle root != serial root");
        divergence = true;
    }
    entries.push(Entry {
        name: "merkle_build/sha256_serial",
        ns_per_op: time(|| black_box(MerkleTree::<Sha256>::build(&data).unwrap().root())),
    });
    entries.push(Entry {
        name: "merkle_build/sha256_parallel",
        ns_per_op: time(|| {
            black_box(
                MerkleTree::<Sha256>::build_parallel(&data, parallelism)
                    .unwrap()
                    .root(),
            )
        }),
    });
    let (streamed_root, _) = StreamingBuilder::<Sha256>::parallel_root(&data, parallelism).unwrap();
    if streamed_root != serial_tree.root() {
        eprintln!("DIVERGENCE: streaming parallel root != serial root");
        divergence = true;
    }
    entries.push(Entry {
        name: "merkle_streaming_root/serial",
        ns_per_op: time(|| {
            let mut builder: StreamingBuilder<Sha256> = StreamingBuilder::new();
            for leaf in &data {
                builder.push(leaf).unwrap();
            }
            black_box(builder.finalize().unwrap())
        }),
    });
    entries.push(Entry {
        name: "merkle_streaming_root/parallel",
        ns_per_op: time(|| {
            black_box(
                StreamingBuilder::<Sha256>::parallel_root(&data, parallelism)
                    .unwrap()
                    .0,
            )
        }),
    });

    // --- Tentpole 2: digest fast paths vs the generic streaming path. ---
    let left32 = [0x11u8; 32];
    let right32 = [0x22u8; 32];
    if Sha256::digest_pair(&left32, &right32) != streaming_digest_pair::<Sha256>(&left32, &right32)
    {
        eprintln!("DIVERGENCE: sha256 digest_pair fast path != streaming");
        divergence = true;
    }
    entries.push(Entry {
        name: "digest_pair/sha256_fast",
        ns_per_op: time(|| black_box(Sha256::digest_pair(&left32, &right32))),
    });
    entries.push(Entry {
        name: "digest_pair/sha256_streaming",
        ns_per_op: time(|| black_box(streaming_digest_pair::<Sha256>(&left32, &right32))),
    });
    entries.push(Entry {
        name: "digest_pair/md5_fast",
        ns_per_op: time(|| black_box(Md5::digest_pair(&left32[..16], &right32[..16]))),
    });
    entries.push(Entry {
        name: "digest_pair/md5_streaming",
        ns_per_op: time(|| black_box(streaming_digest_pair::<Md5>(&left32[..16], &right32[..16]))),
    });
    let g = IteratedHash::<Md5>::new(1000);
    if g.apply(b"seed") != streaming_digest_iterated::<Md5>(b"seed", 1000) {
        eprintln!("DIVERGENCE: md5 digest_iterated fast path != streaming");
        divergence = true;
    }
    entries.push(Entry {
        name: "iterated_hash/md5_k1000_fast",
        ns_per_op: time(|| black_box(g.apply(b"seed"))),
    });
    entries.push(Entry {
        name: "iterated_hash/md5_k1000_streaming",
        ns_per_op: time(|| black_box(streaming_digest_iterated::<Md5>(b"seed", 1000))),
    });

    // --- Tentpole 3: Monte-Carlo trials, serial vs sharded. ---
    let exp = DetectionExperiment {
        domain_size: 0,
        samples: 14,
        honesty_ratio: 0.5,
        guess_quality: 0.0,
        trials: sim_trials,
        seed: 0x00be_2c47,
    };
    let serial_est = estimate_cheat_success_fast(&exp);
    let sharded_est = estimate_cheat_success_fast_parallel(&exp, parallelism);
    if serial_est.successes != sharded_est.successes {
        eprintln!(
            "DIVERGENCE: sharded Monte-Carlo counts {} != serial {}",
            sharded_est.successes, serial_est.successes
        );
        divergence = true;
    }
    entries.push(Entry {
        name: "sim_fast/serial",
        ns_per_op: time(|| black_box(estimate_cheat_success_fast(&exp).successes)),
    });
    entries.push(Entry {
        name: "sim_fast/sharded",
        ns_per_op: time(|| {
            black_box(estimate_cheat_success_fast_parallel(&exp, parallelism).successes)
        }),
    });

    // --- The remaining criterion-bench workloads. ---
    let hash_data = vec![0xA5u8; hash_bytes];
    entries.push(Entry {
        name: "hash_throughput/sha256",
        ns_per_op: time(|| black_box(Sha256::digest(&hash_data))),
    });

    // --- PR 8 kernel workload: the multi-block one-shot digest (every
    // full block compressed straight out of the input slice) vs the
    // streaming state driven in 61-byte chunks, which forces the
    // per-block staging copy on every block. The two must agree bit for
    // bit; the speedup is what block-at-once scheduling buys.
    let streaming_sha256 = |data: &[u8]| {
        let mut st = Sha256::new_state();
        for piece in data.chunks(61) {
            Sha256::update(&mut st, piece);
        }
        Sha256::finalize(st)
    };
    if Sha256::digest(&hash_data) != streaming_sha256(&hash_data) {
        eprintln!("DIVERGENCE: sha256 multi-block one-shot != streaming state");
        divergence = true;
    }
    entries.push(Entry {
        name: "hash_blocks/sha256_multiblock",
        ns_per_op: time(|| black_box(Sha256::digest(&hash_data))),
    });
    entries.push(Entry {
        name: "hash_blocks/sha256_streaming",
        ns_per_op: time(|| black_box(streaming_sha256(&hash_data))),
    });
    let md5_streaming = |data: &[u8]| {
        let mut st = Md5::new_state();
        for piece in data.chunks(61) {
            Md5::update(&mut st, piece);
        }
        Md5::finalize(st)
    };
    if Md5::digest(&hash_data) != md5_streaming(&hash_data) {
        eprintln!("DIVERGENCE: md5 multi-block one-shot != streaming state");
        divergence = true;
    }
    entries.push(Entry {
        name: "hash_blocks/md5_multiblock",
        ns_per_op: time(|| black_box(Md5::digest(&hash_data))),
    });
    entries.push(Entry {
        name: "hash_blocks/md5_streaming",
        ns_per_op: time(|| black_box(md5_streaming(&hash_data))),
    });
    // --- PR 10 tentpole: message-parallel lane kernels. A batch of
    // independent messages hashed through the 8-wide transposed
    // compression state vs one-at-a-time scalar dispatch of the same
    // batch (LaneWidth::Scalar), for the two shapes the stack actually
    // runs hot: iterated MD5 chains (PasswordSearch's `MD5^w`) and
    // one-shot SHA-256 batches (Merkle leaf levels). Every width must
    // produce bit-identical digests.
    let lane_seeds: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i ^ 0x5A; 16]).collect();
    let lane_seed_refs: Vec<&[u8]> = lane_seeds.iter().map(|s| s.as_slice()).collect();
    let lane_k: u64 = if quick { 200 } else { 1000 };
    let lane_msgs: Vec<Vec<u8>> = (0..if quick { 512usize } else { 4096 })
        .map(|i| {
            (0..64)
                .map(|j| (i.wrapping_mul(31) ^ j).to_le_bytes()[0])
                .collect()
        })
        .collect();
    let lane_msg_refs: Vec<&[u8]> = lane_msgs.iter().map(|m| m.as_slice()).collect();
    for width in [LaneWidth::X4, LaneWidth::X8] {
        if digest_iterated_batch::<Md5>(&lane_seed_refs, lane_k, width)
            != digest_iterated_batch::<Md5>(&lane_seed_refs, lane_k, LaneWidth::Scalar)
        {
            eprintln!("DIVERGENCE: md5 iterated lane batch at {width} != scalar");
            divergence = true;
        }
        if digest_batch::<Sha256>(&lane_msg_refs, width)
            != digest_batch::<Sha256>(&lane_msg_refs, LaneWidth::Scalar)
        {
            eprintln!("DIVERGENCE: sha256 lane batch at {width} != scalar");
            divergence = true;
        }
    }
    entries.push(Entry {
        name: "hash_lanes/md5_iter_scalar",
        ns_per_op: time(|| {
            black_box(digest_iterated_batch::<Md5>(
                &lane_seed_refs,
                lane_k,
                LaneWidth::Scalar,
            ))
        }),
    });
    entries.push(Entry {
        name: "hash_lanes/md5_iter_x4",
        ns_per_op: time(|| {
            black_box(digest_iterated_batch::<Md5>(
                &lane_seed_refs,
                lane_k,
                LaneWidth::X4,
            ))
        }),
    });
    entries.push(Entry {
        name: "hash_lanes/md5_iter_x8",
        ns_per_op: time(|| {
            black_box(digest_iterated_batch::<Md5>(
                &lane_seed_refs,
                lane_k,
                LaneWidth::X8,
            ))
        }),
    });
    entries.push(Entry {
        name: "hash_lanes/sha256_batch_scalar",
        ns_per_op: time(|| black_box(digest_batch::<Sha256>(&lane_msg_refs, LaneWidth::Scalar))),
    });
    entries.push(Entry {
        name: "hash_lanes/sha256_batch_x8",
        ns_per_op: time(|| black_box(digest_batch::<Sha256>(&lane_msg_refs, LaneWidth::X8))),
    });

    // The same knob one layer up: a serial Merkle build whose levels go
    // through the lane kernels vs the scalar pair digest. Roots must be
    // bit-identical at every width (and to the plain build above).
    let lane_tree_leaves = leaves(if quick { 1 << 10 } else { 1 << 14 });
    let lane_root = |width: LaneWidth| {
        MerkleTree::<Sha256>::build_with(&lane_tree_leaves, Parallelism::serial(), width)
            .unwrap()
            .root()
    };
    for width in [LaneWidth::X4, LaneWidth::X8] {
        if lane_root(width) != lane_root(LaneWidth::Scalar) {
            eprintln!("DIVERGENCE: merkle root at lane width {width} != scalar");
            divergence = true;
        }
    }
    entries.push(Entry {
        name: "merkle_lanes/sha256_build_scalar",
        ns_per_op: time(|| black_box(lane_root(LaneWidth::Scalar))),
    });
    entries.push(Entry {
        name: "merkle_lanes/sha256_build_x8",
        ns_per_op: time(|| black_box(lane_root(LaneWidth::X8))),
    });

    let proof_tree = MerkleTree::<Sha256>::build(&leaves(proof_n)).unwrap();
    let proof_root = proof_tree.root();
    let proof_leaf = proof_tree.leaf(proof_n / 3).unwrap().to_vec();
    let proof = proof_tree.prove(proof_n / 3).unwrap();
    entries.push(Entry {
        name: "merkle_proofs/prove",
        ns_per_op: time(|| black_box(proof_tree.prove(proof_n / 3).unwrap())),
    });
    entries.push(Entry {
        name: "merkle_proofs/verify",
        ns_per_op: time(|| black_box(proof.verify(&proof_root, &proof_leaf))),
    });
    let root16 = [0xABu8; 16];
    let ledger = CostLedger::new();
    let g100 = IteratedHash::<Md5>::new(100);
    entries.push(Entry {
        name: "ni_sample_derivation/m50_k100",
        ns_per_op: time(|| black_box(derive_samples(&g100, &root16, 50, 1 << 20, &ledger))),
    });
    let task = PasswordSearch::with_hidden_password(1, 2);
    let provider = |x: u64| task.compute(x);
    entries.push(Entry {
        name: "partial_tree/build_ell7",
        ns_per_op: time(|| {
            black_box(
                PartialMerkleTree::<Sha256>::build(proof_n, task.output_width(), 7, provider)
                    .unwrap()
                    .root(),
            )
        }),
    });
    let e2e_task = PasswordSearch::with_hidden_password(1, 7);
    let e2e_screener = e2e_task.match_screener();
    entries.push(Entry {
        name: "scheme_e2e/cbs_full",
        ns_per_op: time(|| {
            black_box(
                run_cbs::<Sha256, _, _, _>(
                    &e2e_task,
                    &e2e_screener,
                    Domain::new(0, e2e_n),
                    &HonestWorker,
                    ParticipantStorage::Full,
                    &CbsConfig {
                        task_id: 1,
                        samples: 32,
                        seed: 2,
                        report_audit: 0,
                    },
                )
                .unwrap(),
            )
        }),
    });

    // --- PR 3 tentpole: the session engine over the broker transport. ---
    // One CBS round, legacy in-process path vs engine-multiplexed over a
    // relaying broker: the verdict, the supervisor's byte counts and both
    // cost ledgers must agree bit for bit, and we record what the
    // brokered indirection costs in wall-clock terms.
    let legacy_round = run_cbs::<Sha256, _, _, _>(
        &e2e_task,
        &e2e_screener,
        Domain::new(0, e2e_n),
        &HonestWorker,
        ParticipantStorage::Full,
        &CbsConfig {
            task_id: 0,
            samples: 32,
            seed: 2,
            report_audit: 0,
        },
    )
    .unwrap();
    let engine_scheme = CbsScheme {
        samples: 32,
        seed: 2,
        report_audit: 0,
    };
    let engine_fleet = |transport: FleetTransport, members: usize| {
        let specs: Vec<MemberSpec<'_, Sha256>> = (0..members)
            .map(|_| MemberSpec {
                scheme: &engine_scheme,
                behaviours: vec![&HonestWorker as &dyn WorkerBehaviour],
            })
            .collect();
        run_mixed_fleet(
            &e2e_task,
            &e2e_screener,
            Domain::new(0, e2e_n * members as u64),
            &specs,
            &MixedFleetConfig {
                transport,
                ..MixedFleetConfig::default()
            },
        )
        .unwrap()
    };
    let brokered = engine_fleet(FleetTransport::Brokered, 1);
    let engine_round = &brokered.members[0].outcome;
    if engine_round.verdict != legacy_round.verdict
        || engine_round.supervisor_link != legacy_round.supervisor_link
        || engine_round.supervisor_costs != legacy_round.supervisor_costs
        || engine_round.participant_costs != legacy_round.participant_costs
    {
        eprintln!("DIVERGENCE: engine-over-broker CBS round != legacy in-process round");
        divergence = true;
    }
    entries.push(Entry {
        name: "scheme_e2e/cbs_engine_brokered",
        ns_per_op: time(|| black_box(engine_fleet(FleetTransport::Brokered, 1))),
    });
    entries.push(Entry {
        name: "engine/brokered_fleet_x4",
        ns_per_op: time(|| black_box(engine_fleet(FleetTransport::Brokered, 4))),
    });
    entries.push(Entry {
        name: "engine/direct_fleet_x4",
        ns_per_op: time(|| black_box(engine_fleet(FleetTransport::Direct, 4))),
    });

    // --- PR 7 tentpole: the crash-durable campaign journal. The same
    // 4-member direct fleet with every round written ahead to a
    // checksummed journal before the supervisor acts on it: the outcome
    // must be bit-identical to the unjournaled run, and the measured
    // entry (vs engine/direct_fleet_x4) is what durability costs.
    let journal_file =
        std::env::temp_dir().join(format!("ugc-bench-journal-{}.wal", std::process::id()));
    let durable_fleet = || {
        let specs: Vec<MemberSpec<'_, Sha256>> = (0..4)
            .map(|_| MemberSpec {
                scheme: &engine_scheme,
                behaviours: vec![&HonestWorker as &dyn WorkerBehaviour],
            })
            .collect();
        let config = MixedFleetConfig {
            transport: FleetTransport::Direct,
            ..MixedFleetConfig::default()
        };
        let domain = Domain::new(0, e2e_n * 4);
        let header = CampaignHeader::for_campaign(&specs, domain, &config, Vec::new());
        // JournalWriter::create truncates, so every iteration journals
        // from scratch — the measured cost is a full durable campaign.
        let mut campaign =
            DurableCampaign::create(&journal_file, header, CrashPlan::never()).unwrap();
        run_durable_fleet(
            &e2e_task,
            &e2e_screener,
            domain,
            &specs,
            &config,
            &mut campaign,
        )
        .unwrap()
    };
    if soak_digest(&durable_fleet()) != soak_digest(&engine_fleet(FleetTransport::Direct, 4)) {
        eprintln!("DIVERGENCE: journaled fleet != unjournaled fleet");
        divergence = true;
    }
    entries.push(Entry {
        name: "journal_overhead/durable_fleet_x4",
        ns_per_op: time(|| black_box(durable_fleet())),
    });
    let _ = std::fs::remove_file(&journal_file);

    // --- PR 4 tentpole: the chaos soak. Ten participant slots on the
    // default scheduler pool, five schemes, seeded faults and churn; the
    // campaign must replay bit-identically, and its wall-clock
    // throughput is the soak baseline CI tracks.
    let soak_n: u64 = if quick { 64 } else { 256 };
    let soak = run_soak(soak_n);
    let soak_replay = run_soak(soak_n);
    if soak_digest(&soak) != soak_digest(&soak_replay) {
        eprintln!("DIVERGENCE: chaos soak did not replay bit-identically from its seed");
        divergence = true;
    }
    if soak.members.iter().any(|m| !m.outcome.accepted) {
        eprintln!("DIVERGENCE: an honest soak participant was rejected");
        divergence = true;
    }
    entries.push(Entry {
        name: "engine/chaos_soak_x10",
        ns_per_op: time(|| black_box(run_soak(soak_n))),
    });

    // --- PR 5/PR 8 tentpole: the work-stealing scheduler at scale. A
    // thousand participant slots multiplexed over a fixed pool; the
    // outcome must be bit-identical at every worker count {1, 4, 8}
    // *and* under every work-stealing victim order (both are
    // scheduling, never semantics). The 4-worker wall-clock is the
    // scale baseline CI tracks; the steal_scale sweep shows how the
    // per-worker run queues scale with the pool.
    let scale = run_scheduler_scale(4, 0);
    let scale_reference = soak_digest(&scale);
    for (workers, steal_seed) in [(1usize, 0u64), (8, 0), (4, 0xDEAD_BEEF), (8, u64::MAX)] {
        if soak_digest(&run_scheduler_scale(workers, steal_seed)) != scale_reference {
            eprintln!(
                "DIVERGENCE: scheduler-scale campaign at {workers} workers \
                 (steal seed {steal_seed:#x}) differs from 4 workers (seed 0)"
            );
            divergence = true;
        }
    }
    if scale.members.iter().any(|m| !m.outcome.accepted) {
        eprintln!("DIVERGENCE: an honest scheduler-scale participant was rejected");
        divergence = true;
    }
    entries.push(Entry {
        name: "engine/scheduler_scale_1000x4",
        ns_per_op: time(|| black_box(run_scheduler_scale(4, 0))),
    });
    entries.push(Entry {
        name: "engine/steal_scale_1000x1",
        ns_per_op: time(|| black_box(run_scheduler_scale(1, 0))),
    });
    entries.push(Entry {
        name: "engine/steal_scale_1000x8",
        ns_per_op: time(|| black_box(run_scheduler_scale(8, 0))),
    });

    // --- PR 9 tentpole: what the framed TCP wire protocol costs. The
    // same CBS campaign twice — once over the in-process broker, once
    // over a loopback grid (`GridServer` + joiner threads around real
    // TCP sockets, the path `ugc broker serve` / `participant join` /
    // `fleet --connect` runs). The digests must be bit-identical (the
    // wire is execution layout, never campaign identity), and the pair
    // of entries is the per-campaign price of leaving the process.
    let wire_params = FleetParams {
        participants: 3,
        cheaters: 1,
        n: if quick { 240 } else { 960 },
        m: 8,
        seed: 11,
        scheme: "cbs".into(),
        transport: FleetTransport::Brokered,
        churn: false,
        chaos_seed: None,
    };
    let wire_brokered = || {
        let plan = CampaignPlan::new(wire_params.clone()).expect("wire plan");
        let members = plan.members();
        run_mixed_fleet(
            plan.task(),
            plan.screener(),
            plan.domain(),
            &members,
            &plan.mixed_config(None, 0, LaneWidth::default()),
        )
        .expect("in-process brokered campaign")
    };
    let wire_remote =
        || netgrid::run_remote_campaign(&wire_params, 2).expect("loopback-TCP campaign");
    let wire_local_summary = wire_brokered();
    let wire_remote_summary = wire_remote();
    if summary_digest(&wire_local_summary) != summary_digest(&wire_remote_summary) {
        eprintln!("DIVERGENCE: loopback-TCP campaign digest != in-process brokered digest");
        divergence = true;
    }
    entries.push(Entry {
        name: "wire_overhead/brokered_inprocess",
        ns_per_op: time(|| black_box(wire_brokered())),
    });
    entries.push(Entry {
        name: "wire_overhead/remote_loopback",
        ns_per_op: time(|| black_box(wire_remote())),
    });

    let ratio = |num: &str, den: &str| -> f64 {
        let get = |n: &str| {
            entries
                .iter()
                .find(|e| e.name == n)
                .expect("entry recorded")
                .ns_per_op
        };
        get(num) / get(den)
    };
    let speedups = [
        (
            "merkle_build_parallel_over_serial",
            ratio("merkle_build/sha256_serial", "merkle_build/sha256_parallel"),
        ),
        (
            "streaming_root_parallel_over_serial",
            ratio(
                "merkle_streaming_root/serial",
                "merkle_streaming_root/parallel",
            ),
        ),
        (
            "digest_pair_sha256_fast_over_streaming",
            ratio("digest_pair/sha256_streaming", "digest_pair/sha256_fast"),
        ),
        (
            "digest_pair_md5_fast_over_streaming",
            ratio("digest_pair/md5_streaming", "digest_pair/md5_fast"),
        ),
        (
            "iterated_md5_fast_over_streaming",
            ratio(
                "iterated_hash/md5_k1000_streaming",
                "iterated_hash/md5_k1000_fast",
            ),
        ),
        (
            "sim_sharded_over_serial",
            ratio("sim_fast/serial", "sim_fast/sharded"),
        ),
        (
            "engine_brokered_over_legacy_e2e",
            ratio("scheme_e2e/cbs_full", "scheme_e2e/cbs_engine_brokered"),
        ),
        (
            "engine_direct_over_brokered_fleet",
            ratio("engine/brokered_fleet_x4", "engine/direct_fleet_x4"),
        ),
        // >1 is the WAL's cost per campaign (journaled / unjournaled).
        (
            "journal_overhead_durable_over_direct",
            ratio(
                "journal_overhead/durable_fleet_x4",
                "engine/direct_fleet_x4",
            ),
        ),
        (
            "hash_multiblock_over_streaming",
            ratio(
                "hash_blocks/sha256_streaming",
                "hash_blocks/sha256_multiblock",
            ),
        ),
        // PR 10: what message-parallel lanes buy on hash-bound batches.
        (
            "hash_lanes_md5_iter_x8_over_scalar",
            ratio("hash_lanes/md5_iter_scalar", "hash_lanes/md5_iter_x8"),
        ),
        (
            "hash_lanes_sha256_batch_x8_over_scalar",
            ratio(
                "hash_lanes/sha256_batch_scalar",
                "hash_lanes/sha256_batch_x8",
            ),
        ),
        (
            "merkle_lanes_build_x8_over_scalar",
            ratio(
                "merkle_lanes/sha256_build_scalar",
                "merkle_lanes/sha256_build_x8",
            ),
        ),
        // How the per-worker run queues scale: the 1000-slot campaign on
        // 8 stealing workers vs a single worker.
        (
            "steal_scale_8_workers_over_1",
            ratio("engine/steal_scale_1000x1", "engine/steal_scale_1000x8"),
        ),
        // >1 is the wire's cost per campaign: the same fleet over
        // loopback TCP vs the in-process broker.
        (
            "wire_overhead_remote_over_brokered",
            ratio(
                "wire_overhead/remote_loopback",
                "wire_overhead/brokered_inprocess",
            ),
        ),
    ];

    println!();
    for entry in &entries {
        println!("{:<40} {:>14.1} ns/op", entry.name, entry.ns_per_op);
    }
    println!();
    for (name, value) in &speedups {
        println!("{name:<42} {value:>6.2}x");
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"ugc-bench-baseline/v1\",");
    let _ = writeln!(json, "  \"pr\": 10,");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"merkle_leaves\": {merkle_n},");
    let _ = writeln!(json, "  \"sim_trials\": {sim_trials},");
    let _ = writeln!(
        json,
        "  \"parallel_outputs_bit_identical\": {},",
        !divergence
    );
    let _ = writeln!(json, "  \"results\": [");
    for (i, entry) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"ns_per_op\": {:.1}}}{comma}",
            entry.name, entry.ns_per_op
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedups\": {{");
    for (i, (name, value)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {value:.2}{comma}");
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"soak\": {{");
    let _ = writeln!(json, "    \"participant_threads\": 10,");
    let _ = writeln!(json, "    \"sessions\": {},", soak.throughput.sessions);
    let _ = writeln!(json, "    \"bytes\": {},", soak.throughput.bytes);
    let _ = writeln!(
        json,
        "    \"wall_ms\": {:.3},",
        soak.throughput.wall.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        json,
        "    \"sessions_per_sec\": {:.1},",
        soak.throughput.sessions_per_sec()
    );
    let _ = writeln!(
        json,
        "    \"bytes_per_sec\": {:.1},",
        soak.throughput.bytes_per_sec()
    );
    let _ = writeln!(json, "    \"fault_events\": {},", soak.fault_events.len());
    let _ = writeln!(
        json,
        "    \"session_attempts\": {}",
        soak.members
            .iter()
            .map(|m| u64::from(m.attempts))
            .sum::<u64>()
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"wire_overhead\": {{");
    let _ = writeln!(json, "    \"participants\": 3,");
    let _ = writeln!(json, "    \"joiner_processes\": 2,");
    let _ = writeln!(
        json,
        "    \"brokered_sessions_per_sec\": {:.1},",
        wire_local_summary.throughput.sessions_per_sec()
    );
    let _ = writeln!(
        json,
        "    \"remote_sessions_per_sec\": {:.1},",
        wire_remote_summary.throughput.sessions_per_sec()
    );
    let _ = writeln!(
        json,
        "    \"digests_bit_identical\": {}",
        summary_digest(&wire_local_summary) == summary_digest(&wire_remote_summary)
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"scheduler_scale\": {{");
    let _ = writeln!(json, "    \"participants\": 1000,");
    let _ = writeln!(json, "    \"workers\": 4,");
    let _ = writeln!(json, "    \"members\": {},", scale.members.len());
    let _ = writeln!(json, "    \"sessions\": {},", scale.throughput.sessions);
    let _ = writeln!(json, "    \"bytes\": {},", scale.throughput.bytes);
    let _ = writeln!(
        json,
        "    \"wall_ms\": {:.3},",
        scale.throughput.wall.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        json,
        "    \"sessions_per_sec\": {:.1},",
        scale.throughput.sessions_per_sec()
    );
    let _ = writeln!(json, "    \"fault_events\": {},", scale.fault_events.len());
    let _ = writeln!(
        json,
        "    \"session_attempts\": {}",
        scale
            .members
            .iter()
            .map(|m| u64::from(m.attempts))
            .sum::<u64>()
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, json).expect("write baseline JSON");
    println!("\nwrote {out_path}");
    println!("soak: {}", soak.throughput);
    println!(
        "scheduler scale (1000 slots / 4 workers): {}",
        scale.throughput
    );

    // The trajectory gate: a workload shared with the baseline must not
    // be more than GATE_REGRESSION_FACTOR slower than it was there.
    let mut gate_failed = false;
    if let Some(path) = compare_path {
        let baseline_text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let this_mode = if quick { "quick" } else { "full" };
        let baseline_mode = parse_baseline_mode(&baseline_text)
            .unwrap_or_else(|| panic!("baseline {path} has no mode field"));
        assert_eq!(
            baseline_mode, this_mode,
            "baseline {path} was recorded in {baseline_mode} mode but this run \
             is {this_mode}: the sizes differ, so the gate would be meaningless"
        );
        let baseline = parse_baseline(&baseline_text);
        assert!(
            !baseline.is_empty(),
            "baseline {path} contains no parsable entries"
        );
        println!("\ntrajectory vs {path} (gate: {GATE_REGRESSION_FACTOR:.1}x):");
        for (name, old_ns) in &baseline {
            let Some(entry) = entries.iter().find(|e| e.name == *name) else {
                continue; // workload retired since the baseline
            };
            let ratio = entry.ns_per_op / old_ns;
            let verdict = if ratio > GATE_REGRESSION_FACTOR {
                gate_failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!("{name:<40} {ratio:>6.2}x {verdict}");
        }
    }

    if divergence {
        eprintln!("FAILED: parallel and serial outputs diverged");
        std::process::exit(1);
    }
    if gate_failed {
        eprintln!(
            "FAILED: a workload regressed more than {GATE_REGRESSION_FACTOR:.1}x \
             against the baseline"
        );
        std::process::exit(1);
    }
}
