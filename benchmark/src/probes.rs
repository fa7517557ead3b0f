//! Probes: one layer's public function called alone, at the shape the
//! workload gives it (share size, message mix, record sizes, frame
//! sizes), for the layers the session walk cannot isolate.

use crate::clock;
use crate::stats;
use crate::walk::{Crossing, Direction};
use std::hint::black_box;
use std::io::Cursor;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Duration;
use ugc_grid::runtime::LinkDirection;
use ugc_grid::tcp::handshake_supervisor;
use ugc_grid::wire::{read_frame, recv_hello, send_welcome, write_frame, Frame, Welcome};
use ugc_grid::{
    duplex, Broker, FaultPlan, GridLink, GridScheduler, GridTask, Message, TaskPoll, TcpLink,
};
use ugc_hash::{digest_batch, HashFunction, LaneWidth, Sha256};
use ugc_journal::JournalWriter;
use ugc_merkle::{MerkleTree, Parallelism};
use ugc_task::{ComputeTask, Domain};
use uncheatable_grid::campaign::{CampaignPlan, FleetParams};

/// Batches a probe takes; its reading is the median batch.
const BATCHES: usize = 7;

/// Calls `f` in `BATCHES` batches sized to fill `budget` together and
/// returns the median nanoseconds per call. `f` is first called a few
/// times unmeasured, both to warm it and to size the batches.
fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let (_, pilot) = clock::time(|| {
        for _ in 0..3 {
            f();
        }
    });
    let per_call = (pilot.as_secs_f64() / 3.0).max(1e-9);
    let batch = ((budget.as_secs_f64() / BATCHES as f64 / per_call) as usize).clamp(1, 1_000_000);
    let readings: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (_, took) = clock::time(|| {
                for _ in 0..batch {
                    f();
                }
            });
            took.as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    stats::median(&readings)
}

/// The `hash` layer at the tree's shapes.
pub struct HashProbe {
    pub pair_ns: f64,
    pub leaf_ns: f64,
    pub stream_mb_s: f64,
}

pub fn hash(budget: Duration) -> HashProbe {
    let (a, b) = ([0x5a_u8; 32], [0xa5_u8; 32]);
    let pair_ns = ns_per_call(budget, || {
        black_box(Sha256::digest_pair(black_box(&a), black_box(&b)));
    });
    let leaves: Vec<[u8; 16]> = (0..1024u64)
        .map(|i| {
            let mut leaf = [0u8; 16];
            leaf[..8].copy_from_slice(&i.to_le_bytes());
            leaf
        })
        .collect();
    let refs: Vec<&[u8]> = leaves.iter().map(<[u8; 16]>::as_slice).collect();
    let leaf_ns = ns_per_call(budget, || {
        black_box(digest_batch::<Sha256>(
            black_box(&refs),
            LaneWidth::default(),
        ));
    }) / refs.len() as f64;
    let block = vec![0x3c_u8; 64 * 1024];
    let stream_ns = ns_per_call(budget, || {
        black_box(Sha256::digest(black_box(&block)));
    });
    HashProbe {
        pair_ns,
        leaf_ns,
        stream_mb_s: block.len() as f64 / (1024.0 * 1024.0) / (stream_ns / 1e9),
    }
}

/// The `task` layer: `f` over one share, batched as a participant does.
pub fn task_eval_ns_per_input(task: &dyn ComputeTask, share: Domain, budget: Duration) -> f64 {
    let xs: Vec<u64> = share.inputs().collect();
    ns_per_call(budget, || {
        black_box(task.compute_batch(black_box(&xs)));
    }) / xs.len() as f64
}

/// The `merkle` layer at the share size: build over real task outputs,
/// prove and verify scattered leaves.
pub struct MerkleProbe {
    pub build_ns_per_leaf: f64,
    pub prove_ns: f64,
    pub verify_ns: f64,
}

/// Below this many leaves a participant builds its tree on one thread
/// whatever `Parallelism` says. The threshold is private to `ugc-core`
/// (`PARALLEL_BUILD_MIN_LEAVES`); the probe repeats it so that it builds
/// the tree the way a session of this share size does. Should the two
/// drift apart, `merkle.walk_share` above 1 on a small-share workload is
/// the symptom: `build_with` on two threads costs ~100 µs for 8 leaves.
const SESSION_PARALLEL_MIN_LEAVES: usize = 1 << 10;

pub fn merkle(
    task: &dyn ComputeTask,
    share: Domain,
    budget: Duration,
) -> Result<MerkleProbe, String> {
    let xs: Vec<u64> = share.inputs().collect();
    let leaves = task.compute_batch(&xs);
    let parallelism = if leaves.len() >= SESSION_PARALLEL_MIN_LEAVES {
        Parallelism::default()
    } else {
        Parallelism::serial()
    };
    let build = || MerkleTree::<Sha256>::build_with(&leaves, parallelism, LaneWidth::default());
    let tree = build().map_err(|e| format!("merkle probe: {e}"))?;
    let build_ns = ns_per_call(budget, || {
        black_box(build().expect("built once already"));
    });
    let n = leaves.len() as u64;
    let mut at = 0u64;
    let mut next = || {
        at = (at + 0x9e37_79b9) % n;
        at
    };
    let prove_ns = ns_per_call(budget, || {
        black_box(tree.prove(next()).expect("index is below the leaf count"));
    });
    let root = tree.root();
    let proofs: Vec<_> = (0..n.min(64))
        .map(|_| {
            let i = next();
            (tree.prove(i).expect("index is below the leaf count"), i)
        })
        .collect();
    let mut turn = 0usize;
    let mut all_verified = true;
    let verify_ns = ns_per_call(budget, || {
        let (proof, i) = &proofs[turn % proofs.len()];
        turn += 1;
        all_verified &= black_box(proof.verify(&root, &leaves[*i as usize]));
    });
    if !all_verified {
        return Err("merkle probe: a proof of the tree's own leaf did not verify".into());
    }
    Ok(MerkleProbe {
        build_ns_per_leaf: build_ns / n as f64,
        prove_ns,
        verify_ns,
    })
}

/// The `facade.campaign` layer: `FleetParams` expanded into a plan.
pub fn plan_expand_ns(params: &FleetParams, budget: Duration) -> Result<f64, String> {
    let mut healthy = true;
    let ns = ns_per_call(budget, || {
        healthy &= black_box(CampaignPlan::new(params.clone())).is_ok();
    });
    healthy
        .then_some(ns)
        .ok_or_else(|| "plan probe: the facade refused the wire parameters".into())
}

/// The `grid.transport` layer: one message across a `duplex()` pair,
/// send plus receive, over the walk's message mix.
pub fn duplex_ns_per_msg(mix: &[Crossing], budget: Duration) -> Result<f64, String> {
    let (a, b) = duplex();
    let mut turn = 0usize;
    let mut healthy = true;
    let ns = ns_per_call(budget, || {
        let msg = &mix[turn % mix.len()].message;
        turn += 1;
        healthy &= a.send(msg).is_ok() && b.recv().is_ok();
    });
    healthy
        .then_some(ns)
        .ok_or_else(|| "duplex probe: link failed".into())
}

/// The `grid.broker` layer: whole dialogues of the walk's message mix
/// relayed by a `Broker` sitting between two `duplex()` pairs, per
/// message. Includes the two link hops a brokered message makes.
pub fn broker_relay_ns_per_msg(
    dialogues: &[(u64, Vec<Crossing>)],
    budget: Duration,
) -> Result<f64, String> {
    let (sup, broker_sup) = duplex();
    let (broker_part, part) = duplex();
    let mut broker = Broker::new(broker_sup, vec![broker_part]);
    let mut relay_all = || -> Result<(), String> {
        for (_, dialogue) in dialogues {
            for crossing in dialogue {
                let relayed = match crossing.direction {
                    Direction::Outward => {
                        sup.send(&crossing.message).map_err(|e| e.to_string())?;
                        let moved = broker.try_relay_outward().map_err(|e| e.to_string())?;
                        part.recv().map_err(|e| e.to_string())?;
                        moved
                    }
                    Direction::Inward => {
                        part.send(&crossing.message).map_err(|e| e.to_string())?;
                        let moved = broker.try_relay_inward().map_err(|e| e.to_string())?;
                        sup.recv().map_err(|e| e.to_string())?;
                        moved.is_some()
                    }
                };
                if !relayed {
                    return Err("broker probe: a queued message was not relayed".into());
                }
            }
        }
        Ok(())
    };
    relay_all()?;
    let messages: usize = dialogues.iter().map(|(_, d)| d.len()).sum();
    let mut failure = None;
    let ns = ns_per_call(budget, || {
        if let Err(e) = relay_all() {
            failure = Some(e);
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(ns / messages.max(1) as f64),
    }
}

/// A scheduler task that answers `Progress` (or `Idle`) a fixed number of
/// times, then `Complete`.
struct Countdown {
    left: u32,
    busy: TaskPoll,
}

impl GridTask for Countdown {
    fn poll(&mut self) -> TaskPoll {
        if self.left == 0 {
            return TaskPoll::Complete;
        }
        self.left -= 1;
        self.busy
    }
}

/// The `grid.scheduler` layer with empty tasks.
pub struct SchedulerProbe {
    /// Per poll, over 1000 tasks answering `Progress` 8 times then
    /// `Complete`.
    pub poll_ns: f64,
    /// One run of one task per worker, each answering `Idle` once: the
    /// time from everything parked to everything woken and retired.
    pub park_wake_us: f64,
}

pub fn scheduler(workers: usize, budget: Duration) -> SchedulerProbe {
    let scheduler = GridScheduler::new(workers);
    let run = |tasks: usize, left: u32, busy: TaskPoll| {
        let tasks: Vec<Countdown> = (0..tasks).map(|_| Countdown { left, busy }).collect();
        black_box(scheduler.run(tasks));
    };
    let poll_ns = ns_per_call(budget, || run(1000, 8, TaskPoll::Progress)) / (1000.0 * 9.0);
    let park_wake_ns = ns_per_call(budget, || run(workers, 1, TaskPoll::Idle));
    SchedulerProbe {
        poll_ns,
        park_wake_us: park_wake_ns / 1e3,
    }
}

/// The `grid.fault` layer: one fate drawn from a link's schedule.
pub fn fault_decision_ns(plan: &FaultPlan, budget: Duration) -> f64 {
    let link = plan.link(7);
    let mut seq = 0u64;
    ns_per_call(budget, || {
        seq += 1;
        black_box(link.decision(LinkDirection::Outbound, black_box(seq)));
    })
}

/// The `journal` layer: appends at the sizes a campaign's records had.
pub fn journal_append_us(
    path: &Path,
    record_sizes: &[usize],
    budget: Duration,
) -> Result<f64, String> {
    if record_sizes.is_empty() {
        return Err("journal probe: the campaign wrote no records".into());
    }
    let payloads: Vec<Vec<u8>> = record_sizes.iter().map(|&n| vec![0x42; n.max(1)]).collect();
    let mut writer = JournalWriter::create(path).map_err(|e| e.to_string())?;
    let mut turn = 0usize;
    let mut failure = None;
    let ns = ns_per_call(budget, || {
        if let Err(e) = writer.append(&payloads[turn % payloads.len()]) {
            failure = Some(e.to_string());
        }
        turn += 1;
    });
    drop(writer);
    let _ = std::fs::remove_file(path);
    match failure {
        Some(e) => Err(format!("journal probe: {e}")),
        None => Ok(ns / 1e3),
    }
}

/// The `grid.wire` layer: frames of the walk's sizes written to and read
/// from memory.
pub struct WireProbe {
    pub write_frame_ns: f64,
    pub read_frame_ns: f64,
}

pub fn wire(mix: &[Crossing], budget: Duration) -> Result<WireProbe, String> {
    let frames: Vec<Frame> = mix
        .iter()
        .map(|c| Frame::Data(vec![0x17; c.frame_len]))
        .collect();
    let mut sink = Vec::new();
    let mut healthy = true;
    let write_all = ns_per_call(budget, || {
        sink.clear();
        for frame in &frames {
            healthy &= write_frame(&mut sink, frame).is_ok();
        }
    });
    let read_all = ns_per_call(budget, || {
        let mut source = Cursor::new(sink.as_slice());
        for _ in &frames {
            healthy &= matches!(read_frame(&mut source), Ok(Some(_)));
        }
    });
    if !healthy {
        return Err("wire probe: a frame did not round-trip".into());
    }
    Ok(WireProbe {
        write_frame_ns: write_all / frames.len() as f64,
        read_frame_ns: read_all / frames.len() as f64,
    })
}

/// The `grid.tcp` layer on loopback.
pub struct TcpProbe {
    pub frame_rtt_us: f64,
    pub stream_msgs_per_s: f64,
    pub handshake_ms: f64,
}

fn loopback_pair() -> Result<(TcpStream, TcpStream), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("tcp probe: bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("tcp probe: {e}"))?;
    let dialed = TcpStream::connect(addr).map_err(|e| format!("tcp probe: connect: {e}"))?;
    let (accepted, _) = listener
        .accept()
        .map_err(|e| format!("tcp probe: accept: {e}"))?;
    Ok((dialed, accepted))
}

/// Messages per `stream_msgs_per_s` burst: well under the link's inbound
/// high-water mark, so backpressure is not what is measured.
const STREAM_BURST: usize = 1024;

pub fn tcp(budget: Duration) -> Result<TcpProbe, String> {
    let (dialed, accepted) = loopback_pair()?;
    let (a, b) = (TcpLink::from_stream(dialed), TcpLink::from_stream(accepted));
    let ping = Message::Verdict {
        task_id: 1,
        accepted: true,
    };
    let mut healthy = true;
    let rtt_ns = ns_per_call(budget, || {
        healthy &= a.send(&ping).is_ok() && b.recv().is_ok();
        healthy &= b.send(&ping).is_ok() && a.recv().is_ok();
    });
    let burst_ns = ns_per_call(budget, || {
        std::thread::scope(|scope| {
            let sender = scope.spawn(|| (0..STREAM_BURST).all(|_| a.send(&ping).is_ok()));
            let received = (0..STREAM_BURST).all(|_| b.recv().is_ok());
            healthy &= received && sender.join().unwrap_or(false);
        });
    });
    drop((a, b));

    // One dial-in as `ugc fleet --connect` makes it: connect, Hello,
    // Welcome, link up. The accepting side answers from a thread.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("tcp probe: bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("tcp probe: {e}"))?;
    let handshake_ns = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            // Serves dial-ins until the probe connects with an empty
            // Hello, its signal to stop.
            while let Ok((mut stream, _)) = listener.accept() {
                let Ok(hello) = recv_hello(&mut stream) else {
                    return false;
                };
                let welcome = Welcome {
                    peer_index: 0,
                    peer_count: 1,
                    params: Vec::new(),
                };
                if send_welcome(&mut stream, &welcome).is_err() {
                    return false;
                }
                if hello.params.is_empty() {
                    return true;
                }
            }
            false
        });
        let dial = |params: &[u8]| {
            TcpStream::connect(addr)
                .ok()
                .and_then(|stream| handshake_supervisor(stream, params).ok())
                .is_some()
        };
        let ns = ns_per_call(budget, || healthy &= dial(b"probe"));
        healthy &= dial(b"") && server.join().unwrap_or(false);
        ns
    });
    if !healthy {
        return Err("tcp probe: a loopback exchange failed".into());
    }
    Ok(TcpProbe {
        frame_rtt_us: rtt_ns / 1e3,
        stream_msgs_per_s: STREAM_BURST as f64 / (burst_ns / 1e9),
        handshake_ms: handshake_ns / 1e6,
    })
}
