//! The grid runtime: participants multiplexed over a worker pool.
//!
//! Everything below the verification schemes is assembled here: a
//! supervisor link, a relaying [`Broker`] pumping on its own OS thread,
//! and the participants — poll-driven [`GridTask`]s multiplexed by a
//! [`GridScheduler`] over a fixed worker pool ([`run_brokered_tasks`]),
//! or legacy blocking closures run one-per-worker ([`run_brokered`], a
//! thin wrapper over the same scheduler). Every participant link sits
//! behind a deterministic fault-injection decorator ([`FaultyEndpoint`]).
//! The harness measures wall-clock time and collects the injected-fault
//! log so callers can report throughput and verify bit-identical replays.
//!
//! The scheme-aware wiring (which session runs on which participant) lives
//! in `ugc-core`'s orchestrator; this module is deliberately ignorant of
//! sessions — it only knows how to connect, decorate, schedule and join.
//!
//! ```
//! use ugc_grid::runtime::{run_brokered, RuntimeOptions};
//! use ugc_grid::{GridLink, Message};
//!
//! // Two echo participants behind the broker, no fault injection.
//! let report = run_brokered(
//!     2,
//!     &RuntimeOptions::default(),
//!     |_, link| {
//!         while let Ok(msg) = link.recv() {
//!             link.send(&Message::Commit {
//!                 task_id: msg.task_id(),
//!                 root: vec![0xAB; 16],
//!             })
//!             .unwrap();
//!         }
//!     },
//!     |supervisor| {
//!         use ugc_grid::Assignment;
//!         use ugc_task::Domain;
//!         for task_id in 0..2 {
//!             supervisor
//!                 .send(&Message::Assign(Assignment {
//!                     task_id,
//!                     domain: Domain::new(0, 8),
//!                 }))
//!                 .unwrap();
//!         }
//!         (0..2).map(|_| supervisor.recv().unwrap().task_id()).sum::<u64>()
//!     },
//! );
//! assert_eq!(report.supervisor, 1);
//! assert_eq!(report.relay.outward, 2);
//! assert!(report.events.is_empty());
//! ```

mod fault;
pub mod scheduler;

pub use fault::{
    FaultDecision, FaultEvent, FaultLog, FaultPlan, FaultyEndpoint, LinkDirection, LinkFaults,
};
pub use scheduler::{GridScheduler, GridTask, TaskPoll};

use crate::{duplex, BackoffPolicy, Broker, Endpoint, RelayStats};
use std::time::{Duration, Instant};

/// Configuration of one [`run_brokered`] / [`run_brokered_tasks`] round.
///
/// Build it with the `Default` impl plus the builder-style setters:
///
/// ```
/// use ugc_grid::runtime::{FaultPlan, RuntimeOptions};
/// use ugc_grid::BackoffPolicy;
///
/// let options = RuntimeOptions::default()
///     .with_fault(FaultPlan::chaos(7))
///     .with_link_id_base(1 << 32)
///     .with_workers(4)
///     .with_backoff(BackoffPolicy::new(1, 100));
/// assert_eq!(options.workers, Some(4));
/// assert_eq!(options.backoff.cap_micros, 100);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Fault schedule applied to every participant link (`None` injects
    /// nothing).
    pub fault: Option<FaultPlan>,
    /// Offset added to participant indices to form link ids, so retry
    /// rounds draw fresh fault schedules for their replacement
    /// participants.
    pub link_id_base: u64,
    /// Size of the [`GridScheduler`] worker pool. `None` keeps one
    /// worker per participant (the thread-per-participant semantics of
    /// the PR 4 runtime — the only safe choice for [`run_brokered`]'s
    /// blocking closures); `Some(w)` multiplexes all participants over
    /// `w` OS threads, which poll-driven [`GridTask`]s tolerate at any
    /// value.
    pub workers: Option<usize>,
    /// Idle-backoff ladder shape for the scheduler's worker pool (first
    /// sleep rung and cap), climbed only while tasks without a
    /// [wake source](GridTask::wake_on) remain; the default is the
    /// historical 10 µs → 100 µs → 1 ms ladder.
    pub backoff: BackoffPolicy,
    /// Seed for the scheduler's work-stealing victim order.
    /// Scheduling-only: any seed produces identical verdicts, fault logs
    /// and byte counts (property-tested in
    /// `tests/scheduler_equivalence.rs`), so this knob exists to prove
    /// that invariant, not to tune throughput.
    pub steal_seed: u64,
}

impl RuntimeOptions {
    /// Sets the fault schedule applied to every participant link.
    #[must_use]
    pub const fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Sets the link-id offset for this round (retry rounds pass a fresh
    /// base so replacement participants draw fresh fault schedules).
    #[must_use]
    pub const fn with_link_id_base(mut self, base: u64) -> Self {
        self.link_id_base = base;
        self
    }

    /// Fixes the scheduler pool at `workers` OS threads.
    #[must_use]
    pub const fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Reshapes the worker pool's idle-backoff ladder. Purely a
    /// latency/CPU trade-off: backoff timing never feeds verdicts,
    /// schedules or byte counts, so any policy preserves digests.
    #[must_use]
    pub const fn with_backoff(mut self, policy: BackoffPolicy) -> Self {
        self.backoff = policy;
        self
    }

    /// Seeds the scheduler's work-stealing victim order. Scheduling-only:
    /// digests are identical under any seed.
    #[must_use]
    pub const fn with_steal_seed(mut self, seed: u64) -> Self {
        self.steal_seed = seed;
        self
    }
}

/// What one [`run_brokered`] round produced.
#[derive(Debug)]
pub struct RuntimeReport<S, P> {
    /// The supervisor closure's return value.
    pub supervisor: S,
    /// Each participant closure's return value, in link order.
    pub participants: Vec<P>,
    /// Broker relay counters for the round.
    pub relay: RelayStats,
    /// Wall-clock time of the whole round (spawn to last join).
    pub wall: Duration,
    /// Every injected fault, sorted (deterministic for a given seed).
    pub events: Vec<FaultEvent>,
}

/// Runs one brokered grid round with poll-driven participants: `n`
/// [`GridTask`]s (each built around a [`FaultyEndpoint`] drawing link id
/// `link_id_base + index`) multiplexed by a [`GridScheduler`] over
/// `options.workers` OS threads (one per participant when unset), a
/// broker pump thread, and the supervisor closure on the calling thread.
///
/// The supervisor closure owns its [`Endpoint`]; dropping it (by
/// returning) is what winds the pump down once the participants finish,
/// so a deadlocked supervisor — not a chaos-stalled participant — is the
/// only way this function can hang. Parked participants whose mail was
/// dropped observe the hang-up once the pump exits and closes their
/// links, and complete with an error.
///
/// Completed tasks are returned (in link order) in
/// [`RuntimeReport::participants`] so callers can harvest whatever state
/// they accumulated.
///
/// # Panics
///
/// Panics if `n == 0` or a task's `poll` panics.
pub fn run_brokered_tasks<S, T, TF, SF>(
    n: usize,
    options: &RuntimeOptions,
    make_task: TF,
    supervisor: SF,
) -> RuntimeReport<S, T>
where
    TF: Fn(usize, FaultyEndpoint) -> T,
    T: GridTask,
    SF: FnOnce(Endpoint) -> S,
{
    assert!(n > 0, "runtime needs at least one participant");
    let plan = options.fault.unwrap_or(FaultPlan::quiet(0));
    let scheduler = GridScheduler::new(options.workers.unwrap_or(n))
        .with_backoff(options.backoff)
        .with_steal_seed(options.steal_seed);
    // ugc-lint: allow(wall-clock): reporting-only — feeds RuntimeReport.wall, never a verdict or schedule
    let started = Instant::now();
    let (sup_endpoint, broker_up) = duplex();
    let mut broker_down = Vec::with_capacity(n);
    let mut tasks = Vec::with_capacity(n);
    let mut logs = Vec::with_capacity(n);
    for index in 0..n {
        let (b, p) = duplex();
        broker_down.push(b);
        let link = FaultyEndpoint::new(p, plan.link(options.link_id_base + index as u64));
        logs.push(link.log());
        tasks.push(make_task(index, link));
    }
    let broker = Broker::new(broker_up, broker_down);

    let (supervisor_out, participants, relay) = std::thread::scope(|scope| {
        let pump = scope.spawn(move || broker.pump_until_closed());
        let pool = scope.spawn(move || scheduler.run(tasks));
        let supervisor_out = supervisor(sup_endpoint);
        let participants = pool.join().expect("scheduler pool panicked");
        let relay = pump.join().expect("broker pump panicked");
        (supervisor_out, participants, relay)
    });

    let mut events: Vec<FaultEvent> = logs.iter().flat_map(|log| log.snapshot()).collect();
    events.sort_unstable();
    RuntimeReport {
        supervisor: supervisor_out,
        participants,
        relay,
        wall: started.elapsed(),
        events,
    }
}

/// A legacy blocking participant closure, run to completion as a single
/// scheduler step. One poll == the whole session, so it occupies its
/// worker for the duration — which is why [`run_brokered`] sizes the
/// pool at one worker per participant unless told otherwise.
struct BlockingTask<'a, PF, P> {
    index: usize,
    body: &'a PF,
    link: Option<FaultyEndpoint>,
    output: Option<P>,
}

impl<PF, P> GridTask for BlockingTask<'_, PF, P>
where
    PF: Fn(usize, FaultyEndpoint) -> P + Sync,
    P: Send,
{
    fn poll(&mut self) -> TaskPoll {
        let link = self
            .link
            .take()
            .expect("a completed task is never re-polled");
        self.output = Some((self.body)(self.index, link));
        TaskPoll::Complete
    }
}

/// Runs one brokered grid round with legacy *blocking* participant
/// closures — a thin wrapper over [`run_brokered_tasks`] that wraps each
/// closure as a single-step [`GridTask`] and (unless
/// [`RuntimeOptions::workers`] overrides it) sizes the scheduler pool at
/// one worker per participant, which reproduces the PR 4
/// thread-per-participant semantics exactly.
///
/// Prefer [`run_brokered_tasks`] with genuinely poll-driven tasks for
/// campaigns bigger than the host's comfortable thread count: a blocking
/// closure pins its worker until the session ends, so an undersized pool
/// can stall closures that wait on dropped messages until the round
/// winds down.
///
/// # Panics
///
/// Panics if `n == 0` or a participant closure panics.
pub fn run_brokered<S, P, SF, PF>(
    n: usize,
    options: &RuntimeOptions,
    participant: PF,
    supervisor: SF,
) -> RuntimeReport<S, P>
where
    PF: Fn(usize, FaultyEndpoint) -> P + Sync,
    P: Send,
    SF: FnOnce(Endpoint) -> S,
{
    let participant = &participant;
    let report = run_brokered_tasks(
        n,
        options,
        |index, link| BlockingTask {
            index,
            body: participant,
            link: Some(link),
            output: None,
        },
        supervisor,
    );
    RuntimeReport {
        supervisor: report.supervisor,
        participants: report
            .participants
            .into_iter()
            .map(|task| task.output.expect("completed closure has an output"))
            .collect(),
        relay: report.relay,
        wall: report.wall,
        events: report.events,
    }
}
