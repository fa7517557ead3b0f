//! Cooperative participant scheduler: many poll-driven tasks over a
//! fixed pool of OS threads, with per-worker run queues and work
//! stealing.
//!
//! One OS thread per participant would cap a campaign at however many
//! threads the host tolerates — tens, not the "huge pool of untrusted
//! participants" the paper supervises. This module removes that cap the
//! same way the supervisor side did in the `SessionEngine`: participants
//! are non-blocking state machines ([`GridTask`]s whose
//! [`poll`](GridTask::poll) never blocks), and a [`GridScheduler`]
//! multiplexes thousands of them over `workers` OS threads (default: one
//! per available core), the calling thread being worker 0.
//!
//! The in-process backend of `ugc-core` goes one step further: its tasks
//! are not single participants but *shards* of a round, one per worker,
//! each a supervisor engine that steps its own participant slots inline.
//! A shard's one poll runs it to the end, so such a pool neither seats
//! nor steals; the wake-by-mail machinery below serves tasks that wait
//! on links of their own.
//!
//! Run-queue state is sharded per worker (one shared queue has the
//! workers fighting over a single mutex at scale), and a task that is
//! waiting for mail leaves the queues altogether until the mail arrives:
//!
//! ```text
//!            ┌──────────────── GridScheduler ────────────────┐
//!            │  wkr 0             wkr 1        …  wkr W      │
//!            │ ┌────────┐       ┌────────┐      ┌────────┐   │
//!   ready ─▶ │ │[t17][t4]│◀──── │[t952]… │      │[t31]…  │   │  per-worker
//!            │ └───▲────┘ steal └────────┘      └────────┘   │  run queues
//!            │     │ local pop (front);                      │
//!            │     │ steals take the back half               │
//!   seats ─▶ │ [t3]   [t89]  …   one per task with a wake    │  idle, will
//!            │   ▲      ▲        source; off every queue     │  be rung
//!            │   └──────┴── doorbell: key = task index ◀──── │◀─ mail, hang-up
//!            └───────────────────────────────────────────────┘
//! ```
//!
//! Scheduling policy, in full:
//!
//! * **Per-worker ready queues** — tasks are dealt round-robin across
//!   the workers up front; each worker pops its own queue from the
//!   front (FIFO, so no task on a queue can starve another on the same
//!   queue), uncontended while every worker has local work.
//! * **Work stealing** — a worker whose queue runs dry picks a victim
//!   in a *seeded* pseudo-random order (SplitMix64 over the scheduler's
//!   [`steal seed`](GridScheduler::with_steal_seed), worker index and
//!   sweep count — no ambient RNG, so a replay walks the same victim
//!   sequence) and steals the back half of the victim's ready queue in
//!   one lock acquisition. Scheduling-only: verdicts, fault logs and
//!   byte counts are interleaving-independent by construction, so the
//!   steal order can never reach a digest.
//! * **Wake by mail** — before the run starts every task is offered the
//!   pool's [`Doorbell`] and its own index as key
//!   ([`GridTask::wake_on`]). A task that accepts (it subscribed its
//!   link) and later reports [`TaskPoll::Idle`] takes a *seat*: it is on
//!   no queue and is never polled again until its key rings — a frame
//!   was queued for it, or its peer hung up. Whichever worker hears the
//!   ring lifts the task out of its seat and polls it. A ring that
//!   arrives while the task is queued or mid-`poll` is remembered on the
//!   seat, and a task that then reports `Idle` goes back on the ready
//!   queue instead of sitting down, so no ring is ever lost to the race.
//! * **No wake source** — a task that declined the bell and reports
//!   `Idle` can only be found ready by polling it again, so its worker
//!   yields the core once and then treats the answer like `Progress`:
//!   back on its ready queue, never out of sight.
//! * **Idle workers** — a worker with nothing runnable blocks on the
//!   doorbell until a ring, so an idle pool costs no CPU at all.
//! * **Completion** — [`TaskPoll::Complete`] removes the task; the run
//!   ends when none remain (the last completion rings the sleepers
//!   out), and [`GridScheduler::run`] hands every task back in its
//!   original order so callers can harvest results.
//!
//! Determinism: the scheduler's only pseudo-randomness is the seeded
//! steal order, and the fault-injection layer keys every decision on
//! per-link sequence numbers, so a campaign's fault log and verdicts
//! are identical at any worker count *and any steal seed* — pinned by
//! the golden digests of `tests/scheduler_equivalence.rs` and swept in
//! `tests/scale_soak.rs` at `workers ∈ {1, 4, 8, participants}`.
//!
//! # Example
//!
//! A thousand counters, four workers — each task idles between steps and
//! the scheduler keeps them all moving:
//!
//! ```
//! use ugc_grid::runtime::{GridScheduler, GridTask, TaskPoll};
//!
//! struct Countdown {
//!     left: u32,
//!     idled_once: bool,
//! }
//!
//! impl GridTask for Countdown {
//!     fn poll(&mut self) -> TaskPoll {
//!         if self.left == 0 {
//!             return TaskPoll::Complete;
//!         }
//!         if !self.idled_once {
//!             self.idled_once = true; // simulate "no mail yet"
//!             return TaskPoll::Idle;
//!         }
//!         self.idled_once = false;
//!         self.left -= 1;
//!         TaskPoll::Progress
//!     }
//! }
//!
//! let tasks: Vec<Countdown> = (0..1000)
//!     .map(|i| Countdown { left: 1 + (i % 5), idled_once: false })
//!     .collect();
//! let done = GridScheduler::new(4).run(tasks);
//! assert_eq!(done.len(), 1000);
//! assert!(done.iter().all(|t| t.left == 0));
//! ```

use crate::Doorbell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// What one [`GridTask::poll`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPoll {
    /// The task did useful work (e.g. processed an inbound message) and
    /// should be polled again soon — it goes back on the ready queue.
    Progress,
    /// Nothing to do right now (e.g. the peer has not answered yet); the
    /// task waits for its key to ring if it has a
    /// [wake source](GridTask::wake_on). One without goes back on the
    /// ready queue after its worker yields the core once.
    Idle,
    /// The task is finished and leaves the scheduler.
    Complete,
}

/// A non-blocking unit of scheduled work: one participant session, one
/// relay pump — anything that advances in short, poll-sized steps.
///
/// `poll` must not block indefinitely: a task waiting on its peer
/// returns [`TaskPoll::Idle`] and waits for its ring instead of pinning
/// a worker (a `poll` that *does* block simply occupies its worker until
/// it returns).
pub trait GridTask: Send {
    /// Advances the task one step.
    fn poll(&mut self) -> TaskPoll;

    /// Offered once, before the first poll: arrange for `bell` to ring
    /// `key` whenever this task may have something to do — typically by
    /// subscribing the link it receives on
    /// ([`GridLink::subscribe`](crate::GridLink::subscribe)) — and return
    /// `true`. From then on an [`Idle`](TaskPoll::Idle) answer means "do
    /// not poll me again until my key rings", so every event the task
    /// waits for must ring. The default declines: the task stays on the
    /// ready queues and an `Idle` answer only costs it one yield.
    fn wake_on(&mut self, _bell: &Doorbell, _key: usize) -> bool {
        false
    }
}

/// One worker's ready queue: runnable tasks tagged with their original
/// index. The owner pops from the front; thieves split off the back
/// half.
type ReadyQueue<T> = VecDeque<(usize, T)>;

/// Where a task with a wake source waits for its ring.
struct Seat<T> {
    /// The task, while it is idle and off every queue.
    waiting: Option<T>,
    /// A ring arrived while the task was queued or mid-poll. Cleared when
    /// a poll starts (that poll sees whatever the ring announced); found
    /// set after an `Idle` answer, it sends the task back to the ready
    /// queue instead of the seat.
    rung: bool,
}

/// State shared by the whole pool.
struct Pool<T> {
    /// One ready queue per worker.
    locals: Vec<Mutex<ReadyQueue<T>>>,
    /// One seat per task, `Some` for the tasks that accepted the bell.
    seats: Vec<Option<Mutex<Seat<T>>>>,
    /// Rung with a task's index when it has mail, and with `seats.len()`
    /// once the run is over.
    bell: Doorbell,
    /// Completed tasks, kept at their original index.
    finished: Mutex<Vec<Option<T>>>,
    /// Tasks not yet complete (including any currently inside a worker's
    /// `poll` call).
    remaining: AtomicUsize,
}

impl<T: GridTask> Pool<T> {
    /// Offers every task the pool's bell, then deals them round-robin
    /// across `workers` ready queues.
    fn deal(tasks: Vec<T>, workers: usize) -> Self {
        let count = tasks.len();
        let mut locals: Vec<ReadyQueue<T>> = (0..workers).map(|_| VecDeque::new()).collect();
        let bell = Doorbell::new();
        let mut seats = Vec::with_capacity(count);
        for (index, mut task) in tasks.into_iter().enumerate() {
            seats.push(task.wake_on(&bell, index).then(|| {
                Mutex::new(Seat {
                    waiting: None,
                    rung: false,
                })
            }));
            locals[index % workers].push_back((index, task));
        }
        Pool {
            locals: locals.into_iter().map(Mutex::new).collect(),
            seats,
            bell,
            finished: Mutex::new((0..count).map(|_| None).collect()),
            remaining: AtomicUsize::new(count),
        }
    }
}

/// One SplitMix64 step — the steal-order generator. Seeded and
/// self-contained (no ambient RNG), so every replay of a campaign walks
/// the identical victim sequence.
fn next_steal(rng: &mut u64) -> u64 {
    *rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *rng;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded per-worker steal-order state: deterministic for a given
/// `(steal_seed, worker)` pair, distinct across workers so they do not
/// all mob the same victim.
fn steal_rng(steal_seed: u64, worker: usize) -> u64 {
    steal_seed ^ (worker as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Which victim a steal sweep starts from: a seeded offset into the
/// `others` workers that are not the thief. The narrowing cast is safe:
/// the modulus is a worker count, far below `u32::MAX`.
fn steal_start(rng: &mut u64, others: usize) -> usize {
    (next_steal(rng) % others as u64) as usize
}

/// A cooperative work-stealing scheduler multiplexing [`GridTask`]s over
/// a fixed pool of OS threads.
///
/// See the [module docs](self) for the scheduling policy and an example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridScheduler {
    workers: usize,
    steal_seed: u64,
}

impl Default for GridScheduler {
    /// One worker per available core.
    fn default() -> Self {
        Self::available()
    }
}

impl GridScheduler {
    /// A scheduler with a fixed worker pool (`workers == 0` is clamped
    /// to 1 — a pool must have at least one thread).
    #[must_use]
    pub const fn new(workers: usize) -> Self {
        GridScheduler {
            workers: if workers == 0 { 1 } else { workers },
            steal_seed: 0,
        }
    }

    /// Seeds the pseudo-random (SplitMix64) victim order workers walk
    /// when they steal. Scheduling-only: any seed yields the same task
    /// results, fault logs and byte counts — swept against the golden
    /// digests in `tests/scheduler_equivalence.rs` — so this knob exists
    /// to *prove* that, not to tune anything.
    #[must_use]
    pub const fn with_steal_seed(mut self, seed: u64) -> Self {
        self.steal_seed = seed;
        self
    }

    /// One worker per available core — the default for campaigns whose
    /// tasks are genuinely non-blocking.
    ///
    /// The host is read once per process: on Linux each read re-parses
    /// cgroup files, and a round without a configured pool size asks
    /// again.
    #[must_use]
    pub fn available() -> Self {
        static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "the one read of the host's core count in ugc-grid, memoised: execution layout, never a digest input"
        )]
        let cores = *CORES.get_or_init(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        Self::new(cores)
    }

    /// The configured pool size.
    #[must_use]
    pub const fn workers(&self) -> usize {
        self.workers
    }

    /// The configured steal-order seed.
    #[must_use]
    pub const fn steal_seed(&self) -> u64 {
        self.steal_seed
    }

    /// Runs every task to [`TaskPoll::Complete`], returning the tasks in
    /// their original order so callers can harvest per-task results.
    ///
    /// The pool is `min(workers, tasks.len())` workers: worker 0 is the
    /// calling thread, the rest are scoped threads spawned for the run,
    /// so a one-worker pool spawns nothing. Tasks are dealt round-robin
    /// across the workers' ready queues up front; imbalance is repaired
    /// by stealing. Panics in a task's `poll` propagate as a panic here
    /// (the run cannot meaningfully continue).
    ///
    /// # Panics
    ///
    /// If a task's `poll` panics.
    #[must_use]
    pub fn run<T: GridTask>(&self, tasks: Vec<T>) -> Vec<T> {
        if tasks.is_empty() {
            return tasks;
        }
        let workers = self.workers.min(tasks.len());
        let pool = Pool::deal(tasks, workers);
        std::thread::scope(|scope| {
            let pool = &pool;
            for me in 1..workers {
                scope.spawn(move || worker_loop(pool, me, self.steal_seed));
            }
            worker_loop(pool, 0, self.steal_seed);
        });
        let finished = pool.finished.into_inner().expect("finished list poisoned");
        finished
            .into_iter()
            .map(|t| t.expect("every task completed"))
            .collect()
    }
}

fn lock<T>(queue: &Mutex<ReadyQueue<T>>) -> MutexGuard<'_, ReadyQueue<T>> {
    queue.lock().expect("run queue poisoned")
}

fn sit<T>(seat: &Mutex<Seat<T>>) -> MutexGuard<'_, Seat<T>> {
    seat.lock().expect("seat poisoned")
}

/// Answers one ring: lifts the task out of its seat if it is waiting
/// there, otherwise leaves word on the seat for the worker that has it.
/// `None` also for the end-of-run key, which is passed on so every
/// sleeper hears it, and for a key no seat answers to.
fn answer<T>(pool: &Pool<T>, key: usize) -> Option<(usize, T)> {
    if key == pool.seats.len() {
        pool.bell.ring(key);
        return None;
    }
    let mut seat = sit(pool.seats.get(key)?.as_ref()?);
    let task = seat.waiting.take();
    seat.rung = task.is_none();
    task.map(|task| (key, task))
}

/// Attempts to steal work for worker `me`: walks the other workers in a
/// seeded pseudo-random order and splits off the back half of the first
/// non-empty ready queue found. Returns one task to run now; the rest of
/// the batch lands on `me`'s own queue.
fn steal<T>(pool: &Pool<T>, me: usize, rng: &mut u64) -> Option<(usize, T)> {
    let n = pool.locals.len();
    if n <= 1 {
        return None;
    }
    let start = steal_start(rng, n - 1);
    for step in 0..n - 1 {
        let victim = (me + 1 + (start + step) % (n - 1)) % n;
        let mut grabbed = {
            let mut q = lock(&pool.locals[victim]);
            let len = q.len();
            if len == 0 {
                continue;
            }
            q.split_off(len - len.div_ceil(2))
        };
        let first = grabbed.pop_front().expect("steal batch is non-empty");
        if !grabbed.is_empty() {
            lock(&pool.locals[me]).extend(grabbed);
        }
        return Some(first);
    }
    None
}

/// One worker: pop the local ready queue (answering the bell, then
/// stealing, when it runs dry), poll the task outside any lock, act on
/// the verdict; when no work is reachable anywhere, sleep on the bell.
/// Nothing is runnable without a ring then: every task is seated, in a
/// poll on another worker, or on a queue whose owner is awake.
fn worker_loop<T: GridTask>(pool: &Pool<T>, me: usize, steal_seed: u64) {
    let mut rng = steal_rng(steal_seed, me);
    loop {
        if pool.remaining.load(Ordering::Acquire) == 0 {
            return;
        }
        let popped = lock(&pool.locals[me]).pop_front();
        let job = popped
            .or_else(|| pool.bell.try_next().and_then(|key| answer(pool, key)))
            .or_else(|| steal(pool, me, &mut rng));
        let Some((index, mut task)) = job else {
            if let Some(woken) = answer(pool, pool.bell.wait()) {
                lock(&pool.locals[me]).push_back(woken);
            }
            continue;
        };
        let seat = pool.seats[index].as_ref();
        if let Some(seat) = seat {
            sit(seat).rung = false;
        }
        match (task.poll(), seat) {
            (TaskPoll::Idle, Some(seat)) => {
                let mut seat = sit(seat);
                if std::mem::take(&mut seat.rung) {
                    drop(seat);
                    lock(&pool.locals[me]).push_back((index, task));
                } else {
                    seat.waiting = Some(task);
                }
            }
            (verdict @ (TaskPoll::Progress | TaskPoll::Idle), _) => {
                if verdict == TaskPoll::Idle {
                    // No wake source: nothing will ring for this task, so
                    // it stays queued, and the yield gives whatever it
                    // waits on a turn first.
                    std::thread::yield_now();
                }
                // Progress usually means traffic flowed: give one rung
                // task a look at its share of it. (Answering the bell
                // only when the local queue runs dry would let a task
                // that keeps getting mail starve the task it is waiting
                // on.)
                let woken = pool.bell.try_next().and_then(|key| answer(pool, key));
                let mut q = lock(&pool.locals[me]);
                q.push_back((index, task));
                q.extend(woken);
            }
            (TaskPoll::Complete, _) => {
                {
                    let mut done = pool.finished.lock().expect("finished list poisoned");
                    done[index] = Some(task);
                }
                if pool.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // The run is over: ring the sleepers out.
                    pool.bell.ring(pool.seats.len());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A task that must be polled `steps` times (interleaving Idle and
    /// Progress) before completing, recording the max observed
    /// concurrency.
    struct Step<'a> {
        steps: u32,
        in_flight: &'a AtomicUsize,
        peak: &'a AtomicUsize,
    }

    impl GridTask for Step<'_> {
        fn poll(&mut self) -> TaskPoll {
            let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            let verdict = match self.steps {
                0 => TaskPoll::Complete,
                n if n % 2 == 0 => TaskPoll::Idle,
                _ => TaskPoll::Progress,
            };
            self.steps = self.steps.saturating_sub(1);
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            verdict
        }
    }

    #[test]
    fn completes_every_task_in_original_order() {
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let tasks: Vec<Step<'_>> = (0..100)
            .map(|i| Step {
                steps: i % 7,
                in_flight: &in_flight,
                peak: &peak,
            })
            .collect();
        let done = GridScheduler::new(4).run(tasks);
        assert_eq!(done.len(), 100);
        assert!(done.iter().all(|t| t.steps == 0));
    }

    #[test]
    fn pool_never_exceeds_worker_count() {
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let tasks: Vec<Step<'_>> = (0..64)
            .map(|_| Step {
                steps: 9,
                in_flight: &in_flight,
                peak: &peak,
            })
            .collect();
        let _ = GridScheduler::new(3).run(tasks);
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "peak concurrency {} exceeded the 3-worker pool",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn single_worker_drains_parked_tasks() {
        // A task that reports Idle until some *other* task has completed
        // exercises the requeue path of a task without a wake source: with
        // one worker, nothing else can be concurrently in flight.
        struct Waiter<'a> {
            done: &'a AtomicUsize,
            needs: usize,
        }
        impl GridTask for Waiter<'_> {
            fn poll(&mut self) -> TaskPoll {
                if self.needs == 0 {
                    self.done.fetch_add(1, Ordering::SeqCst);
                    return TaskPoll::Complete;
                }
                if self.done.load(Ordering::SeqCst) >= self.needs {
                    self.needs = 0;
                    return TaskPoll::Progress;
                }
                TaskPoll::Idle
            }
        }
        let done = AtomicUsize::new(0);
        // Task i waits for i completions: a dependency chain that forces
        // repeated idle/requeue cycles in reverse queue order.
        let tasks: Vec<Waiter<'_>> = (0..8)
            .map(|i| Waiter {
                done: &done,
                needs: i,
            })
            .collect();
        let finished = GridScheduler::new(1).run(tasks);
        assert_eq!(finished.len(), 8);
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn dependency_chain_crosses_worker_queues() {
        // The same dependency chain, but spread over more workers than
        // tasks-with-work at any instant: completing it requires idle
        // tasks on one worker's queue to be re-polled while other workers
        // sit idle — the cross-shard steal/requeue interplay.
        struct Waiter<'a> {
            done: &'a AtomicUsize,
            needs: usize,
        }
        impl GridTask for Waiter<'_> {
            fn poll(&mut self) -> TaskPoll {
                if self.needs == 0 {
                    self.done.fetch_add(1, Ordering::SeqCst);
                    return TaskPoll::Complete;
                }
                if self.done.load(Ordering::SeqCst) >= self.needs {
                    self.needs = 0;
                    return TaskPoll::Progress;
                }
                TaskPoll::Idle
            }
        }
        let done = AtomicUsize::new(0);
        let tasks: Vec<Waiter<'_>> = (0..24)
            .map(|i| Waiter {
                done: &done,
                needs: i,
            })
            .collect();
        let finished = GridScheduler::new(8).run(tasks);
        assert_eq!(finished.len(), 24);
        assert_eq!(done.load(Ordering::SeqCst), 24);
    }

    #[test]
    fn worker_zero_is_the_calling_thread() {
        use std::cell::Cell;
        use std::sync::{Barrier, Mutex};
        thread_local! {
            static CALLER: Cell<bool> = const { Cell::new(false) };
        }
        /// Records whether it was polled on the caller's thread, once as
        /// many tasks as the barrier counts are being polled at once.
        struct Where<'a> {
            met: &'a Barrier,
            seen: &'a Mutex<Vec<bool>>,
        }
        impl GridTask for Where<'_> {
            fn poll(&mut self) -> TaskPoll {
                self.met.wait();
                self.seen.lock().unwrap().push(CALLER.with(Cell::get));
                TaskPoll::Complete
            }
        }
        CALLER.with(|caller| caller.set(true));
        // One worker: every poll runs on the caller, nothing is spawned.
        // Two: the two tasks meet at the barrier, so they are polled at
        // once by two threads, the caller and the one spawned worker.
        for (workers, expected) in [(1, vec![true, true]), (2, vec![false, true])] {
            let met = Barrier::new(workers);
            let seen = Mutex::new(Vec::new());
            let tasks = (0..2)
                .map(|_| Where {
                    met: &met,
                    seen: &seen,
                })
                .collect();
            let _ = GridScheduler::new(workers).run::<Where<'_>>(tasks);
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, expected, "{workers} worker(s)");
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(GridScheduler::new(0).workers(), 1);
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let done = GridScheduler::new(0).run(vec![Step {
            steps: 3,
            in_flight: &in_flight,
            peak: &peak,
        }]);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn empty_task_list_returns_immediately() {
        let done: Vec<Step<'_>> = GridScheduler::new(4).run(Vec::new());
        assert!(done.is_empty());
    }

    #[test]
    fn default_uses_available_cores() {
        assert_eq!(
            GridScheduler::default().workers(),
            GridScheduler::available().workers()
        );
    }

    #[test]
    fn steal_order_is_deterministic_per_seed_and_worker() {
        // The victim sequence is a pure function of (steal_seed, worker):
        // replaying the same seed walks the same victims, different seeds
        // or workers walk different ones (no ambient entropy anywhere).
        let sequence = |seed: u64, worker: usize| -> Vec<usize> {
            let mut rng = steal_rng(seed, worker);
            (0..64).map(|_| steal_start(&mut rng, 7)).collect()
        };
        assert_eq!(sequence(0x5EED, 0), sequence(0x5EED, 0));
        assert_eq!(sequence(0x5EED, 3), sequence(0x5EED, 3));
        assert_ne!(sequence(0x5EED, 0), sequence(0x5EED, 1));
        assert_ne!(sequence(0x5EED, 0), sequence(0xBEEF, 0));
        // Every start stays inside the victim range.
        assert!(sequence(0x5EED, 2).iter().all(|&s| s < 7));
    }

    #[test]
    fn steal_seed_never_changes_results() {
        // The steal order decides who runs what where — never what any
        // task computes. Same tasks, different seeds, identical results.
        let run = |seed: u64| -> Vec<u32> {
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let tasks: Vec<Step<'_>> = (0..200)
                .map(|i| Step {
                    steps: i % 11,
                    in_flight: &in_flight,
                    peak: &peak,
                })
                .collect();
            GridScheduler::new(4)
                .with_steal_seed(seed)
                .run(tasks)
                .iter()
                .map(|t| t.steps)
                .collect()
        };
        let reference = run(0);
        for seed in [1, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(reference, run(seed), "seed {seed:#x}");
        }
    }

    #[test]
    fn builder_round_trips_steal_seed() {
        let scheduler = GridScheduler::new(4).with_steal_seed(42);
        assert_eq!(scheduler.steal_seed(), 42);
        assert_eq!(scheduler.workers(), 4);
        assert_eq!(GridScheduler::new(4).steal_seed(), 0);
    }
}
