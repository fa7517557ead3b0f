//! The doorbell and the two consumers of it that live in this crate: the
//! broker pump and the scheduler. Every multiplexer here sleeps until a
//! link rings, so the failure these tests look for is a ring that never
//! comes — a wait that never ends. Each scenario therefore runs under a
//! watchdog and fails, rather than hangs, when it does not finish.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;
use ugc_grid::runtime::{FaultEvent, FaultPlan, FaultyEndpoint, LinkDirection};
use ugc_grid::{
    duplex, Assignment, Broker, Doorbell, Endpoint, GridError, GridLink, GridScheduler, GridTask,
    Message, TaskPoll,
};
use ugc_task::Domain;

/// Far longer than any scenario takes; only a lost wake-up reaches it.
const PATIENCE: Duration = Duration::from_secs(60);

/// Runs `scenario` on its own thread and fails the test if it is not done
/// within [`PATIENCE`].
fn must_finish<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(scenario());
    });
    finished
        .recv_timeout(PATIENCE)
        .expect("the scenario panicked or never finished: a wake-up was lost")
}

fn msg(i: u64) -> Message {
    Message::Verdict {
        task_id: i,
        accepted: true,
    }
}

fn assign(task_id: u64) -> Message {
    Message::Assign(Assignment {
        task_id,
        domain: Domain::new(0, 8),
    })
}

#[test]
fn one_ring_per_frame_in_arrival_order_and_fifo_per_link() {
    let bell = Doorbell::new();
    let links: Vec<(Endpoint, Endpoint)> = (0..3).map(|_| duplex()).collect();
    for (key, (_, receiver)) in links.iter().enumerate() {
        receiver.subscribe(&bell, key);
    }
    // A fresh link has nothing to announce.
    assert_eq!(bell.try_next(), None);
    let arrivals = [2usize, 0, 0, 1, 2, 0];
    for (i, &link) in arrivals.iter().enumerate() {
        links[link].0.send(&msg(i as u64)).unwrap();
    }
    // The bell replays the arrival order, and answering each ring with one
    // receive on that link yields the frames in the order they were sent.
    for (i, &link) in arrivals.iter().enumerate() {
        assert_eq!(bell.try_next(), Some(link));
        assert_eq!(links[link].1.try_recv().unwrap().task_id(), i as u64);
    }
    assert_eq!(bell.try_next(), None);
    for (_, receiver) in &links {
        assert_eq!(receiver.try_recv().unwrap_err(), GridError::Empty);
    }
}

#[test]
fn subscribing_announces_the_backlog_and_a_drained_ring_reads_empty() {
    let bell = Doorbell::new();
    let (sender, receiver) = duplex();
    for i in 0..3 {
        sender.send(&msg(i)).unwrap();
    }
    receiver.subscribe(&bell, 9);
    // Subscribe-then-drain: everything queued before the subscription is
    // there to be received…
    for i in 0..3 {
        assert_eq!(receiver.try_recv().unwrap().task_id(), i);
    }
    // …and the rings that announced it now find the link empty, which is
    // an answer, not an error.
    for _ in 0..3 {
        assert_eq!(bell.try_next(), Some(9));
        assert_eq!(receiver.try_recv().unwrap_err(), GridError::Empty);
    }
    assert_eq!(bell.try_next(), None);

    // A peer that hung up before anyone subscribed is announced as well.
    let (sender, receiver) = duplex();
    sender.send(&msg(7)).unwrap();
    drop(sender);
    receiver.subscribe(&bell, 4);
    assert_eq!(bell.try_next(), Some(4));
    assert_eq!(receiver.try_recv().unwrap().task_id(), 7);
    assert_eq!(bell.try_next(), Some(4));
    assert_eq!(receiver.try_recv().unwrap_err(), GridError::Disconnected);
    assert_eq!(bell.try_next(), None);
}

#[test]
fn hang_up_rings_only_once_the_channel_reports_closure() {
    // A sender on another thread sends one frame and drops its endpoint;
    // the consumer answers rings until one reads `Disconnected`. If the
    // hang-up rang before the sending half was really closed, the last
    // ring would read `Empty` and the next wait would never end.
    must_finish(|| {
        let (hand_over, inbox) = mpsc::channel::<Endpoint>();
        let sender = std::thread::spawn(move || {
            for endpoint in inbox {
                endpoint.send(&msg(1)).unwrap();
                drop(endpoint);
            }
        });
        let bell = Doorbell::new();
        for round in 0..20_000 {
            let (theirs, ours) = duplex();
            ours.subscribe(&bell, round);
            hand_over.send(theirs).unwrap();
            let mut frames = 0;
            loop {
                assert_eq!(bell.wait(), round);
                match ours.try_recv() {
                    Ok(_) => frames += 1,
                    Err(GridError::Empty) => panic!("round {round}: a ring found nothing"),
                    Err(GridError::Disconnected) => break,
                    Err(e) => panic!("round {round}: {e:?}"),
                }
            }
            assert_eq!(frames, 1);
            assert_eq!(bell.try_next(), None, "round {round}: a ring too many");
        }
        drop(hand_over);
        sender.join().unwrap();
    });
}

#[test]
fn pump_serves_a_late_talker_and_a_death_among_a_thousand_idle_links() {
    const LINKS: usize = 1000;
    const LATE: u64 = 700;
    const DYING: u64 = 300;
    must_finish(|| {
        let (sup, broker_up) = duplex();
        let (broker_down, mut parts): (Vec<_>, Vec<_>) = (0..LINKS)
            .map(|_| {
                let (b, p) = duplex();
                (b, Some(p))
            })
            .unzip();
        // Three tasks per participant, queued before the pump even starts:
        // participant `i` is dealt tasks `i`, `i + 1000` and `i + 2000`.
        for task_id in 0..3 * LINKS as u64 {
            sup.send(&assign(task_id)).unwrap();
        }
        let broker = Broker::new(broker_up, broker_down);
        let pump = std::thread::spawn(move || broker.pump(&Doorbell::new(), |_| None));

        // Everyone sits on their assignments; one link answers late.
        let late = parts[LATE as usize].take().unwrap();
        for _ in 0..3 {
            let Message::Assign(a) = late.recv().unwrap() else {
                panic!("expected an assignment");
            };
            late.send(&Message::Commit {
                task_id: a.task_id,
                root: vec![0xAB; 16],
            })
            .unwrap();
        }
        for lap in 0..3 {
            assert_eq!(sup.recv().unwrap().task_id(), LATE + lap * LINKS as u64);
        }
        // One link dies mid-round with its assignments unread: its tasks
        // are NACKed in ascending order.
        drop(parts[DYING as usize].take());
        for lap in 0..3 {
            assert_eq!(
                sup.recv().unwrap(),
                Message::Gone {
                    task_id: DYING + lap * LINKS as u64
                }
            );
        }
        assert_eq!(sup.try_recv().unwrap_err(), GridError::Empty);
        drop(sup);
        let stats = pump.join().unwrap();
        assert_eq!(stats.outward, 3 * LINKS as u64);
        assert_eq!(stats.inward, 3);
        // The pump's exit hangs up on everyone still waiting.
        let waiting = parts[0].take().unwrap();
        for _ in 0..3 {
            assert!(matches!(waiting.recv().unwrap(), Message::Assign(_)));
        }
        assert_eq!(waiting.recv().unwrap_err(), GridError::Disconnected);
    });
}

/// Counts the frames its link delivers and completes on the hang-up.
/// Every `Idle` answer is given in the lost-wake-up window: having read
/// its link empty, the task tells the feeder so and waits, still inside
/// `poll`, until the feeder has queued the next frame (or hung up) — so
/// the ring always lands while the task is neither seated nor queued.
struct Racer {
    link: Endpoint,
    saw_empty: mpsc::Sender<()>,
    queued: mpsc::Receiver<()>,
    received: u32,
}

impl GridTask for Racer {
    fn poll(&mut self) -> TaskPoll {
        match self.link.try_recv() {
            Ok(_) => {
                self.received += 1;
                TaskPoll::Progress
            }
            Err(GridError::Empty) => {
                self.saw_empty.send(()).unwrap();
                self.queued.recv().unwrap();
                TaskPoll::Idle
            }
            Err(_) => TaskPoll::Complete,
        }
    }

    fn wake_on(&mut self, bell: &Doorbell, key: usize) -> bool {
        self.link.subscribe(bell, key);
        true
    }
}

#[test]
fn a_ring_that_lands_mid_poll_is_never_lost() {
    const ROUNDS: u32 = 10_000;
    for workers in [1usize, 2, 8] {
        let received = must_finish(move || {
            let mut tasks = Vec::new();
            let mut feeders = Vec::new();
            for _ in 0..workers {
                let (peer, link) = duplex();
                let (saw_empty, empties) = mpsc::channel();
                let (queue, queued) = mpsc::channel();
                tasks.push(Racer {
                    link,
                    saw_empty,
                    queued,
                    received: 0,
                });
                feeders.push(std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        empties.recv().unwrap();
                        peer.send(&msg(u64::from(round))).unwrap();
                        queue.send(()).unwrap();
                    }
                    empties.recv().unwrap();
                    drop(peer);
                    queue.send(()).unwrap();
                }));
            }
            let done = GridScheduler::new(workers).run(tasks);
            for feeder in feeders {
                feeder.join().unwrap();
            }
            done.iter().map(|t| t.received).collect::<Vec<_>>()
        });
        assert_eq!(received, vec![ROUNDS; workers], "{workers} workers");
    }
}

/// Echoes every frame back and completes on the hang-up; free-running, so
/// the next frame races the task's way to its seat at whatever point the
/// host's scheduling picks.
struct Echo<L: GridLink> {
    link: L,
    delivered: u32,
}

impl<L: GridLink> GridTask for Echo<L> {
    fn poll(&mut self) -> TaskPoll {
        match self.link.try_recv() {
            Ok(m) => {
                self.delivered += 1;
                let _ = self.link.send(&m);
                TaskPoll::Progress
            }
            Err(GridError::Empty) => TaskPoll::Idle,
            Err(_) => TaskPoll::Complete,
        }
    }

    fn wake_on(&mut self, bell: &Doorbell, key: usize) -> bool {
        self.link.subscribe(bell, key);
        true
    }
}

#[test]
fn free_running_ping_pong_terminates_at_any_pool_size() {
    const ROUNDS: u64 = 10_000;
    for workers in [1usize, 2, 8] {
        must_finish(move || {
            let (peers, tasks): (Vec<_>, Vec<_>) = (0..workers)
                .map(|_| {
                    let (peer, link) = duplex();
                    (peer, Echo { link, delivered: 0 })
                })
                .unzip();
            let feeders: Vec<_> = peers
                .into_iter()
                .map(|peer| {
                    std::thread::spawn(move || {
                        for round in 0..ROUNDS {
                            peer.send(&msg(round)).unwrap();
                            assert_eq!(peer.recv().unwrap().task_id(), round);
                        }
                    })
                })
                .collect();
            let done = GridScheduler::new(workers).run(tasks);
            for feeder in feeders {
                feeder.join().unwrap();
            }
            assert!(done.iter().all(|t| u64::from(t.delivered) == ROUNDS));
        });
    }
}

/// A task with no wake source: answers `busy` until `go`, then finishes.
struct Repolled<'a> {
    go: &'a AtomicBool,
    busy: TaskPoll,
}

impl GridTask for Repolled<'_> {
    fn poll(&mut self) -> TaskPoll {
        if self.go.load(Ordering::Acquire) {
            TaskPoll::Complete
        } else {
            self.busy
        }
    }
}

/// Either kind of task, so one pool can hold both. The rung one raises
/// `go` as it completes.
enum Mixed<'a> {
    Rung(Racer, &'a AtomicBool),
    Repolled(Repolled<'a>),
}

impl GridTask for Mixed<'_> {
    fn poll(&mut self) -> TaskPoll {
        match self {
            Mixed::Rung(racer, go) => {
                let verdict = racer.poll();
                if verdict == TaskPoll::Complete {
                    go.store(true, Ordering::Release);
                }
                verdict
            }
            Mixed::Repolled(task) => task.poll(),
        }
    }

    fn wake_on(&mut self, bell: &Doorbell, key: usize) -> bool {
        match self {
            Mixed::Rung(racer, _) => racer.wake_on(bell, key),
            Mixed::Repolled(task) => task.wake_on(bell, key),
        }
    }
}

#[test]
fn a_pool_mixing_rung_and_repolled_tasks_completes() {
    // The re-polled tasks can finish only once the rung one has, and the
    // rung one only by hearing its bell a hundred times. Idle re-polled
    // tasks must keep being re-polled while the pool sleeps on the bell;
    // ones that always report progress must not keep a lone worker from
    // ever answering it.
    const ROUNDS: u32 = 100;
    for workers in [1usize, 3] {
        for busy in [TaskPoll::Idle, TaskPoll::Progress] {
            must_finish(move || {
                let go = AtomicBool::new(false);
                let (peer, link) = duplex();
                let (saw_empty, empties) = mpsc::channel();
                let (queue, queued) = mpsc::channel();
                let racer = Racer {
                    link,
                    saw_empty,
                    queued,
                    received: 0,
                };
                let mut tasks = vec![Mixed::Rung(racer, &go)];
                tasks.extend((0..5).map(|_| Mixed::Repolled(Repolled { go: &go, busy })));
                std::thread::scope(|scope| {
                    scope.spawn(move || {
                        for round in 0..ROUNDS {
                            empties.recv().unwrap();
                            peer.send(&msg(u64::from(round))).unwrap();
                            queue.send(()).unwrap();
                        }
                        empties.recv().unwrap();
                        drop(peer);
                        queue.send(()).unwrap();
                    });
                    let done = GridScheduler::new(workers).run(tasks);
                    assert_eq!(done.len(), 6);
                    let Mixed::Rung(racer, _) = &done[0] else {
                        panic!("tasks come back in their original order");
                    };
                    assert_eq!(racer.received, ROUNDS);
                });
            });
        }
    }
}

#[test]
fn a_faulty_link_never_sits_down_with_mail_pending() {
    // Half of all frames duplicated in either direction, the other half
    // of the outbound ones held back for a swap: one ring can stand for
    // two deliveries, and an echo can sit in the decorator until the
    // link's next receive. The feeder sends the next frame only after it
    // has seen the echo of the last, so a task that took its seat with a
    // duplicate still pending or an echo still held would leave both
    // sides waiting.
    const ROUNDS: u64 = 2_000;
    for workers in [1usize, 2] {
        must_finish(move || {
            let plan = FaultPlan {
                dup_per_1024: 512,
                reorder_per_1024: 512,
                ..FaultPlan::quiet(0xD00B)
            };
            let (peers, tasks): (Vec<_>, Vec<_>) = (0..4u64)
                .map(|id| {
                    let (peer, raw) = duplex();
                    let link = FaultyEndpoint::new(raw, plan.link(id));
                    (peer, Echo { link, delivered: 0 })
                })
                .unzip();
            let logs: Vec<_> = tasks.iter().map(|t| t.link.log()).collect();
            let feeders: Vec<_> = peers
                .into_iter()
                .map(|peer| {
                    std::thread::spawn(move || {
                        for round in 0..ROUNDS {
                            peer.send(&msg(round)).unwrap();
                            // Late copies of earlier echoes may come first.
                            while peer.recv().unwrap().task_id() != round {}
                        }
                    })
                })
                .collect();
            let done = GridScheduler::new(workers).run(tasks);
            for feeder in feeders {
                feeder.join().unwrap();
            }
            for (task, log) in done.iter().zip(logs) {
                let duplicated = log
                    .snapshot()
                    .iter()
                    .filter(|e| {
                        matches!(
                            e,
                            FaultEvent::Duplicated {
                                direction: LinkDirection::Inbound,
                                ..
                            }
                        )
                    })
                    .count() as u64;
                assert!(duplicated > ROUNDS / 4, "the plan must bite");
                assert_eq!(u64::from(task.delivered), ROUNDS + duplicated);
            }
        });
    }
}
