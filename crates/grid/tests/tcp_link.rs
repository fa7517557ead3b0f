//! The mechanics of a [`TcpLink`]: sends are queued and written by the
//! link's own thread, so what these tests look for is what queueing can
//! break — order, a frame that is never flushed, a sender that
//! is never released, a ring that never comes. Each scenario runs under a
//! watchdog and fails, rather than hangs, when it does not finish.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use ugc_grid::tcp::{INBOUND_HIGH_WATER, OUTBOUND_HIGH_WATER};
use ugc_grid::wire::{write_frame, Frame};
use ugc_grid::{Assignment, Broker, Doorbell, GridError, GridLink, Message, TcpLink};
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
        .expect("the scenario panicked or never finished: a frame or a wake-up was lost")
}

fn loopback_streams() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let dialed = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    (dialed, accepted)
}

fn loopback_pair() -> (TcpLink, TcpLink) {
    let (dialed, accepted) = loopback_streams();
    (TcpLink::from_stream(dialed), TcpLink::from_stream(accepted))
}

/// Frames of several kinds and sizes, so a damaged or misframed one
/// cannot decode right by accident.
fn msg(i: u64) -> Message {
    match i % 3 {
        0 => Message::Verdict {
            task_id: i,
            accepted: i % 2 == 0,
        },
        1 => Message::Commit {
            task_id: i,
            root: vec![0xC3; 32],
        },
        _ => Message::Challenge {
            task_id: i,
            samples: (0..i % 17).collect(),
        },
    }
}

#[test]
fn a_burst_arrives_in_order() {
    const FRAMES: u64 = 10_000;
    must_finish(|| {
        let (a, b) = loopback_pair();
        // Back to back from one thread: far more than the outbound bound
        // and the inbound high-water mark, so the sender is held back and
        // released many times on the way.
        let sender = std::thread::spawn(move || {
            (0..FRAMES).for_each(|i| a.send(&msg(i)).unwrap());
            a
        });
        for i in 0..FRAMES {
            assert_eq!(
                b.recv().unwrap(),
                msg(i),
                "frame {i} out of order or damaged"
            );
        }
        let _a = sender.join().unwrap();
        assert_eq!(b.try_recv().unwrap_err(), GridError::Empty);
    });
}

#[test]
fn data_and_control_from_two_threads_keep_their_own_order() {
    const FRAMES: u64 = 2_000;
    must_finish(|| {
        let (a, b) = loopback_pair();
        let control = a.control_handle();
        std::thread::scope(|scope| {
            scope.spawn(|| (0..FRAMES).for_each(|i| a.send(&msg(i)).unwrap()));
            scope.spawn(|| {
                (0..FRAMES).for_each(|i| control.send(i.to_le_bytes().to_vec()).unwrap());
            });
            let reports = b.control_handle();
            scope.spawn(move || {
                for i in 0..FRAMES {
                    assert_eq!(reports.recv().unwrap(), i.to_le_bytes().to_vec());
                }
            });
            for i in 0..FRAMES {
                assert_eq!(b.recv().unwrap(), msg(i));
            }
        });
        // Control frames are plumbing: never delivered as messages.
        assert_eq!(b.try_recv().unwrap_err(), GridError::Empty);
    });
}

#[test]
fn send_then_drop_delivers_everything_queued_before_the_disconnect() {
    const ROUNDS: u64 = 1_000;
    must_finish(|| {
        let (hand_over, inbox) = mpsc::channel::<(TcpLink, u64)>();
        let receiver = std::thread::spawn(move || {
            for (link, expected) in inbox {
                for i in 0..expected {
                    assert_eq!(link.recv().unwrap(), msg(i), "a queued frame was lost");
                }
                assert_eq!(link.recv().unwrap_err(), GridError::Disconnected);
                // The closing control frame was queued last and made it too.
                let reports = link.control_handle();
                assert_eq!(reports.recv().unwrap(), vec![0xFE]);
                assert_eq!(reports.recv().unwrap_err(), GridError::Disconnected);
                // The stream is known dead: mail is refused, not queued.
                assert_eq!(link.send(&msg(0)).unwrap_err(), GridError::Disconnected);
            }
        });
        for round in 0..ROUNDS {
            let (a, b) = loopback_pair();
            // From a lone frame to a burst past the outbound bound.
            let frames = 1 + (round * 7) % (2 * OUTBOUND_HIGH_WATER as u64);
            hand_over.send((b, frames)).unwrap();
            for i in 0..frames {
                a.send(&msg(i)).unwrap();
            }
            a.control_handle().send(vec![0xFE]).unwrap();
            drop(a);
        }
        drop(hand_over);
        receiver.join().unwrap();
    });
}

/// Sends bulk frames through `send` until it fails, publishing how many
/// were accepted; returns the error that ended it.
fn flood(accepted: &AtomicU64, mut send: impl FnMut() -> Result<(), GridError>) -> GridError {
    loop {
        match send() {
            Ok(()) => accepted.fetch_add(1, Ordering::SeqCst),
            Err(e) => return e,
        };
    }
}

/// Waits until `accepted` has moved and then stopped for a while — the
/// sender is blocked — and returns where it stopped.
fn wait_until_blocked(accepted: &AtomicU64) -> u64 {
    let (mut last, mut quiet) = (0, 0);
    while quiet < 3 {
        std::thread::sleep(Duration::from_millis(200));
        let now = accepted.load(Ordering::SeqCst);
        quiet = if now == last && now > 0 { quiet + 1 } else { 0 };
        last = now;
    }
    last
}

const BULK_BYTES: usize = 16 * 1024;
/// What a stalled link may hold: the kernel's two socket buffers (a few
/// MiB on loopback) plus one batch in the writer's hands and one full
/// queue behind it.
const STALLED_BYTES_CEILING: u64 = 32 * 1024 * 1024;

#[test]
fn a_peer_that_never_reads_blocks_the_sender_until_the_peer_goes() {
    must_finish(|| {
        let (dialed, silent_peer) = loopback_streams();
        let link = TcpLink::from_stream(dialed);
        let accepted = Arc::new(AtomicU64::new(0));
        let bulk = Message::Commit {
            task_id: 1,
            root: vec![0x5A; BULK_BYTES],
        };
        let sender = {
            let accepted = Arc::clone(&accepted);
            std::thread::spawn(move || flood(&accepted, || link.send(&bulk)))
        };
        let stalled_at = wait_until_blocked(&accepted);
        assert!(
            stalled_at >= OUTBOUND_HIGH_WATER as u64,
            "the queue never filled"
        );
        assert!(
            stalled_at * BULK_BYTES as u64 <= STALLED_BYTES_CEILING,
            "{stalled_at} frames accepted for a peer that reads nothing: the queue is not bounded"
        );
        assert!(
            !sender.is_finished(),
            "the sender was failed, not held back"
        );
        // The peer going away releases the sender, with the typed error.
        drop(silent_peer);
        assert_eq!(sender.join().unwrap(), GridError::Disconnected);
    });
}

#[test]
fn dropping_the_link_releases_a_sender_blocked_on_its_control_plane() {
    must_finish(|| {
        let (dialed, _silent_peer) = loopback_streams();
        let link = TcpLink::from_stream(dialed);
        let control = link.control_handle();
        let accepted = Arc::new(AtomicU64::new(0));
        let sender = {
            let accepted = Arc::clone(&accepted);
            std::thread::spawn(move || flood(&accepted, || control.send(vec![0x5A; BULK_BYTES])))
        };
        let stalled_at = wait_until_blocked(&accepted);
        assert!(stalled_at * BULK_BYTES as u64 <= STALLED_BYTES_CEILING);
        assert!(!sender.is_finished());
        // The drop cannot flush to a peer that takes nothing; it gives up
        // after its patience, and the blocked sender is refused at once.
        drop(link);
        assert_eq!(sender.join().unwrap(), GridError::Disconnected);
    });
}

/// 64 MiB in 1 KiB frames: far more than the inbound high-water mark and
/// both kernel socket buffers hold.
const FLOOD_FRAMES: u64 = 64 * 1024;

fn kib_frame(i: u64) -> Message {
    Message::Commit {
        task_id: i,
        root: vec![i.to_le_bytes()[0]; 1000],
    }
}

#[test]
fn a_receiver_that_takes_nothing_stops_the_reader_then_the_sender() {
    must_finish(|| {
        let (a, b) = loopback_pair();
        let accepted = Arc::new(AtomicU64::new(0));
        let sender = {
            let accepted = Arc::clone(&accepted);
            std::thread::spawn(move || {
                for i in 0..FLOOD_FRAMES {
                    a.send(&kib_frame(i)).unwrap();
                    accepted.fetch_add(1, Ordering::SeqCst);
                }
                a
            })
        };
        // `b` receives nothing: its reader queues frames up to the mark
        // and stops, the kernel's buffers fill, and the sender is held.
        let stalled_at = wait_until_blocked(&accepted);
        assert!(
            !sender.is_finished(),
            "all {FLOOD_FRAMES} frames were taken: the reader never stopped"
        );
        assert!(
            stalled_at > INBOUND_HIGH_WATER as u64,
            "stalled after {stalled_at} frames, before the reader's queue was full"
        );
        assert!(
            stalled_at * 1024 <= STALLED_BYTES_CEILING,
            "{stalled_at} frames accepted for a receiver that takes nothing"
        );
        // Draining releases the reader, then the sender: every frame, in
        // order.
        for i in 0..FLOOD_FRAMES {
            assert_eq!(
                b.recv().unwrap(),
                kib_frame(i),
                "frame {i} out of order or damaged"
            );
        }
        let _a = sender.join().unwrap();
        assert_eq!(b.try_recv().unwrap_err(), GridError::Empty);
    });
}

#[test]
fn one_ring_per_frame_on_either_plane_and_the_backlog_is_announced() {
    must_finish(|| {
        let (a, b) = loopback_pair();
        let bell = Doorbell::new();
        // Two frames sent before anyone subscribed: announced as backlog
        // if they had arrived by then, rung by the reader if not — two
        // rings either way.
        a.send(&msg(0)).unwrap();
        a.control_handle().send(vec![7]).unwrap();
        b.subscribe(&bell, 5);
        assert_eq!((bell.wait(), bell.wait()), (5, 5));
        assert_eq!(b.try_recv().unwrap(), msg(0));
        assert_eq!(b.control_handle().try_recv().unwrap(), Some(vec![7]));
        // Live traffic: one ring per frame, whichever plane it is for.
        for i in 1..=3 {
            a.send(&msg(i)).unwrap();
        }
        a.control_handle().send(vec![8]).unwrap();
        for _ in 0..4 {
            assert_eq!(bell.wait(), 5);
        }
        for i in 1..=3 {
            assert_eq!(b.try_recv().unwrap(), msg(i));
        }
        assert_eq!(b.control_handle().try_recv().unwrap(), Some(vec![8]));
        assert_eq!(bell.try_next(), None, "a ring too many");
        // A ring for a frame already taken reads Empty, and that is fine.
        bell.ring(5);
        assert_eq!(bell.wait(), 5);
        assert_eq!(b.try_recv().unwrap_err(), GridError::Empty);
    });
}

#[test]
fn the_hang_up_rings_only_once_try_recv_reports_the_end() {
    // A sender on another thread sends one frame and drops its link; the
    // consumer answers rings until one reads `Disconnected`. If the
    // hang-up rang before the queues were really closed, the last ring
    // would read `Empty` and the next wait would never end.
    must_finish(|| {
        let (hand_over, inbox) = mpsc::channel::<TcpLink>();
        let sender = std::thread::spawn(move || {
            for link in inbox {
                link.send(&msg(1)).unwrap();
                drop(link);
            }
        });
        let bell = Doorbell::new();
        for round in 0..500 {
            let (theirs, ours) = loopback_pair();
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

fn assign(task_id: u64) -> Message {
    Message::Assign(Assignment {
        task_id,
        domain: Domain::new(0, 8),
    })
}

/// A frame header promising 100 bytes, three of them, and the end.
fn tear(mut stream: TcpStream) {
    stream.write_all(&100u32.to_le_bytes()).unwrap();
    stream.write_all(&[1, 2, 3]).unwrap();
}

#[test]
fn a_pumped_relay_treats_a_torn_stream_as_the_death_it_is() {
    // A socket reports what killed it once, as an error where a frame
    // would have been. A pump that slept on after that error would never
    // hear of the closure behind it.
    must_finish(|| {
        // A participant process dies mid-frame: its task is NACKed.
        let (supervisor, broker_up) = loopback_pair();
        let (dying, broker_down) = loopback_streams();
        let broker = Broker::new(broker_up, vec![TcpLink::from_stream(broker_down)]);
        let pump = std::thread::spawn(move || broker.pump(&Doorbell::new(), |_| None));
        supervisor.send(&assign(7)).unwrap();
        tear(dying);
        // (Whether the assignment was relayed before the death was seen
        // or refused after it is a race; the NACK is owed either way.)
        assert_eq!(supervisor.recv().unwrap(), Message::Gone { task_id: 7 });
        drop(supervisor);
        pump.join().unwrap();

        // The supervisor process dies mid-frame: what it had sent is
        // relayed, then the pump winds down and the participant is let go.
        let (mut dying, broker_up) = loopback_streams();
        let (participant, broker_down) = loopback_pair();
        let broker = Broker::new(TcpLink::from_stream(broker_up), vec![broker_down]);
        let pump = std::thread::spawn(move || broker.pump(&Doorbell::new(), |_| None));
        write_frame(&mut dying, &Frame::Data(assign(8).encode())).unwrap();
        tear(dying);
        assert_eq!(participant.recv().unwrap(), assign(8));
        assert_eq!(participant.recv().unwrap_err(), GridError::Disconnected);
        assert_eq!(pump.join().unwrap().outward, 1);
    });
}
