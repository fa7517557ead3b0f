//! The broker's relay, one thread per link: over in-process endpoints and
//! over sockets. What these tests look for is what a relay thread can
//! lose — a frame queued and never written, a death never reported, a
//! link never ended — so each scenario runs under a watchdog and fails,
//! rather than hangs, when it does not finish.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;
use ugc_grid::wire::{write_frame, Frame};
use ugc_grid::{duplex, Assignment, Broker, DialLink, GridError, GridLink, Message, RelaySocket};
use ugc_task::Domain;

/// Far longer than any scenario takes; only a lost frame reaches it.
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
        .expect("the scenario panicked or never finished: a frame or an end was lost")
}

fn assign(task_id: u64) -> Message {
    Message::Assign(Assignment {
        task_id,
        domain: Domain::new(0, 8),
    })
}

fn commit(task_id: u64) -> Message {
    Message::Commit {
        task_id,
        root: vec![0xAB; 16],
    }
}

fn loopback_streams() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let dialed = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    (dialed, accepted)
}

/// A dial-in end and the broker's socket for it.
fn dial_in() -> (DialLink, RelaySocket) {
    let (dialed, accepted) = loopback_streams();
    (
        DialLink::from_stream(dialed),
        RelaySocket::from_stream(accepted),
    )
}

/// A frame header promising 100 bytes, three of them, and the end.
fn tear(mut stream: TcpStream) {
    stream.write_all(&100u32.to_le_bytes()).unwrap();
    stream.write_all(&[1, 2, 3]).unwrap();
}

#[test]
fn a_relay_treats_a_torn_stream_as_the_death_it_is() {
    // A socket reports what killed it once, as an error where a frame
    // would have been. A relay thread that read on after that error would
    // never hear of the closure behind it.
    must_finish(|| {
        // A participant process dies mid-frame: its task is NACKed.
        let (mut supervisor, broker_up) = dial_in();
        let (dying, broker_down) = loopback_streams();
        let broker = Broker::new(broker_up, vec![RelaySocket::from_stream(broker_down)]);
        let relay = std::thread::spawn(move || broker.relay());
        supervisor.send(&assign(7)).unwrap();
        tear(dying);
        // (Whether the assignment was relayed before the death was seen
        // or refused after it is a race; the NACK is owed either way.)
        assert_eq!(supervisor.recv().unwrap(), Message::Gone { task_id: 7 });
        drop(supervisor);
        relay.join().unwrap();

        // The supervisor process dies mid-frame: what it had sent is
        // relayed, then the relay winds down and the participant is let go.
        let (mut dying, broker_up) = loopback_streams();
        let (mut participant, broker_down) = dial_in();
        let broker = Broker::new(RelaySocket::from_stream(broker_up), vec![broker_down]);
        let relay = std::thread::spawn(move || broker.relay());
        write_frame(&mut dying, &Frame::Data(assign(8).encode())).unwrap();
        tear(dying);
        assert_eq!(participant.recv().unwrap(), assign(8));
        assert_eq!(participant.recv().unwrap_err(), GridError::Disconnected);
        assert_eq!(relay.join().unwrap().outward, 1);
    });
}

#[test]
fn a_relay_serves_a_late_talker_and_a_death_among_idle_links() {
    // A thread per link: 64 links, not the thousand a single relay
    // thread once waited on, so the test starts a bounded number.
    const LINKS: usize = 64;
    const LATE: u64 = 43;
    const DYING: u64 = 17;
    must_finish(|| {
        let (sup, broker_up) = duplex();
        let (broker_down, mut parts): (Vec<_>, Vec<_>) = (0..LINKS)
            .map(|_| {
                let (b, p) = duplex();
                (b, Some(p))
            })
            .unzip();
        // Three tasks per participant, queued before the relay even
        // starts: participant `i` is dealt tasks `i`, `i + 64` and
        // `i + 128`.
        for task_id in 0..3 * LINKS as u64 {
            sup.send(&assign(task_id)).unwrap();
        }
        let broker = Broker::new(broker_up, broker_down);
        let relay = std::thread::spawn(move || broker.relay());

        // Everyone sits on their assignments; one link answers late.
        let late = parts[LATE as usize].take().unwrap();
        for _ in 0..3 {
            let Message::Assign(a) = late.recv().unwrap() else {
                panic!("expected an assignment");
            };
            late.send(&commit(a.task_id)).unwrap();
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
        let stats = relay.join().unwrap();
        assert_eq!(stats.outward, 3 * LINKS as u64);
        assert_eq!(stats.inward, 3);
        // The relay's end hangs up on everyone still waiting.
        let waiting = parts[0].take().unwrap();
        for _ in 0..3 {
            assert!(matches!(waiting.recv().unwrap(), Message::Assign(_)));
        }
        assert_eq!(waiting.recv().unwrap_err(), GridError::Disconnected);
    });
}

#[test]
fn a_late_participant_is_dealt_work_and_nobody_is_admitted_after_the_end() {
    must_finish(|| {
        let (mut supervisor, broker_up) = dial_in();
        let (mut first, broker_down) = dial_in();
        let relay = Broker::new(broker_up, vec![broker_down]).into_relay();
        let admission = relay.admission();
        let running = std::thread::spawn(move || relay.run());

        let (mut late, late_socket) = dial_in();
        let mut told = None;
        assert!(admission.admit(|index| {
            told = Some(index);
            Some(late_socket)
        }));
        assert_eq!(told, Some(1));
        // Round-robin from where it stood: task 0 to the first, task 1 to
        // the newcomer.
        supervisor.send(&assign(0)).unwrap();
        supervisor.send(&assign(1)).unwrap();
        // A dial-in end writes when it would wait.
        assert_eq!(supervisor.recv_timeout(Some(Duration::ZERO)).unwrap(), None);
        assert_eq!(first.recv().unwrap(), assign(0));
        assert_eq!(late.recv().unwrap(), assign(1));
        // Replies and control frames come up through the same relay.
        late.send(&commit(1)).unwrap();
        late.send_control(&[9]).unwrap();
        assert_eq!(late.recv_timeout(Some(Duration::ZERO)).unwrap(), None);
        assert_eq!(supervisor.recv().unwrap(), commit(1));
        assert_eq!(
            supervisor.recv_control(Some(PATIENCE)).unwrap(),
            Some(vec![9])
        );

        drop(supervisor);
        let stats = running.join().unwrap();
        assert_eq!((stats.outward, stats.inward), (2, 1));
        for participant in [&mut first, &mut late] {
            assert_eq!(participant.recv().unwrap_err(), GridError::Disconnected);
        }
        let (_, refused) = dial_in();
        assert!(!admission.admit(|_| Some(refused)));
    });
}
