//! The cross-process relay under the things that used to hurt it:
//! dialers that connect mid-campaign and never finish their hello (the
//! relay thread once waited out their patience itself), being run
//! hundreds of times in one process (every campaign must take all of
//! its threads, sockets and its listener with it), and volume — thousands
//! of sessions through one joiner, and uploads far larger than a read —
//! where a dial-in link that queued a frame and never wrote it would
//! hang the campaign instead of failing it.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{mpsc, Mutex};
use std::time::Duration;
use uncheatable_grid::campaign::{CampaignPlan, FleetParams};
use uncheatable_grid::core::{
    run_fleet_on, run_mixed_fleet, summary_digest, RemoteGridBackend, TransportKind,
};
use uncheatable_grid::grid::tcp::handshake_supervisor;
use uncheatable_grid::netgrid::{self, GridServer};

/// The scenarios count this process's threads and descriptors, so they
/// take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Well inside the server's 10 s hello patience: a relay that waits for
/// a silent dialer cannot make it.
const WATCHDOG: Duration = Duration::from_secs(5);

fn params(participants: u64, n: u64, transport: TransportKind) -> FleetParams {
    FleetParams {
        participants,
        cheaters: 1,
        n,
        m: 8,
        seed: 11,
        scheme: "cbs".into(),
        transport,
        churn: false,
        chaos_seed: None,
    }
}

fn brokered_digest(p: &FleetParams) -> String {
    let plan = CampaignPlan::new(p.clone()).expect("plan");
    let members = plan.members();
    let summary = run_mixed_fleet(
        plan.task(),
        plan.screener(),
        plan.domain(),
        &members,
        &plan.mixed_config(None, 0, uncheatable_grid::hash::LaneWidth::default()),
    )
    .expect("in-process brokered campaign");
    summary_digest(&summary)
}

#[test]
fn dialers_that_never_finish_their_hello_do_not_stall_a_running_campaign() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let reference = brokered_digest(&params(24, 1920, TransportKind::Brokered));

    let server = GridServer::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let (served, serve_done) = mpsc::channel();
    let serve = std::thread::spawn(move || served.send(server.run()).ok());
    let joiners: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || netgrid::join(&addr))
        })
        .collect();

    let p = params(24, 1920, TransportKind::Remote);
    let plan = CampaignPlan::new(p.clone()).expect("plan");
    let stream = netgrid::connect(&addr).expect("supervisor connect");
    // The welcome says the roster is complete: every dial from here on
    // lands in the relay's pump phase.
    let (link, _welcome) = handshake_supervisor(stream, &p.encode()).expect("handshake");

    // One dialer that says nothing, and one that stops mid-hello: a
    // control-frame header promising 100 bytes, then three of them. Both
    // stay connected for the rest of the test.
    let silent = TcpStream::connect(&addr).expect("silent dial");
    let mut torn = TcpStream::connect(&addr).expect("torn dial");
    torn.write_all(&(100u32 | 1 << 31).to_le_bytes())
        .and_then(|()| torn.write_all(&[1, 2, 3]))
        .expect("torn hello");

    let (tx, rx) = mpsc::channel();
    let supervisor = std::thread::spawn(move || {
        let mut backend = RemoteGridBackend::new(link);
        let members = plan.members();
        let result = run_fleet_on(
            plan.task(),
            plan.screener(),
            plan.domain(),
            &members,
            &plan.mixed_config(None, 0, uncheatable_grid::hash::LaneWidth::default()),
            &mut backend,
            None,
        );
        tx.send(result.map(|s| summary_digest(&s))).ok();
    });
    let digest = rx
        .recv_timeout(WATCHDOG)
        .expect("the campaign stalled behind a dialer that never said hello")
        .expect("remote campaign");
    assert_eq!(digest, reference);
    supervisor.join().expect("supervisor thread");

    // The server winds down on the supervisor's hang-up without waiting
    // for the dialer whose hello it is still holding open.
    let outcome = serve_done
        .recv_timeout(WATCHDOG)
        .expect("the server outlived its campaign waiting on a silent dialer")
        .expect("serve outcome");
    assert_eq!(outcome.joined, 2);
    serve.join().expect("serve thread");
    for joiner in joiners {
        joiner.join().expect("join thread").expect("join outcome");
    }
    drop((silent, torn));
}

/// This process's thread count and open descriptors, from `/proc`, once
/// the reading holds still: `join` returns when a thread has cleared its
/// id, a moment before the kernel takes it off the process's thread
/// list, so a single read can count a thread that is already joined. A
/// thread or descriptor that was leaked stays counted however long the
/// reading is left to settle.
#[cfg(target_os = "linux")]
fn threads_and_descriptors() -> (u64, usize) {
    let read = || {
        let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
        let threads: u64 = status
            .lines()
            .find_map(|line| line.strip_prefix("Threads:"))
            .and_then(|count| count.trim().parse().ok())
            .expect("a Threads: line");
        let descriptors = std::fs::read_dir("/proc/self/fd")
            .expect("/proc/self/fd")
            .count();
        (threads, descriptors)
    };
    let mut reading = read();
    let mut agreed = 0;
    while agreed < 5 {
        std::thread::sleep(Duration::from_millis(1));
        let again = read();
        agreed = if again == reading { agreed + 1 } else { 0 };
        reading = again;
    }
    reading
}

#[cfg(target_os = "linux")]
#[test]
fn hundreds_of_remote_campaigns_leave_no_thread_or_descriptor_behind() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let p = params(4, 64, TransportKind::Remote);
    let reference = brokered_digest(&params(4, 64, TransportKind::Brokered));
    let campaign = || {
        let summary = netgrid::run_remote_campaign(&p, 2).expect("remote campaign");
        assert_eq!(summary_digest(&summary), reference);
    };
    campaign(); // whatever the process sets up once is set up now
    let before = threads_and_descriptors();
    for _ in 0..200 {
        campaign();
    }
    assert_eq!(
        threads_and_descriptors(),
        before,
        "(threads, descriptors) after 200 campaigns: something outlived run_remote_campaign"
    );
}

/// Runs `p` over loopback with `joiners` join threads and returns its
/// digest, failing instead of hanging once `watchdog` passes: a frame
/// that a dial-in link queued and never wrote stalls the campaign, and
/// the watchdog turns that into a failure.
fn remote_digest_within(p: &FleetParams, joiners: usize, watchdog: Duration) -> String {
    let (tx, rx) = mpsc::channel();
    let params = p.clone();
    std::thread::spawn(move || {
        let result = netgrid::run_remote_campaign(&params, joiners);
        tx.send(result.map(|summary| summary_digest(&summary))).ok();
    });
    rx.recv_timeout(watchdog)
        .expect("the remote campaign stalled: a queued frame was never written")
        .expect("remote campaign")
}

#[test]
fn thousands_of_cbs_sessions_through_one_joiner_match_the_in_process_run() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // 8192 members in a debug build; a release build (CI's TCP stress
    // step) runs 65 536, the size that once took seconds per campaign.
    let members: u64 = if cfg!(debug_assertions) { 8192 } else { 65_536 };
    let p = |transport| FleetParams {
        m: 6,
        ..params(members, 8 * members, transport)
    };
    let reference = brokered_digest(&p(TransportKind::Brokered));
    let digest = remote_digest_within(&p(TransportKind::Remote), 1, Duration::from_secs(120));
    assert_eq!(digest, reference);
}

#[test]
fn naive_uploads_of_a_quarter_mebibyte_match_the_in_process_run() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Two members of 16 384 inputs each: every upload carries 16 384
    // results of 16 bytes, 256 KiB in one frame, many reads long.
    let p = |transport| FleetParams {
        scheme: "naive".into(),
        ..params(2, 2 * 16_384, transport)
    };
    let reference = brokered_digest(&p(TransportKind::Brokered));
    for joiners in [1, 2] {
        let digest =
            remote_digest_within(&p(TransportKind::Remote), joiners, Duration::from_secs(120));
        assert_eq!(digest, reference, "{joiners} joiner(s)");
    }
}
