//! The cross-process grid: `ugc broker serve`, `ugc participant join`
//! and `ugc fleet --connect`, over the length-framed TCP wire protocol.
//!
//! Three processes cooperate, mirroring the paper's GRACE deployment
//! exactly — the supervisor talks only to the broker, never to
//! participants:
//!
//! * [`GridServer`] (`ugc broker serve`) accepts one supervisor and N
//!   participant connections, completes the versioned handshake, then
//!   pumps a [`Broker`] over [`TcpLink`]s — the same routing rules the
//!   in-process transport applies at send time — forwarding
//!   participant [`SlotReport`](ugc_core::SlotReport)s up the control
//!   plane as they arrive.
//! * [`join`] (`ugc participant join`) dials in, learns the campaign
//!   from the handshake [`Welcome`], expands the identical
//!   [`CampaignPlan`] the supervisor runs, and serves every slot the
//!   broker round-robins to it through `ugc-core`'s
//!   [`serve_remote_slots`] — the same participant slot, fed by the same
//!   step, as an in-process shard runs.
//! * [`supervise`] (`ugc fleet --connect`) dials in as the supervisor and
//!   runs the campaign over a [`RemoteGridBackend`].
//! * [`run_remote_campaign`] wires all three together over loopback in
//!   one process — the harness `tests/wire_equivalence.rs` and the
//!   repository benchmark's `wire_loopback` workload use to prove a
//!   cross-process campaign's digest is bit-identical to the in-process
//!   run.
//!
//! Threads: the broker has one per socket it relays for, a reader and a
//! writer per [`TcpLink`], plus its relay and its acceptor, because one
//! thread must wait on N sockets and `std` has no portable readiness
//! wait. A dial-in end has one socket and one thread that consumes it, so
//! its [`DialLink`](ugc_grid::DialLink) is read and written on that
//! thread and starts none: the supervisor's engine, and each joiner's
//! slot loop, write what they queued when they are about to wait.
//!
//! Reconnect semantics: the server keeps accepting after the roster is
//! complete; a late joiner becomes a fresh round-robin target. Tasks
//! orphaned by a died participant were already NACKed to the supervisor
//! with [`Message::Gone`](ugc_grid::Message) — they are *not* replayed
//! to the newcomer, the supervisor's retry round reassigns them.

use crate::campaign::{CampaignPlan, FleetParams};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use ugc_core::{
    run_fleet_on, serve_remote_slots, FleetSummary, LaneWidth, MixedFleetConfig, RemoteGridBackend,
    TransportKind,
};
use ugc_grid::tcp::{handshake_participant, handshake_supervisor};
use ugc_grid::wire::{recv_hello, send_welcome, Hello, Welcome, ROLE_PARTICIPANT, ROLE_SUPERVISOR};
use ugc_grid::{Broker, ControlHandle, Doorbell, GridError, RelayStats, TcpLink};

/// How many times [`connect`] retries a refused dial before giving up.
/// With [`CONNECT_PAUSE`] between attempts this tolerates ~10 s of the
/// server not being up yet — `ugc participant join` is routinely started
/// before `ugc broker serve` finishes binding.
const CONNECT_ATTEMPTS: u32 = 40;
/// Pause between dial attempts (a fixed schedule, not wall-clock-read
/// based: retry behaviour is execution-only and never enters a digest).
const CONNECT_PAUSE: Duration = Duration::from_millis(250);
/// How long the server waits for a connection's [`Hello`] before
/// dropping it (a liveness guard against port scanners and half-open
/// dials wedging the roster phase).
const HELLO_PATIENCE: Duration = Duration::from_secs(10);

/// Dials `addr`, retrying while the server is still coming up.
///
/// # Errors
///
/// The last I/O error once the retry schedule is exhausted.
pub fn connect(addr: &str) -> Result<TcpStream, String> {
    let mut last: Option<io::Error> = None;
    for _ in 0..CONNECT_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(CONNECT_PAUSE);
            }
        }
    }
    Err(match last {
        Some(e) => format!("could not connect to {addr}: {e}"),
        None => format!("could not connect to {addr}"),
    })
}

/// What a completed [`GridServer::run`] relayed.
#[derive(Debug, Clone, Copy)]
pub struct ServeOutcome {
    /// Message counts the broker relayed in each direction.
    pub relay: RelayStats,
    /// Participant processes welcomed over the server's lifetime
    /// (roster plus late joiners/reconnects).
    pub joined: usize,
}

/// What a completed [`join`] served.
#[derive(Debug, Clone, Copy)]
pub struct JoinOutcome {
    /// This process's index among the broker's participants.
    pub peer_index: u32,
    /// Participant slots this process ran to completion (reported via
    /// [`SlotReport`](ugc_core::SlotReport) control frames).
    pub slots_served: u64,
}

/// The bell key the [`Acceptor`] rings for every dial-in that has said
/// hello (participant links ring their index, the supervisor
/// [`Broker::SUPERVISOR_KEY`]).
const DIAL_KEY: usize = usize::MAX - 1;
/// How long [`Acceptor::stop`] waits for its own wake-up dial to land.
const WAKE_PATIENCE: Duration = Duration::from_secs(1);

/// What the acceptor thread has in hand, for [`Acceptor::stop`].
#[derive(Default)]
struct Dialing {
    /// The server is done; the thread exits at its next look.
    stopping: bool,
    /// The connection whose [`Hello`] is being awaited.
    in_flight: Option<TcpStream>,
}

/// The listener's own thread: `accept`, then the connection's [`Hello`]
/// under [`HELLO_PATIENCE`], one dial-in at a time. A dialer that says
/// nothing holds up only the dialers behind it — never the relay, which
/// hears of a completed hello by [`DIAL_KEY`] ringing.
struct Acceptor {
    dialing: Arc<Mutex<Dialing>>,
    wake_addr: Option<SocketAddr>,
    thread: std::thread::JoinHandle<()>,
}

/// One dial-in that got as far as a valid [`Hello`], or the reason the
/// listener stopped producing them.
type Dial = Result<(TcpStream, Hello), io::Error>;

impl Acceptor {
    fn spawn(listener: TcpListener, bell: Arc<Doorbell>, dials: mpsc::Sender<Dial>) -> Self {
        let dialing = Arc::new(Mutex::new(Dialing::default()));
        // `stop` unblocks `accept` by dialing the listener itself.
        let wake_addr = listener.local_addr().ok().map(|mut addr| {
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr.ip() {
                    IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                });
            }
            addr
        });
        let thread = {
            let dialing = Arc::clone(&dialing);
            std::thread::spawn(move || accept_loop(&listener, &dialing, &bell, &dials))
        };
        Acceptor {
            dialing,
            wake_addr,
            thread,
        }
    }

    /// Ends the thread — whether it sits in `accept` or in a silent
    /// dialer's hello — and with it the listener.
    fn stop(self) {
        {
            let mut dialing = self.dialing.lock().expect("acceptor state poisoned");
            dialing.stopping = true;
            if let Some(stream) = dialing.in_flight.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        let woken = self
            .wake_addr
            .is_some_and(|addr| TcpStream::connect_timeout(&addr, WAKE_PATIENCE).is_ok());
        // A listener that cannot even be dialed will not return from
        // `accept`; joining it would hang the server instead of ending it.
        if woken {
            let _ = self.thread.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    dialing: &Mutex<Dialing>,
    bell: &Doorbell,
    dials: &mpsc::Sender<Dial>,
) {
    loop {
        let accepted = listener.accept();
        let dial = {
            let mut state = dialing.lock().expect("acceptor state poisoned");
            if state.stopping {
                return;
            }
            accepted.map(|(stream, _)| {
                state.in_flight = stream.try_clone().ok();
                stream
            })
        };
        let dial = match dial {
            Ok(mut stream) => {
                let hello = accept_hello(&mut stream);
                dialing.lock().expect("acceptor state poisoned").in_flight = None;
                match hello {
                    Ok(hello) => Ok((stream, hello)),
                    // Not a grid peer, or too slow: dropped, next.
                    Err(_) => continue,
                }
            }
            Err(e) => Err(e),
        };
        let failed = dial.is_err();
        if dials.send(dial).is_err() {
            return;
        }
        bell.ring(DIAL_KEY);
        if failed {
            // Whatever broke `accept` (out of descriptors, say) may
            // still be true: do not spin on it.
            std::thread::sleep(CONNECT_PAUSE);
        }
    }
}

/// Receives a connection's [`Hello`] under [`HELLO_PATIENCE`], leaving
/// the stream in blocking mode afterwards (the [`TcpLink`] reader thread
/// needs plain blocking reads).
fn accept_hello(stream: &mut TcpStream) -> Result<Hello, GridError> {
    stream
        .set_read_timeout(Some(HELLO_PATIENCE))
        .map_err(|_| GridError::Disconnected)?;
    let hello = recv_hello(stream)?;
    stream
        .set_read_timeout(None)
        .map_err(|_| GridError::Disconnected)?;
    Ok(hello)
}

/// The `ugc broker serve` process: a [`Broker`] relay over real
/// sockets.
///
/// Two-phase construction — [`bind`](Self::bind) then
/// [`run`](Self::run) — so a caller binding port 0 can read the
/// OS-assigned address from [`local_addr`](Self::local_addr) before the
/// server blocks.
pub struct GridServer {
    listener: TcpListener,
    participants: usize,
}

impl GridServer {
    /// Binds the listen address. `participants` is the number of
    /// participant *processes* the roster waits for — independent of
    /// the campaign's fleet size, since the broker round-robins any
    /// number of slots across however many processes joined (the
    /// paper's "the GRB hides the participants": digests never depend
    /// on which process hosts which slot).
    ///
    /// # Errors
    ///
    /// An unbindable address, or a zero participant count.
    pub fn bind(listen: &str, participants: usize) -> Result<Self, String> {
        if participants == 0 {
            return Err("a grid needs at least one participant process".into());
        }
        let listener =
            TcpListener::bind(listen).map_err(|e| format!("cannot listen on {listen}: {e}"))?;
        Ok(GridServer {
            listener,
            participants,
        })
    }

    /// The bound address (the OS-assigned one when binding port 0).
    ///
    /// # Errors
    ///
    /// The socket is gone.
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("listener address unavailable: {e}"))
    }

    /// Assembles the grid and relays the campaign to completion:
    /// accepts until the roster (N participants + 1 supervisor) is
    /// complete, welcomes everyone — participants receive the
    /// supervisor's campaign params, so the grid assembling is also the
    /// campaign reaching every process — then pumps the broker until
    /// the supervisor hangs up and all queued traffic is drained.
    /// Late connections during the campaign are handshaken and added as
    /// fresh round-robin targets (reconnect-with-NACK). The listener has
    /// a thread of its own for as long as the server runs, so a dialer
    /// that never finishes its hello delays other dialers, not the
    /// campaign; that thread, the listener and every link the server
    /// made are gone before this returns.
    ///
    /// # Errors
    ///
    /// Accept/handshake failures during roster assembly (the pump phase
    /// instead drops misbehaving connections, as a relay must).
    pub fn run(self) -> Result<ServeOutcome, String> {
        let GridServer {
            listener,
            participants,
        } = self;
        // One bell for everything the relay thread waits on: dial-ins
        // from the acceptor thread now, the links' mail once they exist.
        let bell = Arc::new(Doorbell::new());
        let (dial_tx, dials) = mpsc::channel();
        let acceptor = Acceptor::spawn(listener, Arc::clone(&bell), dial_tx);
        let outcome = serve(&bell, &dials, participants);
        acceptor.stop();
        outcome
    }
}

/// [`GridServer::run`] between starting the acceptor and stopping it.
fn serve(
    bell: &Doorbell,
    dials: &mpsc::Receiver<Dial>,
    participants: usize,
) -> Result<ServeOutcome, String> {
    // Roster phase: until one supervisor and `participants` participant
    // processes have said hello, dial-ins are all that can ring.
    let mut part_streams: Vec<TcpStream> = Vec::new();
    let mut supervisor: Option<(TcpStream, Vec<u8>)> = None;
    while part_streams.len() < participants || supervisor.is_none() {
        let _ = bell.wait();
        let Ok(dial) = dials.try_recv() else {
            continue;
        };
        let (stream, hello) = dial.map_err(|e| format!("accept failed: {e}"))?;
        if hello.role == ROLE_PARTICIPANT {
            // A surplus participant is dropped; it may redial and join
            // late, once the campaign runs.
            if part_streams.len() < participants {
                part_streams.push(stream);
            }
        } else if hello.role == ROLE_SUPERVISOR && supervisor.is_none() {
            supervisor = Some((stream, hello.params));
        }
        // A second supervisor or an unknown role: dropped, keep
        // assembling.
    }
    let (mut sup_stream, sup_params) =
        supervisor.expect("roster loop exits only with a supervisor");
    let peer_count = u32::try_from(participants)
        .map_err(|_| "participant count exceeds the wire's u32".to_string())?;
    let welcome_participant = |index: usize| Welcome {
        peer_index: u32::try_from(index).unwrap_or(u32::MAX),
        peer_count,
        params: sup_params.clone(),
    };

    // Welcome phase: participants first (each learns the campaign
    // params), supervisor last — its welcome doubles as "the grid is
    // assembled, start assigning".
    let mut part_links: Vec<TcpLink> = Vec::new();
    let mut part_controls: Vec<ControlHandle> = Vec::new();
    for (i, mut stream) in part_streams.into_iter().enumerate() {
        send_welcome(&mut stream, &welcome_participant(i))
            .map_err(|e| format!("participant {i} welcome failed: {e}"))?;
        let link = TcpLink::from_stream(stream);
        part_controls.push(link.control_handle());
        part_links.push(link);
    }
    send_welcome(
        &mut sup_stream,
        &Welcome {
            peer_index: 0,
            peer_count,
            params: Vec::new(),
        },
    )
    .map_err(|e| format!("supervisor welcome failed: {e}"))?;
    let sup_link = TcpLink::from_stream(sup_stream);
    let sup_control = sup_link.control_handle();

    // Pump phase: the broker's own pump (see `Broker::pump` for the exit
    // protocol), which sleeps on the bell and serves the link that rang.
    // This hook adds the two things only a cross-process relay has. A
    // participant's ring may have announced a control frame: its slot
    // reports ride the uncharged control plane up to the supervisor,
    // exactly like the in-process ledger clones ride outside the message
    // flow. And `DIAL_KEY` announces a late joiner or a reconnect, which
    // becomes a fresh round-robin target. The pump returning drops every
    // participant link, which is what tells the join processes the
    // campaign is over.
    let relay = Broker::new(sup_link, part_links).pump(bell, |key| {
        if let Some(control) = part_controls.get(key) {
            if let Ok(Some(report)) = control.try_recv() {
                let _ = sup_control.send(report);
            }
            return None;
        }
        if key != DIAL_KEY {
            return None;
        }
        // Accept errors mid-campaign are not the relay's problem, and a
        // mid-campaign supervisor dial is dropped: the campaign has one.
        let (mut stream, hello) = dials.try_recv().ok()?.ok()?;
        if hello.role != ROLE_PARTICIPANT {
            return None;
        }
        send_welcome(&mut stream, &welcome_participant(part_controls.len())).ok()?;
        let link = TcpLink::from_stream(stream);
        part_controls.push(link.control_handle());
        Some(link)
    });
    Ok(ServeOutcome {
        relay,
        joined: part_controls.len(),
    })
}

/// The `ugc participant join` process body: dials the broker, expands
/// the campaign from the handshake, and serves every slot the broker
/// hands this process until the campaign ends (the broker dropping the
/// link) — [`serve_remote_slots`], building each slot from the plan.
///
/// # Errors
///
/// Connection/handshake failure, a params blob this build cannot read,
/// a task id outside the campaign, or a transport error other than the
/// end-of-campaign disconnect.
pub fn join(addr: &str) -> Result<JoinOutcome, String> {
    let stream = connect(addr)?;
    let (mut link, welcome) =
        handshake_participant(stream).map_err(|e| format!("handshake with {addr} failed: {e}"))?;
    let plan = CampaignPlan::new(FleetParams::decode(&welcome.params)?)?;
    let slots_served = serve_remote_slots(&mut link, &|slot, ledger| {
        plan.participant_session(slot, ledger)
    })
    .map_err(|e| e.to_string())?;
    Ok(JoinOutcome {
        peer_index: welcome.peer_index,
        slots_served,
    })
}

/// The supervisor's end of a cross-process campaign, and the one way to
/// dial one in: connects to the relay at `addr`, hands it the campaign
/// (`plan.params().encode()`) in the handshake, tells `connected` how
/// the grid answered, and runs the plan over a [`RemoteGridBackend`].
/// `ugc fleet --connect` and [`run_remote_campaign`] both call it.
///
/// # Errors
///
/// Chaos params, refused before dialing; connection or handshake
/// failure; or the campaign's own error.
pub fn supervise(
    addr: &str,
    plan: &CampaignPlan,
    connected: impl FnOnce(&Welcome),
) -> Result<FleetSummary, String> {
    refuse_chaos(plan.params())?;
    let stream = connect(addr)?;
    let (link, welcome) = handshake_supervisor(stream, &plan.params().encode())
        .map_err(|e| format!("handshake with {addr}: {e}"))?;
    connected(&welcome);
    let members = plan.members();
    let config = MixedFleetConfig {
        transport: TransportKind::Remote,
        ..plan.mixed_config(None, 0, LaneWidth::default())
    };
    run_fleet_on(
        plan.task(),
        plan.screener(),
        plan.domain(),
        &members,
        &config,
        &mut RemoteGridBackend::new(link),
        None,
    )
    .map_err(|e| e.to_string())
}

/// A cross-process campaign cannot inject chaos: fault schedules are
/// keyed by link id, and which process hosts which link is execution
/// layout that digests must not depend on.
fn refuse_chaos(params: &FleetParams) -> Result<(), String> {
    match params.chaos() {
        None => Ok(()),
        Some(_) => Err(
            "a cross-process campaign cannot inject chaos: --chaos/--churn fault \
                        schedules are keyed by in-process link identity (run them with \
                        --transport brokered instead)"
                .into(),
        ),
    }
}

/// Runs a full cross-process-shaped campaign over loopback TCP in one
/// process: a [`GridServer`] on port 0, `joiners` participant threads
/// running [`join`], and the supervisor inline on the calling thread
/// ([`supervise`]) — returning its [`FleetSummary`], whose digest must be
/// bit-identical to the in-process brokered run of the same params. Each
/// joiner thread and the calling thread read and write their own sockets;
/// the only other threads are the server's.
///
/// # Errors
///
/// Any phase failing; chaos params are refused before anything is
/// spawned.
pub fn run_remote_campaign(params: &FleetParams, joiners: usize) -> Result<FleetSummary, String> {
    refuse_chaos(params)?;
    let server = GridServer::bind("127.0.0.1:0", joiners)?;
    let addr = server.local_addr()?.to_string();
    let serve = std::thread::spawn(move || server.run());
    let join_handles: Vec<_> = (0..joiners)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || join(&addr))
        })
        .collect();

    let summary = supervise(&addr, &CampaignPlan::new(params.clone())?, |_| {})?;

    // The supervisor link died with the backend's round; the serve pump
    // observes the hang-up, drains, and drops the participant links,
    // which ends every joiner.
    for (i, handle) in join_handles.into_iter().enumerate() {
        handle
            .join()
            .map_err(|_| format!("joiner {i} panicked"))?
            .map_err(|e| format!("joiner {i}: {e}"))?;
    }
    serve.join().map_err(|_| "server panicked".to_string())??;
    Ok(summary)
}
