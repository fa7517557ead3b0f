//! The cross-process grid: `ugc broker serve`, `ugc participant join`
//! and `ugc fleet --connect`, over the length-framed TCP wire protocol.
//!
//! Three processes cooperate, mirroring the paper's GRACE deployment
//! exactly — the supervisor talks only to the broker, never to
//! participants:
//!
//! * [`GridServer`] (`ugc broker serve`) accepts one supervisor and N
//!   participant connections, completes the versioned handshake, then
//!   relays a [`Broker`] over [`RelaySocket`]s — the same routing rules the
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
//! Threads: the broker has one per socket it relays for — the
//! supervisor's is the one that called [`GridServer::run`] — plus its
//! acceptor, so a grid of two joiners runs four. Each reads its own
//! socket, routes what arrived and writes it straight onto the socket it
//! is for (see [`Broker::relay`]); `std` has no portable readiness wait,
//! so one thread cannot wait on N sockets. A dial-in end has one socket
//! and one thread that consumes it, so its [`DialLink`](ugc_grid::DialLink)
//! is read and written on that thread and starts none: the supervisor's
//! engine, and each joiner's slot loop, write what they queued when they
//! are about to wait.
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
use ugc_grid::{Broker, GridError, Relay, RelaySocket, RelayStats};

/// The first pause after a refused dial; each next one doubles, up to
/// [`CONNECT_PAUSE_CAP`]. `ugc participant join` is routinely started
/// before `ugc broker serve` finishes binding, so the first retries come
/// fast (a fixed schedule, not wall-clock-read based: retry behaviour is
/// execution-only and never enters a digest).
const CONNECT_FIRST_PAUSE: Duration = Duration::from_millis(5);
/// The longest pause between dial attempts.
const CONNECT_PAUSE_CAP: Duration = Duration::from_millis(250);
/// How long [`connect`] keeps retrying a refused dial in all: the pauses
/// add up to at least this.
const CONNECT_PATIENCE: Duration = Duration::from_secs(10);
/// How long the server waits for a connection's [`Hello`] before
/// dropping it (a liveness guard against port scanners and half-open
/// dials wedging the roster phase).
const HELLO_PATIENCE: Duration = Duration::from_secs(10);

/// The pauses [`connect`] takes between refused dials: doubling from
/// [`CONNECT_FIRST_PAUSE`] to [`CONNECT_PAUSE_CAP`], until they add up to
/// [`CONNECT_PATIENCE`].
fn connect_pauses() -> impl Iterator<Item = Duration> {
    std::iter::successors(Some(CONNECT_FIRST_PAUSE), |pause| {
        Some((*pause * 2).min(CONNECT_PAUSE_CAP))
    })
    .scan(Duration::ZERO, |waited, pause| {
        (*waited < CONNECT_PATIENCE).then(|| {
            *waited += pause;
            pause
        })
    })
}

/// Dials `addr`, retrying while the server is still coming up.
///
/// # Errors
///
/// The last I/O error once the retry schedule is exhausted.
pub fn connect(addr: &str) -> Result<TcpStream, String> {
    let mut pauses = connect_pauses();
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => match pauses.next() {
                Some(pause) => std::thread::sleep(pause),
                None => return Err(format!("could not connect to {addr}: {e}")),
            },
        }
    }
}

/// What a completed [`GridServer::run`] relayed.
#[derive(Debug, Clone, Copy)]
pub struct ServeOutcome {
    /// Message counts the broker relayed in each direction.
    pub relay: RelayStats,
    /// Participant processes the relay took in over the server's
    /// lifetime (roster plus late joiners/reconnects).
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

/// How long [`Acceptor::stop`] waits for its own wake-up dial to land.
const WAKE_PATIENCE: Duration = Duration::from_secs(1);
/// How long the acceptor pauses after `accept` fails, so whatever broke
/// it (out of descriptors, say) does not make it spin.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(250);

/// What the acceptor thread has in hand, for [`Acceptor::stop`].
#[derive(Default)]
struct Dialing {
    /// The server is done; the thread exits at its next look.
    stopping: bool,
    /// The connection whose [`Hello`] is being awaited.
    in_flight: Option<TcpStream>,
    /// Participant processes the relay has taken in so far.
    joined: usize,
}

/// The listener's own thread: `accept`, then the connection's [`Hello`]
/// under [`HELLO_PATIENCE`], one dial-in at a time. It assembles the
/// roster, welcomes it and hands the server the relay; from then on it
/// welcomes each late participant and admits it to the relay itself. A
/// dialer that says nothing holds up only the dialers behind it, never
/// the relay.
struct Acceptor {
    dialing: Arc<Mutex<Dialing>>,
    wake_addr: Option<SocketAddr>,
    thread: std::thread::JoinHandle<()>,
}

/// One dial-in that got as far as a valid [`Hello`], or the reason the
/// listener stopped producing them.
type Dial = Result<(TcpStream, Hello), io::Error>;

/// The relay the acceptor hands the server once the roster is welcomed.
type Assembled = Result<Relay<RelaySocket>, String>;

impl Acceptor {
    fn spawn(
        listener: TcpListener,
        participants: usize,
        assembled: mpsc::Sender<Assembled>,
    ) -> Self {
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
            std::thread::spawn(move || {
                let mut dials = || next_dial(&listener, &dialing);
                accept_loop(&mut dials, &dialing, participants, &assembled);
            })
        };
        Acceptor {
            dialing,
            wake_addr,
            thread,
        }
    }

    /// Ends the thread — whether it sits in `accept` or in a silent
    /// dialer's hello — and with it the listener. Returns how many
    /// participant processes joined the relay.
    fn stop(self) -> usize {
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
        self.dialing.lock().expect("acceptor state poisoned").joined
    }
}

/// The next dial-in that says hello; `None` once the server is stopping.
/// A dialer that is not a grid peer, or too slow, is dropped.
fn next_dial(listener: &TcpListener, dialing: &Mutex<Dialing>) -> Option<Dial> {
    loop {
        let accepted = listener.accept();
        let mut stream = {
            let mut state = dialing.lock().expect("acceptor state poisoned");
            if state.stopping {
                return None;
            }
            match accepted {
                Ok((stream, _)) => {
                    state.in_flight = stream.try_clone().ok();
                    stream
                }
                Err(e) => return Some(Err(e)),
            }
        };
        let hello = accept_hello(&mut stream);
        dialing.lock().expect("acceptor state poisoned").in_flight = None;
        if let Ok(hello) = hello {
            return Some(Ok((stream, hello)));
        }
    }
}

/// The acceptor thread's body: the roster, then late participants, until
/// the server stops.
fn accept_loop(
    dials: &mut impl FnMut() -> Option<Dial>,
    dialing: &Mutex<Dialing>,
    participants: usize,
    assembled: &mpsc::Sender<Assembled>,
) {
    let joined = |count: usize| dialing.lock().expect("acceptor state poisoned").joined += count;
    let (relay, params) = match assemble(dials, participants) {
        Ok(assembly) => assembly,
        Err(e) => {
            let _ = assembled.send(Err(e));
            return;
        }
    };
    joined(participants);
    let admission = relay.admission();
    if assembled.send(Ok(relay)).is_err() {
        return;
    }
    while let Some(dial) = dials() {
        let (mut stream, hello) = match dial {
            Ok(dial) => dial,
            // Accept errors mid-campaign are not the relay's problem.
            Err(_) => {
                std::thread::sleep(ACCEPT_ERROR_PAUSE);
                continue;
            }
        };
        // A mid-campaign supervisor dial is dropped: the campaign has one.
        if hello.role == ROLE_PARTICIPANT
            && admission.admit(|index| {
                send_welcome(&mut stream, &params.participant(index)).ok()?;
                Some(RelaySocket::from_stream(stream))
            })
        {
            joined(1);
        }
    }
}

/// What every participant's [`Welcome`] carries.
struct RosterParams {
    peer_count: u32,
    /// The supervisor's campaign blob.
    params: Vec<u8>,
}

impl RosterParams {
    /// Participant `index`'s welcome.
    fn participant(&self, index: usize) -> Welcome {
        Welcome {
            peer_index: u32::try_from(index).unwrap_or(u32::MAX),
            peer_count: self.peer_count,
            params: self.params.clone(),
        }
    }
}

/// Accepts until one supervisor and `participants` participant processes
/// have said hello, welcomes them — participants first, each learning the
/// campaign params, so the grid assembling is also the campaign reaching
/// every process; the supervisor last, its welcome doubling as "the grid
/// is assembled, start assigning" — and makes the relay between them.
fn assemble(
    dials: &mut impl FnMut() -> Option<Dial>,
    participants: usize,
) -> Result<(Relay<RelaySocket>, RosterParams), String> {
    let mut part_streams: Vec<TcpStream> = Vec::new();
    let mut supervisor: Option<(TcpStream, Vec<u8>)> = None;
    while part_streams.len() < participants || supervisor.is_none() {
        let dial = dials().ok_or("the server stopped before the grid assembled")?;
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
    let (mut sup_stream, params) = supervisor.expect("roster loop exits only with a supervisor");
    let roster = RosterParams {
        peer_count: u32::try_from(participants)
            .map_err(|_| "participant count exceeds the wire's u32".to_string())?,
        params,
    };
    let mut part_links = Vec::new();
    for (i, mut stream) in part_streams.into_iter().enumerate() {
        send_welcome(&mut stream, &roster.participant(i))
            .map_err(|e| format!("participant {i} welcome failed: {e}"))?;
        part_links.push(RelaySocket::from_stream(stream));
    }
    send_welcome(
        &mut sup_stream,
        &Welcome {
            peer_index: 0,
            peer_count: roster.peer_count,
            params: Vec::new(),
        },
    )
    .map_err(|e| format!("supervisor welcome failed: {e}"))?;
    let relay = Broker::new(RelaySocket::from_stream(sup_stream), part_links).into_relay();
    Ok((relay, roster))
}

/// Receives a connection's [`Hello`] under [`HELLO_PATIENCE`], leaving
/// the stream in blocking mode afterwards (a [`RelaySocket`]'s thread
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
    /// campaign reaching every process — then relays, on one thread per
    /// socket (the supervisor's is this one), until the supervisor hangs
    /// up; that ends every participant socket, which is what tells the
    /// join processes the campaign is over. Late connections during the
    /// campaign are handshaken and added as fresh round-robin targets
    /// (reconnect-with-NACK). The listener has a thread of its own for as
    /// long as the server runs, so a dialer that never finishes its hello
    /// delays other dialers, not the campaign; that thread, the listener
    /// and every socket and thread the server made are gone before this
    /// returns.
    ///
    /// # Errors
    ///
    /// Accept/handshake failures during roster assembly (the relay phase
    /// instead drops misbehaving connections, as a relay must).
    pub fn run(self) -> Result<ServeOutcome, String> {
        let GridServer {
            listener,
            participants,
        } = self;
        let (assembled_tx, assembled) = mpsc::channel();
        let acceptor = Acceptor::spawn(listener, participants, assembled_tx);
        let relay = assembled
            .recv()
            .unwrap_or_else(|_| Err("the acceptor stopped before the grid assembled".into()))
            .map(Relay::run);
        let joined = acceptor.stop();
        Ok(ServeOutcome {
            relay: relay?,
            joined,
        })
    }
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

    // The supervisor link died with the backend's round; the relay sees
    // the hang-up and shuts every participant socket down, which ends
    // every joiner.
    for (i, handle) in join_handles.into_iter().enumerate() {
        handle
            .join()
            .map_err(|_| format!("joiner {i} panicked"))?
            .map_err(|e| format!("joiner {i}: {e}"))?;
    }
    serve.join().map_err(|_| "server panicked".to_string())??;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refused_dial_is_retried_soon_then_patiently() {
        let pauses: Vec<Duration> = connect_pauses().collect();
        assert!(pauses[0] <= Duration::from_millis(5), "{pauses:?}");
        assert!(
            pauses
                .iter()
                .all(|&pause| pause <= Duration::from_millis(250)),
            "{pauses:?}"
        );
        assert!(
            pauses.iter().sum::<Duration>() >= Duration::from_secs(10),
            "{pauses:?}"
        );
    }
}
