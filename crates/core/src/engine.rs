//! The session engine: one event loop multiplexing many concurrent
//! verification sessions over a grid transport.
//!
//! The engine owns a set of supervisor-side
//! [`SupervisorSession`] state machines
//! and a routing table from task ids to `(session, slot)`: a participant
//! slot's task id is its only address, on every transport. Its event loop
//! is transport-agnostic:
//!
//! ```text
//!            ┌────────────── SessionEngine ──────────────┐
//!            │ session 0 (cbs)    session 1 (ni-cbs)  …  │
//!            │    ▲ │                ▲ │                 │
//!            │    │ ▼      route by task id              │
//!            └────┼─┼───────────────┼─┼─────────────────-┘
//!                 │ ▼               │ ▼
//!        DirectTransport (one endpoint per participant)
//!        — or — a single Endpoint into a Broker that fans out
//! ```
//!
//! What reaches the engine is trusted to be addressed honestly: a
//! [`DirectTransport`] passes up only mail for the tasks its link serves,
//! and a broker relays only what the participant holding the task sent.
//! A [`Message::Gone`] therefore always comes from the relay itself.
//!
//! The same loop therefore drives in-memory fleets (per-participant
//! duplex links), the relayed [`Broker`](ugc_grid::Broker) deployment of
//! Section 4, mixed-scheme campaigns and single stand-alone rounds —
//! [`run_mixed_fleet`](crate::run_mixed_fleet) and
//! [`run_round`](crate::scheme::run_round) are wrappers over this engine,
//! which a [`TransportBackend`](crate::TransportBackend) runs beside the
//! round's participant slots.
//!
//! Per-session traffic is accounted from encoded frame sizes (wire length
//! plus the transport's frame header), which is byte-identical to what a
//! dedicated [`Endpoint`] would have counted — so
//! engine-multiplexed byte counts match a blocking one-link-per-round
//! driver's bit for bit.
//!
//! The engine keeps no books beyond its run: [`SessionEngine::run`]
//! returns one [`SessionResult`] per session, in registration order, and
//! whoever registered the sessions decides what they mean — for a
//! durable campaign, the orchestrator journals them.

use crate::session::{SessionOutcome, SupervisorSession};
use crate::SchemeError;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use ugc_grid::{Doorbell, Endpoint, GridError, GridLink, LinkStats, Message, FRAME_HEADER_BYTES};

/// What the engine's transport delivered on one receive.
#[derive(Debug)]
pub enum EngineEvent {
    /// A protocol message arrived; the `u64` is its charged frame size
    /// (wire bytes + header), so the engine can attribute per-session
    /// traffic without re-encoding.
    Message(Message, u64),
    /// A peer hung up; the listed task ids can never receive again.
    PeerClosed(Vec<u64>),
}

/// A transport the engine can multiplex sessions over.
pub trait EngineTransport {
    /// Sends `msg` towards the peer that holds task `task_id`, returning
    /// the bytes charged (encoded frame plus header).
    ///
    /// # Errors
    ///
    /// Transport failures (e.g. the peer disconnected).
    fn send(&mut self, task_id: u64, msg: &Message) -> Result<u64, GridError>;

    /// Blocks until the next inbound event, or — given an `until` — no
    /// longer than that instant: `Ok(None)` means it passed with nothing
    /// to report. The wait sleeps on something that rings when mail
    /// arrives; it never polls.
    ///
    /// # Errors
    ///
    /// [`GridError::Disconnected`] once *nothing* can ever arrive again.
    fn recv(&mut self, until: Option<Instant>) -> Result<Option<EngineEvent>, GridError>;
}

/// The engine's one clock read, used only for inactivity deadlines.
fn clock() -> Instant {
    // ugc-lint: allow(wall-clock): liveness escape hatch — deadlines only fire when a peer is already silent, never on the replayed happy path
    Instant::now()
}

/// Waits for the next ring on `bell`, giving up once `until` passes.
fn next_ring(bell: &Doorbell, until: Option<Instant>) -> Option<usize> {
    match until {
        None => Some(bell.wait()),
        Some(until) => bell.wait_timeout(until.saturating_duration_since(clock())),
    }
}

/// One shared [`GridLink`] whose far side routes: the in-process
/// [`Broker`](ugc_grid::Broker)'s endpoint, or a
/// [`TcpLink`](ugc_grid::TcpLink) into `ugc broker serve`. The relay
/// routes by task id and NACKs tasks whose participant hung up with
/// [`Message::Gone`], so the task id is ignored on send. The link is
/// subscribed to a bell of its own, and a receive answers each ring with
/// one look at the link, as [`DirectTransport`] does.
pub(crate) struct SharedLink<L> {
    link: L,
    bell: Doorbell,
}

impl<L: GridLink> SharedLink<L> {
    pub(crate) fn new(link: L) -> Self {
        let bell = Doorbell::new();
        link.subscribe(&bell, 0);
        SharedLink { link, bell }
    }
}

impl<L: GridLink> EngineTransport for SharedLink<L> {
    fn send(&mut self, _task_id: u64, msg: &Message) -> Result<u64, GridError> {
        self.link.send_counted(msg)
    }

    fn recv(&mut self, until: Option<Instant>) -> Result<Option<EngineEvent>, GridError> {
        // The link rings once per frame (a `TcpLink` also per control
        // frame) and once more at its end, so every wait ends.
        while next_ring(&self.bell, until).is_some() {
            match self.link.try_recv_counted() {
                Ok((msg, charged)) => return Ok(Some(EngineEvent::Message(msg, charged))),
                Err(GridError::Empty) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }
}

/// Direct in-memory transport: one [`Endpoint`] per participant, all
/// subscribed to one [`Doorbell`]. Receiving pops the bell and answers
/// the link that rang, so mail is served in arrival order (no chatty
/// participant can starve another) at a cost that does not grow with the
/// number of silent links.
///
/// A link speaks only for the tasks it was registered with: a message
/// for any other task, and any [`Message::Gone`] (a relay's NACK, which
/// no participant may send), is dropped unseen and uncharged.
#[derive(Debug, Default)]
pub struct DirectTransport {
    endpoints: Vec<Endpoint>,
    ids: Vec<Vec<u64>>,
    routes: HashMap<u64, usize>,
    open: Vec<bool>,
    open_count: usize,
    bell: Doorbell,
}

impl DirectTransport {
    /// An empty transport; add endpoints with
    /// [`add_endpoint`](Self::add_endpoint).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a participant endpoint serving the given task ids.
    pub fn add_endpoint(&mut self, endpoint: Endpoint, ids: impl IntoIterator<Item = u64>) {
        let idx = self.endpoints.len();
        let ids: Vec<u64> = ids.into_iter().collect();
        for &id in &ids {
            self.routes.insert(id, idx);
        }
        endpoint.subscribe(&self.bell, idx);
        self.ids.push(ids);
        self.endpoints.push(endpoint);
        self.open.push(true);
        self.open_count += 1;
    }

    /// Answers one ring from endpoint `idx` with one receive. `Ok(None)`
    /// when the ring announced a frame an earlier ring already served, a
    /// link already reported closed, or a message the link may not send.
    fn answer(&mut self, idx: usize) -> Result<Option<EngineEvent>, GridError> {
        if !self.open[idx] {
            return Ok(None);
        }
        match self.endpoints[idx].try_recv_counted() {
            Ok((msg, charged))
                if !matches!(msg, Message::Gone { .. })
                    && self.ids[idx].contains(&msg.task_id()) =>
            {
                Ok(Some(EngineEvent::Message(msg, charged)))
            }
            Ok(_) | Err(GridError::Empty) => Ok(None),
            Err(GridError::Disconnected) => {
                self.open[idx] = false;
                self.open_count -= 1;
                Ok(Some(EngineEvent::PeerClosed(self.ids[idx].clone())))
            }
            Err(e) => Err(e),
        }
    }
}

impl EngineTransport for DirectTransport {
    fn send(&mut self, task_id: u64, msg: &Message) -> Result<u64, GridError> {
        let idx = *self.routes.get(&task_id).ok_or(GridError::Empty)?;
        match self.endpoints[idx].send_counted(msg) {
            Ok(charged) => Ok(charged),
            // A dead participant loses the message downstream — exactly
            // what the brokered transport does (the supervisor's send to
            // the broker succeeds; the relay fails silently). Charging
            // the nominal frame keeps byte accounting identical whether
            // the peer died a microsecond before or after this send —
            // the session's fate is decided by the PeerClosed event, not
            // by this race.
            Err(GridError::Disconnected) => Ok(msg.wire_len() + FRAME_HEADER_BYTES),
            Err(e) => Err(e),
        }
    }

    fn recv(&mut self, until: Option<Instant>) -> Result<Option<EngineEvent>, GridError> {
        // Every open link still owes at least its hang-up ring, so the
        // wait ends; with none open nothing can ever arrive again.
        while self.open_count > 0 {
            let Some(idx) = next_ring(&self.bell, until) else {
                return Ok(None);
            };
            if let Some(event) = self.answer(idx)? {
                return Ok(Some(event));
            }
        }
        Err(GridError::Disconnected)
    }
}

enum SessionState {
    Active,
    Done(SessionOutcome),
    Failed(SchemeError),
}

struct EngineSlot<'a> {
    session: Box<dyn SupervisorSession + 'a>,
    /// Task id per participant slot.
    task_ids: Vec<u64>,
    link: LinkStats,
    state: SessionState,
}

/// Per-session result of an engine run.
#[derive(Debug)]
pub struct SessionResult {
    /// The verdict and reports, or the protocol error that killed this
    /// session (other sessions keep running).
    pub outcome: Result<SessionOutcome, SchemeError>,
    /// Supervisor-side traffic attributed to this session, byte-identical
    /// to what a dedicated endpoint would have counted.
    pub link: LinkStats,
}

/// An event loop multiplexing many supervisor sessions over one transport.
///
/// Sessions are registered with [`add_session`](Self::add_session) and run
/// to completion by [`run`](Self::run). Routing uses each slot's task id,
/// which must be unique across the engine's sessions.
pub struct SessionEngine<'a> {
    slots: Vec<EngineSlot<'a>>,
    /// How many slots are still [`SessionState::Active`].
    active: usize,
    routes: HashMap<u64, (usize, usize)>,
    deadline: Option<Duration>,
}

impl Default for SessionEngine<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> SessionEngine<'a> {
    /// An engine with no sessions and no deadline.
    #[must_use]
    pub fn new() -> Self {
        SessionEngine {
            slots: Vec::new(),
            active: 0,
            routes: HashMap::new(),
            deadline: None,
        }
    }

    /// Fails any session that sees no inbound activity for `deadline` with
    /// [`SchemeError::TimedOut`] instead of waiting forever — the survival
    /// guarantee that lets the engine run under chaos (dropped messages,
    /// stalled participants) without hanging. The clock is per session and
    /// resets on every message that session receives — but a computing
    /// participant is silent, so size the deadline to bound the longest
    /// legitimate compute-then-reply gap (share evaluation plus tree
    /// build), not just network latency. The engine still sleeps on the
    /// transport between messages, just never past the earliest pending
    /// expiry; only a wait that reaches it looks at the clocks.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Registers a session whose participant slots answer to `task_ids`.
    ///
    /// # Errors
    ///
    /// [`SchemeError::InvalidConfig`] if a task id repeats, within the
    /// list or against an already-registered session.
    pub fn add_session(
        &mut self,
        session: Box<dyn SupervisorSession + 'a>,
        task_ids: Vec<u64>,
    ) -> Result<(), SchemeError> {
        let index = self.slots.len();
        // Validate before mutating: a rejected registration must leave the
        // routing table exactly as it was.
        for (slot, id) in task_ids.iter().enumerate() {
            if self.routes.contains_key(id) || task_ids[..slot].contains(id) {
                return Err(SchemeError::InvalidConfig {
                    reason: "task id already registered with the engine",
                });
            }
        }
        for (slot, &id) in task_ids.iter().enumerate() {
            self.routes.insert(id, (index, slot));
        }
        self.slots.push(EngineSlot {
            session,
            task_ids,
            link: LinkStats::default(),
            state: SessionState::Active,
        });
        self.active += 1;
        Ok(())
    }

    /// Books the result of one step of an active slot's session: a
    /// session that has produced its outcome is done, one that raised an
    /// error has failed, anything else stays active. The only place a
    /// slot leaves [`SessionState::Active`], so the live count stays in
    /// step.
    fn settle(slot: &mut EngineSlot<'a>, active: &mut usize, step: Result<(), SchemeError>) {
        slot.state = match step {
            Ok(()) => match slot.session.take_outcome() {
                Some(outcome) => SessionState::Done(outcome),
                None => return,
            },
            Err(e) => SessionState::Failed(e),
        };
        *active -= 1;
    }

    /// Handles peer-closure notices for the given task ids: each
    /// still-active session is asked (via
    /// [`SupervisorSession::on_peer_gone`]) whether it can finish
    /// without that peer. A session that cannot is failed with
    /// [`GridError::Disconnected`]; one that can (a multi-peer session
    /// whose dead slot already delivered) keeps running — the decision
    /// is the session's, never the race between the death notice and
    /// another slot's mail.
    fn fail_routes(&mut self, ids: &[u64]) {
        for id in ids {
            if let Some(&(index, peer)) = self.routes.get(id) {
                let slot = &mut self.slots[index];
                if matches!(slot.state, SessionState::Active) {
                    let step = slot.session.on_peer_gone(peer);
                    Self::settle(slot, &mut self.active, step);
                }
            }
        }
    }

    /// Fails every active session whose peer has been silent for the
    /// whole deadline with [`SchemeError::TimedOut`], returning the
    /// earliest expiry still pending — the next wait's `until`. Expiries
    /// only move later between scans, so that instant never comes after
    /// the true earliest one and a message costs no scan.
    fn expire(&mut self, last_activity: &[Instant]) -> Option<Instant> {
        let deadline = self.deadline?;
        let now = clock();
        for (slot, &last) in self.slots.iter_mut().zip(last_activity) {
            if matches!(slot.state, SessionState::Active) && last + deadline <= now {
                Self::settle(slot, &mut self.active, Err(SchemeError::TimedOut));
            }
        }
        self.slots
            .iter()
            .zip(last_activity)
            .filter(|(slot, _)| matches!(slot.state, SessionState::Active))
            .map(|(_, &last)| last + deadline)
            .min()
    }

    /// Sends one session's outbound batch, charging its link stats.
    fn send_outbound<T: EngineTransport>(
        transport: &mut T,
        slot: &mut EngineSlot<'a>,
        outs: Vec<(usize, Message)>,
    ) -> Result<(), SchemeError> {
        for (peer, msg) in outs {
            let task_id = *slot.task_ids.get(peer).ok_or(SchemeError::InvalidConfig {
                reason: "session addressed a slot it does not own",
            })?;
            slot.link.bytes_sent += transport.send(task_id, &msg)?;
            slot.link.messages_sent += 1;
        }
        Ok(())
    }

    /// Runs every registered session to completion over `transport`,
    /// returning per-session outcomes in registration order.
    ///
    /// A session that raises a protocol error is marked failed and the
    /// rest keep running; a transport-wide failure fails every session
    /// still active.
    ///
    /// # Errors
    ///
    /// Never fails as a whole — errors are reported per session — except
    /// when a session panics the underlying invariants (not expected).
    pub fn run<T: EngineTransport>(mut self, transport: &mut T) -> Vec<SessionResult> {
        // Open every session: emit its starting messages.
        for index in 0..self.slots.len() {
            let slot = &mut self.slots[index];
            let step = slot
                .session
                .start()
                .and_then(|outs| Self::send_outbound(transport, slot, outs));
            // A fire-and-forget session may already be complete.
            Self::settle(slot, &mut self.active, step);
        }

        let started = clock();
        let mut last_activity = vec![started; self.slots.len()];
        let mut until = self.deadline.map(|deadline| started + deadline);
        while self.active > 0 {
            let event = match transport.recv(until) {
                Ok(Some(event)) => event,
                // The wait reached the earliest pending expiry: fail the
                // sessions that are really out of time (the `while`
                // condition ends the loop if none remain).
                Ok(None) => {
                    until = self.expire(&last_activity);
                    continue;
                }
                Err(e) => {
                    // Nothing can arrive any more: every session still
                    // waiting is dead.
                    for slot in &mut self.slots {
                        if matches!(slot.state, SessionState::Active) {
                            Self::settle(slot, &mut self.active, Err(SchemeError::Grid(e.clone())));
                        }
                    }
                    break;
                }
            };
            let (msg, charged) = match event {
                // A broker NACK is a peer-closure notice, not session mail.
                EngineEvent::Message(Message::Gone { task_id }, _) => {
                    self.fail_routes(&[task_id]);
                    continue;
                }
                EngineEvent::Message(msg, charged) => (msg, charged),
                EngineEvent::PeerClosed(ids) => {
                    self.fail_routes(&ids);
                    continue;
                }
            };
            let Some(&(index, peer)) = self.routes.get(&msg.task_id()) else {
                // Mail for a session this engine never registered: drop it,
                // as a broker would drop mail for an unknown host.
                continue;
            };
            let slot = &mut self.slots[index];
            if !matches!(slot.state, SessionState::Active) {
                continue; // late mail for a finished/failed session
            }
            if slot.session.is_stale(peer, &msg) {
                // A redundant redelivery (e.g. a fault-injected duplicate
                // of an upload already in hand): dropped uncharged, so
                // the session's byte accounting cannot depend on whether
                // the copy raced the session's completion.
                continue;
            }
            last_activity[index] = clock();
            slot.link.bytes_received += charged;
            slot.link.messages_received += 1;
            let step = slot
                .session
                .on_message(peer, msg)
                .and_then(|outs| Self::send_outbound(transport, slot, outs));
            Self::settle(slot, &mut self.active, step);
        }

        self.slots
            .into_iter()
            .map(|slot| SessionResult {
                outcome: match slot.state {
                    SessionState::Done(outcome) => Ok(outcome),
                    SessionState::Failed(e) => Err(e),
                    SessionState::Active => Err(SchemeError::Grid(GridError::Disconnected)),
                },
                link: slot.link,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::cbs::CbsScheme;
    use crate::session::{
        drive_participant, ParticipantContext, SupervisorContext, VerificationScheme,
    };
    use crate::{ParticipantStorage, Verdict};
    use ugc_grid::{duplex, CostLedger, HonestWorker};
    use ugc_hash::Sha256;
    use ugc_merkle::{LaneWidth, Parallelism};
    use ugc_task::workloads::PasswordSearch;
    use ugc_task::Domain;

    #[test]
    fn two_sessions_multiplex_over_direct_links() {
        let task = PasswordSearch::with_hidden_password(2, 5);
        let screener = task.match_screener();
        let scheme = CbsScheme {
            samples: 8,
            seed: 3,
            report_audit: 0,
        };
        let mut engine = SessionEngine::new();
        let mut transport = DirectTransport::new();
        let mut part_eps = Vec::new();
        for task_id in 0..2u64 {
            let (sup_ep, part_ep) = duplex();
            engine
                .add_session(
                    VerificationScheme::<Sha256>::supervisor_session(
                        &scheme,
                        SupervisorContext {
                            task: &task,
                            screener: &screener,
                            domain: Domain::new(task_id * 32, 32),
                            task_ids: vec![task_id],
                            ledger: CostLedger::new(),
                        },
                    ),
                    vec![task_id],
                )
                .unwrap();
            transport.add_endpoint(sup_ep, [task_id]);
            part_eps.push(part_ep);
        }
        let results = std::thread::scope(|scope| {
            let (task, screener, scheme) = (&task, &screener, &scheme);
            for part_ep in &part_eps {
                scope.spawn(move || {
                    let mut session = VerificationScheme::<Sha256>::participant_session(
                        scheme,
                        ParticipantContext {
                            task,
                            screener,
                            behaviour: &HonestWorker,
                            storage: ParticipantStorage::Full,
                            parallelism: Parallelism::serial(),
                            lanes: LaneWidth::default(),
                            ledger: CostLedger::new(),
                        },
                    );
                    drive_participant(part_ep, session.as_mut()).unwrap()
                });
            }
            engine.run(&mut transport)
        });
        assert_eq!(results.len(), 2);
        for result in &results {
            let outcome = result.outcome.as_ref().unwrap();
            assert_eq!(outcome.verdict, Verdict::Accepted);
            assert!(result.link.bytes_received > 0);
        }
    }

    #[test]
    fn direct_transport_answers_links_in_arrival_order() {
        fn verdict(task_id: u64) -> Message {
            Message::Verdict {
                task_id,
                accepted: true,
            }
        }
        fn task_of(event: Option<EngineEvent>) -> u64 {
            match event.expect("no deadline: the wait ends with an event") {
                EngineEvent::Message(msg, _) => msg.task_id(),
                EngineEvent::PeerClosed(ids) => panic!("unexpected closure of {ids:?}"),
            }
        }
        // A wait that is already out of time: what is there, or nothing.
        let nothing_now = |t: &mut DirectTransport| t.recv(Some(clock())).unwrap().is_none();
        let mut transport = DirectTransport::new();
        assert_eq!(transport.recv(None).unwrap_err(), GridError::Disconnected);
        // A thousand links, one of which has mail queued before the
        // transport has even seen it.
        let mut peers: Vec<Option<Endpoint>> = Vec::new();
        for id in 0..1000u64 {
            let (sup_side, part_side) = duplex();
            if id == 5 {
                part_side.send(&verdict(id)).unwrap();
            }
            transport.add_endpoint(sup_side, [id]);
            peers.push(Some(part_side));
        }
        assert_eq!(task_of(transport.recv(None).unwrap()), 5);
        assert!(nothing_now(&mut transport));
        // Mail is served in the order it arrived, not in link order.
        let arrivals = [900usize, 3, 512, 3, 0];
        for &link in &arrivals {
            peers[link]
                .as_ref()
                .unwrap()
                .send(&verdict(link as u64))
                .unwrap();
        }
        for &link in &arrivals {
            assert_eq!(task_of(transport.recv(None).unwrap()), link as u64);
        }
        assert!(nothing_now(&mut transport));
        // A hang-up is reported after the mail queued ahead of it, once.
        let dying = peers[42].take().unwrap();
        dying.send(&verdict(42)).unwrap();
        drop(dying);
        assert_eq!(task_of(transport.recv(None).unwrap()), 42);
        assert!(matches!(
            transport.recv(None).unwrap(),
            Some(EngineEvent::PeerClosed(ids)) if ids == [42]
        ));
        assert!(nothing_now(&mut transport));
        // Everyone else hangs up: one closure each, then nothing can ever
        // arrive again.
        peers.clear();
        let mut closed = Vec::new();
        loop {
            match transport.recv(None) {
                Ok(Some(EngineEvent::PeerClosed(ids))) => closed.extend(ids),
                Ok(Some(EngineEvent::Message(msg, _))) => panic!("unexpected mail: {msg:?}"),
                Ok(None) => panic!("a wait with no deadline ended without an event"),
                Err(e) => {
                    assert_eq!(e, GridError::Disconnected);
                    break;
                }
            }
        }
        closed.sort_unstable();
        let expected: Vec<u64> = (0..1000).filter(|&id| id != 42).collect();
        assert_eq!(closed, expected);
    }

    #[test]
    fn brokered_dead_participant_fails_only_its_session() {
        // Participant 0 reads its assignment and silently dies; the broker
        // NACKs its task with Message::Gone, the engine fails that session
        // with Disconnected, and session 1 still completes normally.
        use ugc_grid::{Broker, GridError, Message};
        let task = PasswordSearch::with_hidden_password(2, 5);
        let screener = task.match_screener();
        let scheme = CbsScheme {
            samples: 6,
            seed: 1,
            report_audit: 0,
        };
        let mut engine = SessionEngine::new();
        for task_id in 0..2u64 {
            let session = VerificationScheme::<Sha256>::supervisor_session(
                &scheme,
                SupervisorContext {
                    task: &task,
                    screener: &screener,
                    domain: Domain::new(task_id * 32, 32),
                    task_ids: vec![task_id],
                    ledger: CostLedger::new(),
                },
            );
            engine.add_session(session, vec![task_id]).unwrap();
        }
        let (dying_broker_side, dying_part) = duplex();
        let (healthy_broker_side, healthy_part) = duplex();
        let (sup_endpoint, broker_up) = duplex();
        let mut sup_transport = SharedLink::new(sup_endpoint);
        let broker = Broker::new(broker_up, vec![dying_broker_side, healthy_broker_side]);

        let results = std::thread::scope(|scope| {
            scope.spawn(move || broker.pump_until_closed());
            scope.spawn(move || {
                let Message::Assign(_) = dying_part.recv().unwrap() else {
                    panic!("expected assignment");
                };
                // …and dies without replying (endpoint dropped here).
            });
            let (task, screener, scheme) = (&task, &screener, &scheme);
            scope.spawn(move || {
                let mut session = VerificationScheme::<Sha256>::participant_session(
                    scheme,
                    ParticipantContext {
                        task,
                        screener,
                        behaviour: &HonestWorker,
                        storage: ParticipantStorage::Full,
                        parallelism: Parallelism::serial(),
                        lanes: LaneWidth::default(),
                        ledger: CostLedger::new(),
                    },
                );
                drive_participant(&healthy_part, session.as_mut()).unwrap();
            });
            let results = engine.run(&mut sup_transport);
            drop(sup_transport);
            results
        });
        assert!(matches!(
            results[0].outcome,
            Err(crate::SchemeError::Grid(GridError::Disconnected))
        ));
        let healthy = results[1].outcome.as_ref().unwrap();
        assert_eq!(healthy.verdict, Verdict::Accepted);
    }

    #[test]
    fn duplicate_task_ids_need_envelopes() {
        // A task id is a participant slot's only address: registering one
        // twice is refused, and the refusal leaves the engine usable.
        let task = PasswordSearch::with_hidden_password(2, 5);
        let screener = task.match_screener();
        let scheme = CbsScheme {
            samples: 4,
            seed: 3,
            report_audit: 0,
        };
        let make_session = || {
            VerificationScheme::<Sha256>::supervisor_session(
                &scheme,
                SupervisorContext {
                    task: &task,
                    screener: &screener,
                    domain: Domain::new(0, 16),
                    task_ids: vec![1],
                    ledger: CostLedger::new(),
                },
            )
        };
        let mut plain = SessionEngine::new();
        plain.add_session(make_session(), vec![1]).unwrap();
        assert!(matches!(
            plain.add_session(make_session(), vec![1]),
            Err(SchemeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            plain.add_session(make_session(), vec![2, 2]),
            Err(SchemeError::InvalidConfig { .. })
        ));

        // A rejected registration must leave the engine fully usable: the
        // surviving session still routes (pre-fix this panicked — the
        // collision had overwritten session 0's route with a dangling
        // slot index before erroring).
        let mut transport = DirectTransport::new();
        let (sup_ep, part_ep) = duplex();
        transport.add_endpoint(sup_ep, [1]);
        let results = std::thread::scope(|scope| {
            let (task, screener, scheme) = (&task, &screener, &scheme);
            scope.spawn(move || {
                let mut session = VerificationScheme::<Sha256>::participant_session(
                    scheme,
                    ParticipantContext {
                        task,
                        screener,
                        behaviour: &HonestWorker,
                        storage: ParticipantStorage::Full,
                        parallelism: Parallelism::serial(),
                        lanes: LaneWidth::default(),
                        ledger: CostLedger::new(),
                    },
                );
                drive_participant(&part_ep, session.as_mut()).unwrap();
            });
            plain.run(&mut transport)
        });
        assert!(results[0].outcome.as_ref().unwrap().verdict.is_accepted());
    }

    #[test]
    fn session_completing_at_start_does_not_block_the_engine() {
        // A fire-and-forget supervisor session (complete after start, no
        // inbound traffic expected) must be collected immediately instead
        // of leaving the engine waiting for a reply that never comes.
        struct FireAndForget {
            outcome: Option<SessionOutcome>,
        }
        impl crate::session::SupervisorSession for FireAndForget {
            fn start(&mut self) -> Result<Vec<crate::session::Outbound>, SchemeError> {
                Ok(Vec::new())
            }
            fn on_message(
                &mut self,
                _slot: usize,
                _msg: Message,
            ) -> Result<Vec<crate::session::Outbound>, SchemeError> {
                unreachable!("never fed");
            }
            fn take_outcome(&mut self) -> Option<SessionOutcome> {
                self.outcome.take()
            }
        }
        let mut engine = SessionEngine::new();
        engine
            .add_session(
                Box::new(FireAndForget {
                    outcome: Some(SessionOutcome {
                        verdict: Verdict::Accepted,
                        reports: Vec::new(),
                    }),
                }),
                vec![9],
            )
            .unwrap();
        let mut transport = DirectTransport::new();
        let (sup_ep, _part_ep) = duplex(); // stays open: recv would block
        transport.add_endpoint(sup_ep, [9]);
        let results = engine.run(&mut transport);
        assert!(results[0].outcome.as_ref().unwrap().verdict.is_accepted());
    }
}
