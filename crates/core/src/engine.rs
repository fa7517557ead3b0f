//! The session engine: one event loop multiplexing many concurrent
//! verification sessions over a grid transport.
//!
//! The engine owns a set of supervisor-side
//! [`SupervisorSession`] state machines and numbers their participant
//! slots: global slot `k` of a round is task `k`, dealt densely in
//! registration order, and a slot's task id is its only address, on every
//! transport. Its event loop is transport-agnostic:
//!
//! ```text
//!            ┌────────────── SessionEngine ──────────────┐
//!            │ session 0 (cbs)    session 1 (ni-cbs)  …  │
//!            │    ▲ │                ▲ │                 │
//!            │    │ ▼      route by task id              │
//!            └────┼─┼───────────────┼─┼─────────────────-┘
//!                 │ ▼               │ ▼
//!        one fan-in: every slot's mail in one inbox, slot k holding
//!        task k — or — one TcpLink into `ugc broker serve`
//! ```
//!
//! What reaches the engine is trusted to be addressed honestly: in
//! process, slot `k` is heard only for task `k`; between processes, the
//! [`Broker`](ugc_grid::Broker) relays only what the participant holding
//! the task sent. A [`Message::Gone`] therefore always comes from the
//! transport itself, and it is the only way a dead participant reaches the
//! engine: each task whose verdict had not gone down is NACKed once.
//!
//! The same loop therefore drives in-memory fleets, the brokered
//! deployment of Section 4 (through a [`Broker`](ugc_grid::Broker) relay
//! between processes), mixed-scheme campaigns
//! and single stand-alone rounds — [`run_mixed_fleet`](crate::run_mixed_fleet)
//! and [`run_round`](crate::scheme::run_round) are wrappers over this engine,
//! which a [`TransportBackend`](crate::TransportBackend) runs beside the
//! round's participant slots.
//!
//! Per-session traffic is counted by the engine itself: every message a
//! session sends or receives is charged [`Message::charged`], the one
//! rule every transport's frames obey — so engine-multiplexed byte counts
//! match a blocking one-link-per-round driver's bit for bit, and no
//! transport keeps books of its own.
//!
//! The engine keeps no books beyond its run: [`SessionEngine::run`]
//! returns one [`SessionResult`] per session, in registration order, and
//! whoever registered the sessions decides what they mean — for a
//! durable campaign, the orchestrator journals them.

use crate::session::{SessionOutcome, SupervisorSession};
use crate::SchemeError;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use ugc_grid::{fan_in, Doorbell, Endpoint, FanIn, GridError, GridLink, LinkStats, Message};

/// A transport the engine can multiplex sessions over.
pub trait EngineTransport {
    /// Sends `msg` towards the peer that holds its task, taking it by
    /// value: an in-process transport hands it on without a copy.
    ///
    /// # Errors
    ///
    /// Transport failures (e.g. the peer disconnected).
    fn send(&mut self, msg: Message) -> Result<(), GridError>;

    /// Blocks until the next inbound message, or — given an `until` — no
    /// longer than that instant: `Ok(None)` means it passed with nothing
    /// to report. A task whose peer is gone arrives as the relay's
    /// [`Message::Gone`]. The wait sleeps on something that wakes it when
    /// mail arrives; it never polls.
    ///
    /// # Errors
    ///
    /// [`GridError::Disconnected`] once *nothing* can ever arrive again.
    fn recv(&mut self, until: Option<Instant>) -> Result<Option<Message>, GridError>;
}

/// The engine's one clock read, used only for inactivity deadlines.
#[expect(
    clippy::disallowed_methods,
    reason = "liveness escape hatch — deadlines only fire when a peer is already silent, never on the replayed happy path"
)]
fn clock() -> Instant {
    Instant::now()
}

/// How long a wait that must end by `until` may last (`None`: no limit).
fn patience(until: Option<Instant>) -> Option<Duration> {
    until.map(|until| until.saturating_duration_since(clock()))
}

/// Waits for the next ring on `bell`, giving up once `until` passes.
fn next_ring(bell: &Doorbell, until: Option<Instant>) -> Option<usize> {
    match patience(until) {
        None => Some(bell.wait()),
        Some(patience) => bell.wait_timeout(patience),
    }
}

/// One shared [`GridLink`] whose far side routes: a
/// [`TcpLink`](ugc_grid::TcpLink) into `ugc broker serve`. The relay
/// routes by task id and NACKs tasks whose participant hung up with
/// [`Message::Gone`], so a send is one frame on the link and the relay's
/// NACK is passed up as mail. The link is subscribed to a bell of its own,
/// and a receive answers each ring with one look at the link.
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
    fn send(&mut self, msg: Message) -> Result<(), GridError> {
        self.link.send(&msg)
    }

    fn recv(&mut self, until: Option<Instant>) -> Result<Option<Message>, GridError> {
        // The link rings once per frame (a `TcpLink` also per control
        // frame) and once more at its end, so every wait ends.
        while next_ring(&self.bell, until).is_some() {
            match self.link.try_recv() {
                Ok(mail) => return Ok(Some(mail)),
                Err(GridError::Empty) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }
}

/// The engine's end of a [`fan_in`](ugc_grid::fan_in) whose slot `k`
/// holds task `k`: a send moves the message onto its task's slot queue, so
/// it crosses one queue and is never copied or encoded, and slot `k` is
/// heard only for task `k`. A receive serves the inbox, which holds every
/// slot's mail in arrival order (no chatty participant can starve
/// another): it drains a whole burst under one lock and sleeps on the
/// inbox only when the burst is spent, at a cost that does not grow with
/// the number of silent slots.
///
/// A slot is owed its verdict until the engine sends it one. A slot that
/// hangs up still owed is passed up as the [`Message::Gone`] of its task,
/// once; one whose verdict has gone down leaves quietly.
pub(crate) struct InProcessTransport {
    fan_in: FanIn,
    /// Per slot: its verdict has not gone down, and it has not hung up.
    owed: Vec<bool>,
    /// Mail drained from the inbox and not yet served; one buffer for
    /// every burst.
    burst: VecDeque<(usize, Option<Message>)>,
    /// Slots that have not hung up yet.
    open: usize,
}

impl InProcessTransport {
    /// A transport over `slots` participant slots, and their endpoints:
    /// endpoint `k` is slot `k`, holding task `k`.
    pub(crate) fn new(slots: usize) -> (Self, Vec<Endpoint>) {
        let (fan_in, endpoints) = fan_in(slots);
        let transport = InProcessTransport {
            fan_in,
            owed: vec![true; slots],
            burst: VecDeque::new(),
            open: slots,
        };
        (transport, endpoints)
    }
}

impl EngineTransport for InProcessTransport {
    /// Queues `msg` on its task's slot. A slot that has hung up drops it:
    /// its hang-up, queued behind its last message, NACKs the task.
    fn send(&mut self, msg: Message) -> Result<(), GridError> {
        let slot =
            usize::try_from(msg.task_id()).expect("the engine sends only for the slots it dealt");
        if matches!(msg, Message::Verdict { .. }) {
            self.owed[slot] = false;
        }
        match self.fan_in.send(slot, msg) {
            Err(GridError::Disconnected) => Ok(()),
            sent => sent,
        }
    }

    /// Serves the burst in arrival order, passing up only slot `k`'s mail
    /// for task `k`, never a `Gone`; a hang-up, which a slot queues after
    /// its last message, is passed up as the [`Message::Gone`] a relay
    /// would send if the slot was still owed its verdict.
    fn recv(&mut self, until: Option<Instant>) -> Result<Option<Message>, GridError> {
        loop {
            let Some((slot, mail)) = self.burst.pop_front() else {
                if self.open == 0 {
                    return Err(GridError::Disconnected);
                }
                if !self.fan_in.drain(&mut self.burst, patience(until)) {
                    return Ok(None);
                }
                continue;
            };
            let task_id = slot as u64;
            match mail {
                Some(msg) if msg.task_id() == task_id && !matches!(msg, Message::Gone { .. }) => {
                    return Ok(Some(msg))
                }
                Some(_) => {}
                None => {
                    self.open -= 1;
                    if std::mem::replace(&mut self.owed[slot], false) {
                        return Ok(Some(Message::Gone { task_id }));
                    }
                }
            }
        }
    }
}

enum SessionState {
    Active,
    Done(SessionOutcome),
    Failed(SchemeError),
}

struct EngineSession<'a> {
    session: Box<dyn SupervisorSession + 'a>,
    /// The task id of the session's first participant slot: its slot
    /// `peer` is task `first + peer`.
    first: u64,
    /// How many participant slots the session has.
    peers: usize,
    link: LinkStats,
    state: SessionState,
}

/// Per-session result of an engine run.
#[derive(Debug, PartialEq, Eq)]
pub struct SessionResult {
    /// The verdict and reports, or the protocol error that killed this
    /// session (other sessions keep running).
    pub outcome: Result<SessionOutcome, SchemeError>,
    /// Supervisor-side traffic attributed to this session, each message
    /// charged [`Message::charged`].
    pub link: LinkStats,
}

/// An event loop multiplexing many supervisor sessions over one transport.
///
/// Sessions are registered with [`add_session`](Self::add_session), which
/// deals their participant slots task ids, and run to completion by
/// [`run`](Self::run). Routing uses each slot's task id.
pub struct SessionEngine<'a> {
    sessions: Vec<EngineSession<'a>>,
    /// How many sessions are still [`SessionState::Active`].
    active: usize,
    /// Task id → (session, slot within it), indexed by task id.
    routes: Vec<(usize, usize)>,
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
            sessions: Vec::new(),
            active: 0,
            routes: Vec::new(),
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

    /// Registers a session of `slots` participant slots, built by `build`
    /// from the task ids the engine deals them: the next `slots` ids,
    /// counting from 0 in registration order, so global slot `k` of the
    /// round is task `k`.
    pub fn add_session(
        &mut self,
        slots: usize,
        build: impl FnOnce(Vec<u64>) -> Box<dyn SupervisorSession + 'a>,
    ) {
        let index = self.sessions.len();
        let first = self.routes.len();
        self.routes.extend((0..slots).map(|peer| (index, peer)));
        let task_ids = (first..self.routes.len()).map(|id| id as u64).collect();
        self.sessions.push(EngineSession {
            session: build(task_ids),
            first: first as u64,
            peers: slots,
            link: LinkStats::default(),
            state: SessionState::Active,
        });
        self.active += 1;
    }

    /// How many participant slots the registered sessions have, together:
    /// the round's task ids are `0..slots()`.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.routes.len()
    }

    /// The session and slot within it that task `task_id` is, if the
    /// engine dealt it.
    fn route(&self, task_id: u64) -> Option<(usize, usize)> {
        let id = usize::try_from(task_id).ok()?;
        self.routes.get(id).copied()
    }

    /// Books the result of one step of an active session: a
    /// session that has produced its outcome is done, one that raised an
    /// error has failed, anything else stays active. The only place a
    /// session leaves [`SessionState::Active`], so the live count stays in
    /// step.
    fn settle(entry: &mut EngineSession<'a>, active: &mut usize, step: Result<(), SchemeError>) {
        entry.state = match step {
            Ok(()) => match entry.session.take_outcome() {
                Some(outcome) => SessionState::Done(outcome),
                None => return,
            },
            Err(e) => SessionState::Failed(e),
        };
        *active -= 1;
    }

    /// Handles the death notice for task `id`: its still-active session is
    /// asked (via [`SupervisorSession::on_peer_gone`]) whether it can
    /// finish without that peer. A session that cannot is failed with
    /// [`GridError::Disconnected`]; one that can (a multi-peer session
    /// whose dead slot already delivered) keeps running — the decision
    /// is the session's, never the race between the death notice and
    /// another slot's mail.
    fn fail_route(&mut self, id: u64) {
        if let Some((index, peer)) = self.route(id) {
            let entry = &mut self.sessions[index];
            if matches!(entry.state, SessionState::Active) {
                let step = entry.session.on_peer_gone(peer);
                Self::settle(entry, &mut self.active, step);
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
        for (entry, &last) in self.sessions.iter_mut().zip(last_activity) {
            if matches!(entry.state, SessionState::Active) && last + deadline <= now {
                Self::settle(entry, &mut self.active, Err(SchemeError::TimedOut));
            }
        }
        self.sessions
            .iter()
            .zip(last_activity)
            .filter(|(entry, _)| matches!(entry.state, SessionState::Active))
            .map(|(_, &last)| last + deadline)
            .min()
    }

    /// Sends one session's outbound batch, charging its link stats: a
    /// message handed to the transport is charged whatever became of it,
    /// as the frame handed to a relay would be. A message for a task that
    /// is not the addressed slot's own — another session's, or one outside
    /// the round — fails the session instead.
    fn send_outbound<T: EngineTransport>(
        transport: &mut T,
        entry: &mut EngineSession<'a>,
        outs: Vec<(usize, Message)>,
    ) -> Result<(), SchemeError> {
        for (peer, msg) in outs {
            if peer >= entry.peers || msg.task_id() != entry.first + peer as u64 {
                return Err(SchemeError::InvalidConfig {
                    reason: "session addressed a task it does not hold".into(),
                });
            }
            let charged = msg.charged();
            transport.send(msg)?;
            entry.link.bytes_sent += charged;
            entry.link.messages_sent += 1;
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
        for entry in &mut self.sessions {
            let step = entry
                .session
                .start()
                .and_then(|outs| Self::send_outbound(transport, entry, outs));
            // A fire-and-forget session may already be complete.
            Self::settle(entry, &mut self.active, step);
        }

        let started = clock();
        let mut last_activity = vec![started; self.sessions.len()];
        let mut until = self.deadline.map(|deadline| started + deadline);
        while self.active > 0 {
            let msg = match transport.recv(until) {
                Ok(Some(mail)) => mail,
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
                    for entry in &mut self.sessions {
                        if matches!(entry.state, SessionState::Active) {
                            Self::settle(
                                entry,
                                &mut self.active,
                                Err(SchemeError::Grid(e.clone())),
                            );
                        }
                    }
                    break;
                }
            };
            // A broker NACK is a peer-closure notice, not session mail.
            if let Message::Gone { task_id } = msg {
                self.fail_route(task_id);
                continue;
            }
            let Some((index, peer)) = self.route(msg.task_id()) else {
                // Mail for a session this engine never registered: drop it,
                // as a broker would drop mail for an unknown host.
                continue;
            };
            let entry = &mut self.sessions[index];
            if !matches!(entry.state, SessionState::Active) {
                continue; // late mail for a finished/failed session
            }
            if entry.session.is_stale(peer, &msg) {
                // A redundant redelivery (e.g. a fault-injected duplicate
                // of an upload already in hand): dropped uncharged, so
                // the session's byte accounting cannot depend on whether
                // the copy raced the session's completion.
                continue;
            }
            last_activity[index] = clock();
            entry.link.bytes_received += msg.charged();
            entry.link.messages_received += 1;
            let step = entry
                .session
                .on_message(peer, msg)
                .and_then(|outs| Self::send_outbound(transport, entry, outs));
            Self::settle(entry, &mut self.active, step);
        }

        self.sessions
            .into_iter()
            .map(|entry| SessionResult {
                outcome: match entry.state {
                    SessionState::Done(outcome) => Ok(outcome),
                    SessionState::Failed(e) => Err(e),
                    SessionState::Active => Err(SchemeError::Grid(GridError::Disconnected)),
                },
                link: entry.link,
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
    use ugc_grid::{CostLedger, HonestWorker};
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
        for start in [0, 32] {
            engine.add_session(1, |task_ids| {
                VerificationScheme::<Sha256>::supervisor_session(
                    &scheme,
                    SupervisorContext {
                        task: &task,
                        screener: &screener,
                        domain: Domain::new(start, 32),
                        task_ids,
                        ledger: CostLedger::new(),
                    },
                )
            });
        }
        let (mut transport, part_eps) = InProcessTransport::new(2);
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
    fn in_process_transport_answers_links_in_arrival_order() {
        fn verdict(task_id: u64) -> Message {
            Message::Verdict {
                task_id,
                accepted: true,
            }
        }
        fn task_of(mail: Option<Message>) -> u64 {
            match mail.expect("no deadline: the wait ends with mail") {
                Message::Gone { task_id } => panic!("unexpected NACK of {task_id}"),
                msg => msg.task_id(),
            }
        }
        // A wait that is already out of time: what is there, or nothing.
        let nothing_now = |t: &mut InProcessTransport| t.recv(Some(clock())).unwrap().is_none();
        let (mut transport, _) = InProcessTransport::new(0);
        assert_eq!(transport.recv(None).unwrap_err(), GridError::Disconnected);
        // A thousand links, each dealt its task's assignment; one link has
        // mail queued before the transport has even looked.
        let (mut transport, mut peers) = InProcessTransport::new(1000);
        for id in 0..1000u64 {
            let assign = Message::Assign(ugc_grid::Assignment {
                task_id: id,
                domain: Domain::new(id, 1),
            });
            transport.send(assign).unwrap();
        }
        peers[5].send(&verdict(5)).unwrap();
        assert_eq!(task_of(transport.recv(None).unwrap()), 5);
        assert!(nothing_now(&mut transport));
        // Mail is served in the order it arrived, not in link order.
        let arrivals = [900usize, 3, 512, 3, 0];
        for &link in &arrivals {
            peers[link].send(&verdict(link as u64)).unwrap();
        }
        for &link in &arrivals {
            assert_eq!(task_of(transport.recv(None).unwrap()), link as u64);
        }
        assert!(nothing_now(&mut transport));
        // A hang-up is reported after the mail queued ahead of it, once.
        let dying = peers.remove(42);
        dying.send(&verdict(42)).unwrap();
        drop(dying);
        assert_eq!(task_of(transport.recv(None).unwrap()), 42);
        assert!(matches!(
            transport.recv(None).unwrap(),
            Some(Message::Gone { task_id: 42 })
        ));
        assert!(nothing_now(&mut transport));
        // A slot is heard only for its own task, and never as a `Gone`.
        peers[7].send(&verdict(8)).unwrap();
        peers[7].send(&Message::Gone { task_id: 7 }).unwrap();
        assert!(nothing_now(&mut transport));
        // Every third slot is sent its verdict. Slot 30 has hung up
        // already, so its verdict is dropped and its hang-up, queued
        // before the verdict went down, NACKs nothing.
        let judged = |id: u64| id % 3 == 0;
        drop(peers.remove(30));
        for id in (0..1000u64).filter(|&id| judged(id)) {
            transport.send(verdict(id)).unwrap();
        }
        // Everyone else hangs up: one NACK per slot still owed its
        // verdict, then nothing can ever arrive again.
        peers.clear();
        let mut gone = Vec::new();
        loop {
            match transport.recv(None) {
                Ok(Some(Message::Gone { task_id })) => gone.push(task_id),
                Ok(Some(msg)) => panic!("unexpected mail: {msg:?}"),
                Ok(None) => panic!("a wait with no deadline ended without mail"),
                Err(e) => {
                    assert_eq!(e, GridError::Disconnected);
                    break;
                }
            }
        }
        gone.sort_unstable();
        let expected: Vec<u64> = (0..1000).filter(|&id| id != 42 && !judged(id)).collect();
        assert_eq!(gone, expected);
    }

    #[test]
    fn brokered_dead_participant_fails_only_its_session() {
        // Participant 0 reads its assignment and silently dies; the broker
        // NACKs its task, the engine fails that session with
        // Disconnected, and session 1 still completes normally.
        use ugc_grid::{GridError, Message};
        let task = PasswordSearch::with_hidden_password(2, 5);
        let screener = task.match_screener();
        let scheme = CbsScheme {
            samples: 6,
            seed: 1,
            report_audit: 0,
        };
        let mut engine = SessionEngine::new();
        for start in [0, 32] {
            engine.add_session(1, |task_ids| {
                VerificationScheme::<Sha256>::supervisor_session(
                    &scheme,
                    SupervisorContext {
                        task: &task,
                        screener: &screener,
                        domain: Domain::new(start, 32),
                        task_ids,
                        ledger: CostLedger::new(),
                    },
                )
            });
        }
        let (mut sup_transport, parts) = InProcessTransport::new(2);
        let [dying_part, healthy_part]: [Endpoint; 2] =
            parts.try_into().expect("two participant endpoints");

        let results = std::thread::scope(|scope| {
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

    /// A session that sends what it is given from its start and is then
    /// complete: it expects no inbound traffic.
    struct FireAndForget(Vec<crate::session::Outbound>);

    impl SupervisorSession for FireAndForget {
        fn start(&mut self) -> Result<Vec<crate::session::Outbound>, SchemeError> {
            Ok(std::mem::take(&mut self.0))
        }
        fn on_message(
            &mut self,
            _slot: usize,
            _msg: Message,
        ) -> Result<Vec<crate::session::Outbound>, SchemeError> {
            unreachable!("never fed");
        }
        fn take_outcome(&mut self) -> Option<SessionOutcome> {
            Some(SessionOutcome {
                verdict: Verdict::Accepted,
                reports: Vec::new(),
            })
        }
    }

    #[test]
    fn session_completing_at_start_does_not_block_the_engine() {
        // A fire-and-forget supervisor session (complete after start, no
        // inbound traffic expected) must be collected immediately instead
        // of leaving the engine waiting for a reply that never comes.
        let mut engine = SessionEngine::new();
        engine.add_session(1, |_| Box::new(FireAndForget(Vec::new())));
        // The participant's end stays open: a receive would block.
        let (mut transport, _part_eps) = InProcessTransport::new(1);
        let results = engine.run(&mut transport);
        assert!(results[0].outcome.as_ref().unwrap().verdict.is_accepted());
    }

    #[test]
    fn a_send_for_a_task_the_session_does_not_hold_fails_only_that_session() {
        // Three one-slot sessions, dealt tasks 0, 1 and 2, each sending a
        // verdict from its start: for another session's task, for a task
        // outside the round, and for its own.
        let mut engine = SessionEngine::new();
        for task_id in [1, 3, 2] {
            let verdict = Message::Verdict {
                task_id,
                accepted: true,
            };
            engine.add_session(1, |_| Box::new(FireAndForget(vec![(0, verdict)])));
        }
        assert_eq!(engine.slots(), 3);
        let (mut transport, part_eps) = InProcessTransport::new(engine.slots());
        let results = engine.run(&mut transport);
        for result in &results[..2] {
            assert!(matches!(
                result.outcome,
                Err(SchemeError::InvalidConfig { .. })
            ));
            assert_eq!(result.link.messages_sent, 0);
        }
        assert!(results[2].outcome.as_ref().unwrap().verdict.is_accepted());
        assert_eq!(part_eps[2].try_recv().unwrap().task_id(), 2);
        assert!(part_eps[..2].iter().all(|ep| ep.try_recv().is_err()));
    }
}
