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
//!        in process: the shard's slots, stepped on the engine's thread,
//!        their mail in one inbox, slot k holding task k
//!        — or — one DialLink into `ugc broker serve`,
//!        read and written on the engine's thread
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
//! which a [`TransportBackend`](crate::TransportBackend) runs against the
//! round's participant slots. In process, the round is split into
//! shards of whole sessions, each
//! engine driving its own slots on one thread; between processes, one
//! engine drives every session over one link, which it reads and writes
//! itself, so no message waits for another thread on its way out of or
//! into the supervisor's process.
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

use crate::backend::{Slot, SlotReport};
use crate::session::{SessionOutcome, SupervisorSession};
use crate::SchemeError;
use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};
use ugc_grid::runtime::{FaultEvent, FaultLog, FaultyEndpoint, LinkFaults, TaskPoll};
use ugc_grid::{fan_in, DialLink, FanIn, GridError, LinkStats, Message};

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
    /// [`Message::Gone`]. The wait never polls: between processes it is a
    /// blocking read of the socket, whose timeout is what is left until
    /// `until`; in process it makes the mail itself by stepping a
    /// participant slot, and sleeps only when no slot can move.
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

/// The engine's transport between processes: the supervisor's
/// [`DialLink`] into `ugc broker serve`. The relay routes by task id and
/// NACKs tasks whose participant hung up with [`Message::Gone`], so a send
/// is one frame queued on the link and the relay's NACK is passed up as
/// mail. A receive is the link's own blocking read on the engine's thread,
/// bounded by `until` read through the engine's one `clock()`; waiting is
/// also when the link writes what the engine queued.
impl EngineTransport for DialLink {
    fn send(&mut self, msg: Message) -> Result<(), GridError> {
        DialLink::send(self, &msg)
    }

    fn recv(&mut self, until: Option<Instant>) -> Result<Option<Message>, GridError> {
        self.recv_timeout(until.map(|until| until.saturating_duration_since(clock())))
    }
}

/// One participant slot of an [`InProcessTransport`], with its
/// fault-decorated end of the shard's fan-in until the slot ends.
struct Seat<'a> {
    slot: Slot<'a>,
    link: Option<FaultyEndpoint>,
    /// The faults injected on `link`, readable once it is gone.
    log: FaultLog,
    /// Its verdict has not gone down, and it has not hung up.
    owed: bool,
    /// It is on the ready stack.
    queued: bool,
}

/// The engine's transport for one shard of an in-process round: it owns
/// the shard's participant slots, each behind its end of one
/// [`fan_in`](ugc_grid::fan_in) decorated with its fault schedule, and
/// steps them on the engine's own thread, so no message crosses a thread.
///
/// A send moves the message onto its task's slot queue — never copied or
/// encoded — and marks the slot ready. A receive serves the fan-in's
/// inbox, which holds the slots' mail in the order it was sent and is
/// drained a burst per lock; slot `i` is heard only for its own task.
/// When the inbox is empty, the ready slot last written to is stepped
/// until its queue is empty, and its replies are the next mail. Only the
/// engine feeds a slot, so a slot that is not ready has nothing to do.
///
/// A slot is owed its verdict until the engine sends it one. A slot that
/// hangs up still owed is passed up as the [`Message::Gone`] of its task,
/// once; one whose verdict has gone down leaves quietly.
pub(crate) struct InProcessTransport<'a> {
    fan_in: FanIn,
    /// Slot `i` holds task `base + i`.
    seats: Vec<Seat<'a>>,
    base: u64,
    /// Slots with mail they have not been stepped for, each once, the
    /// last one written to on top: stepping it first runs a session on to
    /// its verdict before the next one starts, so a shard holds one
    /// participant's commitment at a time, not all of them.
    ready: Vec<usize>,
    /// Mail drained from the inbox and not yet served; one buffer for
    /// every burst.
    burst: VecDeque<(usize, Option<Message>)>,
    /// Slots that have not hung up yet.
    open: usize,
}

impl<'a> InProcessTransport<'a> {
    /// A transport over `slots`, which hold consecutive task ids, each
    /// link drawing its faults from `faults(task_id)`.
    pub(crate) fn new(slots: Vec<Slot<'a>>, faults: impl Fn(u64) -> LinkFaults) -> Self {
        let base = slots.first().map_or(0, Slot::task_id);
        let (fan_in, endpoints) = fan_in(slots.len());
        let seats: Vec<Seat<'a>> = slots
            .into_iter()
            .zip(endpoints)
            .map(|(slot, endpoint)| {
                let link = FaultyEndpoint::new(endpoint, faults(slot.task_id()));
                Seat {
                    log: link.log(),
                    link: Some(link),
                    slot,
                    owed: true,
                    queued: false,
                }
            })
            .collect();
        debug_assert!(
            (base..)
                .zip(&seats)
                .all(|(id, seat)| seat.slot.task_id() == id),
            "a shard's slots hold consecutive task ids"
        );
        InProcessTransport {
            fan_in,
            open: seats.len(),
            seats,
            base,
            ready: Vec::new(),
            burst: VecDeque::new(),
        }
    }

    /// Steps slot `slot` until its queue is empty or it ends; an ended
    /// slot hangs up, which the inbox holds after its last message.
    fn step(&mut self, slot: usize) {
        let seat = &mut self.seats[slot];
        seat.queued = false;
        if let Some(link) = &seat.link {
            // No budget: only the engine feeds the slot, and it waits
            // while the slot runs, so the queue is finite.
            if seat.slot.drain(link, usize::MAX) == TaskPoll::Complete {
                seat.link = None;
            }
        }
    }

    /// Hangs up on every slot and steps each one still running to its
    /// end: it reads what was queued for it, then the hang-up. Returns one
    /// report per slot, in slot order, and the faults injected on the
    /// shard's links.
    pub(crate) fn finish(self) -> (Vec<SlotReport>, Vec<FaultEvent>) {
        let InProcessTransport { fan_in, seats, .. } = self;
        drop(fan_in);
        let mut events = Vec::new();
        let reports = seats
            .into_iter()
            .map(|mut seat| {
                if let Some(link) = seat.link.take() {
                    let ended = seat.slot.drain(&link, usize::MAX);
                    debug_assert_eq!(ended, TaskPoll::Complete, "a hung-up slot ends");
                }
                events.extend(seat.log.snapshot());
                seat.slot.report()
            })
            .collect();
        (reports, events)
    }
}

impl EngineTransport for InProcessTransport<'_> {
    /// Queues `msg` on its task's slot. A slot that has hung up drops it:
    /// its hang-up, queued behind its last message, NACKs the task.
    fn send(&mut self, msg: Message) -> Result<(), GridError> {
        let slot = msg
            .task_id()
            .checked_sub(self.base)
            .and_then(|slot| usize::try_from(slot).ok())
            .expect("the engine sends only for the slots it dealt");
        let seat = &mut self.seats[slot];
        if matches!(msg, Message::Verdict { .. }) {
            seat.owed = false;
        }
        if self.fan_in.send(slot, msg).is_ok() && !std::mem::replace(&mut seat.queued, true) {
            self.ready.push(slot);
        }
        Ok(())
    }

    /// Serves the burst in arrival order, passing up only slot `i`'s mail
    /// for its own task, never a `Gone`; a hang-up, which a slot queues
    /// after its last message, is passed up as the [`Message::Gone`] a
    /// relay would send if the slot was still owed its verdict. With the
    /// inbox empty and no slot ready, only the clock can change anything:
    /// given an `until`, the wait sleeps until then; without one, or once
    /// every slot has hung up, nothing can ever arrive.
    fn recv(&mut self, until: Option<Instant>) -> Result<Option<Message>, GridError> {
        loop {
            let Some((slot, mail)) = self.burst.pop_front() else {
                if !self.fan_in.drain(&mut self.burst) {
                    match (self.ready.pop(), until) {
                        (Some(slot), _) => self.step(slot),
                        (None, Some(until)) if self.open > 0 => {
                            std::thread::sleep(until.saturating_duration_since(clock()));
                            return Ok(None);
                        }
                        (None, _) => return Err(GridError::Disconnected),
                    }
                }
                continue;
            };
            let task_id = self.base + slot as u64;
            match mail {
                Some(msg) if msg.task_id() == task_id && !matches!(msg, Message::Gone { .. }) => {
                    return Ok(Some(msg))
                }
                Some(_) => {}
                None => {
                    self.open -= 1;
                    if std::mem::replace(&mut self.seats[slot].owed, false) {
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
    /// Task id → (session, slot within it), indexed by task id − `base`.
    routes: Vec<(usize, usize)>,
    /// The task id of the first slot: 0 for a whole round, the first
    /// session's for a [shard](Self::split) of one.
    base: u64,
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
            base: 0,
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
    /// build), not just network latency — in process, a slot waiting for
    /// its shard's thread is silent too. The engine waits on the
    /// transport between messages, just never past the earliest pending
    /// expiry; only a wait that reaches it looks at the clocks, and
    /// without a deadline no message reads the clock at all.
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
        let first = self.tasks().end;
        self.routes.extend((0..slots).map(|peer| (index, peer)));
        let task_ids = (first..self.tasks().end).collect();
        self.sessions.push(EngineSession {
            session: build(task_ids),
            first,
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

    /// How many sessions are registered.
    pub(crate) fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The task ids the registered sessions' slots hold.
    pub(crate) fn tasks(&self) -> Range<u64> {
        self.base..self.base + self.routes.len() as u64
    }

    /// Splits the round into at most `parts` engines, each a contiguous
    /// run of whole sessions — so of task ids — with about an even share
    /// of the slots: `parts` of them, or one per session when sessions
    /// are fewer. Task ids do not change, and every shard keeps the
    /// deadline. Shards come back in registration order, so running them
    /// and concatenating their results gives the round's results in that
    /// order too.
    pub(crate) fn split(self, parts: usize) -> Vec<SessionEngine<'a>> {
        let SessionEngine {
            sessions: mut rest,
            routes,
            base,
            deadline,
            ..
        } = self;
        if rest.is_empty() {
            return Vec::new();
        }
        let total = routes.len();
        let parts = parts.clamp(1, rest.len());
        let mut shards = Vec::with_capacity(parts);
        let mut taken = 0;
        for part in 1..=parts {
            // How many slots come before the rest's session `b`.
            let start = |b: usize| {
                rest.get(b)
                    .map_or(total, |entry| (entry.first - base) as usize)
            };
            // Take whole sessions up to the boundary nearest this part's
            // even share, leaving at least one session per later part.
            let off = |b: usize| (start(b) * parts).abs_diff(total * part);
            let most = rest.len() - (parts - part);
            let mut take = 1;
            while take < most && off(take + 1) <= off(take) {
                take += 1;
            }
            let (from, to) = (start(0), start(take));
            // Every session is still active: only `run`, which consumes
            // the engine, settles one.
            shards.push(SessionEngine {
                sessions: rest.drain(..take).collect(),
                active: take,
                routes: routes[from..to]
                    .iter()
                    .map(|&(index, peer)| (index - taken, peer))
                    .collect(),
                base: base + from as u64,
                deadline,
            });
            taken += take;
        }
        shards
    }

    /// The session and slot within it that task `task_id` is, if the
    /// engine dealt it.
    fn route(&self, task_id: u64) -> Option<(usize, usize)> {
        let id = usize::try_from(task_id.checked_sub(self.base)?).ok()?;
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

        // When each session last heard from a peer: kept, and the clock
        // read, only under a deadline, the one thing that looks at it.
        let mut last_activity = Vec::new();
        let mut until = None;
        if let Some(deadline) = self.deadline {
            let started = clock();
            last_activity = vec![started; self.sessions.len()];
            until = Some(started + deadline);
        }
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
            if let Some(last) = last_activity.get_mut(index) {
                *last = clock();
            }
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
        ParticipantContext, ParticipantSession, SupervisorContext, VerificationScheme,
    };
    use crate::{ParticipantStorage, Verdict};
    use ugc_grid::runtime::FaultPlan;
    use ugc_grid::{Assignment, CostLedger, HonestWorker};
    use ugc_hash::Sha256;
    use ugc_merkle::{LaneWidth, Parallelism};
    use ugc_task::workloads::PasswordSearch;
    use ugc_task::{Domain, MatchScreener};

    /// A transport over slots `0..`, one per session, each on a quiet link.
    fn transport<'a>(sessions: Vec<Box<dyn ParticipantSession + 'a>>) -> InProcessTransport<'a> {
        let slots = (0..)
            .zip(sessions)
            .map(|(task_id, session)| Slot::new(task_id, session, CostLedger::new()))
            .collect();
        InProcessTransport::new(slots, |task_id| FaultPlan::quiet(0).link(task_id))
    }

    /// An honest participant session of `scheme`.
    fn honest<'a>(
        scheme: &'a CbsScheme,
        task: &'a PasswordSearch,
        screener: &'a MatchScreener,
    ) -> Box<dyn ParticipantSession + 'a> {
        VerificationScheme::<Sha256>::participant_session(
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
        )
    }

    /// An engine of one CBS session per `start`, over 32 inputs from it.
    fn cbs_engine<'a>(
        scheme: &'a CbsScheme,
        task: &'a PasswordSearch,
        screener: &'a MatchScreener,
        starts: &[u64],
    ) -> SessionEngine<'a> {
        let mut engine = SessionEngine::new();
        for &start in starts {
            engine.add_session(1, |task_ids| {
                VerificationScheme::<Sha256>::supervisor_session(
                    scheme,
                    SupervisorContext {
                        task,
                        screener,
                        domain: Domain::new(start, 32),
                        task_ids,
                        ledger: CostLedger::new(),
                    },
                )
            });
        }
        engine
    }

    #[test]
    fn two_sessions_multiplex_over_direct_links() {
        let task = PasswordSearch::with_hidden_password(2, 5);
        let screener = task.match_screener();
        let scheme = CbsScheme {
            samples: 8,
            seed: 3,
            report_audit: 0,
        };
        let engine = cbs_engine(&scheme, &task, &screener, &[0, 32]);
        let participants = (0..2).map(|_| honest(&scheme, &task, &screener)).collect();
        let mut transport = transport(participants);
        let results = engine.run(&mut transport);
        assert_eq!(results.len(), 2);
        for result in &results {
            let outcome = result.outcome.as_ref().unwrap();
            assert_eq!(outcome.verdict, Verdict::Accepted);
            assert!(result.link.bytes_received > 0);
        }
        let (reports, events) = transport.finish();
        assert!(reports.iter().all(|report| report.outcome == Ok(true)));
        assert!(events.is_empty());
    }

    /// A participant that answers what it is sent: an assignment with a
    /// commitment; a challenge with one verdict per sample, for the task
    /// the sample names (`u64::MAX`: a `Gone` for its own task); a
    /// challenge without samples by failing; and a verdict by ending.
    struct Scripted(Option<bool>);

    impl ParticipantSession for Scripted {
        fn on_message(&mut self, msg: Message) -> Result<Vec<Message>, SchemeError> {
            Ok(match msg {
                Message::Assign(assignment) => vec![Message::Commit {
                    task_id: assignment.task_id,
                    root: Vec::new(),
                }],
                Message::Challenge { samples, .. } if samples.is_empty() => {
                    return Err(SchemeError::InvalidConfig {
                        reason: "told to fail".into(),
                    })
                }
                Message::Challenge { task_id, samples } => samples
                    .into_iter()
                    .map(|sample| match sample {
                        u64::MAX => Message::Gone { task_id },
                        sample => verdict(sample),
                    })
                    .collect(),
                Message::Verdict { accepted, .. } => {
                    self.0 = Some(accepted);
                    Vec::new()
                }
                _ => Vec::new(),
            })
        }

        fn finished(&self) -> Option<bool> {
            self.0
        }
    }

    fn verdict(task_id: u64) -> Message {
        Message::Verdict {
            task_id,
            accepted: true,
        }
    }

    fn scripted(slots: usize) -> InProcessTransport<'static> {
        transport((0..slots).map(|_| Box::new(Scripted(None)) as _).collect())
    }

    #[test]
    fn in_process_transport_answers_links_in_arrival_order() {
        fn task_of(mail: Option<Message>) -> u64 {
            match mail.expect("no deadline: the wait ends with mail") {
                Message::Gone { task_id } => panic!("unexpected NACK of {task_id}"),
                msg => msg.task_id(),
            }
        }
        fn challenge(task_id: u64, samples: &[u64]) -> Message {
            Message::Challenge {
                task_id,
                samples: samples.to_vec(),
            }
        }
        // A wait that is already out of time: what is there, or nothing.
        let nothing_now = |t: &mut InProcessTransport| t.recv(Some(clock())).unwrap().is_none();
        assert_eq!(scripted(0).recv(None).unwrap_err(), GridError::Disconnected);
        // A thousand slots; four are dealt their task's assignment. The
        // slot last written to is stepped first, so the replies arrive in
        // the reverse order of the sends, not in slot order.
        let mut transport = scripted(1000);
        let sends = [0u64, 512, 3, 900];
        for &id in &sends {
            let assign = Message::Assign(Assignment {
                task_id: id,
                domain: Domain::new(id, 1),
            });
            transport.send(assign).unwrap();
        }
        for &id in sends.iter().rev() {
            assert_eq!(task_of(transport.recv(None).unwrap()), id);
        }
        assert!(nothing_now(&mut transport));
        // A slot's whole burst is served before the next slot's.
        transport.send(challenge(7, &[7])).unwrap();
        transport.send(challenge(3, &[3, 3])).unwrap();
        for id in [3, 3, 7] {
            assert_eq!(task_of(transport.recv(None).unwrap()), id);
        }
        // A hang-up is reported after the mail queued ahead of it, once.
        transport.send(challenge(42, &[42])).unwrap();
        transport.send(challenge(42, &[])).unwrap();
        assert_eq!(task_of(transport.recv(None).unwrap()), 42);
        assert!(matches!(
            transport.recv(None).unwrap(),
            Some(Message::Gone { task_id: 42 })
        ));
        assert!(nothing_now(&mut transport));
        // A slot is heard only for its own task, and never as a `Gone`.
        transport.send(challenge(7, &[8, u64::MAX])).unwrap();
        assert!(nothing_now(&mut transport));
        // Slot 30 hangs up still owed its verdict: one NACK.
        transport.send(challenge(30, &[])).unwrap();
        assert!(matches!(
            transport.recv(None).unwrap(),
            Some(Message::Gone { task_id: 30 })
        ));
        // Every third slot is sent its verdict and ends; slot 30's is
        // dropped, and its hang-up NACKs nothing more.
        let judged = |id: u64| id % 3 == 0;
        for id in (0..1000u64).filter(|&id| judged(id)) {
            transport.send(verdict(id)).unwrap();
        }
        // Everyone else is told to fail: one NACK per slot still owed its
        // verdict, then nothing can ever arrive again.
        for id in (0..1000u64).filter(|&id| !judged(id)) {
            transport.send(challenge(id, &[])).unwrap();
        }
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

    /// A participant that reads its assignment and dies.
    struct DiesOnAssignment;

    impl ParticipantSession for DiesOnAssignment {
        fn on_message(&mut self, _msg: Message) -> Result<Vec<Message>, SchemeError> {
            Err(SchemeError::Grid(GridError::Disconnected))
        }

        fn finished(&self) -> Option<bool> {
            None
        }
    }

    #[test]
    fn brokered_dead_participant_fails_only_its_session() {
        // Participant 0 reads its assignment and silently dies; its
        // hang-up NACKs its task, the engine fails that session with
        // Disconnected, and session 1 still completes normally.
        let task = PasswordSearch::with_hidden_password(2, 5);
        let screener = task.match_screener();
        let scheme = CbsScheme {
            samples: 6,
            seed: 1,
            report_audit: 0,
        };
        let engine = cbs_engine(&scheme, &task, &screener, &[0, 32]);
        let mut transport = transport(vec![
            Box::new(DiesOnAssignment),
            honest(&scheme, &task, &screener),
        ]);
        let results = engine.run(&mut transport);
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
        // The participant's slot stays open and is never sent anything.
        let mut transport = scripted(1);
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
            engine.add_session(1, |_| Box::new(FireAndForget(vec![(0, verdict(task_id))])));
        }
        assert_eq!(engine.slots(), 3);
        let mut transport = scripted(engine.slots());
        let results = engine.run(&mut transport);
        for result in &results[..2] {
            assert!(matches!(
                result.outcome,
                Err(SchemeError::InvalidConfig { .. })
            ));
            assert_eq!(result.link.messages_sent, 0);
        }
        assert!(results[2].outcome.as_ref().unwrap().verdict.is_accepted());
        // Only slot 2 heard anything: its verdict. The others end on the
        // hang-up.
        let (reports, _) = transport.finish();
        assert_eq!(reports[2].outcome, Ok(true));
        let hung_up = Err(SchemeError::Grid(GridError::Disconnected));
        assert!(reports[..2].iter().all(|report| report.outcome == hung_up));
    }

    #[test]
    fn a_shard_routes_only_its_own_tasks() {
        // Sessions of one, two and one slots: the middle shard holds
        // tasks 1 and 2 and routes them to its one session.
        let mut engine = SessionEngine::new();
        for slots in [1, 2, 1] {
            engine.add_session(slots, |_| Box::new(FireAndForget(Vec::new())));
        }
        let shards = engine.split(3);
        let tasks: Vec<Range<u64>> = shards.iter().map(SessionEngine::tasks).collect();
        assert_eq!(tasks, [0..1, 1..3, 3..4]);
        let middle = &shards[1];
        assert_eq!(middle.route(0), None);
        assert_eq!(middle.route(1), Some((0, 0)));
        assert_eq!(middle.route(2), Some((0, 1)));
        assert_eq!(middle.route(3), None);
    }

    #[test]
    fn a_stalled_shard_without_a_deadline_reports_that_nothing_can_arrive() {
        // Every link drops every message: the slot never reads its
        // assignment, and the session never hears back.
        let task = PasswordSearch::with_hidden_password(2, 5);
        let screener = task.match_screener();
        let scheme = CbsScheme {
            samples: 4,
            seed: 1,
            report_audit: 0,
        };
        let engine = cbs_engine(&scheme, &task, &screener, &[0]);
        let slots = vec![Slot::new(
            0,
            honest(&scheme, &task, &screener),
            CostLedger::new(),
        )];
        let drops = FaultPlan::quiet(3).with_drops(1024);
        let mut transport = InProcessTransport::new(slots, |task_id| drops.link(task_id));
        let results = engine.run(&mut transport);
        assert_eq!(
            results[0].outcome,
            Err(SchemeError::Grid(GridError::Disconnected))
        );
    }
}
