//! A GRACE-style Grid Resource Broker (GRB).
//!
//! Section 4 of the paper motivates the non-interactive CBS scheme with the
//! GRACE architecture (Buyya 2002): the supervisor hands bulk work to a
//! broker and never talks to participants directly, so the commit →
//! challenge round-trip of interactive CBS is unavailable. This broker
//! relays assignments outward and results inward, and its relay counters
//! demonstrate that NI-CBS needs exactly one participant → supervisor
//! delivery per task.
//!
//! Routing is by task id, the only address a participant slot has, and
//! its rules live in [`Routes`], which holds no link. It keeps an ordered
//! `task → participant` map, pinned when a task's assignment is routed,
//! so routing a message is one `O(log n)` probe regardless of how many
//! tasks are in flight. Outward, the map picks the participant; inward,
//! it decides whether the participant may speak for that task at all: a
//! message is relayed only when its task is routed to the participant
//! that sent it, and a participant's [`Message::Gone`] never is — that
//! NACK is the broker's own, so no participant can fail or impersonate a
//! slot another one holds. The map is a `BTreeMap` rather than a
//! `HashMap` deliberately: no unspecified iteration order can leak into
//! the supervisor-visible message sequence.
//!
//! A route lasts from a task's assignment to its verdict: the relayed
//! [`Message::Verdict`] releases it, so a participant holds exactly the
//! tasks still waiting on one. When a participant dies, each of those is
//! NACKed, in ascending task order. Each participant keeps its held tasks
//! in a set of its own, so a hang-up looks at those tasks alone: for a
//! participant that holds `k` of `n` routed tasks it costs `O(k log n)`,
//! whatever the size of the pool, and a participant whose every task was
//! judged leaves without a NACK.
//!
//! A [`Broker`] is those rules with links attached, for the relay between
//! processes behind `ugc broker serve`; in process, the engine's slot `k`
//! holds task `k` and needs no routing table.
//!
//! # The relay: one thread per link
//!
//! [`Broker::relay`] (or [`Broker::into_relay`], for a relay that admits
//! late participants through an [`Admission`]) serves every link on a
//! thread of its own, the supervisor's on the caller's. Each thread blocks
//! on its own link's [`RelayLink::recv_burst`], routes every message of
//! the burst through the shared [`Routes`] under one lock, and queues it
//! straight onto the link it is for: a supervisor message onto the
//! participant its task is routed to, a participant's message — and its
//! control frames, the slot reports — onto the supervisor's, in arrival
//! order. Before it blocks again it writes each link it queued onto
//! ([`RelayLink::flush`]). A frame thus crosses the broker on the thread
//! that read it: there is no relay thread between the links and no writer
//! thread behind them. `ugc broker serve` runs the relay over
//! [`RelaySocket`](crate::RelaySocket)s; tests and examples run the same
//! relay over [`Endpoint`]s, whose sends deliver at once.
//!
//! The supervisor's link ending ends the relay: its thread has relayed
//! everything that came before the end, so the relay shuts every
//! participant link down, which is how the participants learn the
//! campaign is over, and joins their threads. A participant's link ending
//! NACKs the tasks it held, in ascending order ([`Routes::mark_gone`]).
//! Mail that does not decode, that no route exists for, or that its
//! sender may not send ([`Routes::speaks_for`]) is dropped.
//!
//! Why a relay thread blocked in a write closes no wait cycle that a
//! relay with a reader and a writer thread per socket would not also have
//! is argued for sockets, the only links whose writes block, in the
//! [`tcp`](crate::tcp) module docs.
//!
//! The step-at-a-time calls
//! ([`try_relay_outward`](Broker::try_relay_outward),
//! [`try_relay_inward`](Broker::try_relay_inward), which sweeps the
//! participants from a rotating cursor) route exactly as the relay does,
//! for callers that drive a broker by hand on one thread.

use crate::{Endpoint, GridError, GridLink, Message};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;

/// Relay statistics for a broker run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayStats {
    /// Messages relayed supervisor → participant.
    pub outward: u64,
    /// Messages relayed participant → supervisor.
    pub inward: u64,
}

/// The broker's routing rules, with no link attached: which participant
/// (an index, in the order added) holds which task, who is dealt the next
/// assignment, and who is gone. [`Broker`] relays by them over links of
/// any kind.
#[derive(Debug, Default)]
pub struct Routes {
    /// task id → participant index.
    routes: BTreeMap<u64, usize>,
    /// Next participant to be dealt a fresh assignment (round-robin).
    next: usize,
    /// Every participant, by index.
    participants: Vec<Dealt>,
}

/// One participant's side of the routes.
#[derive(Debug, Default)]
struct Dealt {
    /// Known to be gone.
    gone: bool,
    /// The tasks routed to it and not yet judged: a task leaves when it
    /// is dealt to someone else, its verdict is relayed, or it is NACKed.
    tasks: BTreeSet<u64>,
}

impl Routes {
    /// Adds a participant as a round-robin target for future assignments
    /// and returns its index.
    pub fn add_participant(&mut self) -> usize {
        self.participants.push(Dealt::default());
        self.participants.len() - 1
    }

    /// Routes one supervisor message to the participant whose index `send`
    /// is handed, with the message: an assignment pins its task to the
    /// next one round-robin, skipping those known to be gone; any other
    /// message follows its task's route, and a relayed verdict releases
    /// it. Mail for a gone participant is dropped, as a store-and-forward
    /// broker drops mail for a dead host (a `send` failing with
    /// [`GridError::Disconnected`] is how an unreported death is found),
    /// and the tasks to NACK with [`Message::Gone`] are returned: the
    /// message's own, then the participant's other orphans.
    ///
    /// # Errors
    ///
    /// [`GridError::Empty`] for a message whose task no participant holds
    /// (it is dropped), or whatever else `send` fails with.
    pub fn route(
        &mut self,
        msg: &Message,
        send: impl FnOnce(usize, &Message) -> Result<(), GridError>,
    ) -> Result<Vec<u64>, GridError> {
        let task_id = msg.task_id();
        let idx = if matches!(msg, Message::Assign(_)) {
            let n = self.participants.len();
            // Everyone may be gone; then the send below is skipped.
            let idx = (0..n)
                .map(|k| (self.next + k) % n)
                .find(|&i| !self.participants[i].gone)
                .unwrap_or(self.next);
            self.next = (idx + 1) % n;
            // A task dealt again leaves its old holder.
            if let Some(old) = self.routes.insert(task_id, idx) {
                self.participants[old].tasks.remove(&task_id);
            }
            self.participants[idx].tasks.insert(task_id);
            idx
        } else {
            *self.routes.get(&task_id).ok_or(GridError::Empty)?
        };
        // A link that queues its sends accepts mail for a peer already
        // known to be gone, so the gone mark decides first.
        if !self.participants[idx].gone {
            match send(idx, msg) {
                Ok(()) if matches!(msg, Message::Verdict { .. }) => {
                    self.release(task_id, idx);
                    return Ok(Vec::new());
                }
                Ok(()) => return Ok(Vec::new()),
                Err(GridError::Disconnected) => {}
                Err(e) => return Err(e),
            }
        }
        // NACK this task first: the participant may have been reported
        // gone already, but this route may be brand new (an Assign that
        // raced the death).
        self.release(task_id, idx);
        let mut nacked = vec![task_id];
        nacked.extend(self.mark_gone(idx));
        Ok(nacked)
    }

    /// Unroutes `task_id`, which participant `idx` holds.
    fn release(&mut self, task_id: u64, idx: usize) {
        self.routes.remove(&task_id);
        self.participants[idx].tasks.remove(&task_id);
    }

    /// Whether participant `idx` may send `msg` up: only for a task routed
    /// to it, and never a `Gone` (the broker's NACK, not a participant's).
    #[must_use]
    pub fn speaks_for(&self, idx: usize, msg: &Message) -> bool {
        !matches!(msg, Message::Gone { .. }) && self.routes.get(&msg.task_id()) == Some(&idx)
    }

    /// Marks participant `idx` gone and unroutes the tasks it holds,
    /// returning them in ascending order, each to NACK with a
    /// [`Message::Gone`] so the supervisor fails those sessions instead of
    /// waiting forever; none once `idx` has been reported.
    pub fn mark_gone(&mut self, idx: usize) -> Vec<u64> {
        let dealt = &mut self.participants[idx];
        if std::mem::replace(&mut dealt.gone, true) {
            return Vec::new();
        }
        let orphaned = std::mem::take(&mut dealt.tasks);
        for task_id in &orphaned {
            self.routes.remove(task_id);
        }
        orphaned.into_iter().collect()
    }
}

/// A store-and-forward broker between one supervisor and many participants.
///
/// The broker pins each task to the participant it dispatched it to and
/// routes by [`Message::task_id`] ([`Routes`]); the supervisor never
/// learns which participant served which task (the paper's "GRB hides the
/// participants" property).
#[derive(Debug)]
pub struct Broker<L = Endpoint> {
    supervisor: L,
    participants: Vec<L>,
    routes: Routes,
    /// Where the next [`try_relay_inward`](Self::try_relay_inward) sweep
    /// starts (fairness cursor).
    inward_cursor: usize,
    stats: RelayStats,
}

impl<L> Broker<L> {
    /// Creates a broker with its supervisor-side link and participant links.
    ///
    /// The broker is generic over the link type: `ugc broker serve` relays
    /// between [`RelaySocket`](crate::RelaySocket)s, tests and examples
    /// between [`Endpoint`]s.
    ///
    /// # Panics
    ///
    /// Panics if no participants are supplied.
    #[must_use]
    pub fn new(supervisor: L, participants: Vec<L>) -> Self {
        assert!(
            !participants.is_empty(),
            "broker needs at least one participant"
        );
        Broker {
            supervisor,
            routes: Routes {
                participants: participants.iter().map(|_| Dealt::default()).collect(),
                ..Routes::default()
            },
            participants,
            inward_cursor: 0,
            stats: RelayStats::default(),
        }
    }

    /// Relay statistics so far.
    #[must_use]
    pub fn stats(&self) -> RelayStats {
        self.stats
    }
}

impl<L: GridLink> Broker<L> {
    /// Tells the supervisor that `tasks` can never be answered. Errors
    /// sending the NACK (supervisor also gone) are ignored — there is
    /// nobody left to tell.
    fn nack(&self, tasks: Vec<u64>) {
        for task_id in tasks {
            let _ = self.supervisor.send(&Message::Gone { task_id });
        }
    }

    /// Relays one queued supervisor message if any is waiting; `Ok(false)`
    /// when the supervisor queue is momentarily empty. The message goes
    /// where [`Routes::route`] sends it; one for a gone participant is
    /// dropped and its task NACKed with [`Message::Gone`] rather than
    /// treated as fatal.
    ///
    /// # Errors
    ///
    /// [`GridError::Empty`] if a non-assignment message references an
    /// unknown task, other transport errors towards a participant, and
    /// [`GridError::Disconnected`] once the *supervisor* endpoint is gone.
    pub fn try_relay_outward(&mut self) -> Result<bool, GridError> {
        let msg = match self.supervisor.try_recv() {
            Ok(msg) => msg,
            Err(GridError::Empty) => return Ok(false),
            Err(e) => return Err(e),
        };
        let participants = &self.participants;
        let nacked = self
            .routes
            .route(&msg, |idx, msg| participants[idx].send(msg))?;
        if nacked.is_empty() {
            self.stats.outward += 1;
        }
        self.nack(nacked);
        Ok(true)
    }

    /// Relays one queued message from participant `idx`, if it has one.
    /// `Ok(None)` when its queue is momentarily empty — or when it has
    /// hung up with its queue drained, which also NACKs its tasks — and
    /// when the message was not the participant's to send
    /// ([`Routes::speaks_for`]): such mail is dropped, neither relayed nor
    /// counted.
    fn try_relay_inward_from(&mut self, idx: usize) -> Result<Option<Message>, GridError> {
        match self.participants[idx].try_recv() {
            Ok(msg) if self.routes.speaks_for(idx, &msg) => {
                self.supervisor.send(&msg)?;
                self.stats.inward += 1;
                Ok(Some(msg))
            }
            Ok(_) | Err(GridError::Empty) => Ok(None),
            Err(GridError::Disconnected) => {
                let orphaned = self.routes.mark_gone(idx);
                self.nack(orphaned);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Relays at most one queued participant message, polling participants
    /// round-robin from a rotating cursor so every participant gets equal
    /// service under load. Returns the relayed message, or `None` if no
    /// participant had anything relayable queued (a message a participant
    /// may not send is dropped on the way).
    ///
    /// # Errors
    ///
    /// Transport errors from the supervisor side; a disconnected
    /// participant is skipped (its queued messages were already drained).
    pub fn try_relay_inward(&mut self) -> Result<Option<Message>, GridError> {
        let n = self.participants.len();
        for probe in 0..n {
            let idx = (self.inward_cursor + probe) % n;
            if let Some(msg) = self.try_relay_inward_from(idx)? {
                // Advance past the served participant: strict rotation.
                self.inward_cursor = (idx + 1) % n;
                return Ok(Some(msg));
            }
        }
        Ok(None)
    }
}

impl<L: RelayLink> Broker<L> {
    /// Relays on one thread per link until the supervisor's link ends,
    /// then ends every participant link and returns what was relayed. Each
    /// thread reads its own link, routes what arrived under one lock and
    /// queues it onto the link it is for, then writes every link it
    /// queued onto before it reads again.
    #[must_use]
    pub fn relay(self) -> RelayStats {
        self.into_relay().run()
    }

    /// Starts the participant links' threads and hands back the
    /// [`Relay`], whose [`admission`](Relay::admission) admits late
    /// participants and whose [`run`](Relay::run) serves the supervisor's
    /// link.
    #[must_use]
    pub fn into_relay(self) -> Relay<L> {
        let Broker {
            supervisor,
            participants,
            routes,
            stats,
            ..
        } = self;
        let shared = Arc::new(Shared {
            supervisor,
            state: Mutex::new(RelayState {
                routes,
                participants: Vec::new(),
                stats,
                threads: Vec::new(),
                ended: false,
            }),
            admitting: Mutex::new(()),
        });
        {
            let mut state = shared.lock();
            for link in participants {
                state.start(&shared, link);
            }
        }
        Relay { shared }
    }
}

/// One piece of mail a relayed link received, or that the relay queues
/// on one.
#[derive(Debug, Clone, Copy)]
pub enum Mail<'a> {
    /// A data frame's message, with the frame's payload when the link
    /// received one: the codec accepts only its own canonical encoding,
    /// so those bytes are the message's one encoding, and a socket
    /// forwards them rather than encoding the message again.
    Data(&'a Message, Option<&'a [u8]>),
    /// A control frame's payload (a participant's slot report), relayed
    /// up as it came.
    Control(&'a [u8]),
}

/// A link the relay serves on a thread of its own ([`Broker::relay`]).
///
/// Only that thread receives from the link; any relay thread may queue
/// onto it, and whoever queued flushes before it next blocks.
pub trait RelayLink: Send + Sync + 'static {
    /// Blocks until mail arrives or the link ends, then hands `relay`
    /// everything that has arrived, in arrival order. A data frame that
    /// does not decode is dropped here.
    ///
    /// # Errors
    ///
    /// Once the link has ended and everything before its end was handed
    /// over: what killed it, or [`GridError::Disconnected`].
    fn recv_burst(&self, relay: &mut dyn FnMut(Mail<'_>)) -> Result<(), GridError>;

    /// Queues `mail` for the link's peer without blocking; it leaves at
    /// the next [`flush`](Self::flush).
    ///
    /// # Errors
    ///
    /// [`GridError::Disconnected`] once the link is known dead; the mail
    /// is dropped.
    fn queue(&self, mail: Mail<'_>) -> Result<(), GridError>;

    /// Writes what is queued. A link whose `queue` delivers has nothing
    /// to write, and this default does nothing.
    fn flush(&self) {}

    /// Ends the link: a [`recv_burst`](Self::recv_burst) blocked on it
    /// returns, and the peer sees the end after what was written.
    fn shut_down(&self);
}

/// An in-process link delivers as it queues, and carries no control
/// plane: control mail queued on one is dropped.
impl RelayLink for Endpoint {
    fn recv_burst(&self, relay: &mut dyn FnMut(Mail<'_>)) -> Result<(), GridError> {
        let mut msg = self.recv()?;
        loop {
            relay(Mail::Data(&msg, None));
            match self.try_recv() {
                Ok(next) => msg = next,
                // The end, if that is what stopped the burst, is the next
                // burst's news.
                Err(_) => return Ok(()),
            }
        }
    }

    fn queue(&self, mail: Mail<'_>) -> Result<(), GridError> {
        match mail {
            Mail::Data(msg, _) => self.send(msg),
            Mail::Control(_) => Ok(()),
        }
    }

    fn shut_down(&self) {
        Endpoint::shut_down(self);
    }
}

/// A running relay: the participant links' threads are serving, and
/// [`run`](Self::run) serves the supervisor's link on the caller's thread.
/// Dropping it without running it ends the relay as `run` would.
pub struct Relay<L: RelayLink> {
    shared: Arc<Shared<L>>,
}

/// A running relay's door for participants that join late; it holds the
/// relay only weakly, and admits nobody once the relay has ended.
pub struct Admission<L: RelayLink> {
    shared: Weak<Shared<L>>,
}

impl<L: RelayLink> Clone for Admission<L> {
    fn clone(&self) -> Self {
        Admission {
            shared: Weak::clone(&self.shared),
        }
    }
}

/// What the relay's threads share.
struct Shared<L> {
    supervisor: L,
    state: Mutex<RelayState<L>>,
    /// Held across an admission, so the index a late participant is told
    /// is the one it gets.
    admitting: Mutex<()>,
}

/// Everything a relay thread routes by, under one lock.
struct RelayState<L> {
    routes: Routes,
    /// Participant `i`'s link.
    participants: Vec<Arc<L>>,
    stats: RelayStats,
    /// The participant links' threads, joined when the relay ends.
    threads: Vec<JoinHandle<()>>,
    /// The supervisor's link has ended: nothing more is admitted.
    ended: bool,
}

impl<L: RelayLink> Shared<L> {
    fn lock(&self) -> MutexGuard<'_, RelayState<L>> {
        self.state.lock().expect("relay state poisoned")
    }

    /// NACKs `tasks` to the supervisor; a supervisor already gone has
    /// nobody left to tell.
    fn nack(&self, tasks: Vec<u64>) {
        for task_id in tasks {
            let _ = self
                .supervisor
                .queue(Mail::Data(&Message::Gone { task_id }, None));
        }
    }

    /// The supervisor's link, on the caller's thread, until it ends.
    fn serve_supervisor(&self) {
        // The participant links this thread has seen, and those it queued
        // onto in the current burst, each once (`pending` marks them).
        let mut links: Vec<Arc<L>> = Vec::new();
        let mut pending: Vec<bool> = Vec::new();
        let mut queued_on = Vec::new();
        let mut nacked = false;
        loop {
            let mut guard = None;
            let burst = self.supervisor.recv_burst(&mut |mail| {
                // The supervisor has no control plane upward.
                let Mail::Data(msg, _) = mail else { return };
                let state: &mut RelayState<L> = guard.get_or_insert_with(|| self.lock());
                let RelayState {
                    routes,
                    participants,
                    stats,
                    ..
                } = state;
                let mut target = None;
                let routed = routes.route(msg, |idx, _| {
                    participants[idx].queue(mail)?;
                    target = Some(idx);
                    Ok(())
                });
                match routed {
                    Ok(orphans) if orphans.is_empty() => stats.outward += 1,
                    Ok(orphans) => {
                        self.nack(orphans);
                        nacked = true;
                    }
                    // Unroutable mail is dropped.
                    Err(_) => {}
                }
                if let Some(idx) = target {
                    if links.len() <= idx {
                        links.extend(participants[links.len()..].iter().cloned());
                        pending.resize(links.len(), false);
                    }
                    if !std::mem::replace(&mut pending[idx], true) {
                        queued_on.push(idx);
                    }
                }
            });
            drop(guard);
            for idx in queued_on.drain(..) {
                pending[idx] = false;
                links[idx].flush();
            }
            if std::mem::take(&mut nacked) {
                self.supervisor.flush();
            }
            if burst.is_err() {
                return;
            }
        }
    }

    /// Participant `idx`'s link, on its own thread, until it ends.
    fn serve_participant(&self, idx: usize, link: &L) {
        loop {
            let mut guard = None;
            let mut queued = false;
            let burst = link.recv_burst(&mut |mail| {
                if let Mail::Data(msg, _) = mail {
                    let state: &mut RelayState<L> = guard.get_or_insert_with(|| self.lock());
                    if !state.routes.speaks_for(idx, msg) {
                        return;
                    }
                    if self.supervisor.queue(mail).is_ok() {
                        state.stats.inward += 1;
                    }
                } else {
                    let _ = self.supervisor.queue(mail);
                }
                queued = true;
            });
            if burst.is_err() {
                let orphans = guard
                    .get_or_insert_with(|| self.lock())
                    .routes
                    .mark_gone(idx);
                queued |= !orphans.is_empty();
                self.nack(orphans);
            }
            drop(guard);
            if queued {
                self.supervisor.flush();
            }
            if burst.is_err() {
                return;
            }
        }
    }

    /// Ends the relay, once: every link is shut down and every
    /// participant thread joined. Returns what was relayed.
    fn end(&self) -> RelayStats {
        let (participants, threads) = {
            let mut state = self.lock();
            state.ended = true;
            (
                std::mem::take(&mut state.participants),
                std::mem::take(&mut state.threads),
            )
        };
        self.supervisor.shut_down();
        for link in &participants {
            link.shut_down();
        }
        for thread in threads {
            let _ = thread.join();
        }
        self.lock().stats
    }
}

impl<L: RelayLink> RelayState<L> {
    /// Adds `link` as the next participant and starts its thread. A link
    /// the [`Broker`] brought already has its routes; a late one is given
    /// them here.
    fn start(&mut self, shared: &Arc<Shared<L>>, link: L) {
        let idx = self.participants.len();
        if idx == self.routes.participants.len() {
            self.routes.add_participant();
        }
        let link = Arc::new(link);
        self.participants.push(Arc::clone(&link));
        let shared = Arc::clone(shared);
        self.threads.push(std::thread::spawn(move || {
            shared.serve_participant(idx, &link);
        }));
    }
}

impl<L: RelayLink> Relay<L> {
    /// A door for participants that join while the relay runs.
    #[must_use]
    pub fn admission(&self) -> Admission<L> {
        Admission {
            shared: Arc::downgrade(&self.shared),
        }
    }

    /// Serves the supervisor's link on this thread until it ends, then
    /// ends the relay: every link is shut down and every participant
    /// thread joined. Returns what was relayed.
    #[must_use]
    pub fn run(self) -> RelayStats {
        self.shared.serve_supervisor();
        self.shared.end()
    }
}

impl<L: RelayLink> Drop for Relay<L> {
    fn drop(&mut self) {
        // A poisoned state means a relay thread panicked; `drop` must not.
        if self.shared.state.lock().is_ok_and(|state| !state.ended) {
            let _ = self.shared.end();
        }
    }
}

impl<L: RelayLink> Admission<L> {
    /// Admits a late participant (a late joiner or a reconnect) as a
    /// fresh round-robin target: `link` is handed the index it will have
    /// and returns its link, or `None` to admit nobody. Tasks NACKed when
    /// a predecessor died are *not* replayed — the supervisor's retry
    /// round reassigns them, which is how reconnect-with-NACK composes
    /// with [`Message::Gone`]. Returns whether the participant joined;
    /// once the relay has ended nobody does, and the link is dropped.
    pub fn admit(&self, link: impl FnOnce(usize) -> Option<L>) -> bool {
        let Some(shared) = self.shared.upgrade() else {
            return false;
        };
        let _turn = shared.admitting.lock().expect("relay admission poisoned");
        let index = shared.lock().routes.participants.len();
        let Some(link) = link(index) else {
            return false;
        };
        let mut state = shared.lock();
        if state.ended {
            return false;
        }
        state.start(&shared, link);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{duplex, Assignment, Doorbell};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use ugc_task::Domain;

    /// Builds a supervisor endpoint, a broker, and participant endpoints.
    fn rig(n: usize) -> (Endpoint, Broker, Vec<Endpoint>) {
        let (sup, broker_up) = duplex();
        let mut broker_down = Vec::new();
        let mut parts = Vec::new();
        for _ in 0..n {
            let (b, p) = duplex();
            broker_down.push(b);
            parts.push(p);
        }
        (sup, Broker::new(broker_up, broker_down), parts)
    }

    fn assign(task_id: u64) -> Message {
        Message::Assign(Assignment {
            task_id,
            domain: Domain::new(0, 8),
        })
    }

    /// Relays `count` queued supervisor messages, each one delivered.
    fn relay_out<L: GridLink>(broker: &mut Broker<L>, count: usize) {
        for _ in 0..count {
            assert!(broker.try_relay_outward().unwrap(), "nothing queued");
        }
    }

    #[test]
    fn assignments_round_robin() {
        let (sup, mut broker, parts) = rig(3);
        for id in 0..6u64 {
            sup.send(&assign(id)).unwrap();
        }
        relay_out(&mut broker, 6);
        for (i, p) in parts.iter().enumerate() {
            let first = p.recv().unwrap();
            let second = p.recv().unwrap();
            assert_eq!(first.task_id(), i as u64);
            assert_eq!(second.task_id(), (i + 3) as u64);
        }
        assert_eq!(broker.stats().outward, 6);
    }

    #[test]
    fn replies_route_back_by_task() {
        let (sup, mut broker, parts) = rig(2);
        sup.send(&assign(10)).unwrap();
        sup.send(&assign(11)).unwrap();
        relay_out(&mut broker, 2);
        // Task 11 went to participant 1, which answers first.
        for p in parts.iter().rev() {
            let Message::Assign(a) = p.recv().unwrap() else {
                panic!("expected assignment")
            };
            p.send(&Message::Commit {
                task_id: a.task_id,
                root: vec![a.task_id as u8; 16],
            })
            .unwrap();
        }
        // Each reply comes from the participant its task is pinned to, so
        // both go up, in sweep order.
        let relayed = broker.try_relay_inward().unwrap().unwrap();
        assert_eq!(relayed.task_id(), 10);
        let relayed = broker.try_relay_inward().unwrap().unwrap();
        assert_eq!(relayed.task_id(), 11);
        assert_eq!(sup.recv().unwrap().task_id(), 10);
        assert_eq!(sup.recv().unwrap().task_id(), 11);
        assert_eq!(broker.stats().inward, 2);
    }

    #[test]
    fn verdicts_follow_recorded_route() {
        let (sup, mut broker, parts) = rig(2);
        sup.send(&assign(7)).unwrap();
        relay_out(&mut broker, 1);
        let _ = parts[0].recv().unwrap();
        sup.send(&Message::Verdict {
            task_id: 7,
            accepted: true,
        })
        .unwrap();
        relay_out(&mut broker, 1);
        assert!(matches!(
            parts[0].recv().unwrap(),
            Message::Verdict { task_id: 7, .. }
        ));
        // Participant 1 must have received nothing.
        assert!(parts[1].try_recv().is_err());
    }

    #[test]
    fn unknown_task_route_fails() {
        let (sup, mut broker, _parts) = rig(1);
        sup.send(&Message::Verdict {
            task_id: 99,
            accepted: false,
        })
        .unwrap();
        assert_eq!(broker.try_relay_outward().unwrap_err(), GridError::Empty);
    }

    #[test]
    fn a_participant_speaks_only_for_the_tasks_it_holds() {
        // Participant 0 holds task 0 and participant 1 task 1. Participant
        // 0 reports task 1 dead, forges its commitment and reports its own
        // task dead too: none of it is relayed or counted, and participant
        // 1's own reply still goes up.
        let (sup, mut broker, parts) = rig(2);
        sup.send(&assign(0)).unwrap();
        sup.send(&assign(1)).unwrap();
        relay_out(&mut broker, 2);
        let commit = |task_id| Message::Commit {
            task_id,
            root: vec![7; 16],
        };
        for p in &parts {
            let _ = p.recv().unwrap();
        }
        for hostile in [
            Message::Gone { task_id: 1 },
            commit(1),
            Message::Gone { task_id: 0 },
        ] {
            parts[0].send(&hostile).unwrap();
        }
        parts[1].send(&commit(1)).unwrap();
        let relayed: Vec<Message> = (0..6)
            .filter_map(|_| broker.try_relay_inward().unwrap())
            .collect();
        assert_eq!(relayed, [commit(1)]);
        assert_eq!(broker.stats().inward, 1);
        assert_eq!(sup.recv().unwrap(), commit(1));
        assert_eq!(sup.try_recv(), Err(GridError::Empty));
    }

    #[test]
    fn interleaved_multi_session_relay_is_fair_and_indexed() {
        // Four sessions in flight at once, replies arriving interleaved:
        // the rotating cursor must serve every participant each sweep, and
        // indexed routing must deliver each reply regardless of order.
        let (sup, mut broker, parts) = rig(4);
        for id in 0..4u64 {
            sup.send(&assign(id)).unwrap();
        }
        relay_out(&mut broker, 4);
        // Every participant queues two replies before any relay happens.
        for (i, p) in parts.iter().enumerate() {
            let _ = p.recv().unwrap();
            for round in 0..2u64 {
                p.send(&Message::Commit {
                    task_id: i as u64,
                    root: vec![round as u8; 8],
                })
                .unwrap();
            }
        }
        // Fair polling: the first full sweep yields one message from each
        // participant (0,1,2,3), not two from participant 0.
        let mut order = Vec::new();
        while let Some(msg) = broker.try_relay_inward().unwrap() {
            order.push(msg.task_id());
        }
        assert_eq!(order, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(broker.stats().inward, 8);
        // The supervisor sees all eight, in relay order.
        for expected in [0u64, 1, 2, 3, 0, 1, 2, 3] {
            assert_eq!(sup.recv().unwrap().task_id(), expected);
        }
        // A lone later reply is found wherever the cursor stands.
        parts[2]
            .send(&Message::Reports {
                task_id: 2,
                reports: vec![],
            })
            .unwrap();
        assert_eq!(broker.try_relay_inward().unwrap().unwrap().task_id(), 2);
    }

    #[test]
    fn relay_drains_both_directions_then_exits() {
        let (sup, broker, parts) = rig(2);
        sup.send(&assign(0)).unwrap();
        sup.send(&assign(1)).unwrap();
        let relay = std::thread::spawn(move || broker.relay());
        // Participants answer and hang up.
        for p in parts {
            let Message::Assign(a) = p.recv().unwrap() else {
                panic!("expected assignment");
            };
            p.send(&Message::Commit {
                task_id: a.task_id,
                root: vec![0; 16],
            })
            .unwrap();
        }
        let mut seen = [false; 2];
        while seen != [true, true] {
            // The replies may be interleaved with Gone NACKs (the test
            // participants hang up right after answering).
            match sup.recv().unwrap() {
                Message::Commit { task_id, .. } => seen[task_id as usize] = true,
                Message::Gone { .. } => {}
                other => panic!("unexpected relay: {other:?}"),
            }
        }
        drop(sup);
        let stats = relay.join().unwrap();
        assert_eq!(stats.outward, 2);
        assert_eq!(stats.inward, 2);
    }

    #[test]
    fn dead_participant_is_nacked_not_fatal() {
        let (sup, mut broker, parts) = rig(2);
        sup.send(&assign(0)).unwrap();
        sup.send(&assign(1)).unwrap();
        relay_out(&mut broker, 2);
        // Participant 0 answers then dies; participant 1 stays healthy.
        let mut parts = parts.into_iter();
        let dead = parts.next().unwrap();
        let alive = parts.next().unwrap();
        let _ = dead.recv().unwrap();
        let _ = alive.recv().unwrap(); // its Assign
        drop(dead);
        // Outward mail for the dead participant is dropped and the task is
        // NACKed; relay keeps serving the healthy one.
        sup.send(&Message::Verdict {
            task_id: 0,
            accepted: true,
        })
        .unwrap();
        sup.send(&Message::Verdict {
            task_id: 1,
            accepted: true,
        })
        .unwrap();
        assert!(broker.try_relay_outward().unwrap()); // dropped + NACK
        assert!(broker.try_relay_outward().unwrap()); // delivered
        assert_eq!(sup.recv().unwrap(), Message::Gone { task_id: 0 });
        assert!(matches!(
            alive.recv().unwrap(),
            Message::Verdict { task_id: 1, .. }
        ));
        // The dead participant's route is gone; re-addressing it errors.
        sup.send(&Message::Verdict {
            task_id: 0,
            accepted: true,
        })
        .unwrap();
        assert_eq!(broker.try_relay_outward().unwrap_err(), GridError::Empty);
        // Fresh assignments skip the dead participant: both land on the
        // healthy one instead of being black-holed.
        sup.send(&assign(7)).unwrap();
        sup.send(&assign(8)).unwrap();
        assert!(broker.try_relay_outward().unwrap());
        assert!(broker.try_relay_outward().unwrap());
        assert_eq!(alive.recv().unwrap().task_id(), 7);
        assert_eq!(alive.recv().unwrap().task_id(), 8);
    }

    #[test]
    fn a_hang_up_after_the_verdict_is_not_nacked() {
        // Participant 0's task is judged and the verdict relayed before it
        // hangs up; participant 1 hangs up still waiting on its verdict.
        // Only task 1 is NACKed, and nobody speaks for task 0 any more.
        let (sup, mut broker, parts) = rig(2);
        let verdict = Message::Verdict {
            task_id: 0,
            accepted: true,
        };
        for msg in [assign(0), assign(1), verdict.clone()] {
            sup.send(&msg).unwrap();
        }
        relay_out(&mut broker, 3);
        assert!(!broker.routes.speaks_for(0, &verdict));
        drop(parts);
        assert!(broker.try_relay_inward().unwrap().is_none());
        assert_eq!(sup.recv().unwrap(), Message::Gone { task_id: 1 });
        assert_eq!(sup.try_recv(), Err(GridError::Empty));
    }

    #[test]
    fn assign_racing_a_death_is_still_nacked() {
        // Participant 0 is already known gone (reported once); a new Assign
        // that round-robins past every dead participant must still be
        // NACKed rather than silently dropped.
        let (sup, mut broker, parts) = rig(1);
        sup.send(&assign(0)).unwrap();
        relay_out(&mut broker, 1);
        drop(parts); // the only participant dies
        sup.send(&Message::Verdict {
            task_id: 0,
            accepted: true,
        })
        .unwrap();
        assert!(broker.try_relay_outward().unwrap()); // first death report
        assert_eq!(sup.recv().unwrap(), Message::Gone { task_id: 0 });
        // Participant 0 is now marked gone; a brand-new task must get its
        // own NACK even though mark_gone already ran for this participant.
        sup.send(&assign(5)).unwrap();
        assert!(broker.try_relay_outward().unwrap());
        assert_eq!(sup.recv().unwrap(), Message::Gone { task_id: 5 });
    }

    #[test]
    fn death_nacks_arrive_in_ascending_task_order() {
        // Regression test for the route-map ordering hazard: the
        // supervisor-visible NACK sequence after a participant death must
        // not depend on map iteration order.
        // Assignments arrive with deliberately scrambled task ids; all
        // land on the lone participant, which then dies with every task
        // still in flight.
        let (sup, mut broker, parts) = rig(1);
        let scrambled = [23u64, 5, 99, 1, 42, 77, 8, 64, 3, 50];
        for id in scrambled {
            sup.send(&assign(id)).unwrap();
        }
        relay_out(&mut broker, scrambled.len());
        // The participant dies holding all ten tasks: the next inward poll
        // observes the disconnect and NACKs every orphaned task.
        drop(parts);
        assert!(broker.try_relay_inward().unwrap().is_none());
        let mut nacked = Vec::new();
        for _ in 0..scrambled.len() {
            match sup.recv().unwrap() {
                Message::Gone { task_id } => nacked.push(task_id),
                other => panic!("expected Gone, got {other:?}"),
            }
        }
        let mut expected = scrambled.to_vec();
        expected.sort_unstable();
        assert_eq!(nacked, expected, "NACK order must be ascending task id");
    }

    /// A link shaped like a queueing socket link: `send` always succeeds
    /// (the frame is queued, whatever became of the peer), and the death
    /// shows only on the receive side. Clones share one state, so the
    /// test keeps a view of what the broker owns.
    #[derive(Clone, Default)]
    struct QueueingLink(Arc<QueueingState>);

    #[derive(Default)]
    struct QueueingState {
        inbox: Mutex<VecDeque<Message>>,
        sent: Mutex<Vec<Message>>,
        peer_died: AtomicBool,
    }

    impl QueueingLink {
        fn sent_task_ids(&self) -> Vec<u64> {
            let sent = self.0.sent.lock().unwrap();
            sent.iter().map(Message::task_id).collect()
        }
    }

    impl GridLink for QueueingLink {
        fn send(&self, msg: &Message) -> Result<(), GridError> {
            self.0.sent.lock().unwrap().push(msg.clone());
            Ok(())
        }

        fn recv(&self) -> Result<Message, GridError> {
            self.try_recv()
        }

        fn try_recv(&self) -> Result<Message, GridError> {
            match self.0.inbox.lock().unwrap().pop_front() {
                Some(msg) => Ok(msg),
                None if self.0.peer_died.load(Ordering::SeqCst) => Err(GridError::Disconnected),
                None => Err(GridError::Empty),
            }
        }

        fn subscribe(&self, _bell: &Doorbell, _key: usize) {}
    }

    #[test]
    fn assign_after_a_death_is_nacked_even_when_the_send_succeeds() {
        // Over a link that queues its sends nothing ever fails on the
        // way out, so an Assign routed to a participant already marked
        // closed must be NACKed by the closed mark alone — or the
        // supervisor waits for that session forever.
        let supervisor = QueueingLink::default();
        let participant = QueueingLink::default();
        let mut broker = Broker::new(supervisor.clone(), vec![participant.clone()]);
        for id in [3u64, 1, 2] {
            supervisor.0.inbox.lock().unwrap().push_back(assign(id));
            assert!(broker.try_relay_outward().unwrap());
        }
        assert_eq!(participant.sent_task_ids(), vec![3, 1, 2]);
        // The participant dies holding all three; its link still takes mail.
        participant.0.peer_died.store(true, Ordering::SeqCst);
        assert!(broker.try_relay_inward().unwrap().is_none());
        // A fresh assignment arrives after the death was reported.
        supervisor.0.inbox.lock().unwrap().push_back(assign(9));
        assert!(broker.try_relay_outward().unwrap());
        assert_eq!(
            *supervisor.0.sent.lock().unwrap(),
            [1u64, 2, 3, 9].map(|task_id| Message::Gone { task_id }),
            "one Gone per task, orphans ascending, the late one after them"
        );
        assert_eq!(
            participant.sent_task_ids(),
            vec![3, 1, 2],
            "mail for the dead is dropped, not queued"
        );
        assert_eq!(broker.stats().outward, 3);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn empty_broker_rejected() {
        let (_sup, up) = duplex();
        let _ = Broker::new(up, Vec::new());
    }
}
