//! In-process message transport.
//!
//! A link in this process carries [`Message`] values, never encoded
//! frames: the codec runs only where bytes cross the process boundary (a
//! [`TcpLink`](crate::TcpLink), the journal, the CLI's parameter blob).
//! A link keeps no books either: what a message costs is
//! [`Message::charged`], and whoever sends or receives it does the
//! counting.
//!
//! Each direction of a link is one lock over its queue, its subscriber
//! and its hang-up flag. A multiplexer that owns many links does not
//! sweep them for mail: it subscribes each link's inbound direction to
//! one [`Doorbell`] and sleeps on that. Every message queued for a
//! subscribed endpoint, and its peer's hang-up, rings the bell with the
//! key the endpoint subscribed under, so the cost of learning about one
//! message does not grow with the number of idle links.
//!
//! The session engine needs no bell: [`fan_in`] hands out one
//! [`Endpoint`] per participant slot whose sends all land in one inbox,
//! the engine's [`FanIn`], in arrival order and tagged with the slot. The
//! engine and its slots take turns on one thread, so the engine never
//! waits on the inbox: it drains it a burst at a time, under one lock,
//! right after a slot's step.

use crate::{GridError, Message};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// One session's traffic as its supervisor sent and received it, each
/// message counted at [`Message::charged`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Bytes sent (encoded messages plus frame headers).
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Messages received.
    pub messages_received: u64,
}

/// Frame-header overhead charged per message (a 4-byte length prefix).
pub const FRAME_HEADER_BYTES: u64 = 4;

/// A queue of link keys: the one place a multiplexer sleeps while it
/// waits for mail on any of its links.
///
/// Subscribe links with [`GridLink::subscribe`]; each then rings its
/// key once per message queued for it and once more when its peer hangs
/// up. A ring says "look at this link", not "a message is there": the
/// consumer answers it with a `try_recv` on that link, and finding
/// nothing ([`GridError::Empty`]) is normal — a message that was queued
/// while the subscription was being made is announced twice.
///
/// # Examples
///
/// ```
/// use ugc_grid::{duplex, Doorbell, GridLink, Message};
///
/// let bell = Doorbell::new();
/// let (a, b) = duplex();
/// b.subscribe(&bell, 7);
/// a.send(&Message::Verdict { task_id: 1, accepted: true })?;
/// assert_eq!(bell.wait(), 7);
/// assert!(b.try_recv().is_ok());
/// drop(a);
/// assert_eq!(bell.wait(), 7); // the hang-up rings too
/// assert_eq!(b.try_recv().unwrap_err(), ugc_grid::GridError::Disconnected);
/// # Ok::<(), ugc_grid::GridError>(())
/// ```
#[derive(Debug)]
pub struct Doorbell {
    tx: Sender<usize>,
    rx: Receiver<usize>,
}

impl Default for Doorbell {
    fn default() -> Self {
        Self::new()
    }
}

impl Doorbell {
    /// A bell nobody has rung yet.
    #[must_use]
    pub fn new() -> Self {
        let (tx, rx) = unbounded();
        Doorbell { tx, rx }
    }

    /// Rings `key` by hand — how a consumer wakes its own sleepers (for
    /// instance to tell a worker pool the run is over).
    pub fn ring(&self, key: usize) {
        // Cannot fail: this bell holds the receiving side itself.
        let _ = self.tx.send(key);
    }

    /// Blocks until a key rings and returns it. Rings are delivered in
    /// the order they were made.
    ///
    /// # Panics
    ///
    /// Never in practice: the bell owns a sender, so its queue cannot
    /// report closure.
    #[must_use]
    pub fn wait(&self) -> usize {
        self.rx.recv().expect("a doorbell holds its own sender")
    }

    /// [`wait`](Self::wait), giving up after `timeout`.
    #[must_use]
    pub fn wait_timeout(&self, timeout: Duration) -> Option<usize> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// The next pending ring, if any, without blocking.
    #[must_use]
    pub fn try_next(&self) -> Option<usize> {
        self.rx.try_recv().ok()
    }
}

/// Where one direction of a [`TcpLink`](crate::TcpLink) announces its
/// frames: the link writes the subscription, its reader thread reads it
/// on every frame and marks the stream's end.
///
/// A mutex rather than atomics on purpose. Subscribing and queueing race
/// in the store-then-load pattern (subscriber: publish the subscription,
/// then look at the queue; reader: queue the frame, then look for a
/// subscription), which acquire/release ordering alone does not close.
/// Under the lock one of the two always sees the other: a reader that
/// read "no subscription" had queued its frame before the subscriber
/// counted the backlog.
#[derive(Debug, Default)]
pub(crate) struct Subscription {
    /// The subscriber's bell and the key this link rings on it.
    bell: Option<(Sender<usize>, usize)>,
    /// The sending side is gone (its queue already reports closure).
    hung_up: bool,
}

impl Subscription {
    fn ring(&self) {
        if let Some((bell, key)) = &self.bell {
            // The consumer may have dropped its bell; nobody to wake.
            let _ = bell.send(*key);
        }
    }

    /// Points this subscription at `bell` and announces what is already
    /// there: one ring per `queued` message, one more if the sending
    /// side has already hung up.
    fn point_at(&mut self, bell: &Doorbell, key: usize, queued: usize) {
        self.bell = Some((bell.tx.clone(), key));
        for _ in 0..queued + usize::from(self.hung_up) {
            self.ring();
        }
    }

    /// [`point_at`](Self::point_at) under `subscription`'s lock. `queued`
    /// runs under it too: a sender that found no subscription queued its
    /// frame before the count was taken, so it is in it; one that queues
    /// later finds the subscription and rings for itself.
    pub(crate) fn subscribe(
        subscription: &Mutex<Subscription>,
        bell: &Doorbell,
        key: usize,
        queued: impl FnOnce() -> usize,
    ) {
        let mut subscription = subscription.lock().expect("subscription lock poisoned");
        let queued = queued();
        subscription.point_at(bell, key, queued);
    }
}

/// The sending side's hold on its peer's [`Subscription`]: rings it per
/// frame, and announces the hang-up when dropped. A `TcpLink`'s reader
/// drops it *after* its queue senders, so the ring goes out only once the
/// queues really report [`GridError::Disconnected`]: a consumer that
/// answered an earlier hang-up ring would read `Empty` and never hear of
/// the closure again.
#[derive(Debug)]
pub(crate) struct HangUp(pub(crate) Arc<Mutex<Subscription>>);

impl HangUp {
    /// Announces one frame just queued for the subscriber.
    pub(crate) fn ring(&self) {
        self.0.lock().expect("subscription lock poisoned").ring();
    }
}

impl Drop for HangUp {
    fn drop(&mut self) {
        // A poisoned lock is skipped: `drop` must not panic.
        if let Ok(mut subscription) = self.0.lock() {
            subscription.hung_up = true;
            subscription.ring();
        }
    }
}

/// One direction of an in-process link: its queue, its subscriber and
/// whether either end has gone, under one lock, so a send is one lock,
/// one push and — only if someone listens — one ring or one wake.
#[derive(Debug, Default)]
struct Lane {
    state: Mutex<LaneState>,
    /// Wakes receivers blocked in [`GridLink::recv`].
    ready: Condvar,
}

#[derive(Debug, Default)]
struct LaneState {
    queue: VecDeque<Message>,
    /// The receiving end's bell, and whether the sending end hung up.
    heard: Subscription,
    /// The receiving end is gone: sends fail.
    receiver_gone: bool,
    /// Receivers blocked in `recv`, the only ones a send must wake.
    sleepers: usize,
}

impl Lane {
    fn lock(&self) -> MutexGuard<'_, LaneState> {
        self.state.lock().expect("link lock poisoned")
    }

    /// Rings the subscriber and wakes any blocked receiver.
    fn announce(&self, state: &LaneState) {
        state.heard.ring();
        if state.sleepers > 0 {
            self.ready.notify_all();
        }
    }

    /// Queues `msg` for the receiving end.
    fn push(&self, msg: Message) -> Result<(), GridError> {
        let mut state = self.lock();
        if state.receiver_gone {
            return Err(GridError::Disconnected);
        }
        state.queue.push_back(msg);
        self.announce(&state);
        Ok(())
    }

    /// The next queued message; once none is queued, `Disconnected` if
    /// the sending end has hung up, else `Empty` — or, with `block`, the
    /// wait for either.
    fn pop(&self, block: bool) -> Result<Message, GridError> {
        let mut state = self.lock();
        loop {
            if let Some(msg) = state.queue.pop_front() {
                return Ok(msg);
            }
            if state.heard.hung_up {
                return Err(GridError::Disconnected);
            }
            if !block {
                return Err(GridError::Empty);
            }
            state.sleepers += 1;
            state = self.ready.wait(state).expect("link lock poisoned");
            state.sleepers -= 1;
        }
    }

    fn subscribe(&self, bell: &Doorbell, key: usize) {
        let mut state = self.lock();
        let queued = state.queue.len();
        state.heard.point_at(bell, key, queued);
    }

    /// The sending end hangs up: announced after everything it queued,
    /// unless the receiving end is gone and nobody is left to hear it.
    fn hang_up(&self) {
        // A poisoned lock is skipped: this runs in `drop`.
        if let Ok(mut state) = self.state.lock() {
            state.heard.hung_up = true;
            if !state.receiver_gone {
                self.announce(&state);
            }
        }
    }

    /// The receiving end is gone: what is queued is dropped, its bell is
    /// let go, and sends fail from now on.
    fn close(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.receiver_gone = true;
            state.queue.clear();
            state.heard.bell = None;
        }
    }
}

/// One side of a bidirectional link.
///
/// Create pairs with [`duplex`], or a participant slot's end of the
/// engine's inbox with [`fan_in`]. Endpoints are `Send`, so the two sides
/// can live on different threads; queues are unbounded, so
/// single-threaded request/response protocols cannot deadlock. Dropping
/// an endpoint hangs it up: its peer reads what was already queued, then
/// [`GridError::Disconnected`].
#[derive(Debug)]
pub struct Endpoint {
    inbound: Arc<Lane>,
    outbound: Outbound,
}

/// Where an [`Endpoint`]'s sends go.
#[derive(Debug)]
enum Outbound {
    /// The peer endpoint's inbound lane.
    Peer(Arc<Lane>),
    /// The engine's inbox, tagged with this endpoint's slot.
    FanIn(Arc<Inbox>, usize),
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.inbound.close();
        match &self.outbound {
            Outbound::Peer(lane) => lane.hang_up(),
            Outbound::FanIn(inbox, slot) => {
                // The engine may be gone already; nobody left to tell.
                let _ = inbox.push(*slot, None);
            }
        }
    }
}

/// Creates a connected pair of endpoints.
///
/// # Examples
///
/// ```
/// use ugc_grid::{duplex, GridLink, Message};
///
/// let (a, b) = duplex();
/// a.send(&Message::Verdict { task_id: 1, accepted: true })?;
/// assert!(matches!(b.recv()?, Message::Verdict { .. }));
/// # Ok::<(), ugc_grid::GridError>(())
/// ```
#[must_use]
pub fn duplex() -> (Endpoint, Endpoint) {
    let (heard_by_a, heard_by_b) = (Arc::new(Lane::default()), Arc::new(Lane::default()));
    let a = Endpoint {
        inbound: Arc::clone(&heard_by_a),
        outbound: Outbound::Peer(Arc::clone(&heard_by_b)),
    };
    let b = Endpoint {
        inbound: heard_by_b,
        outbound: Outbound::Peer(heard_by_a),
    };
    (a, b)
}

/// Mail from a [`fan_in`]'s participant slots, one entry per message and
/// one per hang-up, in the order they were made.
#[derive(Debug, Default)]
struct Inbox(Mutex<InboxState>);

#[derive(Debug, Default)]
struct InboxState {
    /// `(slot, Some(msg))` per message, `(slot, None)` for the slot's
    /// hang-up, queued after its last message.
    mail: VecDeque<(usize, Option<Message>)>,
    /// The engine's end is gone: sends fail.
    closed: bool,
}

impl Inbox {
    /// Queues one slot's message, or with `None` its hang-up; never
    /// panics, because a hang-up is queued from `drop`.
    fn push(&self, slot: usize, mail: Option<Message>) -> Result<(), GridError> {
        let mut state = self.0.lock().map_err(|_| GridError::Disconnected)?;
        if state.closed {
            return Err(GridError::Disconnected);
        }
        state.mail.push_back((slot, mail));
        Ok(())
    }
}

/// The engine's end of a [`fan_in`]: one inbox every participant slot
/// sends into, and one downward queue per slot.
///
/// Dropping it hangs up on every slot: each reads what was already
/// queued for it, then [`GridError::Disconnected`], and its sends fail.
#[derive(Debug)]
pub struct FanIn {
    inbox: Arc<Inbox>,
    slots: Vec<Arc<Lane>>,
}

/// Creates the engine's [`FanIn`] and one [`Endpoint`] per participant
/// slot, endpoint `k` being slot `k`. What an endpoint sends lands in the
/// inbox tagged with its slot; what [`FanIn::send`] queues for slot `k`
/// reaches endpoint `k` and rings its subscription like any link's.
///
/// # Examples
///
/// ```
/// use std::collections::VecDeque;
/// use ugc_grid::{fan_in, GridLink, Message};
///
/// let (engine, mut slots) = fan_in(2);
/// engine.send(1, Message::Verdict { task_id: 7, accepted: true })?;
/// assert_eq!(slots[1].recv()?.task_id(), 7);
/// slots[1].send(&Message::Verdict { task_id: 7, accepted: false })?;
/// drop(slots.remove(0));
/// let mut burst = VecDeque::new();
/// assert!(engine.drain(&mut burst));
/// assert!(matches!(burst.pop_front(), Some((1, Some(Message::Verdict { .. })))));
/// assert!(matches!(burst.pop_front(), Some((0, None)))); // slot 0 hung up
/// # Ok::<(), ugc_grid::GridError>(())
/// ```
#[must_use]
pub fn fan_in(slots: usize) -> (FanIn, Vec<Endpoint>) {
    let inbox = Arc::new(Inbox::default());
    // A slot is sent one message at a time and drains it before the next
    // (assignment, challenge, verdict): room for one spares each lane the
    // four-message queue a first push would allocate.
    let lanes: Vec<Arc<Lane>> = (0..slots)
        .map(|_| {
            let state = LaneState {
                queue: VecDeque::with_capacity(1),
                ..LaneState::default()
            };
            Arc::new(Lane {
                state: Mutex::new(state),
                ready: Condvar::new(),
            })
        })
        .collect();
    let endpoints = (0..)
        .zip(&lanes)
        .map(|(slot, lane)| Endpoint {
            inbound: Arc::clone(lane),
            outbound: Outbound::FanIn(Arc::clone(&inbox), slot),
        })
        .collect();
    (
        FanIn {
            inbox,
            slots: lanes,
        },
        endpoints,
    )
}

impl FanIn {
    /// Queues `msg` for slot `slot`'s endpoint, taking it by value: no
    /// copy and no codec on the way down.
    ///
    /// # Errors
    ///
    /// [`GridError::Disconnected`] if that endpoint is gone.
    ///
    /// # Panics
    ///
    /// If `slot` is not one of this fan-in's slots.
    pub fn send(&self, slot: usize, msg: Message) -> Result<(), GridError> {
        self.slots[slot].push(msg)
    }

    /// Moves everything the inbox holds into `burst`, which must be
    /// empty, in arrival order, under one lock, without waiting. Returns
    /// whether `burst` holds anything.
    ///
    /// `burst` trades buffers with the inbox rather than copying into it,
    /// so a caller that keeps one buffer across bursts keeps both queues'
    /// capacity.
    pub fn drain(&self, burst: &mut VecDeque<(usize, Option<Message>)>) -> bool {
        debug_assert!(burst.is_empty(), "drain is for a spent burst");
        let mut state = self.inbox.0.lock().expect("inbox lock poisoned");
        std::mem::swap(&mut state.mail, burst);
        !burst.is_empty()
    }
}

impl Drop for FanIn {
    fn drop(&mut self) {
        if let Ok(mut state) = self.inbox.0.lock() {
            state.closed = true;
            state.mail.clear();
        }
        for lane in &self.slots {
            lane.hang_up();
        }
    }
}

/// One side of a bidirectional message link, abstracted so protocol
/// drivers run identically over a raw [`Endpoint`] or a decorated one
/// (e.g. the fault-injecting
/// [`FaultyEndpoint`](crate::runtime::FaultyEndpoint)).
pub trait GridLink: Send {
    /// Sends a message.
    ///
    /// # Errors
    ///
    /// [`GridError::Disconnected`] if the peer has been dropped.
    fn send(&self, msg: &Message) -> Result<(), GridError>;

    /// Receives the next message (blocking).
    ///
    /// # Errors
    ///
    /// [`GridError::Disconnected`] once nothing can arrive any more, or
    /// codec errors for malformed frames.
    fn recv(&self) -> Result<Message, GridError>;

    /// Receives without blocking.
    ///
    /// # Errors
    ///
    /// [`GridError::Empty`] if no message is queued; otherwise as
    /// [`recv`](Self::recv).
    fn try_recv(&self) -> Result<Message, GridError>;

    /// Subscribes this link's inbound direction to `bell` under `key`:
    /// from now on every frame queued for it, and its peer's hang-up,
    /// rings `key`. What is already there is announced on the spot — one
    /// ring per queued frame, one more if the peer has already hung up —
    /// and the hang-up ring comes only once a `try_recv` really reports
    /// the closure, so a multiplexer that answers each ring with one look
    /// at the link misses nothing, whatever the link is made of.
    /// Subscribing again replaces the earlier subscription.
    fn subscribe(&self, bell: &Doorbell, key: usize);
}

impl GridLink for Endpoint {
    fn send(&self, msg: &Message) -> Result<(), GridError> {
        match &self.outbound {
            Outbound::Peer(lane) => lane.push(msg.clone()),
            Outbound::FanIn(inbox, slot) => inbox.push(*slot, Some(msg.clone())),
        }
    }

    fn recv(&self) -> Result<Message, GridError> {
        self.inbound.pop(true)
    }

    fn try_recv(&self) -> Result<Message, GridError> {
        self.inbound.pop(false)
    }

    fn subscribe(&self, bell: &Doorbell, key: usize) {
        self.inbound.subscribe(bell, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Assignment;
    use ugc_task::Domain;

    #[test]
    fn bidirectional_counts_are_separate() {
        let (a, b) = duplex();
        let m1 = Message::Verdict {
            task_id: 1,
            accepted: true,
        };
        let m2 = Message::Challenge {
            task_id: 1,
            samples: vec![1, 2, 3, 4],
        };
        a.send(&m1).unwrap();
        a.send(&m1).unwrap();
        b.send(&m2).unwrap();
        // Each end hears exactly what the other sent: two and one.
        assert_eq!(a.recv().unwrap(), m2);
        assert_eq!(a.try_recv().unwrap_err(), GridError::Empty);
        assert_eq!(b.recv().unwrap(), m1);
        assert_eq!(b.recv().unwrap(), m1);
        assert_eq!(b.try_recv().unwrap_err(), GridError::Empty);
    }

    #[test]
    fn try_recv_empty() {
        let (a, _b) = duplex();
        assert_eq!(a.try_recv().unwrap_err(), GridError::Empty);
    }

    #[test]
    fn disconnect_detected() {
        let (a, b) = duplex();
        drop(b);
        assert_eq!(
            a.send(&Message::Verdict {
                task_id: 1,
                accepted: false
            })
            .unwrap_err(),
            GridError::Disconnected
        );
        assert_eq!(a.recv().unwrap_err(), GridError::Disconnected);
    }

    #[test]
    fn queued_messages_survive_peer_drop() {
        let (a, b) = duplex();
        a.send(&Message::Verdict {
            task_id: 3,
            accepted: true,
        })
        .unwrap();
        drop(a);
        assert!(matches!(b.recv().unwrap(), Message::Verdict { .. }));
        assert_eq!(b.recv().unwrap_err(), GridError::Disconnected);
    }

    #[test]
    fn cross_thread_exchange() {
        let (sup, part) = duplex();
        let handle = std::thread::spawn(move || {
            // Participant: echo assignments back as commits.
            let mut echoed = 0;
            while let Ok(msg) = part.recv() {
                if let Message::Assign(a) = msg {
                    part.send(&Message::Commit {
                        task_id: a.task_id,
                        root: vec![0xAB; 32],
                    })
                    .unwrap();
                    echoed += 1;
                }
            }
            echoed
        });
        for id in 0..5u64 {
            sup.send(&Message::Assign(Assignment {
                task_id: id,
                domain: Domain::new(0, 16),
            }))
            .unwrap();
            let reply = sup.recv().unwrap();
            assert_eq!(reply.task_id(), id);
        }
        drop(sup);
        assert_eq!(handle.join().unwrap(), 5);
    }

    fn verdict(task_id: u64) -> Message {
        Message::Verdict {
            task_id,
            accepted: true,
        }
    }

    #[test]
    fn fan_in_tags_mail_by_slot_in_arrival_order_and_hang_ups_come_last() {
        let (engine, mut slots) = fan_in(3);
        let mut burst = VecDeque::new();
        // Nothing queued: the drain comes back empty-handed.
        assert!(!engine.drain(&mut burst));
        slots[2].send(&verdict(20)).unwrap();
        slots[0].send(&verdict(0)).unwrap();
        slots[2].send(&verdict(21)).unwrap();
        let dying = slots.remove(1);
        dying.send(&verdict(10)).unwrap();
        drop(dying);
        assert!(engine.drain(&mut burst));
        let seen: Vec<(usize, Option<u64>)> = burst
            .drain(..)
            .map(|(slot, mail)| (slot, mail.map(|msg| msg.task_id())))
            .collect();
        assert_eq!(
            seen,
            [
                (2, Some(20)),
                (0, Some(0)),
                (2, Some(21)),
                (1, Some(10)),
                (1, None)
            ]
        );
        // Down: each slot hears only its own mail; a gone slot refuses it.
        engine.send(2, verdict(7)).unwrap();
        assert_eq!(slots[1].try_recv().unwrap().task_id(), 7);
        assert_eq!(slots[0].try_recv().unwrap_err(), GridError::Empty);
        assert_eq!(
            engine.send(1, verdict(8)).unwrap_err(),
            GridError::Disconnected
        );
    }

    #[test]
    fn fan_in_hears_a_slot_on_another_thread_and_its_drop_hangs_up_every_slot() {
        let (engine, slots) = fan_in(2);
        let bell = Doorbell::new();
        slots[1].subscribe(&bell, 9);
        std::thread::scope(|scope| {
            let sender = &slots[0];
            scope.spawn(move || sender.send(&verdict(3)).unwrap());
        });
        let mut burst = VecDeque::new();
        assert!(engine.drain(&mut burst));
        assert_eq!(burst.pop_front().map(|(slot, _)| slot), Some(0));
        drop(engine);
        // The subscribed slot hears the hang-up ring, and both read it.
        assert_eq!(bell.wait(), 9);
        for slot in &slots {
            assert_eq!(slot.recv().unwrap_err(), GridError::Disconnected);
            assert_eq!(slot.send(&verdict(4)).unwrap_err(), GridError::Disconnected);
        }
    }

    #[test]
    fn a_hang_up_after_the_receiver_dropped_rings_nothing() {
        let bell = Doorbell::new();
        let (a, b) = duplex();
        b.subscribe(&bell, 5);
        drop(b);
        drop(a);
        let (engine, slots) = fan_in(2);
        slots[1].subscribe(&bell, 6);
        drop(slots);
        drop(engine);
        assert_eq!(bell.try_next(), None);
    }

    #[test]
    fn a_blocked_receive_is_woken_by_a_send_and_by_the_hang_up() {
        let (a, b) = duplex();
        std::thread::scope(|scope| {
            let receiver = scope.spawn(|| (b.recv(), b.recv()));
            a.send(&verdict(1)).unwrap();
            drop(a);
            let (first, second) = receiver.join().unwrap();
            assert_eq!(first.unwrap().task_id(), 1);
            assert_eq!(second.unwrap_err(), GridError::Disconnected);
        });
    }

    #[test]
    fn message_order_preserved() {
        let (a, b) = duplex();
        for i in 0..10u64 {
            a.send(&Message::Verdict {
                task_id: i,
                accepted: true,
            })
            .unwrap();
        }
        for i in 0..10u64 {
            assert_eq!(b.recv().unwrap().task_id(), i);
        }
    }
}
