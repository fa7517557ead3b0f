//! In-memory message transport.
//!
//! A link carries encoded frames between two endpoints and keeps no
//! books: what a message costs is [`Message::charged`], and whoever
//! sends or receives it does the counting.
//!
//! A multiplexer that owns many links does not sweep them for mail: it
//! subscribes each link's inbound direction to one [`Doorbell`] and
//! sleeps on that. Every frame queued for a subscribed endpoint, and its
//! peer's hang-up, rings the bell with the key the endpoint subscribed
//! under, so the cost of learning about one message does not grow with
//! the number of idle links.

use crate::{GridError, Message};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
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
/// key once per frame queued for it and once more when its peer hangs
/// up. A ring says "look at this link", not "a frame is there": the
/// consumer answers it with a `try_recv` on that link, and finding
/// nothing ([`GridError::Empty`]) is normal — a frame that was queued
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

/// Where one direction of a link announces its mail: the receiving
/// endpoint writes the subscription, the sending endpoint reads it on
/// every send and marks its own hang-up.
///
/// A mutex rather than atomics on purpose. Subscribing and sending race
/// in the store-then-load pattern (subscriber: publish the subscription,
/// then look at the queue; sender: queue the frame, then look for a
/// subscription), which acquire/release ordering alone does not close.
/// Under the lock one of the two always sees the other: a sender that
/// read "no subscription" had queued its frame before the subscriber
/// counted the backlog.
#[derive(Debug, Default)]
pub(crate) struct Subscription {
    /// The subscriber's bell and the key this link rings on it.
    bell: Option<(Sender<usize>, usize)>,
    /// The sending endpoint is gone (its channel already reports closure).
    hung_up: bool,
}

impl Subscription {
    fn ring(&self) {
        if let Some((bell, key)) = &self.bell {
            // The consumer may have dropped its bell; nobody to wake.
            let _ = bell.send(*key);
        }
    }

    /// Points `subscription` at `bell` and announces what is already
    /// there: one ring per frame `queued` counts, one more if the sending
    /// side has already hung up. `queued` runs under the lock: a sender
    /// that found no subscription queued its frame before the count was
    /// taken, so it is in it; one that queues later finds the
    /// subscription and rings for itself.
    pub(crate) fn subscribe(
        subscription: &Mutex<Subscription>,
        bell: &Doorbell,
        key: usize,
        queued: impl FnOnce() -> usize,
    ) {
        let mut subscription = subscription.lock().expect("subscription lock poisoned");
        subscription.bell = Some((bell.tx.clone(), key));
        let backlog = queued() + usize::from(subscription.hung_up);
        for _ in 0..backlog {
            subscription.ring();
        }
    }
}

/// The sending side's hold on its peer's [`Subscription`]: rings it per
/// frame, and announces the hang-up when dropped. [`Endpoint`] declares
/// it *after* its sender, and fields drop in declaration order, so the
/// ring goes out only once the channel really reports
/// [`GridError::Disconnected`]. Ringing from `Drop for Endpoint` would
/// run before the sender field drops: the consumer would answer the
/// ring, read `Empty`, and never hear of the hang-up again.
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

/// One side of a bidirectional link.
///
/// Create pairs with [`duplex`]. Endpoints are `Send`, so the two sides can
/// live on different threads; channels are unbounded, so single-threaded
/// request/response protocols cannot deadlock.
#[derive(Debug)]
pub struct Endpoint {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    /// The peer's subscription, rung after every send and — because this
    /// field is declared after `tx` — after the hang-up.
    announce: HangUp,
    /// This endpoint's own subscription (what the peer's `announce`
    /// points at).
    subscription: Arc<Mutex<Subscription>>,
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
    let (tx_ab, rx_ab) = unbounded();
    let (tx_ba, rx_ba) = unbounded();
    let heard_by_a = Arc::new(Mutex::new(Subscription::default()));
    let heard_by_b = Arc::new(Mutex::new(Subscription::default()));
    let a = Endpoint {
        tx: tx_ab,
        rx: rx_ba,
        announce: HangUp(Arc::clone(&heard_by_b)),
        subscription: Arc::clone(&heard_by_a),
    };
    let b = Endpoint {
        tx: tx_ba,
        rx: rx_ab,
        announce: HangUp(heard_by_a),
        subscription: heard_by_b,
    };
    (a, b)
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
        self.tx
            .send(msg.encode())
            .map_err(|_| GridError::Disconnected)?;
        self.announce.ring();
        Ok(())
    }

    fn recv(&self) -> Result<Message, GridError> {
        let frame = self.rx.recv().map_err(|_| GridError::Disconnected)?;
        Message::decode(&frame)
    }

    fn try_recv(&self) -> Result<Message, GridError> {
        match self.rx.try_recv() {
            Ok(frame) => Message::decode(&frame),
            Err(TryRecvError::Empty) => Err(GridError::Empty),
            Err(TryRecvError::Disconnected) => Err(GridError::Disconnected),
        }
    }

    fn subscribe(&self, bell: &Doorbell, key: usize) {
        Subscription::subscribe(&self.subscription, bell, key, || self.rx.len());
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
