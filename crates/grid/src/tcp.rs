//! TCP transport: a [`GridLink`] over a real socket.
//!
//! [`TcpLink`] speaks the length-framed protocol from [`wire`](crate::wire)
//! and mirrors [`Endpoint`](crate::Endpoint)'s semantics exactly: sends
//! charge `Message::wire_len() + FRAME_HEADER_BYTES` (which *is* the
//! physical frame size — see the wire module), receives drain queued
//! messages before reporting the peer gone, and a mid-frame stream death
//! surfaces as the typed [`GridError::TornFrame`] once the queue is dry.
//!
//! # Who touches the socket
//!
//! Two threads per link, and nobody else. Neither polls.
//!
//! * **Outbound.** [`send_counted`](GridLink::send_counted) and
//!   [`ControlHandle::send`] encode the frame — header and payload —
//!   straight into the link's one outbound buffer and return; data and
//!   control frames share that FIFO. The link's *writer* thread sleeps
//!   until the buffer is non-empty, takes everything in it and issues a
//!   single `write_all`, so a burst (512 assignments from an engine, a
//!   relay catching up) leaves as a handful of segments and the thread
//!   that produced it never waits on the kernel. There is no timer and
//!   no flush call: a lone frame is written as soon as the writer wakes.
//! * **Inbound.** The *reader* thread reads through a small buffer, so
//!   one `read` drains every frame the kernel already holds, and routes
//!   data frames to the message queue and control frames (handshakes,
//!   cost reports) to a separate queue exposed through [`ControlHandle`],
//!   so grid plumbing can flow while a broker pump owns the link itself.
//!   Each frame it queues rings the link's [`Doorbell`] subscription
//!   ([`GridLink::subscribe`]), and so does the stream's end.
//!
//! # Backpressure, both directions
//!
//! Outbound: once [`OUTBOUND_HIGH_WATER`] frames wait for the writer, a
//! sender blocks until the writer has taken them — which it cannot do
//! while the kernel refuses its previous batch, so a peer that stops
//! reading stops its sender, with a bounded amount queued. Inbound: once
//! more than [`INBOUND_HIGH_WATER`] messages are queued locally the
//! reader sleeps until the receiving side has taken the queue back down
//! to the mark (the receive that does so wakes it), letting the kernel's
//! TCP window throttle the peer meanwhile. Both are timing-only — they
//! change when bytes move, never what is charged.
//!
//! # Endings
//!
//! Dropping the link refuses further sends, lets the writer flush what
//! was already queued (for a few seconds at most), *then* shuts the
//! socket and joins both threads: the peer drains what was in flight and
//! sees a clean disconnect, and nothing of the link outlives it. Once
//! the stream is known dead — the reader met its end, or a write failed
//! — every send reports [`GridError::Disconnected`] instead of queueing
//! mail nobody will deliver.

use crate::transport::{HangUp, Subscription};
use crate::wire::{append_frame, read_frame, recv_welcome, send_hello, Frame, Hello, Welcome};
use crate::wire::{ROLE_PARTICIPANT, ROLE_SUPERVISOR};
use crate::{Doorbell, GridError, GridLink, LinkStats, Message, FRAME_HEADER_BYTES};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Queued-message ceiling above which the reader thread pauses, letting
/// TCP flow control push back on the peer.
pub const INBOUND_HIGH_WATER: usize = 4096;

/// Frames that may wait for the writer thread before a sender blocks.
/// Small on purpose: it is what keeps a link's memory flat when the peer
/// reads slowly, and a batch of this many small frames already fills
/// several segments.
pub const OUTBOUND_HIGH_WATER: usize = 128;

/// How long dropping a link waits for the writer to flush what was
/// queued before shutting the socket regardless. A hang guard against a
/// peer that has stopped reading — timing-only.
const DRAIN_PATIENCE: Duration = Duration::from_secs(5);

/// The reader's buffer: enough for a few hundred protocol frames per
/// `read`, small enough not to show in a process with a thousand links.
const READ_BUFFER_BYTES: usize = 8 * 1024;

/// Batch buffers that grew past this (a burst of bulk uploads) are
/// released after the write instead of kept for the link's lifetime.
const BATCH_KEEP_BYTES: usize = 64 * 1024;

#[derive(Debug, Default)]
struct Counters {
    bytes: AtomicU64,
    messages: AtomicU64,
}

/// The outbound half of a link, under [`Wire::out`].
#[derive(Debug, Default)]
struct Outbound {
    /// Framed bytes waiting for the writer, data and control in send
    /// order.
    buf: Vec<u8>,
    /// Frames in `buf`.
    frames: usize,
    /// The link was dropped: no new frames, flush, then shut down.
    closing: bool,
    /// The stream is known dead: nothing queued can be delivered.
    dead: bool,
    /// The writer is asleep on [`Wire::work`] (so a sender must wake it;
    /// while it is awake it will look at `buf` again by itself).
    writer_idle: bool,
    /// The writer has exited; what it could flush is flushed.
    flushed: bool,
}

/// What a link's handles and its two threads share.
#[derive(Debug)]
struct Wire {
    stream: TcpStream,
    out: Mutex<Outbound>,
    /// The writer sleeps here while there is nothing to write.
    work: Condvar,
    /// Senders sleep here at the high-water mark; `Drop` waits here for
    /// `flushed`.
    room: Condvar,
    /// The reader sleeps here, under `out`'s lock, while `depth` is above
    /// [`INBOUND_HIGH_WATER`].
    drained: Condvar,
    /// Data frames queued inbound and not yet received.
    depth: AtomicUsize,
    /// What killed the stream, if it died abnormally; reported once.
    terminal: Mutex<Option<GridError>>,
}

impl Wire {
    fn out(&self) -> MutexGuard<'_, Outbound> {
        self.out.lock().expect("tcp outbound queue poisoned")
    }

    /// Queues one frame for the writer, blocking only at the high-water
    /// mark; returns the payload's length.
    fn queue(&self, control: bool, payload: impl FnOnce(&mut Vec<u8>)) -> Result<usize, GridError> {
        let mut out = self.out();
        loop {
            if out.dead || out.closing {
                return Err(GridError::Disconnected);
            }
            if out.frames < OUTBOUND_HIGH_WATER {
                break;
            }
            out = self.room.wait(out).expect("tcp outbound queue poisoned");
        }
        let len = append_frame(&mut out.buf, control, payload)?;
        out.frames += 1;
        if std::mem::take(&mut out.writer_idle) {
            self.work.notify_one();
        }
        Ok(len)
    }

    /// Records that the stream is dead and wakes everyone waiting on it.
    fn mark_dead(&self) {
        self.out().dead = true;
        self.work.notify_all();
        self.room.notify_all();
    }
}

/// The writer thread: everything queued since the last write leaves in
/// one `write_all`.
fn writer_loop(wire: &Wire) {
    let mut batch = Vec::new();
    loop {
        {
            let mut out = wire.out();
            while out.buf.is_empty() && !out.dead && !out.closing {
                out.writer_idle = true;
                out = wire.work.wait(out).expect("tcp outbound queue poisoned");
            }
            out.writer_idle = false;
            // Dead: nothing is deliverable. Empty: the link is closing
            // and everything queued has been written.
            if out.dead || out.buf.is_empty() {
                break;
            }
            std::mem::swap(&mut out.buf, &mut batch);
            out.frames = 0;
            wire.room.notify_all();
        }
        if (&wire.stream).write_all(&batch).is_err() {
            wire.mark_dead();
            break;
        }
        if batch.capacity() > BATCH_KEEP_BYTES {
            batch = Vec::new();
        } else {
            batch.clear();
        }
    }
    wire.out().flushed = true;
    wire.room.notify_all();
}

/// The reader thread: frames off the socket into the two queues, one
/// ring each, until the stream ends.
fn reader_loop(
    wire: &Wire,
    data_tx: Sender<Vec<u8>>,
    control_tx: Sender<Vec<u8>>,
    announce: HangUp,
) {
    let mut stream = BufReader::with_capacity(READ_BUFFER_BYTES, &wire.stream);
    'stream: loop {
        // Backpressure: stop reading while the local queue is deep; the
        // socket buffer fills and TCP flow control throttles the peer.
        // (`depth` is re-read under the lock the waking receive takes.)
        if wire.depth.load(Ordering::Acquire) > INBOUND_HIGH_WATER {
            let mut out = wire.out();
            while wire.depth.load(Ordering::Acquire) > INBOUND_HIGH_WATER {
                if out.closing {
                    break 'stream; // the link is gone: nobody will drain it
                }
                out = wire.drained.wait(out).expect("tcp outbound queue poisoned");
            }
        }
        let queued = match read_frame(&mut stream) {
            Ok(Some(Frame::Data(payload))) => {
                wire.depth.fetch_add(1, Ordering::AcqRel);
                data_tx.send(payload).is_ok()
            }
            Ok(Some(Frame::Control(payload))) => control_tx.send(payload).is_ok(),
            Ok(None) => break,
            Err(err) => {
                *wire.terminal.lock().expect("tcp terminal poisoned") = Some(err);
                break;
            }
        };
        if !queued {
            break;
        }
        announce.ring();
    }
    wire.mark_dead();
    // Dropping the senders marks the queues closed; receivers drain what
    // is already queued, then observe the disconnect (or terminal error).
    // The hang-up ring goes last, so whoever answers it finds the closure.
    drop((data_tx, control_tx));
    drop(announce);
}

/// Cloneable handle for a link's control-frame plane.
///
/// Obtained from [`TcpLink::control_handle`]; stays usable while the
/// link itself is owned elsewhere (e.g. inside a broker pump).
#[derive(Debug, Clone)]
pub struct ControlHandle {
    rx: Receiver<Vec<u8>>,
    wire: Arc<Wire>,
}

impl ControlHandle {
    /// Sends one control frame: queued behind whatever the link has
    /// already queued, data or control, and written by the link's writer.
    ///
    /// # Errors
    ///
    /// [`GridError::Disconnected`] if the stream is gone or the link was
    /// dropped, or [`GridError::LengthOverflow`] for oversized payloads.
    pub fn send(&self, payload: Vec<u8>) -> Result<(), GridError> {
        self.wire
            .queue(true, |buf| buf.extend_from_slice(&payload))
            .map(|_| ())
    }

    /// Receives the next control frame, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// [`GridError::Disconnected`] once the stream is gone and the queue
    /// is drained.
    pub fn recv(&self) -> Result<Vec<u8>, GridError> {
        self.rx.recv().map_err(|_| GridError::Disconnected)
    }

    /// Receives the next control frame, waiting at most `timeout`;
    /// `Ok(None)` when the wait expired with nothing queued. A hang
    /// guard for peers that die without reporting — timing-only, never
    /// an input to verdicts or digests.
    ///
    /// # Errors
    ///
    /// [`GridError::Disconnected`] once the stream is gone and the queue
    /// is drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Vec<u8>>, GridError> {
        match self.rx.recv_timeout(timeout) {
            Ok(payload) => Ok(Some(payload)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(GridError::Disconnected),
        }
    }

    /// Receives a control frame without blocking; `Ok(None)` when the
    /// queue is empty.
    ///
    /// # Errors
    ///
    /// [`GridError::Disconnected`] once the stream is gone and the queue
    /// is drained.
    pub fn try_recv(&self) -> Result<Option<Vec<u8>>, GridError> {
        match self.rx.try_recv() {
            Ok(payload) => Ok(Some(payload)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(GridError::Disconnected),
        }
    }
}

/// A [`GridLink`] over a TCP stream.
///
/// Dropping the link flushes what was queued, shuts the socket down in
/// both directions and joins the link's threads; the peer observes a
/// clean disconnect after draining whatever was in flight.
#[derive(Debug)]
pub struct TcpLink {
    wire: Arc<Wire>,
    data_rx: Receiver<Vec<u8>>,
    control: ControlHandle,
    outbound: Counters,
    inbound: Counters,
    /// Where the reader announces inbound frames and the stream's end.
    heard: Arc<Mutex<Subscription>>,
    /// The reader and the writer.
    threads: Vec<JoinHandle<()>>,
}

impl TcpLink {
    /// Wraps a connected stream, spawning the reader and writer threads.
    ///
    /// The caller is expected to have completed any handshake first
    /// (see [`handshake_supervisor`] / [`handshake_participant`] for the
    /// dial-in side).
    #[must_use]
    pub fn from_stream(stream: TcpStream) -> Self {
        // The writer batches by itself; Nagle would only add delay.
        let _ = stream.set_nodelay(true);
        let wire = Arc::new(Wire {
            stream,
            out: Mutex::default(),
            work: Condvar::new(),
            room: Condvar::new(),
            drained: Condvar::new(),
            depth: AtomicUsize::new(0),
            terminal: Mutex::new(None),
        });
        let (data_tx, data_rx) = unbounded();
        let (control_tx, control_rx) = unbounded();
        let heard = Arc::new(Mutex::new(Subscription::default()));
        let reader = {
            let wire = Arc::clone(&wire);
            let announce = HangUp(Arc::clone(&heard));
            std::thread::spawn(move || reader_loop(&wire, data_tx, control_tx, announce))
        };
        let writer = {
            let wire = Arc::clone(&wire);
            std::thread::spawn(move || writer_loop(&wire))
        };
        TcpLink {
            control: ControlHandle {
                rx: control_rx,
                wire: Arc::clone(&wire),
            },
            wire,
            data_rx,
            outbound: Counters::default(),
            inbound: Counters::default(),
            heard,
            threads: vec![reader, writer],
        }
    }

    /// A cloneable handle for the control-frame plane.
    #[must_use]
    pub fn control_handle(&self) -> ControlHandle {
        self.control.clone()
    }

    /// The error that killed the stream if it died abnormally (reported
    /// once, like a frame); from then on [`GridError::Disconnected`].
    fn terminal_error(&self) -> GridError {
        self.wire
            .terminal
            .lock()
            .expect("tcp terminal poisoned")
            .take()
            .unwrap_or(GridError::Disconnected)
    }

    /// Books one received data frame and decodes it, waking the reader
    /// if this receive took the queue back down to the high-water mark.
    fn deliver(&self, frame: &[u8]) -> Result<(Message, u64), GridError> {
        if self.wire.depth.fetch_sub(1, Ordering::AcqRel) == INBOUND_HIGH_WATER + 1 {
            // Under the lock the reader checks `depth` with, so the
            // notification cannot fall between its check and its wait.
            let _out = self.wire.out();
            self.wire.drained.notify_one();
        }
        let charged = frame.len() as u64 + FRAME_HEADER_BYTES;
        self.inbound.bytes.fetch_add(charged, Ordering::Relaxed);
        self.inbound.messages.fetch_add(1, Ordering::Relaxed);
        Message::decode(frame).map(|msg| (msg, charged))
    }
}

impl GridLink for TcpLink {
    fn send_counted(&self, msg: &Message) -> Result<u64, GridError> {
        let len = self.wire.queue(false, |buf| msg.encode_into(buf))?;
        let charged = len as u64 + FRAME_HEADER_BYTES;
        self.outbound.bytes.fetch_add(charged, Ordering::Relaxed);
        self.outbound.messages.fetch_add(1, Ordering::Relaxed);
        Ok(charged)
    }

    fn recv_counted(&self) -> Result<(Message, u64), GridError> {
        match self.data_rx.recv() {
            Ok(frame) => self.deliver(&frame),
            Err(_) => Err(self.terminal_error()),
        }
    }

    fn try_recv_counted(&self) -> Result<(Message, u64), GridError> {
        match self.data_rx.try_recv() {
            Ok(frame) => self.deliver(&frame),
            Err(TryRecvError::Empty) => Err(GridError::Empty),
            Err(TryRecvError::Disconnected) => Err(self.terminal_error()),
        }
    }

    fn stats(&self) -> LinkStats {
        LinkStats {
            bytes_sent: self.outbound.bytes.load(Ordering::Relaxed),
            bytes_received: self.inbound.bytes.load(Ordering::Relaxed),
            messages_sent: self.outbound.messages.load(Ordering::Relaxed),
            messages_received: self.inbound.messages.load(Ordering::Relaxed),
        }
    }

    /// One ring per data *or* control frame the reader queues — a relay
    /// answers a ring by looking at both planes — and one for the
    /// stream's end, made after both queues report closure.
    fn subscribe(&self, bell: &Doorbell, key: usize) {
        Subscription::subscribe(&self.heard, bell, key, || {
            self.data_rx.len() + self.control.rx.len()
        });
    }
}

impl Drop for TcpLink {
    fn drop(&mut self) {
        // A poisoned queue means a link thread panicked: skip the flush,
        // still shut down and join. `drop` must not panic.
        if let Ok(mut out) = self.wire.out.lock() {
            out.closing = true;
            self.wire.work.notify_all();
            self.wire.room.notify_all();
            self.wire.drained.notify_one();
            let _ = self
                .wire
                .room
                .wait_timeout_while(out, DRAIN_PATIENCE, |out| !out.flushed);
        }
        // Ends the reader's blocking read, and a write the peer never
        // took (the patience ran out); the writer, told to close, ends
        // by itself.
        let _ = self.wire.stream.shutdown(Shutdown::Both);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Dials in as the campaign supervisor: sends a [`Hello`] carrying the
/// campaign parameter blob, waits for the broker's [`Welcome`], and
/// wraps the stream.
///
/// # Errors
///
/// [`GridError::HandshakeMismatch`] if the peer speaks a different
/// protocol version, [`GridError::Disconnected`] on stream failure.
pub fn handshake_supervisor(
    mut stream: TcpStream,
    params: &[u8],
) -> Result<(TcpLink, Welcome), GridError> {
    send_hello(
        &mut stream,
        &Hello {
            role: ROLE_SUPERVISOR,
            params: params.to_vec(),
        },
    )?;
    let welcome = recv_welcome(&mut stream)?;
    Ok((TcpLink::from_stream(stream), welcome))
}

/// Dials in as a participant process: announces itself, waits for the
/// broker's [`Welcome`] (which carries the supervisor's campaign
/// parameter blob), and wraps the stream.
///
/// # Errors
///
/// As [`handshake_supervisor`].
pub fn handshake_participant(mut stream: TcpStream) -> Result<(TcpLink, Welcome), GridError> {
    send_hello(
        &mut stream,
        &Hello {
            role: ROLE_PARTICIPANT,
            params: Vec::new(),
        },
    )?;
    let welcome = recv_welcome(&mut stream)?;
    Ok((TcpLink::from_stream(stream), welcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{recv_hello, send_welcome, write_frame};
    use std::io::Write;
    use std::net::TcpListener;

    fn loopback_pair() -> (TcpLink, TcpLink) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (accepted, _) = listener.accept().unwrap();
        let dialed = join.join().unwrap();
        (TcpLink::from_stream(accepted), TcpLink::from_stream(dialed))
    }

    #[test]
    fn roundtrip_and_charges_match_in_process_accounting() {
        let (a, b) = loopback_pair();
        let msg = Message::Commit {
            task_id: 7,
            root: vec![0xAB; 32],
        };
        let sent = a.send_counted(&msg).unwrap();
        let (got, received) = b.recv_counted().unwrap();
        assert_eq!(got, msg);
        // The charge is byte-identical to the in-memory Endpoint's.
        assert_eq!(sent, msg.wire_len() + FRAME_HEADER_BYTES);
        assert_eq!(received, sent);
        assert_eq!(a.stats().bytes_sent, sent);
        assert_eq!(b.stats().bytes_received, sent);
    }

    #[test]
    fn bidirectional_exchange() {
        let (a, b) = loopback_pair();
        a.send(&Message::Verdict {
            task_id: 1,
            accepted: true,
        })
        .unwrap();
        b.send(&Message::Verdict {
            task_id: 2,
            accepted: false,
        })
        .unwrap();
        assert_eq!(b.recv().unwrap().task_id(), 1);
        assert_eq!(a.recv().unwrap().task_id(), 2);
    }

    #[test]
    fn queued_messages_survive_peer_drop() {
        let (a, b) = loopback_pair();
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
    fn control_frames_bypass_the_message_queue() {
        let (a, b) = loopback_pair();
        a.control_handle().send(vec![1, 2, 3]).unwrap();
        a.send(&Message::Verdict {
            task_id: 9,
            accepted: true,
        })
        .unwrap();
        // The data plane sees only the message...
        assert_eq!(b.recv().unwrap().task_id(), 9);
        // ...and the control plane only the control payload.
        assert_eq!(b.control_handle().recv().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn torn_stream_surfaces_as_typed_error_after_drain() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (accepted, _) = listener.accept().unwrap();
        let mut dialed = join.join().unwrap();
        let link = TcpLink::from_stream(accepted);
        // A complete message, then a frame header promising more payload
        // than ever arrives.
        let msg = Message::Verdict {
            task_id: 5,
            accepted: true,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Data(msg.encode())).unwrap();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        dialed.write_all(&buf).unwrap();
        drop(dialed);
        assert_eq!(link.recv().unwrap().task_id(), 5);
        assert_eq!(
            link.recv().unwrap_err(),
            GridError::TornFrame {
                expected: 100,
                got: 3
            }
        );
        // The cause is reported once, where a frame would have been; from
        // then on the link is simply gone, for receives and sends alike.
        assert_eq!(link.recv().unwrap_err(), GridError::Disconnected);
        assert_eq!(link.send(&msg).unwrap_err(), GridError::Disconnected);
    }

    #[test]
    fn try_recv_empty_then_message() {
        let (a, b) = loopback_pair();
        assert_eq!(b.try_recv().unwrap_err(), GridError::Empty);
        a.send(&Message::Verdict {
            task_id: 4,
            accepted: false,
        })
        .unwrap();
        // The reader thread delivers asynchronously; block for it.
        assert_eq!(b.recv().unwrap().task_id(), 4);
    }

    #[test]
    fn handshake_roundtrip_over_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let hello = recv_hello(&mut stream).unwrap();
            assert_eq!(hello.role, ROLE_SUPERVISOR);
            assert_eq!(hello.params, b"params".to_vec());
            send_welcome(
                &mut stream,
                &Welcome {
                    peer_index: 0,
                    peer_count: 2,
                    params: Vec::new(),
                },
            )
            .unwrap();
            TcpLink::from_stream(stream)
        });
        let stream = TcpStream::connect(addr).unwrap();
        let (link, welcome) = handshake_supervisor(stream, b"params").unwrap();
        assert_eq!(welcome.peer_count, 2);
        let server_link = server.join().unwrap();
        link.send(&Message::Verdict {
            task_id: 11,
            accepted: true,
        })
        .unwrap();
        assert_eq!(server_link.recv().unwrap().task_id(), 11);
    }
}
