//! TCP transport: the length-framed protocol from [`wire`](crate::wire)
//! over real sockets, as three kinds of link.
//!
//! Which kind a socket gets follows from who holds it:
//!
//! * **[`DialLink`]** — a dial-in end: the supervisor's link into the
//!   broker ([`handshake_supervisor`]) or a joined participant process's
//!   ([`handshake_participant`]). Such a process has one link and one
//!   thread that consumes it, so that thread reads and writes the socket
//!   itself and the link spawns nothing.
//! * **[`RelaySocket`]** — one of the broker's N sockets, a
//!   [`RelayLink`]. The relay ([`Broker::relay`](crate::Broker::relay))
//!   reads each on a thread of its own, because `std` has no portable
//!   readiness wait, and writes onto it from whichever relay thread read
//!   the frame; it spawns nothing either.
//! * **[`TcpLink`]** — a [`GridLink`] with a reader and a writer thread of
//!   its own, so that one thread can wait on many of them through a
//!   [`Doorbell`]. The broker no longer uses it.
//!
//! All three mirror [`Endpoint`](crate::Endpoint)'s semantics: receives
//! drain what arrived before reporting the peer gone, and a mid-frame
//! stream death surfaces as the typed [`GridError::TornFrame`] once, where
//! a frame would have been, then as [`GridError::Disconnected`]. Control
//! frames (handshakes, slot reports) travel apart from data. None keeps
//! byte counters: a data frame on the socket is exactly
//! [`Message::charged`] bytes (see the wire module), and whoever sends or
//! receives the message counts it. All batch: a send encodes its frame —
//! header and payload — straight into the link's one outbound buffer,
//! data and control in FIFO order, and a burst (512 assignments from an
//! engine, a relay catching up) leaves in one `write_all` as a handful of
//! segments. None writes per frame, and none polls.
//!
//! # The dial-in link: one thread
//!
//! * **Outbound.** The buffer is written when the owner is about to block
//!   on a read, once it holds 64 KiB (`BATCH_KEEP_BYTES`), and when the link is
//!   dropped. So a lone frame leaves when its sender next waits for an
//!   answer, which is when the peer can first need it.
//! * **Inbound.** A wait reads once, up to 8 KiB (`READ_BUFFER_BYTES`) (or a
//!   step of a large frame), into the link's own byte buffer, and queues
//!   every whole frame in it. A deadline is the socket's read timeout,
//!   set only when the wanted timeout changes; a frame that is not whole
//!   when a wait times out stays buffered for the next one.
//! * **Ending.** Dropping the link writes what is queued, under a write
//!   timeout of `DRAIN_PATIENCE` (5 s) so a peer that stopped reading cannot
//!   hang it, then shuts the socket down.
//!
//! # The broker's socket: read by one thread, written by any
//!
//! * **Inbound.** The socket's own relay thread reads once, up to 8 KiB
//!   or a step of a large frame, and routes every whole frame in its
//!   buffer: decoded, so malformed or unroutable mail is dropped, and
//!   forwarded as the bytes it came as, which the canonical codec makes
//!   the message's one encoding.
//! * **Outbound.** A routed frame is appended to the destination socket's
//!   buffer under that socket's lock. Before it reads again, the thread
//!   writes every socket it appended to. Writes combine: a thread that
//!   finds another already writing leaves its bytes, and the writer takes
//!   them in its next batch — unless `RELAY_HIGH_WATER` (64 KiB) or more
//!   are waiting, when it waits for the writer first. So a peer that
//!   reads slowly stops the threads that feed it, with a bounded amount
//!   queued, and the kernel's TCP window throttles their own peers
//!   meanwhile. No frame is written on its own, and no writer thread
//!   wakes per batch.
//! * **Ending.** The relay shuts a socket down when the supervisor's
//!   socket ends; the participant sockets have by then been written in
//!   full, since only the supervisor's thread writes them. A socket whose
//!   read meets the end, or whose write fails, takes no more mail.
//!
//! # Liveness
//!
//! A dial-in owner blocks in a write only while the kernel refuses bytes,
//! that is while the broker's thread for its socket is not reading. That
//! thread does not read only while it writes another socket, or waits at
//! the high-water mark on the thread that does, and that write blocks only
//! while *that* socket's process does not read: because it is itself
//! blocked writing its 64 KiB batch to the broker. A wait cycle therefore
//! alternates broker threads and dial-in processes, every one of them
//! stuck in a write, with the socket buffers full both ways on every hop.
//! A relay over [`TcpLink`]s, one relay thread between their reader and
//! writer threads, has each such cycle too. A reader pauses at
//! [`INBOUND_HIGH_WATER`] queued frames when the relay thread cannot
//! drain them, and the relay thread cannot drain them while it is
//! blocked at a writer's [`OUTBOUND_HIGH_WATER`], behind a write its peer
//! refuses: the same edge, "this socket is not read because a write to
//! that one is stuck", reached after 4096 queued frames rather than after
//! one burst. A thread blocked in a combined write adds no edge the pause
//! lacks; and where one stuck write stops the single relay thread, and
//! so every link at once, here it stops only the threads that feed that
//! socket. In practice a cycle needs the engine's assignments and a
//! joiner's uploads to fill both directions of a socket each at once;
//! `tests/netgrid_stress.rs` runs that campaign to its digest.
//!
//! # The threaded link
//!
//! * **Outbound.** [`send`](GridLink::send) and [`ControlHandle::send`]
//!   append to the outbound buffer and return. The link's *writer* thread
//!   sleeps until the buffer is non-empty, takes everything in it and
//!   issues the `write_all`, so the thread that produced a burst never
//!   waits on the kernel. There is no timer and no flush call: a lone
//!   frame is written as soon as the writer wakes.
//! * **Inbound.** The *reader* thread reads through a small buffer, so
//!   one `read` drains every frame the kernel already holds, and routes
//!   data frames to the message queue and control frames to a separate
//!   queue exposed through [`ControlHandle`]. Each frame it queues rings
//!   the link's [`Doorbell`] subscription ([`GridLink::subscribe`]), and
//!   so does the stream's end.
//! * **Backpressure, both directions.** Outbound: once
//!   [`OUTBOUND_HIGH_WATER`] frames wait for the writer, a sender blocks
//!   until the writer has taken them — which it cannot do while the
//!   kernel refuses its previous batch, so a peer that stops reading stops
//!   its sender, with a bounded amount queued. Inbound: once more than
//!   [`INBOUND_HIGH_WATER`] messages are queued locally the reader sleeps
//!   until the receiving side has taken the queue back down to the mark
//!   (the receive that does so wakes it), letting the kernel's TCP window
//!   throttle the peer meanwhile. Both are timing-only — they change when
//!   bytes move, never what is charged.
//! * **Ending.** Dropping the link refuses further sends, lets the writer
//!   flush what was already queued (for `DRAIN_PATIENCE` (5 s) at most),
//!   *then* shuts the socket and joins both threads: the peer drains what
//!   was in flight and sees a clean disconnect, and nothing of the link
//!   outlives it. Once the stream is known dead — the reader met its end,
//!   or a write failed — every send reports [`GridError::Disconnected`]
//!   instead of queueing mail nobody will deliver.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use crate::transport::{HangUp, Subscription};
use crate::wire::{append_frame, read_frame, recv_welcome, send_hello, Frame, FrameBuffer};
use crate::wire::{Hello, Welcome, ROLE_PARTICIPANT, ROLE_SUPERVISOR};
use crate::{Doorbell, GridError, GridLink, Mail, Message, RelayLink};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// How long dropping a link waits for what was queued to be written
/// before shutting the socket regardless. A hang guard against a peer
/// that has stopped reading — timing-only.
const DRAIN_PATIENCE: Duration = Duration::from_secs(5);

/// What one `read` takes at most, large frames aside: enough for a few
/// hundred protocol frames, small enough not to show in a process with a
/// thousand links.
const READ_BUFFER_BYTES: usize = 8 * 1024;

/// Batch buffers that grew past this (a burst of bulk uploads) are
/// released after the write instead of kept for the link's lifetime; a
/// dial-in link also writes its buffer once it holds this much.
const BATCH_KEEP_BYTES: usize = 64 * 1024;

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
    /// mark.
    fn queue(&self, control: bool, payload: impl FnOnce(&mut Vec<u8>)) -> Result<(), GridError> {
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
        append_frame(&mut out.buf, control, payload)?;
        out.frames += 1;
        if std::mem::take(&mut out.writer_idle) {
            self.work.notify_one();
        }
        Ok(())
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
/// link itself is owned by another thread.
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
        self.wire.queue(true, |buf| buf.extend_from_slice(&payload))
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

    /// Decodes one received data frame, waking the reader if this
    /// receive took the queue back down to the high-water mark.
    fn deliver(&self, frame: &[u8]) -> Result<Message, GridError> {
        if self.wire.depth.fetch_sub(1, Ordering::AcqRel) == INBOUND_HIGH_WATER + 1 {
            // Under the lock the reader checks `depth` with, so the
            // notification cannot fall between its check and its wait.
            let _out = self.wire.out();
            self.wire.drained.notify_one();
        }
        Message::decode(frame)
    }
}

impl GridLink for TcpLink {
    fn send(&self, msg: &Message) -> Result<(), GridError> {
        self.wire.queue(false, |buf| msg.encode_into(buf))
    }

    fn recv(&self) -> Result<Message, GridError> {
        match self.data_rx.recv() {
            Ok(frame) => self.deliver(&frame),
            Err(_) => Err(self.terminal_error()),
        }
    }

    fn try_recv(&self) -> Result<Message, GridError> {
        match self.data_rx.try_recv() {
            Ok(frame) => self.deliver(&frame),
            Err(TryRecvError::Empty) => Err(GridError::Empty),
            Err(TryRecvError::Disconnected) => Err(self.terminal_error()),
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

/// A process's one link, read and written on the thread that owns it: the
/// dial-in end of a supervisor ([`handshake_supervisor`]) or of a joined
/// participant process ([`handshake_participant`]). It spawns no thread;
/// see the [module docs](self) for when its bytes move and why an owner
/// that blocks cannot deadlock the grid.
///
/// Receives drain what arrived before reporting the stream's end, which
/// comes as the typed error that killed it once (a torn frame, a length
/// overflow) and as [`GridError::Disconnected`] from then on, for receives
/// and sends alike. Control frames queue apart from data, so a wait for
/// one never consumes the other. Dropping the link writes what is still
/// queued, for `DRAIN_PATIENCE` (5 s) at most, then shuts the socket down.
#[derive(Debug)]
pub struct DialLink {
    stream: TcpStream,
    /// Received bytes not yet cut into frames.
    inbound: FrameBuffer,
    /// Data frames received and not yet taken, decoded (a malformed one
    /// as its error, in its place).
    data: VecDeque<Result<Message, GridError>>,
    /// Control frames received and not yet taken.
    control: VecDeque<Vec<u8>>,
    /// Framed bytes not yet written, data and control in send order.
    outbound: Vec<u8>,
    /// The read timeout the socket has now (`None`: reads block).
    read_timeout: Option<Duration>,
    /// The stream has ended: nothing more will be read.
    ended: bool,
    /// The stream is known dead: nothing queued can be delivered.
    dead: bool,
    /// What killed the stream, if it died abnormally; reported once.
    terminal: Option<GridError>,
}

impl DialLink {
    /// Wraps a connected stream whose handshake, if any, is complete.
    #[must_use]
    pub fn from_stream(stream: TcpStream) -> Self {
        // The owner batches by itself; Nagle would only add delay.
        let _ = stream.set_nodelay(true);
        DialLink {
            stream,
            inbound: FrameBuffer::default(),
            data: VecDeque::new(),
            control: VecDeque::new(),
            outbound: Vec::new(),
            read_timeout: None,
            ended: false,
            dead: false,
            terminal: None,
        }
    }

    /// Queues one data frame carrying `msg`. It is written when the owner
    /// next waits to receive, once 64 KiB (`BATCH_KEEP_BYTES`) are queued, or
    /// when the link is dropped.
    ///
    /// # Errors
    ///
    /// [`GridError::Disconnected`] once the stream is dead, or
    /// [`GridError::LengthOverflow`] for an oversized message.
    pub fn send(&mut self, msg: &Message) -> Result<(), GridError> {
        self.queue(false, |buf| msg.encode_into(buf))
    }

    /// Queues one control frame, behind whatever is already queued.
    ///
    /// # Errors
    ///
    /// As [`send`](Self::send).
    pub fn send_control(&mut self, payload: &[u8]) -> Result<(), GridError> {
        self.queue(true, |buf| buf.extend_from_slice(payload))
    }

    fn queue(
        &mut self,
        control: bool,
        payload: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), GridError> {
        if self.dead {
            return Err(GridError::Disconnected);
        }
        append_frame(&mut self.outbound, control, payload)?;
        if self.outbound.len() >= BATCH_KEEP_BYTES {
            self.flush();
        }
        Ok(())
    }

    /// Writes everything queued in one `write_all`; a write that fails
    /// kills the stream.
    fn flush(&mut self) {
        if self.outbound.is_empty() {
            return;
        }
        if !self.dead && (&self.stream).write_all(&self.outbound).is_err() {
            self.dead = true;
        }
        if self.outbound.capacity() > BATCH_KEEP_BYTES {
            self.outbound = Vec::new();
        } else {
            self.outbound.clear();
        }
    }

    /// Receives the next data frame, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// Once the stream has ended and what it delivered is taken, what
    /// killed it (once), then [`GridError::Disconnected`]; a malformed
    /// frame's decode error in its place.
    pub fn recv(&mut self) -> Result<Message, GridError> {
        loop {
            if let Some(msg) = self.recv_timeout(None)? {
                return Ok(msg);
            }
        }
    }

    /// Receives the next data frame, waiting at most `timeout` for bytes
    /// (`None`: no limit); `Ok(None)` when a wait passed with nothing
    /// read. A frame that is not whole when the wait ends stays buffered
    /// for the next one. Timing-only: a hang guard, never an input to
    /// verdicts or digests.
    ///
    /// # Errors
    ///
    /// As [`recv`](Self::recv).
    pub fn recv_timeout(
        &mut self,
        timeout: Option<Duration>,
    ) -> Result<Option<Message>, GridError> {
        loop {
            if let Some(msg) = self.data.pop_front() {
                return msg.map(Some);
            }
            if !self.wait(timeout)? {
                return Ok(None);
            }
        }
    }

    /// Receives the next control frame, waiting at most `timeout` for
    /// bytes; data frames that arrive meanwhile queue for
    /// [`recv`](Self::recv). Once more than [`INBOUND_HIGH_WATER`] of them
    /// are queued the wait ends as if it had timed out, so a peer cannot
    /// grow the queue without bound, or hold the wait open, by sending
    /// data where control is awaited.
    ///
    /// # Errors
    ///
    /// Once the stream has ended and its control frames are taken, what
    /// killed it (once), then [`GridError::Disconnected`].
    pub fn recv_control(
        &mut self,
        timeout: Option<Duration>,
    ) -> Result<Option<Vec<u8>>, GridError> {
        loop {
            if let Some(payload) = self.control.pop_front() {
                return Ok(Some(payload));
            }
            if self.data.len() > INBOUND_HIGH_WATER || !self.wait(timeout)? {
                return Ok(None);
            }
        }
    }

    /// The owner is about to block: writes what is queued, then reads
    /// once, for at most `timeout`, and queues every whole frame that
    /// arrived. `Ok(false)` when the wait passed with nothing read.
    fn wait(&mut self, timeout: Option<Duration>) -> Result<bool, GridError> {
        if self.ended {
            return Err(self.terminal.take().unwrap_or(GridError::Disconnected));
        }
        self.flush();
        // A zero timeout would mean "none" to the socket: the shortest
        // wait it takes still reads what has already arrived.
        let timeout = timeout.map(|wait| wait.max(Duration::from_micros(1)));
        if timeout != self.read_timeout {
            if self.stream.set_read_timeout(timeout).is_err() {
                self.end(None);
                return Ok(true);
            }
            self.read_timeout = timeout;
        }
        let read = match self.inbound.room(READ_BUFFER_BYTES) {
            Ok(room) => (&self.stream).read(room),
            Err(e) => {
                self.end(Some(e));
                return Ok(true);
            }
        };
        match read {
            Ok(0) => {
                let torn = self.inbound.at_end().err();
                self.end(torn);
            }
            Ok(n) => {
                self.inbound.filled(n);
                self.take_frames();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(false);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => self.end(None),
        }
        Ok(true)
    }

    /// Queues every whole frame the inbound buffer holds.
    fn take_frames(&mut self) {
        loop {
            match self.inbound.next_frame() {
                Ok(Some((false, payload))) => self.data.push_back(Message::decode(payload)),
                Ok(Some((true, payload))) => self.control.push_back(payload.to_vec()),
                Ok(None) => return,
                Err(e) => return self.end(Some(e)),
            }
        }
    }

    /// The stream has ended, killed by `terminal` if it did not end
    /// cleanly: nothing more is read or written.
    fn end(&mut self, terminal: Option<GridError>) {
        self.ended = true;
        self.dead = true;
        self.terminal = terminal;
    }
}

impl Drop for DialLink {
    fn drop(&mut self) {
        // A peer that stopped reading gets the patience, not the process.
        if !self.dead && !self.outbound.is_empty() {
            let _ = self.stream.set_write_timeout(Some(DRAIN_PATIENCE));
            self.flush();
        }
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// The outbound side of a [`RelaySocket`], which any relay thread may
/// queue onto.
#[derive(Debug, Default)]
struct RelayOutbound {
    /// Framed bytes queued and not yet taken by a writer, in queue order.
    buf: Vec<u8>,
    /// The batch last written, emptied, for the next one.
    spare: Vec<u8>,
    /// A thread is writing: whatever is queued meanwhile is its to take.
    writing: bool,
    /// Threads waiting at [`RELAY_HIGH_WATER`].
    waiting: usize,
    /// The stream is known dead, or the link was shut down: nothing queued
    /// can be delivered.
    dead: bool,
}

/// Queued bytes at which a thread that queued onto a socket another
/// thread is writing waits for that writer to take them, rather than go
/// back to reading its own socket. What keeps a relayed socket's memory
/// flat while its peer reads slowly.
const RELAY_HIGH_WATER: usize = BATCH_KEEP_BYTES;

/// One of the broker's sockets, a [`RelayLink`] that the relay
/// ([`Broker::relay`](crate::Broker::relay)) serves on a thread of its
/// own, and that any relay thread may queue onto. It spawns no thread; see
/// the [module docs](self) for when its bytes move and why a relay thread
/// that blocks in a write cannot hang the grid.
///
/// A receive takes one read and hands over every whole frame in it; the
/// stream's end comes, after what arrived before it, as what killed it (a
/// torn frame, a length overflow) or as [`GridError::Disconnected`], and
/// from then on nothing queued onto the socket is delivered. Data frames
/// that do not decode are dropped.
#[derive(Debug)]
pub struct RelaySocket {
    stream: TcpStream,
    /// Received bytes not yet cut into frames. Only the socket's own
    /// thread receives, so this lock is never contended.
    inbound: Mutex<FrameBuffer>,
    out: Mutex<RelayOutbound>,
    /// Threads at the high-water mark wait here for the writer to take
    /// what is queued.
    room: Condvar,
}

impl RelaySocket {
    /// Wraps a connected stream whose handshake, if any, is complete.
    #[must_use]
    pub fn from_stream(stream: TcpStream) -> Self {
        // The relay batches by itself; Nagle would only add delay.
        let _ = stream.set_nodelay(true);
        RelaySocket {
            stream,
            inbound: Mutex::default(),
            out: Mutex::default(),
            room: Condvar::new(),
        }
    }

    fn out(&self) -> MutexGuard<'_, RelayOutbound> {
        self.out.lock().expect("relay outbound poisoned")
    }

    /// Nothing more can be delivered: marks the socket dead, releases the
    /// threads waiting on a writer, and returns what ended it.
    fn end(&self, terminal: Option<GridError>) -> GridError {
        let mut out = self.out();
        out.dead = true;
        if out.waiting > 0 {
            self.room.notify_all();
        }
        terminal.unwrap_or(GridError::Disconnected)
    }

    /// Writes what is queued, batch after batch, until nothing is left:
    /// bytes other threads queue while a batch is in the kernel leave in
    /// the next one. Called by the thread that just set `writing`.
    fn write_out<'a>(&'a self, mut out: MutexGuard<'a, RelayOutbound>) {
        loop {
            let mut batch = std::mem::take(&mut out.spare);
            std::mem::swap(&mut batch, &mut out.buf);
            if out.waiting > 0 {
                self.room.notify_all();
            }
            drop(out);
            let written = (&self.stream).write_all(&batch).is_ok();
            batch.clear();
            out = self.out();
            if batch.capacity() <= BATCH_KEEP_BYTES {
                out.spare = batch;
            }
            if !written {
                out.dead = true;
                out.buf.clear();
            }
            if out.dead || out.buf.is_empty() {
                out.writing = false;
                if out.waiting > 0 {
                    self.room.notify_all();
                }
                return;
            }
        }
    }
}

impl RelayLink for RelaySocket {
    /// One read, up to 8 KiB (`READ_BUFFER_BYTES`) or a step of a large
    /// frame, and every whole frame in the socket's buffer, decoded.
    fn recv_burst(&self, relay: &mut dyn FnMut(Mail<'_>)) -> Result<(), GridError> {
        let mut inbound = self.inbound.lock().expect("relay inbound poisoned");
        let read = loop {
            let room = match inbound.room(READ_BUFFER_BYTES) {
                Ok(room) => room,
                Err(e) => return Err(self.end(Some(e))),
            };
            match (&self.stream).read(room) {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                read => break read,
            }
        };
        match read {
            Ok(0) => {
                let torn = inbound.at_end().err();
                return Err(self.end(torn));
            }
            Ok(n) => inbound.filled(n),
            Err(_) => return Err(self.end(None)),
        }
        loop {
            match inbound.next_frame() {
                Ok(Some((false, frame))) => {
                    if let Ok(msg) = Message::decode(frame) {
                        relay(Mail::Data(&msg, Some(frame)));
                    }
                }
                Ok(Some((true, payload))) => relay(Mail::Control(payload)),
                Ok(None) => return Ok(()),
                Err(e) => return Err(self.end(Some(e))),
            }
        }
    }

    fn queue(&self, mail: Mail<'_>) -> Result<(), GridError> {
        let mut out = self.out();
        if out.dead {
            return Err(GridError::Disconnected);
        }
        match mail {
            Mail::Data(_, Some(frame)) => {
                append_frame(&mut out.buf, false, |buf| buf.extend_from_slice(frame))
            }
            Mail::Data(msg, None) => append_frame(&mut out.buf, false, |buf| msg.encode_into(buf)),
            Mail::Control(payload) => {
                append_frame(&mut out.buf, true, |buf| buf.extend_from_slice(payload))
            }
        }
    }

    /// Writes what is queued, unless another thread is writing: that
    /// writer takes it in its next batch, and this thread waits only while
    /// `RELAY_HIGH_WATER` (64 KiB) or more wait for it.
    fn flush(&self) {
        let mut out = self.out();
        loop {
            if out.dead || out.buf.is_empty() {
                return;
            }
            if !out.writing {
                out.writing = true;
                return self.write_out(out);
            }
            if out.buf.len() < RELAY_HIGH_WATER {
                return;
            }
            out.waiting += 1;
            out = self.room.wait(out).expect("relay outbound poisoned");
            out.waiting -= 1;
        }
    }

    fn shut_down(&self) {
        let _ = self.end(None);
        let _ = self.stream.shutdown(Shutdown::Both);
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
) -> Result<(DialLink, Welcome), GridError> {
    send_hello(
        &mut stream,
        &Hello {
            role: ROLE_SUPERVISOR,
            params: params.to_vec(),
        },
    )?;
    let welcome = recv_welcome(&mut stream)?;
    Ok((DialLink::from_stream(stream), welcome))
}

/// Dials in as a participant process: announces itself, waits for the
/// broker's [`Welcome`] (which carries the supervisor's campaign
/// parameter blob), and wraps the stream.
///
/// # Errors
///
/// As [`handshake_supervisor`].
pub fn handshake_participant(mut stream: TcpStream) -> Result<(DialLink, Welcome), GridError> {
    send_hello(
        &mut stream,
        &Hello {
            role: ROLE_PARTICIPANT,
            params: Vec::new(),
        },
    )?;
    let welcome = recv_welcome(&mut stream)?;
    Ok((DialLink::from_stream(stream), welcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{recv_hello, send_welcome, write_frame};
    use std::io::Write;
    use std::net::TcpListener;

    /// A link on the accepting end of a loopback connection, and the raw
    /// dialed stream.
    fn link_and_raw_peer() -> (TcpLink, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dialed = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (TcpLink::from_stream(accepted), dialed)
    }

    fn loopback_pair() -> (TcpLink, TcpLink) {
        let (link, dialed) = link_and_raw_peer();
        (link, TcpLink::from_stream(dialed))
    }

    #[test]
    fn roundtrip_and_charges_match_in_process_accounting() {
        // A raw peer reads what the link put on the socket: one data
        // frame, exactly the message's charge in size.
        let (link, mut raw) = link_and_raw_peer();
        let msg = Message::Commit {
            task_id: 7,
            root: vec![0xAB; 32],
        };
        link.send(&msg).unwrap();
        let Some(Frame::Data(payload)) = read_frame(&mut raw).unwrap() else {
            panic!("expected one data frame");
        };
        assert_eq!(payload.len() as u64 + 4, msg.charged());
        assert_eq!(Message::decode(&payload).unwrap(), msg);
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
        let (link, mut dialed) = link_and_raw_peer();
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
        let (mut link, welcome) = handshake_supervisor(stream, b"params").unwrap();
        assert_eq!(welcome.peer_count, 2);
        let server_link = server.join().unwrap();
        link.send(&Message::Verdict {
            task_id: 11,
            accepted: true,
        })
        .unwrap();
        // A dial-in link writes when its owner would block, or when it
        // goes: here it goes.
        drop(link);
        assert_eq!(server_link.recv().unwrap().task_id(), 11);
    }

    /// A dial-in link on the accepting end of a loopback connection, and
    /// the raw dialed stream.
    fn dial_link_and_raw_peer() -> (DialLink, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dialed = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (DialLink::from_stream(accepted), dialed)
    }

    fn dial_link_pair() -> (DialLink, DialLink) {
        let (link, dialed) = dial_link_and_raw_peer();
        (link, DialLink::from_stream(dialed))
    }

    #[test]
    fn dial_link_roundtrip_charges_match_and_a_wait_writes() {
        let (mut a, mut b) = dial_link_pair();
        let msg = Message::Commit {
            task_id: 7,
            root: vec![0xAB; 32],
        };
        a.send(&msg).unwrap();
        // Nothing is written until `a` waits; a short wait does it.
        assert_eq!(a.recv_timeout(Some(Duration::ZERO)).unwrap(), None);
        assert_eq!(b.recv().unwrap(), msg);
        b.send(&Message::Verdict {
            task_id: 7,
            accepted: true,
        })
        .unwrap();
        assert_eq!(b.recv_timeout(Some(Duration::ZERO)).unwrap(), None);
        assert_eq!(a.recv().unwrap().task_id(), 7);
    }

    #[test]
    fn dial_link_queued_messages_survive_peer_drop() {
        let (mut a, mut b) = dial_link_pair();
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
    fn dial_link_control_frames_bypass_the_message_queue() {
        let (mut a, mut b) = dial_link_pair();
        a.send_control(&[1, 2, 3]).unwrap();
        a.send(&Message::Verdict {
            task_id: 9,
            accepted: true,
        })
        .unwrap();
        drop(a);
        // The data plane sees only the message...
        assert_eq!(b.recv().unwrap().task_id(), 9);
        // ...and the control plane only the control payload.
        assert_eq!(b.recv_control(None).unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(b.recv_control(None).unwrap_err(), GridError::Disconnected);
    }

    #[test]
    fn dial_link_torn_stream_surfaces_as_typed_error_after_drain() {
        let (mut link, mut dialed) = dial_link_and_raw_peer();
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
    fn dial_link_refuses_an_oversized_header_without_allocating_for_it() {
        let (mut link, mut dialed) = dial_link_and_raw_peer();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "(1<<30)+1 fits u32; this deliberately forges a hostile header"
        )]
        let word = (crate::wire::MAX_FRAME_LEN + 1) as u32;
        dialed.write_all(&word.to_le_bytes()).unwrap();
        assert_eq!(
            link.recv().unwrap_err(),
            GridError::LengthOverflow {
                declared: crate::wire::MAX_FRAME_LEN + 1
            }
        );
        assert!(link.inbound.capacity() <= READ_BUFFER_BYTES);
        assert_eq!(link.recv().unwrap_err(), GridError::Disconnected);
    }

    #[test]
    fn dial_link_stops_waiting_for_control_behind_a_flood_of_data() {
        let (mut link, mut dialed) = dial_link_and_raw_peer();
        let mut flood = Vec::new();
        for task_id in 0..=INBOUND_HIGH_WATER as u64 {
            let msg = Message::Verdict {
                task_id,
                accepted: true,
            };
            write_frame(&mut flood, &Frame::Data(msg.encode())).unwrap();
        }
        dialed.write_all(&flood).unwrap();
        // The peer stays connected and silent: without the mark the wait
        // would read the flood and then sit out its whole patience.
        assert_eq!(link.recv_control(Some(Duration::from_secs(60))), Ok(None));
        assert_eq!(link.data.len(), INBOUND_HIGH_WATER + 1);
        assert_eq!(link.recv().unwrap().task_id(), 0);
    }

    #[test]
    fn dial_link_keeps_a_frame_split_across_a_read_timeout() {
        let (mut link, mut dialed) = dial_link_and_raw_peer();
        let msg = Message::Commit {
            task_id: 12,
            root: vec![0x5A; 32],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Data(msg.encode())).unwrap();
        let (head, tail) = buf.split_at(buf.len() / 2);
        dialed.write_all(head).unwrap();
        // The wait reads the first half, then times out on the second.
        assert_eq!(
            link.recv_timeout(Some(Duration::from_millis(50))).unwrap(),
            None
        );
        dialed.write_all(tail).unwrap();
        assert_eq!(
            link.recv_timeout(Some(Duration::from_secs(5))).unwrap(),
            Some(msg)
        );
    }
}
