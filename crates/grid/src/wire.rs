//! Length-framed socket wire protocol.
//!
//! Everything the grid sends between OS processes travels as
//! `[u32 len LE][payload]` frames over a byte stream. Bit 31 of the
//! length word marks a *control* frame (handshakes, participant cost
//! reports) — grid plumbing that is never charged to a session's byte
//! account. Data frames carry exactly one encoded [`Message`] as their
//! payload, so a data frame's physical wire cost is
//! [`Message::charged`](crate::Message::charged) — the figure a session
//! is charged on every transport, and because the codec is canonical,
//! also what a receiver's decoded message says. That identity is what
//! makes cross-process summary digests bit-identical to in-process ones.
//!
//! Stream ends are classified like the journal's tail: an EOF on a frame
//! boundary is a clean disconnect ([`read_frame`] returns `Ok(None)`),
//! while an EOF mid-frame is a torn frame and surfaces as the typed
//! [`GridError::TornFrame`] — expected after a peer process dies, never
//! silently swallowed.
//!
//! [`Message`]: crate::Message
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use crate::codec::{get_bytes, get_u32, put_bytes, put_var};
use crate::GridError;
use std::io::{ErrorKind, IoSlice, Read, Write};

/// Protocol version spoken by this build; bumped on any frame, message
/// or handshake layout change, and never mixed. Version 2 answers a
/// round's samples with one [`Opening`](crate::Opening) where version 1
/// sent a path per sample; version 3 writes the slot-report control
/// frame in canonical LEB128; version 4's slot report carries the paper's
/// four cost axes, not five counters; version 5 writes every payload
/// integer — of a message, a handshake body, the campaign blob — in that
/// LEB128 where versions 1–4 wrote fixed 8- and 4-byte words, so a swarm
/// session is charged about a third fewer bytes. The magic and this
/// version word stay fixed-width, so a peer of any version is refused by
/// name.
pub const WIRE_VERSION: u32 = 5;

/// Magic prefix opening every handshake payload, so a non-grid peer is
/// rejected before any length field is trusted.
pub const WIRE_MAGIC: [u8; 8] = *b"UGCGRID\0";

/// Largest payload a frame may declare (matches the codec's
/// [`MAX_FIELD_LEN`](crate::codec::MAX_FIELD_LEN) guard).
pub const MAX_FRAME_LEN: u64 = crate::codec::MAX_FIELD_LEN;

/// The most [`read_frame`] allocates ahead of the payload bytes it has
/// received; a frame of at most this size is read into one allocation.
const READ_STEP: usize = 64 << 10;

/// Bit 31 of the length word: set for control frames. Payload lengths
/// are capped at [`MAX_FRAME_LEN`] (`1 << 30`), so the bit is always
/// free.
const CONTROL_BIT: u32 = 1 << 31;

/// Peer role announced in a [`Hello`].
pub const ROLE_PARTICIPANT: u8 = 0;
/// Peer role announced in a [`Hello`].
pub const ROLE_SUPERVISOR: u8 = 1;

/// One frame off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// An encoded [`Message`](crate::Message); charged to the session.
    Data(Vec<u8>),
    /// Grid plumbing (handshake, cost report); never charged.
    Control(Vec<u8>),
}

impl Frame {
    /// The frame's payload bytes.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        match self {
            Frame::Data(p) | Frame::Control(p) => p,
        }
    }
}

/// The length word of a frame carrying `len` payload bytes.
fn header_word(len: usize, control: bool) -> Result<[u8; 4], GridError> {
    let len = len as u64;
    if len > MAX_FRAME_LEN {
        return Err(GridError::LengthOverflow { declared: len });
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "bounded above by MAX_FRAME_LEN (1<<30), fits u32"
    )]
    let mut word = len as u32;
    if control {
        word |= CONTROL_BIT;
    }
    Ok(word.to_le_bytes())
}

/// Appends one frame to `buf`: reserves the header, lets `payload` write
/// the payload in place behind it, then fills the length in. How a
/// [`TcpLink`](crate::TcpLink) frames — no intermediate payload buffer,
/// and any number of frames back to back in one buffer, ready for one
/// `write`.
///
/// # Errors
///
/// [`GridError::LengthOverflow`] if the payload exceeds
/// [`MAX_FRAME_LEN`]; `buf` is left as it was.
pub(crate) fn append_frame(
    buf: &mut Vec<u8>,
    control: bool,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Result<(), GridError> {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    payload(buf);
    match header_word(buf.len() - start - 4, control) {
        Ok(word) => {
            buf[start..start + 4].copy_from_slice(&word);
            Ok(())
        }
        Err(e) => {
            buf.truncate(start);
            Err(e)
        }
    }
}

/// Writes one frame to `w`: header and payload leave in a single
/// vectored write (one `writev` on a socket, one append into memory), so
/// a frame is never split across two segments by its own writer.
///
/// # Errors
///
/// [`GridError::LengthOverflow`] if the payload exceeds
/// [`MAX_FRAME_LEN`]; [`GridError::Disconnected`] if the underlying
/// stream fails.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), GridError> {
    let payload = frame.payload();
    let header = header_word(payload.len(), matches!(frame, Frame::Control(_)))?;
    let total = header.len() + payload.len();
    let mut written = 0;
    // A short write (a full socket buffer) resumes where it stopped.
    while written < total {
        let parts = [
            IoSlice::new(&header[written.min(header.len())..]),
            IoSlice::new(&payload[written.saturating_sub(header.len())..]),
        ];
        match w.write_vectored(&parts) {
            Ok(0) => return Err(GridError::Disconnected),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(GridError::Disconnected),
        }
    }
    w.flush().map_err(|_| GridError::Disconnected)
}

/// The payload length a frame's header declares, and whether the frame
/// is a control frame: the one check every reader makes before it trusts
/// a length.
fn read_header(header: [u8; 4]) -> Result<(bool, usize), GridError> {
    let word = u32::from_le_bytes(header);
    let len = u64::from(word & !CONTROL_BIT);
    if len > MAX_FRAME_LEN {
        return Err(GridError::LengthOverflow { declared: len });
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "bounded above by MAX_FRAME_LEN (1<<30), well inside usize on every supported platform"
    )]
    Ok((word & CONTROL_BIT != 0, len as usize))
}

/// Bytes read off a stream and not yet taken as frames: the one frame
/// parser, behind [`read_frame`] and behind a
/// [`DialLink`](crate::DialLink)'s receive.
///
/// A reader asks it for [`room`](Self::room), reads into that, reports
/// how much arrived with [`filled`](Self::filled) and takes every whole
/// frame with [`next_frame`](Self::next_frame). The buffer grows as
/// bytes arrive, by at most [`READ_STEP`] past them for the frame in
/// hand, so a header alone never buys its sender more than one step of
/// the reader's memory, and a header declaring more than
/// [`MAX_FRAME_LEN`] is refused before anything grows. Bytes of a frame
/// not yet whole stay put, however many reads it takes; where the stream
/// ends, [`at_end`](Self::at_end) classifies what is left.
#[derive(Debug, Default)]
pub(crate) struct FrameBuffer {
    /// Initialised storage; `start..end` holds the bytes not yet taken.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuffer {
    /// A buffer whose first growth stays within `capacity` bytes.
    fn with_capacity(capacity: usize) -> Self {
        FrameBuffer {
            buf: Vec::with_capacity(capacity),
            start: 0,
            end: 0,
        }
    }

    /// The frame at the head of the buffer: `Ok((control, len))` when it
    /// is whole, `Err(missing)` with the bytes it still lacks otherwise.
    fn head(&self) -> Result<Result<(bool, usize), usize>, GridError> {
        let held = &self.buf[self.start..self.end];
        let Some((&header, payload)) = held.split_first_chunk::<4>() else {
            return Ok(Err(4 - held.len()));
        };
        let (control, len) = read_header(header)?;
        Ok(match len.checked_sub(payload.len()) {
            Some(missing @ 1..) => Err(missing),
            _ => Ok((control, len)),
        })
    }

    /// Takes the next whole frame, if the buffer holds one: whether it is
    /// a control frame, and its payload.
    ///
    /// # Errors
    ///
    /// [`GridError::LengthOverflow`] if the next header declares more
    /// than [`MAX_FRAME_LEN`] bytes.
    pub(crate) fn next_frame(&mut self) -> Result<Option<(bool, &[u8])>, GridError> {
        let Ok((control, len)) = self.head()? else {
            return Ok(None);
        };
        let at = self.start + 4;
        self.start = at + len;
        Ok(Some((control, &self.buf[at..at + len])))
    }

    /// Where the next read goes: room for what the frame in hand still
    /// lacks, [`READ_STEP`] of it at most, and for at least `ahead` bytes
    /// in all. With `ahead` zero a read never takes a byte past the frame
    /// in hand. A buffer left empty after growing past a step for one
    /// large frame is released first.
    ///
    /// # Errors
    ///
    /// As [`next_frame`](Self::next_frame).
    pub(crate) fn room(&mut self, ahead: usize) -> Result<&mut [u8], GridError> {
        let lacking = self.head()?.err().unwrap_or(0);
        let want = lacking.min(READ_STEP).max(ahead);
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
            if self.buf.len() > READ_STEP {
                self.buf = Vec::new();
            }
        }
        if self.buf.len() - self.end < want {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= std::mem::take(&mut self.start);
            if self.buf.len() - self.end < want {
                self.buf.resize(self.end + want, 0);
            }
        }
        Ok(&mut self.buf[self.end..self.end + want])
    }

    /// The bytes the buffer holds storage for.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Records that a read put `n` bytes at the start of the last
    /// [`room`](Self::room).
    pub(crate) fn filled(&mut self, n: usize) {
        self.end += n;
        debug_assert!(self.end <= self.buf.len(), "filled past the room");
    }

    /// What the stream ending here means: `Ok` on a frame boundary (a
    /// clean close), a [`GridError::TornFrame`] naming what the last
    /// frame declared and got otherwise.
    ///
    /// # Errors
    ///
    /// The torn frame, or the length overflow its header declared.
    pub(crate) fn at_end(&self) -> Result<(), GridError> {
        let held = &self.buf[self.start..self.end];
        let (expected, got) = match held.split_first_chunk::<4>() {
            None if held.is_empty() => return Ok(()),
            None => (4, held.len()),
            Some((&header, payload)) => (read_header(header)?.1, payload.len()),
        };
        Err(GridError::TornFrame {
            expected: expected as u64,
            got: got as u64,
        })
    }
}

/// Reads once from `r` into `buf`, retrying an interrupted read; 0 means
/// the stream ended.
fn read_some<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, GridError> {
    loop {
        match r.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(GridError::Disconnected),
        }
    }
}

/// Reads one frame from `r`, never a byte past it, so a handshake can
/// read its frame before a link takes the stream over.
///
/// Returns `Ok(None)` on a clean close (EOF exactly on a frame
/// boundary).
///
/// # Errors
///
/// [`GridError::TornFrame`] if the stream ends mid-frame,
/// [`GridError::LengthOverflow`] if the header declares more than
/// [`MAX_FRAME_LEN`] bytes, [`GridError::Disconnected`] on stream
/// failure.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, GridError> {
    // Room for a protocol frame of the common size in one allocation,
    // which becomes the payload's.
    let mut frames = FrameBuffer::with_capacity(256);
    loop {
        if let Ok((control, len)) = frames.head()? {
            let mut payload = frames.buf;
            payload.truncate(4 + len);
            payload.drain(..4);
            return Ok(Some(if control {
                Frame::Control(payload)
            } else {
                Frame::Data(payload)
            }));
        }
        match read_some(r, frames.room(0)?)? {
            0 => return frames.at_end().map(|()| None),
            n => frames.filled(n),
        }
    }
}

/// First handshake frame, sent by whoever dialed in.
///
/// A supervisor's `params` carry the campaign parameter blob (the same
/// bytes the journal header records as the application identity); the
/// broker relays them verbatim to every participant so all processes
/// rebuild the identical fleet. Participants send empty `params`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// [`ROLE_PARTICIPANT`] or [`ROLE_SUPERVISOR`].
    pub role: u8,
    /// Campaign identity blob (supervisor) or empty (participant).
    pub params: Vec<u8>,
}

/// Broker's handshake reply once the grid is assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Welcome {
    /// This peer's index among the broker's peers of its role.
    pub peer_index: u32,
    /// How many participant processes the broker is relaying for.
    pub peer_count: u32,
    /// The supervisor's campaign parameter blob, relayed verbatim
    /// (empty in the supervisor's own welcome).
    pub params: Vec<u8>,
}

/// The magic and the version word: fixed-width, read before any payload
/// layout is known.
fn put_preamble(buf: &mut Vec<u8>) {
    buf.extend_from_slice(&WIRE_MAGIC);
    buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
}

/// Checks magic + version; on success leaves `buf` past the preamble.
fn get_preamble(buf: &mut &[u8]) -> Result<(), GridError> {
    if buf.len() < WIRE_MAGIC.len() || buf[..WIRE_MAGIC.len()] != WIRE_MAGIC {
        return Err(GridError::HandshakeMismatch {
            ours: WIRE_VERSION,
            theirs: 0,
        });
    }
    let Some((word, rest)) = buf[WIRE_MAGIC.len()..].split_first_chunk::<4>() else {
        return Err(GridError::UnexpectedEof {
            context: "handshake version".into(),
        });
    };
    *buf = rest;
    let version = u32::from_le_bytes(*word);
    if version != WIRE_VERSION {
        return Err(GridError::HandshakeMismatch {
            ours: WIRE_VERSION,
            theirs: version,
        });
    }
    Ok(())
}

impl Hello {
    /// Encodes this hello as a control-frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_preamble(&mut buf);
        buf.push(self.role);
        put_bytes(&mut buf, &self.params);
        buf
    }

    /// Decodes a control-frame payload.
    ///
    /// # Errors
    ///
    /// [`GridError::HandshakeMismatch`] on a bad magic or foreign
    /// version; codec errors on truncation.
    pub fn decode(payload: &[u8]) -> Result<Self, GridError> {
        let mut buf = payload;
        get_preamble(&mut buf)?;
        let (&role, rest) = buf.split_first().ok_or(GridError::UnexpectedEof {
            context: "hello role".into(),
        })?;
        buf = rest;
        let params = get_bytes(&mut buf, "hello params")?;
        if !buf.is_empty() {
            return Err(GridError::TrailingBytes {
                remaining: buf.len(),
            });
        }
        Ok(Hello { role, params })
    }
}

impl Welcome {
    /// Encodes this welcome as a control-frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_preamble(&mut buf);
        put_var(&mut buf, u64::from(self.peer_index));
        put_var(&mut buf, u64::from(self.peer_count));
        put_bytes(&mut buf, &self.params);
        buf
    }

    /// Decodes a control-frame payload.
    ///
    /// # Errors
    ///
    /// As [`Hello::decode`].
    pub fn decode(payload: &[u8]) -> Result<Self, GridError> {
        let mut buf = payload;
        get_preamble(&mut buf)?;
        let peer_index = get_u32(&mut buf, "welcome index")?;
        let peer_count = get_u32(&mut buf, "welcome count")?;
        let params = get_bytes(&mut buf, "welcome params")?;
        if !buf.is_empty() {
            return Err(GridError::TrailingBytes {
                remaining: buf.len(),
            });
        }
        Ok(Welcome {
            peer_index,
            peer_count,
            params,
        })
    }
}

/// Writes a handshake hello as a control frame.
///
/// # Errors
///
/// As [`write_frame`].
pub fn send_hello<W: Write>(w: &mut W, hello: &Hello) -> Result<(), GridError> {
    write_frame(w, &Frame::Control(hello.encode()))
}

/// Reads a handshake hello.
///
/// # Errors
///
/// [`GridError::Disconnected`] if the peer hung up first,
/// [`GridError::HandshakeMismatch`] if the first frame is not a valid
/// hello, plus [`read_frame`]'s errors.
pub fn recv_hello<R: Read>(r: &mut R) -> Result<Hello, GridError> {
    match read_frame(r)? {
        Some(Frame::Control(payload)) => Hello::decode(&payload),
        Some(Frame::Data(_)) => Err(GridError::HandshakeMismatch {
            ours: WIRE_VERSION,
            theirs: 0,
        }),
        None => Err(GridError::Disconnected),
    }
}

/// Writes a handshake welcome as a control frame.
///
/// # Errors
///
/// As [`write_frame`].
pub fn send_welcome<W: Write>(w: &mut W, welcome: &Welcome) -> Result<(), GridError> {
    write_frame(w, &Frame::Control(welcome.encode()))
}

/// Reads a handshake welcome.
///
/// # Errors
///
/// As [`recv_hello`].
pub fn recv_welcome<R: Read>(r: &mut R) -> Result<Welcome, GridError> {
    match read_frame(r)? {
        Some(Frame::Control(payload)) => Welcome::decode(&payload),
        Some(Frame::Data(_)) => Err(GridError::HandshakeMismatch {
            ours: WIRE_VERSION,
            theirs: 0,
        }),
        None => Err(GridError::Disconnected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).unwrap();
        let mut cursor = Cursor::new(buf);
        read_frame(&mut cursor).unwrap().unwrap()
    }

    #[test]
    fn data_frame_roundtrip() {
        let frame = Frame::Data(vec![1, 2, 3, 4, 5]);
        assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn control_frame_roundtrip() {
        let frame = Frame::Control(vec![9; 100]);
        assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn empty_frame_roundtrip() {
        let frame = Frame::Data(Vec::new());
        assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn data_frame_wire_cost_is_the_charged_cost() {
        // The digest identity hinges on this: a data frame's physical
        // bytes are the message's charge, nothing more.
        let msg = crate::Message::Commit {
            task_id: 7,
            root: vec![7u8; 33],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Data(msg.encode())).unwrap();
        assert_eq!(buf.len() as u64, msg.charged());
    }

    #[test]
    fn clean_eof_on_frame_boundary() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Data(vec![1, 2, 3])).unwrap();
        let mut cursor = Cursor::new(buf);
        assert!(read_frame(&mut cursor).unwrap().is_some());
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn every_truncation_point_is_torn_or_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Data(vec![5; 10])).unwrap();
        for cut in 0..buf.len() {
            let mut cursor = Cursor::new(&buf[..cut]);
            let result = read_frame(&mut cursor);
            if cut == 0 {
                assert_eq!(result, Ok(None), "cut {cut}");
            } else {
                assert!(
                    matches!(result, Err(GridError::TornFrame { .. })),
                    "cut {cut}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn oversized_length_rejected_without_allocating() {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "(1<<30)+1 fits u32; this deliberately forges a hostile header"
        )]
        let word = (MAX_FRAME_LEN + 1) as u32;
        let mut cursor = Cursor::new(word.to_le_bytes().to_vec());
        assert_eq!(
            read_frame(&mut cursor),
            Err(GridError::LengthOverflow {
                declared: MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn hello_roundtrip() {
        let hello = Hello {
            role: ROLE_SUPERVISOR,
            params: b"campaign blob".to_vec(),
        };
        let decoded = Hello::decode(&hello.encode()).unwrap();
        assert_eq!(decoded, hello);
    }

    #[test]
    fn welcome_roundtrip() {
        let welcome = Welcome {
            peer_index: 3,
            peer_count: 8,
            params: b"campaign blob".to_vec(),
        };
        let decoded = Welcome::decode(&welcome.encode()).unwrap();
        assert_eq!(decoded, welcome);
    }

    #[test]
    fn foreign_version_is_a_typed_mismatch() {
        let hello = Hello {
            role: ROLE_PARTICIPANT,
            params: Vec::new(),
        };
        let mut payload = hello.encode();
        // Corrupt the version word (bytes 8..12, little-endian).
        payload[8] = 0xEE;
        let err = Hello::decode(&payload).unwrap_err();
        assert!(matches!(
            err,
            GridError::HandshakeMismatch {
                ours: WIRE_VERSION,
                ..
            }
        ));
    }

    #[test]
    fn a_version_1_hello_is_refused() {
        // What a peer of an earlier version sends: same magic, same
        // layout, another version word. Version 1 sent a path per sample;
        // version 2 wrote slot reports in fixed-width integers, version 3
        // five cost counters.
        let hello = Hello {
            role: ROLE_PARTICIPANT,
            params: vec![1, 2, 3],
        };
        for version in 1..WIRE_VERSION {
            let mut payload = hello.encode();
            assert_eq!(payload[8..12], WIRE_VERSION.to_le_bytes());
            payload[8..12].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                Hello::decode(&payload),
                Err(GridError::HandshakeMismatch {
                    ours: WIRE_VERSION,
                    theirs: version
                })
            );
        }
    }

    #[test]
    fn garbage_magic_is_a_typed_mismatch() {
        assert_eq!(
            Hello::decode(b"HTTP/1.1 200 OK\r\n"),
            Err(GridError::HandshakeMismatch {
                ours: WIRE_VERSION,
                theirs: 0,
            })
        );
    }

    #[test]
    fn handshake_over_stream() {
        let mut buf = Vec::new();
        let hello = Hello {
            role: ROLE_SUPERVISOR,
            params: vec![1, 2, 3],
        };
        send_hello(&mut buf, &hello).unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(recv_hello(&mut cursor).unwrap(), hello);
    }

    #[test]
    fn data_frame_during_handshake_is_a_mismatch() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Data(vec![1])).unwrap();
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            recv_hello(&mut cursor),
            Err(GridError::HandshakeMismatch { .. })
        ));
    }
}
