//! Error type shared by the transport and codec layers.

use core::fmt;
use std::borrow::Cow;

/// Errors from the grid substrate (wire format and transport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// The decoder ran out of bytes mid-message.
    UnexpectedEof {
        /// What was being decoded when the input ended: a literal when
        /// this process decoded, an owned copy when read back from a
        /// journal or a peer's report.
        context: Cow<'static, str>,
    },
    /// An integer's LEB128 run is longer than its value needs.
    OverlongInteger {
        /// The field being decoded.
        context: Cow<'static, str>,
    },
    /// An integer's LEB128 run carries more than 64 bits.
    IntegerPast64Bits {
        /// The field being decoded.
        context: Cow<'static, str>,
    },
    /// A `u32` field holds a value above `u32::MAX`.
    U32Overflow {
        /// The field being decoded.
        context: Cow<'static, str>,
        /// The value it held.
        value: u64,
    },
    /// An unknown message tag was encountered.
    UnknownTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// Bytes remained after a complete message was decoded.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A length field exceeded sane bounds (corrupt or hostile frame).
    LengthOverflow {
        /// The declared length.
        declared: u64,
    },
    /// The peer endpoint was dropped.
    Disconnected,
    /// No message is currently available (non-blocking receive).
    Empty,
    /// A socket closed mid-frame: the header declared more payload than
    /// ever arrived. The wire analogue of the journal's torn tail —
    /// expected after a peer process dies, never silently swallowed.
    TornFrame {
        /// Bytes the frame header declared.
        expected: u64,
        /// Bytes actually received before the stream ended.
        got: u64,
    },
    /// The peer speaks a different wire-protocol version (or is not a
    /// grid peer at all).
    HandshakeMismatch {
        /// The protocol version this build speaks.
        ours: u32,
        /// The version (or garbage) the peer announced.
        theirs: u32,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::UnexpectedEof { context } => {
                write!(f, "unexpected end of frame while decoding {context}")
            }
            GridError::OverlongInteger { context } => {
                write!(f, "{context}: overlong integer encoding")
            }
            GridError::IntegerPast64Bits { context } => {
                write!(f, "{context}: integer exceeds 64 bits")
            }
            GridError::U32Overflow { context, value } => {
                write!(f, "{context}: {value} exceeds u32")
            }
            GridError::UnknownTag { tag } => write!(f, "unknown message tag {tag:#04x}"),
            GridError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after message")
            }
            GridError::LengthOverflow { declared } => {
                write!(f, "declared length {declared} exceeds frame bounds")
            }
            GridError::Disconnected => write!(f, "peer endpoint disconnected"),
            GridError::Empty => write!(f, "no message available"),
            GridError::TornFrame { expected, got } => {
                write!(f, "torn frame: {expected} bytes declared, {got} received")
            }
            GridError::HandshakeMismatch { ours, theirs } => {
                write!(
                    f,
                    "handshake mismatch: we speak wire protocol {ours}, peer announced {theirs}"
                )
            }
        }
    }
}

impl std::error::Error for GridError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            GridError::UnknownTag { tag: 0xFF }.to_string(),
            "unknown message tag 0xff"
        );
        assert_eq!(
            GridError::TrailingBytes { remaining: 3 }.to_string(),
            "3 trailing bytes after message"
        );
        assert_eq!(
            GridError::Disconnected.to_string(),
            "peer endpoint disconnected"
        );
        assert_eq!(
            GridError::TornFrame {
                expected: 64,
                got: 10
            }
            .to_string(),
            "torn frame: 64 bytes declared, 10 received"
        );
        assert_eq!(
            GridError::HandshakeMismatch { ours: 1, theirs: 9 }.to_string(),
            "handshake mismatch: we speak wire protocol 1, peer announced 9"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<GridError>();
    }
}
