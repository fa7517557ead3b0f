//! Minimal binary wire format.
//!
//! The paper's headline efficiency claim is a *byte count* — naive sampling
//! ships `O(n)` result bytes while CBS ships `O(m log n)` — so this crate
//! measures real encoded frames rather than trusting formulas. The format
//! is deliberately lean: little-endian fixed-width integers and
//! length-prefixed byte strings, no field names, no padding. A production
//! deployment would add versioning; for cost experiments the lean frame is
//! the honest measure.

use crate::GridError;
use bytes::{Buf, BufMut};

/// Upper bound accepted for any length field (1 GiB), a guard against
/// corrupt frames allocating unbounded memory.
pub const MAX_FIELD_LEN: u64 = 1 << 30;

/// Appends a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.put_u64_le(v);
}

/// Appends a `u32` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.put_u32_le(v);
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(buf, bytes.len() as u64);
    buf.put_slice(bytes);
}

/// Appends a length-prefixed list of `u64`s.
pub fn put_u64_list(buf: &mut Vec<u8>, list: &[u64]) {
    put_u64(buf, list.len() as u64);
    for &v in list {
        put_u64(buf, v);
    }
}

/// Reads a `u64`, little-endian.
///
/// # Errors
///
/// [`GridError::UnexpectedEof`] if fewer than 8 bytes remain.
pub fn get_u64(buf: &mut &[u8], context: &'static str) -> Result<u64, GridError> {
    if buf.remaining() < 8 {
        return Err(GridError::UnexpectedEof {
            context: context.into(),
        });
    }
    Ok(buf.get_u64_le())
}

/// Reads a `u32`, little-endian.
///
/// # Errors
///
/// [`GridError::UnexpectedEof`] if fewer than 4 bytes remain.
pub fn get_u32(buf: &mut &[u8], context: &'static str) -> Result<u32, GridError> {
    if buf.remaining() < 4 {
        return Err(GridError::UnexpectedEof {
            context: context.into(),
        });
    }
    Ok(buf.get_u32_le())
}

/// Reads a length-prefixed byte string.
///
/// # Errors
///
/// [`GridError::UnexpectedEof`] on truncation, [`GridError::LengthOverflow`]
/// if the declared length exceeds [`MAX_FIELD_LEN`] or the frame.
pub fn get_bytes(buf: &mut &[u8], context: &'static str) -> Result<Vec<u8>, GridError> {
    let len = get_u64(buf, context)?;
    if len > MAX_FIELD_LEN {
        return Err(GridError::LengthOverflow { declared: len });
    }
    // ugc-lint: allow(lossy-cast): bounded above by MAX_FIELD_LEN (1<<30), well inside usize on every supported platform
    let len = len as usize;
    if buf.remaining() < len {
        return Err(GridError::UnexpectedEof {
            context: context.into(),
        });
    }
    let mut out = vec![0u8; len];
    buf.copy_to_slice(&mut out);
    Ok(out)
}

/// How many elements to reserve room for when a frame declares
/// `declared` of them, each at least `min_encoded` bytes on the wire:
/// never more than the bytes left in `buf` could hold. A declared count
/// is a claim by the peer; the bytes that arrived are the only evidence,
/// and a header-only frame reserves nothing.
#[must_use]
pub(crate) fn bounded_capacity(buf: &[u8], declared: u64, min_encoded: usize) -> usize {
    let fits = buf.len() / min_encoded;
    usize::try_from(declared).map_or(fits, |declared| declared.min(fits))
}

/// Reads a length-prefixed list of `u64`s.
///
/// # Errors
///
/// As [`get_bytes`].
pub fn get_u64_list(buf: &mut &[u8], context: &'static str) -> Result<Vec<u64>, GridError> {
    let len = get_u64(buf, context)?;
    if len > MAX_FIELD_LEN / 8 {
        return Err(GridError::LengthOverflow { declared: len });
    }
    let mut out = Vec::with_capacity(bounded_capacity(buf, len, 8));
    for _ in 0..len {
        out.push(get_u64(buf, context)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 0xdead_beef_cafe_f00d);
        let mut cursor = buf.as_slice();
        assert_eq!(get_u64(&mut cursor, "t").unwrap(), 0xdead_beef_cafe_f00d);
        assert!(cursor.is_empty());
    }

    #[test]
    fn u32_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 77);
        let mut cursor = buf.as_slice();
        assert_eq!(get_u32(&mut cursor, "t").unwrap(), 77);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello");
        let mut cursor = buf.as_slice();
        assert_eq!(get_bytes(&mut cursor, "t").unwrap(), b"hello");
    }

    #[test]
    fn empty_bytes_roundtrip() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"");
        let mut cursor = buf.as_slice();
        assert_eq!(get_bytes(&mut cursor, "t").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn list_roundtrip() {
        let mut buf = Vec::new();
        put_u64_list(&mut buf, &[1, 2, 3]);
        let mut cursor = buf.as_slice();
        assert_eq!(get_u64_list(&mut cursor, "t").unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn reservations_are_bounded_by_the_bytes_that_arrived() {
        // 100 bytes hold at most 12 u64s, whatever the header claims.
        let frame = [0u8; 100];
        assert_eq!(bounded_capacity(&frame, 1 << 27, 8), 12);
        assert_eq!(bounded_capacity(&frame, u64::MAX, 16), 6);
        assert_eq!(bounded_capacity(&frame, 5, 8), 5);
        assert_eq!(bounded_capacity(&[], 1 << 24, 16), 0);
        // A list header with nothing behind it: the declared count is
        // legal, the reservation is empty, the error is the usual one.
        let mut buf = Vec::new();
        put_u64(&mut buf, MAX_FIELD_LEN / 8);
        let mut cursor = buf.as_slice();
        assert_eq!(
            get_u64_list(&mut cursor, "list"),
            Err(GridError::UnexpectedEof {
                context: "list".into()
            })
        );
    }

    #[test]
    fn truncated_u64_fails() {
        let mut cursor: &[u8] = &[1, 2, 3];
        assert_eq!(
            get_u64(&mut cursor, "short"),
            Err(GridError::UnexpectedEof {
                context: "short".into()
            })
        );
    }

    #[test]
    fn truncated_bytes_fails() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello");
        buf.truncate(buf.len() - 1);
        let mut cursor = buf.as_slice();
        assert!(matches!(
            get_bytes(&mut cursor, "t"),
            Err(GridError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn hostile_length_rejected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        let mut cursor = buf.as_slice();
        assert_eq!(
            get_bytes(&mut cursor, "t"),
            Err(GridError::LengthOverflow { declared: u64::MAX })
        );
        let mut cursor = buf.as_slice();
        assert!(matches!(
            get_u64_list(&mut cursor, "t"),
            Err(GridError::LengthOverflow { .. })
        ));
    }
}
