//! The one integer codec of the tree, and the byte strings and lists
//! built on it. The paper's headline efficiency claim is a *byte count*,
//! so this crate measures real encoded frames rather than trusting
//! formulas, and the format is lean: every integer is canonical unsigned
//! LEB128 (seven bits a byte, low group first, the high bit set on every
//! byte but the last), strings and lists carry a LEB128 length, and there
//! are no field names and no padding. Messages, handshake bodies, the
//! campaign blob, slot reports and journal records all use it; only
//! framing read before any payload exists stays fixed-width. The reader
//! accepts exactly what [`put_var`] writes, so a decoded message
//! re-encodes to the frame it came from and its charge is that frame.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use crate::GridError;

/// Upper bound accepted for any length field (1 GiB), a guard against
/// corrupt frames allocating unbounded memory.
pub const MAX_FIELD_LEN: u64 = 1 << 30;

/// Bytes [`put_var`] writes for `v`: one per started seven-bit group,
/// and one for zero.
#[must_use]
pub fn var_len(v: u64) -> usize {
    let bits = u64::BITS - (v | 1).leading_zeros();
    bits.div_ceil(7) as usize
}

/// Appends `v` as canonical unsigned LEB128. Almost every integer a
/// session sends is below 128, so that case is one push.
#[inline]
pub fn put_var(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v.to_le_bytes()[0] | 0x80);
        v >>= 7;
    }
    buf.push(v.to_le_bytes()[0]);
}

/// Reads what [`put_var`] writes and nothing else.
///
/// # Errors
///
/// [`GridError::UnexpectedEof`] on a truncated run,
/// [`GridError::OverlongInteger`] on a zero last byte after the first,
/// [`GridError::IntegerPast64Bits`] on a run carrying more than 64 bits.
#[inline]
pub fn get_var(buf: &mut &[u8], context: &'static str) -> Result<u64, GridError> {
    match buf.split_first() {
        Some((&byte, rest)) if byte < 0x80 => {
            *buf = rest;
            Ok(u64::from(byte))
        }
        _ => get_var_run(buf, context),
    }
}

/// [`get_var`] past its one-byte case.
fn get_var_run(buf: &mut &[u8], context: &'static str) -> Result<u64, GridError> {
    let context = context.into();
    let mut value = 0u64;
    for (i, &byte) in buf.iter().enumerate().take(10) {
        // The tenth byte carries bit 63 alone, and ends the run.
        if i == 9 && byte > 1 {
            return Err(GridError::IntegerPast64Bits { context });
        }
        value |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            if byte == 0 && i > 0 {
                return Err(GridError::OverlongInteger { context });
            }
            *buf = &buf[i + 1..];
            return Ok(value);
        }
    }
    Err(GridError::UnexpectedEof { context })
}

/// Reads a `u32` field: a [`get_var`] integer no larger than `u32::MAX`.
///
/// # Errors
///
/// As [`get_var`], and [`GridError::U32Overflow`] above `u32::MAX`.
pub fn get_u32(buf: &mut &[u8], context: &'static str) -> Result<u32, GridError> {
    let value = get_var(buf, context)?;
    u32::try_from(value).map_err(|_| GridError::U32Overflow {
        context: context.into(),
        value,
    })
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_var(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Appends a count, then each item.
pub fn put_list<T>(buf: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_var(buf, items.len() as u64);
    for item in items {
        put(buf, item);
    }
}

/// Reads a length-prefixed byte string.
///
/// # Errors
///
/// As [`get_var`], and [`GridError::LengthOverflow`] if the declared
/// length exceeds [`MAX_FIELD_LEN`]; [`GridError::UnexpectedEof`] if it
/// exceeds the frame.
pub fn get_bytes(buf: &mut &[u8], context: &'static str) -> Result<Vec<u8>, GridError> {
    let len = get_var(buf, context)?;
    if len > MAX_FIELD_LEN {
        return Err(GridError::LengthOverflow { declared: len });
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "bounded above by MAX_FIELD_LEN (1<<30), well inside usize on every supported platform"
    )]
    let Some((bytes, rest)) = buf.split_at_checked(len as usize) else {
        return Err(GridError::UnexpectedEof {
            context: context.into(),
        });
    };
    *buf = rest;
    Ok(bytes.to_vec())
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

/// Reads what [`put_list`] writes: a count no larger than `max`, then the
/// items, each at least `min_encoded` bytes — so the reservation is
/// bounded by the bytes that arrived, never by the count a peer declared.
///
/// # Errors
///
/// As [`get_var`], [`GridError::LengthOverflow`] above `max`, and what
/// `get` refuses.
pub fn get_list<T>(
    buf: &mut &[u8],
    context: &'static str,
    (max, min_encoded): (u64, usize),
    mut get: impl FnMut(&mut &[u8]) -> Result<T, GridError>,
) -> Result<Vec<T>, GridError> {
    let count = get_var(buf, context)?;
    if count > max {
        return Err(GridError::LengthOverflow { declared: count });
    }
    let mut items = Vec::with_capacity(bounded_capacity(buf, count, min_encoded));
    for _ in 0..count {
        items.push(get(buf)?);
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        for v in [0, 0x7F, 0x80, 0x3FFF, 0x4000, 1 << 63, u64::MAX] {
            let mut buf = Vec::new();
            put_var(&mut buf, v);
            assert_eq!(buf.len(), var_len(v), "{v:#x}");
            let mut cursor = buf.as_slice();
            assert_eq!(get_var(&mut cursor, "t").unwrap(), v);
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn u32_roundtrip() {
        let mut buf = Vec::new();
        put_var(&mut buf, u64::from(u32::MAX));
        let mut cursor = buf.as_slice();
        assert_eq!(get_u32(&mut cursor, "t").unwrap(), u32::MAX);
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
        put_list(&mut buf, &[1, 300, 3], |buf, &v| put_var(buf, v));
        let mut cursor = buf.as_slice();
        let list = get_list(&mut cursor, "t", (3, 1), |buf| get_var(buf, "t"));
        assert_eq!(list.unwrap(), vec![1, 300, 3]);
    }

    #[test]
    fn reservations_are_bounded_by_the_bytes_that_arrived() {
        // 100 bytes hold at most 12 eight-byte items, whatever the header
        // claims.
        let frame = [0u8; 100];
        assert_eq!(bounded_capacity(&frame, 1 << 27, 8), 12);
        assert_eq!(bounded_capacity(&frame, u64::MAX, 16), 6);
        assert_eq!(bounded_capacity(&frame, 5, 8), 5);
        assert_eq!(bounded_capacity(&[], 1 << 24, 16), 0);
        // A list header with nothing behind it: the declared count is
        // legal, the reservation is empty, the error is the usual one.
        let mut buf = Vec::new();
        put_var(&mut buf, MAX_FIELD_LEN / 8);
        let mut cursor = buf.as_slice();
        assert_eq!(
            get_list(&mut cursor, "list", (MAX_FIELD_LEN / 8, 1), |b| get_var(
                b, "item"
            )),
            Err(GridError::UnexpectedEof {
                context: "item".into()
            })
        );
    }

    #[test]
    fn truncated_u64_fails() {
        let mut cursor: &[u8] = &[0x81, 0x82];
        assert_eq!(
            get_var(&mut cursor, "short"),
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
        put_var(&mut buf, u64::MAX);
        let mut cursor = buf.as_slice();
        assert_eq!(
            get_bytes(&mut cursor, "t"),
            Err(GridError::LengthOverflow { declared: u64::MAX })
        );
        let mut cursor = buf.as_slice();
        assert!(matches!(
            get_list(&mut cursor, "t", (MAX_FIELD_LEN, 1), |b| get_var(b, "t")),
            Err(GridError::LengthOverflow { .. })
        ));
    }
}
