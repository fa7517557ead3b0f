//! Dependency-free hexadecimal encoding.
//!
//! Used for test vectors, digest display and experiment reports.
//!
//! # Examples
//!
//! ```
//! assert_eq!(ugc_hash::hex::encode(&[0xde, 0xad, 0xbe, 0xef]), "deadbeef");
//! ```

const ALPHABET: &[u8; 16] = b"0123456789abcdef";

/// Encodes `bytes` as lowercase hex.
#[must_use]
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(ALPHABET[usize::from(b >> 4)] as char);
        out.push(ALPHABET[usize::from(b & 0x0f)] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_empty() {
        assert_eq!(encode(&[]), "");
    }

    #[test]
    fn encode_known() {
        assert_eq!(encode(&[0x00, 0x01, 0xfe, 0xff]), "0001feff");
    }
}
