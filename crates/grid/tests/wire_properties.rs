//! Property-based tests for the socket framing layer: every way a byte
//! stream can be torn, truncated, fragmented, or forged must surface as
//! a typed [`GridError`] (or a clean `Ok(None)` close) — never a panic,
//! a hang, or a silently wrong frame.

use proptest::prelude::*;
use std::io::{Cursor, Read};
use ugc_grid::wire::{
    read_frame, recv_hello, recv_welcome, send_hello, send_welcome, write_frame, Frame, Hello,
    Welcome, MAX_FRAME_LEN, WIRE_VERSION,
};
use ugc_grid::GridError;

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        arb_bytes(300).prop_map(Frame::Data),
        arb_bytes(300).prop_map(Frame::Control),
    ]
}

/// A reader that hands out at most a few bytes per `read` call, with the
/// chunk sizes driven by a seed — models TCP segmentation, where a frame
/// rarely arrives in one `read`.
struct Trickle {
    data: Cursor<Vec<u8>>,
    seed: u64,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.seed = self
            .seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        let chunk = ((self.seed >> 33) % 3 + 1) as usize;
        let take = chunk.min(buf.len());
        self.data.read(&mut buf[..take])
    }
}

fn encode_stream(frames: &[Frame]) -> Vec<u8> {
    let mut buf = Vec::new();
    for frame in frames {
        write_frame(&mut buf, frame).expect("in-memory write");
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn frame_stream_roundtrips(frames in proptest::collection::vec(arb_frame(), 0..6)) {
        let mut cursor = Cursor::new(encode_stream(&frames));
        for frame in &frames {
            prop_assert_eq!(read_frame(&mut cursor).unwrap().as_ref(), Some(frame));
        }
        prop_assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn fragmented_reads_reassemble_identically(
        frames in proptest::collection::vec(arb_frame(), 1..5),
        seed in any::<u64>(),
    ) {
        // A frame delivered one-to-three bytes at a time decodes exactly
        // as one delivered whole; read_frame must loop, not hang or tear.
        let mut trickle = Trickle { data: Cursor::new(encode_stream(&frames)), seed };
        for frame in &frames {
            prop_assert_eq!(read_frame(&mut trickle).unwrap().as_ref(), Some(frame));
        }
        prop_assert_eq!(read_frame(&mut trickle).unwrap(), None);
    }

    #[test]
    fn every_truncation_is_torn_or_clean(frame in arb_frame(), cut_seed in any::<proptest::sample::Index>()) {
        let buf = encode_stream(std::slice::from_ref(&frame));
        let cut = cut_seed.index(buf.len());
        let result = read_frame(&mut Cursor::new(&buf[..cut]));
        if cut == 0 {
            // EOF on the boundary: a clean close, not an error.
            prop_assert_eq!(result, Ok(None));
        } else {
            prop_assert!(
                matches!(result, Err(GridError::TornFrame { .. })),
                "cut {} of {}: {:?}", cut, buf.len(), result
            );
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation(
        excess in 1u64..=u64::from(u32::MAX >> 1) - MAX_FRAME_LEN,
        control in any::<bool>(),
    ) {
        // A hostile header declaring up to ~2 GiB must be refused from
        // the four header bytes alone (the test would OOM otherwise).
        let declared = MAX_FRAME_LEN + excess;
        let mut word = declared as u32;
        if control {
            word |= 1 << 31;
        }
        let result = read_frame(&mut Cursor::new(word.to_le_bytes().to_vec()));
        prop_assert_eq!(result, Err(GridError::LengthOverflow { declared }));
    }

    #[test]
    fn random_bytes_never_panic_or_hang(stream in arb_bytes(64)) {
        // Arbitrary garbage either decodes as some frame (if the length
        // word happens to be satisfied), ends clean, or errors typed.
        let _ = read_frame(&mut Cursor::new(stream));
    }

    #[test]
    fn hello_roundtrips(role in any::<u8>(), params in arb_bytes(128)) {
        let hello = Hello { role, params };
        let mut buf = Vec::new();
        send_hello(&mut buf, &hello).unwrap();
        prop_assert_eq!(recv_hello(&mut Cursor::new(buf)).unwrap(), hello);
    }

    #[test]
    fn welcome_roundtrips(peer_index in any::<u32>(), peer_count in any::<u32>(), params in arb_bytes(128)) {
        let welcome = Welcome { peer_index, peer_count, params };
        let mut buf = Vec::new();
        send_welcome(&mut buf, &welcome).unwrap();
        prop_assert_eq!(recv_welcome(&mut Cursor::new(buf)).unwrap(), welcome);
    }

    #[test]
    fn any_foreign_version_is_a_typed_mismatch(version in any::<u32>(), params in arb_bytes(32)) {
        prop_assume!(version != WIRE_VERSION);
        // Re-encode a hello with a forged version word (bytes 8..12 of
        // the payload, after the 8-byte magic).
        let mut payload = Hello { role: 1, params }.encode();
        payload[8..12].copy_from_slice(&version.to_le_bytes());
        let result = Hello::decode(&payload);
        prop_assert_eq!(
            result,
            Err(GridError::HandshakeMismatch { ours: WIRE_VERSION, theirs: version })
        );
    }

    #[test]
    fn hostile_handshake_payloads_never_panic(payload in arb_bytes(96)) {
        let _ = Hello::decode(&payload);
        let _ = Welcome::decode(&payload);
    }

    #[test]
    fn truncated_handshake_is_typed(params in arb_bytes(64), cut_seed in any::<proptest::sample::Index>()) {
        let payload = Welcome { peer_index: 2, peer_count: 5, params }.encode();
        let cut = cut_seed.index(payload.len());
        prop_assert!(Welcome::decode(&payload[..cut]).is_err());
    }
}

#[test]
fn a_verbatim_version_4_hello_is_refused_by_name() {
    // A version-4 participant's hello as it went out: magic, version
    // word, role, then a fixed 8-byte params length.
    let payload = [
        &b"UGCGRID\0"[..],
        &[4, 0, 0, 0],
        &[0],
        &[3, 0, 0, 0, 0, 0, 0, 0],
        &[1, 2, 3],
    ]
    .concat();
    assert_eq!(
        Hello::decode(&payload),
        Err(GridError::HandshakeMismatch { ours: 5, theirs: 4 })
    );
}
