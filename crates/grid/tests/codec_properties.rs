//! Property-based tests for the wire codec (DESIGN.md §5: encode→decode
//! roundtrip for every message type, exact length framing).

use proptest::prelude::*;
use ugc_grid::codec::{get_u32, get_var, put_var, var_len};
use ugc_grid::wire::Welcome;
use ugc_grid::{Assignment, GridError, GridLink, Message, Opening};
use ugc_task::{Domain, ScreenReport};

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

/// Any four fields the codec can carry — rows that agree with the width
/// or with each other are the supervisor's concern, not the codec's.
fn arb_opening() -> impl Strategy<Value = Opening> {
    (any::<u32>(), arb_bytes(96), arb_bytes(96), arb_bytes(200)).prop_map(
        |(leaf_width, leaf_values, leaf_siblings, digest_siblings)| Opening {
            leaf_width,
            leaf_values,
            leaf_siblings,
            digest_siblings,
        },
    )
}

/// Every bare (non-envelope) message variant.
fn arb_bare_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), 1u64..1 << 40).prop_map(|(id, start, len)| {
            let start = start.min(u64::MAX - len);
            Message::Assign(Assignment {
                task_id: id,
                domain: Domain::new(start, len),
            })
        }),
        (any::<u64>(), arb_bytes(64)).prop_map(|(task_id, root)| Message::Commit { task_id, root }),
        (any::<u64>(), proptest::collection::vec(any::<u64>(), 0..64))
            .prop_map(|(task_id, samples)| Message::Challenge { task_id, samples }),
        (any::<u64>(), arb_opening()).prop_map(|(task_id, proofs)| Message::Proofs {
            task_id,
            proofs: Box::new(proofs),
        }),
        (any::<u64>(), arb_bytes(32), arb_opening()).prop_map(|(task_id, root, proofs)| {
            Message::CommitAndProofs {
                task_id,
                root,
                proofs: Box::new(proofs),
            }
        }),
        (any::<u64>(), any::<u32>(), arb_bytes(256)).prop_map(|(task_id, leaf_width, data)| {
            Message::AllResults {
                task_id,
                leaf_width,
                data,
            }
        }),
        (
            any::<u64>(),
            proptest::collection::vec((any::<u64>(), arb_bytes(32)), 0..8)
        )
            .prop_map(|(task_id, reports)| Message::Reports {
                task_id,
                reports: reports
                    .into_iter()
                    .map(|(input, payload)| ScreenReport { input, payload })
                    .collect(),
            }),
        (any::<u64>(), proptest::collection::vec(arb_bytes(32), 0..8))
            .prop_map(|(task_id, ringers)| Message::RingerChallenge { task_id, ringers }),
        (any::<u64>(), proptest::collection::vec(any::<u64>(), 0..32))
            .prop_map(|(task_id, inputs)| Message::RingerFound { task_id, inputs }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(task_id, accepted)| Message::Verdict { task_id, accepted }),
        any::<u64>().prop_map(|task_id| Message::Gone { task_id }),
    ]
}

/// Every message variant, including the session envelope around every
/// bare variant.
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_bare_message(),
        (any::<u64>(), arb_bare_message())
            .prop_map(|(session_id, payload)| envelope(session_id, payload)),
    ]
}

fn envelope(session_id: u64, payload: Message) -> Message {
    Message::Session {
        session_id,
        payload: Box::new(payload),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip(msg in arb_message()) {
        let encoded = msg.encode();
        let decoded = Message::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn charged_is_exact(msg in arb_message()) {
        prop_assert_eq!(msg.charged(), msg.encode().len() as u64 + 4);
        prop_assert_eq!(msg.encoded_len(), msg.encode().len());
    }

    /// The codec is canonical: any frame it accepts is the one encoding of
    /// the message it decodes to, so a charge computed from the decoded
    /// message is exactly the frame a TCP peer put on the wire. Mutants
    /// of valid frames — a flipped byte, an overwritten length word, a
    /// truncation — are either refused or re-encode byte for byte.
    #[test]
    fn accepted_frames_are_canonical(
        msg in arb_message(),
        at in any::<proptest::sample::Index>(),
        mutation in (0u8..3, 1u8..=255, 0u64..300),
    ) {
        let mut frame = msg.encode();
        let i = at.index(frame.len());
        match mutation {
            (0, mask, _) => frame[i] ^= mask,
            (1, _, word) => {
                let end = (i + 8).min(frame.len());
                frame[i..end].copy_from_slice(&word.to_le_bytes()[..end - i]);
            }
            _ => frame.truncate(i),
        }
        if let Ok(decoded) = Message::decode(&frame) {
            prop_assert_eq!(decoded.encode(), frame.clone());
            prop_assert_eq!(decoded.charged(), frame.len() as u64 + 4);
        }
    }

    #[test]
    fn any_truncation_fails(msg in arb_message(), cut_seed in any::<proptest::sample::Index>()) {
        let encoded = msg.encode();
        let cut = cut_seed.index(encoded.len());
        prop_assert!(Message::decode(&encoded[..cut]).is_err());
    }

    #[test]
    fn any_suffix_garbage_fails(msg in arb_message(), garbage in proptest::collection::vec(any::<u8>(), 1..8)) {
        let mut encoded = msg.encode();
        encoded.extend_from_slice(&garbage);
        // Must fail: either trailing bytes, or a length field that now
        // reads into the garbage and mismatches.
        prop_assert!(Message::decode(&encoded).is_err());
    }

    #[test]
    fn random_bytes_never_panic(frame in arb_bytes(256)) {
        // Decoding hostile input must return an error, never panic.
        let _ = Message::decode(&frame);
    }

    #[test]
    fn envelope_preserves_payload_and_routing(session_id in any::<u64>(), payload in arb_bare_message()) {
        let wrapped = envelope(session_id, payload.clone());
        // Envelope framing costs exactly tag + id: one byte and the id's
        // LEB128 length.
        prop_assert_eq!(wrapped.charged(), payload.charged() + 1 + var_len(session_id) as u64);
        // An envelope is addressed by its payload's task id, like any
        // other message.
        prop_assert_eq!(wrapped.task_id(), payload.task_id());
        let decoded = Message::decode(&wrapped.encode()).unwrap();
        prop_assert_eq!(decoded, wrapped);
    }

    #[test]
    fn truncated_envelope_rejected(session_id in any::<u64>(), payload in arb_bare_message(), cut_seed in any::<proptest::sample::Index>()) {
        let encoded = envelope(session_id, payload).encode();
        let cut = cut_seed.index(encoded.len());
        prop_assert!(Message::decode(&encoded[..cut]).is_err());
    }

    /// A valid frame whose first integer — the task id, or an envelope's
    /// session id — is re-encoded `extra` bytes longer is refused typed,
    /// never decoded: two frames never decode to one message.
    #[test]
    fn a_non_minimal_integer_in_a_message_is_refused(msg in arb_message(), extra in 1usize..4) {
        let frame = msg.encode();
        let (forged, within_64_bits) = non_minimal(&frame, 1, extra);
        let refused = Message::decode(&forged);
        prop_assert!(is_non_canonical(&refused, within_64_bits), "{:?}", refused);
    }

    /// The same for each integer of a `Welcome`: index, count and the
    /// params length.
    #[test]
    fn a_non_minimal_integer_in_a_welcome_is_refused(
        peer_index in any::<u32>(),
        peer_count in any::<u32>(),
        params in arb_bytes(64),
        which in 0usize..3,
        extra in 1usize..4,
    ) {
        let payload = Welcome { peer_index, peer_count, params }.encode();
        // Magic and version word are twelve fixed bytes.
        let at = integer_offset(&payload, 12, which);
        let (forged, within_64_bits) = non_minimal(&payload, at, extra);
        let refused = Welcome::decode(&forged);
        prop_assert!(is_non_canonical(&refused, within_64_bits), "{:?}", refused);
    }

    #[test]
    fn transport_preserves_any_message(msg in arb_message()) {
        let (a, b) = ugc_grid::duplex();
        a.send(&msg).unwrap();
        let got = b.recv().unwrap();
        prop_assert_eq!(got, msg);
    }
}

/// Offset of the `n`th of the LEB128 integers that follow `start` back to
/// back.
fn integer_offset(frame: &[u8], start: usize, n: usize) -> usize {
    let mut rest = &frame[start..];
    for _ in 0..n {
        get_var(&mut rest, "skip").unwrap();
    }
    frame.len() - rest.len()
}

/// `frame` with the integer at `at` re-encoded `extra` bytes longer, and
/// whether the longer run still fits ten bytes (so is merely overlong).
fn non_minimal(frame: &[u8], at: usize, extra: usize) -> (Vec<u8>, bool) {
    let mut rest = &frame[at..];
    let value = get_var(&mut rest, "integer").unwrap();
    let mut run = Vec::new();
    put_var(&mut run, value);
    *run.last_mut().unwrap() |= 0x80;
    run.resize(run.len() + extra - 1, 0x80);
    run.push(0);
    let within_64_bits = run.len() <= 10;
    ([&frame[..at], &run, rest].concat(), within_64_bits)
}

fn is_non_canonical<T>(result: &Result<T, GridError>, within_64_bits: bool) -> bool {
    match result {
        Err(GridError::OverlongInteger { .. }) => within_64_bits,
        Err(GridError::IntegerPast64Bits { .. }) => !within_64_bits,
        _ => false,
    }
}

/// Reads `bytes` as one integer.
fn var(bytes: &[u8]) -> Result<u64, GridError> {
    let mut cursor = bytes;
    let value = get_var(&mut cursor, "n")?;
    assert!(cursor.is_empty(), "{bytes:?} left {cursor:?}");
    Ok(value)
}

#[test]
fn a_truncated_integer_is_eof() {
    for run in [&[][..], &[0x80], &[0xFF, 0xFF], &[0xFF; 9]] {
        let mut cursor = run;
        assert_eq!(
            get_var(&mut cursor, "n"),
            Err(GridError::UnexpectedEof {
                context: "n".into()
            }),
            "{run:?}"
        );
    }
}

#[test]
fn an_overlong_integer_is_refused() {
    for run in [
        &[0x80, 0x00][..],
        &[0xFF, 0x80, 0x00],
        &[0x81, 0x80, 0x80, 0x00],
    ] {
        assert_eq!(
            var(run),
            Err(GridError::OverlongInteger {
                context: "n".into()
            }),
            "{run:?}"
        );
    }
    // The control: a zero byte alone is zero, and a zero after a
    // continuation byte is the high group of a larger value when it is
    // not the last.
    assert_eq!(var(&[0x00]), Ok(0));
    assert_eq!(var(&[0x80, 0x01]), Ok(128));
}

#[test]
fn an_integer_past_64_bits_is_refused() {
    let max = [&[0xFF; 9][..], &[0x01]].concat();
    assert_eq!(var(&max), Ok(u64::MAX));
    // A tenth byte above 1 carries bit 64 or more.
    for tenth in [0x02, 0x7F, 0x81] {
        let run = [&[0xFF; 9][..], &[tenth], &[0x01]].concat();
        let mut cursor = run.as_slice();
        assert_eq!(
            get_var(&mut cursor, "n"),
            Err(GridError::IntegerPast64Bits {
                context: "n".into()
            }),
            "tenth byte {tenth:#x}"
        );
    }
    // An eleven-byte run.
    let mut cursor = &[&[0x80; 10][..], &[0x01]].concat()[..];
    assert_eq!(
        get_var(&mut cursor, "n"),
        Err(GridError::IntegerPast64Bits {
            context: "n".into()
        })
    );
}

#[test]
fn a_u32_field_at_two_to_the_32_is_refused() {
    let mut buf = Vec::new();
    put_var(&mut buf, u64::from(u32::MAX));
    assert_eq!(get_u32(&mut buf.as_slice(), "w"), Ok(u32::MAX));
    buf.clear();
    put_var(&mut buf, 1 << 32);
    assert_eq!(
        get_u32(&mut buf.as_slice(), "w"),
        Err(GridError::U32Overflow {
            context: "w".into(),
            value: 1 << 32
        })
    );
    // And in a message: an `AllResults` leaf width.
    let mut frame = vec![6];
    put_var(&mut frame, 1);
    put_var(&mut frame, 1 << 32);
    put_var(&mut frame, 0);
    assert!(matches!(
        Message::decode(&frame),
        Err(GridError::U32Overflow {
            value: 4_294_967_296,
            ..
        })
    ));
}

#[test]
fn decode_error_types_are_actionable() {
    // Unknown tag.
    assert!(matches!(
        Message::decode(&[0x7F]),
        Err(GridError::UnknownTag { tag: 0x7F })
    ));
    // Empty frame.
    assert!(matches!(
        Message::decode(&[]),
        Err(GridError::UnexpectedEof { .. })
    ));
}
