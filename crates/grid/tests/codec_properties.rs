//! Property-based tests for the wire codec (DESIGN.md §5: encode→decode
//! roundtrip for every message type, exact length framing).

use proptest::prelude::*;
use ugc_grid::{Assignment, GridError, Message, Opening};
use ugc_task::Domain;

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
        (any::<u64>(), arb_opening())
            .prop_map(|(task_id, proofs)| Message::Proofs { task_id, proofs }),
        (any::<u64>(), arb_bytes(32), arb_opening()).prop_map(|(task_id, root, proofs)| {
            Message::CommitAndProofs {
                task_id,
                root,
                proofs,
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
            .prop_map(|(task_id, reports)| Message::Reports { task_id, reports }),
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
    fn wire_len_is_exact(msg in arb_message()) {
        prop_assert_eq!(msg.wire_len(), msg.encode().len() as u64);
        prop_assert_eq!(msg.encoded_len(), msg.encode().len());
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
        // Envelope framing costs exactly tag + id: 9 bytes.
        prop_assert_eq!(wrapped.wire_len(), payload.wire_len() + 9);
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

    #[test]
    fn transport_preserves_any_message(msg in arb_message()) {
        let (a, b) = ugc_grid::duplex();
        a.send(&msg).unwrap();
        let got = b.recv().unwrap();
        prop_assert_eq!(got, msg.clone());
        prop_assert_eq!(
            a.stats().bytes_sent,
            msg.wire_len() + ugc_grid::FRAME_HEADER_BYTES
        );
    }
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
