//! Protocol messages exchanged between supervisor, broker and participants.
//!
//! One message enum covers every scheme in the evaluation so that byte
//! counts are directly comparable:
//!
//! | Scheme | Messages used |
//! |--------|---------------|
//! | double-check / naive sampling | [`Assign`](Message::Assign), [`AllResults`](Message::AllResults), [`Verdict`](Message::Verdict) |
//! | CBS (§3.1) | [`Assign`](Message::Assign), [`Commit`](Message::Commit), [`Challenge`](Message::Challenge), [`Proofs`](Message::Proofs), [`Reports`](Message::Reports), [`Verdict`](Message::Verdict) |
//! | NI-CBS (§4) | [`Assign`](Message::Assign), [`CommitAndProofs`](Message::CommitAndProofs), [`Reports`](Message::Reports), [`Verdict`](Message::Verdict) |
//! | ringer (Golle–Mironov, §1.1) | [`RingerChallenge`](Message::RingerChallenge), [`RingerFound`](Message::RingerFound), … |
//!
//! [`Proofs`](Message::Proofs) and
//! [`CommitAndProofs`](Message::CommitAndProofs) answer all `m` samples of
//! a round with one [`Opening`] — its docs have the field table, the
//! supervisor's check order and the charging rule.

use crate::codec::{
    bounded_capacity, get_bytes, get_u32, get_u64, get_u64_list, put_bytes, put_u32, put_u64,
    put_u64_list,
};
use crate::GridError;
use ugc_task::Domain;

/// A task assignment: evaluate `f` on every input of `domain`.
///
/// The compute function itself ships out of band (participants install the
/// project binary once); assignments are therefore `O(1)` on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Supervisor-chosen identifier for this task.
    pub task_id: u64,
    /// The sub-domain this participant must evaluate.
    pub domain: Domain,
}

/// The proof of honesty for every sample of a round (Step 3 of the CBS
/// scheme): the claimed `f(x_i)` and one deduplicated Merkle
/// multi-opening over all of them, not `m` authentication paths (wire
/// version 2; version 1 sent a length-prefixed path per sample).
///
/// | Field | Bytes | Holds |
/// |-------|-------|-------|
/// | `leaf_width` | 4 | width `w` of one `f(x)` |
/// | `leaf_values` | 8 + `d·w` | the `d` distinct sampled `f(x_i)`, in index order |
/// | `leaf_siblings` | 8 + `s·w` | the raw neighbour of every sampled leaf whose neighbour is not sampled too, in index order |
/// | `digest_siblings` | 8 + `t·D` | for tree levels `1 … H − 1` bottom-up, in node order: the sibling of every node on a sampled path that the supervisor cannot rebuild from what it already holds |
///
/// No index and no per-sibling length travels: `d`, `s` and `t` — and
/// which entry belongs to which node — follow from the challenged
/// indices and the share size `n`, which both sides know
/// (`ugc_merkle::LeafSet`). The supervisor checks, in this order: the
/// three row lengths against what the index set dictates (a mismatch is
/// decided on the spot — nothing evaluated, hashed or charged); each
/// distinct `f(x_i)`, in order of first appearance in the challenge
/// (`verify_ops` and `f_evals` charged per value checked); then one
/// level-by-level reconstruction of the root (`hash_ops` charged per
/// node rebuilt: at most `d·H`, against the `m·H` of single paths). The
/// paper's `m·(2w + (H − 1)·D)` bytes and `m·H` hashes are upper bounds
/// on both.
///
/// The rows are raw bytes so the wire format is independent of the hash
/// algorithm in use, and the codec does not judge them: whether each has
/// the length the challenge dictates is the supervisor's first check.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Opening {
    /// Width in bytes of one leaf value.
    pub leaf_width: u32,
    /// The distinct sampled results `f(x_i)`, in index order.
    pub leaf_values: Vec<u8>,
    /// The raw sibling leaves (`λ_1`) no sampled leaf supplies, in index
    /// order.
    pub leaf_siblings: Vec<u8>,
    /// The digest siblings (`λ_2 … λ_H`) no rebuilt node supplies, level
    /// by level bottom-up, in node order.
    pub digest_siblings: Vec<u8>,
}

impl Opening {
    /// Number of leaves opened: whole `leaf_width`-byte values in
    /// [`leaf_values`](Self::leaf_values).
    #[must_use]
    pub fn len(&self) -> usize {
        match usize::try_from(self.leaf_width) {
            Ok(width) if width > 0 => self.leaf_values.len() / width,
            _ => 0,
        }
    }

    /// Whether no leaf is opened.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.leaf_width);
        put_bytes(buf, &self.leaf_values);
        put_bytes(buf, &self.leaf_siblings);
        put_bytes(buf, &self.digest_siblings);
    }

    /// Exact encoded size in bytes, without encoding.
    fn encoded_len(&self) -> usize {
        4 + (8 + self.leaf_values.len())
            + (8 + self.leaf_siblings.len())
            + (8 + self.digest_siblings.len())
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, GridError> {
        Ok(Opening {
            leaf_width: get_u32(buf, "opening.leaf_width")?,
            leaf_values: get_bytes(buf, "opening.leaf_values")?,
            leaf_siblings: get_bytes(buf, "opening.leaf_siblings")?,
            digest_siblings: get_bytes(buf, "opening.digest_siblings")?,
        })
    }
}

/// A protocol message. See the module docs for which schemes use which.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Supervisor → participant: evaluate `f` over a domain.
    Assign(Assignment),
    /// Participant → supervisor: the Merkle-root commitment `Φ(R)`
    /// (Step 1 of CBS).
    Commit {
        /// Task this commitment belongs to.
        task_id: u64,
        /// The root digest `Φ(R)`.
        root: Vec<u8>,
    },
    /// Supervisor → participant: the sample indices (Step 2 of CBS).
    Challenge {
        /// Task being challenged.
        task_id: u64,
        /// Sampled leaf indices `i_1 … i_m`.
        samples: Vec<u64>,
    },
    /// Participant → supervisor: the proof of honesty for every sample
    /// (Step 3 of CBS).
    Proofs {
        /// Task being proven.
        task_id: u64,
        /// One opening over all the sampled indices.
        proofs: Opening,
    },
    /// Participant → supervisor: NI-CBS single-shot commitment plus the
    /// self-derived sample proofs (Section 4.1).
    CommitAndProofs {
        /// Task being proven.
        task_id: u64,
        /// The root digest `Φ(R)`.
        root: Vec<u8>,
        /// One opening over the samples derived from `Φ(R)` via Eq. (4).
        proofs: Opening,
    },
    /// Participant → supervisor: every result, flattened — the naive
    /// schemes' `O(n)` upload.
    AllResults {
        /// Task these results belong to.
        task_id: u64,
        /// Width of each result record in bytes.
        leaf_width: u32,
        /// `n × leaf_width` bytes of results, in index order.
        data: Vec<u8>,
    },
    /// Participant → supervisor: the screened "results of interest".
    Reports {
        /// Task these reports belong to.
        task_id: u64,
        /// `(input, payload)` pairs that passed the screener.
        reports: Vec<(u64, Vec<u8>)>,
    },
    /// Supervisor → participant: precomputed ringer results whose inputs
    /// are secret (Golle–Mironov baseline).
    RingerChallenge {
        /// Task the ringers are planted in.
        task_id: u64,
        /// The precomputed `f(x)` values to find.
        ringers: Vec<Vec<u8>>,
    },
    /// Participant → supervisor: the inputs found to produce the ringers.
    RingerFound {
        /// Task the ringers were planted in.
        task_id: u64,
        /// Claimed preimage inputs, one per discovered ringer.
        inputs: Vec<u64>,
    },
    /// Supervisor → participant: accept/reject decision.
    Verdict {
        /// Task being judged.
        task_id: u64,
        /// Whether the participant's work was accepted.
        accepted: bool,
    },
    /// A protocol message wrapped with a session id. Nothing in the
    /// workspace builds one: every participant slot is addressed by its
    /// task id alone. The variant and its codec stay only because the
    /// benchmark's message walk names every variant; a hostile envelope
    /// that reaches a session fails it as an unexpected message.
    /// Envelopes do not nest.
    Session {
        /// The session id the envelope carries.
        session_id: u64,
        /// The wrapped protocol message (never itself a `Session`).
        payload: Box<Message>,
    },
    /// Broker → supervisor: the participant that owned this task hung up
    /// before its session completed — a store-and-forward NACK, so a
    /// multiplexing supervisor can fail the session instead of waiting
    /// forever for a reply that will never come. Only the broker speaks
    /// it: a participant's `Gone` is never relayed.
    Gone {
        /// The task whose owner disconnected.
        task_id: u64,
    },
}

const TAG_ASSIGN: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_CHALLENGE: u8 = 3;
const TAG_PROOFS: u8 = 4;
const TAG_COMMIT_AND_PROOFS: u8 = 5;
const TAG_ALL_RESULTS: u8 = 6;
const TAG_REPORTS: u8 = 7;
const TAG_RINGER_CHALLENGE: u8 = 8;
const TAG_RINGER_FOUND: u8 = 9;
const TAG_VERDICT: u8 = 10;
const TAG_SESSION: u8 = 11;
const TAG_GONE: u8 = 12;

impl Message {
    /// Encodes the message to its wire form in one exact-capacity
    /// allocation (sized by [`encoded_len`](Self::encoded_len)).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the message's wire form to `buf` — the zero-alloc hot
    /// path. Callers that reuse a buffer pay no allocation here beyond
    /// whatever growth `buf` itself needs.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Assign(a) => {
                buf.push(TAG_ASSIGN);
                put_u64(buf, a.task_id);
                put_u64(buf, a.domain.start());
                put_u64(buf, a.domain.len());
            }
            Message::Commit { task_id, root } => {
                buf.push(TAG_COMMIT);
                put_u64(buf, *task_id);
                put_bytes(buf, root);
            }
            Message::Challenge { task_id, samples } => {
                buf.push(TAG_CHALLENGE);
                put_u64(buf, *task_id);
                put_u64_list(buf, samples);
            }
            Message::Proofs { task_id, proofs } => {
                buf.push(TAG_PROOFS);
                put_u64(buf, *task_id);
                proofs.encode(buf);
            }
            Message::CommitAndProofs {
                task_id,
                root,
                proofs,
            } => {
                buf.push(TAG_COMMIT_AND_PROOFS);
                put_u64(buf, *task_id);
                put_bytes(buf, root);
                proofs.encode(buf);
            }
            Message::AllResults {
                task_id,
                leaf_width,
                data,
            } => {
                buf.push(TAG_ALL_RESULTS);
                put_u64(buf, *task_id);
                put_u32(buf, *leaf_width);
                put_bytes(buf, data);
            }
            Message::Reports { task_id, reports } => {
                buf.push(TAG_REPORTS);
                put_u64(buf, *task_id);
                put_u64(buf, reports.len() as u64);
                for (input, payload) in reports {
                    put_u64(buf, *input);
                    put_bytes(buf, payload);
                }
            }
            Message::RingerChallenge { task_id, ringers } => {
                buf.push(TAG_RINGER_CHALLENGE);
                put_u64(buf, *task_id);
                put_u64(buf, ringers.len() as u64);
                for r in ringers {
                    put_bytes(buf, r);
                }
            }
            Message::RingerFound { task_id, inputs } => {
                buf.push(TAG_RINGER_FOUND);
                put_u64(buf, *task_id);
                put_u64_list(buf, inputs);
            }
            Message::Verdict { task_id, accepted } => {
                buf.push(TAG_VERDICT);
                put_u64(buf, *task_id);
                buf.push(u8::from(*accepted));
            }
            Message::Session {
                session_id,
                payload,
            } => {
                assert!(
                    !matches!(payload.as_ref(), Message::Session { .. }),
                    "session envelopes must not nest"
                );
                buf.push(TAG_SESSION);
                put_u64(buf, *session_id);
                // Zero-alloc envelope: the payload encodes straight into
                // the same buffer instead of via a nested Vec.
                payload.encode_into(buf);
            }
            Message::Gone { task_id } => {
                buf.push(TAG_GONE);
                put_u64(buf, *task_id);
            }
        }
    }

    /// Exact encoded size in bytes, computed without encoding — what
    /// [`encode`](Self::encode) pre-allocates and what
    /// [`wire_len`](Self::wire_len) charges.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Message::Assign(_) => 24,
            Message::Commit { root, .. } => 8 + (8 + root.len()),
            Message::Challenge { samples, .. } => 8 + 8 + 8 * samples.len(),
            Message::Proofs { proofs, .. } => 8 + proofs.encoded_len(),
            Message::CommitAndProofs { root, proofs, .. } => {
                8 + (8 + root.len()) + proofs.encoded_len()
            }
            Message::AllResults { data, .. } => 8 + 4 + (8 + data.len()),
            Message::Reports { reports, .. } => {
                8 + 8
                    + reports
                        .iter()
                        .map(|(_, payload)| 8 + (8 + payload.len()))
                        .sum::<usize>()
            }
            Message::RingerChallenge { ringers, .. } => {
                8 + 8 + ringers.iter().map(|r| 8 + r.len()).sum::<usize>()
            }
            Message::RingerFound { inputs, .. } => 8 + 8 + 8 * inputs.len(),
            Message::Verdict { .. } => 8 + 1,
            Message::Session { payload, .. } => 8 + payload.encoded_len(),
            Message::Gone { .. } => 8,
        }
    }

    /// Decodes a message from its wire form.
    ///
    /// # Errors
    ///
    /// Any [`GridError`] codec variant on malformed input; the entire frame
    /// must be consumed.
    pub fn decode(frame: &[u8]) -> Result<Self, GridError> {
        let mut buf = frame;
        let mut tag = *buf
            .first()
            .ok_or(GridError::UnexpectedEof { context: "tag" })?;
        buf = &buf[1..];
        let mut session_id = None;
        if tag == TAG_SESSION {
            session_id = Some(get_u64(&mut buf, "session.id")?);
            tag = *buf.first().ok_or(GridError::UnexpectedEof {
                context: "session.payload_tag",
            })?;
            buf = &buf[1..];
            if tag == TAG_SESSION {
                // Nested envelopes are hostile framing, not a protocol state.
                return Err(GridError::UnknownTag { tag });
            }
        }
        let msg = match tag {
            TAG_ASSIGN => {
                let task_id = get_u64(&mut buf, "assign.task_id")?;
                let start = get_u64(&mut buf, "assign.start")?;
                let len = get_u64(&mut buf, "assign.len")?;
                let domain = Domain::try_new(start, len)
                    .map_err(|_| GridError::LengthOverflow { declared: len })?;
                Message::Assign(Assignment { task_id, domain })
            }
            TAG_COMMIT => Message::Commit {
                task_id: get_u64(&mut buf, "commit.task_id")?,
                root: get_bytes(&mut buf, "commit.root")?,
            },
            TAG_CHALLENGE => Message::Challenge {
                task_id: get_u64(&mut buf, "challenge.task_id")?,
                samples: get_u64_list(&mut buf, "challenge.samples")?,
            },
            TAG_PROOFS => Message::Proofs {
                task_id: get_u64(&mut buf, "proofs.task_id")?,
                proofs: Opening::decode(&mut buf)?,
            },
            TAG_COMMIT_AND_PROOFS => Message::CommitAndProofs {
                task_id: get_u64(&mut buf, "cap.task_id")?,
                root: get_bytes(&mut buf, "cap.root")?,
                proofs: Opening::decode(&mut buf)?,
            },
            TAG_ALL_RESULTS => Message::AllResults {
                task_id: get_u64(&mut buf, "all.task_id")?,
                leaf_width: get_u32(&mut buf, "all.leaf_width")?,
                data: get_bytes(&mut buf, "all.data")?,
            },
            TAG_REPORTS => {
                let task_id = get_u64(&mut buf, "reports.task_id")?;
                let count = get_u64(&mut buf, "reports.count")?;
                if count > 1 << 24 {
                    return Err(GridError::LengthOverflow { declared: count });
                }
                // A report is at least an input and a length prefix.
                let mut reports = Vec::with_capacity(bounded_capacity(buf, count, 16));
                for _ in 0..count {
                    let input = get_u64(&mut buf, "reports.input")?;
                    let payload = get_bytes(&mut buf, "reports.payload")?;
                    reports.push((input, payload));
                }
                Message::Reports { task_id, reports }
            }
            TAG_RINGER_CHALLENGE => {
                let task_id = get_u64(&mut buf, "ringer.task_id")?;
                let count = get_u64(&mut buf, "ringer.count")?;
                if count > 1 << 20 {
                    return Err(GridError::LengthOverflow { declared: count });
                }
                // A ringer is at least its length prefix.
                let mut ringers = Vec::with_capacity(bounded_capacity(buf, count, 8));
                for _ in 0..count {
                    ringers.push(get_bytes(&mut buf, "ringer.value")?);
                }
                Message::RingerChallenge { task_id, ringers }
            }
            TAG_RINGER_FOUND => Message::RingerFound {
                task_id: get_u64(&mut buf, "found.task_id")?,
                inputs: get_u64_list(&mut buf, "found.inputs")?,
            },
            TAG_GONE => Message::Gone {
                task_id: get_u64(&mut buf, "gone.task_id")?,
            },
            TAG_VERDICT => {
                let task_id = get_u64(&mut buf, "verdict.task_id")?;
                let flag = *buf.first().ok_or(GridError::UnexpectedEof {
                    context: "verdict.flag",
                })?;
                buf = &buf[1..];
                Message::Verdict {
                    task_id,
                    accepted: flag != 0,
                }
            }
            other => return Err(GridError::UnknownTag { tag: other }),
        };
        if !buf.is_empty() {
            return Err(GridError::TrailingBytes {
                remaining: buf.len(),
            });
        }
        Ok(match session_id {
            Some(session_id) => Message::Session {
                session_id,
                payload: Box::new(msg),
            },
            None => msg,
        })
    }

    /// Encoded size in bytes (what the transport will charge), computed
    /// without allocating.
    #[must_use]
    pub fn wire_len(&self) -> u64 {
        self.encoded_len() as u64
    }

    /// The task this message concerns (an envelope answers for its
    /// payload) — the only address a participant slot has, on every
    /// transport.
    #[must_use]
    pub fn task_id(&self) -> u64 {
        match self {
            Message::Assign(a) => a.task_id,
            Message::Commit { task_id, .. }
            | Message::Challenge { task_id, .. }
            | Message::Proofs { task_id, .. }
            | Message::CommitAndProofs { task_id, .. }
            | Message::AllResults { task_id, .. }
            | Message::Reports { task_id, .. }
            | Message::RingerChallenge { task_id, .. }
            | Message::RingerFound { task_id, .. }
            | Message::Verdict { task_id, .. }
            | Message::Gone { task_id } => *task_id,
            Message::Session { payload, .. } => payload.task_id(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two four-byte leaves opened, one leaf sibling, two digests.
    fn opening() -> Opening {
        Opening {
            leaf_width: 4,
            leaf_values: vec![1, 2, 3, 4, 5, 6, 7, 8],
            leaf_siblings: vec![9, 10, 11, 12],
            digest_siblings: [[13; 32], [14; 32]].concat(),
        }
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Assign(Assignment {
                task_id: 1,
                domain: Domain::new(100, 50),
            }),
            Message::Commit {
                task_id: 2,
                root: vec![7; 32],
            },
            Message::Challenge {
                task_id: 3,
                samples: vec![1, 2, 3],
            },
            Message::Proofs {
                task_id: 4,
                proofs: opening(),
            },
            Message::CommitAndProofs {
                task_id: 5,
                root: vec![8; 16],
                proofs: opening(),
            },
            Message::AllResults {
                task_id: 6,
                leaf_width: 8,
                data: vec![0; 64],
            },
            Message::Reports {
                task_id: 7,
                reports: vec![(3, vec![1, 2]), (9, vec![])],
            },
            Message::RingerChallenge {
                task_id: 8,
                ringers: vec![vec![1; 16], vec![2; 16]],
            },
            Message::RingerFound {
                task_id: 9,
                inputs: vec![42, 43],
            },
            Message::Verdict {
                task_id: 10,
                accepted: true,
            },
            envelope(
                0xfeed,
                Message::Verdict {
                    task_id: 11,
                    accepted: false,
                },
            ),
            Message::Gone { task_id: 12 },
        ]
    }

    fn envelope(session_id: u64, payload: Message) -> Message {
        Message::Session {
            session_id,
            payload: Box::new(payload),
        }
    }

    #[test]
    fn all_variants_roundtrip() {
        for msg in all_messages() {
            let encoded = msg.encode();
            let decoded = Message::decode(&encoded).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn task_id_accessor_covers_all_variants() {
        for (expected, msg) in all_messages().into_iter().enumerate() {
            assert_eq!(msg.task_id(), expected as u64 + 1);
        }
    }

    #[test]
    fn nested_session_envelope_rejected_on_decode() {
        let inner = envelope(
            1,
            Message::Verdict {
                task_id: 2,
                accepted: true,
            },
        );
        // Hand-build the hostile frame: TAG_SESSION + id + encoded envelope.
        let mut frame = vec![TAG_SESSION];
        put_u64(&mut frame, 5);
        frame.extend_from_slice(&inner.encode());
        assert_eq!(
            Message::decode(&frame),
            Err(GridError::UnknownTag { tag: TAG_SESSION })
        );
    }

    #[test]
    #[should_panic(expected = "must not nest")]
    fn nested_session_envelope_rejected_on_build() {
        let inner = envelope(
            1,
            Message::Verdict {
                task_id: 2,
                accepted: true,
            },
        );
        let _ = envelope(2, inner).encode();
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(
            Message::decode(&[0xEE]),
            Err(GridError::UnknownTag { tag: 0xEE })
        );
    }

    #[test]
    fn empty_frame_rejected() {
        assert!(matches!(
            Message::decode(&[]),
            Err(GridError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut encoded = Message::Verdict {
            task_id: 1,
            accepted: false,
        }
        .encode();
        encoded.push(0);
        assert_eq!(
            Message::decode(&encoded),
            Err(GridError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn truncation_anywhere_fails_cleanly() {
        for msg in all_messages() {
            let encoded = msg.encode();
            for cut in 0..encoded.len() {
                let err = Message::decode(&encoded[..cut]);
                assert!(err.is_err(), "truncation at {cut} decoded successfully");
            }
        }
    }

    #[test]
    fn verdict_flag_nonzero_is_true() {
        let mut encoded = Message::Verdict {
            task_id: 1,
            accepted: true,
        }
        .encode();
        *encoded.last_mut().unwrap() = 7;
        assert_eq!(
            Message::decode(&encoded).unwrap(),
            Message::Verdict {
                task_id: 1,
                accepted: true
            }
        );
    }

    #[test]
    fn wire_len_matches_encoding() {
        for msg in all_messages() {
            assert_eq!(msg.wire_len(), msg.encode().len() as u64);
        }
    }

    #[test]
    fn encoded_len_is_exact_for_every_variant() {
        // encode() pre-allocates encoded_len() bytes; if the computed
        // size ever drifted from the actual encoding, either byte
        // accounting (wire_len) or the exact-capacity claim would lie.
        for msg in all_messages() {
            let encoded = msg.encode();
            assert_eq!(msg.encoded_len(), encoded.len(), "{msg:?}");
            assert_eq!(encoded.capacity(), encoded.len(), "{msg:?}");
        }
    }

    #[test]
    fn encode_into_appends_without_rewriting() {
        // The zero-alloc path appends to whatever is already in the
        // buffer, so a caller can reuse one Vec across frames.
        let mut buf = vec![0xAA, 0xBB];
        let msg = Message::Verdict {
            task_id: 9,
            accepted: true,
        };
        msg.encode_into(&mut buf);
        assert_eq!(&buf[..2], &[0xAA, 0xBB]);
        assert_eq!(&buf[2..], msg.encode().as_slice());
    }

    #[test]
    fn challenge_size_scales_with_samples() {
        let small = Message::Challenge {
            task_id: 1,
            samples: vec![0; 10],
        };
        let big = Message::Challenge {
            task_id: 1,
            samples: vec![0; 100],
        };
        assert_eq!(big.wire_len() - small.wire_len(), 90 * 8);
    }

    #[test]
    fn opening_counts_whole_leaves() {
        assert_eq!(opening().len(), 2);
        assert!(!opening().is_empty());
        // Trailing bytes are not a leaf, and no width is no leaf at all.
        let mut ragged = opening();
        ragged.leaf_values.push(0);
        assert_eq!(ragged.len(), 2);
        ragged.leaf_width = 0;
        assert_eq!(ragged.len(), 0);
        assert!(Opening::default().is_empty());
        // The fixed cost of the format: a width and three length words.
        let empty = Message::Proofs {
            task_id: 1,
            proofs: Opening::default(),
        };
        assert_eq!(empty.wire_len(), 1 + 8 + 4 + 3 * 8);
        let full = Message::Proofs {
            task_id: 1,
            proofs: opening(),
        };
        assert_eq!(full.wire_len() - empty.wire_len(), 8 + 4 + 64);
    }

    #[test]
    fn hostile_opening_row_length_rejected() {
        // Each row's declared length in turn: beyond any frame, then
        // merely beyond this one.
        for row in 0..3 {
            for (declared, overflow) in [(u64::MAX, true), (1 << 30, false)] {
                let mut buf = vec![TAG_PROOFS];
                put_u64(&mut buf, 1);
                put_u32(&mut buf, 16);
                for _ in 0..row {
                    put_bytes(&mut buf, &[7; 16]);
                }
                put_u64(&mut buf, declared);
                let result = Message::decode(&buf);
                if overflow {
                    assert_eq!(result, Err(GridError::LengthOverflow { declared }));
                } else {
                    assert!(matches!(result, Err(GridError::UnexpectedEof { .. })));
                }
            }
        }
    }

    /// A frame that is a tag, a task id, whatever fixed fields precede
    /// the variant's count, and the count — nothing behind it.
    fn header_only(tag: u8, prefix: &[u8], declared: u64) -> Vec<u8> {
        let mut frame = vec![tag];
        put_u64(&mut frame, 1);
        frame.extend_from_slice(prefix);
        put_u64(&mut frame, declared);
        frame
    }

    fn assert_eof(frame: &[u8], context: &'static str) {
        assert_eq!(
            Message::decode(frame),
            Err(GridError::UnexpectedEof { context })
        );
    }

    // A declared count is checked against a constant, then believed only
    // as far as the frame reaches: each of these used to reserve room for
    // every declared element before reading one (512 MiB for the
    // 17-byte `Reports` frame). What can be asserted from outside is that
    // the error is the one the first missing element always produced.

    #[test]
    fn header_only_reports_frame_is_eof_at_the_first_report() {
        assert_eof(&header_only(TAG_REPORTS, &[], 1 << 24), "reports.input");
        assert!(matches!(
            Message::decode(&header_only(TAG_REPORTS, &[], (1 << 24) + 1)),
            Err(GridError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn header_only_ringer_challenge_frame_is_eof_at_the_first_ringer() {
        let frame = header_only(TAG_RINGER_CHALLENGE, &[], 1 << 20);
        assert_eof(&frame, "ringer.value");
    }

    #[test]
    fn header_only_challenge_frame_is_eof_at_the_first_sample() {
        let frame = header_only(TAG_CHALLENGE, &[], (1 << 30) / 8);
        assert_eof(&frame, "challenge.samples");
    }

    #[test]
    fn header_only_ringer_found_frame_is_eof_at_the_first_input() {
        let frame = header_only(TAG_RINGER_FOUND, &[], (1 << 30) / 8);
        assert_eof(&frame, "found.inputs");
    }

    #[test]
    fn header_only_proofs_frame_is_eof_in_the_first_row() {
        let frame = header_only(TAG_PROOFS, &16u32.to_le_bytes(), 1 << 30);
        assert_eof(&frame, "opening.leaf_values");
    }

    #[test]
    fn header_only_commit_and_proofs_frame_is_eof_in_the_first_row() {
        let mut prefix = Vec::new();
        put_bytes(&mut prefix, &[3; 32]);
        put_u32(&mut prefix, 16);
        let frame = header_only(TAG_COMMIT_AND_PROOFS, &prefix, 1 << 30);
        assert_eof(&frame, "opening.leaf_values");
    }

    #[test]
    fn header_only_byte_string_frames_are_eof_in_the_string() {
        // The variants whose only variable part is one byte string.
        assert_eof(&header_only(TAG_COMMIT, &[], 1 << 30), "commit.root");
        let frame = header_only(TAG_ALL_RESULTS, &16u32.to_le_bytes(), 1 << 30);
        assert_eof(&frame, "all.data");
    }

    #[test]
    fn every_strict_prefix_of_an_opening_message_is_a_typed_eof() {
        // A round's worth of rows, not the three-entry toy above.
        let proofs = Opening {
            leaf_width: 16,
            leaf_values: vec![1; 6 * 16],
            leaf_siblings: vec![2; 5 * 16],
            digest_siblings: vec![3; 17 * 32],
        };
        let messages = [
            Message::Proofs {
                task_id: 4,
                proofs: proofs.clone(),
            },
            Message::CommitAndProofs {
                task_id: 5,
                root: vec![8; 32],
                proofs,
            },
        ];
        for msg in messages {
            let encoded = msg.encode();
            assert_eq!(Message::decode(&encoded), Ok(msg.clone()));
            for cut in 0..encoded.len() {
                assert!(
                    matches!(
                        Message::decode(&encoded[..cut]),
                        Err(GridError::UnexpectedEof { .. })
                    ),
                    "cut at {cut} of {}",
                    encoded.len()
                );
            }
        }
    }
}
