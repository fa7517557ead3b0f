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
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use crate::codec::{
    get_bytes, get_list, get_u32, get_var, put_bytes, put_list, put_var, var_len, MAX_FIELD_LEN,
};
use crate::GridError;
use ugc_task::{Domain, ScreenReport};

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
/// | `leaf_width` | `v(w)` | width `w` of one `f(x)` |
/// | `leaf_values` | `v(d·w)` + `d·w` | the `d` distinct sampled `f(x_i)`, in index order |
/// | `leaf_siblings` | `v(s·w)` + `s·w` | the raw neighbour of every sampled leaf whose neighbour is not sampled too, in index order |
/// | `digest_siblings` | `v(t·D)` + `t·D` | for tree levels `1 … H − 1` bottom-up, in node order: the sibling of every node on a sampled path that the supervisor cannot rebuild from what it already holds |
///
/// `v(x)` is the 1–10 bytes of `x` in LEB128
/// ([`var_len`](crate::codec::var_len)): two for a row below 16 KiB.
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
///
/// A message carries its opening boxed. Inline, its 80 bytes would set
/// the size of every [`Message`], a one-word `Verdict` included, and every
/// queued lane slot and inbox entry holds one message; boxed, the two
/// variants that carry an opening pay one allocation each, and the wire
/// bytes are the same.
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
        put_var(buf, u64::from(self.leaf_width));
        put_bytes(buf, &self.leaf_values);
        put_bytes(buf, &self.leaf_siblings);
        put_bytes(buf, &self.digest_siblings);
    }

    /// Exact encoded size in bytes, without encoding.
    fn encoded_len(&self) -> usize {
        var_len(u64::from(self.leaf_width))
            + bytes_len(&self.leaf_values)
            + bytes_len(&self.leaf_siblings)
            + bytes_len(&self.digest_siblings)
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
        proofs: Box<Opening>,
    },
    /// Participant → supervisor: NI-CBS single-shot commitment plus the
    /// self-derived sample proofs (Section 4.1).
    CommitAndProofs {
        /// Task being proven.
        task_id: u64,
        /// The root digest `Φ(R)`.
        root: Vec<u8>,
        /// One opening over the samples derived from `Φ(R)` via Eq. (4).
        proofs: Box<Opening>,
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
        /// The results that passed the screener.
        reports: Vec<ScreenReport>,
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

/// Encoded size of a length-prefixed byte string.
fn bytes_len(bytes: &[u8]) -> usize {
    var_len(bytes.len() as u64) + bytes.len()
}

/// Reads a list of integers, at least a byte each.
fn get_u64_list(buf: &mut &[u8], context: &'static str) -> Result<Vec<u64>, GridError> {
    get_list(buf, context, (MAX_FIELD_LEN / 8, 1), |buf| {
        get_var(buf, context)
    })
}

/// Encoded size of a length-prefixed list of integers.
fn list_len(list: &[u64]) -> usize {
    var_len(list.len() as u64) + list.iter().map(|&v| var_len(v)).sum::<usize>()
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
        let tag = match self {
            Message::Assign(_) => TAG_ASSIGN,
            Message::Commit { .. } => TAG_COMMIT,
            Message::Challenge { .. } => TAG_CHALLENGE,
            Message::Proofs { .. } => TAG_PROOFS,
            Message::CommitAndProofs { .. } => TAG_COMMIT_AND_PROOFS,
            Message::AllResults { .. } => TAG_ALL_RESULTS,
            Message::Reports { .. } => TAG_REPORTS,
            Message::RingerChallenge { .. } => TAG_RINGER_CHALLENGE,
            Message::RingerFound { .. } => TAG_RINGER_FOUND,
            Message::Verdict { .. } => TAG_VERDICT,
            Message::Session {
                session_id,
                payload,
            } => {
                assert!(
                    !matches!(payload.as_ref(), Message::Session { .. }),
                    "session envelopes must not nest"
                );
                buf.push(TAG_SESSION);
                put_var(buf, *session_id);
                // Zero-alloc envelope: the payload encodes straight into
                // the same buffer instead of via a nested Vec.
                return payload.encode_into(buf);
            }
            Message::Gone { .. } => TAG_GONE,
        };
        // Every bare message is its tag, its task id, then its body.
        buf.push(tag);
        put_var(buf, self.task_id());
        match self {
            Message::Assign(a) => {
                put_var(buf, a.domain.start());
                put_var(buf, a.domain.len());
            }
            Message::Commit { root, .. } => put_bytes(buf, root),
            Message::Challenge { samples, .. } => put_list(buf, samples, |b, &v| put_var(b, v)),
            Message::Proofs { proofs, .. } => proofs.encode(buf),
            Message::CommitAndProofs { root, proofs, .. } => {
                put_bytes(buf, root);
                proofs.encode(buf);
            }
            Message::AllResults {
                leaf_width, data, ..
            } => {
                put_var(buf, u64::from(*leaf_width));
                put_bytes(buf, data);
            }
            Message::Reports { reports, .. } => put_list(buf, reports, |buf, report| {
                put_var(buf, report.input);
                put_bytes(buf, &report.payload);
            }),
            Message::RingerChallenge { ringers, .. } => {
                put_list(buf, ringers, |b, r| put_bytes(b, r))
            }
            Message::RingerFound { inputs, .. } => put_list(buf, inputs, |b, &v| put_var(b, v)),
            Message::Verdict { accepted, .. } => buf.push(u8::from(*accepted)),
            Message::Session { .. } | Message::Gone { .. } => {}
        }
    }

    /// Exact encoded size in bytes, computed without encoding — what
    /// [`encode`](Self::encode) pre-allocates and what
    /// [`charged`](Self::charged) counts.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let body = match self {
            Message::Assign(a) => var_len(a.domain.start()) + var_len(a.domain.len()),
            Message::Commit { root, .. } => bytes_len(root),
            Message::Challenge { samples, .. } => list_len(samples),
            Message::Proofs { proofs, .. } => proofs.encoded_len(),
            Message::CommitAndProofs { root, proofs, .. } => bytes_len(root) + proofs.encoded_len(),
            Message::AllResults {
                leaf_width, data, ..
            } => var_len(u64::from(*leaf_width)) + bytes_len(data),
            Message::Reports { reports, .. } => {
                let each = reports
                    .iter()
                    .map(|r| var_len(r.input) + bytes_len(&r.payload));
                var_len(reports.len() as u64) + each.sum::<usize>()
            }
            Message::RingerChallenge { ringers, .. } => {
                var_len(ringers.len() as u64) + ringers.iter().map(|r| bytes_len(r)).sum::<usize>()
            }
            Message::RingerFound { inputs, .. } => list_len(inputs),
            Message::Verdict { .. } => 1,
            Message::Session {
                session_id,
                payload,
            } => return 1 + var_len(*session_id) + payload.encoded_len(),
            Message::Gone { .. } => 0,
        };
        1 + var_len(self.task_id()) + body
    }

    /// Decodes a message from its wire form.
    ///
    /// # Errors
    ///
    /// Any [`GridError`] codec variant on malformed input; the entire frame
    /// must be consumed.
    pub fn decode(frame: &[u8]) -> Result<Self, GridError> {
        let mut buf = frame;
        let mut tag = *buf.first().ok_or(GridError::UnexpectedEof {
            context: "tag".into(),
        })?;
        buf = &buf[1..];
        let mut session_id = None;
        if tag == TAG_SESSION {
            session_id = Some(get_var(&mut buf, "session.id")?);
            tag = *buf.first().ok_or(GridError::UnexpectedEof {
                context: "session.payload_tag".into(),
            })?;
            buf = &buf[1..];
            if tag == TAG_SESSION {
                // Nested envelopes are hostile framing, not a protocol state.
                return Err(GridError::UnknownTag { tag });
            }
        }
        let msg = match tag {
            TAG_ASSIGN => {
                let task_id = get_var(&mut buf, "assign.task_id")?;
                let start = get_var(&mut buf, "assign.start")?;
                let len = get_var(&mut buf, "assign.len")?;
                let domain = Domain::try_new(start, len)
                    .map_err(|_| GridError::LengthOverflow { declared: len })?;
                Message::Assign(Assignment { task_id, domain })
            }
            TAG_COMMIT => Message::Commit {
                task_id: get_var(&mut buf, "commit.task_id")?,
                root: get_bytes(&mut buf, "commit.root")?,
            },
            TAG_CHALLENGE => Message::Challenge {
                task_id: get_var(&mut buf, "challenge.task_id")?,
                samples: get_u64_list(&mut buf, "challenge.samples")?,
            },
            TAG_PROOFS => Message::Proofs {
                task_id: get_var(&mut buf, "proofs.task_id")?,
                proofs: Box::new(Opening::decode(&mut buf)?),
            },
            TAG_COMMIT_AND_PROOFS => Message::CommitAndProofs {
                task_id: get_var(&mut buf, "cap.task_id")?,
                root: get_bytes(&mut buf, "cap.root")?,
                proofs: Box::new(Opening::decode(&mut buf)?),
            },
            TAG_ALL_RESULTS => Message::AllResults {
                task_id: get_var(&mut buf, "all.task_id")?,
                leaf_width: get_u32(&mut buf, "all.leaf_width")?,
                data: get_bytes(&mut buf, "all.data")?,
            },
            TAG_REPORTS => Message::Reports {
                task_id: get_var(&mut buf, "reports.task_id")?,
                // A report is at least an input and a length prefix, a byte each.
                reports: get_list(&mut buf, "reports.count", (1 << 24, 2), |buf| {
                    Ok(ScreenReport {
                        input: get_var(buf, "reports.input")?,
                        payload: get_bytes(buf, "reports.payload")?,
                    })
                })?,
            },
            // A ringer is at least its one-byte length prefix.
            TAG_RINGER_CHALLENGE => Message::RingerChallenge {
                task_id: get_var(&mut buf, "ringer.task_id")?,
                ringers: get_list(&mut buf, "ringer.count", (1 << 20, 1), |buf| {
                    get_bytes(buf, "ringer.value")
                })?,
            },
            TAG_RINGER_FOUND => Message::RingerFound {
                task_id: get_var(&mut buf, "found.task_id")?,
                inputs: get_u64_list(&mut buf, "found.inputs")?,
            },
            TAG_GONE => Message::Gone {
                task_id: get_var(&mut buf, "gone.task_id")?,
            },
            TAG_VERDICT => {
                let task_id = get_var(&mut buf, "verdict.task_id")?;
                let flag = *buf.first().ok_or(GridError::UnexpectedEof {
                    context: "verdict.flag".into(),
                })?;
                buf = &buf[1..];
                let accepted = match flag {
                    0 => false,
                    1 => true,
                    // A flag is one of two bytes; anything else is a forged frame.
                    _ => return Err(GridError::UnknownTag { tag: flag }),
                };
                Message::Verdict { task_id, accepted }
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

    /// The bytes this message costs on any link: its encoded length plus
    /// the [`FRAME_HEADER_BYTES`](crate::FRAME_HEADER_BYTES) length
    /// prefix — exactly what a TCP peer writes for it, because the codec
    /// is canonical. The one place the charging rule lives.
    #[must_use]
    pub fn charged(&self) -> u64 {
        self.encoded_len() as u64 + crate::FRAME_HEADER_BYTES
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
                proofs: Box::new(opening()),
            },
            Message::CommitAndProofs {
                task_id: 5,
                root: vec![8; 16],
                proofs: Box::new(opening()),
            },
            Message::AllResults {
                task_id: 6,
                leaf_width: 8,
                data: vec![0; 64],
            },
            Message::Reports {
                task_id: 7,
                reports: [(3, vec![1, 2]), (9, vec![])]
                    .map(|(input, payload)| ScreenReport { input, payload })
                    .into(),
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
        put_var(&mut frame, 5);
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
    fn verdict_flag_other_than_zero_or_one_is_refused() {
        let mut encoded = Message::Verdict {
            task_id: 1,
            accepted: true,
        }
        .encode();
        *encoded.last_mut().unwrap() = 2;
        assert_eq!(
            Message::decode(&encoded),
            Err(GridError::UnknownTag { tag: 2 })
        );
    }

    #[test]
    fn encoded_len_is_exact_for_every_variant() {
        // encode() pre-allocates encoded_len() bytes; if the computed
        // size ever drifted from the actual encoding, either byte
        // accounting (charged) or the exact-capacity claim would lie.
        for msg in all_messages() {
            let encoded = msg.encode();
            assert_eq!(msg.encoded_len(), encoded.len(), "{msg:?}");
            assert_eq!(encoded.capacity(), encoded.len(), "{msg:?}");
        }
    }

    #[test]
    fn wire_len_matches_encoding() {
        // What a message is charged is what a TCP peer writes for it:
        // the encoding behind its four-byte length prefix.
        for msg in all_messages() {
            assert_eq!(msg.charged(), msg.encode().len() as u64 + 4, "{msg:?}");
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
        // Each sample costs its own LEB128 length; both counts are one
        // byte.
        let small = Message::Challenge {
            task_id: 1,
            samples: vec![1 << 20; 10],
        };
        let big = Message::Challenge {
            task_id: 1,
            samples: vec![1 << 20; 100],
        };
        assert_eq!(var_len(1 << 20), 3);
        assert_eq!(big.charged() - small.charged(), 90 * 3);
    }

    #[test]
    fn a_message_stays_small() {
        // Every queued lane slot, inbox entry and burst slot is one
        // `Message`, so the largest variant sets the size of every queue
        // entry: a payload held inline, rather than behind a `Vec` or a
        // `Box`, fails here instead of inflating every queue.
        assert!(
            std::mem::size_of::<Message>() <= 48,
            "a Message is {} bytes",
            std::mem::size_of::<Message>()
        );
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
        // The fixed cost of the format: a frame header, a tag, a task id,
        // a width and three lengths, each integer one byte when small.
        let empty = Message::Proofs {
            task_id: 1,
            proofs: Box::new(Opening::default()),
        };
        assert_eq!(empty.charged(), 4 + 1 + 1 + 1 + 3);
        let full = Message::Proofs {
            task_id: 1,
            proofs: Box::new(opening()),
        };
        assert_eq!(full.charged() - empty.charged(), 8 + 4 + 64);
    }

    #[test]
    fn hostile_opening_row_length_rejected() {
        // Each row's declared length in turn: beyond any frame, then
        // merely beyond this one.
        for row in 0..3 {
            for (declared, overflow) in [(u64::MAX, true), (1 << 30, false)] {
                let mut buf = vec![TAG_PROOFS];
                put_var(&mut buf, 1);
                put_var(&mut buf, 16);
                for _ in 0..row {
                    put_bytes(&mut buf, &[7; 16]);
                }
                put_var(&mut buf, declared);
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
        put_var(&mut frame, 1);
        frame.extend_from_slice(prefix);
        put_var(&mut frame, declared);
        frame
    }

    fn assert_eof(frame: &[u8], context: &'static str) {
        assert_eq!(
            Message::decode(frame),
            Err(GridError::UnexpectedEof {
                context: context.into()
            })
        );
    }

    // A declared count is checked against a constant, then believed only
    // as far as the frame reaches: each of these used to reserve room for
    // every declared element before reading one (512 MiB for a
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
        let frame = header_only(TAG_PROOFS, &[16], 1 << 30);
        assert_eof(&frame, "opening.leaf_values");
    }

    #[test]
    fn header_only_commit_and_proofs_frame_is_eof_in_the_first_row() {
        let mut prefix = Vec::new();
        put_bytes(&mut prefix, &[3; 32]);
        put_var(&mut prefix, 16);
        let frame = header_only(TAG_COMMIT_AND_PROOFS, &prefix, 1 << 30);
        assert_eof(&frame, "opening.leaf_values");
    }

    #[test]
    fn header_only_byte_string_frames_are_eof_in_the_string() {
        // The variants whose only variable part is one byte string.
        assert_eof(&header_only(TAG_COMMIT, &[], 1 << 30), "commit.root");
        let frame = header_only(TAG_ALL_RESULTS, &[16], 1 << 30);
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
                proofs: Box::new(proofs.clone()),
            },
            Message::CommitAndProofs {
                task_id: 5,
                root: vec![8; 32],
                proofs: Box::new(proofs),
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
