//! Grid-computing simulator for the Uncheatable Grid Computing reproduction.
//!
//! The paper's claims are about *protocol costs* — who sends how many bytes
//! (`O(n)` for naive sampling vs `O(m log n)` for CBS) and who performs how
//! much computation — and about *detection probabilities* against defined
//! cheating behaviours. This crate provides the substrate those experiments
//! run on:
//!
//! * [`Message`] and the [`codec`] — a compact, hand-rolled wire format, so
//!   measured byte counts are the protocol's own, not a serializer's.
//! * [`Endpoint`] / [`duplex`] — in-memory links, the evaluation's network
//!   substitute. A link counts nothing: what a message costs is
//!   [`Message::charged`], the same on every transport, and the session
//!   engine charges it to the session's ledger.
//! * [`CostLedger`] — per-actor accounting of `f` evaluations, hash
//!   operations, sample-generator (`g`) evaluations and traffic.
//! * [`WorkerBehaviour`] and friends — the honest participant, the
//!   semi-honest cheater with honesty ratio `r` and guess quality `q`
//!   (Section 2.2), and the malicious result-corrupter.
//! * [`Broker`] — a GRACE-style Grid Resource Broker that hides
//!   participants from the supervisor (the Section 4 motivation for the
//!   non-interactive scheme).
//! * [`runtime`] — what a campaign's participant side runs on: seeded,
//!   bit-replayable fault injection for its links ([`FaultPlan`]) and the
//!   work-stealing pool that multiplexes its sessions
//!   ([`GridScheduler`]).
//! * [`wire`] / [`tcp`] — the cross-process backend: the same frames over
//!   real sockets, each exactly [`Message::charged`] bytes, so a campaign
//!   spanning OS processes produces bit-identical digests.
//!
//! # Examples
//!
//! ```
//! use ugc_grid::{duplex, GridLink, Message};
//!
//! let (sup, part) = duplex();
//! sup.send(&Message::Challenge { task_id: 1, samples: vec![3, 5, 8] })?;
//! let msg = part.recv()?;
//! assert!(matches!(msg, Message::Challenge { task_id: 1, .. }));
//! // What the message costs on any link: its encoding plus a 4-byte header.
//! assert_eq!(msg.charged(), msg.encode().len() as u64 + 4);
//! # Ok::<(), ugc_grid::GridError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod behaviour;
mod broker;
pub mod codec;
mod error;
mod ledger;
mod message;
pub mod runtime;
pub mod tcp;
mod transport;
pub mod wire;

pub use behaviour::{
    CheatSelection, HonestWorker, MaliciousWorker, SemiHonestCheater, WorkerBehaviour,
};
pub use broker::{Admission, Broker, Mail, Relay, RelayLink, RelayStats, Routes};
pub use error::GridError;
pub use ledger::{CostLedger, CostReport, Throughput};
pub use message::{Assignment, Message, Opening};
pub use runtime::{FaultEvent, FaultPlan, FaultyEndpoint, GridScheduler, GridTask, TaskPoll};
pub use tcp::{ControlHandle, DialLink, RelaySocket, TcpLink};
pub use transport::{
    duplex, fan_in, Doorbell, Endpoint, FanIn, GridLink, LinkStats, FRAME_HEADER_BYTES,
};
