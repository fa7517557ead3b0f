//! What a campaign's participant side runs on: deterministic fault
//! injection for its links, and the worker pool that multiplexes its
//! sessions.
//!
//! * [`FaultPlan`] / [`FaultyEndpoint`] — a seeded schedule of drops,
//!   duplicates, reorders, delays and crashes, a pure function of
//!   `(seed, link, direction, seq)`, applied by a [`GridLink`](crate::GridLink)
//!   decorator and recorded in a [`FaultLog`], so a chaotic campaign
//!   replays bit-identically under any thread interleaving.
//! * [`GridScheduler`] — many poll-driven [`GridTask`]s over a fixed
//!   pool of OS threads, woken by their links' mail (see
//!   [`scheduler`]); in process, a round's shards, one per worker.
//!
//! The scheme-aware wiring (which session runs on which link, behind
//! which broker) lives in `ugc-core`'s orchestrator and transport
//! backends; this module is deliberately ignorant of sessions.
//!
//! ```
//! use ugc_grid::runtime::{FaultEvent, FaultPlan, FaultyEndpoint};
//! use ugc_grid::{duplex, GridLink, Message};
//!
//! // Link 3 of a plan that drops every outbound message.
//! let plan = FaultPlan::quiet(7).with_drops(1024);
//! let (supervisor, participant) = duplex();
//! let link = FaultyEndpoint::new(participant, plan.link(3));
//! let log = link.log();
//! link.send(&Message::Verdict { task_id: 1, accepted: true })?;
//! drop(link);
//! assert!(supervisor.recv().is_err(), "nothing crossed before the hang-up");
//! assert!(matches!(log.snapshot()[..], [FaultEvent::Dropped { link: 3, seq: 0, .. }]));
//! # Ok::<(), ugc_grid::GridError>(())
//! ```

mod fault;
pub mod scheduler;

pub use fault::{
    FaultDecision, FaultEvent, FaultLog, FaultPlan, FaultyEndpoint, LinkDirection, LinkFaults,
};
pub use scheduler::{GridScheduler, GridTask, TaskPoll};
