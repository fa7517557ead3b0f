//! Uncheatable grid computing: the Commitment-Based Sampling schemes of
//! Du, Jia, Mangal and Murugesan (ICDCS 2004), plus every baseline the
//! paper compares against.
//!
//! # The problem
//!
//! A supervisor assigns a participant the evaluation of `f(x)` for all
//! `x ∈ D = {x_1 … x_n}` and receives only the screened "results of
//! interest". A *semi-honest* cheater evaluates `f` on a subset `D′`
//! (honesty ratio `r = |D′|/|D|`) and guesses the rest; how does the
//! supervisor detect this efficiently?
//!
//! # The schemes
//!
//! | Module | Scheme | Communication | Detects `r < 1` with |
//! |--------|--------|---------------|----------------------|
//! | [`scheme::double_check`] | assign twice, compare | `O(n)` ×2 | certainty (if one replica honest) — but 100% wasted cycles |
//! | [`scheme::naive`] | upload all, spot-check `m` | `O(n)` | `1 − (r + (1−r)q)^m` |
//! | [`scheme::cbs`] | **CBS** (§3): Merkle commitment + sampling | `O(m log n)` | `1 − (r + (1−r)q)^m` (Theorem 3) |
//! | [`scheme::ni_cbs`] | **NI-CBS** (§4): samples derived from the root | `O(m log n)`, one round | same, minus the retry attack priced out by Eq. (5) |
//! | [`scheme::ringer`] | Golle–Mironov ringers (§1.1) | `O(1)` extra | `1 − r^d`, one-way `f` only |
//!
//! The [`analysis`] module provides every closed form in the paper
//! (Eqs. 2–5, the `rco = 2m/S` storage trade-off), and [`sampling`]
//! implements both interactive sample selection and the Eq. (4) hash-chain
//! derivation. A fleet of any mix of them is one campaign loop
//! ([`run_fleet_on`]) over any [`TransportBackend`], and every participant
//! slot, pooled or in a joined process, ends in one [`SlotReport`].
//!
//! # Examples
//!
//! A full interactive CBS round against a half-honest cheater:
//!
//! ```
//! use ugc_core::scheme::{cbs::CbsScheme, run_round};
//! use ugc_core::MixedFleetConfig;
//! use ugc_grid::{CheatSelection, SemiHonestCheater};
//! use ugc_hash::Sha256;
//! use ugc_task::{workloads::PasswordSearch, Domain, ZeroGuesser};
//!
//! let task = PasswordSearch::with_hidden_password(1, 42);
//! let screener = task.match_screener();
//! let cheater = SemiHonestCheater::new(0.5, CheatSelection::Scattered, ZeroGuesser::new(7), 3);
//! let outcome = run_round::<Sha256>(
//!     &CbsScheme { samples: 20, seed: 99, report_audit: 0 },
//!     &task,
//!     &screener,
//!     Domain::new(0, 256),
//!     &[&cheater],
//!     &MixedFleetConfig::default(),
//! )?;
//! assert!(!outcome.accepted, "a 50% cheater must not survive 20 samples");
//! # Ok::<(), ugc_core::SchemeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod backend;
pub mod engine;
mod error;
mod journal;
mod orchestrator;
mod outcome;
pub mod sampling;
pub mod scheme;
pub mod session;

pub use backend::{
    chaos_link_id, serve_remote_slots, InProcessBackend, RemoteGridBackend, RoundResult, RoundSpec,
    SlotReport, TransportBackend, TransportKind,
};
pub use error::SchemeError;
pub use journal::{summary_digest, CampaignHeader, DurableCampaign, ResumeReport};
pub use orchestrator::{
    run_durable_fleet, run_fleet_on, run_mixed_fleet, FleetMember, FleetScheme, FleetSummary,
    MemberSpec, MixedFleetConfig,
};
pub use outcome::{ParticipantStorage, RoundOutcome, Verdict};
pub use session::{
    ParticipantContext, ParticipantSession, SessionOutcome, SupervisorContext, SupervisorSession,
    VerificationScheme,
};
// The execution knobs of a participant's tree build (thread count and
// digest-kernel width); re-exported so scheme users need not depend on
// `ugc-merkle` directly.
pub use ugc_merkle::{LaneWidth, Parallelism};
