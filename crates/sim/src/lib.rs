//! Monte-Carlo experiment harness for the Uncheatable Grid Computing
//! reproduction.
//!
//! The paper's evaluation is analytical; this crate is the empirical side
//! of the reproduction. It estimates detection/cheat-success probabilities
//! by running many independent rounds — either the *fast path* (just the
//! sampling event of Theorem 3) for dense parameter grids, or the *full
//! protocol path* (complete CBS rounds over the byte-counted transport)
//! for validation — and reports Wilson confidence intervals so the
//! reproduction (`cargo run --release -p ugc-bench --bin repro`) can show
//! agreement bands, not just point estimates. Both paths take the
//! [`Parallelism`] to shard their trials over and return the same counts
//! at any setting.
//!
//! # Examples
//!
//! ```
//! use ugc_sim::{estimate_cheat_success_fast, DetectionExperiment, Parallelism};
//! use ugc_core::analysis::cheat_success_probability;
//!
//! let exp = DetectionExperiment {
//!     domain_size: 256,
//!     samples: 10,
//!     honesty_ratio: 0.5,
//!     guess_quality: 0.0,
//!     trials: 2_000,
//!     seed: 42,
//! };
//! let est = estimate_cheat_success_fast(&exp, Parallelism::serial());
//! assert_eq!(est, estimate_cheat_success_fast(&exp, Parallelism::threads(2)));
//! let theory = cheat_success_probability(0.5, 0.0, 10);
//! assert!(est.ci_low <= theory && theory <= est.ci_high);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod montecarlo;
mod stats;
mod table;

pub use montecarlo::{
    estimate_cheat_success_fast, estimate_cheat_success_protocol,
    estimate_cheat_success_under_churn, ChurnModel, DetectionExperiment, RateEstimate,
};
pub use stats::{wilson_interval, Summary};
pub use table::Table;
// Trials are sharded with the same knob the scheme layer uses for tree
// builds.
pub use ugc_core::Parallelism;
