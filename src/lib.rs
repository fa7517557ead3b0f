//! # Uncheatable Grid Computing
//!
//! A complete Rust implementation of *Uncheatable Grid Computing* (Du,
//! Jia, Mangal, Murugesan; ICDCS 2004): the Commitment-Based Sampling
//! (CBS) scheme, its storage-optimised and non-interactive variants, every
//! baseline the paper compares against, and the grid-computing substrate
//! to run and measure them.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`hash`] | `ugc-hash` | MD5 / SHA-256 from scratch, hardened `g = H^k` |
//! | [`merkle`] | `ugc-merkle` | commitment trees, authentication paths, partial storage |
//! | [`task`] | `ugc-task` | compute functions, screeners, domains, synthetic workloads |
//! | [`grid`] | `ugc-grid` | transport with one charging rule (`Message::charged`), cost ledgers, cheating behaviours, broker |
//! | [`core`] | `ugc-core` | CBS, NI-CBS, naive sampling, double-check, ringers, closed-form analysis |
//!
//! # Quick start
//!
//! Verify an untrusted worker with interactive CBS:
//!
//! ```
//! use uncheatable_grid::core::scheme::{cbs::CbsScheme, run_round};
//! use uncheatable_grid::core::MixedFleetConfig;
//! use uncheatable_grid::grid::HonestWorker;
//! use uncheatable_grid::hash::Sha256;
//! use uncheatable_grid::task::{workloads::PasswordSearch, Domain};
//!
//! let task = PasswordSearch::with_hidden_password(42, 1000);
//! let screener = task.match_screener();
//! let outcome = run_round::<Sha256>(
//!     &CbsScheme { samples: 30, seed: 7, report_audit: 0 },
//!     &task,
//!     &screener,
//!     Domain::new(0, 4096),
//!     &[&HonestWorker],
//!     &MixedFleetConfig::default(),
//! )?;
//! assert!(outcome.accepted);
//! assert_eq!(outcome.reports[0].input, 1000); // the password was found
//! # Ok::<(), uncheatable_grid::core::SchemeError>(())
//! ```
//!
//! For whole-fleet verification use [`core::run_mixed_fleet`] (a round is
//! a fleet of one, on the same engine); `examples/fleet_campaign.rs` re-runs
//! the shares it rejects (`shares_to_reassign`) on a trusted pool.
//!
//! See `examples/` for complete scenarios (password cracking, SETI-style
//! signal search, drug screening, a broker-mediated non-interactive grid,
//! a multi-round campaign), the `ugc` binary for a command-line driver,
//! and `cargo run --release -p ugc-bench --bin repro` for the asserted
//! regeneration of every figure and table of the paper.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod netgrid;

pub use ugc_core as core;
pub use ugc_grid as grid;
pub use ugc_hash as hash;
pub use ugc_merkle as merkle;
pub use ugc_task as task;
