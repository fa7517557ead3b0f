//! The paper's reproduction as one asserted run: Fig. 2, Eq. (2) /
//! Theorem 3, the communication collapse of Section 3.4, the Section 3.3
//! storage trade-off, Eq. (5), Section 5 and the scheme comparison, each
//! a *section* that prints its tables into a [`Report`] and registers
//! every claim it makes with [`Report::check`]. A section's closing
//! sentence ("REPRODUCED …") is printed only when the checks behind it
//! hold; otherwise the report says `MISMATCH`, names what failed, and the
//! `repro` binary exits non-zero.
//!
//! Every number printed is a count or a seeded estimate, so the output is
//! the same bytes in debug, in release and at any core count. It is
//! checked in as `expected/repro.txt` and compared section by section
//! under `cargo test`; to regenerate it after a deliberate change:
//!
//! ```sh
//! cargo run --release -p ugc-bench --bin repro > crates/bench/expected/repro.txt
//! ```
//!
//! The Monte-Carlo estimators behind `fig2` and `detection`, the Wilson
//! interval, [`Summary`] and the [`Table`] printer are public here too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comm;
mod detection;
mod fig2;
mod montecarlo;
mod ni_retry;
mod rco;
mod schemes;
mod small_domain;
mod stats;
mod table;

pub use montecarlo::{
    estimate_cheat_success_fast, estimate_cheat_success_protocol,
    estimate_cheat_success_under_churn, ChurnModel, DetectionExperiment, RateEstimate,
};
pub use stats::{wilson_interval, Summary};
pub use table::Table;

use ugc_core::session::VerificationScheme;
use ugc_core::{MixedFleetConfig, ParticipantStorage, RoundOutcome};
use ugc_grid::WorkerBehaviour;
use ugc_hash::Sha256;
use ugc_task::workloads::PasswordSearch;
use ugc_task::Domain;

/// One section: prints into the report, registers its claims, concludes.
pub type Section = fn(&mut Report);

/// The sections, in the order a run without arguments prints them.
pub const SECTIONS: [(&str, Section); 7] = [
    ("fig2", fig2::run),
    ("detection", detection::run),
    ("comm", comm::run),
    ("rco", rco::run),
    ("ni_retry", ni_retry::run),
    ("small_domain", small_domain::run),
    ("schemes", schemes::run),
];

/// What a run has printed, and the labels of the claims that failed.
#[derive(Debug, Default)]
pub struct Report {
    text: String,
    /// Failed since the last [`conclude`](Self::conclude).
    pending: Vec<String>,
    failed: bool,
}

impl Report {
    /// Appends `text` and a newline to the output.
    pub(crate) fn say(&mut self, text: impl AsRef<str>) {
        self.text.push_str(text.as_ref());
        self.text.push('\n');
    }

    /// Appends a rendered table.
    pub(crate) fn table(&mut self, table: &Table) {
        self.text.push_str(&table.to_string());
    }

    /// Registers one claim; `label` names it if it does not hold. Returns
    /// `ok`, so a table cell can show the same verdict.
    pub fn check(&mut self, label: impl Into<String>, ok: bool) -> bool {
        if !ok {
            self.failed = true;
            self.pending.push(label.into());
        }
        ok
    }

    /// Closes a group of claims: after a blank line, prints `sentence` if
    /// every check since the previous call held, `MISMATCH` and the failed
    /// labels otherwise.
    pub fn conclude(&mut self, sentence: &str) {
        let failed = std::mem::take(&mut self.pending);
        let verdict = match failed.len() {
            0 => sentence.to_string(),
            n => format!("MISMATCH — {n} claim(s) failed: {}", failed.join("; ")),
        };
        self.say(format!("\n{verdict}"));
    }

    /// Everything printed so far.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The process exit status this report asks for: 0, or 1 if any
    /// check failed.
    #[must_use]
    pub fn exit_status(&self) -> u8 {
        u8::from(self.failed)
    }
}

/// Runs the named sections in the order given — all of [`SECTIONS`] if
/// `names` is empty — each under a `== name ==` line, a blank line
/// between two.
///
/// # Errors
///
/// A name that is not a section; nothing is run then.
pub fn run<S: AsRef<str>>(names: &[S]) -> Result<Report, String> {
    let mut sections = Vec::new();
    for name in names.iter().map(AsRef::as_ref) {
        let known = SECTIONS.iter().find(|(n, _)| *n == name).ok_or_else(|| {
            let all: Vec<&str> = SECTIONS.iter().map(|(n, _)| *n).collect();
            format!("unknown section {name:?} (sections: {})", all.join(", "))
        })?;
        sections.push(*known);
    }
    if sections.is_empty() {
        sections.extend(SECTIONS);
    }
    let mut report = Report::default();
    for (name, section) in sections {
        if !report.text.is_empty() {
            report.say("");
        }
        report.say(format!("== {name} =="));
        section(&mut report);
    }
    Ok(report)
}

/// `✓` or `✗`, for a table's `ok` column.
fn mark(ok: bool) -> String {
    if ok { "✓" } else { "✗" }.to_string()
}

/// One stand-alone round of `scheme` over SHA-256, as `comm`,
/// `small_domain` and `schemes` measure it. Everything but `storage`
/// stays at its default: the rest is execution-only, no count depends
/// on it.
fn round(
    scheme: &dyn VerificationScheme<Sha256>,
    task: &PasswordSearch,
    domain: Domain,
    behaviours: &[&dyn WorkerBehaviour],
    storage: ParticipantStorage,
) -> RoundOutcome {
    let config = MixedFleetConfig {
        storage,
        ..MixedFleetConfig::default()
    };
    let screener = task.match_screener();
    ugc_core::scheme::run_round(scheme, task, &screener, domain, behaviours, &config)
        .expect("an in-process round over sound parameters runs to a verdict")
}
