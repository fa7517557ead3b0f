//! The reproduction, pinned: every section of `repro` prints exactly its
//! slice of the checked-in `expected/repro.txt` (one test per section, so
//! they run side by side), and a claim that does not hold turns into
//! `MISMATCH`, its label and a failing exit status.
//!
//! After a deliberate change to a section, regenerate the file:
//! `cargo run --release -p ugc-bench --bin repro > crates/bench/expected/repro.txt`.

use std::process::Command;
use ugc_bench::{run, Report, SECTIONS};

const EXPECTED: &str = include_str!("../expected/repro.txt");

/// The part of the expected output under `== name ==`, up to the blank
/// line before the next section's heading.
fn expected_slice(name: &str) -> &'static str {
    let start = EXPECTED
        .find(&format!("== {name} ==\n"))
        .unwrap_or_else(|| panic!("expected/repro.txt has no section {name}"));
    let end = EXPECTED[start..]
        .find("\n\n== ")
        .map_or(EXPECTED.len(), |at| start + at + 1);
    &EXPECTED[start..end]
}

fn assert_section_matches(name: &str) {
    let report = run(&[name]).expect("a known section");
    assert_eq!(report.exit_status(), 0, "{}", report.text());
    assert!(
        report.text() == expected_slice(name),
        "section {name} differs from expected/repro.txt:\n{}",
        report.text()
    );
}

#[test]
fn fig2_matches_expected() {
    assert_section_matches("fig2");
}

#[test]
fn detection_matches_expected() {
    assert_section_matches("detection");
}

#[test]
fn comm_matches_expected() {
    assert_section_matches("comm");
}

#[test]
fn rco_matches_expected() {
    assert_section_matches("rco");
}

#[test]
fn ni_retry_matches_expected() {
    assert_section_matches("ni_retry");
}

#[test]
fn small_domain_matches_expected() {
    assert_section_matches("small_domain");
}

#[test]
fn schemes_matches_expected() {
    assert_section_matches("schemes");
}

#[test]
fn expected_file_is_exactly_the_seven_sections_in_order() {
    let joined: Vec<&str> = SECTIONS
        .iter()
        .map(|(name, _)| expected_slice(name))
        .collect();
    assert_eq!(joined.join("\n"), EXPECTED);
}

#[test]
fn a_failed_check_replaces_the_closing_sentence_and_fails_the_run() {
    let mut report = Report::default();
    assert!(report.check("two and two make four", 2 + 2 == 4));
    assert!(!report.check("the moon is cheese", false));
    report.conclude("REPRODUCED — all of it");
    assert!(report.text().contains("MISMATCH"), "{}", report.text());
    assert!(report.text().contains("the moon is cheese"));
    assert!(!report.text().contains("REPRODUCED"));
    assert!(!report.text().contains("two and two"));
    assert_eq!(report.exit_status(), 1);

    // The next group of claims is judged on its own; the run stays failed.
    report.check("water is wet", true);
    report.conclude("Shape reproduced — the second group");
    assert!(report
        .text()
        .ends_with("Shape reproduced — the second group\n"));
    assert_eq!(report.exit_status(), 1);
}

#[test]
fn an_unknown_section_is_refused_before_anything_runs() {
    let err = run(&["rco", "fig3"]).expect_err("fig3 is not a section");
    assert!(
        err.contains("\"fig3\"") && err.contains("small_domain"),
        "{err}"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["schemes", "fig3"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "nothing is printed for a refused run"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown section"));
}

#[test]
fn the_binary_prints_the_named_sections_in_the_order_given() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["schemes", "small_domain"])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "{out:?}");
    let want = [expected_slice("schemes"), expected_slice("small_domain")].join("\n");
    assert_eq!(String::from_utf8(out.stdout).expect("UTF-8"), want);
}
