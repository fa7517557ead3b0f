//! End-to-end tests of the `ugc-lint` binary: the workspace audits clean
//! through it, `--json` is structured, and a bad flag is a usage error
//! (exit 2), never an audit.

use std::process::{Command, Output};

/// Runs `ugc-lint` from this crate's directory, so a run without
/// `--root` discovers the enclosing workspace.
fn ugc_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ugc-lint"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("ugc-lint binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn lint_audits_workspace_clean() {
    // The summary line names the file count and the suppression
    // inventory.
    let out = ugc_lint(&[]);
    let text = stdout(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "ugc-lint found violations:\n{text}"
    );
    assert!(text.contains("ugc-lint: 0 finding(s)"), "{text}");
    assert!(text.contains("suppression"), "{text}");
    assert!(text.contains("vendor unsafe count:"), "{text}");
}

#[test]
fn lint_json_output_is_structured() {
    let out = ugc_lint(&["--json"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.trim_start().starts_with('{'), "{text}");
    assert!(text.contains("\"findings\": []"), "{text}");
    assert!(text.contains("\"clean\": true"), "{text}");
    assert!(text.contains("\"vendor_unsafe\""), "{text}");
}

#[test]
fn lint_unknown_flag_prints_usage_and_fails() {
    let out = ugc_lint(&["--jsno"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).is_empty(), "no audit ran");
    let err = stderr(&out);
    assert!(err.contains("unknown argument \"--jsno\""), "{err}");
    assert!(err.contains("USAGE:"), "{err}");
    // A dangling --root must error, not silently audit the cwd.
    let out = ugc_lint(&["--root"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--root requires a directory"));
}
