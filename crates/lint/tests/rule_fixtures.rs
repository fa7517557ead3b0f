//! Fixture-based tests for every determinism rule: each rule has a
//! positive fixture (a seeded violation detected at the right file, line
//! and rule) and a negative fixture (an `allow` annotation suppresses it
//! and records its reason), plus the malformed/unused-annotation findings
//! and a self-test asserting the workspace itself is clean.
//!
//! Fixtures are inline raw strings: the lexer classifies them as literals,
//! so the violations seeded here are invisible when the auditor lints this
//! very file.

use ugc_lint::{lint_source, lint_workspace, Rule};

/// Asserts exactly one finding with the given rule and line.
fn assert_single(source: &str, rule: Rule, line: u32) {
    let report = lint_source("fixture.rs", source);
    assert_eq!(
        report.findings.len(),
        1,
        "expected one finding, got {:?}",
        report.findings
    );
    let f = &report.findings[0];
    assert_eq!(f.file, "fixture.rs");
    assert_eq!((f.rule, f.line), (rule, line), "finding: {f:?}");
}

/// Asserts the source is clean and exactly one suppression was recorded,
/// with the given rule and reason.
fn assert_suppressed(source: &str, rule: Rule, reason: &str) {
    let report = lint_source("fixture.rs", source);
    assert_eq!(report.findings, vec![], "expected clean");
    assert_eq!(report.allows.len(), 1, "allows: {:?}", report.allows);
    assert_eq!(report.allows[0].rule, rule);
    assert_eq!(report.allows[0].reason, reason);
}

#[test]
fn wall_clock_detected() {
    let src = r#"
fn stamp() -> Instant {
    Instant::now()
}
"#;
    assert_single(src, Rule::WallClock, 3);
    let sys = "fn s() -> SystemTime { SystemTime::now() }";
    assert_single(sys, Rule::WallClock, 1);
}

#[test]
fn wall_clock_suppressed_with_reason() {
    let src = r#"
fn stamp() -> Instant {
    // ugc-lint: allow(wall-clock): reporting-only stopwatch
    Instant::now()
}
"#;
    assert_suppressed(src, Rule::WallClock, "reporting-only stopwatch");
}

#[test]
fn trailing_annotation_covers_its_own_line() {
    let src = "let t = Instant::now(); // ugc-lint: allow(wall-clock): trailing form";
    assert_suppressed(src, Rule::WallClock, "trailing form");
}

#[test]
fn unordered_iteration_detected() {
    let src = r#"
fn sweep(routes: &HashMap<u64, usize>) {
    for (id, idx) in routes.iter() {
        observe(id, idx);
    }
}
"#;
    assert_single(src, Rule::UnorderedIter, 3);
}

#[test]
fn unordered_for_loop_without_method_detected() {
    let src = r#"
fn sweep(seen: HashSet<u64>) {
    for id in &seen {
        observe(id);
    }
}
"#;
    assert_single(src, Rule::UnorderedIter, 3);
}

#[test]
fn keyed_lookup_is_fine() {
    let src = r#"
fn route(routes: &HashMap<u64, usize>, id: u64) -> Option<usize> {
    routes.get(&id).copied()
}
fn admit(routes: &mut HashMap<u64, usize>, id: u64) {
    routes.insert(id, 7);
    routes.remove(&id);
    let _ = routes.contains_key(&id);
    let _ = routes.len();
}
"#;
    let report = lint_source("fixture.rs", src);
    assert_eq!(report.findings, vec![], "keyed ops must not be flagged");
}

#[test]
fn btreemap_iteration_is_fine() {
    let src = r#"
fn sweep(routes: &BTreeMap<u64, usize>) {
    for (id, idx) in routes.iter() {
        observe(id, idx);
    }
}
"#;
    let report = lint_source("fixture.rs", src);
    assert_eq!(report.findings, vec![], "ordered maps must not be flagged");
}

#[test]
fn unordered_iteration_suppressed_with_reason() {
    let src = r#"
fn sweep(routes: &HashMap<u64, usize>) {
    // ugc-lint: allow(unordered-iter): results are re-sorted before use
    for id in routes.keys() {
        observe(id);
    }
}
"#;
    assert_suppressed(src, Rule::UnorderedIter, "results are re-sorted before use");
}

#[test]
fn ambient_rng_detected() {
    assert_single("let mut rng = thread_rng();", Rule::AmbientRng, 1);
    assert_single("let mut rng = OsRng;", Rule::AmbientRng, 1);
    assert_single("let mut rng = StdRng::from_entropy();", Rule::AmbientRng, 1);
    assert_single("let x: u64 = rand::random();", Rule::AmbientRng, 1);
}

#[test]
fn seeded_rng_is_fine() {
    let src = "let mut rng = StdRng::seed_from_u64(42);";
    assert_eq!(lint_source("fixture.rs", src).findings, vec![]);
}

#[test]
fn ambient_rng_suppressed_with_reason() {
    let src = r#"
// ugc-lint: allow(ambient-rng): one-off port selection, never replayed
let mut rng = thread_rng();
"#;
    assert_suppressed(
        src,
        Rule::AmbientRng,
        "one-off port selection, never replayed",
    );
}

#[test]
fn thread_identity_detected() {
    assert_single(
        "let me = std::thread::current().id();",
        Rule::ThreadIdentity,
        1,
    );
    assert_single("fn key(id: ThreadId) {}", Rule::ThreadIdentity, 1);
}

#[test]
fn thread_identity_suppressed_with_reason() {
    let src = r#"
// ugc-lint: allow(thread-identity): names the panic in a log line only
let name = std::thread::current();
"#;
    assert_suppressed(
        src,
        Rule::ThreadIdentity,
        "names the panic in a log line only",
    );
}

#[test]
fn lossy_cast_detected_only_in_codec_paths() {
    let src = "let n = declared as usize;";
    // In a codec path the truncating cast is a finding…
    let report = lint_source("src/codec.rs", src);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, Rule::LossyCast);
    // …and widening casts are not.
    let widen = "let n = declared as u64;";
    assert_eq!(lint_source("src/codec.rs", widen).findings, vec![]);
    // Outside codec/ledger paths the rule does not apply.
    assert_eq!(lint_source("src/engine.rs", src).findings, vec![]);
}

#[test]
fn lossy_cast_suppressed_with_reason() {
    // assert_suppressed lints "fixture.rs", which is not a codec path —
    // this fixture needs a codec-named label, so assert inline.
    let src = r#"
// ugc-lint: allow(lossy-cast): bounded above by MAX_LEN, cannot truncate
let n = declared as usize;
"#;
    let report = lint_source("src/wire.rs", src);
    assert_eq!(report.findings, vec![]);
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, Rule::LossyCast);
    assert_eq!(
        report.allows[0].reason,
        "bounded above by MAX_LEN, cannot truncate"
    );
}

#[test]
fn journal_files_are_codec_paths_for_lossy_casts() {
    // The write-ahead journal is a wire format: a truncating cast while
    // decoding a record is exactly the bug the lossy-cast rule exists
    // for, so journal-named files must be inside the rule's scope.
    let src = "let keep = declared_records as u32;";
    let report = lint_source("src/journal.rs", src);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, Rule::LossyCast);
    // A reasoned annotation suppresses it, recording the justification.
    let suppressed = r#"
// ugc-lint: allow(lossy-cast): record count is bounded by MAX_RECORD_LEN framing
let keep = declared_records as u32;
"#;
    let report = lint_source("crates/journal/src/wire.rs", suppressed);
    assert_eq!(report.findings, vec![]);
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, Rule::LossyCast);
    // Widening casts in journal paths stay clean, annotation-free.
    let widen = "let total = kept as u64;";
    assert_eq!(lint_source("src/journal.rs", widen).findings, vec![]);
}

#[test]
fn lane_kernel_files_are_codec_paths_for_lossy_casts() {
    // The multi-lane digest kernels (PR 10) feed Merkle commitments and
    // campaign digests: a truncating cast while packing message words
    // or padding lengths corrupts replay identity exactly like a wire
    // codec would, so lanes-named files are inside the rule's scope.
    let src = "let word = lane_word as u32;";
    let report = lint_source("crates/hash/src/lanes.rs", src);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, Rule::LossyCast);
    // A reasoned annotation suppresses it, recording the justification.
    let suppressed = r#"
// ugc-lint: allow(lossy-cast): block index is bounded by padded_blocks
let word = lane_word as u32;
"#;
    let report = lint_source("crates/hash/src/lanes.rs", suppressed);
    assert_eq!(report.findings, vec![]);
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, Rule::LossyCast);
    // Widening casts in lane kernels stay clean, annotation-free.
    let widen = "let bits = 8 * total as u64;";
    assert_eq!(
        lint_source("crates/hash/src/lanes.rs", widen).findings,
        vec![]
    );
}

#[test]
fn tcp_files_are_codec_paths_for_lossy_casts() {
    // The TCP transport (PR 9) splices `[len][payload]` frames off a raw
    // byte stream: a truncating cast on a declared length is exactly the
    // codec bug class, so tcp-named files are inside the rule's scope.
    let src = "let len = header_word as usize;";
    let report = lint_source("crates/grid/src/tcp.rs", src);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, Rule::LossyCast);
    // A reasoned annotation suppresses it, recording the justification.
    let suppressed = r#"
// ugc-lint: allow(lossy-cast): bounded above by MAX_FRAME_LEN framing
let len = header_word as usize;
"#;
    let report = lint_source("crates/grid/src/tcp.rs", suppressed);
    assert_eq!(report.findings, vec![]);
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, Rule::LossyCast);
}

#[test]
fn bounded_waiting_is_not_a_wall_clock_read() {
    // The wire layer waits with timeouts (report patience, connect retry
    // pauses) without ever *reading* a clock into program state. Pin
    // that the idiom stays invisible to the wall-clock rule — it matches
    // clock reads (Instant::now / SystemTime::now), not bounded blocking.
    let src = r#"
fn pump(rx: &Receiver<Vec<u8>>) {
    let frame = rx.recv_timeout(Duration::from_secs(30));
    std::thread::sleep(Duration::from_millis(250));
}
"#;
    assert_eq!(
        lint_source("crates/grid/src/tcp.rs", src).findings,
        vec![],
        "bounded waits must not register as wall-clock reads"
    );
}

#[test]
fn seeded_steal_order_is_not_ambient_rng() {
    // The work-stealing scheduler's victim order (PR 8) is a SplitMix64
    // walk from an explicit seed — pure arithmetic, no entropy source.
    // Pin that the idiom stays invisible to the ambient-rng rule: if a
    // refactor ever reaches for `thread_rng()` instead, the rule fires.
    let src = r#"
fn next_steal(rng: &mut u64) -> u64 {
    *rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *rng;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}
fn steal_rng(steal_seed: u64, worker: usize) -> u64 {
    steal_seed ^ (worker as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}
"#;
    let report = lint_source("crates/grid/src/runtime/scheduler.rs", src);
    assert_eq!(
        report.findings,
        vec![],
        "a seeded steal-order generator is not ambient RNG"
    );
}

#[test]
fn scheduler_files_are_outside_the_lossy_cast_scope() {
    // The scheduler's `% others as u64 → usize` narrowing never touches
    // wire bytes or replay digests, so scheduler files carry no
    // annotation — and must not need one. The identical cast inside a
    // codec path is still a finding.
    let src = "let start = (next_steal(rng) % others as u64) as usize;";
    assert_eq!(
        lint_source("crates/grid/src/runtime/scheduler.rs", src).findings,
        vec![],
        "scheduling-only casts need no suppression"
    );
    let report = lint_source("crates/grid/src/message.rs", src);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, Rule::LossyCast);
}

#[test]
fn message_encoded_len_casts_stay_guarded() {
    // The zero-alloc codec path (PR 8) sizes buffers from encoded_len
    // and still narrows guarded lengths; pin the annotated idiom the
    // message module relies on.
    let suppressed = r#"
fn frame_len(payload: &[u8]) -> usize {
    // ugc-lint: allow(lossy-cast): bounded above by 1<<20 on the line before, cannot truncate
    let n = declared as usize;
    8 + payload.len() + n
}
"#;
    let report = lint_source("crates/grid/src/message.rs", suppressed);
    assert_eq!(report.findings, vec![]);
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, Rule::LossyCast);
}

#[test]
fn unsafe_code_detected() {
    let src = r#"
fn peek(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    assert_single(src, Rule::UnsafeCode, 3);
}

#[test]
fn malformed_annotation_is_a_finding() {
    // Missing reason.
    let src = "// ugc-lint: allow(wall-clock)\nlet t = Instant::now();";
    let report = lint_source("fixture.rs", src);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == Rule::Annotation && f.message.contains("missing `: <reason>`")),
        "findings: {:?}",
        report.findings
    );
    // Unknown rule.
    let src = "// ugc-lint: allow(no-such-rule): whatever\nlet x = 1;";
    let report = lint_source("fixture.rs", src);
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == Rule::Annotation && f.message.contains("unknown rule")));
    // Empty reason.
    let src = "// ugc-lint: allow(wall-clock):\nlet t = Instant::now();";
    let report = lint_source("fixture.rs", src);
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == Rule::Annotation && f.message.contains("empty reason")));
}

#[test]
fn unused_annotation_is_a_finding() {
    let src = "// ugc-lint: allow(wall-clock): nothing here needs it\nlet x = 1;";
    let report = lint_source("fixture.rs", src);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, Rule::Annotation);
    assert!(report.findings[0].message.contains("unused annotation"));
    assert_eq!(
        report.allows,
        vec![],
        "an unused allow is not a suppression"
    );
}

#[test]
fn annotation_only_covers_matching_rule() {
    // A wall-clock allow must not excuse an ambient-rng violation on the
    // same line.
    let src = "// ugc-lint: allow(wall-clock): wrong rule\nlet r = thread_rng();";
    let report = lint_source("fixture.rs", src);
    let rules: Vec<Rule> = report.findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&Rule::AmbientRng), "{:?}", report.findings);
    assert!(rules.contains(&Rule::Annotation), "{:?}", report.findings);
}

#[test]
fn violations_inside_strings_and_comments_are_invisible() {
    let src = r##"
let msg = "Instant::now() and thread_rng() in a string";
let raw = r#"unsafe { HashMap::iter() }"#;
// Instant::now() in a comment is documentation, not code.
"##;
    assert_eq!(lint_source("fixture.rs", src).findings, vec![]);
}

#[test]
fn workspace_is_clean() {
    // The standing self-test: the repo this crate lives in must audit
    // clean, with every suppression carrying a reason.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let report = lint_workspace(std::path::Path::new(root)).expect("workspace walk");
    assert!(
        report.is_clean(),
        "workspace has unsuppressed findings:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 50, "walker saw the whole workspace");
    for allow in &report.allows {
        assert!(
            !allow.reason.is_empty(),
            "suppression without a reason: {allow:?}"
        );
    }
    // Vendored stand-ins are ours and contain no unsafe today; if that
    // changes, this number is the inventory that must be bumped
    // consciously.
    assert_eq!(report.vendor_unsafe, 0);
}

#[test]
fn json_report_escapes_and_round_trips_structure() {
    let report = lint_source("fixture.rs", "let t = Instant::now();");
    let workspace = ugc_lint::LintReport {
        findings: report.findings,
        allows: report.allows,
        vendor_unsafe: 3,
        files_scanned: 1,
    };
    let json = workspace.render_json();
    assert!(json.contains("\"rule\": \"wall-clock\""));
    assert!(json.contains("\"vendor_unsafe\": 3"));
    assert!(json.contains("\"clean\": false"));
    // The message contains backticks and a quote-free path; nothing in the
    // output may be an unescaped control character.
    assert!(!json.chars().any(|c| (c as u32) < 0x20 && c != '\n'));
}
