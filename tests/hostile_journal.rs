//! Resume refuses any journal a live run could not have written.
//!
//! Every journal below is CRC-valid: a real campaign header, then round
//! records encoded by hand — with this file's own LEB128 writer, not the
//! encoder under test — and appended through the journal writer, so
//! each one reaches the campaign layer's checks rather than the frame
//! layer's. A round record is replayed only if its number is the next
//! one and within the retry budget, its roster is exactly the members
//! still pending, and it holds one session and one set of books per
//! roster member. Anything else is a typed `SchemeError::Journal` — never
//! a panic, an overflow, or a campaign that silently resumes from state
//! no supervisor was ever in. The integer codec under those records is
//! canonical LEB128: a truncated, overlong or over-64-bit integer, or a
//! `u32` field above `u32::MAX`, is refused the same way.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use ugc_journal::{CrashPlan, JournalWriter, VERSION};
use uncheatable_grid::core::{
    CampaignHeader, DurableCampaign, ParticipantStorage, SchemeError, SlotReport,
};
use uncheatable_grid::grid::CostReport;
use uncheatable_grid::task::Domain;

fn journal_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ugc-hostile-journal-{}-{tag}-{n}.wal",
        std::process::id()
    ))
}

/// Appends `v` as unsigned LEB128, the journal's integer encoding: seven
/// bits a byte, low group first, the high bit on every byte but the last.
fn var(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(0x80 | u8::try_from(v & 0x7F).expect("seven bits"));
        v >>= 7;
    }
    buf.push(u8::try_from(v).expect("below 0x80"));
}

/// Appends a count, then each of `list`.
fn var_list(buf: &mut Vec<u8>, list: &[u64]) {
    var(buf, list.len() as u64);
    for &v in list {
        var(buf, v);
    }
}

/// A hand-encoded `Round` record (tag 2 of the record table in
/// `crates/core/src/journal.rs`): one session per entry of `accepted` —
/// accepted with no reports, or timed out — then `books` sets of member
/// books, each with one participant result, `Ok(false)`; every link and
/// cost counter reads `count`.
fn round_record(round: u32, roster: &[u64], accepted: &[bool], books: u64, count: u64) -> Vec<u8> {
    let mut buf = vec![2];
    var(&mut buf, u64::from(round));
    var_list(&mut buf, roster);
    var(&mut buf, accepted.len() as u64);
    for &accepted in accepted {
        if accepted {
            buf.extend([1, 0]); // Ok, Verdict::Accepted
            var(&mut buf, 0); // no reports
        } else {
            buf.extend([0, 7]); // Err, SchemeError::TimedOut
        }
        for _ in 0..4 {
            var(&mut buf, count);
        }
    }
    var(&mut buf, books);
    for _ in 0..books {
        for _ in 0..8 {
            var(&mut buf, count);
        }
        var(&mut buf, 1);
        buf.extend([1, 0]);
    }
    var(&mut buf, 0); // no fault events
    buf
}

/// A whole round as a live run writes it: one session per roster index
/// (`failed` lists the roster indices that timed out) and one set of
/// books per roster member, every counter reading `count`.
fn counted_round(round: u32, roster: &[u64], failed: &[u64], count: u64) -> Vec<u8> {
    let accepted: Vec<bool> = (0..roster.len() as u64)
        .map(|i| !failed.contains(&i))
        .collect();
    round_record(round, roster, &accepted, roster.len() as u64, count)
}

fn round(round: u32, roster: &[u64], failed: &[u64]) -> Vec<u8> {
    counted_round(round, roster, failed, 0)
}

/// A round over `roster` that settles and books no one.
fn settles_nothing(roster: &[u64]) -> Vec<u8> {
    round_record(0, roster, &[], 0, 0)
}

/// Keeps `path`'s header record, drops everything after it, and appends
/// `records`.
fn rewrite_after_header(path: &Path, records: &[Vec<u8>]) {
    let mut writer = JournalWriter::resume(path, 1).expect("the header survives");
    for record in records {
        writer.append(record).expect("a well-framed record appends");
    }
}

/// A two-member campaign journal with retry budget `retries`, whose body
/// after the header is `records`.
fn journal(retries: u32, records: &[Vec<u8>]) -> PathBuf {
    let path = journal_path("lib");
    let header = CampaignHeader {
        app: Vec::new(),
        member_slots: vec![1, 1],
        domain: Domain::new(0, 64),
        storage: ParticipantStorage::Full,
        chaos: None,
        deadline: None,
        retries,
    };
    drop(DurableCampaign::create(&path, header, CrashPlan::never()).expect("header writes"));
    rewrite_after_header(&path, records);
    path
}

fn resume(retries: u32, records: &[Vec<u8>]) -> Result<u32, SchemeError> {
    let path = journal(retries, records);
    let resumed = DurableCampaign::resume(&path, CrashPlan::never());
    let _ = std::fs::remove_file(&path);
    resumed.map(|(_, report)| report.rounds_replayed)
}

#[test]
fn well_formed_rounds_resume() {
    // The controls: the hand encodings are what a live run writes.
    assert_eq!(resume(4, &[round(0, &[0, 1], &[])]).unwrap(), 1);
    let retried = [round(0, &[0, 1], &[1]), round(1, &[1], &[])];
    assert_eq!(resume(1, &retried).unwrap(), 2);
    // Counters at the top of their range: the replayed byte and cost
    // totals saturate instead of overflowing.
    let huge = [
        counted_round(0, &[0, 1], &[1], u64::MAX),
        counted_round(1, &[1], &[], u64::MAX),
    ];
    assert_eq!(resume(1, &huge).unwrap(), 2);
}

#[test]
fn resume_refuses_rounds_no_live_run_could_have_written() {
    let cases: [(&str, u32, Vec<Vec<u8>>); 6] = [
        (
            "a round that settles nothing",
            4,
            vec![settles_nothing(&[0, 1])],
        ),
        ("round u32::MAX", 4, vec![round(u32::MAX, &[0, 1], &[])]),
        ("round 3 first", 4, vec![round(3, &[0, 1], &[])]),
        ("roster [0] of two members", 4, vec![round(0, &[0], &[])]),
        ("roster [0, 0]", 4, vec![round(0, &[0, 0], &[])]),
        (
            "a round above retries",
            0,
            vec![round(0, &[0, 1], &[1]), round(1, &[1], &[])],
        ),
    ];
    for (case, retries, records) in cases {
        match resume(retries, &records) {
            Err(SchemeError::Journal { reason }) => {
                assert!(reason.contains("record"), "{case}: {reason}");
            }
            other => panic!("{case}: resume must refuse the journal, got {other:?}"),
        }
    }
}

/// A hand-encoded `Header` record (tag 1) of a two-member campaign over
/// `[0, 64)`: no app blob, full storage, the chaos flag byte `chaos` and
/// the deadline flag byte `deadline` — each followed by the fields a set
/// flag carries — and a retry budget of 4.
fn header_record(chaos: u8, deadline: u8) -> Vec<u8> {
    let mut buf = vec![1];
    var(&mut buf, 0); // an empty app blob
    var_list(&mut buf, &[1, 1]);
    var(&mut buf, 0);
    var(&mut buf, 64);
    buf.push(0); // full storage
    buf.push(chaos);
    if chaos != 0 {
        var(&mut buf, 9);
        for _ in 0..5 {
            var(&mut buf, 0);
        }
    }
    buf.push(deadline);
    if deadline != 0 {
        var(&mut buf, 1_000);
    }
    var(&mut buf, 4);
    buf
}

/// Resumes a journal holding `header` and nothing else.
fn resume_header(header: &[u8]) -> Result<u32, SchemeError> {
    let path = journal_path("header");
    JournalWriter::create(&path)
        .and_then(|mut writer| writer.append(header))
        .expect("a well-framed header writes");
    let resumed = DurableCampaign::resume(&path, CrashPlan::never());
    let _ = std::fs::remove_file(&path);
    resumed.map(|(_, report)| report.rounds_replayed)
}

/// Refuses the header whose flag byte is 2 in place of 1, and resumes
/// the one with 0 or 1 there (the control: the hand encoding is a
/// header).
fn assert_header_flag_is_0_or_1(header: fn(u8) -> Vec<u8>, field: &str) {
    for valid in [0, 1] {
        assert_eq!(resume_header(&header(valid)), Ok(0), "{field} {valid}");
    }
    match resume_header(&header(2)) {
        Err(SchemeError::Journal { reason }) => {
            assert!(
                reason.contains(&format!("{field} 2 is not 0 or 1")),
                "{reason}"
            );
        }
        other => panic!("resume must refuse {field} 2, got {other:?}"),
    }
}

#[test]
fn resume_refuses_a_header_chaos_flag_other_than_0_or_1() {
    assert_header_flag_is_0_or_1(|flag| header_record(flag, 1), "header chaos flag");
}

#[test]
fn resume_refuses_a_header_deadline_flag_other_than_0_or_1() {
    assert_header_flag_is_0_or_1(|flag| header_record(1, flag), "header deadline flag");
}

#[test]
fn cli_resume_of_a_round_that_settles_nothing_fails_cleanly() {
    let ugc = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_ugc"))
            .args(args)
            .output()
            .expect("ugc binary runs")
    };
    let journal = journal_path("cli");
    let path = journal.to_str().expect("temp path is UTF-8");
    // A real CLI header: the kill at the first armed append leaves the
    // header and nothing else.
    let killed = ugc(&[
        "fleet",
        "--participants",
        "2",
        "--cheaters",
        "0",
        "--n",
        "64",
        "--m",
        "4",
        "--journal",
        path,
        "--kill-at",
        "1",
    ]);
    assert_eq!(killed.status.code(), Some(2), "{killed:?}");
    rewrite_after_header(&journal, &[settles_nothing(&[0, 1])]);

    let resumed = ugc(&["fleet", "--journal", path, "--resume"]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(resumed.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error:"), "{stderr}");
    let _ = std::fs::remove_file(&journal);
}

/// A `Round` record whose round number is `integer`, raw, followed by
/// the four list counts of an empty round.
fn round_numbered(integer: &[u8]) -> Vec<u8> {
    [&[2][..], integer, &[0; 4]].concat()
}

#[test]
fn resume_refuses_every_malformed_integer() {
    let mut max = Vec::new();
    var(&mut max, u64::MAX);
    assert_eq!(max, [&[0xFF; 9][..], &[0x01]].concat());
    // Every strict prefix of u64::MAX ends the record mid-integer.
    let mut cases: Vec<(Vec<u8>, &str)> = (0..max.len())
        .map(|n| ([&[2][..], &max[..n]].concat(), "unexpected end of record"))
        .collect();
    cases.extend([
        (round_numbered(&[0x80, 0x00]), "overlong"),
        (round_numbered(&[0xFF, 0x80, 0x00]), "overlong"),
        (
            round_numbered(&[&[0xFF; 9][..], &[0x02]].concat()),
            "exceeds 64 bits",
        ),
        (
            round_numbered(&[&[0xFF; 10][..], &[0x01]].concat()),
            "exceeds 64 bits",
        ),
    ]);
    let mut two_to_the_32 = Vec::new();
    var(&mut two_to_the_32, 1 << 32);
    cases.push((round_numbered(&two_to_the_32), "exceeds u32"));
    for (record, expected) in cases {
        match resume(4, std::slice::from_ref(&record)) {
            Err(SchemeError::Journal { reason }) => {
                assert!(reason.contains("round number"), "{record:?}: {reason}");
                assert!(reason.contains(expected), "{record:?}: {reason}");
            }
            other => panic!("{record:?}: resume must refuse the journal, got {other:?}"),
        }
    }
    // The control: the largest round number that is one, canonically.
    let mut largest = Vec::new();
    var(&mut largest, u64::from(u32::MAX));
    match resume(4, &[round_numbered(&largest)]) {
        Err(SchemeError::Journal { reason }) => {
            assert!(reason.contains("not the next round"), "{reason}");
        }
        other => panic!("round u32::MAX is not the next round, got {other:?}"),
    }
}

#[test]
fn resume_refuses_every_earlier_journal_version() {
    for version in 1..VERSION {
        let path = journal(4, &[round(0, &[0, 1], &[])]);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let resumed = DurableCampaign::resume(&path, CrashPlan::never());
        let _ = std::fs::remove_file(&path);
        match resumed {
            Err(SchemeError::Journal { reason }) => {
                assert!(
                    reason.contains(&format!("unsupported version {version}")),
                    "{reason}"
                );
            }
            other => panic!("a version {version} journal must be refused, got {other:?}"),
        }
    }
}

proptest! {
    /// Any `u64` round-trips through the codec a slot report shares with
    /// the journal, and is written as this file's writer writes it.
    #[test]
    fn any_integer_round_trips(v in any::<u64>(), shift in 0u32..64) {
        let slot = v >> shift;
        let report = SlotReport {
            slot,
            costs: CostReport { f_evals: v, ..CostReport::default() },
            outcome: Ok(true),
        };
        let encoded = report.encode();
        let mut expected = Vec::new();
        var(&mut expected, slot);
        prop_assert!(encoded.starts_with(&expected));
        prop_assert_eq!(SlotReport::decode(&encoded), Ok(report));
    }
}
