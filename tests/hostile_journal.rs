//! Resume refuses any journal a live run could not have written.
//!
//! Every journal below is CRC-valid: a real campaign header, then round
//! records encoded by hand and appended through the journal writer, so
//! each one reaches the campaign layer's checks rather than the frame
//! layer's. A committed round is replayed only if its number is the next
//! one and within the retry budget, its roster is exactly the members
//! still pending, and it settles and books every roster member once, in
//! roster order. Anything else is a typed `SchemeError::Journal` — never
//! a panic, an overflow, or a campaign that silently resumes from state
//! no supervisor was ever in.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use ugc_journal::{CrashPlan, JournalWriter};
use uncheatable_grid::core::{
    CampaignHeader, DurableCampaign, ParticipantStorage, SchemeError, TransportKind,
};
use uncheatable_grid::grid::codec::{put_u32, put_u64, put_u64_list};
use uncheatable_grid::task::Domain;

fn journal_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ugc-hostile-journal-{}-{tag}-{n}.wal",
        std::process::id()
    ))
}

// Hand encodings of the campaign records (tags 2–5 of the record table
// in `crates/core/src/journal.rs`).

fn round_start(round: u32, roster: &[u64]) -> Vec<u8> {
    let mut buf = vec![2];
    put_u32(&mut buf, round);
    put_u64_list(&mut buf, roster);
    buf
}

/// A `Settled` record: accepted with no reports, or timed out; every
/// link counter reads `count`.
fn settled(roster_index: u64, accepted: bool, count: u64) -> Vec<u8> {
    let mut buf = vec![3];
    put_u64(&mut buf, roster_index);
    if accepted {
        buf.extend([1, 0]); // Ok, Verdict::Accepted
        put_u64(&mut buf, 0); // no reports
    } else {
        buf.extend([0, 7]); // Err, SchemeError::TimedOut
    }
    for _ in 0..4 {
        put_u64(&mut buf, count);
    }
    buf
}

/// A `MemberState` record: every cost counter on both sides reads
/// `count`; one participant result, `Ok(false)`.
fn member_state(member: u64, count: u64) -> Vec<u8> {
    let mut buf = vec![4];
    put_u64(&mut buf, member);
    for _ in 0..10 {
        put_u64(&mut buf, count);
    }
    put_u64(&mut buf, 1);
    buf.extend([1, 0]);
    buf
}

fn round_end(round: u32) -> Vec<u8> {
    let mut buf = vec![5];
    put_u32(&mut buf, round);
    put_u64(&mut buf, 0); // no fault events
    buf
}

/// One whole committed round: its start, one `Settled` per roster index
/// (`failed` lists the roster indices that timed out), one `MemberState`
/// per roster member — every counter in both reading `count` — and the
/// commit marker.
fn counted_round(round: u32, roster: &[u64], failed: &[u64], count: u64) -> Vec<Vec<u8>> {
    let mut records = vec![round_start(round, roster)];
    records.extend((0..roster.len() as u64).map(|i| settled(i, !failed.contains(&i), count)));
    records.extend(roster.iter().map(|&m| member_state(m, count)));
    records.push(round_end(round));
    records
}

fn round(round: u32, roster: &[u64], failed: &[u64]) -> Vec<Vec<u8>> {
    counted_round(round, roster, failed, 0)
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
        transport: TransportKind::Direct,
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
    assert_eq!(resume(4, &round(0, &[0, 1], &[])).unwrap(), 1);
    let retried = [round(0, &[0, 1], &[1]), round(1, &[1], &[])].concat();
    assert_eq!(resume(1, &retried).unwrap(), 2);
    // Counters at the top of their range: the replayed byte and cost
    // totals saturate instead of overflowing.
    let huge = [
        counted_round(0, &[0, 1], &[1], u64::MAX),
        counted_round(1, &[1], &[], u64::MAX),
    ]
    .concat();
    assert_eq!(resume(1, &huge).unwrap(), 2);
}

#[test]
fn resume_refuses_rounds_no_live_run_could_have_written() {
    let cases: [(&str, u32, Vec<Vec<u8>>); 6] = [
        (
            "a round that settles nothing",
            4,
            vec![round_start(0, &[0, 1]), round_end(0)],
        ),
        ("round u32::MAX", 4, round(u32::MAX, &[0, 1], &[])),
        ("round 3 first", 4, round(3, &[0, 1], &[])),
        ("roster [0] of two members", 4, round(0, &[0], &[])),
        ("roster [0, 0]", 4, round(0, &[0, 0], &[])),
        (
            "a round above retries",
            0,
            [round(0, &[0, 1], &[1]), round(1, &[1], &[])].concat(),
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
    rewrite_after_header(&journal, &[round_start(0, &[0, 1]), round_end(0)]);

    let resumed = ugc(&["fleet", "--journal", path, "--resume"]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(resumed.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error:"), "{stderr}");
    let _ = std::fs::remove_file(&journal);
}
