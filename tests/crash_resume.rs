//! Crash-resume equivalence: a journaled campaign killed at *any*
//! record and resumed must converge to the same verdicts, attempts,
//! cost ledgers, fault log and summary digest as a run that was never
//! interrupted — for all five schemes, over both transports, across
//! chaos seeds, killed at every record from the first to the last — and
//! must leave behind the same journal, byte for byte.
//!
//! This is the tentpole property of the write-ahead journal: each settled
//! round is journaled as one record before the supervisor applies it, and
//! resume replays exactly the round records that reached disk, so a crash
//! can lose in-flight work but never change what the campaign concludes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use ugc_journal::{read_journal, CrashPlan};
use uncheatable_grid::core::scheme::cbs::CbsScheme;
use uncheatable_grid::core::scheme::double_check::DoubleCheckScheme;
use uncheatable_grid::core::scheme::naive::NaiveScheme;
use uncheatable_grid::core::scheme::ni_cbs::NiCbsScheme;
use uncheatable_grid::core::scheme::ringer::RingerScheme;
use uncheatable_grid::core::{
    run_durable_fleet, run_mixed_fleet, summary_digest, CampaignHeader, DurableCampaign,
    FleetSummary, MemberSpec, MixedFleetConfig, ResumeReport, SchemeError, TransportKind,
};
use uncheatable_grid::grid::runtime::FaultPlan;
use uncheatable_grid::grid::{
    CheatSelection, HonestWorker, MaliciousWorker, SemiHonestCheater, WorkerBehaviour,
};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{AcceptAllScreener, Domain, ZeroGuesser};

/// A collision-free journal path under the OS temp dir (process id plus
/// a monotonic counter — no wall clock, no ambient randomness).
fn journal_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ugc-crash-resume-{}-{tag}-{n}.wal",
        std::process::id()
    ))
}

/// How one campaign run touches the journal.
enum Mode<'a> {
    /// No journal at all — the plain `run_mixed_fleet` reference.
    Plain,
    /// Fresh journal at this path, armed with this crash plan.
    Create(&'a Path, CrashPlan),
    /// Resume the journal at this path.
    Resume(&'a Path, CrashPlan),
}

/// One member per scheme plus a lazy and a malicious CBS member — 7
/// members over 8 participant slots, covering every scheme's dialogue
/// shape — run under chaos-with-churn so the campaign spans multiple
/// reassignment rounds.
fn campaign(
    chaos_seed: u64,
    transport: TransportKind,
    mode: Mode<'_>,
) -> Result<(FleetSummary, Option<ResumeReport>), SchemeError> {
    let task = PasswordSearch::with_hidden_password(7, 3);
    let screener = AcceptAllScreener;
    let honest = HonestWorker;
    let lazy = SemiHonestCheater::new(0.2, CheatSelection::Scattered, ZeroGuesser::new(4), 9);
    let malicious = MaliciousWorker::new(1.0, 5);
    let cbs = CbsScheme {
        samples: 16,
        seed: chaos_seed ^ 11,
        report_audit: 2,
    };
    let ni = NiCbsScheme {
        samples: 16,
        g_iterations: 2,
        report_audit: 0,
        audit_seed: chaos_seed ^ 13,
    };
    let naive = NaiveScheme {
        samples: 16,
        seed: chaos_seed ^ 14,
    };
    let ringer = RingerScheme {
        ringers: 6,
        seed: chaos_seed ^ 15,
    };
    let double_check = DoubleCheckScheme;
    let specs: Vec<MemberSpec<'_, Sha256>> = vec![
        MemberSpec {
            scheme: &cbs,
            behaviours: vec![&honest as &dyn WorkerBehaviour],
        },
        MemberSpec {
            scheme: &ni,
            behaviours: vec![&honest],
        },
        MemberSpec {
            scheme: &naive,
            behaviours: vec![&honest],
        },
        MemberSpec {
            scheme: &ringer,
            behaviours: vec![&honest],
        },
        MemberSpec {
            scheme: &double_check,
            behaviours: vec![&honest, &honest],
        },
        MemberSpec {
            scheme: &cbs,
            behaviours: vec![&lazy],
        },
        MemberSpec {
            scheme: &cbs,
            behaviours: vec![&malicious],
        },
    ];
    let domain = Domain::new(0, specs.len() as u64 * 64);
    let config = MixedFleetConfig {
        transport,
        chaos: Some(FaultPlan::chaos(chaos_seed).with_churn(150)),
        deadline: Some(Duration::from_secs(20)),
        retries: 8,
        ..MixedFleetConfig::default()
    };
    match mode {
        Mode::Plain => {
            run_mixed_fleet(&task, &screener, domain, &specs, &config).map(|s| (s, None))
        }
        Mode::Create(path, crash) => {
            let header =
                CampaignHeader::for_campaign(&specs, domain, &config, b"crash-resume".to_vec());
            let mut campaign = DurableCampaign::create(path, header, crash)?;
            run_durable_fleet(&task, &screener, domain, &specs, &config, &mut campaign)
                .map(|s| (s, None))
        }
        Mode::Resume(path, crash) => {
            let (mut campaign, report) = DurableCampaign::resume(path, crash)?;
            run_durable_fleet(&task, &screener, domain, &specs, &config, &mut campaign)
                .map(|s| (s, Some(report)))
        }
    }
}

/// Runs the campaign with a kill at record `kill`, asserts the kill
/// fired, resumes, and returns the resumed digest plus the report.
fn kill_then_resume(
    chaos_seed: u64,
    transport: TransportKind,
    kill: u64,
    path: &Path,
) -> (String, ResumeReport) {
    match campaign(
        chaos_seed,
        transport,
        Mode::Create(path, CrashPlan::at(kill)),
    ) {
        Ok(_) => panic!("kill at record {kill} never fired"),
        Err(SchemeError::Journal { reason }) => {
            assert!(reason.contains("injected kill point"), "{reason}");
        }
        Err(other) => panic!("kill at record {kill} surfaced as {other}"),
    }
    let (resumed, report) = campaign(
        chaos_seed,
        transport,
        Mode::Resume(path, CrashPlan::never()),
    )
    .expect("the resumed campaign completes");
    (
        summary_digest(&resumed),
        report.expect("resume mode yields a report"),
    )
}

/// The attestation sealed into the finished journal at `path`: the
/// chain digest over every record it holds.
fn attestation(path: &Path) -> String {
    read_journal(path)
        .expect("the sealed journal reads back")
        .seal
        .expect("the finished journal is sealed")
        .digest_hex()
}

/// The uninterrupted campaign's attestation per chaos seed. A journal's
/// bytes are a function of the campaign and its seeds alone — the same
/// over either transport, at any worker count, steal order or core count
/// — so these are pinned. Recorded again at journal version 5, whose
/// cost reports drop a counter and whose `Finished` record holds the
/// digest of the record codec, and at journal version 6, whose rounds
/// count the bytes of wire version 5 and whose header holds a version-4
/// params blob; a copy charging the version-4 length with those two
/// versions unchanged reproduced the version-5 constants.
const ATTESTATIONS: [(u64, &str); 3] = [
    (
        0xC4A05,
        "994b2570beed71c5b846443bfb214d886d0b13fe36b17775495acce6aa1d3416",
    ),
    (
        0x5EED5,
        "f0261eef4478bca931b6ae8e4e715d5b44a9c19847da94759d373016a133e075",
    ),
    (
        42,
        "a3df46b213732d97d1bc0f7fa3e05c06cfc2ea4e12358d50553e93ef89561eb5",
    ),
];

/// The full matrix: three chaos seeds × both transports × a kill at
/// every armed append, the seal included. Every cell must resume to the
/// uninterrupted run's digest and finish with its journal byte for byte
/// — the seed's one pinned attestation, whichever transport wrote it.
#[test]
fn kill_and_resume_converges_at_every_matrix_point() {
    for (chaos_seed, pinned) in ATTESTATIONS {
        for transport in [TransportKind::Direct, TransportKind::Brokered] {
            let ref_path = journal_path("ref");
            let (reference, _) = campaign(
                chaos_seed,
                transport,
                Mode::Create(&ref_path, CrashPlan::never()),
            )
            .expect("the uninterrupted campaign completes");
            let reference = summary_digest(&reference);
            let records = read_journal(&ref_path)
                .expect("the sealed journal reads back")
                .records
                .len() as u64;
            assert_eq!(
                attestation(&ref_path),
                pinned,
                "{transport:?} seed {chaos_seed:#x}: the uninterrupted journal changed"
            );
            let _ = std::fs::remove_file(&ref_path);
            // The header is written before the crash plan arms, so kill
            // points count campaign records: 1 is the first round,
            // `records - 1` the Finished record and `records` the seal.
            for kill in 1..=records {
                let path = journal_path("kill");
                let (digest, _) = kill_then_resume(chaos_seed, transport, kill, &path);
                assert_eq!(
                    digest, reference,
                    "{transport:?} seed {chaos_seed:#x}: resume after a kill at record \
                     {kill}/{records} diverged from the uninterrupted run"
                );
                assert_eq!(
                    attestation(&path),
                    pinned,
                    "{transport:?} seed {chaos_seed:#x}: the journal resumed after a kill at \
                     record {kill}/{records} differs from the uninterrupted one"
                );
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

/// Journaling itself must not perturb the campaign: the durable run and
/// the plain `run_mixed_fleet` produce the same digest.
#[test]
fn journaling_does_not_change_the_digest() {
    let (plain, _) =
        campaign(42, TransportKind::Brokered, Mode::Plain).expect("the plain campaign completes");
    let path = journal_path("overhead");
    let (journaled, _) = campaign(
        42,
        TransportKind::Brokered,
        Mode::Create(&path, CrashPlan::never()),
    )
    .expect("the journaled campaign completes");
    assert_eq!(summary_digest(&plain), summary_digest(&journaled));
    let _ = std::fs::remove_file(&path);
}

/// A crash can also tear the file mid-frame (power loss during a
/// write). Resume must truncate the torn tail with a warning — never an
/// error — and still converge to the uninterrupted digest.
#[test]
fn torn_tail_is_truncated_with_a_warning_and_converges() {
    use std::io::Write as _;
    let chaos_seed = 0x7EA4;
    let ref_path = journal_path("torn-ref");
    let (reference, _) = campaign(
        chaos_seed,
        TransportKind::Brokered,
        Mode::Create(&ref_path, CrashPlan::never()),
    )
    .expect("the uninterrupted campaign completes");
    let reference = summary_digest(&reference);
    let records = read_journal(&ref_path)
        .expect("the sealed journal reads back")
        .records
        .len() as u64;
    let _ = std::fs::remove_file(&ref_path);

    // Kill two-thirds in, then smear garbage over the tail: a torn
    // frame on top of an unsealed journal.
    let path = journal_path("torn");
    let kill = (records - 1) * 2 / 3;
    match campaign(
        chaos_seed,
        TransportKind::Brokered,
        Mode::Create(&path, CrashPlan::at(kill)),
    ) {
        Ok(_) => panic!("kill at record {kill} never fired"),
        Err(SchemeError::Journal { .. }) => {}
        Err(other) => panic!("kill surfaced as {other}"),
    }
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("the killed journal exists");
    file.write_all(b"\x99torn-frame-garbage")
        .expect("garbage appends");
    drop(file);

    let (resumed, report) = campaign(
        chaos_seed,
        TransportKind::Brokered,
        Mode::Resume(&path, CrashPlan::never()),
    )
    .expect("a torn tail is a warning, not an error");
    let report = report.expect("resume mode yields a report");
    assert!(
        report.torn.is_some(),
        "the garbage tail must be reported: {report:?}"
    );
    assert_eq!(
        summary_digest(&resumed),
        reference,
        "torn-tail resume diverged from the uninterrupted run"
    );
    // The continuation re-sealed the truncated journal.
    assert!(read_journal(&path)
        .expect("the resumed journal reads back")
        .seal
        .is_some());
    let _ = std::fs::remove_file(&path);
}

/// Resuming a journal whose campaign already finished is read-only: the
/// replay alone rebuilds the summary, and its digest matches the one
/// sealed into the Finished record.
#[test]
fn sealed_journal_resumes_read_only_to_the_same_digest() {
    let path = journal_path("sealed");
    let (finished, _) = campaign(
        42,
        TransportKind::Direct,
        Mode::Create(&path, CrashPlan::never()),
    )
    .expect("the campaign completes");
    let finished = summary_digest(&finished);
    let (resumed, report) = campaign(
        42,
        TransportKind::Direct,
        Mode::Resume(&path, CrashPlan::never()),
    )
    .expect("a sealed journal resumes read-only");
    let report = report.expect("resume mode yields a report");
    assert!(report.sealed);
    assert_eq!(report.finished_digest.as_deref(), Some(finished.as_str()));
    assert!(report.rounds_replayed > 0, "{report:?}");
    // One record per round, between the header and the summary.
    assert_eq!(
        report.records_kept,
        1 + u64::from(report.rounds_replayed) + 1,
        "{report:?}"
    );
    assert_eq!(summary_digest(&resumed), finished);
    let _ = std::fs::remove_file(&path);
}

/// The header journals the deadline in whole microseconds. A deadline
/// finer than that must still describe its campaign on resume, so the
/// resumed run converges to the uninterrupted digest instead of refusing
/// its own journal.
#[test]
fn sub_microsecond_deadline_resumes_to_the_same_digest() {
    let task = PasswordSearch::with_hidden_password(7, 3);
    let cbs = CbsScheme {
        samples: 16,
        seed: 11,
        report_audit: 2,
    };
    let honest = HonestWorker;
    let specs: Vec<MemberSpec<'_, Sha256>> = (0..2)
        .map(|_| MemberSpec {
            scheme: &cbs as _,
            behaviours: vec![&honest as &dyn WorkerBehaviour],
        })
        .collect();
    let domain = Domain::new(0, 128);
    let config = MixedFleetConfig {
        deadline: Some(Duration::from_nanos(20_000_000_500)),
        ..MixedFleetConfig::default()
    };
    let run = |mut campaign: DurableCampaign| {
        run_durable_fleet(
            &task,
            &AcceptAllScreener,
            domain,
            &specs,
            &config,
            &mut campaign,
        )
    };
    let create = |path: &Path, crash| {
        let header = CampaignHeader::for_campaign(&specs, domain, &config, b"deadline".to_vec());
        run(DurableCampaign::create(path, header, crash)?)
    };

    let ref_path = journal_path("deadline-ref");
    let reference = create(&ref_path, CrashPlan::never()).expect("the campaign completes");
    let _ = std::fs::remove_file(&ref_path);

    let path = journal_path("deadline-kill");
    let err = create(&path, CrashPlan::at(2)).expect_err("the kill at record 2 fires");
    assert!(
        matches!(&err, SchemeError::Journal { reason } if reason.contains("injected kill point")),
        "{err}"
    );
    let (campaign, _) = DurableCampaign::resume(&path, CrashPlan::never()).expect("resume opens");
    let resumed = run(campaign).expect("the resumed campaign completes");
    assert_eq!(summary_digest(&resumed), summary_digest(&reference));
    let _ = std::fs::remove_file(&path);
}
