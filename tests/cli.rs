//! End-to-end tests of the `ugc` command-line driver.

use std::process::{Command, Output};

fn ugc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ugc"))
        .args(args)
        .output()
        .expect("ugc binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_prints_usage() {
    let out = ugc(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("usage: ugc"));
}

#[test]
fn no_args_prints_usage() {
    let out = ugc(&[]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("sample-size"));
}

#[test]
fn unknown_command_fails() {
    let out = ugc(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn sample_size_reproduces_paper_anchors() {
    let out = ugc(&[
        "sample-size",
        "--epsilon",
        "1e-4",
        "--r",
        "0.5",
        "--q",
        "0.5",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("m = 33"), "{}", stdout(&out));
    let out = ugc(&["sample-size", "--epsilon", "1e-4", "--r", "0.5", "--q", "0"]);
    assert!(stdout(&out).contains("m = 14"), "{}", stdout(&out));
}

#[test]
fn sample_size_past_i32_samples_returns_promptly() {
    // m ≈ 2.30e9 does not fit an i32 exponent: the answer must come back,
    // not loop on a wrapped power.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ugc"))
        .args(["sample-size", "--epsilon", "1e-10", "--r", "0.99999999"])
        .args(["--q", "0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("ugc binary runs");
    #[expect(
        clippy::disallowed_methods,
        reason = "a hang guard; the elapsed time is the assertion"
    )]
    let started = std::time::Instant::now();
    while child.try_wait().unwrap().is_none() {
        if started.elapsed() > std::time::Duration::from_secs(20) {
            let _ = child.kill();
            panic!("sample-size did not return within 20 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(stdout(&out).contains("m = 23025850"), "{}", stdout(&out));
}

#[test]
fn detection_stays_a_probability_past_i32_samples() {
    for m in ["2147483648", "4294967296", "18446744073709551615"] {
        let out = ugc(&["detection", "--r", "0.5", "--q", "0.5", "--m", m]);
        assert!(out.status.success());
        let text = stdout(&out);
        let figures = text.rsplit("survive ").next().unwrap();
        let (survive, detect) = figures.trim().split_once(", detect ").unwrap();
        for p in [survive, detect] {
            let p: f64 = p.parse().unwrap();
            assert!((0.0..=1.0).contains(&p), "m = {m}: {text}");
        }
    }
}

#[test]
fn sample_size_handles_unreachable_case() {
    let out = ugc(&["sample-size", "--r", "1.0"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("no finite m"));
}

#[test]
fn detection_prints_eq2() {
    let out = ugc(&["detection", "--r", "0.5", "--q", "0", "--m", "10"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(
        text.contains("9.766e-4") || text.contains("9.77e-4"),
        "{text}"
    );
}

#[test]
fn run_cbs_honest_accepts() {
    let out = ugc(&["run", "--scheme", "cbs", "--n", "256", "--m", "10"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("verdict:      accepted"), "{text}");
    assert!(text.contains("result(s) of interest"), "{text}");
}

#[test]
fn run_cbs_cheater_rejected() {
    let out = ugc(&[
        "run", "--scheme", "cbs", "--n", "256", "--m", "25", "--cheat", "0.5",
    ]);
    assert!(out.status.success());
    assert!(!stdout(&out).contains("verdict:      accepted"));
}

#[test]
fn run_all_schemes_on_password() {
    for scheme in ["cbs", "ni-cbs", "naive", "ringer"] {
        let out = ugc(&["run", "--scheme", scheme, "--n", "128", "--m", "8"]);
        assert!(out.status.success(), "{scheme} failed");
        assert!(
            stdout(&out).contains("accepted"),
            "{scheme}: {}",
            stdout(&out)
        );
    }
}

#[test]
fn run_double_check_runs_two_replicas() {
    // `ugc run` reads the scheme table `ugc fleet` does, so the fifth
    // scheme is a round like any other: both replicas evaluate the share.
    let out = ugc(&["run", "--scheme", "double-check", "--n", "128"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("verdict:      accepted"), "{text}");
    assert!(text.contains("participant:  256 f-evals"), "{text}");
}

#[test]
fn run_all_workloads_through_cbs() {
    for workload in ["password", "seti", "docking", "primes"] {
        let out = ugc(&["run", "--workload", workload, "--n", "64", "--m", "5"]);
        assert!(out.status.success(), "{workload} failed");
    }
}

#[test]
fn ringer_rejects_non_one_way_workload() {
    let out = ugc(&[
        "run",
        "--scheme",
        "ringer",
        "--workload",
        "seti",
        "--n",
        "64",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("one-way"));
}

#[test]
fn run_partial_storage() {
    let out = ugc(&[
        "run",
        "--scheme",
        "cbs",
        "--n",
        "256",
        "--m",
        "8",
        "--partial",
        "3",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("accepted"));
}

#[test]
fn fleet_flags_the_cheater() {
    let out = ugc(&[
        "fleet",
        "--participants",
        "3",
        "--cheaters",
        "1",
        "--n",
        "384",
        "--m",
        "20",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("2 accepted, 1 rejected"), "{text}");
    assert!(text.contains("reassign"), "{text}");
}

#[test]
fn fleet_over_broker_matches_direct_verdicts() {
    let base = [
        "fleet",
        "--participants",
        "3",
        "--cheaters",
        "1",
        "--n",
        "384",
        "--m",
        "20",
    ];
    for scheme in ["cbs", "ni-cbs", "naive"] {
        let direct = ugc(&[&base[..], &["--scheme", scheme]].concat());
        let brokered = ugc(&[&base[..], &["--scheme", scheme, "--transport", "brokered"]].concat());
        assert!(direct.status.success(), "{scheme} direct failed");
        assert!(brokered.status.success(), "{scheme} brokered failed");
        assert!(
            stdout(&direct).contains("2 accepted, 1 rejected"),
            "{scheme}: {}",
            stdout(&direct)
        );
        assert!(
            stdout(&brokered).contains("2 accepted, 1 rejected"),
            "{scheme}: {}",
            stdout(&brokered)
        );
        assert!(stdout(&brokered).contains("grid broker"));
    }
}

#[test]
fn fleet_chaos_campaign_reports_faults_and_throughput() {
    let args = [
        "fleet",
        "--participants",
        "8",
        "--cheaters",
        "1",
        "--chaos",
        "7",
        "--churn",
        "--transport",
        "brokered",
        "--n",
        "512",
        "--m",
        "20",
    ];
    let out = ugc(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("fleet of 8 participants on "), "{text}");
    assert!(text.contains("7 accepted, 1 rejected"), "{text}");
    assert!(text.contains("chaos seed 7:"), "{text}");
    assert!(text.contains("faults injected"), "{text}");
    assert!(text.contains("sessions/s"), "{text}");

    // The same seed replays to the same verdicts and the same fault log
    // (the throughput line is wall-clock and excluded).
    let replay = ugc(&args);
    let replay_text = stdout(&replay);
    let stable = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| !l.starts_with("throughput:"))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(stable(&text), stable(&replay_text));
}

#[test]
fn invalid_number_reports_cleanly() {
    let out = ugc(&["run", "--n", "banana"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid value"));
}

#[test]
fn out_of_range_probability_prints_usage_and_fails() {
    // A probability flag outside its range is a usage error (exit 1),
    // never the library's assert (exit 101 and a backtrace).
    for (args, flag) in [
        (&["run", "--cheat", "1.5"][..], "--cheat"),
        (&["run", "--cheat", "-0.5"][..], "--cheat"),
        (&["sample-size", "--epsilon", "0"][..], "--epsilon"),
        (&["sample-size", "--epsilon", "1"][..], "--epsilon"),
        (&["detection", "--r", "2"][..], "--r"),
        (&["detection", "--q", "NaN"][..], "--q"),
    ] {
        let out = ugc(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("error: {flag} ")), "{args:?}: {err}");
        assert!(err.contains("usage: ugc"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn oversized_sample_count_prints_usage_and_fails() {
    // `m` sizes the challenge and its opening: past the limit it is a
    // usage error on every path, never an allocation (these three once
    // aborted, panicked and hung).
    for args in [
        "run --m 1099511627776 --n 64",
        "fleet --m 18446744073709551615 --n 64 --participants 2",
        "fleet --scheme ni-cbs --m 1099511627776 --n 64 --participants 2",
    ] {
        let out = ugc(&args.split_whitespace().collect::<Vec<_>>());
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("samples per member: at most"), "{err}");
        assert!(err.contains("usage: ugc"), "{args:?}: {err}");
    }
}

#[test]
fn chaotic_fleet_of_the_largest_domain_fails_without_panicking() {
    // A chaotic run arms a session deadline that grows with the share
    // size; at `n = u64::MAX` it saturates instead of overflowing. The
    // error names the participant's cause, not the hang-up it caused.
    let out = ugc(&[
        "fleet",
        "--participants",
        "1",
        "--cheaters",
        "0",
        "--n",
        "18446744073709551615",
        "--chaos",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.contains("share too large"), "{err}");
}

#[test]
fn impossible_partial_level_names_the_cause() {
    // The participant's Merkle error, not the hang-up it caused.
    for args in [
        &["run", "--partial", "40", "--n", "64"][..],
        &["run", "--partial", "3", "--n", "1"][..],
    ] {
        let out = ugc(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error: merkle error: subtree height"), "{err}");
        assert!(err.contains("usage: ugc"), "{args:?}: {err}");
    }
}

#[test]
fn fleet_bad_flag_value_prints_usage_and_fails() {
    // A bad --participants value must produce a usage hint and a nonzero
    // exit, never a panic.
    let out = ugc(&["fleet", "--participants", "banana"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid value"), "{err}");
    assert!(err.contains("usage: ugc"), "{err}");
    let out = ugc(&["fleet", "--workers", "-3"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid value"));
    // A dangling --key with no value must error, not silently fall back
    // to the default (a forgotten `--chaos <seed>` would otherwise run
    // the campaign without chaos and exit 0).
    let out = ugc(&["fleet", "--participants", "2", "--chaos"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--chaos requires a value"), "{err}");
}

#[test]
fn fleet_flag_is_never_read_as_another_flags_value() {
    // `--journal --churn` once wrote a journal file named `--churn` and
    // turned churn on too: one token read twice. The flag after a
    // value-taking key is a missing value, and nothing is written.
    let dir = std::env::temp_dir().join(format!("ugc-cli-flag-value-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ugc"))
        .args(["fleet", "--participants", "2", "--n", "64", "--m", "4"])
        .args(["--journal", "--churn"])
        .current_dir(&dir)
        .output()
        .expect("ugc binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--journal requires a value"), "{err}");
    assert!(err.contains("usage: ugc"), "{err}");
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(written.is_empty(), "{written:?}");
}

#[test]
fn fleet_unrecognized_flag_prints_usage_and_fails() {
    // Typos must not be silently ignored (they used to be): the command
    // errors, names the offender and shows the usage.
    let out = ugc(&["fleet", "--particpants", "3"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unrecognized argument"), "{err}");
    assert!(err.contains("--particpants"), "{err}");
    assert!(err.contains("usage: ugc"), "{err}");
    // Retired spellings are unknown flags like any other, not aliases:
    // `--transport brokered` and `--participants` are the only ones.
    for retired in [&["--broker"][..], &["--threads", "8"][..]] {
        let out = ugc(&[&["fleet"][..], retired].concat());
        assert!(!out.status.success(), "{retired:?} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unrecognized argument"), "{err}");
        assert!(err.contains(retired[0]), "{err}");
    }
}

/// `ugc fleet`, flags split on whitespace.
fn fleet(flags: &str) -> Output {
    ugc(&[
        &["fleet"][..],
        &flags.split_whitespace().collect::<Vec<_>>(),
    ]
    .concat())
}

const GOLDEN_FLEET: &str = "--participants 6 --cheaters 1 --n 2048 --m 12";

/// First 16 hex digits of the digest `ugc fleet` [`GOLDEN_FLEET`]
/// (default seed) prints, per scheme, for a clean run and for `--chaos
/// <7|9|11> --churn`. Recorded at the last commit that still ran a bare
/// `ugc fleet` on one OS thread per participant, where that path and the
/// `--workers` pool agreed on every cell; the same for `--transport
/// direct` and `brokered`. The `cbs` and `ni-cbs` rows were recorded
/// again when wire version 2 replaced the `m` per-sample proofs of a
/// round by one opening — fewer bytes, fewer supervisor hashes, and both
/// are in the digest; the three schemes that send no opening kept their
/// rows to the bit, which is the evidence that nothing else moved.
/// Every row was recorded once more when `summary_digest` went from
/// hashing `{:?}` text to hashing the journal's record codec (and the
/// cost report lost a fifth counter that always repeated the hash
/// count): no campaign changed, only the bytes its summary is hashed
/// from. The old text digest, with that counter written as the hash
/// count, computed over that change's summaries reproduces every
/// previous cell. Every row was recorded again at wire version 5, whose
/// LEB128 integers change what every message of every scheme is charged:
/// a copy that charged the version-4 fixed-width length (and kept the
/// version-3 params blob and journal version 5) reproduced every previous
/// cell.
#[rustfmt::skip]
const GOLDEN_DIGESTS: [(&str, [&str; 4]); 5] = [
    ("cbs",          ["5b39571fcfdc038e", "a728dca373074053", "75a8012f8262f83d", "6945be74aec5dbc3"]),
    ("ni-cbs",       ["28c2ee5577ab3c2a", "8bd31c6f5fdcedb3", "507cda4b5effc44c", "d7e8e0d73c7892c6"]),
    ("naive",        ["53c4a099ac84f052", "a770082ed922443d", "0e27566c618efdce", "7ff21197ae353dd3"]),
    ("ringer",       ["06311def3ef6cb51", "220dfdaa333d775d", "12fc527b6fcb62b4", "630195d7f9b71d33"]),
    ("double-check", ["717d954e054fd0bd", "a2795b4fb04a5993", "ac1ede4eaab1c8a4", "314db1eada7617f9"]),
];

#[test]
fn fleet_workers_pool_matches_thread_per_participant_verdicts() {
    // The scheduler pool at any size and steal order, over either
    // transport, prints the digest the thread-per-participant path
    // printed for the same flags.
    let chaos = [
        "",
        "--chaos 7 --churn",
        "--chaos 9 --churn",
        "--chaos 11 --churn",
    ];
    for (scheme, row) in GOLDEN_DIGESTS {
        for (chaos, golden) in chaos.iter().zip(row) {
            for transport in ["direct", "brokered"] {
                for pool in [
                    "",
                    "--workers 1",
                    "--workers 4",
                    "--workers 8",
                    "--workers 4 --steal-seed 18446744073709551615",
                ] {
                    let flags = format!(
                        "{GOLDEN_FLEET} --scheme {scheme} --transport {transport} {chaos} {pool}"
                    );
                    let out = fleet(&flags);
                    assert!(out.status.success(), "{flags}");
                    assert!(
                        digest_line(&out).starts_with(&format!("digest: {golden}")),
                        "{flags} must print {golden}…:\n{}",
                        stdout(&out)
                    );
                }
            }
        }
    }
    // The header names the pool, whether or not a size was given.
    let sized = stdout(&fleet(&format!("{GOLDEN_FLEET} --workers 2")));
    assert!(
        sized.contains("6 participants on 2 scheduler workers"),
        "{sized}"
    );
    let bare = stdout(&fleet(GOLDEN_FLEET));
    assert!(bare.contains(" scheduler workers over "), "{bare}");
}

/// The same table for shares of 4 096 leaves — past the threshold where
/// a full-storage tree build goes threaded, which [`GOLDEN_FLEET`]'s
/// 341-leaf shares never reach: `ugc fleet --participants 2 --cheaters 0
/// --n 8192 --m 8`, per scheme. First recorded on a one-core host, where
/// the build had always been serial, and again — plain and under
/// `taskset -c 0 … --workers 1`, one digest — when wire version 2 changed
/// what a CBS round sends, and with [`GOLDEN_DIGESTS`] when the digest
/// began hashing the record codec, and with it at wire version 5; a
/// host's core count and the lane setting are execution layout and must print the same (CI's chaos-soak
/// job repeats the comparison under `taskset -c 0`).
#[rustfmt::skip]
const GOLDEN_LARGE_SHARE_DIGESTS: [(&str, &str); 2] = [
    ("cbs",    "da10760ac9f49c0b"),
    ("ni-cbs", "4ead57c065524c59"),
];

#[test]
fn fleet_digest_does_not_depend_on_the_hosts_core_count() {
    for (scheme, golden) in GOLDEN_LARGE_SHARE_DIGESTS {
        for shape in ["", "--workers 1", "--lanes scalar"] {
            let flags =
                format!("--participants 2 --cheaters 0 --n 8192 --m 8 --scheme {scheme} {shape}");
            let out = fleet(&flags);
            assert!(out.status.success(), "{flags}");
            assert!(
                digest_line(&out).starts_with(&format!("digest: {golden}")),
                "{flags} must print {golden}…:\n{}",
                stdout(&out)
            );
        }
    }
}

#[test]
fn fleet_lanes_accepts_only_scalar_and_x8() {
    for retired in ["x4", "x9"] {
        let out = fleet(&format!("--lanes {retired}"));
        assert!(!out.status.success(), "--lanes {retired} must be refused");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("expected scalar or x8"), "{err}");
        assert!(err.contains("usage: ugc"), "{err}");
    }
}

#[test]
fn fleet_single_worker_replay_never_strands_a_queued_verdict() {
    // The one cell that used to flicker: on a one-worker pool the
    // supervisor could verify the first copy of link 5's duplicated
    // upload, send the verdict and hang up before the duplicate's send —
    // which then failed the participant session with the verdict still
    // queued, so its inbound fault decision (`Delayed { link: 5, Inbound,
    // seq: 1 }`) was drawn in some runs (18 faults, this digest) and not
    // in others (17 faults, another).
    let flags =
        format!("{GOLDEN_FLEET} --scheme naive --transport brokered --chaos 7 --churn --workers 1");
    for run in 0..50 {
        let out = fleet(&flags);
        assert!(out.status.success());
        assert!(
            digest_line(&out).starts_with("digest: a770082ed922443d"),
            "run {run}:\n{}",
            stdout(&out)
        );
        assert!(stdout(&out).contains(": 18 faults injected"), "run {run}");
    }
}

#[test]
fn fleet_resume_without_journal_fails() {
    // --resume without --journal is a flag error: usage hint, nonzero
    // exit, no campaign run.
    let out = ugc(&["fleet", "--resume"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--resume requires --journal"), "{err}");
    assert!(err.contains("usage: ugc"), "{err}");
}

#[test]
fn fleet_kill_at_requires_journal() {
    let out = ugc(&["fleet", "--kill-at", "3"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--kill-at requires --journal"), "{err}");
    assert!(err.contains("usage: ugc"), "{err}");
}

#[test]
fn fleet_kill_at_must_fire() {
    let journal = std::env::temp_dir().join(format!("ugc-cli-kill-{}.wal", std::process::id()));
    let path = journal.to_str().expect("temp path is UTF-8");
    // Records count from 1: a kill at 0 is a usage error, and nothing runs.
    let out = ugc(&["fleet", "--journal", path, "--kill-at", "0"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--kill-at 0"), "{err}");
    assert!(err.contains("usage: ugc"), "{err}");
    assert!(
        !journal.exists(),
        "a usage error must not create the journal"
    );
    // A kill point past the campaign's last record never fires: the run
    // completes and seals its journal, and still fails.
    let small = [
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
    ];
    let out = ugc(&[&small[..], &["--kill-at", "99"]].concat());
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error: --kill-at 99 never fired"), "{err}");
    assert!(
        stdout(&out).contains("sealed (3 records"),
        "{}",
        stdout(&out)
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn fleet_verify_journal_rejects_campaign_flags() {
    // --verify-journal only checks a journal; mixing it with campaign
    // flags (or --resume / --workers) must fail with a usage hint.
    let out = ugc(&[
        "fleet",
        "--journal",
        "x.wal",
        "--verify-journal",
        "--participants",
        "3",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--verify-journal"), "{err}");
    assert!(err.contains("usage: ugc"), "{err}");
    let out = ugc(&[
        "fleet",
        "--journal",
        "x.wal",
        "--verify-journal",
        "--resume",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot be combined"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // And without --journal there is nothing to verify.
    let out = ugc(&["fleet", "--verify-journal"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--verify-journal requires --journal"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn fleet_resume_rejects_campaign_flags() {
    let out = ugc(&["fleet", "--journal", "x.wal", "--resume", "--n", "512"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("drop the campaign flags"), "{err}");
    assert!(err.contains("--n 512"), "{err}");
}

#[test]
fn fleet_journal_kill_resume_reproduces_digest() {
    // The durable-campaign walkthrough, end to end through the CLI: a
    // journaled run killed mid-campaign resumes to the same digest (and
    // the same per-participant lines) as a run that was never journaled,
    // and the sealed journal passes attestation.
    let journal = std::env::temp_dir().join(format!("ugc-cli-journal-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let path = journal.to_str().expect("temp path is UTF-8");
    let base = [
        "fleet",
        "--participants",
        "3",
        "--cheaters",
        "1",
        "--n",
        "384",
        "--m",
        "20",
        "--chaos",
        "7",
    ];
    let stable = |out: &Output| -> Vec<String> {
        stdout(out)
            .lines()
            .filter(|l| l.starts_with("  participant") || l.starts_with("digest:"))
            .map(str::to_owned)
            .collect()
    };

    let reference = ugc(&base);
    assert!(reference.status.success());
    assert!(
        stdout(&reference).contains("digest: "),
        "{}",
        stdout(&reference)
    );

    // Record 2 is the summary after the one round: the kill leaves a
    // committed round for the resume to replay.
    let killed = ugc(&[&base[..], &["--journal", path, "--kill-at", "2"]].concat());
    assert_eq!(
        killed.status.code(),
        Some(2),
        "an injected kill point must exit 2, not fail generically: {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    assert!(
        stdout(&killed).contains("campaign aborted"),
        "{}",
        stdout(&killed)
    );

    // --resume takes no campaign flags: the journal header carries them.
    let resumed = ugc(&["fleet", "--journal", path, "--resume"]);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(
        stdout(&resumed).contains("resumed: "),
        "{}",
        stdout(&resumed)
    );
    assert!(stdout(&resumed).contains("sealed"), "{}", stdout(&resumed));
    assert_eq!(
        stable(&reference),
        stable(&resumed),
        "a killed-and-resumed campaign must reproduce the uninterrupted digest"
    );

    let verified = ugc(&["fleet", "--journal", path, "--verify-journal"]);
    assert!(
        verified.status.success(),
        "{}",
        String::from_utf8_lossy(&verified.stderr)
    );
    assert!(
        stdout(&verified).contains("attestation: "),
        "{}",
        stdout(&verified)
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn fleet_journal_is_the_same_over_either_transport_and_resumes_over_the_other() {
    // The journal holds no transport: both transports seal one
    // attestation, and a direct journal killed mid-campaign finishes over
    // the broker with the uninterrupted run's digest and attestation.
    let path = |tag: &str| {
        let name = format!("ugc-cli-transport-{}-{tag}.wal", std::process::id());
        std::env::temp_dir().join(name)
    };
    let (direct, brokered, killed) = (path("direct"), path("brokered"), path("killed"));
    let base = "--participants 4 --cheaters 1 --n 512 --m 15 --chaos 9 --churn";
    // What the seal line says after the journal's path.
    let seal = |out: &Output| {
        let text = stdout(out);
        let line = text.lines().find(|l| l.starts_with("journal: "));
        let seal = line
            .and_then(|l| l.split_once(" sealed "))
            .map(|(_, seal)| seal);
        seal.unwrap_or_else(|| panic!("no seal line in:\n{text}"))
            .to_owned()
    };
    let run = |flags: String| {
        let out = fleet(&flags);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    let over_direct = run(format!("{base} --journal {}", direct.display()));
    let over_broker = run(format!(
        "{base} --transport brokered --journal {}",
        brokered.display()
    ));
    assert_eq!(digest_line(&over_direct), digest_line(&over_broker));
    assert_eq!(seal(&over_direct), seal(&over_broker));

    let out = fleet(&format!(
        "{base} --journal {} --kill-at 2",
        killed.display()
    ));
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    let resumed = run(format!(
        "--journal {} --resume --transport brokered",
        killed.display()
    ));
    assert!(
        stdout(&resumed).contains("the grid broker"),
        "{}",
        stdout(&resumed)
    );
    assert_eq!(digest_line(&resumed), digest_line(&over_direct));
    assert_eq!(seal(&resumed), seal(&over_direct));
    for journal in [direct, brokered, killed] {
        let _ = std::fs::remove_file(journal);
    }
}

#[test]
fn fleet_connect_refuses_the_pool_flags_without_dialing() {
    // Nothing listens on port 1: a dial would retry for seconds and fail
    // with "could not connect", so a fast refusal naming the flag is one
    // that never dialed.
    for flag in ["--workers 2", "--steal-seed 3", "--lanes scalar"] {
        #[expect(
            clippy::disallowed_methods,
            reason = "the elapsed time is the assertion that nothing dialed"
        )]
        let started = std::time::Instant::now();
        let out = fleet(&format!("--connect 127.0.0.1:1 {flag}"));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag}: {err}");
        let name = flag.split_whitespace().next().expect("a flag");
        assert!(err.contains(&format!("drop {name}")), "{flag}: {err}");
        assert!(!err.contains("could not connect"), "{flag}: {err}");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "{flag} dialed"
        );
    }
}

fn digest_line(out: &Output) -> String {
    stdout(out)
        .lines()
        .find(|l| l.starts_with("digest: "))
        .unwrap_or_else(|| panic!("no digest line in:\n{}", stdout(out)))
        .to_owned()
}

#[test]
fn fleet_transport_flag_matrix() {
    // Unknown transport value: error names the flag and the remote path.
    let out = ugc(&["fleet", "--transport", "carrier-pigeon"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown transport"), "{err}");
    assert!(err.contains("--connect"), "{err}");

    // A dangling --transport must not silently default.
    let out = ugc(&["fleet", "--transport"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("requires a value"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn fleet_connect_flag_matrix() {
    // --connect excludes every journal flag.
    for extra in [
        &["--journal", "/tmp/x.wal"][..],
        &["--resume"][..],
        &["--kill-at", "3"][..],
        &["--verify-journal"][..],
    ] {
        let out = ugc(&[&["fleet", "--connect", "127.0.0.1:1"][..], extra].concat());
        assert!(!out.status.success(), "--connect with {extra:?} must fail");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("crash-durability"),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // --connect implies the remote transport; picking another is an error.
    let out = ugc(&["fleet", "--connect", "127.0.0.1:1", "--transport", "direct"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("implies the remote transport"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Chaos is keyed by in-process link identity; refuse it remotely.
    for extra in [&["--chaos", "7"][..], &["--churn"][..]] {
        let out = ugc(&[&["fleet", "--connect", "127.0.0.1:1"][..], extra].concat());
        assert!(!out.status.success(), "--connect with {extra:?} must fail");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("cannot inject chaos"),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn broker_serve_flag_matrix() {
    let out = ugc(&["broker"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown broker subcommand"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = ugc(&["broker", "relay"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("broker serve"));

    let out = ugc(&["broker", "serve", "--frobnicate"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unrecognized"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Zero participants can never assemble a grid; refuse up front.
    let out = ugc(&[
        "broker",
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--participants",
        "0",
    ]);
    assert!(!out.status.success());
}

#[test]
fn participant_join_flag_matrix() {
    let out = ugc(&["participant"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown participant subcommand"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = ugc(&["participant", "join"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("requires the broker address"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = ugc(&["participant", "join", "127.0.0.1:9", "--frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unrecognized"));
}

#[test]
fn cross_process_campaign_digest_matches_in_process() {
    // The full three-process walkthrough, through the real binaries: a
    // serve process, two join processes, and a --connect supervisor,
    // whose printed digest must equal the in-process brokered run.
    use std::io::BufRead;

    let campaign = [
        "--participants",
        "3",
        "--cheaters",
        "1",
        "--n",
        "240",
        "--m",
        "8",
        "--scheme",
        "double-check",
    ];
    let reference = ugc(&[&["fleet"][..], &campaign, &["--transport", "brokered"]].concat());
    assert!(reference.status.success());

    let mut serve = Command::new(env!("CARGO_BIN_EXE_ugc"))
        .args([
            "broker",
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--participants",
            "2",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve spawns");
    // The first stdout line announces the actual bound address.
    let mut first_line = String::new();
    let mut serve_out = std::io::BufReader::new(serve.stdout.take().expect("serve stdout"));
    serve_out
        .read_line(&mut first_line)
        .expect("serve announces its address");
    let addr = first_line
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unparseable serve banner: {first_line:?}"))
        .to_owned();

    let joins: Vec<_> = (0..2)
        .map(|_| {
            Command::new(env!("CARGO_BIN_EXE_ugc"))
                .args(["participant", "join", &addr])
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("join spawns")
        })
        .collect();

    let connected = ugc(&[&["fleet", "--connect", &addr][..], &campaign].concat());
    assert!(
        connected.status.success(),
        "{}",
        String::from_utf8_lossy(&connected.stderr)
    );
    assert!(
        stdout(&connected).contains("remote grid broker"),
        "{}",
        stdout(&connected)
    );
    assert_eq!(
        digest_line(&reference),
        digest_line(&connected),
        "cross-process digest diverged:\nin-process:\n{}\nremote:\n{}",
        stdout(&reference),
        stdout(&connected)
    );

    for join in joins {
        let out = join.wait_with_output().expect("join exits");
        assert!(out.status.success());
        assert!(stdout(&out).contains("slot(s) served"), "{}", stdout(&out));
    }
    assert!(serve.wait().expect("serve exits").success());
}

#[test]
fn fleet_workers_zero_picks_available_cores() {
    let base = "--participants 3 --cheaters 0 --n 96 --m 6";
    let out = fleet(&format!("{base} --workers 0"));
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("scheduler workers"), "{text}");
    assert!(text.contains("3 accepted, 0 rejected"), "{text}");
    // An absent --workers means the same thing, down to the header.
    let header = |text: &str| text.lines().next().map(str::to_owned);
    assert_eq!(header(&text), header(&stdout(&fleet(base))));
}
