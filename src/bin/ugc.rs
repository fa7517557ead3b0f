//! `ugc` — command-line driver for the Uncheatable Grid Computing library.
//!
//! ```text
//! ugc sample-size --epsilon 1e-4 --r 0.5 --q 0.5     Eq. (3): required m
//! ugc detection   --r 0.5 --q 0 --m 14               Eq. (2): survival probability
//! ugc run         --scheme cbs --workload seti --n 1024 --m 25 --cheat 0.5
//! ugc fleet       --participants 4 --cheaters 1 --n 4096 --m 25
//! ```
//!
//! Argument parsing is hand-rolled (the library has no CLI dependencies);
//! every command prints a short, table-shaped report.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;
use ugc_journal::{verify_journal, CrashPlan};
use uncheatable_grid::campaign::{CampaignPlan, FleetParams};
use uncheatable_grid::core::analysis::{
    cheat_success_probability, detection_probability, required_sample_size,
};
use uncheatable_grid::core::scheme::run_round;
use uncheatable_grid::core::{
    run_durable_fleet, run_mixed_fleet, summary_digest, CampaignHeader, DurableCampaign,
    FleetScheme, FleetSummary, MixedFleetConfig, ParticipantStorage, RoundOutcome, TransportKind,
};
use uncheatable_grid::grid::runtime::GridScheduler;
use uncheatable_grid::grid::{
    CheatSelection, FaultEvent, HonestWorker, SemiHonestCheater, WorkerBehaviour,
};
use uncheatable_grid::hash::{LaneWidth, Sha256};
use uncheatable_grid::netgrid::{self, GridServer};
use uncheatable_grid::task::workloads::{
    DrugScreening, PasswordSearch, PrimalitySearch, SetiSignal,
};
use uncheatable_grid::task::{ComputeTask, Domain, ScreenReport, Screener, ZeroGuesser};

const USAGE: &str = "\
usage: ugc <command> [options]

commands:
  sample-size --epsilon <e> --r <r> --q <q>      Eq. (3): required sample count
  detection   --r <r> --q <q> --m <m>            Eq. (2): cheat-survival probability
  run         --scheme <cbs|ni-cbs|naive|ringer|double-check>
              --workload <password|seti|docking|primes>
              [--n <inputs>] [--m <samples>] [--cheat <ratio>] [--partial <level>] [--seed <s>]
  fleet       [--participants <k>] [--cheaters <c>] [--n <inputs>] [--m <samples>] [--seed <s>]
              [--scheme <cbs|ni-cbs|naive|ringer|double-check>]
              [--transport <direct|brokered>] [--workers <w>]
              [--steal-seed <s>] [--lanes <scalar|x8>]
              [--chaos <seed>] [--churn]
              [--journal <path>] [--kill-at <r>] [--resume] [--verify-journal]
              [--connect <host:port>]
  broker serve --listen <host:port> [--participants <p>]
                                                  relay a cross-process campaign
  participant join <host:port>                    serve slots for a remote campaign
  help                                            this message

The fleet runs every member as a concurrent session of one multiplexing
engine. --transport names how its messages move: direct (the default)
or brokered. In this process both are one transport — one in-memory
link per participant slot, slot k holding task k; the GRACE broker is
the relay between processes — so verdicts and digests are identical.

--connect <host:port> runs the same campaign over a real grid: a
`ugc broker serve` process relays between this supervisor and
`ugc participant join` processes over length-framed TCP, and the
printed digest is bit-identical to the in-process brokered run of the
same flags. A --connect campaign cannot inject chaos (--chaos/--churn:
fault schedules are keyed by in-process link identity), cannot journal
(--journal/--resume/--kill-at are in-process flags), and runs no
participant slot in this process, so it refuses the pool flags
(--workers/--steal-seed/--lanes).

A round runs as shards on a fixed pool of scheduler threads, one shard
per worker, each holding whole sessions and their participants on one
thread: --workers <w> sets its size (absent or 0: one per available
core). --steal-seed <s> seeds the pool's work-stealing victim order —
scheduling-only (one shard per worker leaves nothing to steal), any
seed reproduces the identical campaign. --lanes picks whether participant tree builds batch
their hashes through the message-parallel digest kernels (x8, the
default) or hash one message at a time (scalar) — digests are
bit-identical either way, so this is purely a speed knob. --chaos <seed>
injects seeded message duplication/reordering/latency on every
participant link, and --churn adds participant crash/restart churn —
failed sessions are reassigned, and the whole campaign replays
bit-identically from the seed at any worker count.

--journal <path> makes the campaign crash-durable: every settled round
is written to a checksummed journal before the supervisor acts on it,
so a killed run picks up with `ugc fleet --journal <path> --resume`
(the campaign flags live in the journal header, so --resume accepts
none; --transport, --workers, --steal-seed and --lanes are execution
layout, never journaled, and may differ from the killed run's) and
finishes with verdicts, attempts, cost ledgers, fault log, summary
digest and journal attestation bit-identical to a run that was never
interrupted, over either transport.
--kill-at <r> crashes the supervisor deterministically at the r-th
campaign journal record (exit code 2); a campaign writes one record per
round, then its summary and the seal, and a kill point the campaign
never reaches is an error. --verify-journal checks a finished journal's
seal and prints its attestation digest.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Hand-rolled `--key value` / `--flag` parser shared by every command:
/// each lookup marks the positions it consumed, and [`Args::finish`]
/// rejects anything left over, so a typo (`--particpants 3`) errors with
/// a usage hint and a nonzero exit instead of being silently ignored.
struct Args<'a> {
    argv: &'a [String],
    used: Vec<bool>,
}

impl<'a> Args<'a> {
    fn new(argv: &'a [String]) -> Self {
        Args {
            used: vec![false; argv.len()],
            argv,
        }
    }

    /// The raw value following `key`: `Ok(None)` when the key is absent,
    /// an error when the key is present with nothing after it (a
    /// dangling `--key` must not silently fall back to the default) or
    /// with another flag after it (`--journal --churn` must not name a
    /// journal `--churn` and turn churn on as well).
    fn raw(&mut self, key: &str) -> Result<Option<&'a str>, String> {
        let Some(i) = self.argv.iter().position(|a| a == key) else {
            return Ok(None);
        };
        self.used[i] = true;
        let Some(value) = self.argv.get(i + 1).filter(|v| !v.starts_with("--")) else {
            return Err(format!("{key} requires a value"));
        };
        self.used[i + 1] = true;
        Ok(Some(value))
    }

    /// `--key value`, parsed, or `None` when the key is absent.
    fn opt<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        match self.raw(key)? {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value {raw:?} for {key}")),
        }
    }

    /// `--key value`, parsed, with a default when the key is absent.
    fn value<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// `--key p` for a probability: anything outside `[0, 1]` (NaN
    /// included) is a usage error here, before a library assert sees it.
    fn probability(&mut self, key: &str, default: f64) -> Result<f64, String> {
        let p: f64 = self.value(key, default)?;
        if (0.0..=1.0).contains(&p) {
            Ok(p)
        } else {
            Err(format!("{key} {p}: expected a probability in [0, 1]"))
        }
    }

    /// The first unconsumed non-flag argument (e.g. the address in
    /// `participant join <host:port>`), or `None`.
    fn positional(&mut self) -> Option<&'a str> {
        for (i, arg) in self.argv.iter().enumerate() {
            if !self.used[i] && !arg.starts_with("--") {
                self.used[i] = true;
                return Some(arg.as_str());
            }
        }
        None
    }

    /// A bare `--flag` (consumed if present).
    fn flag(&mut self, key: &str) -> bool {
        match self.argv.iter().position(|a| a == key) {
            Some(i) => {
                self.used[i] = true;
                true
            }
            None => false,
        }
    }

    /// Fails on any argument no lookup consumed (unknown flags, stray
    /// values, missing `--key` prefixes).
    fn finish(self) -> Result<(), String> {
        let unrecognized: Vec<&str> = self
            .argv
            .iter()
            .zip(&self.used)
            .filter(|(_, used)| !**used)
            .map(|(arg, _)| arg.as_str())
            .collect();
        if unrecognized.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "unrecognized argument(s): {}",
                unrecognized.join(" ")
            ))
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("sample-size") => cmd_sample_size(Args::new(&args[1..])),
        Some("detection") => cmd_detection(Args::new(&args[1..])),
        Some("run") => cmd_run(Args::new(&args[1..])),
        Some("fleet") => cmd_fleet(Args::new(&args[1..])),
        Some("broker") => match args.get(1).map(String::as_str) {
            Some("serve") => cmd_broker_serve(Args::new(&args[2..])),
            other => Err(format!(
                "unknown broker subcommand {:?}; try `ugc broker serve`",
                other.unwrap_or("")
            )),
        },
        Some("participant") => match args.get(1).map(String::as_str) {
            Some("join") => cmd_participant_join(Args::new(&args[2..])),
            other => Err(format!(
                "unknown participant subcommand {:?}; try `ugc participant join <host:port>`",
                other.unwrap_or("")
            )),
        },
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn cmd_sample_size(mut args: Args<'_>) -> Result<(), String> {
    let epsilon: f64 = args.value("--epsilon", 1e-4)?;
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(format!("--epsilon {epsilon}: expected a value in (0, 1)"));
    }
    let r = args.probability("--r", 0.5)?;
    let q = args.probability("--q", 0.0)?;
    args.finish()?;
    match required_sample_size(epsilon, r, q) {
        Some(m) => {
            println!("Eq. (3): m ≥ log ε / log(r + (1-r)q)");
            println!("r = {r}, q = {q}, ε = {epsilon:e}  →  m = {m}");
            println!(
                "check: Pr[cheat | m={m}] = {:.3e}",
                cheat_success_probability(r, q, m)
            );
        }
        None => println!("no finite m: a participant with r + (1-r)q = 1 is indistinguishable"),
    }
    Ok(())
}

fn cmd_detection(mut args: Args<'_>) -> Result<(), String> {
    let r = args.probability("--r", 0.5)?;
    let q = args.probability("--q", 0.0)?;
    let m: u64 = args.value("--m", 14)?;
    args.finish()?;
    println!("Eq. (2): Pr[cheat succeeds] = (r + (1-r)q)^m");
    println!(
        "r = {r}, q = {q}, m = {m}  →  survive {:.3e}, detect {:.6}",
        cheat_success_probability(r, q, m),
        detection_probability(r, q, m)
    );
    Ok(())
}

/// A boxed screener so one code path serves all workloads.
struct Workload {
    task: Box<dyn ComputeTask>,
    screener: Box<dyn Screener>,
    one_way: bool,
}

fn workload(name: &str, seed: u64, n: u64) -> Result<Workload, String> {
    Ok(match name {
        "password" => {
            let task = PasswordSearch::with_hidden_password(seed, n / 2);
            let screener = task.match_screener();
            Workload {
                task: Box::new(task),
                screener: Box::new(screener),
                one_way: true,
            }
        }
        "seti" => {
            let task = SetiSignal::new(seed);
            let screener = task.screener();
            Workload {
                task: Box::new(task),
                screener: Box::new(screener),
                one_way: false,
            }
        }
        "docking" => {
            let task = DrugScreening::new(seed);
            let screener = task.screener();
            Workload {
                task: Box::new(task),
                screener: Box::new(screener),
                one_way: false,
            }
        }
        "primes" => {
            struct Primes;
            impl Screener for Primes {
                fn screen(&self, x: u64, fx: &[u8]) -> Option<ScreenReport> {
                    (fx.first() == Some(&1)).then(|| ScreenReport {
                        input: x,
                        payload: fx.to_vec(),
                    })
                }
            }
            Workload {
                task: Box::new(PrimalitySearch::new(1_000_001 | 1, 2)),
                screener: Box::new(Primes),
                one_way: false,
            }
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn print_outcome(scheme: &str, outcome: &RoundOutcome) {
    println!("scheme:       {scheme}");
    println!("verdict:      {}", outcome.verdict);
    println!(
        "traffic:      {} B to participant, {} B back",
        outcome.supervisor_link.bytes_sent, outcome.supervisor_link.bytes_received
    );
    println!(
        "supervisor:   {} f-evals, {} hashes, {} g-hashes, {} verifications",
        outcome.supervisor_costs.f_evals,
        outcome.supervisor_costs.hash_ops,
        outcome.supervisor_costs.g_evals,
        outcome.supervisor_costs.verify_ops
    );
    println!(
        "participant:  {} f-evals, {} hashes, {} g-hashes",
        outcome.participant_costs.f_evals,
        outcome.participant_costs.hash_ops,
        outcome.participant_costs.g_evals
    );
    println!(
        "reports:      {} result(s) of interest",
        outcome.reports.len()
    );
    for report in outcome.reports.iter().take(5) {
        println!("  {report}");
    }
}

fn cmd_run(mut args: Args<'_>) -> Result<(), String> {
    let scheme: String = args.value("--scheme", "cbs".into())?;
    let workload_name: String = args.value("--workload", "password".into())?;
    let n: u64 = args.value("--n", 1024)?;
    let m: u64 = args.value("--m", 25)?;
    let cheat = args.probability("--cheat", 0.0)?;
    let seed: u64 = args.value("--seed", 42)?;
    let partial: u32 = args.value("--partial", 0)?;
    args.finish()?;
    let fleet_scheme = FleetParams::fleet_scheme(&scheme, m)?;
    let w = workload(&workload_name, seed, n)?;
    if matches!(fleet_scheme, FleetScheme::Ringer { .. }) && !w.one_way {
        return Err(format!(
            "the ringer scheme requires a one-way f; workload {workload_name:?} is not \
             (this is the paper's Section 1.1 limitation — use cbs instead)"
        ));
    }
    let domain = Domain::try_new(0, n).map_err(|e| e.to_string())?;
    let storage = if partial == 0 {
        ParticipantStorage::Full
    } else {
        ParticipantStorage::Partial {
            subtree_height: partial,
        }
    };
    let honest = HonestWorker;
    let cheater = SemiHonestCheater::new(
        1.0 - cheat,
        CheatSelection::Scattered,
        ZeroGuesser::new(seed ^ 0xbad),
        seed,
    );
    let behaviour: &dyn WorkerBehaviour = if cheat > 0.0 { &cheater } else { &honest };
    if cheat > 0.0 {
        println!("participant fakes {:.0}% of its work\n", cheat * 100.0);
    }

    let config = MixedFleetConfig {
        storage,
        ..MixedFleetConfig::default()
    };
    let behaviours = vec![behaviour; fleet_scheme.slots()];
    let round = fleet_scheme.instantiate::<Sha256>(seed);
    let (task, screener) = (w.task.as_ref(), w.screener.as_ref());
    let outcome = run_round(round.as_ref(), task, screener, domain, &behaviours, &config)
        .map_err(|e| e.to_string())?;
    print_outcome(&scheme, &outcome);
    Ok(())
}

/// Parses the campaign-defining `fleet` flags into params that run over
/// `transport`.
fn fleet_params_from_args(
    args: &mut Args<'_>,
    transport: TransportKind,
) -> Result<FleetParams, String> {
    Ok(FleetParams {
        participants: args.value("--participants", 4)?,
        cheaters: args.value("--cheaters", 1)?,
        n: args.value("--n", 4096)?,
        m: args.value("--m", 25)?,
        seed: args.value("--seed", 7)?,
        scheme: args.value("--scheme", "cbs".into())?,
        transport,
        churn: args.flag("--churn"),
        chaos_seed: args.opt("--chaos")?,
    })
}

/// The one transport-selection knob, `--transport direct|brokered`
/// (direct when absent).
fn parse_transport(raw: Option<&str>) -> Result<TransportKind, String> {
    match raw {
        None | Some("direct") => Ok(TransportKind::Direct),
        Some("brokered") => Ok(TransportKind::Brokered),
        Some(other) => Err(format!(
            "unknown transport {other:?} (expected direct or brokered; cross-process \
             campaigns use `ugc fleet --connect <host:port>`)"
        )),
    }
}

fn cmd_verify_journal(path: &Path) -> Result<(), String> {
    let seal = verify_journal(path).map_err(|e| format!("journal verification failed: {e}"))?;
    println!("journal {}: sealed and intact", path.display());
    println!("records:     {}", seal.records);
    println!("attestation: {}", seal.digest_hex());
    Ok(())
}

fn cmd_fleet(mut args: Args<'_>) -> Result<(), String> {
    let connect: Option<String> = args.raw("--connect")?.map(str::to_owned);
    let journal_path: Option<String> = args.raw("--journal")?.map(str::to_owned);
    let verify = args.flag("--verify-journal");
    let resume = args.flag("--resume");
    let kill_at: Option<u64> = args.opt("--kill-at")?;

    if let Some(addr) = connect {
        if journal_path.is_some() || verify || resume || kill_at.is_some() {
            return Err(
                "--connect runs the campaign over a live grid; the crash-durability flags \
                 (--journal, --verify-journal, --resume, --kill-at) apply only to in-process \
                 campaigns"
                    .into(),
            );
        }
        // The layout flags below shape slots in this process, and a
        // --connect supervisor runs none.
        for flag in ["--transport", "--workers", "--steal-seed", "--lanes"] {
            if args.raw(flag)?.is_some() {
                return Err(format!(
                    "--connect implies the remote transport, which runs every participant \
                     slot in a joined process; drop {flag}"
                ));
            }
        }
        let params = fleet_params_from_args(&mut args, TransportKind::Remote)?;
        args.finish()?;
        return cmd_fleet_connect(&addr, params);
    }
    // Execution layout, never campaign identity — how this process runs
    // the slots: the transport, the size of the scheduler pool they are
    // multiplexed over (absent or 0: one worker per core), its
    // work-stealing victim order and the digest lane width. Verdicts,
    // digests and journals are bit-identical at any setting, so none of
    // it is journaled and all of it may differ between a run and its
    // resume.
    let transport_flag = args.raw("--transport")?;
    let transport = parse_transport(transport_flag)?;
    let workers_flag: Option<usize> = args.opt("--workers")?;
    let workers = match workers_flag {
        None | Some(0) => GridScheduler::available().workers(),
        Some(w) => w,
    };
    let steal_seed: u64 = args.opt("--steal-seed")?.unwrap_or(0);
    let lanes: LaneWidth = match args.raw("--lanes")? {
        None => LaneWidth::default(),
        Some(s) => {
            LaneWidth::parse(s).ok_or_else(|| format!("--lanes {s:?}: expected scalar or x8"))?
        }
    };

    if verify {
        let Some(path) = journal_path else {
            return Err(
                "--verify-journal requires --journal <path> (the journal to verify)".into(),
            );
        };
        if resume || kill_at.is_some() || workers_flag.is_some() || transport_flag.is_some() {
            return Err(
                "--verify-journal only checks an existing journal; it cannot be combined \
                 with --resume, --kill-at, --workers or --transport"
                    .into(),
            );
        }
        args.finish().map_err(|e| {
            format!(
                "--verify-journal only checks an existing journal; drop the campaign flags ({e})"
            )
        })?;
        return cmd_verify_journal(Path::new(&path));
    }
    if resume && journal_path.is_none() {
        return Err("--resume requires --journal <path> (the journal to resume from)".into());
    }
    if kill_at.is_some() && journal_path.is_none() {
        return Err("--kill-at requires --journal <path> (there is no journal to crash)".into());
    }
    let crash = match kill_at {
        Some(0) => return Err("--kill-at 0: journal records count from 1".into()),
        Some(record) => CrashPlan::at(record),
        None => CrashPlan::never(),
    };

    // A resumed campaign is defined by its journal header, a fresh one by
    // its flags — mutually exclusive, so a resume can never silently
    // diverge from what the journal recorded.
    let (params, resumed) = if resume {
        args.finish().map_err(|e| {
            format!(
                "--resume rebuilds the campaign from the journal; drop the campaign flags ({e})"
            )
        })?;
        let path = journal_path.as_deref().expect("validated above");
        let (campaign, report) =
            DurableCampaign::resume(Path::new(path), crash).map_err(|e| e.to_string())?;
        let params = FleetParams {
            transport,
            ..FleetParams::decode(&campaign.header().app)?
        };
        (params, Some((campaign, report)))
    } else {
        let params = fleet_params_from_args(&mut args, transport)?;
        args.finish()?;
        (params, None)
    };

    let plan = CampaignPlan::new(params.clone())?;
    let members = plan.members();
    let config = plan.mixed_config(Some(workers), steal_seed, lanes);
    let domain = plan.domain();
    let (task, screener) = (plan.task(), plan.screener());
    let outcome = match (&journal_path, resumed) {
        (None, _) => run_mixed_fleet(task, screener, domain, &members, &config),
        (Some(path), None) => {
            let header = CampaignHeader::for_campaign(&members, domain, &config, params.encode());
            let mut campaign = DurableCampaign::create(Path::new(path), header, crash)
                .map_err(|e| e.to_string())?;
            run_durable_fleet(task, screener, domain, &members, &config, &mut campaign)
        }
        (Some(_), Some((mut campaign, report))) => {
            if let Some(reason) = &report.torn {
                println!("warning: journal tail truncated: {reason}");
            }
            println!(
                "resumed: {} committed round(s) replayed ({} record(s) kept, {} dropped)",
                report.rounds_replayed, report.records_kept, report.records_dropped
            );
            run_durable_fleet(task, screener, domain, &members, &config, &mut campaign)
        }
    };
    let summary = match outcome {
        Ok(summary) => summary,
        Err(e) if kill_at.is_some() && e.to_string().contains("injected kill point") => {
            // The crash the caller asked for: report where it hit and how
            // to pick the campaign back up, with a distinct exit code so
            // harnesses can tell "killed as requested" from real failures.
            println!("campaign aborted: {e}");
            println!("resume with: ugc fleet --journal <path> --resume");
            std::process::exit(2);
        }
        Err(e) => return Err(e.to_string()),
    };
    print_fleet_summary(&summary, &params, Some(workers));
    if let Some(path) = &journal_path {
        let seal = verify_journal(Path::new(path))
            .map_err(|e| format!("journal failed post-run verification: {e}"))?;
        println!(
            "journal: {path} sealed ({} records, attestation {})",
            seal.records,
            seal.digest_hex()
        );
        if let Some(record) = kill_at {
            return Err(format!(
                "--kill-at {record} never fired: the campaign completed and sealed its \
                 journal at {} records",
                seal.records
            ));
        }
    }
    Ok(())
}

/// `ugc fleet --connect`: the supervisor half of a cross-process
/// campaign, run against a live `ugc broker serve` grid over TCP. Same
/// campaign expansion, same engine, different backend — which is why the
/// printed digest matches the in-process run bit-for-bit.
fn cmd_fleet_connect(addr: &str, params: FleetParams) -> Result<(), String> {
    let plan = CampaignPlan::new(params)?;
    let summary = netgrid::supervise(addr, &plan, |welcome| {
        println!(
            "connected to grid at {addr}: {} remote participant process(es)",
            welcome.peer_count
        );
    })?;
    print_fleet_summary(&summary, plan.params(), None);
    Ok(())
}

/// The end-of-campaign report shared by every fleet path: execution
/// shape (the scheduler pool's size, when the slots ran in this process),
/// transport, per-member verdicts, reassignments, chaos stats,
/// throughput, and the replay digest.
fn print_fleet_summary(summary: &FleetSummary, params: &FleetParams, workers: Option<usize>) {
    let scheme_name = params.scheme.as_str();
    let pool = workers.map_or_else(String::new, |w| format!(" on {w} scheduler workers"));
    println!(
        "fleet of {} participants{pool} over {} inputs via {}: {} accepted, {} rejected",
        params.participants,
        params.n,
        match params.transport {
            TransportKind::Direct => format!("direct links ({scheme_name})"),
            TransportKind::Brokered => format!("the grid broker ({scheme_name})"),
            TransportKind::Remote => format!("the remote grid broker ({scheme_name})"),
        },
        summary.accepted(),
        summary.rejected()
    );
    for member in &summary.members {
        println!(
            "  participant {}: share {} → {}{}",
            member.participant,
            member.share,
            member.outcome.verdict,
            if member.attempts > 1 {
                format!(" ({} attempts)", member.attempts)
            } else {
                String::new()
            }
        );
    }
    for share in summary.shares_to_reassign() {
        println!("  reassign {share}");
    }
    if let Some(plan) = params.chaos() {
        let count =
            |pred: fn(&FaultEvent) -> bool| summary.fault_events.iter().filter(|e| pred(e)).count();
        println!(
            "chaos seed {}: {} faults injected ({} dropped, {} duplicated, \
             {} reordered, {} delayed, {} crashed)",
            plan.seed,
            summary.fault_events.len(),
            count(|e| matches!(e, FaultEvent::Dropped { .. })),
            count(|e| matches!(e, FaultEvent::Duplicated { .. })),
            count(|e| matches!(e, FaultEvent::Reordered { .. })),
            count(|e| matches!(e, FaultEvent::Delayed { .. })),
            count(|e| matches!(e, FaultEvent::Crashed { .. })),
        );
    }
    println!("throughput: {}", summary.throughput);
    println!(
        "password found: {:?}",
        summary.reports.first().map(|r| r.input)
    );
    // The replay digest: everything digest-relevant (verdicts, attempts,
    // ledgers, fault log), wall clock excluded — identical for the same
    // campaign at any worker count, over any transport, with or without
    // a crash and resume.
    println!("digest: {}", summary_digest(summary));
}

/// `ugc broker serve`: bind a listener, assemble the roster (N
/// participant processes plus one supervisor), then relay the campaign
/// until the supervisor closes its side.
fn cmd_broker_serve(mut args: Args<'_>) -> Result<(), String> {
    let listen: String = args.value("--listen", "127.0.0.1:9400".into())?;
    let participants: usize = args.value("--participants", 2)?;
    args.finish()?;
    let server = GridServer::bind(&listen, participants)?;
    println!(
        "broker listening on {} for {participants} participant(s) and a supervisor",
        server.local_addr()?
    );
    let outcome = server.run()?;
    println!(
        "grid relay closed: {} participant process(es) served, {} outward / {} inward message(s)",
        outcome.joined, outcome.relay.outward, outcome.relay.inward
    );
    Ok(())
}

/// `ugc participant join`: connect to a broker, receive the campaign
/// params in the handshake, and serve participant slots until the
/// campaign ends.
fn cmd_participant_join(mut args: Args<'_>) -> Result<(), String> {
    let addr = args
        .positional()
        .ok_or_else(|| "participant join requires the broker address (host:port)".to_string())?
        .to_owned();
    args.finish()?;
    let outcome = netgrid::join(&addr)?;
    println!(
        "participant {} done: {} slot(s) served",
        outcome.peer_index, outcome.slots_served
    );
    Ok(())
}
