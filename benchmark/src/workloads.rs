//! The four campaign workloads: what each one runs, built from a seed.
//!
//! A workload is a roster (task, members, behaviours), the configuration
//! `ugc fleet` would run it with, and one *operation*: a whole campaign
//! through the same public calls the CLI makes. The crates only ever see
//! the generated rosters and parameters, never the seed's meaning.

use std::path::{Path, PathBuf};
use std::time::Duration;
use ugc_core::{
    run_durable_fleet, run_mixed_fleet, summary_digest, CampaignHeader, DurableCampaign,
    FleetScheme, FleetSummary, LaneWidth, MemberSpec, MixedFleetConfig, TransportKind,
    VerificationScheme,
};
use ugc_grid::{CheatSelection, FaultPlan, HonestWorker, SemiHonestCheater, WorkerBehaviour};
use ugc_hash::Sha256;
use ugc_journal::{verify_journal, CrashPlan, Seal};
use ugc_task::workloads::PasswordSearch;
use ugc_task::{Domain, MatchScreener, SplitMix64, ZeroGuesser};
use uncheatable_grid::campaign::{CampaignPlan, FleetParams};
use uncheatable_grid::netgrid;

/// A workload's name, definition and reason for existing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CommitHeavy,
    SessionSwarm,
    ChurnDurable,
    WireLoopback,
}

impl Kind {
    /// Every workload, in the order a whole-benchmark run takes them.
    pub const ALL: [Kind; 4] = [
        Kind::CommitHeavy,
        Kind::SessionSwarm,
        Kind::ChurnDurable,
        Kind::WireLoopback,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::CommitHeavy => "commit_heavy",
            Kind::SessionSwarm => "session_swarm",
            Kind::ChurnDurable => "churn_durable",
            Kind::WireLoopback => "wire_loopback",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Scheduler pool size: `min(nproc, 4)`. Recorded with every result.
#[must_use]
pub fn pool_workers() -> usize {
    nproc().min(4)
}

/// Cores the host offers this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Participant processes (joiner threads) of the wire workload.
pub const WIRE_JOINERS: usize = 2;

/// Independent 64-bit values derived from the workload seed, one per
/// purpose, so no two generated inputs share randomness.
fn derive(seed: u64, purpose: u64) -> u64 {
    SplitMix64::for_stream(seed, purpose).next_u64()
}

/// A mixed-scheme roster the benchmark generates itself: the owner of
/// everything a `MemberSpec` borrows.
pub struct Roster {
    task: PasswordSearch,
    screener: MatchScreener,
    honest: HonestWorker,
    cheater: SemiHonestCheater<ZeroGuesser>,
    schemes: Vec<Box<dyn VerificationScheme<Sha256>>>,
    cheaters: usize,
    domain: Domain,
}

impl Roster {
    /// Cycles `cycle` over members until `slots` participant slots are
    /// filled (a scheme that would overshoot ends the roster), gives each
    /// member `share` inputs, and makes the first `cheaters` members
    /// semi-honest cheaters (r = 0.5, scattered, zero guesses).
    fn generate(
        seed: u64,
        cycle: &[FleetScheme],
        slots: usize,
        share: u64,
        cheaters: usize,
    ) -> Self {
        let mut schemes: Vec<Box<dyn VerificationScheme<Sha256>>> = Vec::new();
        let mut used = 0;
        for kind in cycle.iter().cycle() {
            if used + kind.slots() > slots {
                break;
            }
            used += kind.slots();
            let member = schemes.len() as u64;
            schemes.push(kind.instantiate::<Sha256>(derive(seed, 0x100 + member)));
        }
        let n = schemes.len() as u64 * share;
        let task = PasswordSearch::with_hidden_password(derive(seed, 1), n / 3);
        Roster {
            screener: task.match_screener(),
            task,
            honest: HonestWorker,
            cheater: SemiHonestCheater::new(
                0.5,
                CheatSelection::Scattered,
                ZeroGuesser::new(derive(seed, 2)),
                derive(seed, 3),
            ),
            schemes,
            cheaters,
            domain: Domain::new(0, n),
        }
    }

    fn members(&self) -> Vec<MemberSpec<'_, Sha256>> {
        self.schemes
            .iter()
            .enumerate()
            .map(|(i, scheme)| {
                let behaviour: &dyn WorkerBehaviour = if i < self.cheaters {
                    &self.cheater
                } else {
                    &self.honest
                };
                MemberSpec {
                    scheme: scheme.as_ref(),
                    behaviours: vec![behaviour; scheme.participant_slots()],
                }
            })
            .collect()
    }
}

/// Where a workload's roster comes from: generated here, or expanded by
/// the facade from `FleetParams` exactly as `ugc fleet` does.
enum Source {
    Mixed(Roster),
    Plan(CampaignPlan),
}

/// What every campaign call takes, borrowed from the workload.
pub struct View<'a> {
    pub task: &'a PasswordSearch,
    pub screener: &'a MatchScreener,
    pub domain: Domain,
    pub members: Vec<MemberSpec<'a, Sha256>>,
}

/// One workload, built from a seed and ready to run.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    source: Source,
    /// The in-process configuration at the benchmark's pool size. For the
    /// wire workload this is its in-process brokered twin.
    pub config: MixedFleetConfig,
    journal: PathBuf,
}

/// The churn workload's fault plan: the CLI's chaos preset rates plus
/// heavy crash churn, with injected latency off — at the preset's 500 µs
/// per message the run would measure `thread::sleep`.
#[must_use]
pub fn churn_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed: derive(seed, 4),
        drop_per_1024: 0,
        dup_per_1024: 32,
        reorder_per_1024: 64,
        max_delay_micros: 0,
        crash_per_1024: 300,
    }
}

/// The churn workload's retry budget and hang guard.
pub const CHURN_RETRIES: u32 = 8;
pub const CHURN_DEADLINE: Duration = Duration::from_secs(30);

/// The directory run-time files (journals, traces) go to: `out/` beside
/// this package's manifest, which `.gitignore` names.
#[must_use]
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl Workload {
    /// Builds `kind` from `seed`.
    ///
    /// # Errors
    ///
    /// The facade refusing the generated parameters, or `out/` not being
    /// creatable.
    pub fn build(kind: Kind, seed: u64) -> Result<Workload, String> {
        let workers = Some(pool_workers());
        let base = MixedFleetConfig {
            workers,
            ..Default::default()
        };
        let swarm = || {
            Roster::generate(
                seed,
                &[
                    FleetScheme::Cbs {
                        samples: 6,
                        report_audit: 0,
                    },
                    FleetScheme::NiCbs {
                        samples: 6,
                        g_iterations: 1,
                        report_audit: 0,
                    },
                    FleetScheme::Naive { samples: 6 },
                    FleetScheme::Ringer { ringers: 6 },
                    FleetScheme::DoubleCheck,
                ],
                1000,
                8,
                8,
            )
        };
        let (source, config) = match kind {
            Kind::CommitHeavy => (
                Source::Mixed(Roster::generate(
                    seed,
                    &[
                        FleetScheme::Cbs {
                            samples: 64,
                            report_audit: 0,
                        },
                        FleetScheme::NiCbs {
                            samples: 64,
                            g_iterations: 1,
                            report_audit: 0,
                        },
                    ],
                    8,
                    32_768,
                    0,
                )),
                MixedFleetConfig {
                    transport: TransportKind::Direct,
                    ..base
                },
            ),
            Kind::SessionSwarm => (
                Source::Mixed(swarm()),
                MixedFleetConfig {
                    transport: TransportKind::Brokered,
                    ..base
                },
            ),
            Kind::ChurnDurable => (
                Source::Mixed(swarm()),
                MixedFleetConfig {
                    transport: TransportKind::Brokered,
                    chaos: Some(churn_plan(seed)),
                    retries: CHURN_RETRIES,
                    deadline: Some(CHURN_DEADLINE),
                    ..base
                },
            ),
            Kind::WireLoopback => {
                let params = FleetParams {
                    participants: 512,
                    cheaters: 4,
                    n: 8192,
                    m: 6,
                    seed,
                    scheme: "cbs".into(),
                    transport: TransportKind::Brokered,
                    churn: false,
                    chaos_seed: None,
                };
                let plan = CampaignPlan::new(params)?;
                let config = plan.mixed_config(workers, 0, LaneWidth::default());
                (Source::Plan(plan), config)
            }
        };
        let out = out_dir();
        std::fs::create_dir_all(&out)
            .map_err(|e| format!("cannot create {}: {e}", out.display()))?;
        Ok(Workload {
            kind,
            seed,
            source,
            config,
            journal: out.join(format!(
                "journal-{}-{}.ugcj",
                kind.name(),
                std::process::id()
            )),
        })
    }

    /// The roster and task, as the campaign calls take them.
    #[must_use]
    pub fn view(&self) -> View<'_> {
        match &self.source {
            Source::Mixed(r) => View {
                task: &r.task,
                screener: &r.screener,
                domain: r.domain,
                members: r.members(),
            },
            Source::Plan(p) => View {
                task: p.task(),
                screener: p.screener(),
                domain: p.domain(),
                members: p.members(),
            },
        }
    }

    /// How many members of the roster cheat.
    #[must_use]
    pub fn cheaters(&self) -> u64 {
        match &self.source {
            Source::Mixed(r) => r.cheaters as u64,
            Source::Plan(p) => p.params().cheaters,
        }
    }

    /// The wire workload's campaign parameters (`None` for the others).
    #[must_use]
    pub fn params(&self) -> Option<&FleetParams> {
        match &self.source {
            Source::Mixed(_) => None,
            Source::Plan(p) => Some(p.params()),
        }
    }

    /// `self.config` on a different execution layout: one worker and the
    /// far end of the steal-seed range. Digests must not notice.
    #[must_use]
    pub fn reference_config(&self) -> MixedFleetConfig {
        MixedFleetConfig {
            workers: Some(1),
            steal_seed: u64::MAX,
            ..self.config
        }
    }

    /// One unjournaled in-process campaign under `config`.
    ///
    /// # Errors
    ///
    /// The campaign's error, as text.
    pub fn run_in_process(&self, config: &MixedFleetConfig) -> Result<FleetSummary, String> {
        let v = self.view();
        run_mixed_fleet(v.task, v.screener, v.domain, &v.members, config).map_err(|e| e.to_string())
    }

    /// One journaled in-process campaign under `config`: create, run,
    /// verify the sealed journal. `crash` arms a kill point.
    ///
    /// # Errors
    ///
    /// The campaign's or the journal's error, as text.
    pub fn run_journaled(
        &self,
        config: &MixedFleetConfig,
        crash: CrashPlan,
    ) -> Result<(FleetSummary, Seal), String> {
        let v = self.view();
        let header = CampaignHeader::for_campaign(&v.members, v.domain, config, Vec::new());
        let mut campaign =
            DurableCampaign::create(&self.journal, header, crash).map_err(|e| e.to_string())?;
        let summary = run_durable_fleet(
            v.task,
            v.screener,
            v.domain,
            &v.members,
            config,
            &mut campaign,
        )
        .map_err(|e| e.to_string())?;
        drop(campaign);
        let seal = verify_journal(&self.journal)
            .map_err(|e| format!("journal failed post-run verification: {e}"))?;
        Ok((summary, seal))
    }

    /// Where this workload's journaled campaigns write.
    #[must_use]
    pub fn journal_path(&self) -> &Path {
        &self.journal
    }

    /// The workload's operation: one whole campaign, end to end.
    ///
    /// # Errors
    ///
    /// Any phase of the campaign failing.
    pub fn operation(&self) -> Result<FleetSummary, String> {
        match (self.kind, self.params()) {
            (Kind::WireLoopback, Some(params)) => {
                netgrid::run_remote_campaign(params, WIRE_JOINERS)
            }
            (Kind::ChurnDurable, _) => self
                .run_journaled(&self.config, CrashPlan::never())
                .map(|(summary, _seal)| summary),
            _ => self.run_in_process(&self.config),
        }
    }

    /// The digest every operation must reproduce, computed on a different
    /// execution layout than the measured one (for the wire workload: the
    /// in-process brokered run of the same parameters).
    ///
    /// # Errors
    ///
    /// The reference campaign failing.
    pub fn reference_digest(&self) -> Result<String, String> {
        self.run_in_process(&self.reference_config())
            .map(|summary| summary_digest(&summary))
    }

    /// Removes the journal file, if one was written.
    pub fn clean_up(&self) {
        let _ = std::fs::remove_file(&self.journal);
    }
}

/// What a passing campaign contributes to the count-type metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub sessions: u64,
    pub attempts: u64,
    pub wire_bytes: u64,
    pub messages: u64,
    pub supervisor_ops: u64,
    pub participant_ops: u64,
    pub participant_hash_ops: u64,
    pub participant_f_evals: u64,
    pub rejected: u64,
    pub fault_events: u64,
}

impl Counts {
    /// Adds another campaign's counts to a running total.
    pub fn add(&mut self, other: &Counts) {
        self.sessions += other.sessions;
        self.attempts += other.attempts;
        self.wire_bytes += other.wire_bytes;
        self.messages += other.messages;
        self.supervisor_ops += other.supervisor_ops;
        self.participant_ops += other.participant_ops;
        self.participant_hash_ops += other.participant_hash_ops;
        self.participant_f_evals += other.participant_f_evals;
        self.rejected += other.rejected;
        self.fault_events += other.fault_events;
    }

    /// Reads the counts off a campaign summary. They are functions of the
    /// seed alone: `summary_digest` covers every field used here.
    #[must_use]
    pub fn of(summary: &FleetSummary) -> Counts {
        let mut c = Counts {
            sessions: summary.members.len() as u64,
            fault_events: summary.fault_events.len() as u64,
            ..Counts::default()
        };
        for m in &summary.members {
            let (sup, part, link) = (
                m.outcome.supervisor_costs,
                m.outcome.participant_costs,
                m.outcome.supervisor_link,
            );
            c.attempts += u64::from(m.attempts);
            c.wire_bytes += link.bytes_sent + link.bytes_received;
            c.messages += link.messages_sent + link.messages_received;
            c.supervisor_ops += sup.f_evals + sup.hash_ops + sup.g_evals + sup.verify_ops;
            c.participant_ops += part.f_evals + part.hash_ops + part.g_evals;
            c.participant_hash_ops += part.hash_ops;
            c.participant_f_evals += part.f_evals;
            c.rejected += u64::from(!m.outcome.accepted);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swarm_roster_fills_a_thousand_slots_with_834_members() {
        let w = Workload::build(Kind::SessionSwarm, 11).unwrap();
        let v = w.view();
        assert_eq!(v.members.len(), 834);
        let slots: usize = v.members.iter().map(|m| m.behaviours.len()).sum();
        assert_eq!(slots, 1000);
        assert_eq!(v.domain.len(), 834 * 8);
    }

    #[test]
    fn same_seed_same_roster_and_digest_other_seed_other_digest() {
        let digest = |seed| {
            let w = Workload::build(Kind::SessionSwarm, seed).unwrap();
            (w.view().members.len(), w.reference_digest().unwrap())
        };
        assert_eq!(digest(11), digest(11));
        assert_ne!(digest(11).1, digest(12).1);
    }
}
