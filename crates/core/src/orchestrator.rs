//! Fleet orchestration: verify many participants over a partitioned domain.
//!
//! The paper's model (Section 2.1) has the supervisor partition `X` into
//! per-participant sub-domains. This module runs one verification round
//! against every participant and aggregates verdicts, screened reports and
//! costs into a fleet-level summary. It is the entry point a downstream
//! project (a SETI@home, a screening grid) would actually call.
//!
//! Every round runs the same way. The orchestrator numbers the round's
//! participant slots with one counter across its roster — slot `k` is
//! task `k`, its only address — and registers one
//! [`VerificationScheme`](crate::session::VerificationScheme) supervisor
//! session per member with a [`SessionEngine`]. It hands the engine, and a
//! constructor for the participant half of any slot, to the
//! [`TransportBackend`], which alone decides where each slot runs: in
//! this process beside the engine, over per-participant links
//! ([`TransportKind::Direct`]) or one shared link into a relaying
//! [`Broker`](ugc_grid::Broker) ([`TransportKind::Brokered`]), or in
//! other processes behind a TCP relay ([`TransportKind::Remote`]).
//! Verdicts, byte counts, cost ledgers and the fault log are a function
//! of the campaign's seeds alone: identical over every transport class,
//! at any pool size and steal seed, and pinned by the golden digests in
//! `tests/scheduler_equivalence.rs`.
//!
//! A campaign is a loop of such rounds over one `CampaignState`: each
//! round runs the members still pending, and returns a `RoundRecord` —
//! its sessions' results, each member's costs and participant results,
//! its fault events. `CampaignState::apply` is the one place a settled
//! round changes the campaign, and a journal replay calls it too, so a
//! resumed campaign continues from exactly the state the live loop had
//! reached. A durable campaign journals the roster before the round
//! runs and the record after it, before applying it.

use crate::backend::{InProcessBackend, RoundResult, RoundSpec, TransportBackend, TransportKind};
use crate::engine::{SessionEngine, SessionResult};
use crate::journal::{summary_digest, CampaignHeader, DurableCampaign};
use crate::scheme::cbs::CbsScheme;
use crate::scheme::double_check::DoubleCheckScheme;
use crate::scheme::naive::NaiveScheme;
use crate::scheme::ni_cbs::NiCbsScheme;
use crate::scheme::ringer::RingerScheme;
use crate::session::{ParticipantContext, SupervisorContext, VerificationScheme};
use crate::{ParticipantStorage, RoundOutcome, SchemeError};
use std::time::{Duration, Instant};
use ugc_grid::runtime::{FaultEvent, FaultPlan};
use ugc_grid::{CostLedger, CostReport, GridError, Throughput, WorkerBehaviour};
use ugc_hash::HashFunction;
use ugc_merkle::{LaneWidth, Parallelism};
use ugc_task::{ComputeTask, Domain, ScreenReport, Screener};

/// Which verification scheme a fleet round (or one member of a mixed
/// campaign) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetScheme {
    /// Interactive CBS (Section 3).
    Cbs {
        /// Samples per participant.
        samples: usize,
        /// Report-audit size (0 disables).
        report_audit: usize,
    },
    /// Non-interactive CBS (Section 4).
    NiCbs {
        /// Samples per participant.
        samples: usize,
        /// Hardness `k` of the sample generator `g = H^k`.
        g_iterations: u64,
        /// Report-audit size (0 disables).
        report_audit: usize,
    },
    /// Naive sampling (Section 1): flat upload, spot-check `m` samples.
    Naive {
        /// Samples per participant.
        samples: usize,
    },
    /// The Golle–Mironov ringer baseline (Section 1.1); requires a
    /// one-way `f`.
    Ringer {
        /// Ringers planted per participant.
        ringers: usize,
    },
    /// The double-check baseline (module table, row 1): assign the share
    /// twice and compare — two participant slots per member.
    DoubleCheck,
}

impl FleetScheme {
    /// Builds the member's scheme object with its derived seed — the
    /// bridge from a declarative fleet configuration to a
    /// [`MemberSpec`]-based mixed campaign.
    #[must_use]
    pub fn instantiate<H: HashFunction>(self, seed: u64) -> Box<dyn VerificationScheme<H>> {
        match self {
            FleetScheme::Cbs {
                samples,
                report_audit,
            } => Box::new(CbsScheme {
                samples,
                seed,
                report_audit,
            }),
            FleetScheme::NiCbs {
                samples,
                g_iterations,
                report_audit,
            } => Box::new(NiCbsScheme {
                samples,
                g_iterations,
                report_audit,
                audit_seed: seed,
            }),
            FleetScheme::Naive { samples } => Box::new(NaiveScheme { samples, seed }),
            FleetScheme::Ringer { ringers } => Box::new(RingerScheme { ringers, seed }),
            FleetScheme::DoubleCheck => Box::new(DoubleCheckScheme),
        }
    }

    /// One scheme object per member of a `members`-strong fleet, member
    /// `i` seeded `seed·0x9e37_79b9_7f4a_7c15 + i` — the one place a
    /// campaign's base seed becomes member seeds, whoever expands it (the
    /// supervisor, a join process, [`run_campaign`]).
    #[must_use]
    pub fn instantiate_fleet<H: HashFunction>(
        self,
        seed: u64,
        members: usize,
    ) -> Vec<Box<dyn VerificationScheme<H>>> {
        let base = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (0u64..)
            .take(members)
            .map(|i| self.instantiate(base.wrapping_add(i)))
            .collect()
    }

    /// How many participant slots one member of this scheme fills.
    #[must_use]
    pub fn slots(self) -> usize {
        match self {
            FleetScheme::DoubleCheck => 2,
            _ => 1,
        }
    }
}

/// One participant's slice of the fleet round.
#[derive(Debug, Clone)]
pub struct FleetMember {
    /// Index of the participant within the fleet.
    pub participant: usize,
    /// The sub-domain it was assigned.
    pub share: Domain,
    /// The full outcome of its verification round.
    pub outcome: RoundOutcome,
    /// How many session attempts this member took (1 unless chaos failed
    /// earlier attempts and the session was reassigned).
    pub attempts: u32,
}

/// Aggregated result of a fleet round.
#[derive(Debug, Clone)]
pub struct FleetSummary {
    /// Per-participant outcomes, in assignment order.
    pub members: Vec<FleetMember>,
    /// Screened reports from *accepted* participants only, in input order.
    pub reports: Vec<ScreenReport>,
    /// Wall-clock throughput of the whole run. `sessions` counts every
    /// attempt (including retried ones); `bytes` counts only attempts
    /// that settled successfully, so it replays bit-identically (see
    /// [`Throughput::bytes`]).
    pub throughput: Throughput,
    /// Every fault injected by the configured [`FaultPlan`], sorted —
    /// identical across replays of the same seed.
    pub fault_events: Vec<FaultEvent>,
}

impl FleetSummary {
    /// Participants whose work was accepted.
    #[must_use]
    pub fn accepted(&self) -> usize {
        self.members.iter().filter(|m| m.outcome.accepted).count()
    }

    /// Participants caught cheating (or otherwise rejected).
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.members.len() - self.accepted()
    }

    /// The sub-domains that must be reassigned (their results cannot be
    /// trusted).
    #[must_use]
    pub fn shares_to_reassign(&self) -> Vec<Domain> {
        self.members
            .iter()
            .filter(|m| !m.outcome.accepted)
            .map(|m| m.share)
            .collect()
    }
}

/// Configuration of a mixed-scheme fleet round (see [`run_mixed_fleet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixedFleetConfig {
    /// Participant tree storage mode (CBS/NI-CBS members).
    pub storage: ParticipantStorage,
    /// Per-participant tree-build parallelism. Execution-only, like
    /// `lanes`: its default follows the host's core count, and no ledger,
    /// report or digest depends on it.
    pub parallelism: Parallelism,
    /// Per-participant message-parallel digest lane width. Execution-only:
    /// digests, verdicts and ledgers are bit-identical at any setting, so
    /// it is excluded from the durable campaign parameter blob.
    pub lanes: LaneWidth,
    /// Transport the engine multiplexes the sessions over.
    pub transport: TransportKind,
    /// Seeded fault injection on every participant link (`None` runs
    /// clean). The whole campaign — faults, failures, reassignments,
    /// verdicts — replays bit-identically from the plan's seed.
    pub chaos: Option<FaultPlan>,
    /// Per-session inactivity deadline: a session whose peer goes silent
    /// this long fails with [`SchemeError::TimedOut`] instead of hanging
    /// the engine. Required when the chaos plan drops messages.
    pub deadline: Option<Duration>,
    /// How many times a *failed* (errored, not rejected) session is
    /// reassigned to a fresh participant before its error propagates.
    /// Cheating verdicts are never retried.
    pub retries: u32,
    /// Size of the scheduler pool that runs the participant slots hosted
    /// in this process: `Some(w)` is `w` OS threads, `None` one per
    /// available core. Execution-only — verdicts, ledgers and the fault
    /// log are bit-identical at any setting
    /// (`tests/scheduler_equivalence.rs`).
    pub workers: Option<usize>,
    /// Seed for the scheduler's work-stealing victim order.
    /// Scheduling-only: any seed produces identical verdicts, fault logs
    /// and byte counts — the knob exists so tests can *prove* that
    /// invariant, not to tune throughput.
    pub steal_seed: u64,
}

impl Default for MixedFleetConfig {
    fn default() -> Self {
        MixedFleetConfig {
            storage: ParticipantStorage::Full,
            parallelism: Parallelism::default(),
            lanes: LaneWidth::default(),
            transport: TransportKind::Direct,
            chaos: None,
            deadline: None,
            retries: 0,
            workers: None,
            steal_seed: 0,
        }
    }
}

/// One member of a mixed-scheme fleet: a scheme and the behaviours filling
/// its participant slots (one for every scheme but double-check's two).
pub struct MemberSpec<'a, H: HashFunction> {
    /// The verification scheme this member runs (already seeded).
    pub scheme: &'a dyn VerificationScheme<H>,
    /// One behaviour per participant slot.
    pub behaviours: Vec<&'a dyn WorkerBehaviour>,
}

/// Runs one verification round for an arbitrary mix of schemes and
/// behaviours — the full generality of the session engine: every member
/// gets its own share of `domain`, its own (already seeded) scheme and its
/// own behaviour(s), and all sessions interleave over the in-process
/// transport `config.transport` names, be it per-participant links or a
/// relaying broker. [`run_fleet_on`] with an [`InProcessBackend`] and no
/// journal.
///
/// # Errors
///
/// As [`run_fleet_on`].
pub fn run_mixed_fleet<H, T, S>(
    task: &T,
    screener: &S,
    domain: Domain,
    members: &[MemberSpec<'_, H>],
    config: &MixedFleetConfig,
) -> Result<FleetSummary, SchemeError>
where
    H: HashFunction,
    T: ComputeTask,
    S: Screener,
{
    let mut backend = InProcessBackend::new(config.transport);
    run_fleet_on(task, screener, domain, members, config, &mut backend, None)
}

/// [`run_mixed_fleet`] with a write-ahead journal: [`run_fleet_on`] with
/// an [`InProcessBackend`] and `campaign` as its journal.
///
/// # Errors
///
/// As [`run_fleet_on`].
pub fn run_durable_fleet<H, T, S>(
    task: &T,
    screener: &S,
    domain: Domain,
    members: &[MemberSpec<'_, H>],
    config: &MixedFleetConfig,
    campaign: &mut DurableCampaign,
) -> Result<FleetSummary, SchemeError>
where
    H: HashFunction,
    T: ComputeTask,
    S: Screener,
{
    let mut backend = InProcessBackend::new(config.transport);
    run_fleet_on(
        task,
        screener,
        domain,
        members,
        config,
        &mut backend,
        Some(campaign),
    )
}

/// Runs a campaign over an explicit [`TransportBackend`] — the one entry
/// point every fleet runs through, and how a campaign runs across OS
/// processes: connect a [`RemoteGridBackend`](crate::RemoteGridBackend) to
/// a `ugc broker serve` relay and pass it here. The round loop, verdicts,
/// ledgers and summary digest are the same code and the same bits
/// whatever the backend.
///
/// Participant slots the backend hosts in this process run on a
/// scheduler pool sized by [`MixedFleetConfig::workers`]. With
/// [`MixedFleetConfig::chaos`] set, each link is decorated with the
/// seeded fault plan; sessions that fail under chaos (crashes, timeouts,
/// scrambled protocol) are *reassigned* — rerun on fresh participants
/// with fresh fault schedules — up to [`MixedFleetConfig::retries`]
/// times. The entire campaign, fault log included, replays bit-identically
/// from the plan's seed — at any worker count.
///
/// With `durable` set, every state transition is journaled through the
/// campaign *before* the orchestrator acts on it, so a killed process
/// resumes from the journal — replaying committed rounds instead of
/// re-running them — and finishes with verdicts, attempts, cost ledgers,
/// fault log and summary digest bit-identical to a never-killed run. The
/// campaign comes from [`DurableCampaign::create`] (fresh) or
/// [`DurableCampaign::resume`] (picking up a kill), and its header must
/// describe exactly this call: same fleet shape, domain and
/// digest-relevant config. Because the header stores the transport's
/// *digest class* (see [`CampaignHeader`]), a campaign journaled against
/// the in-process broker may resume over a remote grid — and vice versa —
/// while a direct-transport journal refuses both. A campaign resumed from
/// a *sealed* journal re-derives its summary without writing anything.
///
/// # Errors
///
/// The first member's supervisor error still standing after all retries
/// (cheating is a rejected member, not an error) — or, when that is only
/// the hang-up of a participant that failed first and no chaos plan is
/// injecting hang-ups, the participant's error, which is the cause;
/// participant errors otherwise surface only once every supervisor session
/// succeeded; [`SchemeError::InvalidConfig`] for
/// an empty fleet, an unsplittable domain, a behaviour count not matching
/// a scheme's slots, a `config.transport` that disagrees with
/// `backend.kind()`, or a backend that cannot serve the configuration (a
/// remote backend given a chaos plan or a multi-round retry budget it
/// ends up needing); and [`SchemeError::Journal`] when the header does
/// not match this call or the journal fails mid-campaign (I/O, or an
/// armed [`CrashPlan`](ugc_journal::CrashPlan) kill point).
pub fn run_fleet_on<H, T, S>(
    task: &T,
    screener: &S,
    domain: Domain,
    members: &[MemberSpec<'_, H>],
    config: &MixedFleetConfig,
    backend: &mut dyn TransportBackend,
    mut durable: Option<&mut DurableCampaign>,
) -> Result<FleetSummary, SchemeError>
where
    H: HashFunction,
    T: ComputeTask,
    S: Screener,
{
    if let Some(campaign) = &durable {
        let expected =
            CampaignHeader::for_campaign(members, domain, config, campaign.header().app.clone());
        if &expected != campaign.header() {
            return Err(SchemeError::Journal {
                reason: format!(
                    "journal header does not describe this campaign \
                     (journaled {:?}, called with {:?})",
                    campaign.header(),
                    expected
                ),
            });
        }
    }
    if config.transport != backend.kind() {
        return Err(SchemeError::InvalidConfig {
            reason: "config.transport disagrees with the connected backend",
        });
    }
    if members.is_empty() {
        return Err(SchemeError::InvalidConfig {
            reason: "fleet must contain at least one participant",
        });
    }
    for member in members {
        if member.behaviours.len() != member.scheme.participant_slots() {
            return Err(SchemeError::InvalidConfig {
                reason: "behaviour count must match the scheme's participant slots",
            });
        }
    }
    let shares: Vec<Domain> = domain
        .split(members.len() as u64)
        .map_err(|_| SchemeError::InvalidConfig {
            reason: "domain cannot be partitioned over the fleet",
        })?
        .into_iter()
        .collect();
    if shares.len() != members.len() {
        return Err(SchemeError::InvalidConfig {
            reason: "more participants than domain inputs",
        });
    }

    // ugc-lint: allow(wall-clock): reporting-only — feeds the Throughput summary, never a verdict or schedule
    let started = Instant::now();
    // A resumed campaign starts where the journal's last committed round
    // left the dead supervisor.
    let mut state = durable
        .as_deref_mut()
        .and_then(DurableCampaign::take_state)
        .unwrap_or_else(|| CampaignState::new(members.len()));
    while let Some(round) = state.next_round.filter(|&r| r <= config.retries) {
        let roster = state.pending();
        if roster.is_empty() {
            break;
        }
        // Journal-before-effect: the round's roster is durable before any
        // of its state transitions happen, so a crash mid-round resumes
        // from the previous round boundary, never a half-applied one.
        if let Some(campaign) = durable.as_deref_mut() {
            campaign.round_start(round, &roster)?;
        }
        let record = run_fleet_round(
            task, screener, members, &shares, config, round, roster, backend,
        )?;
        if let Some(campaign) = durable.as_deref_mut() {
            campaign.commit(&record)?;
        }
        state.apply(record);
    }
    let CampaignState {
        attempts,
        finals,
        part_results,
        sup_costs,
        part_costs,
        mut fault_events,
        total_sessions,
        total_bytes,
        ..
    } = state;
    // Rounds arrive sorted individually; a retried campaign needs one
    // global pass to honour the "sorted" contract on the aggregate.
    fault_events.sort_unstable();

    let hung_up = SchemeError::Grid(GridError::Disconnected);
    let mut outcomes = Vec::with_capacity(members.len());
    for (i, result) in finals.into_iter().enumerate() {
        let result = result.expect("every member ran at least one attempt");
        // The cause, not its echo: a participant that failed hung up, and
        // all its supervisor then saw was the closed link. (Under chaos a
        // hang-up is an injected fault, and the record stays as it fell.)
        let outcome = result.outcome.map_err(|error| {
            let cause = part_results[i]
                .iter()
                .filter_map(|r| r.as_ref().err())
                .find(|e| **e != hung_up);
            match cause {
                Some(cause) if config.chaos.is_none() && error == hung_up => cause.clone(),
                _ => error,
            }
        })?;
        outcomes.push(RoundOutcome::new(
            outcome.verdict,
            sup_costs[i],
            part_costs[i],
            result.link,
            outcome.reports,
        ));
    }
    // Participant-side protocol errors otherwise surface only if every
    // supervisor session succeeded. Under chaos the injected crashes *are*
    // participant errors, so there they are part of the record (the fault
    // log), not failures.
    if config.chaos.is_none() {
        for result in part_results.iter().flatten() {
            let _ = result.clone()?;
        }
    }

    let throughput = Throughput {
        wall: started.elapsed(),
        sessions: total_sessions,
        bytes: total_bytes,
    };
    let members: Vec<FleetMember> = outcomes
        .into_iter()
        .zip(shares)
        .enumerate()
        .map(|(i, (outcome, share))| FleetMember {
            participant: i,
            share,
            outcome,
            attempts: attempts[i],
        })
        .collect();
    let mut reports: Vec<ScreenReport> = members
        .iter()
        .filter(|m| m.outcome.accepted)
        .flat_map(|m| m.outcome.reports.iter().cloned())
        .collect();
    reports.sort_by_key(|r| r.input);
    let summary = FleetSummary {
        members,
        reports,
        throughput,
        fault_events,
    };
    if let Some(campaign) = durable {
        // The attestation: journal the digest the campaign is about to
        // report, then seal the record chain under it.
        campaign.finish(&summary_digest(&summary))?;
    }
    Ok(summary)
}

/// Where a campaign stands between rounds: everything the round loop
/// carries from one round to the next, and everything a journal replay
/// rebuilds. A settled round changes it in one place,
/// [`apply`](Self::apply) — whether the round just ran or was read back
/// from a journal — so a resumed campaign is the live one, not a copy of
/// it.
#[derive(Debug)]
pub(crate) struct CampaignState {
    /// Session attempts per member.
    attempts: Vec<u32>,
    /// Each member's latest session result (`None` before its first).
    finals: Vec<Option<SessionResult>>,
    /// Each member's participant-slot results from its latest round.
    part_results: Vec<Vec<Result<bool, SchemeError>>>,
    /// Supervisor costs per member, summed over its attempts: a
    /// reassigned member honestly carries the work its failed attempts
    /// burned.
    sup_costs: Vec<CostReport>,
    /// Participant costs per member, summed likewise.
    part_costs: Vec<CostReport>,
    /// Every round's fault events, each round's sorted.
    fault_events: Vec<FaultEvent>,
    /// Sessions run, counting every attempt.
    total_sessions: u64,
    /// Supervisor-side bytes of the attempts that settled successfully.
    total_bytes: u64,
    /// The number of the next round (`None` past `u32::MAX`).
    pub(crate) next_round: Option<u32>,
}

impl CampaignState {
    /// A campaign of `members` members before its first round.
    pub(crate) fn new(members: usize) -> Self {
        CampaignState {
            attempts: vec![0; members],
            finals: (0..members).map(|_| None).collect(),
            part_results: vec![Vec::new(); members],
            sup_costs: vec![CostReport::default(); members],
            part_costs: vec![CostReport::default(); members],
            fault_events: Vec::new(),
            total_sessions: 0,
            total_bytes: 0,
            next_round: Some(0),
        }
    }

    /// The members the next round runs: every one without a successful
    /// session yet, in member order.
    pub(crate) fn pending(&self) -> Vec<usize> {
        (0..self.finals.len())
            .filter(|&i| {
                self.finals[i]
                    .as_ref()
                    .map_or(true, |session| session.outcome.is_err())
            })
            .collect()
    }

    /// Commits one settled round: its roster's attempts, latest results
    /// and costs, and its fault events.
    pub(crate) fn apply(&mut self, record: RoundRecord) {
        self.total_sessions += record.roster.len() as u64;
        let entries = record.roster.iter().zip(record.sessions).zip(record.books);
        for ((&member, session), books) in entries {
            self.attempts[member] += 1;
            // Only settled (successful) attempts count toward the byte
            // total. A failed attempt's traffic is cut off mid-protocol by
            // its death: how many in-flight messages the supervisor
            // managed to charge before the broker's Gone NACK reached it
            // is a pump-timing race, not a function of the seed — most
            // visibly for double-check members, where the NACK for one
            // participant races mail still in flight from its live
            // sibling. Excluding failed attempts keeps `bytes` a replay
            // digest; `sessions` still counts every attempt.
            if session.outcome.is_ok() {
                let bytes = session
                    .link
                    .bytes_sent
                    .saturating_add(session.link.bytes_received);
                self.total_bytes = self.total_bytes.saturating_add(bytes);
            }
            self.finals[member] = Some(session);
            self.sup_costs[member] = self.sup_costs[member].combined(books.sup_costs);
            self.part_costs[member] = self.part_costs[member].combined(books.part_costs);
            self.part_results[member] = books.part_results;
        }
        self.fault_events.extend(record.events);
        self.next_round = record.round.checked_add(1);
    }
}

/// One settled round: what running a round returns, what the journal
/// holds between the round's `RoundStart` and `RoundEnd` records, and
/// what [`CampaignState::apply`] takes.
pub(crate) struct RoundRecord {
    /// The round's number (0 = the initial attempt).
    pub(crate) round: u32,
    /// The members that ran, in session registration order.
    pub(crate) roster: Vec<usize>,
    /// One session result per roster entry.
    pub(crate) sessions: Vec<SessionResult>,
    /// One member's books per roster entry.
    pub(crate) books: Vec<MemberBooks>,
    /// Faults injected during the round, sorted.
    pub(crate) events: Vec<FaultEvent>,
}

/// One member's books for one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MemberBooks {
    /// What its supervisor session charged.
    pub(crate) sup_costs: CostReport,
    /// What its participant slots charged, summed.
    pub(crate) part_costs: CostReport,
    /// How each of its participant slots ended, in slot order.
    pub(crate) part_results: Vec<Result<bool, SchemeError>>,
}

/// Runs round `round` for `roster` (a subset of the fleet, on
/// reassignment rounds): registers one supervisor session per entry —
/// global slot `k` of the round is task `k` — and has the backend run
/// the engine against the round's participant slots, wherever it puts
/// them.
///
/// Every ledger is fresh, so a round's costs are what its ledgers read
/// at the end; every participant slot reports the same way, as one
/// [`SlotReport`](crate::SlotReport) per slot.
#[allow(clippy::too_many_arguments)] // private plumbing under run_fleet_on
fn run_fleet_round<H, T, S>(
    task: &T,
    screener: &S,
    members: &[MemberSpec<'_, H>],
    shares: &[Domain],
    config: &MixedFleetConfig,
    round: u32,
    roster: Vec<usize>,
    backend: &mut dyn TransportBackend,
) -> Result<RoundRecord, SchemeError>
where
    H: HashFunction,
    T: ComputeTask,
    S: Screener,
{
    let mut engine = SessionEngine::new();
    if let Some(deadline) = config.deadline {
        engine = engine.with_deadline(deadline);
    }
    // Global slot order (the broker hands assignment k to participant k,
    // so order is load-bearing for the relayed transports): each global
    // slot's roster index and its slot within the member. Task ids count
    // the same slots, so single-slot member `i` of a full-fleet round
    // keeps task id `i`.
    let slot_table: Vec<(usize, usize)> = roster
        .iter()
        .enumerate()
        .flat_map(|(r, &i)| (0..members[i].behaviours.len()).map(move |s| (r, s)))
        .collect();
    let sup_ledgers: Vec<CostLedger> = roster.iter().map(|_| CostLedger::new()).collect();
    let mut task_ids = 0u64..;
    for (&i, ledger) in roster.iter().zip(&sup_ledgers) {
        let member_task_ids: Vec<u64> = task_ids
            .by_ref()
            .take(members[i].behaviours.len())
            .collect();
        let session = members[i].scheme.supervisor_session(SupervisorContext {
            task,
            screener,
            domain: shares[i],
            task_ids: member_task_ids.clone(),
            ledger: ledger.clone(),
        });
        engine.add_session(session, member_task_ids)?;
    }

    // The participant half of global slot `k`, for a backend that runs
    // it in this process.
    let slot = |k: u64, ledger: CostLedger| {
        let (r, s) =
            slot_table[usize::try_from(k).expect("the backend asks for a slot of this round")];
        let member = &members[roster[r]];
        member.scheme.participant_session(ParticipantContext {
            task,
            screener,
            behaviour: member.behaviours[s],
            storage: config.storage,
            parallelism: config.parallelism,
            lanes: config.lanes,
            ledger,
        })
    };
    let RoundResult {
        sessions,
        reports,
        events,
    } = backend.run_round(
        &RoundSpec {
            round,
            slots: slot_table.len(),
            chaos: config.chaos,
            workers: config.workers,
            steal_seed: config.steal_seed,
        },
        engine,
        &slot,
    )?;

    let mut books: Vec<MemberBooks> = sup_ledgers
        .iter()
        .map(|ledger| MemberBooks {
            sup_costs: ledger.report(),
            part_costs: CostReport::default(),
            part_results: Vec::new(),
        })
        .collect();
    for (report, &(r, _)) in reports.into_iter().zip(&slot_table) {
        books[r].part_costs = books[r].part_costs.combined(report.costs);
        books[r].part_results.push(report.outcome);
    }
    Ok(RoundRecord {
        round,
        roster,
        sessions,
        books,
        events,
    })
}

/// One round of `scheme` for everyone: each of `workers` on its own share
/// of `domain`, member seeds derived from `seed`
/// ([`FleetScheme::instantiate_fleet`]).
fn run_uniform_fleet<H, T, S>(
    task: &T,
    screener: &S,
    domain: Domain,
    workers: &[&dyn WorkerBehaviour],
    scheme: FleetScheme,
    seed: u64,
    config: &MixedFleetConfig,
) -> Result<FleetSummary, SchemeError>
where
    H: HashFunction,
    T: ComputeTask,
    S: Screener,
{
    let schemes = scheme.instantiate_fleet::<H>(seed, workers.len());
    let members: Vec<MemberSpec<'_, H>> = schemes
        .iter()
        .zip(workers)
        .map(|(member, &worker)| MemberSpec {
            scheme: member.as_ref(),
            behaviours: vec![worker; scheme.slots()],
        })
        .collect();
    run_mixed_fleet(task, screener, domain, &members, config)
}

/// Outcome of a multi-round campaign (see [`run_campaign`]).
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// One fleet summary per verification round, in order.
    pub rounds: Vec<FleetSummary>,
    /// All screened reports from accepted work across rounds, deduplicated
    /// and sorted by input.
    pub reports: Vec<ScreenReport>,
    /// Whether every sub-domain ended up verified within the round budget.
    pub complete: bool,
}

impl CampaignSummary {
    /// Total `f` evaluations burned across all participants and rounds —
    /// the "wasted cycles" metric that makes cheating expensive for the
    /// *grid*, not just risky for the cheater.
    #[must_use]
    pub fn total_participant_f_evals(&self) -> u64 {
        self.rounds
            .iter()
            .flat_map(|r| &r.members)
            .map(|m| m.outcome.participant_costs.f_evals)
            .sum()
    }
}

/// Runs a verification campaign to completion: round 1 verifies every
/// behaviour in `fleet` on its own share of `domain` (shares differ in
/// size by at most one input) under `scheme`, member seeds derived from
/// `seed` ([`FleetScheme::instantiate_fleet`]); every share rejected in a
/// round is reassigned — to the *trusted* pool (`fallback`) — in the next
/// round, until everything is verified or `max_rounds` is exhausted.
/// Each round is one [`run_mixed_fleet`] under `config`.
///
/// This is the operational loop the paper implies: detection is only
/// useful because the supervisor can discard and re-run tainted shares.
///
/// # Errors
///
/// Propagates protocol errors; also rejects an empty fleet (via
/// [`run_mixed_fleet`]) or `max_rounds == 0`.
#[allow(clippy::too_many_arguments)] // the fleet call plus what a campaign adds to it
pub fn run_campaign<H, T, S, B, F>(
    task: &T,
    screener: &S,
    domain: Domain,
    fleet: &[B],
    fallback: &F,
    scheme: FleetScheme,
    seed: u64,
    config: &MixedFleetConfig,
    max_rounds: usize,
) -> Result<CampaignSummary, SchemeError>
where
    H: HashFunction,
    T: ComputeTask,
    S: Screener,
    B: WorkerBehaviour,
    F: WorkerBehaviour,
{
    if max_rounds == 0 {
        return Err(SchemeError::InvalidConfig {
            reason: "campaign needs at least one round",
        });
    }
    let mut rounds = Vec::new();
    let mut reports: Vec<ScreenReport> = Vec::new();

    // Round 1: the whole fleet over the whole domain.
    let workers: Vec<&dyn WorkerBehaviour> =
        fleet.iter().map(|b| b as &dyn WorkerBehaviour).collect();
    let first =
        run_uniform_fleet::<H, T, S>(task, screener, domain, &workers, scheme, seed, config)?;
    let mut pending = first.shares_to_reassign();
    reports.extend(first.reports.iter().cloned());
    rounds.push(first);

    // Later rounds: tainted shares go to the fallback worker, one share
    // per fleet slot (re-splitting is unnecessary — shares are already
    // participant-sized).
    let mut round = 1;
    while !pending.is_empty() && round < max_rounds {
        round += 1;
        let reseed = seed
            .wrapping_add(round as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut next_pending = Vec::new();
        for share in pending {
            let summary = run_uniform_fleet::<H, T, S>(
                task,
                screener,
                share,
                &[fallback],
                scheme,
                reseed,
                config,
            )?;
            reports.extend(summary.reports.iter().cloned());
            next_pending.extend(summary.shares_to_reassign());
            rounds.push(summary);
        }
        pending = next_pending;
    }

    reports.sort_by_key(|r| r.input);
    reports.dedup();
    Ok(CampaignSummary {
        complete: pending.is_empty(),
        rounds,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_grid::{CheatSelection, HonestWorker, SemiHonestCheater};
    use ugc_hash::Sha256;
    use ugc_task::workloads::PasswordSearch;
    use ugc_task::ZeroGuesser;

    const HONEST: &dyn WorkerBehaviour = &HonestWorker;
    const CBS: fn(usize) -> FleetScheme = |samples| FleetScheme::Cbs {
        samples,
        report_audit: 0,
    };

    /// [`run_uniform_fleet`] over the default config.
    fn run_uniform(
        task: &PasswordSearch,
        domain: Domain,
        fleet: &[&dyn WorkerBehaviour],
        scheme: FleetScheme,
        seed: u64,
    ) -> Result<FleetSummary, SchemeError> {
        let (screener, config) = (task.match_screener(), MixedFleetConfig::default());
        run_uniform_fleet::<Sha256, _, _>(task, &screener, domain, fleet, scheme, seed, &config)
    }

    #[test]
    fn honest_fleet_accepted_and_reports_merged() {
        let task = PasswordSearch::with_hidden_password(3, 700);
        let summary = run_uniform(&task, Domain::new(0, 1024), &[HONEST; 4], CBS(12), 99).unwrap();
        assert_eq!(summary.accepted(), 4);
        assert_eq!(summary.rejected(), 0);
        assert_eq!(summary.reports.len(), 1);
        assert_eq!(summary.reports[0].input, 700);
        assert!(summary.shares_to_reassign().is_empty());
    }

    #[test]
    fn mixed_fleet_isolates_the_cheater() {
        let task = PasswordSearch::with_hidden_password(3, 1);
        let cheater =
            SemiHonestCheater::new(0.3, CheatSelection::Scattered, ZeroGuesser::new(1), 5);
        let fleet = [HONEST, &cheater, HONEST];
        let summary = run_uniform(&task, Domain::new(0, 300), &fleet, CBS(20), 99).unwrap();
        assert_eq!(summary.accepted(), 2);
        assert_eq!(summary.rejected(), 1);
        assert!(!summary.members[1].outcome.accepted);
        // The cheater's share (middle third) must be reassigned.
        assert_eq!(summary.shares_to_reassign(), vec![Domain::new(100, 100)]);
    }

    #[test]
    fn ni_fleet_works() {
        let task = PasswordSearch::with_hidden_password(5, 2);
        let scheme = FleetScheme::NiCbs {
            samples: 8,
            g_iterations: 2,
            report_audit: 0,
        };
        let summary = run_uniform(&task, Domain::new(0, 96), &[HONEST; 3], scheme, 99).unwrap();
        assert_eq!(summary.accepted(), 3);
        // Every member paid its own g-derivation.
        for m in &summary.members {
            assert_eq!(m.outcome.participant_costs.g_evals, 16);
        }
    }

    #[test]
    fn empty_fleet_rejected() {
        let task = PasswordSearch::with_hidden_password(1, 1);
        let err = run_uniform(&task, Domain::new(0, 16), &[], CBS(4), 99).unwrap_err();
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
    }

    #[test]
    fn oversubscribed_fleet_rejected() {
        let task = PasswordSearch::with_hidden_password(1, 1);
        let err = run_uniform(&task, Domain::new(0, 4), &[HONEST; 10], CBS(1), 99).unwrap_err();
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
    }

    /// [`run_campaign`] over the default config.
    fn campaign(
        task: &PasswordSearch,
        domain: Domain,
        fleet: &[&dyn WorkerBehaviour],
        fallback: &dyn WorkerBehaviour,
        scheme: FleetScheme,
        seed: u64,
        max_rounds: usize,
    ) -> Result<CampaignSummary, SchemeError> {
        run_campaign::<Sha256, _, _, _, _>(
            task,
            &task.match_screener(),
            domain,
            fleet,
            &fallback,
            scheme,
            seed,
            &MixedFleetConfig::default(),
            max_rounds,
        )
    }

    #[test]
    fn campaign_recovers_cheated_shares() {
        // The password hides in the cheater's share; round 1 rejects it,
        // round 2 recovers it via the trusted fallback.
        let task = PasswordSearch::with_hidden_password(3, 150);
        let cheater =
            SemiHonestCheater::new(0.2, CheatSelection::Scattered, ZeroGuesser::new(1), 5);
        // 3 shares of 100: the password (input 150) is in share 1 — the cheater's.
        let fleet = [HONEST, &cheater, HONEST];
        let summary = campaign(&task, Domain::new(0, 300), &fleet, HONEST, CBS(25), 8, 4).unwrap();
        assert!(summary.complete);
        assert_eq!(summary.rounds.len(), 2);
        assert!(!summary.rounds[0].members[1].outcome.accepted);
        assert_eq!(summary.reports.len(), 1);
        assert_eq!(summary.reports[0].input, 150);
        // The grid burned extra cycles re-running the tainted share.
        assert!(summary.total_participant_f_evals() > 300);
    }

    #[test]
    fn campaign_all_honest_finishes_in_one_round() {
        let task = PasswordSearch::with_hidden_password(3, 10);
        let scheme = FleetScheme::NiCbs {
            samples: 10,
            g_iterations: 1,
            report_audit: 0,
        };
        let summary = campaign(
            &task,
            Domain::new(0, 64),
            &[HONEST; 2],
            HONEST,
            scheme,
            2,
            3,
        )
        .unwrap();
        assert!(summary.complete);
        assert_eq!(summary.rounds.len(), 1);
    }

    #[test]
    fn campaign_reports_incompleteness_when_budget_exhausted() {
        // Fallback is itself a cheater: the campaign can never finish.
        let task = PasswordSearch::with_hidden_password(3, 10);
        let cheater =
            SemiHonestCheater::new(0.1, CheatSelection::Scattered, ZeroGuesser::new(2), 7);
        let fleet = [&cheater as &dyn WorkerBehaviour];
        let summary =
            campaign(&task, Domain::new(0, 100), &fleet, &cheater, CBS(20), 4, 3).unwrap();
        assert!(!summary.complete);
        assert_eq!(summary.rounds.len(), 3);
    }

    #[test]
    fn campaign_zero_rounds_rejected() {
        let task = PasswordSearch::with_hidden_password(1, 1);
        let err = campaign(&task, Domain::new(0, 16), &[HONEST], HONEST, CBS(2), 1, 0).unwrap_err();
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
    }

    #[test]
    fn deterministic_per_seed() {
        let task = PasswordSearch::with_hidden_password(3, 1);
        let cheater =
            SemiHonestCheater::new(0.9, CheatSelection::Scattered, ZeroGuesser::new(1), 5);
        let fleet = [&cheater as &dyn WorkerBehaviour; 2];
        let run = |seed| {
            let summary = run_uniform(&task, Domain::new(0, 200), &fleet, CBS(6), seed).unwrap();
            summary
                .members
                .iter()
                .map(|m| m.outcome.accepted)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn brokered_session_failure_returns_instead_of_hanging() {
        // A session that dies in start() (samples == 0) leaves its
        // participant with no assignment; the broker pump must still wind
        // down and the call must return the configuration error promptly
        // rather than deadlocking on the orphaned participant.
        let task = PasswordSearch::with_hidden_password(1, 1);
        let screener = task.match_screener();
        let honest = HonestWorker;
        let scheme = FleetScheme::Cbs {
            samples: 0,
            report_audit: 0,
        };
        let schemes = [scheme.instantiate::<Sha256>(1), scheme.instantiate(2)];
        let members: Vec<MemberSpec<'_, Sha256>> = schemes
            .iter()
            .map(|scheme| MemberSpec {
                scheme: scheme.as_ref(),
                behaviours: vec![&honest as &dyn WorkerBehaviour],
            })
            .collect();
        for transport in [TransportKind::Direct, TransportKind::Brokered] {
            let err = run_mixed_fleet(
                &task,
                &screener,
                Domain::new(0, 32),
                &members,
                &MixedFleetConfig {
                    transport,
                    ..MixedFleetConfig::default()
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, SchemeError::InvalidConfig { .. }),
                "{transport:?}: {err}"
            );
        }
    }
}
