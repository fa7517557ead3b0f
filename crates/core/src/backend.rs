//! How a round reaches its participant slots: one contract for
//! in-process and cross-process grids, with three rules.
//!
//! * Global slot `k` of a round has task id `k` (the orchestrator numbers
//!   a round's slots with one counter across its roster).
//! * That task id is the slot's only address, on every transport.
//! * The backend alone decides where slot `k` runs.
//!
//! The orchestrator registers the round's supervisor sessions with a
//! [`SessionEngine`] and hands it, with a constructor for the participant
//! half of any slot, to [`TransportBackend::run_round`]. It gets back a
//! [`RoundResult`]: the sessions' results, one [`SlotReport`] per slot and
//! the round's fault events — whether the slots ran in this process or in
//! another is never its concern. Two backends ship:
//!
//! * [`InProcessBackend`] — every slot runs in this process as a
//!   poll-driven [`SlotTask`] on a [`GridScheduler`] pool beside the
//!   engine, over one [`duplex`] pair per slot ([`TransportKind::Direct`])
//!   or one shared link into a relaying [`Broker`] pumping on its own
//!   thread ([`TransportKind::Brokered`]). Each participant link carries
//!   the round's seeded fault plan.
//! * [`RemoteGridBackend`] — a [`TcpLink`] into a `ugc broker serve`
//!   process that relays to participants in *other* OS processes
//!   ([`TransportKind::Remote`]). The engine runs over that link, and the
//!   participants send their [`SlotReport`]s back as control frames, so a
//!   cross-process campaign produces a summary digest bit-identical to
//!   the in-process brokered run of the same parameters (proven in
//!   `tests/wire_equivalence.rs` and in CI's `cross-process` job).
//!
//! Every participant slot, local or remote, ends the same way: it runs
//! its session against a ledger of its own and hands back a
//! [`SlotReport`] — from the scheduler pool in this process, or over the
//! wire from another.
//!
//! Which backend a fleet uses is configuration
//! ([`MixedFleetConfig::transport`](crate::MixedFleetConfig)), not code:
//! `run_mixed_fleet` and `run_durable_fleet` build an
//! [`InProcessBackend`] from the config, while
//! [`run_fleet_on`](crate::run_fleet_on) accepts any backend the embedder
//! connected.

use crate::engine::{DirectTransport, EngineTransport, SessionEngine, SessionResult, SharedLink};
use crate::journal::{get_part_result, get_report, put_part_result, put_report};
use crate::session::{step_participant_batch, ParticipantSession, SessionPoll};
use crate::SchemeError;
use std::time::Duration;
use ugc_grid::codec::{get_u64, put_u64};
use ugc_grid::runtime::{
    FaultEvent, FaultLog, FaultPlan, FaultyEndpoint, GridScheduler, GridTask, TaskPoll,
};
use ugc_grid::{
    duplex, Broker, ControlHandle, CostLedger, CostReport, Doorbell, Endpoint, TcpLink,
};

/// How a fleet round moves its messages — the one transport-selection
/// knob, threaded from the CLI through [`MixedFleetConfig`](crate::MixedFleetConfig)
/// down to the backend that implements it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// One in-memory link per participant, all rung on one bell the
    /// engine sleeps on.
    #[default]
    Direct,
    /// One shared supervisor link into a relaying GRACE-style
    /// [`Broker`](ugc_grid::Broker) that fans out to in-process
    /// participants (Section 4's deployment); the broker pump runs on
    /// its own thread.
    Brokered,
    /// One [`TcpLink`] into a `ugc broker serve` process whose
    /// participants joined from other OS processes. Message-flow
    /// identical to [`Brokered`](Self::Brokered) — the relay is the same
    /// code over sockets — so the two share a digest class.
    Remote,
}

impl TransportKind {
    /// The canonical representative of this transport's digest class —
    /// what [`CampaignHeader::for_campaign`](crate::CampaignHeader::for_campaign)
    /// stores, so headers compare equal exactly when digests cannot
    /// differ. [`Brokered`](Self::Brokered) and [`Remote`](Self::Remote)
    /// share a class: the relay semantics (round-robin dispatch, `Gone`
    /// NACKs, per-message charging) are identical, so their digests
    /// cannot differ and a campaign may resume across that backend
    /// change. [`Direct`](Self::Direct) is a class of its own — its
    /// engine never sees `Gone` NACKs, so resuming a direct campaign over
    /// a relay (or vice versa) is refused. Execution-only socket details
    /// (addresses, process layout) never reach the header at all.
    #[must_use]
    pub fn digest_canonical(self) -> Self {
        match self {
            TransportKind::Direct => TransportKind::Direct,
            TransportKind::Brokered | TransportKind::Remote => TransportKind::Brokered,
        }
    }
}

/// One participant slot's end-of-session report: everything the
/// supervisor needs from the slot to finish its books — the costs the
/// slot's own ledger accumulated and the participant-side outcome.
///
/// A slot hosted in this process returns it from its scheduler task; a
/// remote one, served by `ugc participant join`, sends it as a control
/// frame, outside the charged data plane, once the slot's session
/// completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotReport {
    /// The global slot (== task id).
    pub slot: u64,
    /// What this slot's session charged (its ledger is fresh per slot).
    pub costs: CostReport,
    /// The participant-side result: whether the session found a report
    /// of interest, or the protocol error that killed it.
    pub outcome: Result<bool, SchemeError>,
}

impl SlotReport {
    /// Encodes the report as a control-frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.slot);
        put_report(&mut buf, &self.costs);
        put_part_result(&mut buf, &self.outcome);
        buf
    }

    /// Decodes a control-frame payload.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Journal`] on a malformed or trailing-bytes payload
    /// (the slot-report codec is the journal's).
    pub fn decode(mut bytes: &[u8]) -> Result<Self, SchemeError> {
        let buf = &mut bytes;
        let slot = get_u64(buf, "slot report slot")?;
        let costs = get_report(buf)?;
        let outcome = get_part_result(buf)?;
        if !buf.is_empty() {
            return Err(SchemeError::Journal {
                reason: format!("slot report has {} trailing bytes", buf.len()),
            });
        }
        Ok(SlotReport {
            slot,
            costs,
            outcome,
        })
    }
}

/// The link id participant slot `slot` draws its fault schedule from in
/// reassignment round `round` (0 = the initial attempt). Exposed so tests
/// can predict — and pick seeds around — which links a [`FaultPlan`] will
/// crash.
#[must_use]
pub fn chaos_link_id(round: u32, slot: usize) -> u64 {
    (u64::from(round) << 32) | slot as u64
}

/// What the orchestrator tells a backend about the round it runs.
#[derive(Debug)]
pub struct RoundSpec {
    /// The reassignment round number (0 = the initial attempt); feeds
    /// [`chaos_link_id`] so retry rounds draw fresh fault schedules.
    pub round: u32,
    /// How many participant slots the round has; slot `k` is task `k`.
    pub slots: usize,
    /// Seeded fault injection for every participant link (`None`
    /// decorates with the quiet plan). Remote backends refuse chaos:
    /// fault schedules are keyed by link id, and which process hosts
    /// which link is execution layout — exactly what digests must not
    /// depend on.
    pub chaos: Option<FaultPlan>,
    /// Size of the scheduler pool that runs slots hosted in this process
    /// (`None`: one per available core). Execution-only.
    pub workers: Option<usize>,
    /// Seed for that pool's work-stealing victim order. Scheduling-only.
    pub steal_seed: u64,
}

/// What one round produced, wherever its slots ran.
#[derive(Debug)]
pub struct RoundResult {
    /// One result per registered supervisor session, in registration
    /// order.
    pub sessions: Vec<SessionResult>,
    /// One report per participant slot, in slot order.
    pub reports: Vec<SlotReport>,
    /// Faults injected during the round, sorted.
    pub events: Vec<FaultEvent>,
}

/// A transport backend: where a fleet round's participant slots run and
/// how the supervisor's messages reach them. Implementations must charge
/// every data-plane message exactly as [`Endpoint`] does (encoded frame +
/// header) — that equality is what makes digests transport-invariant.
pub trait TransportBackend {
    /// Which transport this backend implements.
    fn kind(&self) -> TransportKind;

    /// Runs one round of `spec.slots` participant slots: `engine`, whose
    /// sessions are registered under task ids `0..spec.slots`, against
    /// one participant session per slot. A slot that runs in this process
    /// is built by `slot(k, ledger)`, charging `ledger`; a slot hosted
    /// elsewhere is built there.
    ///
    /// # Errors
    ///
    /// [`SchemeError::InvalidConfig`] when the backend cannot serve the
    /// spec (an in-process backend asked for [`TransportKind::Remote`], a
    /// remote backend asked for chaos or a second round) or a remote peer
    /// reports a slot outside the round, or one slot twice; transport
    /// failure or a malformed report before every slot has reported.
    fn run_round<'a>(
        &mut self,
        spec: &RoundSpec,
        engine: SessionEngine<'a>,
        slot: &dyn Fn(u64, CostLedger) -> Box<dyn ParticipantSession + 'a>,
    ) -> Result<RoundResult, SchemeError>;
}

/// The in-process backends: participants on a scheduler pool in this
/// process, links in memory. Serves [`TransportKind::Direct`] and
/// [`TransportKind::Brokered`]; any number of rounds.
#[derive(Debug, Clone, Copy)]
pub struct InProcessBackend {
    kind: TransportKind,
}

impl InProcessBackend {
    /// A backend for `kind`. Constructing one for
    /// [`TransportKind::Remote`] is allowed (so configs thread through
    /// uniformly) but its `run_round` reports the configuration error.
    #[must_use]
    pub fn new(kind: TransportKind) -> Self {
        InProcessBackend { kind }
    }
}

impl TransportBackend for InProcessBackend {
    fn kind(&self) -> TransportKind {
        self.kind
    }

    fn run_round<'a>(
        &mut self,
        spec: &RoundSpec,
        engine: SessionEngine<'a>,
        slot: &dyn Fn(u64, CostLedger) -> Box<dyn ParticipantSession + 'a>,
    ) -> Result<RoundResult, SchemeError> {
        match self.kind {
            TransportKind::Direct => {
                let mut transport = DirectTransport::new();
                let links = (0u64..)
                    .take(spec.slots)
                    .map(|task_id| {
                        let (sup_side, part_side) = duplex();
                        transport.add_endpoint(sup_side, [task_id]);
                        part_side
                    })
                    .collect();
                Ok(run_local(spec, engine, transport, links, slot))
            }
            TransportKind::Brokered => {
                let (sup_side, broker_up) = duplex();
                let (broker_down, links) = (0..spec.slots).map(|_| duplex()).unzip();
                let broker = Broker::new(broker_up, broker_down);
                let pump = std::thread::spawn(move || broker.pump_until_closed());
                let result = run_local(spec, engine, SharedLink::new(sup_side), links, slot);
                // The engine's link is gone, which winds the pump down.
                // Relay counters are diagnostics only; the round's books
                // come from the engine-side link stats and the ledgers.
                let _ = pump.join().expect("broker pump panicked");
                Ok(result)
            }
            TransportKind::Remote => Err(SchemeError::InvalidConfig {
                reason: "the in-process backend cannot serve the remote transport; \
                         connect a RemoteGridBackend and call run_fleet_on",
            }),
        }
    }
}

/// Runs `engine` over `transport` on the calling thread while slot `k`
/// runs on the participant end `links[k]`, behind the round's fault plan,
/// as a [`SlotTask`] on a [`GridScheduler`] pool.
fn run_local<'a, T: EngineTransport>(
    spec: &RoundSpec,
    engine: SessionEngine<'a>,
    mut transport: T,
    links: Vec<Endpoint>,
    slot: &dyn Fn(u64, CostLedger) -> Box<dyn ParticipantSession + 'a>,
) -> RoundResult {
    // Chaos-free rounds use the quiet plan rather than a separate
    // undecorated code path: the decorator's transparency at zero rates
    // is property-tested (grid/tests/fault_properties.rs), and one code
    // path means the soak exercises what production runs.
    let plan = spec.chaos.unwrap_or(FaultPlan::quiet(0));
    let mut logs = Vec::with_capacity(links.len());
    let tasks: Vec<SlotTask<'a>> = (0u64..)
        .zip(links)
        .enumerate()
        .map(|(k, (task_id, link))| {
            let link = FaultyEndpoint::new(link, plan.link(chaos_link_id(spec.round, k)));
            logs.push(link.log());
            let ledger = CostLedger::new();
            SlotTask {
                slot: task_id,
                link: Some(link),
                session: slot(task_id, ledger.clone()),
                ledger,
                outcome: None,
            }
        })
        .collect();
    let scheduler = spec
        .workers
        .map_or_else(GridScheduler::available, GridScheduler::new)
        .with_steal_seed(spec.steal_seed);
    let (sessions, tasks) = std::thread::scope(|scope| {
        let pool = scope.spawn(move || scheduler.run(tasks));
        let sessions = engine.run(&mut transport);
        // Close the supervisor side so chaos-stalled participants observe
        // the hang-up instead of parking forever (and so a broker pump
        // winds down).
        drop(transport);
        (sessions, pool.join().expect("scheduler pool panicked"))
    });
    let mut events: Vec<FaultEvent> = logs.iter().flat_map(FaultLog::snapshot).collect();
    events.sort_unstable();
    RoundResult {
        sessions,
        reports: tasks.into_iter().map(SlotTask::into_report).collect(),
        events,
    }
}

/// How many inbound messages one scheduler poll may drain from a slot's
/// queue before handing the worker back. Batching amortises the
/// run-queue round trip over a burst of queued mail; the value is purely
/// a latency/fairness trade-off — digests are identical at any budget
/// (`step_participant_batch` consumes messages one at a time, in order).
const STEP_BATCH_BUDGET: usize = 8;

/// One participant slot as a poll-driven task on the grid scheduler's
/// run-queue: the session state machine plus its fault-decorated link and
/// a ledger of its own. Completion drops the link immediately, so the
/// broker pump — and a supervisor session waiting on the verdict
/// acknowledgement — observe the hang-up without waiting for the whole
/// pool to drain.
struct SlotTask<'a> {
    slot: u64,
    link: Option<FaultyEndpoint>,
    session: Box<dyn ParticipantSession + 'a>,
    ledger: CostLedger,
    outcome: Option<Result<bool, SchemeError>>,
}

impl SlotTask<'_> {
    /// The completed slot's report — what a remote participant sends
    /// back for its slot.
    fn into_report(self) -> SlotReport {
        SlotReport {
            slot: self.slot,
            costs: self.ledger.report(),
            outcome: self
                .outcome
                .expect("scheduler ran every task to completion"),
        }
    }
}

impl GridTask for SlotTask<'_> {
    fn poll(&mut self) -> TaskPoll {
        let Some(link) = self.link.as_ref() else {
            return TaskPoll::Complete;
        };
        match step_participant_batch(link, self.session.as_mut(), STEP_BATCH_BUDGET) {
            SessionPoll::Progress => TaskPoll::Progress,
            SessionPoll::Idle => TaskPoll::Idle,
            SessionPoll::Complete(result) => {
                self.outcome = Some(result);
                self.link = None; // hang up so the peer sees the closure
                TaskPoll::Complete
            }
        }
    }

    /// The slot only ever waits for its link: inbound mail, or the hang-up
    /// that fails the session. Both ring. (A slot already hung up never
    /// answers `Idle`: its next poll completes.)
    fn wake_on(&mut self, bell: &Doorbell, key: usize) -> bool {
        if let Some(link) = &self.link {
            link.subscribe(bell, key);
        }
        true
    }
}

/// The cross-process backend: one [`TcpLink`] into a `ugc broker serve`
/// relay whose participants are `ugc participant join` processes.
///
/// Single-round by construction — the connection's task routes belong to
/// the round that made them — and chaos-free: the CLI runs `--connect`
/// campaigns with `retries = 0` and no fault plan, so one round is also
/// all a digest-equivalent campaign needs.
pub struct RemoteGridBackend {
    link: Option<TcpLink>,
    control: ControlHandle,
    patience: Duration,
}

impl RemoteGridBackend {
    /// Wraps a handshaken supervisor link (from
    /// [`handshake_supervisor`](ugc_grid::tcp::handshake_supervisor)).
    #[must_use]
    pub fn new(link: TcpLink) -> Self {
        let control = link.control_handle();
        RemoteGridBackend {
            link: Some(link),
            control,
            patience: Duration::from_secs(30),
        }
    }

    /// Overrides how long a round waits for each participant slot report
    /// before reporting the grid dead. A hang guard only — tests shorten
    /// it to fail fast; it never feeds verdicts or digests.
    #[must_use]
    pub fn with_patience(mut self, patience: Duration) -> Self {
        self.patience = patience;
        self
    }

    /// Collects exactly one [`SlotReport`] for each of `slots` slots over
    /// the control plane, returned in slot order.
    fn collect_reports(&self, slots: usize) -> Result<Vec<SlotReport>, SchemeError> {
        let mut reports: Vec<Option<SlotReport>> = vec![None; slots];
        for _ in 0..slots {
            // The patience window is a hang guard for a participant
            // process that died without reporting (its sessions already
            // failed with `Gone`); it is never an input to verdicts or
            // digests — a report either arrives or the round errors.
            let frame = self
                .control
                .recv_timeout(self.patience)?
                .ok_or(SchemeError::TimedOut)?;
            let report = SlotReport::decode(&frame)?;
            let entry = usize::try_from(report.slot)
                .ok()
                .and_then(|slot| reports.get_mut(slot))
                .ok_or(SchemeError::InvalidConfig {
                    reason: "remote peer reported an unknown participant slot",
                })?;
            if entry.replace(report).is_some() {
                return Err(SchemeError::InvalidConfig {
                    reason: "remote peer reported a participant slot twice",
                });
            }
        }
        Ok(reports.into_iter().flatten().collect())
    }
}

impl TransportBackend for RemoteGridBackend {
    fn kind(&self) -> TransportKind {
        TransportKind::Remote
    }

    fn run_round<'a>(
        &mut self,
        spec: &RoundSpec,
        engine: SessionEngine<'a>,
        _slot: &dyn Fn(u64, CostLedger) -> Box<dyn ParticipantSession + 'a>,
    ) -> Result<RoundResult, SchemeError> {
        if spec.chaos.is_some() {
            return Err(SchemeError::InvalidConfig {
                reason: "the remote backend cannot inject faults: fault schedules are \
                         keyed by link id, and which process hosts which link is \
                         execution layout that digests must not depend on",
            });
        }
        let link = self.link.take().ok_or(SchemeError::InvalidConfig {
            reason: "the remote backend serves a single round per connection",
        })?;
        let mut transport = SharedLink::new(link);
        let sessions = engine.run(&mut transport);
        // The slots' reports come over the same connection, so it stays
        // open until they are in.
        let reports = self.collect_reports(spec.slots)?;
        Ok(RoundResult {
            sessions,
            reports,
            events: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_classes() {
        assert_eq!(
            TransportKind::Brokered.digest_canonical(),
            TransportKind::Brokered
        );
        assert_eq!(
            TransportKind::Remote.digest_canonical(),
            TransportKind::Brokered
        );
        assert_eq!(
            TransportKind::Direct.digest_canonical(),
            TransportKind::Direct
        );
    }

    #[test]
    fn slot_report_roundtrip() {
        for outcome in [
            Ok(true),
            Ok(false),
            Err(SchemeError::TimedOut),
            Err(SchemeError::InvalidConfig { reason: "x" }),
        ] {
            let report = SlotReport {
                slot: 42,
                costs: CostReport {
                    f_evals: 1,
                    hash_ops: 2,
                    hash_wall_ops: 3,
                    g_evals: 4,
                    verify_ops: 5,
                },
                outcome,
            };
            let decoded = SlotReport::decode(&report.encode()).unwrap();
            assert_eq!(decoded, report);
        }
    }

    #[test]
    fn slot_report_rejects_trailing_bytes() {
        let report = SlotReport {
            slot: 0,
            costs: CostReport::default(),
            outcome: Ok(false),
        };
        let mut bytes = report.encode();
        bytes.push(0);
        assert!(matches!(
            SlotReport::decode(&bytes),
            Err(SchemeError::Journal { .. })
        ));
    }

    /// The slot constructor of a round that builds no slot here.
    fn no_slot(_: u64, _: CostLedger) -> Box<dyn ParticipantSession> {
        unreachable!("this round runs no slot in this process")
    }

    fn spec(round: u32, slots: usize, chaos: Option<FaultPlan>) -> RoundSpec {
        RoundSpec {
            round,
            slots,
            chaos,
            workers: None,
            steal_seed: 0,
        }
    }

    #[test]
    fn in_process_backend_refuses_remote() {
        let mut backend = InProcessBackend::new(TransportKind::Remote);
        let err = backend
            .run_round(&spec(0, 1, None), SessionEngine::new(), &no_slot)
            .expect_err("backend must refuse this round");
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
    }

    #[test]
    fn remote_backend_refuses_chaos_and_second_rounds() {
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = std::thread::spawn(move || listener.accept().unwrap().0);
        let stream = TcpStream::connect(addr).unwrap();
        let _peer = accept.join().unwrap();
        let mut backend = RemoteGridBackend::new(TcpLink::from_stream(stream));
        let mut run = |spec| backend.run_round(&spec, SessionEngine::new(), &no_slot);
        let err =
            run(spec(0, 0, Some(FaultPlan::chaos(1)))).expect_err("backend must refuse this round");
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
        // An empty round runs: no session to drive, no report to wait for.
        let round = run(spec(0, 0, None)).unwrap();
        assert!(round.sessions.is_empty() && round.reports.is_empty());
        let err = run(spec(1, 0, None)).expect_err("backend must refuse this round");
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
    }
}
