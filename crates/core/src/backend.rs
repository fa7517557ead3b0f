//! How a round reaches its participant slots: one contract for
//! in-process and cross-process grids, with three rules.
//!
//! * Global slot `k` of a round has task id `k`: the [`SessionEngine`]
//!   deals the ids as sessions register, and knows how many there are.
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
//! * [`InProcessBackend`] — every slot runs in this process, and the
//!   round runs as shards: the engine is split into one engine per
//!   [`GridScheduler`] worker, each holding whole sessions and the slots
//!   that serve them, and each shard is one task on the pool. A shard's
//!   engine runs over an [`InProcessTransport`] that owns its slots and
//!   steps them on the same thread whenever the engine has no mail, so
//!   no in-process message crosses a thread, and nothing sleeps but a
//!   shard that can only wait for a deadline. A slot sits on one
//!   endpoint of its shard's [`fan_in`](ugc_grid::fan_in): its mail goes
//!   into the engine's one inbox, and the engine's onto that slot's own
//!   queue, as [`Message`] values — the codec runs only where bytes
//!   leave the process. Under [`TransportKind::Direct`] and
//!   [`TransportKind::Brokered`] alike slot `k` holds task `k`, so the
//!   engine addresses it directly — no routing table, no relay thread,
//!   no second queue. Each participant link carries the round's seeded
//!   fault plan.
//! * [`RemoteGridBackend`] — a [`DialLink`] into a `ugc broker serve`
//!   process that relays to participants in *other* OS processes
//!   ([`TransportKind::Remote`]), each running [`serve_remote_slots`]. The
//!   engine runs over that link, reading and writing the socket on its
//!   own thread, as each joined process does on its one link; the slots'
//!   [`SlotReport`]s come back as control frames on the same link, so no
//!   end of a remote round starts a thread, and a cross-process campaign
//!   produces a summary
//!   digest bit-identical to the in-process brokered run of the same
//!   parameters (proven in `tests/wire_equivalence.rs` and in CI's
//!   `cross-process` job).
//!
//! Every participant slot, in a shard or joined, is one [`Slot`]: fed one
//! message at a time by the one participant [`step`], charging a ledger
//! of its own, and ended by the one [`SlotReport`] it hands back — so both
//! ends of the slot-report control frame live in this module.
//!
//! Which backend a fleet uses is configuration
//! ([`MixedFleetConfig::transport`](crate::MixedFleetConfig)), not code:
//! `run_mixed_fleet` and `run_durable_fleet` build an
//! [`InProcessBackend`] from the config, while
//! [`run_fleet_on`](crate::run_fleet_on) accepts any backend the embedder
//! connected.

use crate::engine::{InProcessTransport, SessionEngine, SessionResult};
use crate::journal::{get_part_result, get_report, get_var, put_part_result, put_report};
use crate::session::ParticipantSession;
use crate::SchemeError;
use std::collections::BTreeMap;
use std::time::Duration;
use ugc_grid::codec::put_var;
use ugc_grid::runtime::{FaultEvent, FaultPlan, GridScheduler, GridTask, TaskPoll};
use ugc_grid::{CostLedger, CostReport, DialLink, GridError, GridLink, Message};

/// How a fleet round moves its messages — the one transport-selection
/// knob, threaded from the CLI through [`MixedFleetConfig`](crate::MixedFleetConfig)
/// down to the backend that implements it. Execution-only: every
/// transport produces the same digest and the same journal for the same
/// campaign, so a journal resumes over any of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// One in-process link per participant slot, all sending into their
    /// shard's one inbox, which the shard's engine drains between its
    /// slots' steps; slot `k` holds task `k`. In
    /// process this is one transport with [`Brokered`](Self::Brokered);
    /// both names stay because campaigns and the CLI name them.
    #[default]
    Direct,
    /// The in-process twin of [`Remote`](Self::Remote), Section 4's
    /// brokered deployment: the same transport as [`Direct`](Self::Direct),
    /// because hiding participants from the supervisor is the relay's
    /// property between processes, not something to re-enact in one.
    Brokered,
    /// One [`DialLink`] into a `ugc broker serve` process whose
    /// participants joined from other OS processes: the relay of
    /// [`Brokered`](Self::Brokered), over sockets.
    Remote,
}

/// One participant slot's end-of-session report: everything the
/// supervisor needs from the slot to finish its books — the costs the
/// slot's own ledger accumulated and the participant-side outcome.
///
/// Every slot ends in exactly one, built in one place: returned from its
/// shard in this process, or sent as a control frame by a
/// joined one ([`serve_remote_slots`]).
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
        put_var(&mut buf, self.slot);
        put_report(&mut buf, &self.costs);
        put_part_result(&mut buf, &self.outcome);
        buf
    }

    /// Decodes a control-frame payload: the slot, the costs and the
    /// outcome in the journal's record codec, every integer canonical
    /// LEB128 and the costs the paper's four axes (the layout since wire
    /// version 4).
    ///
    /// # Errors
    ///
    /// [`SchemeError::Journal`] on a malformed, non-canonical or
    /// trailing-bytes payload.
    pub fn decode(mut bytes: &[u8]) -> Result<Self, SchemeError> {
        let buf = &mut bytes;
        let slot = get_var(buf, "slot report slot")?;
        let costs = get_report(buf)?;
        let outcome = get_part_result(buf)?;
        if !buf.is_empty() {
            return Err(SchemeError::Journal {
                reason: format!("slot report has {} trailing bytes", buf.len()),
            });
        }
        Ok(Self {
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
    /// Seeded fault injection for every participant link (`None`
    /// decorates with the quiet plan). Remote backends refuse chaos:
    /// fault schedules are keyed by link id, and which process hosts
    /// which link is execution layout — exactly what digests must not
    /// depend on.
    pub chaos: Option<FaultPlan>,
    /// Size of the scheduler pool that runs the round's shards in this
    /// process, one shard per worker (`None`: one per available core).
    /// Execution-only.
    pub workers: Option<usize>,
    /// Seed for that pool's work-stealing victim order. Scheduling-only,
    /// and with one shard per worker there is nothing left to steal.
    pub steal_seed: u64,
}

/// What one round produced, wherever its slots ran.
#[derive(Debug, Default)]
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
/// every data-plane message [`Message::charged`] (its encoded length plus
/// the frame header), whether or not it is ever encoded — that equality
/// is what makes digests transport-invariant.
pub trait TransportBackend {
    /// Which transport this backend implements.
    fn kind(&self) -> TransportKind;

    /// Runs one round: `engine`, whose sessions' slots it dealt task ids
    /// `0..engine.slots()`, against one participant session per slot —
    /// slot `k` serving task `k`. A slot that runs in this process
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

/// The in-process backend: the round in shards on a scheduler pool in
/// this process, each engine stepping its own slots, links in memory.
/// Serves [`TransportKind::Direct`] and [`TransportKind::Brokered`], one
/// transport under two names; any number of rounds.
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
            TransportKind::Direct | TransportKind::Brokered => Ok(run_local(spec, engine, slot)),
            TransportKind::Remote => Err(SchemeError::InvalidConfig {
                reason: "the in-process backend cannot serve the remote transport; \
                         connect a RemoteGridBackend and call run_fleet_on"
                    .into(),
            }),
        }
    }
}

/// Runs the round as shards: `engine` split into one [`SessionEngine`]
/// per scheduler worker (or per session, when sessions are fewer), each
/// holding whole sessions and the slots that serve them — slot `k`
/// running task `k` behind the round's fault plan — over its own
/// [`InProcessTransport`], and each one [`Shard`] task on a
/// [`GridScheduler`] pool whose worker 0 is the calling thread. Results
/// come back in registration order and reports in slot order, as the
/// shards hold contiguous runs of both.
fn run_local<'a>(
    spec: &RoundSpec,
    engine: SessionEngine<'a>,
    slot: &dyn Fn(u64, CostLedger) -> Box<dyn ParticipantSession + 'a>,
) -> RoundResult {
    let scheduler = spec
        .workers
        .map_or_else(GridScheduler::available, GridScheduler::new)
        .with_steal_seed(spec.steal_seed);
    // Chaos-free rounds use the quiet plan rather than a separate
    // undecorated code path: the decorator's transparency at zero rates
    // is property-tested (grid/tests/fault_properties.rs), and one code
    // path means the soak exercises what production runs.
    let plan = spec.chaos.unwrap_or(FaultPlan::quiet(0));
    let (sessions, slots) = (engine.session_count(), engine.slots());
    let shards: Vec<Shard<'a>> = engine
        .split(scheduler.workers())
        .into_iter()
        .map(|engine| {
            let slots = engine
                .tasks()
                .map(|task_id| {
                    let ledger = CostLedger::new();
                    Slot::new(task_id, slot(task_id, ledger.clone()), ledger)
                })
                .collect();
            let transport = InProcessTransport::new(slots, |task_id| {
                plan.link(chaos_link_id(spec.round, task_id as usize))
            });
            Shard::Ready(engine, transport)
        })
        .collect();
    let mut round = RoundResult {
        sessions: Vec::with_capacity(sessions),
        reports: Vec::with_capacity(slots),
        events: Vec::new(),
    };
    for shard in scheduler.run(shards) {
        if let Shard::Ran(part) = shard {
            round.sessions.extend(part.sessions);
            round.reports.extend(part.reports);
            round.events.extend(part.events);
        }
    }
    round.events.sort_unstable();
    round
}

/// One shard of an in-process round, as one task on the scheduler pool:
/// its one poll runs the shard's engine over the transport that owns its
/// slots, then ends every slot.
enum Shard<'a> {
    Ready(SessionEngine<'a>, InProcessTransport<'a>),
    Ran(RoundResult),
}

impl GridTask for Shard<'_> {
    fn poll(&mut self) -> TaskPoll {
        let ran = Shard::Ran(RoundResult::default());
        if let Shard::Ready(engine, mut transport) = std::mem::replace(self, ran) {
            let sessions = engine.run(&mut transport);
            let (reports, events) = transport.finish();
            *self = Shard::Ran(RoundResult {
                sessions,
                reports,
                events,
            });
        }
        TaskPoll::Complete
    }
}

/// The one participant step — a slot in a shard, a joined one and the blocking
/// [`drive_participant`](crate::session::drive_participant) all take it:
/// feeds `msg` to `session`, sends the replies through `send`, and
/// returns how the session ended (a protocol error, a reply the link
/// refuses, or its verdict), or `None` while it runs on.
pub(crate) fn step(
    mut send: impl FnMut(&Message) -> Result<(), GridError>,
    session: &mut (dyn ParticipantSession + '_),
    msg: Message,
) -> Option<Result<bool, SchemeError>> {
    let replies = match session.on_message(msg) {
        Ok(replies) => replies,
        Err(e) => return Some(Err(e)),
    };
    let mut failure: Option<SchemeError> = None;
    for out in replies {
        // Attempt the whole burst even once a send has failed: each
        // outbound message consumes a fault-schedule sequence number
        // (logged before the wire is touched), so the replay log must
        // not depend on *when* the peer disappeared — that is a
        // wall-clock race against the round's teardown, and it would
        // otherwise make the fault log vary with worker count.
        match send(&out) {
            Ok(()) => {}
            // The peer hung up. What it sent before leaving (a verdict
            // reached on the first copy of a duplicated upload, say) is
            // still queued, and the link reports the hang-up on receive
            // only once that queue is empty — so the session goes on
            // and ends there, having drawn an inbound fault decision for
            // every message the peer sent, however early it left.
            Err(GridError::Disconnected) => {}
            // Any other send error is this side's own and fails the
            // session (the first one wins).
            Err(e) => {
                failure.get_or_insert(e.into());
            }
        }
    }
    match failure {
        Some(e) => Some(Err(e)),
        None => session.finished().map(Ok),
    }
}

/// One participant slot — its task id, its session and a ledger only it
/// charges — wherever the backend runs it: stepped by its shard's
/// [`InProcessTransport`], or in a joined process's [`serve_remote_slots`]
/// loop.
/// Both feed it through [`step`] and end it the same way, with
/// [`report`](Self::report).
pub(crate) struct Slot<'a> {
    task_id: u64,
    session: Box<dyn ParticipantSession + 'a>,
    ledger: CostLedger,
    /// How the slot ended, once it has.
    outcome: Option<Result<bool, SchemeError>>,
}

impl<'a> Slot<'a> {
    /// Slot `task_id`, running `session`, which charges `ledger`.
    pub(crate) fn new(
        task_id: u64,
        session: Box<dyn ParticipantSession + 'a>,
        ledger: CostLedger,
    ) -> Self {
        Slot {
            task_id,
            session,
            ledger,
            outcome: None,
        }
    }

    /// The task id this slot holds.
    pub(crate) fn task_id(&self) -> u64 {
        self.task_id
    }

    /// Feeds up to `budget` queued messages from `link` through [`step`],
    /// never blocking, in the order the blocking
    /// [`drive_participant`](crate::session::drive_participant) takes them
    /// — so fault draws, ledgers and verdicts are the same at any budget.
    /// `Complete` once the slot has ended (a receive error ends it too:
    /// its own injected crash, or the peer's hang-up, reported only once
    /// the peer's mail is consumed), `Idle` when nothing was queued,
    /// `Progress` otherwise.
    ///
    /// # Panics
    ///
    /// If `budget` is zero: such a step could neither progress nor idle.
    pub(crate) fn drain<L: GridLink + ?Sized>(&mut self, link: &L, budget: usize) -> TaskPoll {
        assert!(budget > 0, "batched step needs a non-zero message budget");
        for consumed in 0..budget {
            self.outcome = match link.try_recv() {
                Ok(msg) => step(|out| link.send(out), self.session.as_mut(), msg),
                Err(GridError::Empty) if consumed > 0 => return TaskPoll::Progress,
                Err(GridError::Empty) => return TaskPoll::Idle,
                Err(e) => Some(Err(e.into())),
            };
            if self.outcome.is_some() {
                return TaskPoll::Complete;
            }
        }
        TaskPoll::Progress
    }

    /// The ended slot's report: what its ledger charged and how it ended —
    /// returned from its shard in this process, sent as a control frame
    /// from a joined one.
    pub(crate) fn report(self) -> SlotReport {
        SlotReport {
            slot: self.task_id,
            costs: self.ledger.report(),
            outcome: self.outcome.expect("only an ended slot reports"),
        }
    }
}

/// The cross-process backend: the supervisor's [`DialLink`] into a
/// `ugc broker serve` relay whose participants are `ugc participant join`
/// processes. The engine reads and writes that link on its own thread,
/// and the slots' reports come up the same link as control frames.
///
/// Single-round by construction — the connection's task routes belong to
/// the round that made them — and chaos-free: the CLI runs `--connect`
/// campaigns with `retries = 0` and no fault plan, so one round is also
/// all a digest-equivalent campaign needs.
pub struct RemoteGridBackend {
    link: Option<DialLink>,
    patience: Duration,
}

impl RemoteGridBackend {
    /// Wraps a handshaken supervisor link (from
    /// [`handshake_supervisor`](ugc_grid::tcp::handshake_supervisor)).
    #[must_use]
    pub fn new(link: DialLink) -> Self {
        RemoteGridBackend {
            link: Some(link),
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

    /// Collects exactly one [`SlotReport`] for each of `slots` slots from
    /// `link`'s control frames, returned in slot order.
    fn collect_reports(
        &self,
        link: &mut DialLink,
        slots: usize,
    ) -> Result<Vec<SlotReport>, SchemeError> {
        let mut reports: Vec<Option<SlotReport>> = vec![None; slots];
        for _ in 0..slots {
            // The patience window is a hang guard for a participant
            // process that died without reporting (its sessions already
            // failed with `Gone`); it is never an input to verdicts or
            // digests — a report either arrives or the round errors.
            let frame = link
                .recv_control(Some(self.patience))?
                .ok_or(SchemeError::TimedOut)?;
            let report = SlotReport::decode(&frame)?;
            let entry = usize::try_from(report.slot)
                .ok()
                .and_then(|slot| reports.get_mut(slot))
                .ok_or(SchemeError::InvalidConfig {
                    reason: "remote peer reported an unknown participant slot".into(),
                })?;
            if entry.replace(report).is_some() {
                return Err(SchemeError::InvalidConfig {
                    reason: "remote peer reported a participant slot twice".into(),
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
                         execution layout that digests must not depend on"
                    .into(),
            });
        }
        let mut link = self.link.take().ok_or(SchemeError::InvalidConfig {
            reason: "the remote backend serves a single round per connection".into(),
        })?;
        let slots = engine.slots();
        let sessions = engine.run(&mut link);
        // The slots' reports come over the same connection, so it stays
        // open until they are in.
        let reports = self.collect_reports(&mut link, slots)?;
        Ok(RoundResult {
            sessions,
            reports,
            events: Vec::new(),
        })
    }
}

/// The other end of a [`RemoteGridBackend`] round, and the body of a
/// `ugc participant join` process: serves the slots the relay routes to
/// `link` until the relay hangs up, the normal end of a campaign. It runs
/// on the caller's thread, which reads and writes `link` itself. A task
/// id is its slot's only address, so the first message for a task opens
/// that slot with `slot(task_id, ledger)`; each is fed by the same step as
/// a slot in a shard — a reply the link refuses fails that slot alone —
/// and, once ended, sends its [`SlotReport`] up the link as a control
/// frame, outside the charged data plane. Returns how many slots ended.
///
/// # Errors
///
/// A receive error other than the relay's hang-up, or whatever `slot`
/// returns for a task id it cannot open.
pub fn serve_remote_slots<'a>(
    link: &mut DialLink,
    slot: &dyn Fn(u64, CostLedger) -> Result<Box<dyn ParticipantSession + 'a>, SchemeError>,
) -> Result<u64, SchemeError> {
    // BTreeMap, not HashMap: slot teardown order must never depend on
    // unspecified iteration order.
    let mut live: BTreeMap<u64, Slot<'a>> = BTreeMap::new();
    let mut served = 0u64;
    loop {
        let msg = match link.recv() {
            Ok(msg) => msg,
            Err(GridError::Disconnected) => return Ok(served),
            Err(e) => return Err(e.into()),
        };
        let task_id = msg.task_id();
        let mut open = match live.remove(&task_id) {
            Some(open) => open,
            None => {
                let ledger = CostLedger::new();
                Slot::new(task_id, slot(task_id, ledger.clone())?, ledger)
            }
        };
        open.outcome = step(|out| link.send(out), open.session.as_mut(), msg);
        if open.outcome.is_none() {
            live.insert(task_id, open);
            continue;
        }
        // A refused report means the campaign tore down first; the relay's
        // hang-up ends the loop.
        let _ = link.send_control(&open.report().encode());
        served += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Outbound, SessionOutcome, SupervisorSession};
    use crate::Verdict;
    use ugc_grid::Assignment;

    #[test]
    fn slot_report_roundtrip() {
        for outcome in [
            Ok(true),
            Ok(false),
            Err(SchemeError::TimedOut),
            Err(SchemeError::InvalidConfig { reason: "x".into() }),
        ] {
            let report = SlotReport {
                slot: 42,
                costs: CostReport {
                    f_evals: 1,
                    hash_ops: 2,
                    g_evals: 3,
                    verify_ops: 4,
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

    fn spec(round: u32, chaos: Option<FaultPlan>) -> RoundSpec {
        RoundSpec {
            round,
            chaos,
            workers: None,
            steal_seed: 0,
        }
    }

    /// Assigns its slots, and once every one has answered, sends each its
    /// verdict and rejects with its own index as the sample, so a result
    /// names the session it came from.
    struct Tally {
        index: u64,
        task_ids: Vec<u64>,
        heard: usize,
    }

    impl SupervisorSession for Tally {
        fn start(&mut self) -> Result<Vec<Outbound>, SchemeError> {
            Ok((0..)
                .zip(&self.task_ids)
                .map(|(peer, &task_id)| {
                    let domain = ugc_task::Domain::new(task_id, 1);
                    (peer, Message::Assign(Assignment { task_id, domain }))
                })
                .collect())
        }

        fn on_message(
            &mut self,
            _slot: usize,
            _msg: Message,
        ) -> Result<Vec<Outbound>, SchemeError> {
            self.heard += 1;
            if self.heard < self.task_ids.len() {
                return Ok(Vec::new());
            }
            Ok((0..)
                .zip(&self.task_ids)
                .map(|(peer, &task_id)| {
                    let accepted = true;
                    (peer, Message::Verdict { task_id, accepted })
                })
                .collect())
        }

        fn take_outcome(&mut self) -> Option<SessionOutcome> {
            (self.heard == self.task_ids.len()).then(|| SessionOutcome {
                verdict: Verdict::WrongResult { sample: self.index },
                reports: Vec::new(),
            })
        }
    }

    /// Answers its assignment with a commitment and ends on its verdict.
    struct Answer(Option<bool>);

    impl ParticipantSession for Answer {
        fn on_message(&mut self, msg: Message) -> Result<Vec<Message>, SchemeError> {
            if let Message::Verdict { accepted, .. } = msg {
                self.0 = Some(accepted);
                return Ok(Vec::new());
            }
            let root = Vec::new();
            Ok(vec![Message::Commit {
                task_id: msg.task_id(),
                root,
            }])
        }

        fn finished(&self) -> Option<bool> {
            self.0
        }
    }

    #[test]
    fn a_round_runs_as_shards_of_whole_sessions_in_registration_order() {
        let widths = [1, 2, 1, 1, 2, 2, 1, 2];
        let engine = || {
            let mut engine = SessionEngine::new();
            for (index, &width) in (0..).zip(&widths) {
                engine.add_session(width, |task_ids| {
                    Box::new(Tally {
                        index,
                        task_ids,
                        heard: 0,
                    })
                });
            }
            engine
        };
        let total = widths.iter().sum::<usize>() as u64;
        // Where each session's slots start, and the round's end.
        let bounds: Vec<u64> = std::iter::once(0)
            .chain(widths.iter().scan(0, |end, &width| {
                *end += width as u64;
                Some(*end)
            }))
            .collect();
        for workers in [1, 2, 3, widths.len() + 3] {
            let shards = engine().split(workers);
            assert_eq!(shards.len(), workers.min(widths.len()), "{workers} workers");
            // Consecutive, non-empty runs of task ids covering the round,
            // each cut on a session boundary, about as large as the rest.
            let mut next = 0;
            for shard in &shards {
                let tasks = shard.tasks();
                assert_eq!(tasks.start, next, "{workers} workers");
                assert!(tasks.start < tasks.end, "{workers} workers");
                assert!(
                    bounds.contains(&tasks.end),
                    "{workers} workers split a session"
                );
                next = tasks.end;
            }
            assert_eq!(next, total, "{workers} workers");
            let sizes = shards
                .iter()
                .map(|shard| shard.tasks().end - shard.tasks().start);
            let (least, most) = (sizes.clone().min().unwrap(), sizes.max().unwrap());
            assert!(
                most - least <= 2,
                "{workers} workers: shards of {least} to {most} slots"
            );

            let spec = RoundSpec {
                workers: Some(workers),
                ..spec(0, None)
            };
            let answer =
                |_: u64, _: CostLedger| -> Box<dyn ParticipantSession> { Box::new(Answer(None)) };
            let round = InProcessBackend::new(TransportKind::Direct)
                .run_round(&spec, engine(), &answer)
                .unwrap();
            let named: Vec<u64> = round
                .sessions
                .iter()
                .map(|result| match result.outcome {
                    Ok(SessionOutcome {
                        verdict: Verdict::WrongResult { sample },
                        ..
                    }) => sample,
                    ref other => panic!("{workers} workers: {other:?}"),
                })
                .collect();
            assert_eq!(named, (0..widths.len() as u64).collect::<Vec<_>>());
            let slots: Vec<u64> = round.reports.iter().map(|report| report.slot).collect();
            assert_eq!(slots, (0..total).collect::<Vec<_>>());
            assert!(round
                .reports
                .iter()
                .all(|report| report.outcome == Ok(true)));
        }
    }

    #[test]
    fn in_process_backend_refuses_remote() {
        let mut backend = InProcessBackend::new(TransportKind::Remote);
        let err = backend
            .run_round(&spec(0, None), SessionEngine::new(), &no_slot)
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
        let mut backend = RemoteGridBackend::new(DialLink::from_stream(stream));
        let mut run = |spec| backend.run_round(&spec, SessionEngine::new(), &no_slot);
        let err =
            run(spec(0, Some(FaultPlan::chaos(1)))).expect_err("backend must refuse this round");
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
        // An empty round runs: no session to drive, no report to wait for.
        let round = run(spec(0, None)).unwrap();
        assert!(round.sessions.is_empty() && round.reports.is_empty());
        let err = run(spec(1, None)).expect_err("backend must refuse this round");
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
    }
}
