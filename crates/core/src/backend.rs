//! Pluggable transport backends: one API for in-process and
//! cross-process grids.
//!
//! The orchestrator's round loop is written once against
//! [`TransportBackend`]: a backend opens a round by producing the
//! supervisor-side transport the [`SessionEngine`](crate::engine) runs
//! over, plus — when the participants live in this process — the
//! decorated links their sessions are driven on. Two backends ship:
//!
//! * [`InProcessBackend`] — the historical in-memory grids: one
//!   [`duplex`] pair per participant ([`TransportKind::Direct`]) or one
//!   shared link into a relaying [`Broker`](ugc_grid::Broker) pumping on
//!   its own thread ([`TransportKind::Brokered`]).
//! * [`RemoteGridBackend`] — a [`TcpLink`] into a `ugc broker serve`
//!   process that relays to participants in *other* OS processes
//!   ([`TransportKind::Remote`]). The participants send their
//!   [`SlotReport`]s back as control frames, so a cross-process campaign
//!   produces a summary digest bit-identical to the in-process brokered
//!   run of the same parameters (proven in `tests/wire_equivalence.rs`
//!   and in CI's `cross-process` job).
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

use crate::engine::{DirectTransport, EngineEvent, EngineTransport, SharedLink};
use crate::journal::{get_part_result, get_report, put_part_result, put_report};
use crate::orchestrator::chaos_link_id;
use crate::SchemeError;
use std::thread::JoinHandle;
use std::time::Instant;
use ugc_grid::codec::{get_u64, put_u64};
use ugc_grid::runtime::{FaultLog, FaultPlan, FaultyEndpoint};
use ugc_grid::{
    duplex, Broker, ControlHandle, CostReport, GridError, Message, RelayStats, TcpLink,
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
    /// The global slot (== task id: the orchestrator numbers slots with
    /// one counter across the roster).
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

/// The supervisor-side transport a backend opened for one round: either
/// the engine's own per-participant links, or one shared link whose far
/// side routes (an in-process broker pump or a `ugc broker serve`
/// process).
pub enum EngineSide {
    /// Per-participant endpoints, answered directly by the engine.
    Direct(DirectTransport),
    /// One shared, relayed link (boxed: the concrete link type is the
    /// backend's business).
    Shared(Box<dyn EngineTransport + Send>),
}

impl EngineTransport for EngineSide {
    fn send(&mut self, routing_id: u64, msg: &Message) -> Result<u64, GridError> {
        match self {
            EngineSide::Direct(t) => t.send(routing_id, msg),
            EngineSide::Shared(t) => t.send(routing_id, msg),
        }
    }

    fn recv(&mut self, until: Option<Instant>) -> Result<Option<EngineEvent>, GridError> {
        match self {
            EngineSide::Direct(t) => t.recv(until),
            EngineSide::Shared(t) => t.recv(until),
        }
    }
}

/// What the orchestrator tells a backend about the round it is opening.
#[derive(Debug)]
pub struct RoundSpec<'a> {
    /// The reassignment round number (0 = the initial attempt); feeds
    /// [`chaos_link_id`] so retry rounds draw fresh fault schedules.
    pub round: u32,
    /// One routing id per global slot, in global-slot order — what a
    /// [`TransportKind::Direct`] backend registers each supervisor-side
    /// endpoint under. Relayed backends only need the count.
    pub routing_ids: &'a [u64],
    /// Seeded fault injection for every local participant link (`None`
    /// decorates with the quiet plan). Remote backends refuse chaos:
    /// fault schedules are keyed by link id, and which process hosts
    /// which link is execution layout — exactly what digests must not
    /// depend on.
    pub chaos: Option<FaultPlan>,
}

/// Everything a backend opened for one round.
pub struct OpenRound {
    /// The transport the engine multiplexes supervisor sessions over.
    pub engine_side: EngineSide,
    /// Fault-decorated links for participants hosted *in this process*,
    /// in global-slot order — empty for a remote backend, whose
    /// participants are driven by their own `ugc participant join`
    /// processes.
    pub local_links: Vec<FaultyEndpoint>,
    /// Fault logs of the local links, snapshot by the orchestrator once
    /// the round completes.
    pub fault_logs: Vec<FaultLog>,
    /// The broker pump thread, when the backend runs one; joined by the
    /// orchestrator after the engine side is dropped.
    pub pump: Option<JoinHandle<RelayStats>>,
}

/// A transport backend: where a fleet round's participants live and how
/// the supervisor's messages reach them. Implementations must charge
/// every data-plane message exactly as [`Endpoint`](ugc_grid::Endpoint)
/// does (encoded frame + header) — that equality is what makes digests
/// transport-invariant.
pub trait TransportBackend {
    /// Which transport this backend implements.
    fn kind(&self) -> TransportKind;

    /// Opens one round for `spec.routing_ids.len()` global slots.
    ///
    /// # Errors
    ///
    /// [`SchemeError::InvalidConfig`] when the backend cannot serve the
    /// spec (an in-process backend asked for [`TransportKind::Remote`],
    /// a remote backend asked for chaos or a second round).
    fn open_round(&mut self, spec: &RoundSpec<'_>) -> Result<OpenRound, SchemeError>;

    /// Collects the round's [`SlotReport`]s — one per global slot,
    /// sorted by slot — from participants *not* hosted in this process.
    /// In-process backends return an empty list: their slots report from
    /// the scheduler pool instead.
    ///
    /// Called after the engine finishes but while the round's links are
    /// still open (a remote peer delivers reports over the same
    /// connection).
    ///
    /// # Errors
    ///
    /// Transport failure before all `slots` reports arrived, or a
    /// malformed report.
    fn close_round(&mut self, slots: usize) -> Result<Vec<SlotReport>, SchemeError>;
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
    /// uniformly) but its `open_round` reports the configuration error.
    #[must_use]
    pub fn new(kind: TransportKind) -> Self {
        InProcessBackend { kind }
    }
}

impl TransportBackend for InProcessBackend {
    fn kind(&self) -> TransportKind {
        self.kind
    }

    fn open_round(&mut self, spec: &RoundSpec<'_>) -> Result<OpenRound, SchemeError> {
        // Chaos-free rounds use the quiet plan rather than a separate
        // undecorated code path: the decorator's transparency at zero
        // rates is property-tested (grid/tests/fault_properties.rs), and
        // one code path means the soak exercises what production runs.
        let plan = spec.chaos.unwrap_or(FaultPlan::quiet(0));
        let slots = spec.routing_ids.len();
        match self.kind {
            TransportKind::Direct => {
                let mut transport = DirectTransport::new();
                let mut links = Vec::with_capacity(slots);
                let mut logs = Vec::with_capacity(slots);
                for (slot, &routing_id) in spec.routing_ids.iter().enumerate() {
                    let (sup_side, part_side) = duplex();
                    transport.add_endpoint(sup_side, [routing_id]);
                    let link =
                        FaultyEndpoint::new(part_side, plan.link(chaos_link_id(spec.round, slot)));
                    logs.push(link.log());
                    links.push(link);
                }
                Ok(OpenRound {
                    engine_side: EngineSide::Direct(transport),
                    local_links: links,
                    fault_logs: logs,
                    pump: None,
                })
            }
            TransportKind::Brokered => {
                let (sup_endpoint, broker_up) = duplex();
                let mut broker_down = Vec::with_capacity(slots);
                let mut links = Vec::with_capacity(slots);
                let mut logs = Vec::with_capacity(slots);
                for slot in 0..slots {
                    let (b, p) = duplex();
                    broker_down.push(b);
                    let link = FaultyEndpoint::new(p, plan.link(chaos_link_id(spec.round, slot)));
                    logs.push(link.log());
                    links.push(link);
                }
                let broker = Broker::new(broker_up, broker_down);
                // Endpoints are `'static`, so the pump outlives the round
                // scope; the orchestrator joins the handle once the engine
                // side is dropped (which is what winds the pump down).
                let pump = std::thread::spawn(move || broker.pump_until_closed());
                Ok(OpenRound {
                    engine_side: EngineSide::Shared(Box::new(SharedLink::new(sup_endpoint))),
                    local_links: links,
                    fault_logs: logs,
                    pump: Some(pump),
                })
            }
            TransportKind::Remote => Err(SchemeError::InvalidConfig {
                reason: "the in-process backend cannot serve the remote transport; \
                         connect a RemoteGridBackend and call run_fleet_on",
            }),
        }
    }

    fn close_round(&mut self, _slots: usize) -> Result<Vec<SlotReport>, SchemeError> {
        Ok(Vec::new())
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
    patience: std::time::Duration,
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
            patience: std::time::Duration::from_secs(30),
        }
    }

    /// Overrides how long [`close_round`](TransportBackend::close_round)
    /// waits for each participant cost report before reporting the grid
    /// dead. A hang guard only — tests shorten it to fail fast; it never
    /// feeds verdicts or digests.
    #[must_use]
    pub fn with_patience(mut self, patience: std::time::Duration) -> Self {
        self.patience = patience;
        self
    }
}

impl TransportBackend for RemoteGridBackend {
    fn kind(&self) -> TransportKind {
        TransportKind::Remote
    }

    fn open_round(&mut self, spec: &RoundSpec<'_>) -> Result<OpenRound, SchemeError> {
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
        Ok(OpenRound {
            engine_side: EngineSide::Shared(Box::new(SharedLink::new(link))),
            local_links: Vec::new(),
            fault_logs: Vec::new(),
            pump: None,
        })
    }

    fn close_round(&mut self, slots: usize) -> Result<Vec<SlotReport>, SchemeError> {
        let mut reports = Vec::with_capacity(slots);
        while reports.len() < slots {
            // The patience window is a hang guard for a participant
            // process that died without reporting (its sessions already
            // failed with `Gone`); it is never an input to verdicts or
            // digests — a report either arrives or the round errors.
            let frame = self
                .control
                .recv_timeout(self.patience)?
                .ok_or(SchemeError::TimedOut)?;
            reports.push(SlotReport::decode(&frame)?);
        }
        // Global-slot order is the in-process participant-result order.
        reports.sort_by_key(|r| r.slot);
        Ok(reports)
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

    #[test]
    fn in_process_backend_refuses_remote() {
        let mut backend = InProcessBackend::new(TransportKind::Remote);
        let err = backend
            .open_round(&RoundSpec {
                round: 0,
                routing_ids: &[0],
                chaos: None,
            })
            .err()
            .expect("backend must refuse this round");
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
        let err = backend
            .open_round(&RoundSpec {
                round: 0,
                routing_ids: &[0],
                chaos: Some(FaultPlan::chaos(1)),
            })
            .err()
            .expect("backend must refuse this round");
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
        let opened = backend
            .open_round(&RoundSpec {
                round: 0,
                routing_ids: &[0],
                chaos: None,
            })
            .unwrap();
        assert!(opened.local_links.is_empty());
        let err = backend
            .open_round(&RoundSpec {
                round: 1,
                routing_ids: &[0],
                chaos: None,
            })
            .err()
            .expect("backend must refuse this round");
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
    }
}
