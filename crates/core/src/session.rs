//! Message-driven protocol sessions: the engine-facing face of every
//! verification scheme.
//!
//! Each scheme in this crate is defined by two explicit state machines —
//! one per side of the wire — that consume and produce
//! [`Message`]s:
//!
//! ```text
//!               supervisor session            participant session
//!  start() ──▶  Assign ────────────────────▶  evaluate f, build tree
//!               AwaitCommit  ◀── Commit ────  AwaitChallenge
//!               Challenge ─────────────────▶  prove samples
//!               AwaitProofs ◀─── Proofs ────  AwaitVerdict
//!               AwaitReports ◀── Reports ───
//!               verify, Verdict ───────────▶  Done(accepted)
//!               Done(verdict, reports)
//! ```
//!
//! A session never blocks: it is handed one inbound message at a time and
//! answers with the messages to send, so hundreds of sessions — different
//! schemes, different behaviours — interleave over one transport. Each
//! participant slot is addressed by the task id its supervisor session
//! was given ([`SupervisorContext::task_ids`]); messages travel exactly as
//! the sessions produce them. The
//! [`SessionEngine`](crate::engine::SessionEngine) multiplexes supervisor
//! sessions over direct links or a [`Broker`](ugc_grid::Broker); the
//! participant side is symmetric: [`step_participant_batch`] advances one
//! session by a few queued messages without blocking (what the in-process
//! backend's scheduler pool calls), while [`drive_participant`] and
//! [`drive_supervisor`] are thin blocking loops that run a single
//! session to completion over one endpoint — the blocking reference the
//! engine is compared against (`tests/scheme_equivalence.rs`) and what a
//! test plays a hostile peer against; nothing the library itself runs goes
//! through them ([`run_round`](crate::scheme::run_round), too, is the
//! engine).
//!
//! # Example: one CBS round, session by session
//!
//! ```
//! use ugc_core::scheme::cbs::CbsScheme;
//! use ugc_core::session::{
//!     drive_participant, drive_supervisor, ParticipantContext, SupervisorContext,
//!     VerificationScheme,
//! };
//! use ugc_core::{LaneWidth, ParticipantStorage, Parallelism};
//! use ugc_grid::{duplex, CostLedger, HonestWorker};
//! use ugc_hash::Sha256;
//! use ugc_task::{workloads::PasswordSearch, Domain};
//!
//! let task = PasswordSearch::with_hidden_password(1, 42);
//! let screener = task.match_screener();
//! let scheme = CbsScheme { samples: 12, seed: 7, report_audit: 0 };
//! let (sup_ep, part_ep) = duplex();
//!
//! let outcome = std::thread::scope(|scope| {
//!     scope.spawn(|| {
//!         let mut session =
//!             VerificationScheme::<Sha256>::participant_session(&scheme, ParticipantContext {
//!                 task: &task,
//!                 screener: &screener,
//!                 behaviour: &HonestWorker,
//!                 storage: ParticipantStorage::Full,
//!                 parallelism: Parallelism::serial(),
//!                 lanes: LaneWidth::default(),
//!                 ledger: CostLedger::new(),
//!             });
//!         drive_participant(&part_ep, session.as_mut())
//!     });
//!     let mut session =
//!         VerificationScheme::<Sha256>::supervisor_session(&scheme, SupervisorContext {
//!             task: &task,
//!             screener: &screener,
//!             domain: Domain::new(0, 128),
//!             task_ids: vec![1],
//!             ledger: CostLedger::new(),
//!         });
//!     drive_supervisor(&[&sup_ep], session.as_mut())
//! })?;
//! assert!(outcome.verdict.is_accepted());
//! assert_eq!(outcome.reports[0].input, 42); // the password surfaced
//! # Ok::<(), ugc_core::SchemeError>(())
//! ```

use crate::error::message_kind;
use crate::{SchemeError, Verdict};
use ugc_grid::{CostLedger, Doorbell, Endpoint, GridError, GridLink, Message, WorkerBehaviour};
use ugc_hash::HashFunction;
use ugc_merkle::{LaneWidth, Parallelism};
use ugc_task::{ComputeTask, Domain, ScreenReport, Screener};

use crate::ParticipantStorage;

/// What a completed supervisor session decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOutcome {
    /// The accept/reject decision.
    pub verdict: Verdict,
    /// The screened reports received during the session.
    pub reports: Vec<ScreenReport>,
}

/// A message to send, addressed to one of the session's participant slots
/// (slot 0 for every single-participant scheme; double-check uses 0 and 1).
pub type Outbound = (usize, Message);

/// The supervisor side of one verification session, as a state machine.
///
/// The driver (engine or blocking loop) calls [`start`](Self::start) once,
/// then feeds every inbound message to [`on_message`](Self::on_message) and
/// transmits whatever comes back, until [`take_outcome`](Self::take_outcome)
/// yields the verdict. Errors are protocol failures (cheating is a verdict,
/// never an error).
pub trait SupervisorSession: Send {
    /// Messages to send when the session opens (e.g. the assignment).
    ///
    /// # Errors
    ///
    /// Invalid configuration (the session never starts).
    fn start(&mut self) -> Result<Vec<Outbound>, SchemeError>;

    /// Feeds one inbound message from participant slot `slot`; returns the
    /// messages to send in response.
    ///
    /// # Errors
    ///
    /// Unexpected message kinds, task-id mismatches, malformed payloads.
    fn on_message(&mut self, slot: usize, msg: Message) -> Result<Vec<Outbound>, SchemeError>;

    /// Whether `msg` from slot `slot` is a redundant redelivery the
    /// session neither needs nor charges — e.g. a fault-injected
    /// duplicate of an upload this session already holds. Stale mail is
    /// dropped by the drivers *before* byte accounting, so whether the
    /// duplicate lands before or after the session completes (a
    /// cross-link race for multi-peer sessions) cannot change the
    /// session's attributed traffic. The default treats nothing as
    /// stale.
    fn is_stale(&self, slot: usize, msg: &Message) -> bool {
        let _ = (slot, msg);
        false
    }

    /// Notifies the session that participant slot `slot` is gone (its
    /// link closed, or the broker NACKed its task): nothing more will
    /// ever arrive from it. Return `Ok(())` if the session can still
    /// complete without that peer — a multi-peer session whose dead slot
    /// had already delivered everything it owed must say so here, or the
    /// verdict would depend on whether the death notice raced the other
    /// slots' messages across links.
    ///
    /// # Errors
    ///
    /// The default fails the session with
    /// [`GridError::Disconnected`](ugc_grid::GridError), which is right
    /// for every single-peer session: it cannot finish without its peer.
    fn on_peer_gone(&mut self, slot: usize) -> Result<(), SchemeError> {
        let _ = slot;
        Err(SchemeError::Grid(GridError::Disconnected))
    }

    /// The verdict and collected reports, once the session has finished.
    /// Returns `None` while the session still awaits messages.
    fn take_outcome(&mut self) -> Option<SessionOutcome>;
}

/// The participant side of one verification session, as a state machine.
pub trait ParticipantSession: Send {
    /// Feeds one inbound message; returns the replies to send.
    ///
    /// # Errors
    ///
    /// Unexpected message kinds, task-id mismatches, Merkle failures.
    fn on_message(&mut self, msg: Message) -> Result<Vec<Message>, SchemeError>;

    /// `Some(accepted)` once the supervisor's verdict has arrived.
    fn finished(&self) -> Option<bool>;
}

/// Everything a supervisor session needs from its environment.
pub struct SupervisorContext<'a> {
    /// The compute task being verified.
    pub task: &'a dyn ComputeTask,
    /// The screener that defines "results of interest".
    pub screener: &'a dyn Screener,
    /// The sub-domain assigned to this session's participant(s).
    pub domain: Domain,
    /// One wire task id per participant slot
    /// ([`VerificationScheme::participant_slots`] entries).
    pub task_ids: Vec<u64>,
    /// Supervisor-side cost accounting (clones share counters).
    pub ledger: CostLedger,
}

/// Everything a participant session needs from its environment.
pub struct ParticipantContext<'a> {
    /// The compute task being evaluated.
    pub task: &'a dyn ComputeTask,
    /// The screener that defines "results of interest".
    pub screener: &'a dyn Screener,
    /// How this participant actually behaves (honest, cheating, malicious).
    pub behaviour: &'a dyn WorkerBehaviour,
    /// Merkle-tree storage mode (Section 3.3).
    pub storage: ParticipantStorage,
    /// Worker threads a full-storage tree build may use. Wall-clock time
    /// only: the commitment, the proofs, every ledger count (including
    /// `hash_wall_ops`) and therefore every campaign digest are the same
    /// at any setting, so hosts with different core counts agree.
    pub parallelism: Parallelism,
    /// Message-parallel digest lane width for tree builds and sample
    /// hashing (bit-identical results at any setting).
    pub lanes: LaneWidth,
    /// Participant-side cost accounting (clones share counters).
    pub ledger: CostLedger,
}

/// One verification scheme, defined by the pair of session state machines
/// it installs on each side of the grid transport.
///
/// All five schemes of the evaluation — naive sampling, double-check,
/// ringers, CBS and NI-CBS — implement this trait, so one
/// [`SessionEngine`](crate::engine::SessionEngine) event loop drives any
/// mix of them over any transport;
/// [`run_round`](crate::scheme::run_round) runs a single one as a
/// one-member campaign on it.
pub trait VerificationScheme<H: HashFunction>: Send + Sync {
    /// Scheme name for reports and tables.
    fn name(&self) -> &'static str;

    /// How many participants one session of this scheme occupies
    /// (2 for double-check, 1 for everything else).
    fn participant_slots(&self) -> usize {
        1
    }

    /// Builds the supervisor-side state machine for one session.
    fn supervisor_session<'a>(
        &'a self,
        ctx: SupervisorContext<'a>,
    ) -> Box<dyn SupervisorSession + 'a>;

    /// Builds the participant-side state machine for one session slot.
    fn participant_session<'a>(
        &'a self,
        ctx: ParticipantContext<'a>,
    ) -> Box<dyn ParticipantSession + 'a>;
}

/// Fails with the uniform "expected X, got Y" error the schemes raise on
/// out-of-order messages.
pub(crate) fn unexpected<T>(expected: &'static str, got: &Message) -> Result<T, SchemeError> {
    Err(SchemeError::UnexpectedMessage {
        expected,
        got: message_kind(got),
    })
}

/// What one non-blocking [`step_participant_batch`] call accomplished.
///
/// This is the participant-side mirror of the engine's event-loop
/// verdicts: `Progress` means "poll me again soon", `Idle` means "park
/// me until traffic may have arrived", `Complete` carries the session's
/// final result. The grid scheduler
/// ([`GridScheduler`](ugc_grid::runtime::GridScheduler)) maps these
/// one-to-one onto its
/// [`TaskPoll`](ugc_grid::runtime::TaskPoll) run-queue verdicts.
#[derive(Debug)]
pub enum SessionPoll {
    /// An inbound message was consumed (and any replies sent); the
    /// session may have more mail queued, so poll again soon.
    Progress,
    /// No inbound message is waiting; nothing to do until the peer
    /// speaks.
    Idle,
    /// The session ended: `Ok(accepted)` once the verdict arrived, or
    /// the transport/protocol error that killed it (including this
    /// participant's own injected crash).
    Complete(Result<bool, SchemeError>),
}

/// Feeds one inbound message to a participant session, as it arrived,
/// and sends the replies unchanged.
fn pump_participant<L: GridLink + ?Sized>(
    endpoint: &L,
    session: &mut (dyn ParticipantSession + '_),
    msg: Message,
) -> Result<(), SchemeError> {
    let mut failure: Option<SchemeError> = None;
    for out in session.on_message(msg)? {
        // Attempt the whole burst even once a send has failed: each
        // outbound message consumes a fault-schedule sequence number
        // (logged before the wire is touched), so the replay log must
        // not depend on *when* the peer disappeared — that is a
        // wall-clock race against the round's teardown, and it would
        // otherwise make the fault log vary with worker count.
        match endpoint.send(&out) {
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
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Advances a participant session by up to `budget` inbound messages
/// without ever blocking — the poll-driven face of the participant side,
/// scheduled by a campaign's worker pool exactly as the
/// [`SessionEngine`](crate::engine::SessionEngine) multiplexes the
/// supervisor side. One scheduler dispatch (one trip through the link's
/// lock and fault decorator per message, but only one run-queue round
/// trip) drains a whole burst of queued mail instead of bouncing the
/// task through the run queue once per message.
///
/// Each message is received, fed to the session and answered in exactly
/// the order the blocking [`drive_participant`] loop would use, so
/// fault-schedule draws, ledgers and verdicts are bit-identical at any
/// budget (property-tested in this module and pinned by the golden
/// digests of `tests/scheduler_equivalence.rs`). The call returns early
/// on [`SessionPoll::Idle`] (queue drained; `Progress` instead if the
/// batch consumed at least one message first, so the scheduler re-polls
/// before parking) or [`SessionPoll::Complete`] — `Ok(accepted)` once the
/// verdict arrived, otherwise the error that ended the session: a
/// protocol violation, this participant's own injected crash, or the
/// peer's hang-up, which the link reports only after everything the peer
/// sent first has been consumed.
///
/// # Panics
///
/// Panics if `budget` is zero — a zero-message step could neither make
/// progress nor legitimately report `Idle`.
pub fn step_participant_batch<L: GridLink + ?Sized>(
    endpoint: &L,
    session: &mut (dyn ParticipantSession + '_),
    budget: usize,
) -> SessionPoll {
    assert!(budget > 0, "batched step needs a non-zero message budget");
    for consumed in 0..budget {
        if let Some(accepted) = session.finished() {
            return SessionPoll::Complete(Ok(accepted));
        }
        let msg = match endpoint.try_recv() {
            Ok(msg) => msg,
            Err(GridError::Empty) if consumed > 0 => return SessionPoll::Progress,
            Err(GridError::Empty) => return SessionPoll::Idle,
            Err(e) => return SessionPoll::Complete(Err(e.into())),
        };
        if let Err(e) = pump_participant(endpoint, session, msg) {
            return SessionPoll::Complete(Err(e));
        }
    }
    match session.finished() {
        Some(accepted) => SessionPoll::Complete(Ok(accepted)),
        None => SessionPoll::Progress,
    }
}

/// Runs a participant session to completion over a blocking link — a raw
/// [`Endpoint`] or any [`GridLink`] decorator (e.g. the fault-injecting
/// [`FaultyEndpoint`](ugc_grid::FaultyEndpoint) of the chaos runtime).
/// A thin blocking wrapper over the same message pump that powers the
/// non-blocking [`step_participant_batch`].
///
/// # Errors
///
/// Transport failures (including the peer disconnecting mid-protocol, or
/// this participant's own injected crash) and any protocol error the
/// session raises.
pub fn drive_participant<L: GridLink + ?Sized>(
    endpoint: &L,
    session: &mut (dyn ParticipantSession + '_),
) -> Result<bool, SchemeError> {
    loop {
        if let Some(accepted) = session.finished() {
            return Ok(accepted);
        }
        pump_participant(endpoint, session, endpoint.recv()?)?;
    }
}

/// Runs a supervisor session to completion over blocking endpoints, one
/// per participant slot.
///
/// Every wait sleeps until one of the endpoints rings, however many there
/// are (two for the double-check supervisor).
///
/// # Errors
///
/// Transport failures and any protocol error the session raises, plus
/// [`SchemeError::InvalidConfig`] if the endpoint count does not match the
/// session's slots.
pub fn drive_supervisor(
    endpoints: &[&Endpoint],
    session: &mut (dyn SupervisorSession + '_),
) -> Result<SessionOutcome, SchemeError> {
    let send_all = |outs: Vec<Outbound>| -> Result<(), SchemeError> {
        for (slot, msg) in outs {
            let endpoint = endpoints.get(slot).ok_or(SchemeError::InvalidConfig {
                reason: "session addressed a slot with no endpoint",
            })?;
            endpoint.send(&msg)?;
        }
        Ok(())
    };
    send_all(session.start()?)?;
    loop {
        if let Some(outcome) = session.take_outcome() {
            return Ok(outcome);
        }
        let (slot, msg) = recv_any(endpoints)?;
        if session.is_stale(slot, &msg) {
            continue; // redundant redelivery: dropped, as the engine does
        }
        send_all(session.on_message(slot, msg)?)?;
    }
}

/// Receives the next message from any of the given endpoints, with its
/// slot index: the endpoints ring one local [`Doorbell`] and the one that
/// rang is answered, as the engine's direct transport does.
fn recv_any(endpoints: &[&Endpoint]) -> Result<(usize, Message), SchemeError> {
    let bell = Doorbell::new();
    for (slot, endpoint) in endpoints.iter().enumerate() {
        endpoint.subscribe(&bell, slot);
    }
    // Every open endpoint still owes at least its hang-up ring.
    let mut open = vec![true; endpoints.len()];
    while open.contains(&true) {
        let slot = bell.wait();
        match endpoints[slot].try_recv() {
            Ok(msg) => return Ok((slot, msg)),
            Err(GridError::Empty) => {}
            Err(GridError::Disconnected) => open[slot] = false,
            Err(e) => return Err(e.into()),
        }
    }
    Err(SchemeError::Grid(GridError::Disconnected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::cbs::CbsScheme;
    use ugc_grid::{duplex, HonestWorker, LinkStats};
    use ugc_hash::Sha256;
    use ugc_task::workloads::PasswordSearch;

    /// Runs one honest CBS round with the participant stepped `budget`
    /// messages at a time, returning the supervisor's outcome and the
    /// participant link's traffic counters.
    fn cbs_round_with_budget(budget: usize) -> (SessionOutcome, LinkStats) {
        let task = PasswordSearch::with_hidden_password(1, 42);
        let screener = task.match_screener();
        let scheme = CbsScheme {
            samples: 12,
            seed: 7,
            report_audit: 0,
        };
        let (sup_ep, part_ep) = duplex();
        std::thread::scope(|scope| {
            let supervisor = scope.spawn(|| {
                let mut session = VerificationScheme::<Sha256>::supervisor_session(
                    &scheme,
                    SupervisorContext {
                        task: &task,
                        screener: &screener,
                        domain: ugc_task::Domain::new(0, 128),
                        task_ids: vec![1],
                        ledger: CostLedger::new(),
                    },
                );
                drive_supervisor(&[&sup_ep], session.as_mut()).unwrap()
            });
            let mut session = VerificationScheme::<Sha256>::participant_session(
                &scheme,
                ParticipantContext {
                    task: &task,
                    screener: &screener,
                    behaviour: &HonestWorker,
                    storage: crate::ParticipantStorage::Full,
                    parallelism: Parallelism::serial(),
                    lanes: LaneWidth::default(),
                    ledger: CostLedger::new(),
                },
            );
            loop {
                match step_participant_batch(&part_ep, session.as_mut(), budget) {
                    SessionPoll::Complete(result) => {
                        assert!(result.unwrap(), "honest participant must be accepted");
                        break;
                    }
                    SessionPoll::Progress => {}
                    SessionPoll::Idle => std::thread::yield_now(),
                }
            }
            let stats = part_ep.stats();
            (supervisor.join().unwrap(), stats)
        })
    }

    #[test]
    fn batched_step_matches_single_step_exactly() {
        let (single_outcome, single_stats) = cbs_round_with_budget(1);
        assert!(single_outcome.verdict.is_accepted());
        assert_eq!(single_outcome.reports.len(), 1);
        for budget in [2usize, 4, 64] {
            let (outcome, stats) = cbs_round_with_budget(budget);
            assert_eq!(outcome, single_outcome, "budget {budget}");
            assert_eq!(stats, single_stats, "budget {budget}");
        }
    }

    /// A link whose peer sent everything it had to say and hung up: the
    /// inbox still holds that mail, every send reports the hang-up, and a
    /// receive reports it only once the inbox is empty.
    struct HungUpLink(std::sync::Mutex<std::collections::VecDeque<Message>>);

    impl HungUpLink {
        fn holding(mail: &[&Message]) -> Self {
            HungUpLink(std::sync::Mutex::new(
                mail.iter().copied().cloned().collect(),
            ))
        }
    }

    impl GridLink for HungUpLink {
        fn send_counted(&self, _msg: &Message) -> Result<u64, GridError> {
            Err(GridError::Disconnected)
        }

        fn recv_counted(&self) -> Result<(Message, u64), GridError> {
            self.try_recv_counted()
        }

        fn try_recv_counted(&self) -> Result<(Message, u64), GridError> {
            let next = self.0.lock().unwrap().pop_front();
            next.map(|msg| (msg, 0)).ok_or(GridError::Disconnected)
        }

        fn stats(&self) -> LinkStats {
            LinkStats::default()
        }

        fn subscribe(&self, _bell: &ugc_grid::Doorbell, _key: usize) {}
    }

    #[test]
    fn peer_hang_up_on_send_does_not_strand_queued_mail() {
        // The supervisor verified the first copy of a duplicated upload,
        // sent its verdict and left before the second copy's send: the
        // verdict is in the inbox, and receiving it (which is where a
        // fault-decorated link draws its inbound decision) must not
        // depend on the send having failed first.
        let task = PasswordSearch::with_hidden_password(1, 3);
        let screener = task.match_screener();
        let scheme = crate::scheme::naive::NaiveScheme {
            samples: 4,
            seed: 1,
        };
        let assign = Message::Assign(ugc_grid::Assignment {
            task_id: 5,
            domain: ugc_task::Domain::new(0, 16),
        });
        let session = || {
            VerificationScheme::<Sha256>::participant_session(
                &scheme,
                ParticipantContext {
                    task: &task,
                    screener: &screener,
                    behaviour: &HonestWorker,
                    storage: crate::ParticipantStorage::Full,
                    parallelism: Parallelism::serial(),
                    lanes: LaneWidth::default(),
                    ledger: CostLedger::new(),
                },
            )
        };
        for accepted in [true, false] {
            let verdict = Message::Verdict {
                task_id: 5,
                accepted,
            };
            let hung_up = || HungUpLink::holding(&[&assign, &verdict]);

            let link = hung_up();
            let mut polled = session();
            let result = loop {
                match step_participant_batch(&link, polled.as_mut(), 1) {
                    SessionPoll::Complete(result) => break result,
                    SessionPoll::Progress => {}
                    SessionPoll::Idle => panic!("a hung-up link is never merely idle"),
                }
            };
            assert_eq!(result, Ok(accepted));
            assert!(link.0.lock().unwrap().is_empty(), "verdict stranded");

            assert_eq!(
                drive_participant(&hung_up(), session().as_mut()),
                Ok(accepted)
            );
        }
        // With nothing queued behind the failed send the hang-up still
        // ends the session, on the receive that finds the inbox empty.
        assert_eq!(
            drive_participant(&HungUpLink::holding(&[&assign]), session().as_mut()),
            Err(SchemeError::Grid(GridError::Disconnected))
        );
    }

    #[test]
    fn batch_budget_one_is_single_step() {
        // With budget 1 the batch wrapper must be *literally* the single
        // stepper: an empty queue reports Idle, never Progress.
        let (_sup, part_ep) = duplex();
        let task = PasswordSearch::with_hidden_password(1, 3);
        let screener = task.match_screener();
        let scheme = CbsScheme {
            samples: 4,
            seed: 1,
            report_audit: 0,
        };
        let mut session = VerificationScheme::<Sha256>::participant_session(
            &scheme,
            ParticipantContext {
                task: &task,
                screener: &screener,
                behaviour: &HonestWorker,
                storage: crate::ParticipantStorage::Full,
                parallelism: Parallelism::serial(),
                lanes: LaneWidth::default(),
                ledger: CostLedger::new(),
            },
        );
        assert!(matches!(
            step_participant_batch(&part_ep, session.as_mut(), 1),
            SessionPoll::Idle
        ));
        assert!(matches!(
            step_participant_batch(&part_ep, session.as_mut(), 8),
            SessionPoll::Idle
        ));
    }

    #[test]
    #[should_panic(expected = "non-zero message budget")]
    fn zero_budget_batch_panics() {
        let (_sup, part_ep) = duplex();
        let task = PasswordSearch::with_hidden_password(1, 3);
        let screener = task.match_screener();
        let scheme = CbsScheme {
            samples: 4,
            seed: 1,
            report_audit: 0,
        };
        let mut session = VerificationScheme::<Sha256>::participant_session(
            &scheme,
            ParticipantContext {
                task: &task,
                screener: &screener,
                behaviour: &HonestWorker,
                storage: crate::ParticipantStorage::Full,
                parallelism: Parallelism::serial(),
                lanes: LaneWidth::default(),
                ledger: CostLedger::new(),
            },
        );
        let _ = step_participant_batch(&part_ep, session.as_mut(), 0);
    }
}
