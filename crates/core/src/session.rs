//! Message-driven protocol sessions: the engine-facing face of every
//! verification scheme.
//!
//! Each scheme in this crate is defined by two explicit state machines —
//! one per side of the wire — that consume and produce
//! [`Message`]s. All five share one frame: the supervisor assigns every
//! slot its share, the scheme's *middle* runs, and the supervisor sends
//! every slot one verdict. The frame owns both ends — the `Assign`s, the
//! `Verdict`s, the outcome and the participant's `AwaitVerdict → Done`
//! tail — and a scheme is only its middle. CBS's:
//!
//! ```text
//!                  supervisor session            participant session
//!  frame    start: Assign ────────────────────▶  AwaitAssign
//!  middle          AwaitCommit  ◀── Commit ────  evaluate f, build tree
//!                  Challenge ─────────────────▶  AwaitChallenge
//!                  AwaitProofs ◀─── Proofs ────  prove samples
//!                  AwaitReports ◀── Reports ───  AwaitVerdict
//!                  verify → outcome
//!  frame           Verdict ───────────────────▶  Done(accepted)
//! ```
//!
//! A session never blocks: it is handed one inbound message at a time and
//! answers with the messages to send, so hundreds of sessions — different
//! schemes, different behaviours — interleave over one transport. Each
//! participant slot is addressed by the task id its supervisor session
//! was given ([`SupervisorContext::task_ids`]); messages travel exactly as
//! the sessions produce them. The
//! [`SessionEngine`](crate::engine::SessionEngine) multiplexes supervisor
//! sessions over in-memory links or a [`Broker`](ugc_grid::Broker); every
//! participant session runs as one participant slot of a
//! [`TransportBackend`](crate::TransportBackend) round, fed one message at
//! a time by the backend's one participant step — by its shard's engine in
//! this process or in a `ugc participant join` process. [`drive_participant`]
//! and [`drive_supervisor`] are thin blocking loops that run a single
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

use crate::backend::step;
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
    /// An error, like mail before `start`, ends the session: it answers
    /// all later calls as it would after its verdict, never yields an
    /// outcome, and callers drop it.
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
    /// only: the commitment, the proofs, every ledger count and therefore
    /// every campaign digest are the same at any setting, so hosts with
    /// different core counts agree.
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
        expected: expected.into(),
        got: message_kind(got).into(),
    })
}

/// Runs a participant session to completion over a blocking link — a raw
/// [`Endpoint`] or any [`GridLink`] decorator (e.g. the fault-injecting
/// [`FaultyEndpoint`](ugc_grid::FaultyEndpoint) of the chaos runtime).
/// A thin blocking loop over the one participant step every slot takes,
/// pooled or joined.
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
        if let Some(outcome) = step(|out| endpoint.send(out), session, endpoint.recv()?) {
            return outcome;
        }
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
                reason: "session addressed a slot with no endpoint".into(),
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
/// rang is answered, as the engine's in-process transport does.
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
    use crate::backend::{Slot, SlotReport};
    use crate::scheme::cbs::CbsScheme;
    use ugc_grid::runtime::TaskPoll;
    use ugc_grid::{duplex, Doorbell, Endpoint, HonestWorker, LinkStats};
    use ugc_hash::Sha256;
    use ugc_task::workloads::PasswordSearch;
    use ugc_task::MatchScreener;

    /// A four-sample CBS scheme.
    const CBS_4: CbsScheme = CbsScheme {
        samples: 4,
        seed: 1,
        report_audit: 0,
    };

    /// An honest participant session of `scheme`.
    fn honest<'a>(
        scheme: &'a dyn VerificationScheme<Sha256>,
        task: &'a PasswordSearch,
        screener: &'a MatchScreener,
        ledger: CostLedger,
    ) -> Box<dyn ParticipantSession + 'a> {
        scheme.participant_session(ParticipantContext {
            task,
            screener,
            behaviour: &HonestWorker,
            storage: crate::ParticipantStorage::Full,
            parallelism: Parallelism::serial(),
            lanes: LaneWidth::default(),
            ledger,
        })
    }

    /// [`honest`] as participant slot 5.
    fn honest_slot<'a>(
        scheme: &'a dyn VerificationScheme<Sha256>,
        task: &'a PasswordSearch,
        screener: &'a MatchScreener,
    ) -> Slot<'a> {
        let ledger = CostLedger::new();
        Slot::new(5, honest(scheme, task, screener, ledger.clone()), ledger)
    }

    /// A participant's link that counts the charge of what crosses it.
    struct CountingLink(Endpoint, std::sync::Mutex<LinkStats>);

    impl GridLink for CountingLink {
        fn send(&self, msg: &Message) -> Result<(), GridError> {
            self.0.send(msg)?;
            let mut stats = self.1.lock().unwrap();
            stats.bytes_sent += msg.charged();
            stats.messages_sent += 1;
            Ok(())
        }

        fn recv(&self) -> Result<Message, GridError> {
            unreachable!("a slot only drains")
        }

        fn try_recv(&self) -> Result<Message, GridError> {
            let msg = self.0.try_recv()?;
            let mut stats = self.1.lock().unwrap();
            stats.bytes_received += msg.charged();
            stats.messages_received += 1;
            Ok(msg)
        }

        fn subscribe(&self, bell: &Doorbell, key: usize) {
            self.0.subscribe(bell, key);
        }
    }

    /// Runs one honest CBS round with the participant slot drained
    /// `budget` messages at a time, returning the supervisor's outcome,
    /// the participant link's traffic and the slot's report.
    fn cbs_round_with_budget(budget: usize) -> (SessionOutcome, LinkStats, SlotReport) {
        let task = PasswordSearch::with_hidden_password(1, 42);
        let screener = task.match_screener();
        let scheme = CbsScheme {
            samples: 12,
            seed: 7,
            report_audit: 0,
        };
        let (sup_ep, part_ep) = duplex();
        let part_ep = CountingLink(part_ep, std::sync::Mutex::default());
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
            let mut slot = honest_slot(&scheme, &task, &screener);
            let report = loop {
                match slot.drain(&part_ep, budget) {
                    TaskPoll::Complete => break slot.report(),
                    TaskPoll::Progress => {}
                    TaskPoll::Idle => std::thread::yield_now(),
                }
            };
            assert_eq!(
                report.outcome,
                Ok(true),
                "honest participant must be accepted"
            );
            let stats = *part_ep.1.lock().unwrap();
            (supervisor.join().unwrap(), stats, report)
        })
    }

    #[test]
    fn batched_step_matches_single_step_exactly() {
        let (single_outcome, single_stats, single_report) = cbs_round_with_budget(1);
        assert!(single_outcome.verdict.is_accepted());
        assert_eq!(single_outcome.reports.len(), 1);
        for budget in [2usize, 4, 64] {
            let (outcome, stats, report) = cbs_round_with_budget(budget);
            assert_eq!(outcome, single_outcome, "budget {budget}");
            assert_eq!(stats, single_stats, "budget {budget}");
            assert_eq!(report, single_report, "budget {budget}");
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
        fn send(&self, _msg: &Message) -> Result<(), GridError> {
            Err(GridError::Disconnected)
        }

        fn recv(&self) -> Result<Message, GridError> {
            self.try_recv()
        }

        fn try_recv(&self) -> Result<Message, GridError> {
            let next = self.0.lock().unwrap().pop_front();
            next.ok_or(GridError::Disconnected)
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
        let session = || honest(&scheme, &task, &screener, CostLedger::new());
        for accepted in [true, false] {
            let verdict = Message::Verdict {
                task_id: 5,
                accepted,
            };
            let hung_up = || HungUpLink::holding(&[&assign, &verdict]);

            let link = hung_up();
            let mut polled = honest_slot(&scheme, &task, &screener);
            let result = loop {
                match polled.drain(&link, 1) {
                    TaskPoll::Complete => break polled.report().outcome,
                    TaskPoll::Progress => {}
                    TaskPoll::Idle => panic!("a hung-up link is never merely idle"),
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
        let mut slot = honest_slot(&CBS_4, &task, &screener);
        assert!(matches!(slot.drain(&part_ep, 1), TaskPoll::Idle));
        assert!(matches!(slot.drain(&part_ep, 8), TaskPoll::Idle));
    }

    #[test]
    #[should_panic(expected = "non-zero message budget")]
    fn zero_budget_batch_panics() {
        let (_sup, part_ep) = duplex();
        let task = PasswordSearch::with_hidden_password(1, 3);
        let screener = task.match_screener();
        let _ = honest_slot(&CBS_4, &task, &screener).drain(&part_ep, 0);
    }
}
