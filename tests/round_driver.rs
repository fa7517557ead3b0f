//! The one round driver, `scheme::run_round` — a one-member campaign on
//! the session engine: what each scheme's own copy of a duplex +
//! scoped-thread + join loop once promised, asserted once for all five
//! schemes.

use std::borrow::Cow;
use std::sync::Mutex;
use uncheatable_grid::core::scheme::run_round;
use uncheatable_grid::core::session::Outbound;
use uncheatable_grid::core::{
    FleetScheme, MixedFleetConfig, Parallelism, ParticipantContext, ParticipantSession,
    RoundOutcome, SchemeError, SessionOutcome, SupervisorContext, SupervisorSession,
    VerificationScheme,
};
use uncheatable_grid::grid::{HonestWorker, Message, WorkerBehaviour};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{ComputeTask, Domain};

/// What a [`Probe`] breaks in the round it wraps.
#[derive(Clone, Copy, PartialEq)]
enum Sabotage {
    Nothing,
    /// The supervisor session refuses to start: no assignment is ever
    /// sent, so every participant is left blocked on its first recv.
    SupervisorStart,
    /// Every participant session fails on the verdict it is sent — after
    /// the supervisor has finished successfully.
    ParticipantVerdict,
    /// Every participant session fails on the first message it is sent,
    /// before replying: all its supervisor ever sees is the hang-up.
    ParticipantFirstMessage,
}

/// Wraps a scheme to watch (the task id on each `Assign`) or break (see
/// [`Sabotage`]) one round through [`run_round`].
struct Probe<'s> {
    inner: &'s dyn VerificationScheme<Sha256>,
    sabotage: Sabotage,
    assigned: Mutex<Vec<u64>>,
}

impl VerificationScheme<Sha256> for Probe<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn participant_slots(&self) -> usize {
        self.inner.participant_slots()
    }

    fn supervisor_session<'a>(
        &'a self,
        ctx: SupervisorContext<'a>,
    ) -> Box<dyn SupervisorSession + 'a> {
        if self.sabotage == Sabotage::SupervisorStart {
            Box::new(RefusingSupervisor)
        } else {
            self.inner.supervisor_session(ctx)
        }
    }

    fn participant_session<'a>(
        &'a self,
        ctx: ParticipantContext<'a>,
    ) -> Box<dyn ParticipantSession + 'a> {
        Box::new(ProbeParticipant {
            inner: self.inner.participant_session(ctx),
            probe: self,
        })
    }
}

const REFUSED: SchemeError = SchemeError::InvalidConfig {
    reason: Cow::Borrowed("probe: supervisor refused to start"),
};
const CHOKED: SchemeError = SchemeError::MalformedPayload {
    what: Cow::Borrowed("probe: participant choked on a message"),
};

struct RefusingSupervisor;

impl SupervisorSession for RefusingSupervisor {
    fn start(&mut self) -> Result<Vec<Outbound>, SchemeError> {
        Err(REFUSED)
    }

    fn on_message(&mut self, _slot: usize, _msg: Message) -> Result<Vec<Outbound>, SchemeError> {
        Err(REFUSED)
    }

    fn take_outcome(&mut self) -> Option<SessionOutcome> {
        None
    }
}

struct ProbeParticipant<'a> {
    inner: Box<dyn ParticipantSession + 'a>,
    probe: &'a Probe<'a>,
}

impl ParticipantSession for ProbeParticipant<'_> {
    fn on_message(&mut self, msg: Message) -> Result<Vec<Message>, SchemeError> {
        match (&msg, self.probe.sabotage) {
            (_, Sabotage::ParticipantFirstMessage)
            | (Message::Verdict { .. }, Sabotage::ParticipantVerdict) => return Err(CHOKED),
            (Message::Assign(assignment), _) => {
                self.probe.assigned.lock().unwrap().push(assignment.task_id);
            }
            _ => {}
        }
        self.inner.on_message(msg)
    }

    fn finished(&self) -> Option<bool> {
        self.inner.finished()
    }
}

#[test]
fn round_driver_contract_holds_for_every_scheme() {
    // The scheme, then the messages an honest round's supervisor sends
    // and receives, summed over its slots.
    let table = [
        // Assign, Challenge, Verdict / Commit, Proofs, Reports
        (
            FleetScheme::Cbs {
                samples: 6,
                report_audit: 0,
            },
            3,
            3,
        ),
        // Assign, Verdict / CommitAndProofs, Reports
        (
            FleetScheme::NiCbs {
                samples: 6,
                g_iterations: 1,
                report_audit: 0,
            },
            2,
            2,
        ),
        // Assign, Verdict / AllResults
        (FleetScheme::Naive { samples: 6 }, 2, 1),
        // Assign, RingerChallenge, Verdict / RingerFound, Reports
        (FleetScheme::Ringer { ringers: 4 }, 3, 2),
        // the naive dialogue, once per replica
        (FleetScheme::DoubleCheck, 4, 2),
    ];
    let task = PasswordSearch::with_hidden_password(3, 5);
    let screener = task.match_screener();
    let domain = Domain::new(0, 64);
    let config = MixedFleetConfig {
        parallelism: Parallelism::serial(),
        ..MixedFleetConfig::default()
    };
    let run = |scheme: &dyn VerificationScheme<Sha256>,
               behaviours: &[&dyn WorkerBehaviour]|
     -> Result<RoundOutcome, SchemeError> {
        run_round::<Sha256>(scheme, &task, &screener, domain, behaviours, &config)
    };
    for (scheme, sent, received) in table {
        let scheme = scheme.instantiate::<Sha256>(3);
        let (name, slots) = (scheme.name(), scheme.participant_slots());
        let behaviours = vec![&HonestWorker as &dyn WorkerBehaviour; slots];
        let probed = |sabotage| {
            let probe = Probe {
                inner: scheme.as_ref(),
                sabotage,
                assigned: Mutex::new(Vec::new()),
            };
            let result = run(&probe, &behaviours);
            let mut assigned = probe.assigned.into_inner().unwrap();
            assigned.sort_unstable();
            (result, assigned)
        };

        // Each slot receives exactly one `Assign`, under the id the
        // engine gave that slot; link stats and participant costs are
        // sums over slots (double-check: both replicas' uploads, both
        // replicas' work).
        let (outcome, assigned) = probed(Sabotage::Nothing);
        let outcome = outcome.unwrap();
        assert!(outcome.accepted, "{name}");
        assert_eq!(assigned, (0..slots as u64).collect::<Vec<_>>(), "{name}");
        assert_eq!(outcome.supervisor_link.messages_sent, sent, "{name}");
        assert_eq!(
            outcome.supervisor_link.messages_received, received,
            "{name}"
        );
        assert_eq!(
            outcome.participant_costs.f_evals,
            slots as u64 * domain.len() * task.unit_cost(),
            "{name}"
        );

        // A supervisor that bails before assigning anything: the call
        // returns (the engine side is dropped before the pool is joined,
        // so the waiting participants see the hang-up) with the
        // supervisor's error, not the participants' consequent
        // Disconnected.
        let (result, assigned) = probed(Sabotage::SupervisorStart);
        assert_eq!(result.unwrap_err(), REFUSED, "{name}");
        assert!(assigned.is_empty(), "{name}");

        // A participant error surfaces only because the supervisor
        // succeeded.
        let (result, _) = probed(Sabotage::ParticipantVerdict);
        assert_eq!(result.unwrap_err(), CHOKED, "{name}");

        // …or because the supervisor's own failure is nothing but the
        // echo of it: the cause is reported, not the hang-up it caused.
        let (result, _) = probed(Sabotage::ParticipantFirstMessage);
        assert_eq!(result.unwrap_err(), CHOKED, "{name}");
    }

    // A behaviour list that does not fill the scheme's slots is refused
    // before anything runs.
    let replicas = FleetScheme::DoubleCheck.instantiate::<Sha256>(3);
    let err = run(replicas.as_ref(), &[&HonestWorker]).unwrap_err();
    assert!(matches!(err, SchemeError::InvalidConfig { .. }));
}
