//! The one session frame every scheme runs in.
//!
//! The frame writes the two ends of every exchange once — the `Assign`s
//! and `Verdict`s, the outcome and `take_outcome` on the supervisor side,
//! the `AwaitVerdict → Done` tail and `finished` on the participant side —
//! and hands everything between to the scheme's [`SupervisorMiddle`] /
//! [`ParticipantMiddle`].
//!
//! A middle is transitions over a state the frame keeps: each call takes
//! the state it was in and returns the next. The frame is generic over
//! its middle and boxed once, so no message costs a second `dyn` call.

use crate::scheme::check_task;
use crate::session::{
    unexpected, Outbound, ParticipantContext, ParticipantSession, SessionOutcome,
    SupervisorContext, SupervisorSession,
};
use crate::SchemeError;
use ugc_grid::{Assignment, GridError, Message};

/// What a finished session tells a message it expected.
const FINISHED: &str = "nothing (session finished)";

/// What a supervisor middle opens with: its first state, and any message
/// that follows the assignment on slot 0.
pub(crate) type Opened<S> = Result<(S, Option<Message>), SchemeError>;

/// A participant middle's answer to one message: the replies, and the
/// state it runs on in — `None` once it awaits the verdict.
pub(crate) type Reply<S> = Result<(Vec<Message>, Option<S>), SchemeError>;

/// A supervisor middle's answer to one message.
pub(crate) enum Step<S> {
    /// The middle runs on in state `S`, sending these messages.
    Next(S, Vec<Outbound>),
    /// The middle has decided: the frame announces the verdict.
    Decided(SessionOutcome),
}

/// What one scheme's supervisor does between its `Assign`s and its
/// `Verdict`.
pub(crate) trait SupervisorMiddle: Send {
    /// What the middle keeps between messages.
    type State: Send;

    /// Participant slots one session spans; the frame assigns each one
    /// (missing task ids are 0) and sends each the verdict.
    const SLOTS: usize = 1;

    /// What mail after the verdict is told the session expected.
    const FINISHED: &'static str = FINISHED;

    /// Checks the scheme's configuration and opens the middle: its first
    /// state, and any message that follows the assignment on slot 0.
    fn open(&self, ctx: &SupervisorContext<'_>) -> Opened<Self::State>;

    /// Feeds one message from slot `slot` to the middle in `state`.
    fn on_message(
        &self,
        ctx: &SupervisorContext<'_>,
        state: Self::State,
        slot: usize,
        msg: Message,
    ) -> Result<Step<Self::State>, SchemeError>;

    /// [`SupervisorSession::is_stale`], in `state` (`None` once the
    /// session has decided).
    fn is_stale(
        &self,
        ctx: &SupervisorContext<'_>,
        state: Option<&Self::State>,
        slot: usize,
        msg: &Message,
    ) -> bool {
        let _ = (ctx, state, slot, msg);
        false
    }

    /// [`SupervisorSession::on_peer_gone`], in `state` (`None` once the
    /// session has decided).
    fn on_peer_gone(&self, state: Option<&Self::State>, slot: usize) -> Result<(), SchemeError> {
        let _ = (state, slot);
        Err(SchemeError::Grid(GridError::Disconnected))
    }
}

/// What one scheme's participant does between the `Assign` it receives
/// and the `Verdict` it awaits. Each call returns the replies and the
/// state the middle runs on in, or `None` once it awaits the verdict.
pub(crate) trait ParticipantMiddle: Send {
    /// What the middle keeps between messages.
    type State: Send;

    /// Handles the assignment.
    fn on_assign(&self, ctx: &ParticipantContext<'_>, assignment: Assignment)
        -> Reply<Self::State>;

    /// Feeds one later message of task `task_id` to the middle in `state`.
    fn on_message(
        &self,
        ctx: &ParticipantContext<'_>,
        task_id: u64,
        state: Self::State,
        msg: Message,
    ) -> Reply<Self::State>;
}

/// A supervisor session: the frame around middle `M`.
pub(crate) struct SupervisorFrame<'a, M: SupervisorMiddle> {
    middle: M,
    ctx: SupervisorContext<'a>,
    /// The middle's state while it runs; `None` before `start` and once
    /// the session has decided or failed.
    state: Option<M::State>,
    outcome: Option<SessionOutcome>,
}

impl<'a, M: SupervisorMiddle + 'a> SupervisorFrame<'a, M> {
    pub(crate) fn boxed(
        middle: M,
        mut ctx: SupervisorContext<'a>,
    ) -> Box<dyn SupervisorSession + 'a> {
        ctx.task_ids.resize(M::SLOTS, 0);
        Box::new(SupervisorFrame {
            middle,
            ctx,
            state: None,
            outcome: None,
        })
    }

    /// One message to every slot, made from the slot's task id.
    fn to_every_slot<'s>(
        &'s self,
        msg: impl Fn(u64) -> Message + 's,
    ) -> impl Iterator<Item = Outbound> + 's {
        self.ctx.task_ids.iter().map(move |&id| msg(id)).enumerate()
    }
}

impl<M: SupervisorMiddle> SupervisorSession for SupervisorFrame<'_, M> {
    fn start(&mut self) -> Result<Vec<Outbound>, SchemeError> {
        let (state, follow) = self.middle.open(&self.ctx)?;
        let mut out = Vec::with_capacity(M::SLOTS + usize::from(follow.is_some()));
        let domain = self.ctx.domain;
        out.extend(self.to_every_slot(|task_id| Message::Assign(Assignment { task_id, domain })));
        out.extend(follow.map(|msg| (0, msg)));
        self.state = Some(state);
        Ok(out)
    }

    fn on_message(&mut self, slot: usize, msg: Message) -> Result<Vec<Outbound>, SchemeError> {
        let Some(state) = self.state.take() else {
            return unexpected(M::FINISHED, &msg);
        };
        match self.middle.on_message(&self.ctx, state, slot, msg)? {
            Step::Next(state, out) => {
                self.state = Some(state);
                Ok(out)
            }
            Step::Decided(outcome) => {
                let accepted = outcome.verdict.is_accepted();
                self.outcome = Some(outcome);
                Ok(self
                    .to_every_slot(|task_id| Message::Verdict { task_id, accepted })
                    .collect())
            }
        }
    }

    fn is_stale(&self, slot: usize, msg: &Message) -> bool {
        self.middle
            .is_stale(&self.ctx, self.state.as_ref(), slot, msg)
    }

    fn on_peer_gone(&mut self, slot: usize) -> Result<(), SchemeError> {
        self.middle.on_peer_gone(self.state.as_ref(), slot)
    }

    fn take_outcome(&mut self) -> Option<SessionOutcome> {
        self.outcome.take()
    }
}

/// Where a participant session stands.
enum Stage<S> {
    AwaitAssign,
    Middle { task_id: u64, state: S },
    AwaitVerdict { task_id: u64 },
    Done(bool),
}

/// A participant session: the frame around middle `M`.
pub(crate) struct ParticipantFrame<'a, M: ParticipantMiddle> {
    middle: M,
    ctx: ParticipantContext<'a>,
    stage: Stage<M::State>,
}

impl<'a, M: ParticipantMiddle + 'a> ParticipantFrame<'a, M> {
    pub(crate) fn boxed(
        middle: M,
        ctx: ParticipantContext<'a>,
    ) -> Box<dyn ParticipantSession + 'a> {
        Box::new(ParticipantFrame {
            middle,
            ctx,
            stage: Stage::AwaitAssign,
        })
    }
}

impl<M: ParticipantMiddle> ParticipantSession for ParticipantFrame<'_, M> {
    fn on_message(&mut self, msg: Message) -> Result<Vec<Message>, SchemeError> {
        // A message that fails the session leaves it awaiting an
        // assignment; a finished one stays finished.
        let (task_id, (out, next)) = match std::mem::replace(&mut self.stage, Stage::AwaitAssign) {
            Stage::AwaitAssign => {
                let Message::Assign(assignment) = msg else {
                    return unexpected("Assign", &msg);
                };
                let task_id = assignment.task_id;
                (task_id, self.middle.on_assign(&self.ctx, assignment)?)
            }
            Stage::Middle { task_id, state } => (
                task_id,
                self.middle.on_message(&self.ctx, task_id, state, msg)?,
            ),
            Stage::AwaitVerdict { task_id } => {
                let Message::Verdict {
                    task_id: tid,
                    accepted,
                } = msg
                else {
                    return unexpected("Verdict", &msg);
                };
                check_task(task_id, tid)?;
                self.stage = Stage::Done(accepted);
                return Ok(Vec::new());
            }
            done @ Stage::Done(_) => {
                self.stage = done;
                return unexpected(FINISHED, &msg);
            }
        };
        self.stage = match next {
            Some(state) => Stage::Middle { task_id, state },
            None => Stage::AwaitVerdict { task_id },
        };
        Ok(out)
    }

    fn finished(&self) -> Option<bool> {
        match self.stage {
            Stage::Done(accepted) => Some(accepted),
            _ => None,
        }
    }
}
