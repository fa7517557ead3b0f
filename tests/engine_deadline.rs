//! The contract of `SessionEngine::with_deadline`, pinned on both kinds of
//! in-process round: per-participant links and one shared link into a
//! broker.
//!
//! * A session whose peer never answers fails with `TimedOut` — not
//!   before the deadline, and well within a second after it.
//! * The clock is per session and restarts with every message: a peer
//!   that answers five times, each a little under half a deadline after
//!   the last, is never timed out although the whole dialogue takes two.
//! * One silent session fails alone; its neighbours finish.
//!
//! Sessions and peers are hand-written, so nothing here depends on a
//! scheme's timing — only on when the engine looks at its clocks.

use std::sync::mpsc;
use std::time::{Duration, Instant};
use uncheatable_grid::core::engine::SessionEngine;
use uncheatable_grid::core::session::Outbound;
use uncheatable_grid::core::{
    InProcessBackend, ParticipantSession, RoundSpec, SchemeError, SessionOutcome,
    SupervisorSession, TransportBackend, TransportKind, Verdict,
};
use uncheatable_grid::grid::{Assignment, CostLedger, Message};
use uncheatable_grid::task::Domain;

const DEADLINE: Duration = Duration::from_millis(500);

/// Far longer than any scenario takes; only a lost wake-up reaches it.
const PATIENCE: Duration = Duration::from_secs(60);

/// Assigns its task, then waits for `wanted` replies of any kind, echoing
/// each back so the peer can pace the next.
struct Counting {
    task_id: u64,
    wanted: usize,
    heard: usize,
}

impl SupervisorSession for Counting {
    fn start(&mut self) -> Result<Vec<Outbound>, SchemeError> {
        let assign = Message::Assign(Assignment {
            task_id: self.task_id,
            domain: Domain::new(0, 1),
        });
        Ok(vec![(0, assign)])
    }

    fn on_message(&mut self, _slot: usize, msg: Message) -> Result<Vec<Outbound>, SchemeError> {
        self.heard += 1;
        Ok(vec![(0, msg)])
    }

    fn take_outcome(&mut self) -> Option<SessionOutcome> {
        (self.heard >= self.wanted).then(|| SessionOutcome {
            verdict: Verdict::Accepted,
            reports: Vec::new(),
        })
    }
}

/// What one scripted peer does: once its assignment arrives, send
/// `replies` messages, each `gap` after the last one's echo. It never
/// finishes, so it keeps its link open until the supervisor side hangs
/// up and a closure never ends a session.
#[derive(Clone, Copy)]
struct Peer {
    replies: usize,
    gap: Duration,
}

const SILENT: Peer = Peer {
    replies: 0,
    gap: Duration::ZERO,
};

/// Answers five times, 0.4 deadlines apart: two deadlines in all.
const STEADY: Peer = Peer {
    replies: 5,
    gap: Duration::from_millis(200),
};

/// A [`Peer`] as a participant session.
struct Scripted {
    peer: Peer,
    sent: usize,
}

impl ParticipantSession for Scripted {
    fn on_message(&mut self, msg: Message) -> Result<Vec<Message>, SchemeError> {
        if self.sent == self.peer.replies {
            return Ok(Vec::new());
        }
        std::thread::sleep(self.peer.gap);
        self.sent += 1;
        Ok(vec![Message::Verdict {
            task_id: msg.task_id(),
            accepted: true,
        }])
    }

    fn finished(&self) -> Option<bool> {
        None
    }
}

/// Runs one session per peer under `DEADLINE` over `kind`, returning the
/// outcomes and how long the round ran.
fn run(
    kind: TransportKind,
    peers: &[Peer],
) -> (Vec<Result<SessionOutcome, SchemeError>>, Duration) {
    let peers = peers.to_vec();
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let mut engine = SessionEngine::new().with_deadline(DEADLINE);
        for (task_id, peer) in (0u64..).zip(&peers) {
            let session = Counting {
                task_id,
                wanted: peer.replies.max(1),
                heard: 0,
            };
            engine
                .add_session(Box::new(session), vec![task_id])
                .unwrap();
        }
        let slot = |k: u64, _: CostLedger| -> Box<dyn ParticipantSession> {
            let peer = peers[usize::try_from(k).unwrap()];
            Box::new(Scripted { peer, sent: 0 })
        };
        // One worker per peer, so a sleeping peer never holds up another.
        let spec = RoundSpec {
            round: 0,
            slots: peers.len(),
            chaos: None,
            workers: Some(peers.len()),
            steal_seed: 0,
        };
        // ugc-lint: allow(wall-clock): test-harness stopwatch — asserts when the timeout fires, not any semantic result
        let started = Instant::now();
        let round = InProcessBackend::new(kind)
            .run_round(&spec, engine, &slot)
            .unwrap();
        let took = started.elapsed();
        let outcomes = round.sessions.into_iter().map(|r| r.outcome).collect();
        let _ = done.send((outcomes, took));
    });
    finished
        .recv_timeout(PATIENCE)
        .expect("the engine panicked or never returned: a wake-up was lost")
}

fn accepted(outcome: &Result<SessionOutcome, SchemeError>) -> bool {
    outcome.as_ref().is_ok_and(|o| o.verdict.is_accepted())
}

#[test]
fn a_silent_peer_times_out_after_the_deadline_and_not_long_after() {
    for kind in [TransportKind::Direct, TransportKind::Brokered] {
        let (outcomes, took) = run(kind, &[SILENT]);
        assert_eq!(outcomes, vec![Err(SchemeError::TimedOut)], "{kind:?}");
        assert!(
            took >= DEADLINE,
            "{kind:?}: timed out early, after {took:?}"
        );
        assert!(
            took < DEADLINE + Duration::from_secs(1),
            "{kind:?}: timed out late, after {took:?}"
        );
    }
}

#[test]
fn every_message_restarts_the_sessions_clock() {
    for kind in [TransportKind::Direct, TransportKind::Brokered] {
        let (outcomes, took) = run(kind, &[STEADY]);
        assert!(accepted(&outcomes[0]), "{kind:?}: {outcomes:?}");
        assert!(
            took >= 2 * DEADLINE,
            "{kind:?}: the dialogue outlasts one deadline ({took:?})"
        );
    }
}

#[test]
fn one_silent_session_does_not_fail_its_neighbours() {
    for kind in [TransportKind::Direct, TransportKind::Brokered] {
        let (outcomes, _) = run(kind, &[STEADY, STEADY, SILENT, STEADY]);
        assert_eq!(outcomes[2], Err(SchemeError::TimedOut), "{kind:?}");
        for neighbour in [0, 1, 3] {
            assert!(
                accepted(&outcomes[neighbour]),
                "{kind:?}: session {neighbour}: {:?}",
                outcomes[neighbour]
            );
        }
    }
}
