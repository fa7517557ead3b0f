//! A GRACE-style Grid Resource Broker (GRB).
//!
//! Section 4 of the paper motivates the non-interactive CBS scheme with the
//! GRACE architecture (Buyya 2002): the supervisor hands bulk work to a
//! broker and never talks to participants directly, so the commit →
//! challenge round-trip of interactive CBS is unavailable. This broker
//! relays assignments outward and results inward, and its relay counters
//! demonstrate that NI-CBS needs exactly one participant → supervisor
//! delivery per task.
//!
//! Routing is by task id, the only address a participant slot has. The
//! broker keeps an ordered `task → participant` map, pinned when it
//! relays a task's assignment, so relaying a message is one `O(log n)`
//! probe regardless of how many tasks are in flight. Outward, the map
//! picks the participant; inward, it decides whether the participant may
//! speak for that task at all: a message is relayed only when its task is
//! routed to the participant that sent it, and a participant's
//! [`Message::Gone`] never is — that NACK is the broker's own, so no
//! participant can fail or impersonate a slot another one holds. The map
//! is a `BTreeMap` rather than a `HashMap` deliberately: when a
//! participant dies, every task still routed to it is NACKed, and an
//! ordered map makes that NACK order ascending by construction — one less
//! place where unspecified iteration order could leak into the
//! supervisor-visible message sequence.
//!
//! One pump drives it over every kind of link. [`pump`](Broker::pump)
//! subscribes the supervisor and every participant to one [`Doorbell`]
//! ([`GridLink::subscribe`]) and relays one frame per ring: its cost per
//! message does not depend on how many participants sit idle, and mail is
//! served in arrival order, so no chatty participant can starve another.
//! The in-process brokered transport runs it over [`Endpoint`]s
//! ([`pump_until_closed`](Broker::pump_until_closed)); `ugc broker serve`
//! runs the same loop over [`TcpLink`](crate::TcpLink)s, handing it a
//! hook for what only a cross-process relay has — control frames to
//! forward and late joiners to admit. The step-at-a-time calls
//! ([`try_relay_outward`](Broker::try_relay_outward),
//! [`try_relay_inward`](Broker::try_relay_inward), which sweeps the
//! participants from a rotating cursor) relay exactly as the pump does,
//! for callers that drive a broker by hand on one thread.

use crate::{Doorbell, Endpoint, GridError, GridLink, Message};
use std::collections::BTreeMap;

/// Relay statistics for a broker run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayStats {
    /// Messages relayed supervisor → participant.
    pub outward: u64,
    /// Messages relayed participant → supervisor.
    pub inward: u64,
}

/// A store-and-forward broker between one supervisor and many participants.
///
/// The broker pins each task to the participant it dispatched it to and
/// routes by [`Message::task_id`]; the supervisor never learns which
/// participant served which task (the paper's "GRB hides the
/// participants" property).
#[derive(Debug)]
pub struct Broker<L: GridLink = Endpoint> {
    supervisor: L,
    participants: Vec<L>,
    /// task id → participant index; ordered so route iteration (the
    /// death-NACK sweep) is deterministic by construction.
    routes: BTreeMap<u64, usize>,
    /// Next participant to receive a fresh assignment (round-robin).
    next: usize,
    /// Where the next [`try_relay_inward`](Self::try_relay_inward) sweep
    /// starts (fairness cursor).
    inward_cursor: usize,
    /// Participants observed disconnected with their queues drained.
    closed: Vec<bool>,
    stats: RelayStats,
}

impl<L: GridLink> Broker<L> {
    /// Creates a broker with its supervisor-side link and participant links.
    ///
    /// The broker is generic over the link type: the in-process runtime
    /// relays between [`Endpoint`]s, while `ugc broker serve` runs the
    /// identical relay over [`TcpLink`](crate::TcpLink)s.
    ///
    /// # Panics
    ///
    /// Panics if no participants are supplied.
    #[must_use]
    pub fn new(supervisor: L, participants: Vec<L>) -> Self {
        assert!(
            !participants.is_empty(),
            "broker needs at least one participant"
        );
        let closed = vec![false; participants.len()];
        Broker {
            supervisor,
            participants,
            routes: BTreeMap::new(),
            next: 0,
            inward_cursor: 0,
            closed,
            stats: RelayStats::default(),
        }
    }

    /// Adds a freshly connected participant (a late joiner or a
    /// reconnect) as a round-robin target for future assignments, and
    /// returns its index. Tasks NACKed when a predecessor died are *not*
    /// replayed — the supervisor's retry round reassigns them, which is
    /// how reconnect-with-NACK composes with [`Message::Gone`].
    pub fn add_participant(&mut self, link: L) -> usize {
        self.participants.push(link);
        self.closed.push(false);
        self.participants.len() - 1
    }

    /// Relay statistics so far.
    #[must_use]
    pub fn stats(&self) -> RelayStats {
        self.stats
    }

    fn route_of(&self, task_id: u64) -> Option<usize> {
        self.routes.get(&task_id).copied()
    }

    /// Whether participant `idx` may send `msg` up: only for a task routed
    /// to it, and never a `Gone` (the broker's NACK, not a participant's).
    fn speaks_for(&self, idx: usize, msg: &Message) -> bool {
        !matches!(msg, Message::Gone { .. }) && self.route_of(msg.task_id()) == Some(idx)
    }

    /// Marks participant `idx` gone and NACKs every task still routed to
    /// it with a [`Message::Gone`], so a multiplexing supervisor can fail
    /// those sessions instead of waiting forever. Errors sending the NACK
    /// (supervisor also gone) are ignored — there is nobody left to tell.
    fn mark_gone(&mut self, idx: usize) {
        if std::mem::replace(&mut self.closed[idx], true) {
            return; // already reported
        }
        // Ascending task-id order falls out of the BTreeMap — no
        // compensating sort needed for the NACKs to be deterministic.
        let orphaned: Vec<u64> = self
            .routes
            .iter()
            .filter(|(_, &i)| i == idx)
            .map(|(&id, _)| id)
            .collect();
        for task_id in orphaned {
            self.routes.remove(&task_id);
            let _ = self.supervisor.send(&Message::Gone { task_id });
        }
    }

    /// Picks the destination for one supervisor message: assignments pin a
    /// fresh round-robin route (skipping participants known to be gone),
    /// everything else follows its recorded one.
    fn dispatch(&mut self, msg: &Message) -> Result<usize, GridError> {
        if matches!(msg, Message::Assign(_)) {
            let n = self.participants.len();
            let mut idx = self.next;
            for _ in 0..n {
                idx = self.next;
                self.next = (self.next + 1) % n;
                if !self.closed[idx] {
                    break;
                }
                // Everyone may be gone; then the caller NACKs.
            }
            self.routes.insert(msg.task_id(), idx);
            Ok(idx)
        } else {
            self.route_of(msg.task_id()).ok_or(GridError::Empty)
        }
    }

    /// Relays one queued supervisor message if any is waiting; `Ok(false)`
    /// when the supervisor queue is momentarily empty. Assignments go
    /// round-robin, everything else (challenges, verdicts) follows its
    /// task's recorded route. A message routed to an already-disconnected
    /// participant is dropped (and the task NACKed with [`Message::Gone`])
    /// rather than treated as fatal, as a store-and-forward broker drops
    /// mail for a dead host.
    ///
    /// # Errors
    ///
    /// [`GridError::Empty`] if a non-assignment message references an
    /// unknown task, other transport errors towards a participant, and
    /// [`GridError::Disconnected`] once the *supervisor* endpoint is gone.
    pub fn try_relay_outward(&mut self) -> Result<bool, GridError> {
        let msg = match self.supervisor.try_recv() {
            Ok(msg) => msg,
            Err(GridError::Empty) => return Ok(false),
            Err(e) => return Err(e),
        };
        let idx = self.dispatch(&msg)?;
        // A link that queues its sends accepts mail for a peer already
        // known to be gone, so the closed mark decides first; the send
        // failing is how an unreported death is found.
        let delivered = !self.closed[idx]
            && match self.participants[idx].send(&msg) {
                Ok(()) => true,
                Err(GridError::Disconnected) => false,
                Err(e) => return Err(e),
            };
        if delivered {
            self.stats.outward += 1;
        } else {
            // NACK this task explicitly first: mark_gone is a no-op on a
            // participant already reported gone, but this message's
            // route may be brand new (an Assign that raced the death).
            let task_id = msg.task_id();
            self.routes.remove(&task_id);
            let _ = self.supervisor.send(&Message::Gone { task_id });
            self.mark_gone(idx);
        }
        Ok(true)
    }

    /// Relays one queued message from participant `idx`, if it has one.
    /// `Ok(None)` when its queue is momentarily empty — or when it has
    /// hung up with its queue drained, which also NACKs its tasks — and
    /// when the message was not the participant's to send
    /// ([`speaks_for`](Self::speaks_for)): such mail is dropped, neither
    /// relayed nor counted.
    fn try_relay_inward_from(&mut self, idx: usize) -> Result<Option<Message>, GridError> {
        match self.participants[idx].try_recv() {
            Ok(msg) if self.speaks_for(idx, &msg) => {
                self.supervisor.send(&msg)?;
                self.stats.inward += 1;
                Ok(Some(msg))
            }
            Ok(_) | Err(GridError::Empty) => Ok(None),
            Err(GridError::Disconnected) => {
                self.mark_gone(idx);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Relays at most one queued participant message, polling participants
    /// round-robin from a rotating cursor so every participant gets equal
    /// service under load. Returns the relayed message, or `None` if no
    /// participant had anything relayable queued (a message a participant
    /// may not send is dropped on the way).
    ///
    /// # Errors
    ///
    /// Transport errors from the supervisor side; a disconnected
    /// participant is skipped (its queued messages were already drained).
    pub fn try_relay_inward(&mut self) -> Result<Option<Message>, GridError> {
        let n = self.participants.len();
        for probe in 0..n {
            let idx = (self.inward_cursor + probe) % n;
            if let Some(msg) = self.try_relay_inward_from(idx)? {
                // Advance past the served participant: strict rotation.
                self.inward_cursor = (idx + 1) % n;
                return Ok(Some(msg));
            }
        }
        Ok(None)
    }
}

impl<L: GridLink> Broker<L> {
    /// The key the supervisor's link rings while the broker is pumped;
    /// participant `i` rings `i`. Any other key on the bell is the
    /// caller's own.
    pub const SUPERVISOR_KEY: usize = usize::MAX;

    /// [`pump`](Self::pump) on a bell of its own, for a relay with
    /// nothing else to wait for — the pump a session engine runs on its
    /// own thread while it multiplexes sessions over the supervisor link.
    #[must_use]
    pub fn pump_until_closed(self) -> RelayStats {
        self.pump(&Doorbell::new(), |_| None)
    }

    /// Drives the broker until the supervisor has hung up and all queued
    /// traffic is drained, sleeping on `bell` between messages.
    /// Messages addressed to an already-disconnected peer are dropped
    /// (the task NACKed), as a real store-and-forward broker would drop
    /// mail for a dead host; once the supervisor is gone, undeliverable
    /// inward mail is likewise dropped — and once the outward queue is
    /// drained too, the pump returns, which closes the participant links
    /// and lets blocked participants observe the disconnect.
    ///
    /// Every ring is also shown to `on_ring`, after the broker has served
    /// it: a relay whose links carry more than messages looks at the rest
    /// there (participant `i`'s control plane on key `i`), and rings keys
    /// of its own on `bell` for events the broker knows nothing of. A
    /// link `on_ring` returns joins as a fresh round-robin target
    /// ([`add_participant`](Self::add_participant)), subscribed like the
    /// others.
    pub fn pump(
        mut self,
        bell: &Doorbell,
        mut on_ring: impl FnMut(usize) -> Option<L>,
    ) -> RelayStats {
        // Each ring is answered with one `try_recv` on that link, so mail
        // is relayed in arrival order; a ring that finds its link empty
        // announced a frame an earlier ring already served, and is
        // ignored.
        self.supervisor.subscribe(bell, Self::SUPERVISOR_KEY);
        for (key, link) in self.participants.iter().enumerate() {
            link.subscribe(bell, key);
        }
        // The supervisor hanging up is observed separately per direction,
        // and the two sightings mean different things. Outward:
        // `try_relay_outward` reports `Disconnected` only once the
        // supervisor's queue is fully drained (a channel reports closure
        // only when empty), so nothing can still need relaying down, and
        // nothing the broker could still relay up is deliverable:
        // returning drops the participant links, which is what unblocks
        // any participant still waiting on an orphaned session. Inward: a
        // failed supervisor send says replies have nowhere to go — but
        // verdicts the engine queued *before* hanging up may still be
        // waiting on the outward side, and abandoning them would make each
        // participant's final inbound message (and with it the fault log)
        // a race between the engine's last sends and the round's
        // teardown. So the inward sighting silences only the inward
        // direction; the pump keeps draining outward until that side
        // reports closure itself.
        let mut inward_dead = false;
        loop {
            let key = bell.wait();
            let served = if key == Self::SUPERVISOR_KEY {
                self.try_relay_outward().map(|_| ())
            } else if key < self.participants.len() && !inward_dead {
                self.try_relay_inward_from(key).map(|_| ())
            } else {
                Ok(())
            };
            match served {
                Ok(()) => {}
                Err(GridError::Disconnected) if key == Self::SUPERVISOR_KEY => return self.stats,
                // Supervisor gone: inward mail has nowhere to go.
                Err(GridError::Disconnected) => inward_dead = true,
                // Unroutable or malformed mail is dropped, not fatal. But
                // the ring is spent and the error may have been the
                // link's last word (a socket reports what killed it once,
                // where a frame would have been), so look again.
                Err(_) => bell.ring(key),
            }
            if let Some(link) = on_ring(key) {
                link.subscribe(bell, self.participants.len());
                self.add_participant(link);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{duplex, Assignment};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use ugc_task::Domain;

    /// Builds a supervisor endpoint, a broker, and participant endpoints.
    fn rig(n: usize) -> (Endpoint, Broker, Vec<Endpoint>) {
        let (sup, broker_up) = duplex();
        let mut broker_down = Vec::new();
        let mut parts = Vec::new();
        for _ in 0..n {
            let (b, p) = duplex();
            broker_down.push(b);
            parts.push(p);
        }
        (sup, Broker::new(broker_up, broker_down), parts)
    }

    fn assign(task_id: u64) -> Message {
        Message::Assign(Assignment {
            task_id,
            domain: Domain::new(0, 8),
        })
    }

    /// Relays `count` queued supervisor messages, each one delivered.
    fn relay_out<L: GridLink>(broker: &mut Broker<L>, count: usize) {
        for _ in 0..count {
            assert!(broker.try_relay_outward().unwrap(), "nothing queued");
        }
    }

    #[test]
    fn assignments_round_robin() {
        let (sup, mut broker, parts) = rig(3);
        for id in 0..6u64 {
            sup.send(&assign(id)).unwrap();
        }
        relay_out(&mut broker, 6);
        for (i, p) in parts.iter().enumerate() {
            let first = p.recv().unwrap();
            let second = p.recv().unwrap();
            assert_eq!(first.task_id(), i as u64);
            assert_eq!(second.task_id(), (i + 3) as u64);
        }
        assert_eq!(broker.stats().outward, 6);
    }

    #[test]
    fn replies_route_back_by_task() {
        let (sup, mut broker, parts) = rig(2);
        sup.send(&assign(10)).unwrap();
        sup.send(&assign(11)).unwrap();
        relay_out(&mut broker, 2);
        // Task 11 went to participant 1, which answers first.
        for p in parts.iter().rev() {
            let Message::Assign(a) = p.recv().unwrap() else {
                panic!("expected assignment")
            };
            p.send(&Message::Commit {
                task_id: a.task_id,
                root: vec![a.task_id as u8; 16],
            })
            .unwrap();
        }
        // Each reply comes from the participant its task is pinned to, so
        // both go up, in sweep order.
        let relayed = broker.try_relay_inward().unwrap().unwrap();
        assert_eq!(relayed.task_id(), 10);
        let relayed = broker.try_relay_inward().unwrap().unwrap();
        assert_eq!(relayed.task_id(), 11);
        assert_eq!(sup.recv().unwrap().task_id(), 10);
        assert_eq!(sup.recv().unwrap().task_id(), 11);
        assert_eq!(broker.stats().inward, 2);
    }

    #[test]
    fn verdicts_follow_recorded_route() {
        let (sup, mut broker, parts) = rig(2);
        sup.send(&assign(7)).unwrap();
        relay_out(&mut broker, 1);
        let _ = parts[0].recv().unwrap();
        sup.send(&Message::Verdict {
            task_id: 7,
            accepted: true,
        })
        .unwrap();
        relay_out(&mut broker, 1);
        assert!(matches!(
            parts[0].recv().unwrap(),
            Message::Verdict { task_id: 7, .. }
        ));
        // Participant 1 must have received nothing.
        assert!(parts[1].try_recv().is_err());
    }

    #[test]
    fn unknown_task_route_fails() {
        let (sup, mut broker, _parts) = rig(1);
        sup.send(&Message::Verdict {
            task_id: 99,
            accepted: false,
        })
        .unwrap();
        assert_eq!(broker.try_relay_outward().unwrap_err(), GridError::Empty);
    }

    #[test]
    fn a_participant_speaks_only_for_the_tasks_it_holds() {
        // Participant 0 holds task 0 and participant 1 task 1. Participant
        // 0 reports task 1 dead, forges its commitment and reports its own
        // task dead too: none of it is relayed or counted, and participant
        // 1's own reply still goes up.
        let (sup, mut broker, parts) = rig(2);
        sup.send(&assign(0)).unwrap();
        sup.send(&assign(1)).unwrap();
        relay_out(&mut broker, 2);
        let commit = |task_id| Message::Commit {
            task_id,
            root: vec![7; 16],
        };
        for p in &parts {
            let _ = p.recv().unwrap();
        }
        for hostile in [
            Message::Gone { task_id: 1 },
            commit(1),
            Message::Gone { task_id: 0 },
        ] {
            parts[0].send(&hostile).unwrap();
        }
        parts[1].send(&commit(1)).unwrap();
        let relayed: Vec<Message> = (0..6)
            .filter_map(|_| broker.try_relay_inward().unwrap())
            .collect();
        assert_eq!(relayed, [commit(1)]);
        assert_eq!(broker.stats().inward, 1);
        assert_eq!(sup.recv().unwrap(), commit(1));
        assert_eq!(sup.try_recv(), Err(GridError::Empty));
    }

    #[test]
    fn interleaved_multi_session_relay_is_fair_and_indexed() {
        // Four sessions in flight at once, replies arriving interleaved:
        // the rotating cursor must serve every participant each sweep, and
        // indexed routing must deliver each reply regardless of order.
        let (sup, mut broker, parts) = rig(4);
        for id in 0..4u64 {
            sup.send(&assign(id)).unwrap();
        }
        relay_out(&mut broker, 4);
        // Every participant queues two replies before any relay happens.
        for (i, p) in parts.iter().enumerate() {
            let _ = p.recv().unwrap();
            for round in 0..2u64 {
                p.send(&Message::Commit {
                    task_id: i as u64,
                    root: vec![round as u8; 8],
                })
                .unwrap();
            }
        }
        // Fair polling: the first full sweep yields one message from each
        // participant (0,1,2,3), not two from participant 0.
        let mut order = Vec::new();
        while let Some(msg) = broker.try_relay_inward().unwrap() {
            order.push(msg.task_id());
        }
        assert_eq!(order, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(broker.stats().inward, 8);
        // The supervisor sees all eight, in relay order.
        for expected in [0u64, 1, 2, 3, 0, 1, 2, 3] {
            assert_eq!(sup.recv().unwrap().task_id(), expected);
        }
        // A lone later reply is found wherever the cursor stands.
        parts[2]
            .send(&Message::Reports {
                task_id: 2,
                reports: vec![],
            })
            .unwrap();
        assert_eq!(broker.try_relay_inward().unwrap().unwrap().task_id(), 2);
    }

    #[test]
    fn pump_drains_both_directions_then_exits() {
        let (sup, broker, parts) = rig(2);
        sup.send(&assign(0)).unwrap();
        sup.send(&assign(1)).unwrap();
        let pump = std::thread::spawn(move || broker.pump_until_closed());
        // Participants answer and hang up.
        for p in parts {
            let Message::Assign(a) = p.recv().unwrap() else {
                panic!("expected assignment");
            };
            p.send(&Message::Commit {
                task_id: a.task_id,
                root: vec![0; 16],
            })
            .unwrap();
        }
        let mut seen = [false; 2];
        while seen != [true, true] {
            // The replies may be interleaved with Gone NACKs (the test
            // participants hang up right after answering).
            match sup.recv().unwrap() {
                Message::Commit { task_id, .. } => seen[task_id as usize] = true,
                Message::Gone { .. } => {}
                other => panic!("unexpected relay: {other:?}"),
            }
        }
        drop(sup);
        let stats = pump.join().unwrap();
        assert_eq!(stats.outward, 2);
        assert_eq!(stats.inward, 2);
    }

    #[test]
    fn dead_participant_is_nacked_not_fatal() {
        let (sup, mut broker, parts) = rig(2);
        sup.send(&assign(0)).unwrap();
        sup.send(&assign(1)).unwrap();
        relay_out(&mut broker, 2);
        // Participant 0 answers then dies; participant 1 stays healthy.
        let mut parts = parts.into_iter();
        let dead = parts.next().unwrap();
        let alive = parts.next().unwrap();
        let _ = dead.recv().unwrap();
        let _ = alive.recv().unwrap(); // its Assign
        drop(dead);
        // Outward mail for the dead participant is dropped and the task is
        // NACKed; relay keeps serving the healthy one.
        sup.send(&Message::Verdict {
            task_id: 0,
            accepted: true,
        })
        .unwrap();
        sup.send(&Message::Verdict {
            task_id: 1,
            accepted: true,
        })
        .unwrap();
        assert!(broker.try_relay_outward().unwrap()); // dropped + NACK
        assert!(broker.try_relay_outward().unwrap()); // delivered
        assert_eq!(sup.recv().unwrap(), Message::Gone { task_id: 0 });
        assert!(matches!(
            alive.recv().unwrap(),
            Message::Verdict { task_id: 1, .. }
        ));
        // The dead participant's route is gone; re-addressing it errors.
        sup.send(&Message::Verdict {
            task_id: 0,
            accepted: true,
        })
        .unwrap();
        assert_eq!(broker.try_relay_outward().unwrap_err(), GridError::Empty);
        // Fresh assignments skip the dead participant: both land on the
        // healthy one instead of being black-holed.
        sup.send(&assign(7)).unwrap();
        sup.send(&assign(8)).unwrap();
        assert!(broker.try_relay_outward().unwrap());
        assert!(broker.try_relay_outward().unwrap());
        assert_eq!(alive.recv().unwrap().task_id(), 7);
        assert_eq!(alive.recv().unwrap().task_id(), 8);
    }

    #[test]
    fn assign_racing_a_death_is_still_nacked() {
        // Participant 0 is already known gone (reported once); a new Assign
        // that round-robins past every dead participant must still be
        // NACKed rather than silently dropped.
        let (sup, mut broker, parts) = rig(1);
        sup.send(&assign(0)).unwrap();
        relay_out(&mut broker, 1);
        drop(parts); // the only participant dies
        sup.send(&Message::Verdict {
            task_id: 0,
            accepted: true,
        })
        .unwrap();
        assert!(broker.try_relay_outward().unwrap()); // first death report
        assert_eq!(sup.recv().unwrap(), Message::Gone { task_id: 0 });
        // Participant 0 is now marked gone; a brand-new task must get its
        // own NACK even though mark_gone already ran for this participant.
        sup.send(&assign(5)).unwrap();
        assert!(broker.try_relay_outward().unwrap());
        assert_eq!(sup.recv().unwrap(), Message::Gone { task_id: 5 });
    }

    #[test]
    fn death_nacks_arrive_in_ascending_task_order() {
        // Regression test for the route-map ordering hazard ugc-lint
        // surfaced: the supervisor-visible NACK sequence after a
        // participant death must not depend on map iteration order.
        // Assignments arrive with deliberately scrambled task ids; all
        // land on the lone participant, which then dies with every task
        // still in flight.
        let (sup, mut broker, parts) = rig(1);
        let scrambled = [23u64, 5, 99, 1, 42, 77, 8, 64, 3, 50];
        for id in scrambled {
            sup.send(&assign(id)).unwrap();
        }
        relay_out(&mut broker, scrambled.len());
        // The participant dies holding all ten tasks: the next inward poll
        // observes the disconnect and NACKs every orphaned task.
        drop(parts);
        assert!(broker.try_relay_inward().unwrap().is_none());
        let mut nacked = Vec::new();
        for _ in 0..scrambled.len() {
            match sup.recv().unwrap() {
                Message::Gone { task_id } => nacked.push(task_id),
                other => panic!("expected Gone, got {other:?}"),
            }
        }
        let mut expected = scrambled.to_vec();
        expected.sort_unstable();
        assert_eq!(nacked, expected, "NACK order must be ascending task id");
    }

    /// A link shaped like a queueing socket link: `send` always succeeds
    /// (the frame is queued, whatever became of the peer), and the death
    /// shows only on the receive side. Clones share one state, so the
    /// test keeps a view of what the broker owns.
    #[derive(Clone, Default)]
    struct QueueingLink(Arc<QueueingState>);

    #[derive(Default)]
    struct QueueingState {
        inbox: Mutex<VecDeque<Message>>,
        sent: Mutex<Vec<Message>>,
        peer_died: AtomicBool,
    }

    impl QueueingLink {
        fn sent_task_ids(&self) -> Vec<u64> {
            let sent = self.0.sent.lock().unwrap();
            sent.iter().map(Message::task_id).collect()
        }
    }

    impl GridLink for QueueingLink {
        fn send_counted(&self, msg: &Message) -> Result<u64, GridError> {
            self.0.sent.lock().unwrap().push(msg.clone());
            Ok(msg.wire_len() + crate::FRAME_HEADER_BYTES)
        }

        fn recv_counted(&self) -> Result<(Message, u64), GridError> {
            self.try_recv_counted()
        }

        fn try_recv_counted(&self) -> Result<(Message, u64), GridError> {
            match self.0.inbox.lock().unwrap().pop_front() {
                Some(msg) => Ok((msg, 0)),
                None if self.0.peer_died.load(Ordering::SeqCst) => Err(GridError::Disconnected),
                None => Err(GridError::Empty),
            }
        }

        fn stats(&self) -> crate::LinkStats {
            crate::LinkStats::default()
        }

        fn subscribe(&self, _bell: &Doorbell, _key: usize) {}
    }

    #[test]
    fn assign_after_a_death_is_nacked_even_when_the_send_succeeds() {
        // Over a link that queues its sends nothing ever fails on the
        // way out, so an Assign routed to a participant already marked
        // closed must be NACKed by the closed mark alone — or the
        // supervisor waits for that session forever.
        let supervisor = QueueingLink::default();
        let participant = QueueingLink::default();
        let mut broker = Broker::new(supervisor.clone(), vec![participant.clone()]);
        for id in [3u64, 1, 2] {
            supervisor.0.inbox.lock().unwrap().push_back(assign(id));
            assert!(broker.try_relay_outward().unwrap());
        }
        assert_eq!(participant.sent_task_ids(), vec![3, 1, 2]);
        // The participant dies holding all three; its link still takes mail.
        participant.0.peer_died.store(true, Ordering::SeqCst);
        assert!(broker.try_relay_inward().unwrap().is_none());
        // A fresh assignment arrives after the death was reported.
        supervisor.0.inbox.lock().unwrap().push_back(assign(9));
        assert!(broker.try_relay_outward().unwrap());
        assert_eq!(
            *supervisor.0.sent.lock().unwrap(),
            [1u64, 2, 3, 9].map(|task_id| Message::Gone { task_id }),
            "one Gone per task, orphans ascending, the late one after them"
        );
        assert_eq!(
            participant.sent_task_ids(),
            vec![3, 1, 2],
            "mail for the dead is dropped, not queued"
        );
        assert_eq!(broker.stats().outward, 3);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn empty_broker_rejected() {
        let (_sup, up) = duplex();
        let _ = Broker::new(up, Vec::new());
    }
}
