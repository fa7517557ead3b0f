//! Deterministic fault injection for grid links.
//!
//! The paper's threat model is a grid of *unreliable* participants, so the
//! runtime must be exercised under churn, loss, duplication, reordering
//! and latency — and every such campaign must be replayable bit for bit.
//! A [`FaultPlan`] is therefore a pure function of `(seed, link, direction,
//! sequence number)`: two runs with the same seed make exactly the same
//! per-link decisions, no matter how the OS schedules the threads. The
//! plan decorates a link as a [`FaultyEndpoint`], which applies the
//! decisions on whichever thread is driving that participant (an injected
//! delay stalls that caller, never the broker pump).
//!
//! Fault decisions are keyed per link rather than per run because a
//! participant link carries exactly one session's protocol sequence:
//! whatever the global interleaving, the `k`-th message on a given link is
//! always the same message, so the delivery schedule — and with it the
//! final verdicts — is reproducible from the seed alone.

use crate::transport::GridLink;
use crate::{Doorbell, Endpoint, GridError, LinkStats, Message, FRAME_HEADER_BYTES};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// Direction of a message relative to the decorated endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkDirection {
    /// Messages arriving at this endpoint.
    Inbound,
    /// Messages sent from this endpoint.
    Outbound,
}

/// What a [`FaultPlan`] decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Silently discard the message.
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Hold the message and deliver it right after its successor
    /// (adjacent swap). Applies to outbound traffic only — that is where
    /// multi-message bursts (proofs + reports) exist; a hold is released
    /// unswapped at the link's next receive or close, so a lone trailing
    /// message can delay but never deadlock its session.
    Reorder,
    /// Deliver after sleeping this many microseconds.
    Delay(u32),
}

/// A seeded, replayable fault schedule for a whole campaign.
///
/// Rates are expressed in parts per 1024 so decisions reduce to integer
/// compares on a deterministic 64-bit draw. `Plan::quiet(seed)` (all rates
/// zero) is byte-for-byte transparent — property-tested in
/// `tests/fault_properties.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Base seed every per-link schedule derives from.
    pub seed: u64,
    /// Per-message drop probability, in parts per 1024.
    pub drop_per_1024: u16,
    /// Per-message duplication probability, in parts per 1024.
    pub dup_per_1024: u16,
    /// Per-message adjacent-swap probability, in parts per 1024.
    pub reorder_per_1024: u16,
    /// Upper bound on injected per-message latency, in microseconds
    /// (0 disables latency injection). Each delayed message draws a
    /// deterministic duration in `[0, max]`.
    pub max_delay_micros: u32,
    /// Probability (parts per 1024) that a link's participant crashes at
    /// a seeded point mid-session (and loses any held messages).
    pub crash_per_1024: u16,
}

impl FaultPlan {
    /// A plan that injects nothing — the decorated link behaves exactly
    /// like the raw one.
    #[must_use]
    pub const fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_per_1024: 0,
            dup_per_1024: 0,
            reorder_per_1024: 0,
            max_delay_micros: 0,
            crash_per_1024: 0,
        }
    }

    /// The default chaos preset: ~3% duplication, ~6% reordering and up
    /// to 500 µs of injected latency per message. No drops and no
    /// crashes, so every session still completes (possibly failing fast
    /// with a typed error and being reassigned by the orchestrator).
    #[must_use]
    pub const fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_per_1024: 0,
            dup_per_1024: 32,
            reorder_per_1024: 64,
            max_delay_micros: 500,
            crash_per_1024: 0,
        }
    }

    /// Adds participant crash/restart churn: roughly `per_1024/1024` of
    /// links lose their participant at a seeded point mid-session.
    #[must_use]
    pub const fn with_churn(mut self, per_1024: u16) -> Self {
        self.crash_per_1024 = per_1024;
        self
    }

    /// Adds message loss at the given rate. Dropped messages stall their
    /// session, so pair this with a per-session deadline.
    #[must_use]
    pub const fn with_drops(mut self, per_1024: u16) -> Self {
        self.drop_per_1024 = per_1024;
        self
    }

    /// The derived (still pure) schedule for one link.
    #[must_use]
    pub fn link(&self, link_id: u64) -> LinkFaults {
        LinkFaults {
            plan: *self,
            link_id,
        }
    }
}

/// SplitMix64 finalizer: the avalanche behind every fault draw.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fault schedule of a single link: a pure function of
/// `(plan.seed, link_id, direction, seq)`.
#[derive(Debug, Clone, Copy)]
pub struct LinkFaults {
    plan: FaultPlan,
    link_id: u64,
}

impl LinkFaults {
    /// The link id this schedule was derived for.
    #[must_use]
    pub fn link_id(&self) -> u64 {
        self.link_id
    }

    fn draw(&self, stream: u64, seq: u64) -> u64 {
        mix64(
            self.plan.seed
                ^ mix64(self.link_id)
                ^ mix64(stream.wrapping_mul(0xa076_1d64_78bd_642f))
                ^ mix64(seq.wrapping_mul(0xe703_7ed1_a0b4_28db)),
        )
    }

    /// The (deterministic) fate of the `seq`-th message in `direction`.
    #[must_use]
    pub fn decision(&self, direction: LinkDirection, seq: u64) -> FaultDecision {
        let stream = match direction {
            LinkDirection::Inbound => 1,
            LinkDirection::Outbound => 2,
        };
        let r = self.draw(stream, seq);
        let gate = (r & 1023) as u16;
        let mut edge = self.plan.drop_per_1024;
        if gate < edge {
            return FaultDecision::Drop;
        }
        edge = edge.saturating_add(self.plan.dup_per_1024);
        if gate < edge {
            return FaultDecision::Duplicate;
        }
        edge = edge.saturating_add(self.plan.reorder_per_1024);
        if gate < edge && direction == LinkDirection::Outbound {
            // Inbound traffic is request-paced (one message per protocol
            // step): holding it would stall the dialogue until the
            // deadline, not reorder it. Sends come in bursts, so the
            // adjacent swap lives there.
            return FaultDecision::Reorder;
        }
        if self.plan.max_delay_micros > 0 {
            let micros = ((r >> 16) % (u64::from(self.plan.max_delay_micros) + 1)) as u32;
            if micros > 0 {
                return FaultDecision::Delay(micros);
            }
        }
        FaultDecision::Deliver
    }

    /// `Some(k)` if this link's participant crashes instead of handling
    /// its `k`-th inbound message (1-based), `None` if it never crashes.
    #[must_use]
    pub fn crash_after(&self) -> Option<u64> {
        if self.plan.crash_per_1024 == 0 {
            return None;
        }
        let r = self.draw(3, 0);
        if (r & 1023) as u16 >= self.plan.crash_per_1024 {
            return None;
        }
        // Crash while handling message 1..=6: early enough to hit every
        // scheme's dialogue, late enough to sometimes strand mid-session.
        Some(1 + ((r >> 16) % 6))
    }
}

/// One injected fault, for replay verification and reports.
///
/// Events on a single link are recorded in schedule order; aggregate logs
/// across links are sorted, so a whole campaign's event list is a
/// deterministic function of the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultEvent {
    /// A message was discarded.
    Dropped {
        /// Link the fault fired on.
        link: u64,
        /// Direction of the affected message.
        direction: LinkDirection,
        /// Per-link, per-direction sequence number of the message.
        seq: u64,
    },
    /// A message was delivered twice.
    Duplicated {
        /// Link the fault fired on.
        link: u64,
        /// Direction of the affected message.
        direction: LinkDirection,
        /// Per-link, per-direction sequence number of the message.
        seq: u64,
    },
    /// A message was swapped with its successor.
    Reordered {
        /// Link the fault fired on.
        link: u64,
        /// Direction of the affected message.
        direction: LinkDirection,
        /// Per-link, per-direction sequence number of the message.
        seq: u64,
    },
    /// A message was delivered late.
    Delayed {
        /// Link the fault fired on.
        link: u64,
        /// Direction of the affected message.
        direction: LinkDirection,
        /// Per-link, per-direction sequence number of the message.
        seq: u64,
        /// Injected latency in microseconds.
        micros: u32,
    },
    /// The participant crashed instead of handling inbound message
    /// number `after` (1-based).
    Crashed {
        /// Link whose participant died.
        link: u64,
        /// The inbound message count at which it died.
        after: u64,
    },
}

/// A shared, thread-safe log of injected [`FaultEvent`]s.
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    events: Arc<Mutex<Vec<FaultEvent>>>,
}

impl FaultLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, event: FaultEvent) {
        self.events.lock().expect("fault log poisoned").push(event);
    }

    /// A copy of the events recorded so far, in recording order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<FaultEvent> {
        self.events.lock().expect("fault log poisoned").clone()
    }
}

#[derive(Debug, Default)]
struct FaultState {
    out_seq: u64,
    in_seq: u64,
    delivered: u64,
    crashed: bool,
    /// Outbound message held for an adjacent swap; released by the next
    /// send, the next receive, or a (clean) drop.
    hold_out: Option<Message>,
    /// Inbound messages ready for delivery (duplicate copies).
    pending_in: VecDeque<(Message, u64)>,
}

/// A [`GridLink`] decorator that applies a [`LinkFaults`] schedule.
///
/// All fault decisions run on the caller's thread, so an injected delay
/// stalls only that caller. A seeded crash makes every subsequent operation
/// fail with [`GridError::Disconnected`] and loses any held messages —
/// from the peer's perspective the participant simply died. An outbound
/// reorder hold is released by the next send (the swap), the next receive
/// (the burst is over) or a clean drop, so the schedule delays messages
/// but never strands one.
#[derive(Debug)]
pub struct FaultyEndpoint {
    inner: Endpoint,
    faults: LinkFaults,
    log: FaultLog,
    state: Mutex<FaultState>,
}

impl FaultyEndpoint {
    /// Decorates `inner` with the given per-link schedule.
    #[must_use]
    pub fn new(inner: Endpoint, faults: LinkFaults) -> Self {
        FaultyEndpoint {
            inner,
            faults,
            log: FaultLog::new(),
            state: Mutex::new(FaultState::default()),
        }
    }

    /// A handle onto this link's fault-event log (clone it before moving
    /// the endpoint into its participant thread).
    #[must_use]
    pub fn log(&self) -> FaultLog {
        self.log.clone()
    }

    /// Subscribes the decorated link's inbound direction to `bell` (see
    /// [`Endpoint::subscribe`]). The decorator can turn one frame into
    /// two deliveries (an inbound duplicate) or none (a drop), so answer
    /// a ring by receiving until [`GridError::Empty`], not once.
    pub fn subscribe(&self, bell: &Doorbell, key: usize) {
        self.inner.subscribe(bell, key);
    }

    fn lock(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().expect("fault state poisoned")
    }

    /// Books one inbound delivery, enforcing the seeded crash point.
    fn deliver_in(
        &self,
        st: &mut FaultState,
        msg: Message,
        charged: u64,
    ) -> Result<(Message, u64), GridError> {
        if let Some(after) = self.faults.crash_after() {
            if st.delivered + 1 >= after {
                st.crashed = true;
                self.log.push(FaultEvent::Crashed {
                    link: self.faults.link_id,
                    after,
                });
                return Err(GridError::Disconnected);
            }
        }
        st.delivered += 1;
        Ok((msg, charged))
    }

    /// Releases an outbound reorder hold. Called when the link turns
    /// around to receive (the burst is over — nothing left to swap with)
    /// and on clean drop, so a held trailing message is delayed, never
    /// stranded. Send failures are ignored: the peer may already be gone,
    /// and the fault schedule was recorded when the hold was taken.
    fn flush_held_out(&self, st: &mut FaultState) {
        if let Some(held) = st.hold_out.take() {
            let _ = self.inner.send(&held);
        }
    }

    /// Applies the schedule to one freshly received message. `Ok(None)`
    /// means the message was consumed (dropped or held) and the caller
    /// should pull the next one.
    fn admit_in(
        &self,
        st: &mut FaultState,
        msg: Message,
        charged: u64,
    ) -> Result<Option<(Message, u64)>, GridError> {
        let seq = st.in_seq;
        st.in_seq += 1;
        let link = self.faults.link_id;
        let direction = LinkDirection::Inbound;
        match self.faults.decision(direction, seq) {
            FaultDecision::Drop => {
                self.log.push(FaultEvent::Dropped {
                    link,
                    direction,
                    seq,
                });
                Ok(None)
            }
            FaultDecision::Duplicate => {
                self.log.push(FaultEvent::Duplicated {
                    link,
                    direction,
                    seq,
                });
                st.pending_in.push_back((msg.clone(), charged));
                self.deliver_in(st, msg, charged).map(Some)
            }
            FaultDecision::Delay(micros) => {
                self.log.push(FaultEvent::Delayed {
                    link,
                    direction,
                    seq,
                    micros,
                });
                // Stalls only the thread polling this participant: the
                // broker pump and the other workers' links keep flowing.
                std::thread::sleep(std::time::Duration::from_micros(u64::from(micros)));
                self.deliver_in(st, msg, charged).map(Some)
            }
            FaultDecision::Deliver | FaultDecision::Reorder => {
                self.deliver_in(st, msg, charged).map(Some)
            }
        }
    }
}

impl GridLink for FaultyEndpoint {
    fn send_counted(&self, msg: &Message) -> Result<u64, GridError> {
        let mut st = self.lock();
        if st.crashed {
            return Err(GridError::Disconnected);
        }
        let seq = st.out_seq;
        st.out_seq += 1;
        let link = self.faults.link_id;
        let direction = LinkDirection::Outbound;
        let nominal = msg.wire_len() + FRAME_HEADER_BYTES;
        match self.faults.decision(direction, seq) {
            FaultDecision::Drop => {
                self.log.push(FaultEvent::Dropped {
                    link,
                    direction,
                    seq,
                });
                // The caller is told the nominal charge; nothing crossed.
                return Ok(nominal);
            }
            FaultDecision::Duplicate => {
                self.log.push(FaultEvent::Duplicated {
                    link,
                    direction,
                    seq,
                });
                self.inner.send_counted(msg)?;
            }
            FaultDecision::Reorder if st.hold_out.is_none() => {
                self.log.push(FaultEvent::Reordered {
                    link,
                    direction,
                    seq,
                });
                st.hold_out = Some(msg.clone());
                return Ok(nominal);
            }
            FaultDecision::Delay(micros) => {
                self.log.push(FaultEvent::Delayed {
                    link,
                    direction,
                    seq,
                    micros,
                });
                std::thread::sleep(std::time::Duration::from_micros(u64::from(micros)));
            }
            FaultDecision::Deliver | FaultDecision::Reorder => {}
        }
        let charged = self.inner.send_counted(msg)?;
        // The adjacent swap completes: the held predecessor follows.
        if let Some(held) = st.hold_out.take() {
            self.inner.send_counted(&held)?;
        }
        Ok(charged)
    }

    fn recv_counted(&self) -> Result<(Message, u64), GridError> {
        loop {
            let mut st = self.lock();
            if st.crashed {
                return Err(GridError::Disconnected);
            }
            // Turning around to receive ends the send burst: release any
            // reorder hold before (possibly) blocking on the peer.
            self.flush_held_out(&mut st);
            if let Some((msg, charged)) = st.pending_in.pop_front() {
                return self.deliver_in(&mut st, msg, charged);
            }
            drop(st);
            match self.inner.recv_counted() {
                Ok((msg, charged)) => {
                    let mut st = self.lock();
                    if let Some(delivery) = self.admit_in(&mut st, msg, charged)? {
                        return Ok(delivery);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn try_recv_counted(&self) -> Result<(Message, u64), GridError> {
        loop {
            let mut st = self.lock();
            if st.crashed {
                return Err(GridError::Disconnected);
            }
            self.flush_held_out(&mut st);
            if let Some((msg, charged)) = st.pending_in.pop_front() {
                return self.deliver_in(&mut st, msg, charged);
            }
            drop(st);
            match self.inner.try_recv_counted() {
                Ok((msg, charged)) => {
                    let mut st = self.lock();
                    if let Some(delivery) = self.admit_in(&mut st, msg, charged)? {
                        return Ok(delivery);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn stats(&self) -> LinkStats {
        self.inner.stats()
    }

    fn subscribe(&self, bell: &Doorbell, key: usize) {
        FaultyEndpoint::subscribe(self, bell, key);
    }
}

impl Drop for FaultyEndpoint {
    fn drop(&mut self) {
        let st = self.state.get_mut().expect("fault state poisoned");
        // A crashed participant loses its held mail; a clean shutdown
        // flushes it (the peer may still be waiting on that verdict).
        if !st.crashed {
            if let Some(held) = st.hold_out.take() {
                let _ = self.inner.send(&held);
            }
        }
    }
}
