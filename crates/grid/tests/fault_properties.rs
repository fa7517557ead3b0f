//! Properties of the deterministic fault-injection decorator: the same
//! seed must reproduce the exact same delivery schedule and event log,
//! and the zero-rate plan must be byte-for-byte invisible — these are the
//! guarantees the chaos soak's replayability rests on.

use proptest::prelude::*;
use ugc_grid::runtime::{FaultDecision, FaultEvent, FaultPlan, FaultyEndpoint, LinkDirection};
use ugc_grid::{duplex, GridError, GridLink, Message};

/// Distinct, compact messages for scripted traffic.
fn msg(i: u64) -> Message {
    Message::Verdict {
        task_id: i,
        accepted: i % 2 == 0,
    }
}

/// Pushes `inbound` messages at a decorated endpoint and sends `outbound`
/// from it, returning what the decorated side received, what the raw peer
/// received, and the recorded fault events.
fn script(
    plan: FaultPlan,
    link_id: u64,
    inbound: u64,
    outbound: u64,
) -> (Vec<Message>, Vec<Message>, Vec<FaultEvent>) {
    let (peer, raw) = duplex();
    let decorated = FaultyEndpoint::new(raw, plan.link(link_id));
    let log = decorated.log();
    for i in 0..inbound {
        peer.send(&msg(i)).unwrap();
    }
    for i in 0..outbound {
        // May fail once a seeded crash latches; the schedule is the point.
        let _ = GridLink::send(&decorated, &msg(1000 + i));
    }
    let mut delivered = Vec::new();
    // Drains until Empty, or Disconnected after a seeded crash.
    while let Ok(m) = GridLink::try_recv(&decorated) {
        delivered.push(m);
    }
    let mut peer_saw = Vec::new();
    while let Ok(m) = peer.try_recv() {
        peer_saw.push(m);
    }
    drop(decorated); // flushes an outbound reorder hold (unless crashed)
    while let Ok(m) = peer.try_recv() {
        peer_saw.push(m);
    }
    (delivered, peer_saw, log.snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quiet_plan_is_byte_identical_to_undecorated(
        seed in any::<u64>(),
        link in any::<u64>(),
        inbound in 0u64..20,
        outbound in 0u64..20,
    ) {
        // Reference run over a raw endpoint pair.
        let (peer, raw) = duplex();
        for i in 0..inbound {
            peer.send(&msg(i)).unwrap();
        }
        for i in 0..outbound {
            raw.send(&msg(1000 + i)).unwrap();
        }
        let mut raw_delivered = Vec::new();
        while let Ok(m) = raw.try_recv() {
            raw_delivered.push(m);
        }
        let mut raw_peer_saw = Vec::new();
        while let Ok(m) = peer.try_recv() {
            raw_peer_saw.push(m);
        }

        // Same traffic through the quiet decorator.
        let (peer2, inner) = duplex();
        let quiet = FaultyEndpoint::new(inner, FaultPlan::quiet(seed).link(link));
        for i in 0..inbound {
            peer2.send(&msg(i)).unwrap();
        }
        for i in 0..outbound {
            GridLink::send(&quiet, &msg(1000 + i)).unwrap();
        }
        let mut delivered = Vec::new();
        while let Ok(m) = GridLink::try_recv(&quiet) {
            delivered.push(m);
        }
        let mut peer_saw = Vec::new();
        while let Ok(m) = peer2.try_recv() {
            peer_saw.push(m);
        }
        // The same messages both ways, in the same order: every byte a
        // session is charged for follows from them.
        prop_assert_eq!(delivered, raw_delivered);
        prop_assert_eq!(peer_saw, raw_peer_saw);
        prop_assert!(quiet.log().snapshot().is_empty());
    }

    #[test]
    fn same_seed_reproduces_schedule_and_events(
        seed in any::<u64>(),
        link in any::<u64>(),
        drop_rate in 0u16..200,
        dup in 0u16..200,
        reorder in 0u16..200,
        crash in 0u16..1024,
        inbound in 0u64..24,
        outbound in 0u64..24,
    ) {
        let plan = FaultPlan {
            seed,
            drop_per_1024: drop_rate,
            dup_per_1024: dup,
            reorder_per_1024: reorder,
            max_delay_micros: 0, // keep the property test fast
            crash_per_1024: crash,
        };
        let first = script(plan, link, inbound, outbound);
        let second = script(plan, link, inbound, outbound);
        prop_assert_eq!(first, second);
    }

    #[test]
    fn decisions_are_pure_functions(
        seed in any::<u64>(),
        link in any::<u64>(),
        seq in any::<u64>(),
    ) {
        let plan = FaultPlan::chaos(seed).with_churn(300).with_drops(50);
        let faults = plan.link(link);
        for direction in [LinkDirection::Inbound, LinkDirection::Outbound] {
            prop_assert_eq!(faults.decision(direction, seq), faults.decision(direction, seq));
        }
        prop_assert_eq!(faults.crash_after(), faults.crash_after());
    }
}

/// A plan whose every message duplicates: each delivery appears twice.
#[test]
fn always_duplicate_delivers_everything_twice() {
    let plan = FaultPlan {
        seed: 1,
        drop_per_1024: 0,
        dup_per_1024: 1024,
        reorder_per_1024: 0,
        max_delay_micros: 0,
        crash_per_1024: 0,
    };
    let (delivered, peer_saw, events) = script(plan, 0, 3, 2);
    let ids: Vec<u64> = delivered.iter().map(Message::task_id).collect();
    assert_eq!(ids, vec![0, 0, 1, 1, 2, 2]);
    let out_ids: Vec<u64> = peer_saw.iter().map(Message::task_id).collect();
    assert_eq!(out_ids, vec![1000, 1000, 1001, 1001]);
    assert_eq!(events.len(), 5);
}

/// A plan whose every message drops: nothing is ever delivered.
#[test]
fn always_drop_delivers_nothing() {
    let plan = FaultPlan::quiet(9).with_drops(1024);
    let (delivered, peer_saw, events) = script(plan, 7, 4, 3);
    assert!(delivered.is_empty());
    assert!(peer_saw.is_empty());
    assert_eq!(events.len(), 7); // every message logged as dropped
}

/// A plan whose every message reorders: outbound adjacent pairs swap (a
/// trailing hold is flushed when the link turns around to receive), while
/// inbound traffic — request-paced, nothing to swap with — is untouched.
#[test]
fn always_reorder_swaps_adjacent_outbound_messages() {
    let plan = FaultPlan {
        seed: 2,
        drop_per_1024: 0,
        dup_per_1024: 0,
        reorder_per_1024: 1024,
        max_delay_micros: 0,
        crash_per_1024: 0,
    };
    let (delivered, peer_saw, _) = script(plan, 3, 4, 3);
    let ids: Vec<u64> = delivered.iter().map(Message::task_id).collect();
    assert_eq!(ids, vec![0, 1, 2, 3], "inbound must never be held");
    // Outbound: 1000 held, 1001 sent + 1000 flushed behind it, 1002 held
    // and flushed by the first receive.
    let out_ids: Vec<u64> = peer_saw.iter().map(Message::task_id).collect();
    assert_eq!(out_ids, vec![1001, 1000, 1002]);
}

/// A crashing link dies at its seeded inbound message and loses held
/// mail; the peer observes a plain disconnect.
#[test]
fn crash_fires_at_the_seeded_point_and_latches() {
    let plan = FaultPlan::quiet(0).with_churn(1024);
    // Find a link id whose participant crashes on its 2nd message, so the
    // test does not depend on the draw for any particular id.
    let link_id = (0..)
        .find(|&id| plan.link(id).crash_after() == Some(2))
        .unwrap();
    let (peer, raw) = duplex();
    let faulty = FaultyEndpoint::new(raw, plan.link(link_id));
    for i in 0..4 {
        peer.send(&msg(i)).unwrap();
    }
    assert_eq!(GridLink::recv(&faulty).unwrap().task_id(), 0);
    assert_eq!(
        GridLink::recv(&faulty).unwrap_err(),
        GridError::Disconnected
    );
    // The crash latches: sends and receives both fail from now on.
    assert_eq!(
        GridLink::send(&faulty, &msg(9)).unwrap_err(),
        GridError::Disconnected
    );
    assert_eq!(
        GridLink::recv(&faulty).unwrap_err(),
        GridError::Disconnected
    );
    let events = faulty.log().snapshot();
    assert!(events.contains(&FaultEvent::Crashed {
        link: link_id,
        after: 2
    }));
    // Dropping the crashed endpoint closes the wire for the peer.
    drop(faulty);
    assert_eq!(peer.recv().unwrap_err(), GridError::Disconnected);
}

/// The chaos preset never drops or crashes (sessions always complete);
/// churn and drops are explicit opt-ins.
#[test]
fn chaos_preset_is_lossless_by_default() {
    let plan = FaultPlan::chaos(42);
    assert_eq!(plan.drop_per_1024, 0);
    assert_eq!(plan.crash_per_1024, 0);
    let churned = plan.with_churn(128).with_drops(16);
    assert_eq!(churned.crash_per_1024, 128);
    assert_eq!(churned.drop_per_1024, 16);
    // Rates materialise as decisions at roughly the configured frequency.
    let faults = FaultPlan::quiet(7).with_drops(512).link(0);
    let drops = (0..1000)
        .filter(|&seq| faults.decision(LinkDirection::Inbound, seq) == FaultDecision::Drop)
        .count();
    assert!((350..650).contains(&drops), "drop rate off: {drops}/1000");
}
