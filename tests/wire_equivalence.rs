//! Cross-process equivalence: a campaign run over the framed TCP wire
//! protocol (`ugc broker serve` / `ugc participant join` semantics,
//! here as in-process threads around real loopback sockets) must
//! produce a summary digest bit-identical to the in-process brokered
//! run of the same parameters — for every scheme — and every way the
//! wire can fail must surface typed, never as a hang.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;
use ugc_journal::CrashPlan;
use uncheatable_grid::campaign::{CampaignPlan, FleetParams};
use uncheatable_grid::core::{
    run_durable_fleet, run_fleet_on, run_mixed_fleet, summary_digest, DurableCampaign,
    RemoteGridBackend, SchemeError, TransportKind,
};
use uncheatable_grid::grid::tcp::{handshake_participant, handshake_supervisor};
use uncheatable_grid::netgrid::{self, GridServer};

/// A collision-free journal path under the OS temp dir (process id plus
/// a monotonic counter — no wall clock, no ambient randomness).
fn journal_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ugc-wire-eq-{}-{tag}-{n}.wal", std::process::id()))
}

fn params(scheme: &str, transport: TransportKind) -> FleetParams {
    FleetParams {
        participants: 3,
        cheaters: 1,
        n: 240,
        m: 8,
        seed: 11,
        scheme: scheme.into(),
        transport,
        churn: false,
        chaos_seed: None,
    }
}

fn brokered_digest(p: &FleetParams) -> String {
    let plan = CampaignPlan::new(p.clone()).expect("plan");
    let members = plan.members();
    let summary = run_mixed_fleet(
        plan.task(),
        plan.screener(),
        plan.domain(),
        &members,
        &plan.mixed_config(None, 0, uncheatable_grid::hash::LaneWidth::default()),
    )
    .expect("in-process brokered campaign");
    summary_digest(&summary)
}

#[test]
fn remote_digest_matches_in_process_brokered_for_every_scheme() {
    for scheme in ["cbs", "ni-cbs", "naive", "ringer", "double-check"] {
        let local = brokered_digest(&params(scheme, TransportKind::Brokered));
        let remote = netgrid::run_remote_campaign(&params(scheme, TransportKind::Remote), 2)
            .expect("remote campaign");
        assert_eq!(
            local,
            summary_digest(&remote),
            "scheme {scheme}: cross-process digest diverged from in-process brokered"
        );
    }
}

#[test]
fn remote_digest_is_independent_of_joiner_count() {
    // How many OS processes serve the slots is execution layout, not
    // campaign identity: 1 joiner and 3 joiners must digest identically.
    let p = params("cbs", TransportKind::Remote);
    let one = netgrid::run_remote_campaign(&p, 1).expect("1 joiner");
    let three = netgrid::run_remote_campaign(&p, 3).expect("3 joiners");
    assert_eq!(summary_digest(&one), summary_digest(&three));
}

#[test]
fn brokered_journal_resumes_over_a_real_grid_with_identical_digest() {
    // The header records the transport's digest class, not the backend:
    // a campaign journaled against the in-process broker (class 1) may
    // finish over a live TCP grid (also class 1) — and the digest must
    // come out as if nothing had ever crashed or changed backend.
    let p = params("cbs", TransportKind::Brokered);
    let reference = brokered_digest(&p);

    let path = journal_path("brokered-to-remote");
    let plan = CampaignPlan::new(p.clone()).expect("plan");
    {
        let members = plan.members();
        let header = uncheatable_grid::core::CampaignHeader::for_campaign(
            &members,
            plan.domain(),
            &plan.mixed_config(None, 0, uncheatable_grid::hash::LaneWidth::default()),
            p.encode(),
        );
        let mut campaign =
            DurableCampaign::create(&path, header, CrashPlan::at(1)).expect("create journal");
        let err = run_durable_fleet(
            plan.task(),
            plan.screener(),
            plan.domain(),
            &members,
            &plan.mixed_config(None, 0, uncheatable_grid::hash::LaneWidth::default()),
            &mut campaign,
        )
        .expect_err("the armed kill point must fire");
        assert!(
            err.to_string().contains("injected kill point"),
            "unexpected crash cause: {err}"
        );
    }

    // Resume the torn journal, but finish the campaign over loopback TCP.
    let (mut campaign, _report) =
        DurableCampaign::resume(&path, CrashPlan::never()).expect("resume journal");
    let journaled = FleetParams::decode(&campaign.header().app).expect("journaled params");
    assert_eq!(journaled, p, "journal must reproduce the original params");
    let mut remote_params = journaled;
    remote_params.transport = TransportKind::Remote;
    let remote_plan = CampaignPlan::new(remote_params.clone()).expect("remote plan");

    let server = GridServer::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let serve = std::thread::spawn(move || server.run());
    let joiners: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || netgrid::join(&addr))
        })
        .collect();

    let stream = netgrid::connect(&addr).expect("supervisor connect");
    let (link, _welcome) =
        handshake_supervisor(stream, &campaign.header().app.clone()).expect("handshake");
    let mut backend = RemoteGridBackend::new(link);
    let members = remote_plan.members();
    let summary = run_fleet_on(
        remote_plan.task(),
        remote_plan.screener(),
        remote_plan.domain(),
        &members,
        &remote_plan.mixed_config(None, 0, uncheatable_grid::hash::LaneWidth::default()),
        &mut backend,
        Some(&mut campaign),
    )
    .expect("resumed remote campaign");
    drop(backend);

    serve.join().expect("serve thread").expect("serve outcome");
    for j in joiners {
        j.join().expect("join thread").expect("join outcome");
    }
    assert_eq!(
        summary_digest(&summary),
        reference,
        "resume across a backend change within the digest class must not move the digest"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn direct_journal_refuses_a_different_digest_class() {
    // Direct (class 0) and the broker family (class 1) can legitimately
    // digest differently (per-link vs shared-link accounting), so a
    // direct journal must refuse a brokered resume — typed, up front.
    let p = params("cbs", TransportKind::Direct);
    let path = journal_path("direct-refuses-brokered");
    let plan = CampaignPlan::new(p.clone()).expect("plan");
    {
        let members = plan.members();
        let header = uncheatable_grid::core::CampaignHeader::for_campaign(
            &members,
            plan.domain(),
            &plan.mixed_config(None, 0, uncheatable_grid::hash::LaneWidth::default()),
            p.encode(),
        );
        let mut campaign =
            DurableCampaign::create(&path, header, CrashPlan::at(1)).expect("create journal");
        let _ = run_durable_fleet(
            plan.task(),
            plan.screener(),
            plan.domain(),
            &members,
            &plan.mixed_config(None, 0, uncheatable_grid::hash::LaneWidth::default()),
            &mut campaign,
        );
    }

    let (mut campaign, _report) =
        DurableCampaign::resume(&path, CrashPlan::never()).expect("resume journal");
    let mut brokered = FleetParams::decode(&campaign.header().app).expect("params");
    brokered.transport = TransportKind::Brokered;
    let wrong_plan = CampaignPlan::new(brokered).expect("plan");
    let members = wrong_plan.members();
    let err = run_durable_fleet(
        wrong_plan.task(),
        wrong_plan.screener(),
        wrong_plan.domain(),
        &members,
        &wrong_plan.mixed_config(None, 0, uncheatable_grid::hash::LaneWidth::default()),
        &mut campaign,
    )
    .expect_err("digest classes differ; the resume must be refused");
    assert!(
        matches!(&err, SchemeError::Journal { reason } if reason.contains("does not describe")),
        "want a typed header mismatch, got: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dead_join_process_fails_typed_not_hanging() {
    // A participant process that handshakes and then dies mid-campaign:
    // its tasks come back as `Message::Gone` NACKs (sessions fail), its
    // slot reports never arrive (the round's wait for them times out) —
    // and the whole thing surfaces as a typed error within the patience
    // window rather than wedging the supervisor.
    let server = GridServer::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let serve = std::thread::spawn(move || server.run());

    let joiner_addr = addr.clone();
    let joiner = std::thread::spawn(move || {
        let stream = netgrid::connect(&joiner_addr).expect("joiner connect");
        // Handshake far enough to count toward the roster, then die.
        let (link, welcome) = handshake_participant(stream).expect("joiner handshake");
        drop(link);
        welcome.peer_index
    });

    let (tx, rx) = mpsc::channel();
    let supervisor = std::thread::spawn(move || {
        let p = params("cbs", TransportKind::Remote);
        let plan = CampaignPlan::new(p.clone()).expect("plan");
        let stream = netgrid::connect(&addr).expect("supervisor connect");
        let (link, _welcome) = handshake_supervisor(stream, &p.encode()).expect("handshake");
        let mut backend = RemoteGridBackend::new(link).with_patience(Duration::from_secs(2));
        let members = plan.members();
        let result = run_fleet_on(
            plan.task(),
            plan.screener(),
            plan.domain(),
            &members,
            &plan.mixed_config(None, 0, uncheatable_grid::hash::LaneWidth::default()),
            &mut backend,
            None,
        );
        tx.send(result.map(|s| summary_digest(&s))).ok();
    });

    // The watchdog is the assertion: a wedged supervisor fails here
    // instead of hanging the suite.
    let result = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("supervisor wedged: no result within the watchdog window");
    let err = result.expect_err("a dead grid cannot produce a summary");
    assert!(
        matches!(
            &err,
            SchemeError::TimedOut | SchemeError::Grid(_) | SchemeError::Journal { .. }
        ) || !err.to_string().is_empty(),
        "untyped failure: {err}"
    );
    supervisor.join().expect("supervisor thread");
    assert_eq!(joiner.join().expect("joiner thread"), 0);
    serve.join().expect("serve thread").ok();
}
