//! A proof is input from outside the process. `MAX_FRAME_LEN` lets one
//! carry tens of millions of siblings, and a supervisor that hashes a
//! path before asking whether it could possibly be a path of *this* tree
//! does `O(frame)` work for a peer that did none. The supervisor knows
//! the height the moment it assigns the share: a path of any other
//! length is a `CommitmentMismatch`, decided without a hash and charged
//! without one.

use std::time::{Duration, Instant};
use uncheatable_grid::core::scheme::cbs::CbsScheme;
use uncheatable_grid::core::scheme::ni_cbs::NiCbsScheme;
use uncheatable_grid::core::{
    LaneWidth, Parallelism, ParticipantContext, ParticipantStorage, SchemeError, SupervisorContext,
    Verdict, VerificationScheme,
};
use uncheatable_grid::grid::{CostLedger, CostReport, HonestWorker, Message, SampleProof};
use uncheatable_grid::hash::{HashFunction, Sha256};
use uncheatable_grid::merkle::tree_height;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{ComputeTask, Domain};

const SAMPLES: usize = 9;

fn cbs() -> CbsScheme {
    CbsScheme {
        samples: SAMPLES,
        seed: 5,
        report_audit: 0,
    }
}

fn ni_cbs() -> NiCbsScheme {
    NiCbsScheme {
        samples: SAMPLES,
        g_iterations: 1,
        report_audit: 0,
        audit_seed: 0,
    }
}

/// One round of `scheme` over `n` inputs, both sessions pumped by hand on
/// this thread: an honest participant whose proofs pass through `tamper`
/// on their way to the supervisor. Returns the supervisor's verdict (or
/// error) and what it charged.
fn round(
    scheme: &dyn VerificationScheme<Sha256>,
    n: u64,
    storage: ParticipantStorage,
    tamper: &dyn Fn(&mut Vec<SampleProof>),
) -> (Result<Verdict, SchemeError>, CostReport) {
    let task = PasswordSearch::with_hidden_password(2, 3);
    let screener = task.match_screener();
    let ledger = CostLedger::new();
    let mut supervisor = scheme.supervisor_session(SupervisorContext {
        task: &task,
        screener: &screener,
        domain: Domain::new(0, n),
        task_ids: vec![1],
        ledger: ledger.clone(),
    });
    let mut participant = scheme.participant_session(ParticipantContext {
        task: &task,
        screener: &screener,
        behaviour: &HonestWorker,
        storage,
        parallelism: Parallelism::serial(),
        lanes: LaneWidth::default(),
        ledger: CostLedger::new(),
    });
    let mut pump = || -> Result<Verdict, SchemeError> {
        let mut outward = supervisor.start()?;
        loop {
            if let Some(outcome) = supervisor.take_outcome() {
                return Ok(outcome.verdict);
            }
            let mut inward = Vec::new();
            for (_slot, msg) in outward.drain(..) {
                inward.extend(participant.on_message(msg)?);
            }
            assert!(!inward.is_empty(), "the round stalled");
            for mut msg in inward {
                if let Message::Proofs { proofs, .. } | Message::CommitAndProofs { proofs, .. } =
                    &mut msg
                {
                    tamper(proofs);
                }
                outward.extend(supervisor.on_message(0, msg)?);
            }
        }
    };
    let result = pump();
    (result, ledger.report())
}

/// The two schemes whose supervisors run Step 4.
fn schemes() -> [(&'static str, Box<dyn VerificationScheme<Sha256>>); 2] {
    [("cbs", Box::new(cbs())), ("ni-cbs", Box::new(ni_cbs()))]
}

/// Replaces proof `at`'s digest siblings with `len` well-formed ones.
fn resize_path(at: usize, len: usize) -> impl Fn(&mut Vec<SampleProof>) {
    move |proofs| proofs[at].digest_siblings.resize(len, vec![0xAB; 32])
}

#[test]
fn a_path_of_the_wrong_length_is_a_mismatch_decided_without_a_hash() {
    let n = 100u64;
    let height = tree_height(n) as usize; // 7: six digest siblings
    let unit_cost = PasswordSearch::with_hidden_password(2, 3).unit_cost();
    for (name, scheme) in schemes() {
        let (honest, baseline) = round(scheme.as_ref(), n, ParticipantStorage::Full, &|_| {});
        assert_eq!(honest, Ok(Verdict::Accepted), "{name}");
        assert_eq!(baseline.hash_ops, (SAMPLES * height) as u64, "{name}");
        for at in [0, SAMPLES / 2, SAMPLES - 1] {
            for len in [height - 2, height, 0, 100_000] {
                let sampled = std::cell::Cell::new(0);
                let (result, costs) =
                    round(scheme.as_ref(), n, ParticipantStorage::Full, &|proofs| {
                        sampled.set(proofs[at].index);
                        resize_path(at, len)(proofs);
                    });
                let case = format!("{name} at={at} len={len}");
                assert_eq!(
                    result,
                    Ok(Verdict::CommitmentMismatch {
                        sample: sampled.get()
                    }),
                    "{case}"
                );
                // Every sample up to and including the bad one had its
                // f(x) checked; only those before it were reconstructed.
                assert_eq!(costs.verify_ops, at as u64 + 1, "{case}");
                assert_eq!(costs.f_evals, (at as u64 + 1) * unit_cost, "{case}");
                assert_eq!(costs.hash_ops, (at * height) as u64, "{case}");
            }
        }
    }
}

#[test]
fn a_hundred_thousand_siblings_are_rejected_in_no_time() {
    // What hashing the path before rejecting it would cost at the least,
    // on this host, in this build: 100 000 inner-node digests.
    // ugc-lint: allow(wall-clock): test-harness stopwatch — calibrates the bound below; asserts nothing semantic
    let started = Instant::now();
    let mut acc = [0u8; 32];
    for _ in 0..100_000 {
        acc = Sha256::digest_pair(&acc, &[0xAB; 32]);
    }
    let hashing = started.elapsed();
    assert_ne!(acc, [0u8; 32]);

    for (name, scheme) in schemes() {
        for at in [0, SAMPLES - 1] {
            let tamper = resize_path(at, 100_000);
            // Best of three: a neighbour's burst slows one attempt, a
            // supervisor that hashes first slows them all.
            let mut fastest = Duration::MAX;
            for _ in 0..3 {
                // ugc-lint: allow(wall-clock): test-harness stopwatch — fails a regression to hash-first-reject-later instead of letting it merely slow CI; asserts nothing semantic
                let started = Instant::now();
                let (result, costs) = round(scheme.as_ref(), 64, ParticipantStorage::Full, &tamper);
                fastest = fastest.min(started.elapsed());
                assert!(
                    matches!(result, Ok(Verdict::CommitmentMismatch { .. })),
                    "{name} at={at}: {result:?}"
                );
                assert_eq!(costs.hash_ops, (at * 6) as u64, "{name} at={at}");
            }
            // The whole round — an honest 64-leaf commit, building the
            // oversized path, Step 4 — against the hashing alone.
            assert!(
                fastest < hashing / 2 && fastest < Duration::from_millis(500),
                "{name} at={at}: rejecting an over-long path took {fastest:?} \
                 (hashing it takes {hashing:?})"
            );
        }
    }
}

#[test]
fn a_sibling_of_the_wrong_width_is_malformed_whatever_the_path_length() {
    // Within one sample the order is the sequential walk's: widths first.
    for (name, scheme) in schemes() {
        for len in [3usize, 6, 40] {
            let (result, costs) =
                round(scheme.as_ref(), 100, ParticipantStorage::Full, &|proofs| {
                    resize_path(2, len)(proofs);
                    proofs[2].digest_siblings[len - 1].push(0);
                });
            assert_eq!(
                result,
                Err(SchemeError::MalformedPayload {
                    what: "proof digest sibling"
                }),
                "{name} len={len}"
            );
            assert_eq!(costs.verify_ops, 3, "{name} len={len}");
            assert_eq!(costs.hash_ops, 2 * 7, "{name} len={len}");
        }
    }
}

#[test]
fn honest_proofs_of_every_domain_size_have_the_expected_length() {
    // The rule must never reject an honest participant: full trees and
    // partial ones (a one-level and a half-height rebuilt subtree) over
    // every share size across nine tree heights.
    for n in 1..=257u64 {
        let height = tree_height(n);
        for storage in [
            ParticipantStorage::Full,
            ParticipantStorage::Partial { subtree_height: 1 },
            ParticipantStorage::Partial {
                subtree_height: height.div_ceil(2),
            },
        ] {
            for (name, scheme) in schemes() {
                let (result, costs) = round(scheme.as_ref(), n, storage, &|_| {});
                assert_eq!(result, Ok(Verdict::Accepted), "{name} n={n} {storage:?}");
                assert_eq!(
                    costs.hash_ops,
                    SAMPLES as u64 * u64::from(height),
                    "{name} n={n} {storage:?}"
                );
            }
        }
    }
}
