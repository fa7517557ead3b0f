//! An opening is input from outside the process. `MAX_FRAME_LEN` lets one
//! carry tens of millions of digests, and a supervisor that hashes what
//! it is sent before asking whether it could possibly be the opening of
//! *this* challenge does `O(frame)` work for a peer that did none. The
//! supervisor knows the shape the moment it knows the samples: the
//! distinct indices and the share size fix how many values, leaf siblings
//! and digest siblings an honest answer holds. Rows of any other length
//! are decided without an evaluation or a hash, and charged without one —
//! and an honest opening never costs more than one path per distinct
//! sample.

use std::cell::RefCell;
use std::time::{Duration, Instant};
use uncheatable_grid::core::sampling::derive_samples;
use uncheatable_grid::core::scheme::cbs::CbsScheme;
use uncheatable_grid::core::scheme::ni_cbs::NiCbsScheme;
use uncheatable_grid::core::{
    LaneWidth, Parallelism, ParticipantContext, ParticipantStorage, SchemeError, SupervisorContext,
    Verdict, VerificationScheme,
};
use uncheatable_grid::grid::{CostLedger, CostReport, HonestWorker, Message, Opening};
use uncheatable_grid::hash::{HashFunction, IteratedHash, Sha256};
use uncheatable_grid::merkle::{tree_height, LeafSet};
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::Domain;

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

/// What one hand-pumped round came to.
struct Round {
    /// The supervisor's verdict, or the error its session ended in.
    result: Result<Verdict, SchemeError>,
    /// What the supervisor charged itself.
    costs: CostReport,
    /// The round's samples, in challenge order: read off the `Challenge`
    /// (CBS) or derived from the committed root the way the supervisor
    /// derives them (NI-CBS).
    samples: Vec<u64>,
}

impl Round {
    /// Nothing evaluated, nothing hashed, nothing verified. (`g_evals` is
    /// NI-CBS deriving the samples — before it has looked at the opening.)
    fn assert_free(&self, case: &str) {
        assert_eq!(
            (
                self.costs.f_evals,
                self.costs.hash_ops,
                self.costs.verify_ops
            ),
            (0, 0, 0),
            "{case}"
        );
    }
}

/// One round of `scheme` over `n` inputs, both sessions pumped by hand on
/// this thread: an honest participant whose opening passes through
/// `tamper` on its way to the supervisor.
fn round(
    scheme: &dyn VerificationScheme<Sha256>,
    n: u64,
    storage: ParticipantStorage,
    tamper: &dyn Fn(&mut Opening),
) -> Round {
    let task = PasswordSearch::with_hidden_password(2, 3);
    let screener = task.match_screener();
    let ledger = CostLedger::new();
    let samples = RefCell::new(Vec::new());
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
                if let Message::Challenge { samples: drawn, .. } = &msg {
                    samples.replace(drawn.clone());
                }
                inward.extend(participant.on_message(msg)?);
            }
            assert!(!inward.is_empty(), "the round stalled");
            for mut msg in inward {
                if let Message::CommitAndProofs { root, .. } = &msg {
                    let g = IteratedHash::<Sha256>::new(1);
                    samples.replace(derive_samples(&g, root, SAMPLES, n, &CostLedger::new()));
                }
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
    Round {
        result,
        costs: ledger.report(),
        samples: samples.into_inner(),
    }
}

/// The two schemes whose supervisors run Step 4.
fn schemes() -> [(&'static str, Box<dyn VerificationScheme<Sha256>>); 2] {
    [("cbs", Box::new(cbs())), ("ni-cbs", Box::new(ni_cbs()))]
}

/// Both ways a participant may keep its tree (a half-height rebuilt
/// subtree for the partial one).
fn storages(n: u64) -> [ParticipantStorage; 2] {
    [
        ParticipantStorage::Full,
        ParticipantStorage::Partial {
            subtree_height: tree_height(n).div_ceil(2),
        },
    ]
}

/// A sibling row, picked out of the opening.
type Row = fn(&mut Opening) -> &mut Vec<u8>;

/// Something done to an opening on its way to the supervisor.
type Tamper = fn(&mut Opening);

/// The two sibling rows and the width of one entry of each.
const SIBLING_ROWS: [(&str, Row, usize); 2] = [
    ("leaf siblings", |o| &mut o.leaf_siblings, 16),
    ("digest siblings", |o| &mut o.digest_siblings, 32),
];

#[test]
fn a_path_of_the_wrong_length_is_a_mismatch_decided_without_a_hash() {
    // One entry short, one long, none at all, a hundred thousand: every
    // row of whole entries that is not the row the samples dictate.
    let n = 100u64;
    for (name, scheme) in schemes() {
        for storage in storages(n) {
            let honest = round(scheme.as_ref(), n, storage, &|_| {});
            assert_eq!(honest.result, Ok(Verdict::Accepted), "{name} {storage:?}");
            let shape = LeafSet::new(n, &honest.samples).unwrap().shape();
            assert!(shape.leaf_siblings > 1 && shape.digest_siblings > 1);
            for (row_name, row, width) in SIBLING_ROWS {
                let resizes: [&dyn Fn(usize) -> usize; 4] =
                    [&|len| len - 1, &|len| len + 1, &|_| 0, &|_| 100_000];
                for (k, resize) in resizes.into_iter().enumerate() {
                    let case = format!("{name} {storage:?} {row_name} resize {k}");
                    let tampered = round(scheme.as_ref(), n, storage, &|opening| {
                        let entries = resize(row(opening).len() / width);
                        row(opening).resize(entries * width, 0xAB);
                    });
                    assert_eq!(tampered.samples, honest.samples, "{case}");
                    assert_eq!(
                        tampered.result,
                        Ok(Verdict::CommitmentMismatch {
                            sample: honest.samples[0]
                        }),
                        "{case}"
                    );
                    tampered.assert_free(&case);
                }
            }
        }
    }
}

#[test]
fn a_hundred_thousand_siblings_are_rejected_in_no_time() {
    // What hashing the row before rejecting it would cost at the least,
    // on this host, in this build: 100 000 inner-node digests.
    #[expect(
        clippy::disallowed_methods,
        reason = "test-harness stopwatch — calibrates the bound below; asserts nothing semantic"
    )]
    let started = Instant::now();
    let mut acc = [0u8; 32];
    for _ in 0..100_000 {
        acc = Sha256::digest_pair(&acc, &[0xAB; 32]);
    }
    let hashing = started.elapsed();
    assert_ne!(acc, [0u8; 32]);

    for (name, scheme) in schemes() {
        for storage in storages(64) {
            let tamper = |opening: &mut Opening| opening.digest_siblings.resize(100_000 * 32, 0xAB);
            // Best of three: a neighbour's burst slows one attempt, a
            // supervisor that hashes first slows them all.
            let mut fastest = Duration::MAX;
            for _ in 0..3 {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "test-harness stopwatch — fails a regression to hash-first-reject-later instead of letting it merely slow CI; asserts nothing semantic"
                )]
                let started = Instant::now();
                let tampered = round(scheme.as_ref(), 64, storage, &tamper);
                fastest = fastest.min(started.elapsed());
                assert!(
                    matches!(tampered.result, Ok(Verdict::CommitmentMismatch { .. })),
                    "{name} {storage:?}: {:?}",
                    tampered.result
                );
                tampered.assert_free(name);
            }
            // The whole round — an honest 64-leaf commit, building the
            // oversized row, Step 4 — against the hashing alone.
            assert!(
                fastest < hashing / 2 && fastest < Duration::from_millis(500),
                "{name} {storage:?}: rejecting an over-long row took {fastest:?} \
                 (hashing it takes {hashing:?})"
            );
        }
    }
}

#[test]
fn a_sibling_of_the_wrong_width_is_malformed_whatever_the_path_length() {
    // A digest row that is not whole digests is malformed before its
    // length is compared with anything: short, honest-length or huge.
    for (name, scheme) in schemes() {
        for storage in storages(100) {
            for digests in [None, Some(3usize), Some(40), Some(100_000)] {
                let tampered = round(scheme.as_ref(), 100, storage, &|opening| {
                    if let Some(digests) = digests {
                        opening.digest_siblings.resize(digests * 32, 0xAB);
                    }
                    opening.digest_siblings.push(0);
                });
                let case = format!("{name} {storage:?} digests={digests:?}");
                assert_eq!(
                    tampered.result,
                    Err(SchemeError::MalformedPayload {
                        what: "proof digest sibling".into()
                    }),
                    "{case}"
                );
                tampered.assert_free(&case);
            }
            // So are leaves of another width than the task's, and a value
            // row that is not whole leaves.
            let cases: [(Tamper, &str); 3] = [
                (|o| o.leaf_width = 15, "opening leaf width"),
                (|o| o.leaf_width = 0, "opening leaf width"),
                (|o| o.leaf_values.push(0), "opening leaf values"),
            ];
            for (tamper, what) in cases {
                let tampered = round(scheme.as_ref(), 100, storage, &tamper);
                assert_eq!(
                    tampered.result,
                    Err(SchemeError::MalformedPayload { what: what.into() }),
                    "{name} {storage:?} {what}"
                );
                tampered.assert_free(what);
            }
        }
    }
}

#[test]
fn an_opening_over_another_number_of_leaves_is_not_an_answer() {
    // One leaf short or long: interactive CBS calls it a protocol error,
    // NI-CBS — where the participant chose the samples — a derivation
    // the commitment does not yield. Neither evaluates or hashes.
    for storage in storages(100) {
        for (grow, got_minus_expected) in [(false, -1isize), (true, 1)] {
            let tamper = |opening: &mut Opening| {
                let len = opening.leaf_values.len();
                let len = if grow { len + 16 } else { len - 16 };
                opening.leaf_values.resize(len, 0);
            };
            let tampered = round(&cbs(), 100, storage, &tamper);
            let expected = LeafSet::new(100, &tampered.samples).unwrap().len();
            assert_eq!(
                tampered.result,
                Err(SchemeError::ProofCountMismatch {
                    expected,
                    got: expected.checked_add_signed(got_minus_expected).unwrap(),
                }),
                "{storage:?}"
            );
            tampered.assert_free("cbs");
            let tampered = round(&ni_cbs(), 100, storage, &tamper);
            assert_eq!(tampered.result, Ok(Verdict::SampleDerivationMismatch));
            tampered.assert_free("ni-cbs");
        }
    }
}

#[test]
fn honest_proofs_of_every_domain_size_have_the_expected_length() {
    // The rule must never reject an honest participant: full trees and
    // partial ones (a one-level and a half-height rebuilt subtree) over
    // every share size across nine tree heights — and what the supervisor
    // pays is the closed form of the samples: one check per distinct
    // sample, one hash per node their paths rebuild, never more than a
    // whole path each.
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
                let honest = round(scheme.as_ref(), n, storage, &|_| {});
                let case = format!("{name} n={n} {storage:?}");
                assert_eq!(honest.result, Ok(Verdict::Accepted), "{case}");
                assert_eq!(honest.samples.len(), SAMPLES, "{case}");
                let set = LeafSet::new(n, &honest.samples).unwrap();
                let distinct = set.len() as u64;
                assert_eq!(honest.costs.verify_ops, distinct, "{case}");
                assert_eq!(honest.costs.hash_ops, set.shape().hash_ops, "{case}");
                assert!(
                    honest.costs.hash_ops <= distinct * u64::from(height),
                    "{case}"
                );
                assert!(honest.costs.hash_ops >= u64::from(height), "{case}");
            }
        }
    }
}
