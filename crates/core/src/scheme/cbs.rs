//! The interactive Commitment-Based Sampling scheme (Section 3).
//!
//! Protocol (Fig. 1 and Section 3.1 of the paper):
//!
//! ```text
//! supervisor                        participant
//!     │  Assign(D) ──────────────────▶ │ evaluate f (or cheat) on D
//!     │                                │ build Merkle tree, Φ(L_i)=f(x_i)
//!     │ ◀───────────────── Commit Φ(R) │
//!     │  Challenge(i_1…i_m) ─────────▶ │ find paths, gather siblings
//!     │ ◀──────────── Proofs + Reports │
//!     │  verify f(x_i), reconstruct R′ │
//!     │  Verdict ────────────────────▶ │
//! ```
//!
//! The participant may keep the full tree (`O(n)` storage) or only its top
//! levels (Section 3.3, [`ParticipantStorage::Partial`]), in which case
//! proving a sample recomputes the `2^ℓ` leaves of the covering subtree —
//! costs this module charges to the participant's ledger from actual call
//! counts.
//!
//! # Who pays what
//!
//! The participant pays `O(n)`: `f` over its share and the `2n − 1` hashes
//! of the tree. The supervisor pays `O(m log n)` in Step 4
//! ([`verify_round`], shared with NI-CBS), and both ledgers count what
//! was actually done, in the paper's units.
//!
//! Step 3 travels as **one opening** ([`Opening`], wire version 2), not
//! `m` authentication paths: the `d ≤ m` distinct sampled `f(x_i)` in
//! index order, the raw leaf siblings, the digest siblings — three flat
//! rows holding each sibling once, and none that another sampled leaf or
//! a node the supervisor rebuilds anyway supplies. Which entry belongs
//! where follows from the challenged indices and `n` alone
//! ([`LeafSet`]), so no index and no length per sibling is sent. The
//! supervisor then
//!
//! 1. compares the three row lengths with what the index set dictates —
//!    an opening of any other shape is decided on the spot, with nothing
//!    evaluated, hashed or charged, so a peer cannot buy supervisor time
//!    with a long proof;
//! 2. checks each distinct `f(x_i)` through `task.verify`, in order of
//!    first appearance in the challenge, charging `verify_ops` and (unless
//!    the task verifies cheaply) `f_evals` per value checked, and stops at
//!    the first wrong one;
//! 3. rebuilds the root once, level by level, every level one batch
//!    through the digest lane kernels the participant's tree build uses,
//!    charging one `hash_ops` per node rebuilt.
//!
//! The paper's figures — `m` evaluations, `m·H` hashes for
//! `H = ⌈log₂ n⌉`, `m·(2w + (H − 1)·D)` bytes
//! ([`cbs_traffic_bytes`](crate::analysis::cbs_traffic_bytes)) — are what
//! `m` paths that never meet would cost. They are upper bounds on all
//! three ledgers, reached only when every sample is distinct and no two
//! paths share a node below the root's children.

use crate::sampling::draw_samples;
use crate::scheme::frame::{
    Opened, ParticipantFrame, ParticipantMiddle, Reply, Step, SupervisorFrame, SupervisorMiddle,
};
use crate::scheme::{check_samples, check_task, materialize, Materialized};
use crate::session::{
    unexpected, ParticipantContext, ParticipantSession, SessionOutcome, SupervisorContext,
    SupervisorSession, VerificationScheme,
};
use crate::{ParticipantStorage, SchemeError, Verdict};
use core::marker::PhantomData;
use ugc_grid::{Assignment, Message, Opening};
use ugc_hash::HashFunction;
use ugc_merkle::{
    LaneWidth, LeafSet, MerkleError, MerkleOpening, MerkleTree, OpeningRow, Parallelism,
};
use ugc_task::{Domain, ScreenReport};

/// Below this many leaves a parallel tree build is not worth the thread
/// spawns; the scheme layer falls back to the serial build.
pub(crate) const PARALLEL_BUILD_MIN_LEAVES: usize = 1 << 10;

/// Builds the participant's commitment tree over the materialised leaf
/// `row` (`width` bytes per leaf), charging the `padded − 1` hash
/// operations of Section 3 to `ctx`'s ledger — the same charge whatever
/// `ctx.storage` keeps and however `ctx.parallelism` and `ctx.lanes`
/// spread the work. Full storage takes the row as the tree's leaf storage
/// and, over at least [`PARALLEL_BUILD_MIN_LEAVES`] leaves, builds on up
/// to `ctx.parallelism` threads (bit-identical trees).
///
/// In partial mode the row is *dropped* after commitment — that is
/// the point of Section 3.3 — so proofs later recompute its leaves
/// through the behaviour (charging `f` again, exactly as the paper
/// accounts).
pub(crate) fn build_tree<H: HashFunction>(
    ctx: &ParticipantContext<'_>,
    row: Vec<u8>,
    width: usize,
) -> Result<MerkleTree<H>, SchemeError> {
    let tree = match ctx.storage {
        ParticipantStorage::Full => {
            let threads = if row.len() >= PARALLEL_BUILD_MIN_LEAVES.saturating_mul(width) {
                ctx.parallelism
            } else {
                Parallelism::serial()
            };
            MerkleTree::from_leaf_row(row, width, threads, ctx.lanes)?
        }
        ParticipantStorage::Partial { subtree_height } => {
            if width == 0 {
                return Err(MerkleError::ZeroLeafWidth.into());
            }
            let n = (row.len() / width) as u64;
            MerkleTree::build_truncated(n, width, subtree_height, |i| {
                &row[i as usize * width..][..width]
            })?
        }
    };
    ctx.ledger.charge_hash(tree.hash_ops());
    Ok(tree)
}

/// Opens the challenged `samples` of the tree over `domain` (Step 3),
/// returning the opening in wire form.
///
/// A tree kept in partial storage rebuilds each distinct subtree the
/// samples fall in — once, however many of them share it — by re-running
/// `ctx`'s behaviour for its `2^ℓ` leaves, charging the participant's
/// ledger for the recomputed `f` evaluations and hashes; a full one reads
/// its leaf row and charges nothing.
pub(crate) fn open_samples<H: HashFunction>(
    ctx: &ParticipantContext<'_>,
    tree: &MerkleTree<H>,
    samples: &[u64],
    domain: Domain,
) -> Result<Opening, SchemeError> {
    let leaf = |i| ctx.behaviour.leaf_value(ctx.task, domain, i, &ctx.ledger);
    let (opening, stats) = tree.open_with(samples, leaf)?;
    ctx.ledger.charge_hash(stats.hash_ops);
    Ok(Opening {
        leaf_width: u32::try_from(opening.leaf_width).map_err(|_| {
            SchemeError::MalformedPayload {
                what: "opening leaf width".into(),
            }
        })?,
        leaf_values: opening.leaf_values,
        leaf_siblings: opening.leaf_siblings,
        digest_siblings: opening.digest_siblings,
    })
}

/// The interactive CBS scheme as a [`VerificationScheme`]: commit →
/// challenge → sample proofs → verdict, with the samples drawn by the
/// supervisor *after* the commitment arrives (Section 3.1).
///
/// [`run_round`](crate::scheme::run_round) runs one complete round of it
/// in-process; the wire task id comes from the session context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbsScheme {
    /// Number of samples `m`.
    pub samples: usize,
    /// Supervisor sampling seed (a fresh random value in production; a
    /// fixed value in reproducible experiments).
    pub seed: u64,
    /// How many screened reports to audit by recomputation (0 disables;
    /// an extension over the paper — catches the malicious model).
    pub report_audit: usize,
}

impl<H: HashFunction> VerificationScheme<H> for CbsScheme {
    fn name(&self) -> &'static str {
        "cbs"
    }

    fn supervisor_session<'a>(
        &'a self,
        ctx: SupervisorContext<'a>,
    ) -> Box<dyn SupervisorSession + 'a> {
        SupervisorFrame::boxed(Cbs::<H>(*self, PhantomData), ctx)
    }

    fn participant_session<'a>(
        &'a self,
        ctx: ParticipantContext<'a>,
    ) -> Box<dyn ParticipantSession + 'a> {
        ParticipantFrame::boxed(Cbs::<H>(*self, PhantomData), ctx)
    }
}

/// The middle of a CBS session: commit, challenge, proofs.
struct Cbs<H>(CbsScheme, PhantomData<H>);

/// What the supervisor awaits next, and what it keeps meanwhile.
enum Awaiting<H: HashFunction> {
    Commit,
    Proofs {
        root: H::Digest,
        samples: Vec<u64>,
    },
    Reports {
        root: H::Digest,
        samples: Vec<u64>,
        proofs: Box<Opening>,
    },
}

impl<H: HashFunction> SupervisorMiddle for Cbs<H> {
    type State = Awaiting<H>;

    fn open(&self, _ctx: &SupervisorContext<'_>) -> Opened<Self::State> {
        check_samples(self.0.samples)?;
        Ok((Awaiting::Commit, None))
    }

    fn on_message(
        &self,
        ctx: &SupervisorContext<'_>,
        state: Self::State,
        _slot: usize,
        msg: Message,
    ) -> Result<Step<Self::State>, SchemeError> {
        let expected = ctx.task_ids[0];
        match state {
            // Step 1→2: commitment first, then reveal the samples.
            Awaiting::Commit => {
                let Message::Commit { task_id, root } = msg else {
                    return unexpected("Commit", &msg);
                };
                check_task(expected, task_id)?;
                let root = H::digest_from_bytes(&root).ok_or(SchemeError::MalformedPayload {
                    what: "commitment root".into(),
                })?;
                let samples = draw_samples(self.0.seed, self.0.samples, ctx.domain.len());
                let challenge = Message::Challenge {
                    task_id,
                    samples: samples.clone(),
                };
                Ok(Step::Next(
                    Awaiting::Proofs { root, samples },
                    vec![(0, challenge)],
                ))
            }
            // Step 3: the proofs land, the reports follow.
            Awaiting::Proofs { root, samples } => {
                let Message::Proofs { task_id, proofs } = msg else {
                    return unexpected("Proofs", &msg);
                };
                check_task(expected, task_id)?;
                let state = Awaiting::Reports {
                    root,
                    samples,
                    proofs,
                };
                Ok(Step::Next(state, Vec::new()))
            }
            // Step 4: verify everything; the frame announces the verdict.
            Awaiting::Reports {
                root,
                samples,
                proofs,
            } => {
                let Message::Reports { task_id, reports } = msg else {
                    return unexpected("Reports", &msg);
                };
                check_task(expected, task_id)?;
                let verdict = verify_round::<H>(
                    ctx,
                    &root,
                    &samples,
                    &proofs,
                    &reports,
                    self.0.report_audit,
                    self.0.seed,
                )?;
                Ok(Step::Decided(SessionOutcome { verdict, reports }))
            }
        }
    }
}

/// What a CBS participant keeps between its commitment and the
/// challenge.
struct AwaitChallenge<H: HashFunction> {
    domain: Domain,
    tree: MerkleTree<H>,
    reports: Vec<ScreenReport>,
}

impl<H: HashFunction> ParticipantMiddle for Cbs<H> {
    type State = AwaitChallenge<H>;

    // Step 1: evaluate (honestly or not), build the tree, commit.
    fn on_assign(
        &self,
        ctx: &ParticipantContext<'_>,
        assignment: Assignment,
    ) -> Reply<Self::State> {
        let Assignment { task_id, domain } = assignment;
        let Materialized {
            row,
            width,
            reports,
        } = materialize(ctx, domain)?;
        let tree = build_tree::<H>(ctx, row, width)?;
        let commit = Message::Commit {
            task_id,
            root: tree.root().as_ref().to_vec(),
        };
        let state = AwaitChallenge {
            domain,
            tree,
            reports,
        };
        Ok((vec![commit], Some(state)))
    }

    // Step 3: one opening over every sample; ship it + reports.
    fn on_message(
        &self,
        ctx: &ParticipantContext<'_>,
        task_id: u64,
        state: Self::State,
        msg: Message,
    ) -> Reply<Self::State> {
        let Message::Challenge {
            task_id: tid,
            samples,
        } = msg
        else {
            return unexpected("Challenge", &msg);
        };
        check_task(task_id, tid)?;
        let proofs = open_samples(ctx, &state.tree, &samples, state.domain)?;
        let out = vec![
            Message::Proofs {
                task_id,
                proofs: Box::new(proofs),
            },
            Message::Reports {
                task_id,
                reports: state.reports,
            },
        ];
        Ok((out, None))
    }
}

/// The supervisor's Step 4 as a standalone building block: checks that
/// `opening` answers exactly `samples` against the commitment `root`, that
/// every claimed `f(x)` is correct, that the reconstruction matches the
/// root, and (optionally) audits the screened `reports`.
///
/// Exposed so custom supervisors — e.g. one behind a
/// [`Broker`](ugc_grid::Broker) driving many participants over shared
/// endpoints — can reuse the verification logic outside the scheme's own
/// supervisor sessions.
///
/// # The check order
///
/// 1. **Shape.** `samples` fix the opening's shape before a byte of it is
///    looked at ([`MerkleOpening::check_shape`]): `d` distinct leaf
///    values, and so many leaf and digest siblings. Row by row, in wire
///    order: a leaf width other than the task's and a value row that is
///    not whole leaves are [`SchemeError::MalformedPayload`], another
///    number of leaves is [`SchemeError::ProofCountMismatch`]; a
///    leaf-sibling row of any other length cannot rebuild the root and is
///    a [`Verdict::CommitmentMismatch`]; so is a digest-sibling row,
///    unless it is not even whole digests (`MalformedPayload`).
///    Whichever it is, nothing has been evaluated, hashed or charged —
///    the cost of a hostile opening is reading three lengths.
/// 2. **Step 4.1, the values.** Each distinct sampled index, in order of
///    first appearance in `samples`: `task.verify(x, f(x))`, one call per
///    value — [`ComputeTask::verify`](ugc_task::ComputeTask::verify) is where a task with cheap
///    verification plugs in its own check. The first value that fails is
///    [`Verdict::WrongResult`] naming that sample; the values checked up
///    to and including it are charged (`charge_verify(1)` each, and
///    `charge_f(unit_cost)` unless
///    [`cheap_verification`](ugc_task::ComputeTask::cheap_verification)), no hash is.
/// 3. **Step 4.2, the commitment.** One reconstruction of the root from
///    all the values and siblings ([`CheckedOpening::reconstruct_root`],
///    on what step 1 checked: the shape is walked once),
///    charged `charge_hash` per node rebuilt ([`OpeningShape::hash_ops`],
///    at most `d·H`). A root other than the commitment is
///    [`Verdict::CommitmentMismatch`] **carrying the first challenged
///    index**, `samples[0]`: one reconstruction binds all the samples
///    together and cannot say which of them the commitment disagrees
///    with.
///
/// An index of `samples` outside the share is nothing the participant
/// could have committed to: [`Verdict::WrongResult`] for the first one,
/// before step 1.
///
/// [`OpeningShape::hash_ops`]: ugc_merkle::OpeningShape::hash_ops
/// [`CheckedOpening::reconstruct_root`]: ugc_merkle::CheckedOpening::reconstruct_root
///
/// # Errors
///
/// [`MerkleError::NoIndices`] for an empty challenge, and the
/// malformed-opening errors of step 1; cheating is reported through the
/// `Ok` verdict, not as an error.
pub fn verify_round<H: HashFunction>(
    ctx: &SupervisorContext<'_>,
    root: &H::Digest,
    samples: &[u64],
    opening: &Opening,
    reports: &[ScreenReport],
    report_audit: usize,
    seed: u64,
) -> Result<Verdict, SchemeError> {
    let SupervisorContext {
        task,
        screener,
        domain,
        ref ledger,
        ..
    } = *ctx;
    let set = match LeafSet::new(domain.len(), samples) {
        Ok(set) => set,
        Err(MerkleError::IndexOutOfRange { index, .. }) => {
            return Ok(Verdict::WrongResult { sample: index })
        }
        Err(other) => return Err(other.into()),
    };

    // Shape: is this an opening this challenge could have produced?
    let malformed = |what: &'static str| Err(SchemeError::MalformedPayload { what: what.into() });
    let width = task.output_width();
    if usize::try_from(opening.leaf_width) != Ok(width) {
        return malformed("opening leaf width");
    }
    let rows = MerkleOpening {
        leaf_width: width,
        leaf_values: opening.leaf_values.as_slice(),
        leaf_siblings: opening.leaf_siblings.as_slice(),
        digest_siblings: opening.digest_siblings.as_slice(),
    };
    let checked = match rows.check_shape::<H>(&set) {
        Ok(checked) => checked,
        Err(MerkleError::OpeningShape {
            row,
            entries,
            width,
            found,
        }) => {
            let ragged = found % width != 0;
            return match row {
                OpeningRow::LeafValues if ragged => malformed("opening leaf values"),
                OpeningRow::LeafValues => Err(SchemeError::ProofCountMismatch {
                    expected: entries,
                    got: found / width,
                }),
                OpeningRow::DigestSiblings if ragged => malformed("proof digest sibling"),
                _ => Ok(Verdict::CommitmentMismatch { sample: samples[0] }),
            };
        }
        Err(other) => return Err(other.into()),
    };

    let shape = checked.shape();

    // Step 4.1: is each claimed f(x) correct?
    let mut seen = vec![false; shape.leaves];
    let mut f_checked = 0u64;
    let mut wrong = None;
    for &sample in samples {
        let at = set
            .position(sample)
            .expect("the set is made of the samples");
        if std::mem::replace(&mut seen[at], true) {
            continue;
        }
        let x = domain.input(sample).expect("the set is within the share");
        f_checked += 1;
        if !task.verify(x, &opening.leaf_values[at * width..][..width]) {
            wrong = Some(sample);
            break;
        }
    }
    ledger.charge_verify(f_checked);
    if !task.cheap_verification() {
        // Verification recomputes f at full cost.
        ledger.charge_f(f_checked * task.unit_cost());
    }
    if let Some(sample) = wrong {
        return Ok(Verdict::WrongResult { sample });
    }

    // Step 4.2: does the opening reproduce the commitment?
    let rebuilt = checked.reconstruct_root(LaneWidth::default());
    ledger.charge_hash(shape.hash_ops);
    if rebuilt != *root {
        return Ok(Verdict::CommitmentMismatch { sample: samples[0] });
    }
    if let Some(verdict) =
        crate::scheme::audit_reports(task, screener, domain, reports, report_audit, seed, ledger)
    {
        return Ok(verdict);
    }
    Ok(Verdict::Accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{run_round, storage_round};
    use crate::{MixedFleetConfig, RoundOutcome};
    use proptest::prelude::*;
    use proptest::sample::Index;
    use ugc_grid::{
        CheatSelection, CostLedger, CostReport, HonestWorker, MaliciousWorker, SemiHonestCheater,
    };
    use ugc_hash::{Md5, Sha256};
    use ugc_merkle::MerkleProof;
    use ugc_task::workloads::PasswordSearch;
    use ugc_task::{AcceptAllScreener, ComputeTask, ZeroGuesser};

    fn config(m: usize, seed: u64) -> CbsScheme {
        CbsScheme {
            samples: m,
            seed,
            report_audit: 0,
        }
    }

    /// One honest full-storage round of `config(8, 3)`, with explicit
    /// execution knobs.
    fn honest_round(
        task: &PasswordSearch,
        domain: Domain,
        parallelism: Parallelism,
        lanes: LaneWidth,
    ) -> RoundOutcome {
        let knobs = MixedFleetConfig {
            parallelism,
            lanes,
            ..MixedFleetConfig::default()
        };
        let screener = task.match_screener();
        run_round::<Sha256>(
            &config(8, 3),
            task,
            &screener,
            domain,
            &[&HonestWorker],
            &knobs,
        )
        .unwrap()
    }

    #[test]
    fn honest_participant_always_accepted() {
        // Theorem 1 (soundness), end to end, across seeds and domain sizes.
        for (n, seed) in [(16u64, 1u64), (100, 2), (257, 3)] {
            let task = PasswordSearch::with_hidden_password(9, 3);
            let screener = task.match_screener();
            let outcome = storage_round::<Sha256>(
                &config(10, seed),
                &task,
                &screener,
                Domain::new(0, n),
                &[&HonestWorker],
                ParticipantStorage::Full,
            )
            .unwrap();
            assert!(outcome.accepted, "honest rejected at n={n} seed={seed}");
            assert_eq!(outcome.verdict, Verdict::Accepted);
        }
    }

    #[test]
    fn honest_reports_reach_supervisor() {
        let task = PasswordSearch::with_hidden_password(9, 37);
        let screener = task.match_screener();
        let outcome = storage_round::<Sha256>(
            &config(5, 1),
            &task,
            &screener,
            Domain::new(0, 64),
            &[&HonestWorker],
            ParticipantStorage::Full,
        )
        .unwrap();
        assert_eq!(outcome.reports.len(), 1);
        assert_eq!(outcome.reports[0].input, 37);
    }

    #[test]
    fn gross_cheater_caught() {
        let task = PasswordSearch::with_hidden_password(9, 3);
        let screener = task.match_screener();
        let cheater =
            SemiHonestCheater::new(0.1, CheatSelection::Scattered, ZeroGuesser::new(5), 11);
        let outcome = storage_round::<Sha256>(
            &config(20, 42),
            &task,
            &screener,
            Domain::new(0, 256),
            &[&cheater],
            ParticipantStorage::Full,
        )
        .unwrap();
        assert!(!outcome.accepted);
        assert!(matches!(outcome.verdict, Verdict::WrongResult { .. }));
    }

    #[test]
    fn partial_storage_equivalent_verdicts() {
        let task = PasswordSearch::with_hidden_password(1, 2);
        let screener = task.match_screener();
        for storage in [
            ParticipantStorage::Full,
            ParticipantStorage::Partial { subtree_height: 2 },
            ParticipantStorage::Partial { subtree_height: 5 },
        ] {
            let outcome = storage_round::<Sha256>(
                &config(8, 9),
                &task,
                &screener,
                Domain::new(0, 128),
                &[&HonestWorker],
                storage,
            )
            .unwrap();
            assert!(outcome.accepted, "storage {storage:?}");
        }
    }

    #[test]
    fn partial_storage_charges_rebuild_f_evals() {
        let task = PasswordSearch::with_hidden_password(1, 2);
        let screener = task.match_screener();
        let full = storage_round::<Sha256>(
            &config(8, 9),
            &task,
            &screener,
            Domain::new(0, 128),
            &[&HonestWorker],
            ParticipantStorage::Full,
        )
        .unwrap();
        let partial = storage_round::<Sha256>(
            &config(8, 9),
            &task,
            &screener,
            Domain::new(0, 128),
            &[&HonestWorker],
            ParticipantStorage::Partial { subtree_height: 4 },
        )
        .unwrap();
        // Partial mode pays extra f evaluations: up to m × 2^ℓ beyond the
        // base n (fewer when samples share subtrees).
        assert_eq!(full.participant_costs.f_evals, 128);
        assert!(partial.participant_costs.f_evals > 128);
        assert!(partial.participant_costs.f_evals <= 128 + 8 * 16);
    }

    #[test]
    fn cheater_with_partial_storage_still_caught() {
        let task = PasswordSearch::with_hidden_password(1, 2);
        let screener = task.match_screener();
        let cheater =
            SemiHonestCheater::new(0.2, CheatSelection::Scattered, ZeroGuesser::new(5), 3);
        let outcome = storage_round::<Sha256>(
            &config(16, 4),
            &task,
            &screener,
            Domain::new(0, 128),
            &[&cheater],
            ParticipantStorage::Partial { subtree_height: 3 },
        )
        .unwrap();
        assert!(!outcome.accepted);
    }

    #[test]
    fn parallel_tree_build_wired_through_run_round() {
        // Domain ≥ PARALLEL_BUILD_MIN_LEAVES with >1 thread takes the
        // threaded build; how many threads a host lends is execution
        // layout, so verdict, bytes and both ledgers are those of the
        // serial round.
        let task = PasswordSearch::with_hidden_password(4, 99);
        let domain = Domain::new(0, PARALLEL_BUILD_MIN_LEAVES as u64 * 2);
        let measured = |threads| {
            let lanes = LaneWidth::default();
            let round = honest_round(&task, domain, Parallelism::threads(threads), lanes);
            assert!(round.accepted);
            (
                round.participant_costs,
                round.supervisor_costs,
                round.supervisor_link,
            )
        };
        let serial = measured(1);
        for threads in [2, 4, 8] {
            assert_eq!(measured(threads), serial, "threads {threads}");
        }
    }

    #[test]
    fn lane_width_does_not_change_verdict_or_costs() {
        // LaneWidth is execution-only: accounting and verdict are
        // identical at either width.
        let task = PasswordSearch::with_hidden_password(4, 17);
        let reference = honest_round(
            &task,
            Domain::new(0, 300),
            Parallelism::serial(),
            LaneWidth::Scalar,
        );
        let outcome = honest_round(
            &task,
            Domain::new(0, 300),
            Parallelism::serial(),
            LaneWidth::X8,
        );
        assert_eq!(outcome.verdict, reference.verdict);
        assert_eq!(outcome.participant_costs, reference.participant_costs);
        assert_eq!(outcome.supervisor_link, reference.supervisor_link);
    }

    #[test]
    fn md5_variant_works() {
        let task = PasswordSearch::with_hidden_password(2, 4);
        let screener = task.match_screener();
        let outcome = storage_round::<Md5>(
            &config(6, 5),
            &task,
            &screener,
            Domain::new(0, 64),
            &[&HonestWorker],
            ParticipantStorage::Full,
        )
        .unwrap();
        assert!(outcome.accepted);
    }

    #[test]
    fn malicious_worker_survives_without_audit_caught_with() {
        // The malicious model does all the work, so pure CBS accepts it…
        let task = PasswordSearch::with_hidden_password(3, 10);
        let screener = ugc_task::AcceptAllScreener;
        let malicious = MaliciousWorker::new(1.0, 8);
        let no_audit = storage_round::<Sha256>(
            &config(10, 6),
            &task,
            &screener,
            Domain::new(0, 64),
            &[&malicious],
            ParticipantStorage::Full,
        )
        .unwrap();
        assert!(no_audit.accepted, "CBS alone cannot see report corruption");
        // …but the report audit extension catches the corrupted payloads.
        let audited_config = CbsScheme {
            report_audit: 4,
            ..config(10, 6)
        };
        let audited = storage_round::<Sha256>(
            &audited_config,
            &task,
            &screener,
            Domain::new(0, 64),
            &[&malicious],
            ParticipantStorage::Full,
        )
        .unwrap();
        assert!(!audited.accepted);
        assert!(matches!(audited.verdict, Verdict::ReportMismatch { .. }));
    }

    #[test]
    fn communication_is_logarithmic_not_linear() {
        let task = PasswordSearch::with_hidden_password(4, 1);
        let screener = task.match_screener();
        let mut received = Vec::new();
        for bits in [8u32, 10, 12] {
            let outcome = storage_round::<Sha256>(
                &config(10, 2),
                &task,
                &screener,
                Domain::new(0, 1 << bits),
                &[&HonestWorker],
                ParticipantStorage::Full,
            )
            .unwrap();
            received.push(outcome.supervisor_link.bytes_received);
        }
        // 16× the domain should grow traffic by ~(height ratio), not 16×.
        let growth = received[2] as f64 / received[0] as f64;
        assert!(
            growth < 2.0,
            "CBS traffic grew {growth:.2}× for a 16× domain"
        );
    }

    #[test]
    fn zero_samples_rejected() {
        let task = PasswordSearch::with_hidden_password(1, 1);
        let screener = task.match_screener();
        let err = storage_round::<Sha256>(
            &config(0, 1),
            &task,
            &screener,
            Domain::new(0, 16),
            &[&HonestWorker],
            ParticipantStorage::Full,
        )
        .unwrap_err();
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
    }

    #[test]
    fn supervisor_verification_cost_scales_with_m() {
        let task = PasswordSearch::with_hidden_password(1, 1);
        let screener = task.match_screener();
        let small = storage_round::<Sha256>(
            &config(5, 3),
            &task,
            &screener,
            Domain::new(0, 256),
            &[&HonestWorker],
            ParticipantStorage::Full,
        )
        .unwrap();
        let large = storage_round::<Sha256>(
            &config(50, 3),
            &task,
            &screener,
            Domain::new(0, 256),
            &[&HonestWorker],
            ParticipantStorage::Full,
        )
        .unwrap();
        // One check per distinct sample: drawing with replacement, 50
        // samples over 256 inputs repeat a few.
        let distinct = |m| {
            let drawn = draw_samples(3, m, 256);
            drawn
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len() as u64
        };
        assert!(distinct(50) < 50 && distinct(50) > 40);
        assert_eq!(small.supervisor_costs.verify_ops, distinct(5));
        assert_eq!(large.supervisor_costs.verify_ops, distinct(50));
        assert_eq!(
            large.supervisor_costs.f_evals,
            distinct(50) * task.unit_cost()
        );
        // The supervisor never evaluates f on the whole domain.
        assert!(large.supervisor_costs.f_evals < 256);
    }

    /// What the supervisor holds when Step 4 starts: the task, the
    /// participant's share, the true leaves, and the tree an honest
    /// participant committed to.
    struct Committed<H: HashFunction> {
        task: PasswordSearch,
        domain: Domain,
        leaves: Vec<Vec<u8>>,
        tree: MerkleTree<H>,
    }

    impl<H: HashFunction> Committed<H> {
        /// A share that does not start at input 0, so an index taken for
        /// an input (or the reverse) shows; `unit_cost` 3, so does an `f`
        /// charged once too often.
        fn honest(n: u64) -> Self {
            let task = PasswordSearch::with_work_factor(3, 5, 3);
            let domain = Domain::new(1000, n);
            let leaves: Vec<Vec<u8>> = domain.inputs().map(|x| task.compute(x)).collect();
            let tree = MerkleTree::build(&leaves).unwrap();
            Committed {
                task,
                domain,
                leaves,
                tree,
            }
        }

        /// The honest participant's answer to `samples`, in wire form.
        fn opening(&self, samples: &[u64]) -> Opening {
            wire_opening(&self.tree, samples)
        }

        /// The supervisor's context for this share: every report is of
        /// interest, and the ledger is fresh.
        fn ctx(&self) -> SupervisorContext<'_> {
            SupervisorContext {
                task: &self.task,
                screener: &AcceptAllScreener,
                domain: self.domain,
                task_ids: Vec::new(),
                ledger: CostLedger::new(),
            }
        }

        /// `verify_round` against the honest commitment, no reports.
        fn verify(
            &self,
            samples: &[u64],
            opening: &Opening,
        ) -> (Result<Verdict, SchemeError>, CostReport) {
            let ctx = self.ctx();
            let result = verify_round::<H>(&ctx, &self.tree.root(), samples, opening, &[], 0, 0);
            (result, ctx.ledger.report())
        }
    }

    /// `tree`'s opening of `samples` as the participant session ships it.
    fn wire_opening<H: HashFunction>(tree: &MerkleTree<H>, samples: &[u64]) -> Opening {
        let opening = tree.open(samples).unwrap();
        Opening {
            leaf_width: opening.leaf_width as u32,
            leaf_values: opening.leaf_values,
            leaf_siblings: opening.leaf_siblings,
            digest_siblings: opening.digest_siblings,
        }
    }

    #[test]
    fn verify_round_accepts_honest() {
        let c = Committed::<Sha256>::honest(16);
        let (result, costs) = c.verify(&[4], &c.opening(&[4]));
        assert_eq!(result, Ok(Verdict::Accepted));
        // Verification recomputed f once and hashed the path.
        assert_eq!(costs.verify_ops, 1);
        assert_eq!(costs.f_evals, c.task.unit_cost());
        assert_eq!(costs.hash_ops, 4);
    }

    #[test]
    fn verify_round_checks_and_hashes_what_the_samples_share_once() {
        // Five samples, two distinct leaves, in neighbouring pairs of a
        // 16-leaf tree: the paths of 4 and 7 meet two levels up.
        let c = Committed::<Sha256>::honest(16);
        let samples = [7, 4, 7, 7, 4];
        let opening = c.opening(&samples);
        assert_eq!(opening.len(), 2);
        let (result, costs) = c.verify(&samples, &opening);
        assert_eq!(result, Ok(Verdict::Accepted));
        assert_eq!(costs.verify_ops, 2);
        assert_eq!(costs.f_evals, 2 * c.task.unit_cost());
        // Two nodes at level 1, then one each at levels 2, 3 and 4 —
        // where five single paths would have cost 5 · 4.
        assert_eq!(costs.hash_ops, 2 + 1 + 1 + 1);
    }

    #[test]
    fn verify_round_rejects_wrong_result() {
        let c = Committed::<Sha256>::honest(16);
        let mut opening = c.opening(&[4]);
        opening.leaf_values = c.leaves[5].clone();
        let (result, costs) = c.verify(&[4], &opening);
        assert_eq!(result, Ok(Verdict::WrongResult { sample: 4 }));
        // f(x) was checked and paid for; the path was never looked at.
        assert_eq!(costs.f_evals, c.task.unit_cost());
        assert_eq!(costs.hash_ops, 0);
    }

    #[test]
    fn verify_round_names_the_first_wrong_value_in_challenge_order() {
        // Leaves 2 and 9 are both wrong; the challenge asks for 9 first,
        // after a correct 12 and a repeat of it.
        let c = Committed::<Sha256>::honest(16);
        let samples = [12, 12, 9, 2, 5];
        let mut opening = c.opening(&samples);
        for at in [0, 2] {
            // Index order: 2, 5, 9, 12.
            opening.leaf_values[at * 16] ^= 1;
        }
        let (result, costs) = c.verify(&samples, &opening);
        assert_eq!(result, Ok(Verdict::WrongResult { sample: 9 }));
        // 12 and 9 were checked, 2 and 5 never reached, nothing hashed.
        assert_eq!(costs.verify_ops, 2);
        assert_eq!(costs.f_evals, 2 * c.task.unit_cost());
        assert_eq!(costs.hash_ops, 0);
    }

    #[test]
    fn verify_round_rejects_commitment_mismatch() {
        // The participant recomputed the true f(x) after the challenge, but
        // its tree committed to garbage: correct values, wrong siblings.
        let c = Committed::<Sha256>::honest(16);
        let garbage: Vec<Vec<u8>> = (0..16u64).map(|x| vec![x as u8; 16]).collect();
        let garbage_tree: MerkleTree<Sha256> = MerkleTree::build(&garbage).unwrap();
        let samples = [9, 4];
        let mut opening = wire_opening(&garbage_tree, &samples);
        opening.leaf_values = [c.leaves[4].clone(), c.leaves[9].clone()].concat(); // truthful f(x)…
        let ctx = c.ctx();
        let verdict = verify_round::<Sha256>(
            &ctx,
            &garbage_tree.root(), // …but the commitment disagrees
            &samples,
            &opening,
            &[],
            0,
            0,
        );
        let ledger = ctx.ledger;
        // One reconstruction speaks for every sample: the verdict carries
        // the first challenged index.
        assert_eq!(verdict, Ok(Verdict::CommitmentMismatch { sample: 9 }));
        assert_eq!(ledger.report().verify_ops, 2);
        assert_eq!(ledger.report().hash_ops, 2 + 2 + 2 + 1);
    }

    #[test]
    fn verify_round_rejects_out_of_domain_index() {
        // The challenge itself names an index outside the share: nothing
        // to evaluate, nothing charged — wherever in the challenge it is.
        let c = Committed::<Sha256>::honest(16);
        let (result, costs) = c.verify(&[99], &c.opening(&[4]));
        assert_eq!(result, Ok(Verdict::WrongResult { sample: 99 }));
        assert_eq!(costs, CostReport::default());
        let (result, costs) = c.verify(&[4, 16, 99], &c.opening(&[4]));
        assert_eq!(result, Ok(Verdict::WrongResult { sample: 16 }));
        assert_eq!(costs, CostReport::default());
        let (result, costs) = c.verify(&[], &c.opening(&[4]));
        assert_eq!(result, Err(MerkleError::NoIndices.into()));
        assert_eq!(costs, CostReport::default());
    }

    #[test]
    fn verify_round_rejects_bad_digest_len() {
        let c = Committed::<Sha256>::honest(16);
        let mut opening = c.opening(&[4, 9]);
        opening.digest_siblings.pop();
        let (result, costs) = c.verify(&[4, 9], &opening);
        assert_eq!(
            result,
            Err(SchemeError::MalformedPayload {
                what: "proof digest sibling".into()
            })
        );
        // Shape comes first: no f(x) was checked, no node rebuilt.
        assert_eq!(costs, CostReport::default());
    }

    #[test]
    fn verify_round_decides_a_misshapen_opening_for_free() {
        let c = Committed::<Sha256>::honest(100);
        let samples = [40, 7, 99, 40];
        let honest = c.opening(&samples);
        assert_eq!(c.verify(&samples, &honest).0, Ok(Verdict::Accepted));
        let malformed =
            |what: &'static str| Err(SchemeError::MalformedPayload { what: what.into() });
        let mismatch = Ok(Verdict::CommitmentMismatch { sample: 40 });
        let count = |got| Err(SchemeError::ProofCountMismatch { expected: 3, got });
        type Tamper = fn(&mut Opening);
        let cases: [(Tamper, Result<Verdict, SchemeError>); 12] = [
            (|o| o.leaf_width = 8, malformed("opening leaf width")),
            (|o| o.leaf_width = 0, malformed("opening leaf width")),
            (|o| o.leaf_values.push(0), malformed("opening leaf values")),
            (
                |o| o.digest_siblings.push(0),
                malformed("proof digest sibling"),
            ),
            (|o| o.leaf_values.truncate(32), count(2)),
            (|o| o.leaf_values.extend([0; 16]), count(4)),
            (|o| *o = Opening::default(), malformed("opening leaf width")),
            (|o| o.leaf_siblings.truncate(16), mismatch.clone()),
            (|o| o.leaf_siblings.extend([0; 16]), mismatch.clone()),
            (|o| o.digest_siblings.clear(), mismatch.clone()),
            (|o| o.digest_siblings.extend([0; 32]), mismatch.clone()),
            (
                |o| o.digest_siblings.resize(100_000 * 32, 0xAB),
                mismatch.clone(),
            ),
        ];
        for (i, (tamper, expected)) in cases.into_iter().enumerate() {
            let mut opening = honest.clone();
            tamper(&mut opening);
            assert_eq!(
                c.verify(&samples, &opening),
                (expected, CostReport::default()),
                "case {i}"
            );
        }
    }

    #[test]
    fn the_papers_closed_forms_bound_every_round() {
        // m·(2w + (H − 1)·D) bytes, m evaluations, m·H hashes: what m
        // paths that never meet would cost. One sample meets the bound
        // exactly; more samples only ever fall below it.
        use crate::analysis::cbs_traffic_bytes;
        for n in [1u64, 2, 16, 100, 257] {
            let c = Committed::<Sha256>::honest(n);
            let height = ugc_merkle::tree_height(n);
            let (w, d) = (16u64, 32u64);
            for m in [1usize, 2, 9, 64] {
                let samples = draw_samples(n ^ 0x5eed, m, n);
                let opening = c.opening(&samples);
                let payload = opening.leaf_values.len()
                    + opening.leaf_siblings.len()
                    + opening.digest_siblings.len();
                // The closed form counts the commitment too.
                let bound = cbs_traffic_bytes(m as u64, height, w, d) - d;
                let (result, costs) = c.verify(&samples, &opening);
                assert_eq!(result, Ok(Verdict::Accepted), "n={n} m={m}");
                assert!(payload as u64 <= bound, "n={n} m={m}: {payload} > {bound}");
                assert!(costs.verify_ops <= m as u64, "n={n} m={m}");
                assert!(
                    costs.f_evals <= m as u64 * c.task.unit_cost(),
                    "n={n} m={m}"
                );
                assert!(
                    costs.hash_ops <= m as u64 * u64::from(height),
                    "n={n} m={m}"
                );
                if m == 1 {
                    assert_eq!(payload as u64, bound, "n={n}");
                    assert_eq!(costs.hash_ops, u64::from(height), "n={n}");
                }
            }
        }
    }

    /// Step 4 one sample at a time, the way the paper states it and the
    /// way `verify_round` must stay indistinguishable from: the opening
    /// is taken apart into the single authentication path of each
    /// distinct sample — by sets and maps over `(level, node)`, not the
    /// sorted walk of `ugc-merkle` — then each distinct sample, in order
    /// of first appearance, has its `f(x)` checked and charged, each
    /// path is verified with [`MerkleProof::verify`], and the hashes
    /// charged are the distinct nodes those paths rebuild. It takes only
    /// openings of the shape the samples dictate; what `verify_round`
    /// does with the others is pinned above.
    fn per_sample_reference<H: HashFunction>(
        ctx: &SupervisorContext<'_>,
        root: &H::Digest,
        samples: &[u64],
        opening: &Opening,
        reports: &[ScreenReport],
        report_audit: usize,
        seed: u64,
    ) -> Result<Verdict, SchemeError> {
        let SupervisorContext {
            task,
            screener,
            domain,
            ref ledger,
            ..
        } = *ctx;
        use std::collections::{BTreeMap, BTreeSet};
        if let Some(&sample) = samples.iter().find(|&&s| s >= domain.len()) {
            return Ok(Verdict::WrongResult { sample });
        }
        let width = task.output_width();
        let height = ugc_merkle::tree_height(domain.len());
        let known = |level: u32| -> BTreeSet<u64> { samples.iter().map(|i| i >> level).collect() };

        // Every node value the paths touch: the sampled leaves, then the
        // supplied siblings in the canonical order, then what they hash to.
        let mut values: BTreeMap<(u32, u64), Vec<u8>> = known(0)
            .into_iter()
            .zip(opening.leaf_values.chunks_exact(width))
            .map(|(i, value)| ((0, i), value.to_vec()))
            .collect();
        let mut leaf_siblings = opening.leaf_siblings.chunks_exact(width);
        let mut digest_siblings = opening.digest_siblings.chunks_exact(H::DIGEST_LEN);
        for level in 0..height {
            let nodes = known(level);
            for &node in &nodes {
                if level > 0 {
                    let child = |k| values[&(level - 1, k)].as_slice();
                    let digest = H::digest_pair(child(2 * node), child(2 * node + 1));
                    values.insert((level, node), digest.as_ref().to_vec());
                }
                if !nodes.contains(&(node ^ 1)) {
                    let row = if level == 0 {
                        &mut leaf_siblings
                    } else {
                        &mut digest_siblings
                    };
                    let sibling = row.next().expect("an opening of the dictated shape");
                    values.insert((level, node ^ 1), sibling.to_vec());
                }
            }
        }
        assert!(leaf_siblings.next().is_none() && digest_siblings.next().is_none());

        // Step 4.1, sample by sample.
        let mut seen = BTreeSet::new();
        for &sample in samples {
            if !seen.insert(sample) {
                continue;
            }
            ledger.charge_verify(1);
            if !task.cheap_verification() {
                ledger.charge_f(task.unit_cost());
            }
            let x = domain.input(sample).unwrap();
            if !task.verify(x, &values[&(0, sample)]) {
                return Ok(Verdict::WrongResult { sample });
            }
        }

        // Step 4.2, path by path.
        let mut rebuilt = BTreeSet::new();
        let mut all_accept = true;
        for &sample in &seen {
            let digests = (1..height)
                .map(|level| H::digest_from_bytes(&values[&(level, (sample >> level) ^ 1)]))
                .collect::<Option<Vec<_>>>()
                .unwrap();
            let proof: MerkleProof<H> =
                MerkleProof::from_parts(sample, values[&(0, sample ^ 1)].clone(), digests);
            assert_eq!(proof.path_len(), height);
            all_accept &= proof.verify(root, &values[&(0, sample)]);
            rebuilt.extend((1..=height).map(|level| (level, sample >> level)));
        }
        ledger.charge_hash(rebuilt.len() as u64);
        if !all_accept {
            return Ok(Verdict::CommitmentMismatch { sample: samples[0] });
        }
        Ok(crate::scheme::audit_reports(
            task,
            screener,
            domain,
            reports,
            report_audit,
            seed,
            ledger,
        )
        .unwrap_or(Verdict::Accepted))
    }

    /// One way an opening of the right shape can be wrong, as drawn by
    /// the differential test.
    #[derive(Debug, Clone, Copy)]
    enum Tamper {
        OutOfDomainIndex,
        LeafValueByte,
        LeafSiblingByte,
        DigestSiblingByte,
    }

    const TAMPERS: [Tamper; 4] = [
        Tamper::OutOfDomainIndex,
        Tamper::LeafValueByte,
        Tamper::LeafSiblingByte,
        Tamper::DigestSiblingByte,
    ];

    /// Applies `tamper`; `at` picks the sample or the byte (a height-1
    /// tree has no digest siblings and two sampled neighbours leave no
    /// leaf sibling: those tampers then leave the opening as it was).
    fn apply(tamper: Tamper, at: Index, n: u64, samples: &mut [u64], opening: &mut Opening) {
        let flip = |row: &mut Vec<u8>| {
            if !row.is_empty() {
                let byte = at.index(row.len());
                row[byte] ^= 0x10;
            }
        };
        match tamper {
            Tamper::OutOfDomainIndex => samples[at.index(samples.len())] += n,
            Tamper::LeafValueByte => flip(&mut opening.leaf_values),
            Tamper::LeafSiblingByte => flip(&mut opening.leaf_siblings),
            Tamper::DigestSiblingByte => flip(&mut opening.digest_siblings),
        }
    }

    /// Runs the tampered round through both implementations and demands
    /// the same verdict or error and the same ledger, axis for axis.
    fn assert_indistinguishable<H: HashFunction>(
        n: u64,
        picks: &[Index],
        tampers: &[(usize, Index)],
        corrupt_report: bool,
        report_audit: usize,
    ) {
        let c = Committed::<H>::honest(n);
        let mut samples: Vec<u64> = picks.iter().map(|p| p.index(n as usize) as u64).collect();
        let mut opening = c.opening(&samples);
        for &(kind, at) in tampers {
            apply(TAMPERS[kind], at, n, &mut samples, &mut opening);
        }
        let mut reports: Vec<ScreenReport> = c
            .domain
            .inputs()
            .zip(c.leaves.clone())
            .map(|(input, payload)| ScreenReport { input, payload })
            .collect();
        if corrupt_report {
            reports[0].payload[0] ^= 0xFF;
        }
        let root = c.tree.root();
        let run = |batched: bool| {
            let step4 = if batched {
                verify_round::<H>
            } else {
                per_sample_reference::<H>
            };
            let ctx = c.ctx();
            let result = step4(&ctx, &root, &samples, &opening, &reports, report_audit, 9);
            (result, ctx.ledger.report())
        };
        let batched = run(true);
        assert_eq!(
            batched,
            run(false),
            "{} n={n} samples={samples:?} tampers={tampers:?}",
            H::NAME
        );
        if tampers.is_empty() && !(corrupt_report && report_audit > 0) {
            assert_eq!(batched.0, Ok(Verdict::Accepted));
        }
        // Whatever was wrong, the supervisor never hashed more than one
        // path per distinct sample.
        let distinct: std::collections::BTreeSet<&u64> = samples.iter().collect();
        let height = u64::from(ugc_merkle::tree_height(n));
        assert!(batched.1.hash_ops <= distinct.len() as u64 * height);
        assert!(batched.1.verify_ops <= distinct.len() as u64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Zero, one or two things wrong at independent positions, with
        /// duplicate samples: an index outside the share first, then the
        /// first wrong value in challenge order, then the commitment —
        /// and nothing past the deciding check is charged. SHA-256 inner
        /// nodes take the pad-64 lane path, MD5's 32-byte ones the
        /// general driver.
        #[test]
        fn verify_round_is_the_sequential_walk(
            n in 1u64..=257,
            picks in proptest::collection::vec(any::<Index>(), 1..=20),
            tampers in proptest::collection::vec(
                (0usize..TAMPERS.len(), any::<Index>()),
                0..=2,
            ),
            corrupt_report in any::<bool>(),
            report_audit in 0usize..3,
        ) {
            assert_indistinguishable::<Sha256>(n, &picks, &tampers, corrupt_report, report_audit);
            assert_indistinguishable::<Md5>(n, &picks, &tampers, corrupt_report, report_audit);
        }
    }
}
