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
//! ([`verify_round`], shared with NI-CBS): `m` checks of a claimed `f(x)`
//! and `m` reconstructions `Λ(f(x), λ₁…λ_H)` of `H = ⌈log₂ n⌉` hashes
//! each. Both ledgers count exactly that, in the paper's units. What the
//! wall clock pays is a separate matter and both sides use the same
//! means to shrink it: the `m` reconstructions are mutually independent,
//! so `verify_round` runs them as one batch, level by level through the
//! digest lane kernels ([`fold_paths`]), the way the participant's tree
//! build hashes each level of nodes. `task.verify` stays one call per
//! sample — it is the hook by which a task whose results are cheap to
//! check says so — and a path that is not `H` long is rejected before
//! anything is hashed, so a peer cannot buy supervisor time with a long
//! proof. The verdict and the ledger are those of checking the samples
//! one at a time, in order; `verify_round` documents the rule.

use crate::sampling::draw_samples;
use crate::scheme::{check_task, materialize, proof_to_wire, run_round, Materialized};
use crate::session::{
    unexpected, Outbound, ParticipantContext, ParticipantSession, SessionOutcome,
    SupervisorContext, SupervisorSession, VerificationScheme,
};
use crate::{ParticipantStorage, RoundOutcome, SchemeError, Verdict};
use ugc_grid::{Assignment, CostLedger, Message, SampleProof, WorkerBehaviour};
use ugc_hash::HashFunction;
use ugc_merkle::{
    fold_paths, tree_height, AuthPath, LaneWidth, MerkleError, MerkleTree, Parallelism,
};
use ugc_task::{ComputeTask, Domain, ScreenReport, Screener};

/// Below this many leaves a parallel tree build is not worth the thread
/// spawns; the scheme layer falls back to the serial build.
pub(crate) const PARALLEL_BUILD_MIN_LEAVES: usize = 1 << 10;

/// Interactive CBS parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbsConfig {
    /// Task identifier carried on every message.
    pub task_id: u64,
    /// Number of samples `m`.
    pub samples: usize,
    /// Supervisor sampling seed (a fresh random value in production; a
    /// fixed value in reproducible experiments).
    pub seed: u64,
    /// How many screened reports to audit by recomputation (0 disables;
    /// an extension over the paper — catches the malicious model).
    pub report_audit: usize,
}

/// Builds the participant's commitment tree over the materialised leaf
/// `row` (`width` bytes per leaf), charging the `padded − 1` hash
/// operations of Section 3 — the same charge whatever `storage` keeps and
/// however `parallelism` and `lanes` spread the work. Full storage takes
/// the row as the tree's leaf storage and, over at least
/// [`PARALLEL_BUILD_MIN_LEAVES`] leaves, builds on up to `parallelism`
/// threads (bit-identical trees).
///
/// In partial mode the row is *dropped* after commitment — that is
/// the point of Section 3.3 — so proofs later recompute its leaves
/// through the behaviour (charging `f` again, exactly as the paper
/// accounts).
pub(crate) fn build_tree<H: HashFunction>(
    row: Vec<u8>,
    width: usize,
    storage: ParticipantStorage,
    parallelism: Parallelism,
    lanes: LaneWidth,
    ledger: &CostLedger,
) -> Result<MerkleTree<H>, SchemeError> {
    let tree = match storage {
        ParticipantStorage::Full => {
            let threads = if row.len() >= PARALLEL_BUILD_MIN_LEAVES.saturating_mul(width) {
                parallelism
            } else {
                Parallelism::serial()
            };
            MerkleTree::from_leaf_row(row, width, threads, lanes)?
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
    ledger.charge_hash(tree.hash_ops());
    Ok(tree)
}

/// Proves `index`, returning the wire proof with the claimed leaf value.
///
/// A tree kept in partial storage rebuilds the covering subtree by
/// re-running the behaviour for its `2^ℓ` leaves, charging the
/// participant's ledger for the recomputed `f` evaluations and hashes; a
/// full one reads its leaf row and charges nothing.
pub(crate) fn prove_sample<H: HashFunction>(
    tree: &MerkleTree<H>,
    index: u64,
    task: &dyn ComputeTask,
    domain: Domain,
    behaviour: &dyn WorkerBehaviour,
    ledger: &CostLedger,
) -> Result<SampleProof, SchemeError> {
    let mut recomputed: Option<Vec<u8>> = None;
    let (proof, stats) = tree.prove_with(index, |i| {
        let value = behaviour.leaf_value(task, domain, i, ledger);
        if i == index {
            recomputed = Some(value.clone());
        }
        value
    })?;
    ledger.charge_hash(stats.hash_ops);
    let leaf_value = match recomputed {
        Some(value) => value,
        None => tree.leaf(index)?.to_vec(),
    };
    Ok(proof_to_wire(&proof, leaf_value))
}

/// The interactive CBS scheme as a [`VerificationScheme`]: commit →
/// challenge → sample proofs → verdict, with the samples drawn by the
/// supervisor *after* the commitment arrives (Section 3.1).
///
/// This is the session-engine face of the scheme; `samples`, `seed` and
/// `report_audit` mean exactly what they do on [`CbsConfig`] (the wire
/// task id comes from the session context instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbsScheme {
    /// Number of samples `m`.
    pub samples: usize,
    /// Supervisor sampling seed.
    pub seed: u64,
    /// Report-audit size (0 disables).
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
        Box::new(CbsSupervisorSession::<H> {
            scheme: *self,
            task_id: ctx.task_ids.first().copied().unwrap_or_default(),
            task: ctx.task,
            screener: ctx.screener,
            domain: ctx.domain,
            ledger: ctx.ledger,
            state: SupState::AwaitCommit,
            outcome: None,
        })
    }

    fn participant_session<'a>(
        &'a self,
        ctx: ParticipantContext<'a>,
    ) -> Box<dyn ParticipantSession + 'a> {
        Box::new(CbsParticipantSession::<H>::new(ctx))
    }
}

enum SupState<H: HashFunction> {
    AwaitCommit,
    AwaitProofs {
        root: H::Digest,
        samples: Vec<u64>,
    },
    AwaitReports {
        root: H::Digest,
        samples: Vec<u64>,
        proofs: Vec<SampleProof>,
    },
    Done,
}

struct CbsSupervisorSession<'a, H: HashFunction> {
    scheme: CbsScheme,
    task_id: u64,
    task: &'a dyn ComputeTask,
    screener: &'a dyn Screener,
    domain: Domain,
    ledger: CostLedger,
    state: SupState<H>,
    outcome: Option<SessionOutcome>,
}

impl<H: HashFunction> SupervisorSession for CbsSupervisorSession<'_, H> {
    fn start(&mut self) -> Result<Vec<Outbound>, SchemeError> {
        if self.scheme.samples == 0 {
            return Err(SchemeError::InvalidConfig {
                reason: "samples must be positive",
            });
        }
        Ok(vec![(
            0,
            Message::Assign(Assignment {
                task_id: self.task_id,
                domain: self.domain,
            }),
        )])
    }

    fn on_message(&mut self, _slot: usize, msg: Message) -> Result<Vec<Outbound>, SchemeError> {
        match std::mem::replace(&mut self.state, SupState::Done) {
            // Step 1→2: commitment first, then reveal the samples.
            SupState::AwaitCommit => {
                let Message::Commit { task_id, root } = msg else {
                    return unexpected("Commit", &msg);
                };
                check_task(self.task_id, task_id)?;
                let root = H::digest_from_bytes(&root).ok_or(SchemeError::MalformedPayload {
                    what: "commitment root",
                })?;
                let samples =
                    draw_samples(self.scheme.seed, self.scheme.samples, self.domain.len());
                let challenge = Message::Challenge {
                    task_id: self.task_id,
                    samples: samples.clone(),
                };
                self.state = SupState::AwaitProofs { root, samples };
                Ok(vec![(0, challenge)])
            }
            // Step 3: the proofs land, the reports follow.
            SupState::AwaitProofs { root, samples } => {
                let Message::Proofs { task_id, proofs } = msg else {
                    return unexpected("Proofs", &msg);
                };
                check_task(self.task_id, task_id)?;
                self.state = SupState::AwaitReports {
                    root,
                    samples,
                    proofs,
                };
                Ok(Vec::new())
            }
            // Step 4: verify everything, announce the verdict.
            SupState::AwaitReports {
                root,
                samples,
                proofs,
            } => {
                let Message::Reports { task_id, reports } = msg else {
                    return unexpected("Reports", &msg);
                };
                check_task(self.task_id, task_id)?;
                let verdict = verify_round::<H>(
                    self.task,
                    self.screener,
                    self.domain,
                    &root,
                    &samples,
                    &proofs,
                    &reports,
                    self.scheme.report_audit,
                    self.scheme.seed,
                    &self.ledger,
                )?;
                let verdict_msg = Message::Verdict {
                    task_id: self.task_id,
                    accepted: verdict.is_accepted(),
                };
                self.outcome = Some(SessionOutcome {
                    verdict,
                    reports: reports
                        .into_iter()
                        .map(|(input, payload)| ScreenReport { input, payload })
                        .collect(),
                });
                Ok(vec![(0, verdict_msg)])
            }
            SupState::Done => unexpected("nothing (session finished)", &msg),
        }
    }

    fn take_outcome(&mut self) -> Option<SessionOutcome> {
        self.outcome.take()
    }
}

enum PartState<H: HashFunction> {
    AwaitAssign,
    AwaitChallenge {
        task_id: u64,
        domain: Domain,
        tree: MerkleTree<H>,
        reports: Vec<ScreenReport>,
    },
    AwaitVerdict {
        task_id: u64,
    },
    Done(bool),
}

pub(crate) struct CbsParticipantSession<'a, H: HashFunction> {
    task: &'a dyn ComputeTask,
    screener: &'a dyn Screener,
    behaviour: &'a dyn WorkerBehaviour,
    storage: ParticipantStorage,
    parallelism: Parallelism,
    lanes: LaneWidth,
    ledger: CostLedger,
    state: PartState<H>,
}

impl<'a, H: HashFunction> CbsParticipantSession<'a, H> {
    pub(crate) fn new(ctx: ParticipantContext<'a>) -> Self {
        CbsParticipantSession {
            task: ctx.task,
            screener: ctx.screener,
            behaviour: ctx.behaviour,
            storage: ctx.storage,
            parallelism: ctx.parallelism,
            lanes: ctx.lanes,
            ledger: ctx.ledger,
            state: PartState::AwaitAssign,
        }
    }
}

impl<H: HashFunction> ParticipantSession for CbsParticipantSession<'_, H> {
    fn on_message(&mut self, msg: Message) -> Result<Vec<Message>, SchemeError> {
        match std::mem::replace(&mut self.state, PartState::AwaitAssign) {
            // Step 1: evaluate (honestly or not), build the tree, commit.
            PartState::AwaitAssign => {
                let Message::Assign(assignment) = msg else {
                    return unexpected("Assign", &msg);
                };
                let domain = assignment.domain;
                let task_id = assignment.task_id;
                let Materialized {
                    row,
                    width,
                    reports,
                } = materialize(
                    self.task,
                    self.screener,
                    domain,
                    self.behaviour,
                    &self.ledger,
                )?;
                let tree = build_tree::<H>(
                    row,
                    width,
                    self.storage,
                    self.parallelism,
                    self.lanes,
                    &self.ledger,
                )?;
                let commit = Message::Commit {
                    task_id,
                    root: tree.root().as_ref().to_vec(),
                };
                self.state = PartState::AwaitChallenge {
                    task_id,
                    domain,
                    tree,
                    reports,
                };
                Ok(vec![commit])
            }
            // Step 3: prove honesty on every sample; ship proofs + reports.
            PartState::AwaitChallenge {
                task_id,
                domain,
                tree,
                reports,
            } => {
                let Message::Challenge {
                    task_id: tid,
                    samples,
                } = msg
                else {
                    return unexpected("Challenge", &msg);
                };
                check_task(task_id, tid)?;
                let mut proofs = Vec::with_capacity(samples.len());
                for &index in &samples {
                    proofs.push(prove_sample(
                        &tree,
                        index,
                        self.task,
                        domain,
                        self.behaviour,
                        &self.ledger,
                    )?);
                }
                let out = vec![
                    Message::Proofs { task_id, proofs },
                    Message::Reports {
                        task_id,
                        reports: reports.into_iter().map(|r| (r.input, r.payload)).collect(),
                    },
                ];
                self.state = PartState::AwaitVerdict { task_id };
                Ok(out)
            }
            // Step 4 happened at the supervisor; record the verdict.
            PartState::AwaitVerdict { task_id } => {
                let Message::Verdict {
                    task_id: tid,
                    accepted,
                } = msg
                else {
                    return unexpected("Verdict", &msg);
                };
                check_task(task_id, tid)?;
                self.state = PartState::Done(accepted);
                Ok(Vec::new())
            }
            done @ PartState::Done(_) => {
                self.state = done;
                unexpected("nothing (session finished)", &msg)
            }
        }
    }

    fn finished(&self) -> Option<bool> {
        match self.state {
            PartState::Done(accepted) => Some(accepted),
            _ => None,
        }
    }
}

/// The supervisor's Step 4 as a standalone building block: checks that
/// `proofs` answer exactly `samples` against the commitment `root`, that
/// every claimed `f(x)` is correct, that every reconstruction matches the
/// root, and (optionally) audits the screened `reports`.
///
/// Exposed so custom supervisors — e.g. one behind a
/// [`Broker`](ugc_grid::Broker) driving many participants over shared
/// endpoints — can reuse the verification logic outside the scheme's own
/// supervisor sessions.
///
/// # How the `m` samples are checked
///
/// Three passes over the round rather than one walk per sample; what is
/// returned and what is charged are those of the walk:
///
/// 1. In sample order: the index echo, `domain.input`, and
///    `task.verify(x, f(x))`. This stays one call per sample —
///    [`ComputeTask::verify`] is where a task with cheap verification
///    plugs in its own check — and stops at the first failure.
/// 2. Among the samples before that failure, in order: every digest
///    sibling is `H::DIGEST_LEN` bytes, and the path has exactly
///    [`tree_height`]`(domain.len())` siblings. A path of any other length
///    cannot reproduce the root, so it is a
///    [`Verdict::CommitmentMismatch`] *without being hashed* — a peer
///    cannot make the supervisor hash a path as long as a frame allows.
///    Within one sample a sibling of the wrong width is reported before
///    the length is looked at.
/// 3. The paths before the first offender are reconstructed together by
///    [`fold_paths`], each level of all of them one batch through the
///    digest lane kernels, straight from the wire bytes, and each root is
///    compared with the commitment.
///
/// **The first event in sample order wins.** Whatever pass found it, the
/// verdict or error returned is the one belonging to the earliest sample
/// with anything wrong, exactly as if the samples had been walked one by
/// one.
///
/// **The ledger is charged afterwards, as the walk would have.** Every
/// sample up to and including that event pays `charge_verify(1)` and
/// (unless [`cheap_verification`](ComputeTask::cheap_verification))
/// `charge_f(unit_cost)` if its `f(x)` was checked, and
/// `charge_hash(H)` if its reconstruction was started. Work done
/// speculatively on later samples — pass 1 and 3 run ahead of an event
/// that a later pass finds — is not charged: the ledger is the paper's
/// unit-cost model, not a wall clock.
///
/// # Errors
///
/// [`SchemeError::ProofCountMismatch`] or malformed-proof errors; cheating
/// is reported through the `Ok` verdict, not as an error.
#[allow(clippy::too_many_arguments)]
pub fn verify_round<H: HashFunction>(
    task: &dyn ComputeTask,
    screener: &dyn Screener,
    domain: Domain,
    root: &H::Digest,
    samples: &[u64],
    proofs: &[SampleProof],
    reports: &[(u64, Vec<u8>)],
    report_audit: usize,
    seed: u64,
    ledger: &CostLedger,
) -> Result<Verdict, SchemeError> {
    if proofs.len() != samples.len() {
        return Err(SchemeError::ProofCountMismatch {
            expected: samples.len(),
            got: proofs.len(),
        });
    }
    // The first `clean` samples have nothing wrong as far as the passes
    // have looked; `event` is what is wrong with the next one, if
    // anything. `f_checked` counts the samples the walk would have got as
    // far as checking f(x) on, `hashed` those it would have started
    // reconstructing.
    let mut clean = samples.len();
    let mut f_checked = samples.len();
    let mut event = None;

    // Step 4.1: is each claimed f(x) correct?
    for (i, (&sample, wire)) in samples.iter().zip(proofs).enumerate() {
        let x = (wire.index == sample)
            .then(|| domain.input(sample).ok())
            .flatten();
        if !x.is_some_and(|x| task.verify(x, &wire.leaf_value)) {
            clean = i;
            f_checked = i + usize::from(x.is_some());
            event = Some(Ok(Verdict::WrongResult { sample }));
            break;
        }
    }

    // Is each path one this tree could have produced?
    let height = tree_height(domain.len());
    for (i, (&sample, wire)) in samples.iter().zip(proofs).enumerate().take(clean) {
        let siblings = &wire.digest_siblings;
        let offence = if siblings.iter().any(|s| s.len() != H::DIGEST_LEN) {
            Err(SchemeError::MalformedPayload {
                what: "proof digest sibling",
            })
        } else if siblings.len() + 1 != height as usize {
            Ok(Verdict::CommitmentMismatch { sample })
        } else {
            continue;
        };
        clean = i;
        f_checked = i + 1;
        event = Some(offence);
        break;
    }

    // Step 4.2: does each Λ(f(x), λ₁…λ_H) reproduce the commitment?
    let paths: Vec<AuthPath<'_, Vec<u8>>> = proofs[..clean]
        .iter()
        .map(|wire| AuthPath {
            leaf_index: wire.index,
            leaf_value: &wire.leaf_value,
            leaf_sibling: &wire.leaf_sibling,
            digest_siblings: &wire.digest_siblings,
        })
        .collect();
    let roots = fold_paths::<H, _>(&paths, LaneWidth::default())?;
    let mut hashed = clean;
    if let Some(i) = roots.iter().position(|rebuilt| rebuilt != root) {
        f_checked = i + 1;
        hashed = i + 1;
        event = Some(Ok(Verdict::CommitmentMismatch { sample: samples[i] }));
    }

    ledger.charge_verify(f_checked as u64);
    if !task.cheap_verification() {
        // Verification recomputes f at full cost.
        ledger.charge_f(f_checked as u64 * task.unit_cost());
    }
    ledger.charge_hash(hashed as u64 * u64::from(height));
    if let Some(event) = event {
        return event;
    }
    if let Some(verdict) =
        crate::scheme::audit_reports(task, screener, domain, reports, report_audit, seed, ledger)
    {
        return Ok(verdict);
    }
    Ok(Verdict::Accepted)
}

/// Runs a complete interactive CBS round in-process — [`run_round`] over
/// a [`CbsScheme`] built from `config`, the participant's commitment tree
/// building with the default parallelism (one thread per available core)
/// and digest lane width. Returns full cost and traffic accounting.
///
/// # Errors
///
/// As [`run_round`].
pub fn run_cbs<H, T, S, B>(
    task: &T,
    screener: &S,
    domain: Domain,
    behaviour: &B,
    storage: ParticipantStorage,
    config: &CbsConfig,
) -> Result<RoundOutcome, SchemeError>
where
    H: HashFunction,
    T: ComputeTask,
    S: Screener,
    B: WorkerBehaviour,
{
    run_round::<H>(
        &CbsScheme {
            samples: config.samples,
            seed: config.seed,
            report_audit: config.report_audit,
        },
        task,
        screener,
        domain,
        &[behaviour],
        config.task_id,
        storage,
        Parallelism::default(),
        LaneWidth::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::sample::Index;
    use ugc_grid::{CheatSelection, HonestWorker, MaliciousWorker, SemiHonestCheater};
    use ugc_hash::{Md5, Sha256};
    use ugc_merkle::MerkleProof;
    use ugc_task::workloads::PasswordSearch;
    use ugc_task::{AcceptAllScreener, ZeroGuesser};

    fn config(m: usize, seed: u64) -> CbsConfig {
        CbsConfig {
            task_id: 7,
            samples: m,
            seed,
            report_audit: 0,
        }
    }

    /// One honest full-storage round of `config(8, 3)` through the
    /// generic driver, with explicit execution knobs.
    fn honest_round(
        task: &PasswordSearch,
        domain: Domain,
        parallelism: Parallelism,
        lanes: LaneWidth,
    ) -> RoundOutcome {
        let config = config(8, 3);
        run_round::<Sha256>(
            &CbsScheme {
                samples: config.samples,
                seed: config.seed,
                report_audit: config.report_audit,
            },
            task,
            &task.match_screener(),
            domain,
            &[&HonestWorker],
            config.task_id,
            ParticipantStorage::Full,
            parallelism,
            lanes,
        )
        .unwrap()
    }

    #[test]
    fn honest_participant_always_accepted() {
        // Theorem 1 (soundness), end to end, across seeds and domain sizes.
        for (n, seed) in [(16u64, 1u64), (100, 2), (257, 3)] {
            let task = PasswordSearch::with_hidden_password(9, 3);
            let screener = task.match_screener();
            let outcome = run_cbs::<Sha256, _, _, _>(
                &task,
                &screener,
                Domain::new(0, n),
                &HonestWorker,
                ParticipantStorage::Full,
                &config(10, seed),
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
        let outcome = run_cbs::<Sha256, _, _, _>(
            &task,
            &screener,
            Domain::new(0, 64),
            &HonestWorker,
            ParticipantStorage::Full,
            &config(5, 1),
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
        let outcome = run_cbs::<Sha256, _, _, _>(
            &task,
            &screener,
            Domain::new(0, 256),
            &cheater,
            ParticipantStorage::Full,
            &config(20, 42),
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
            let outcome = run_cbs::<Sha256, _, _, _>(
                &task,
                &screener,
                Domain::new(0, 128),
                &HonestWorker,
                storage,
                &config(8, 9),
            )
            .unwrap();
            assert!(outcome.accepted, "storage {storage:?}");
        }
    }

    #[test]
    fn partial_storage_charges_rebuild_f_evals() {
        let task = PasswordSearch::with_hidden_password(1, 2);
        let screener = task.match_screener();
        let full = run_cbs::<Sha256, _, _, _>(
            &task,
            &screener,
            Domain::new(0, 128),
            &HonestWorker,
            ParticipantStorage::Full,
            &config(8, 9),
        )
        .unwrap();
        let partial = run_cbs::<Sha256, _, _, _>(
            &task,
            &screener,
            Domain::new(0, 128),
            &HonestWorker,
            ParticipantStorage::Partial { subtree_height: 4 },
            &config(8, 9),
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
        let outcome = run_cbs::<Sha256, _, _, _>(
            &task,
            &screener,
            Domain::new(0, 128),
            &cheater,
            ParticipantStorage::Partial { subtree_height: 3 },
            &config(16, 4),
        )
        .unwrap();
        assert!(!outcome.accepted);
    }

    #[test]
    fn parallel_tree_build_wired_through_run_round() {
        // Domain ≥ PARALLEL_BUILD_MIN_LEAVES with >1 thread takes the
        // threaded build; how many threads a host lends is execution
        // layout, so verdict, bytes and both ledgers — `hash_wall_ops`
        // included — are those of the serial round.
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
        assert_eq!(serial.0.hash_wall_ops, serial.0.hash_ops);
        for threads in [2, 4, 8] {
            assert_eq!(measured(threads), serial, "threads {threads}");
        }
    }

    #[test]
    fn lane_width_does_not_change_verdict_or_costs() {
        // LaneWidth is execution-only: accounting and verdict are
        // identical at every width, serial or parallel.
        let task = PasswordSearch::with_hidden_password(4, 17);
        let reference = honest_round(
            &task,
            Domain::new(0, 300),
            Parallelism::serial(),
            LaneWidth::Scalar,
        );
        for lanes in [LaneWidth::X4, LaneWidth::X8] {
            let outcome = honest_round(&task, Domain::new(0, 300), Parallelism::serial(), lanes);
            assert_eq!(outcome.verdict, reference.verdict, "lanes {lanes}");
            assert_eq!(
                outcome.participant_costs, reference.participant_costs,
                "lanes {lanes}"
            );
            assert_eq!(
                outcome.supervisor_link, reference.supervisor_link,
                "lanes {lanes}"
            );
        }
    }

    #[test]
    fn md5_variant_works() {
        let task = PasswordSearch::with_hidden_password(2, 4);
        let screener = task.match_screener();
        let outcome = run_cbs::<Md5, _, _, _>(
            &task,
            &screener,
            Domain::new(0, 64),
            &HonestWorker,
            ParticipantStorage::Full,
            &config(6, 5),
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
        let no_audit = run_cbs::<Sha256, _, _, _>(
            &task,
            &screener,
            Domain::new(0, 64),
            &malicious,
            ParticipantStorage::Full,
            &config(10, 6),
        )
        .unwrap();
        assert!(no_audit.accepted, "CBS alone cannot see report corruption");
        // …but the report audit extension catches the corrupted payloads.
        let mut audited_config = config(10, 6);
        audited_config.report_audit = 4;
        let audited = run_cbs::<Sha256, _, _, _>(
            &task,
            &screener,
            Domain::new(0, 64),
            &malicious,
            ParticipantStorage::Full,
            &audited_config,
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
            let outcome = run_cbs::<Sha256, _, _, _>(
                &task,
                &screener,
                Domain::new(0, 1 << bits),
                &HonestWorker,
                ParticipantStorage::Full,
                &config(10, 2),
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
        let err = run_cbs::<Sha256, _, _, _>(
            &task,
            &screener,
            Domain::new(0, 16),
            &HonestWorker,
            ParticipantStorage::Full,
            &config(0, 1),
        )
        .unwrap_err();
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
    }

    #[test]
    fn supervisor_verification_cost_scales_with_m() {
        let task = PasswordSearch::with_hidden_password(1, 1);
        let screener = task.match_screener();
        let small = run_cbs::<Sha256, _, _, _>(
            &task,
            &screener,
            Domain::new(0, 256),
            &HonestWorker,
            ParticipantStorage::Full,
            &config(5, 3),
        )
        .unwrap();
        let large = run_cbs::<Sha256, _, _, _>(
            &task,
            &screener,
            Domain::new(0, 256),
            &HonestWorker,
            ParticipantStorage::Full,
            &config(50, 3),
        )
        .unwrap();
        assert_eq!(small.supervisor_costs.verify_ops, 5);
        assert_eq!(large.supervisor_costs.verify_ops, 50);
        assert_eq!(large.supervisor_costs.f_evals, 50 * task.unit_cost());
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

        fn proofs(&self, samples: &[u64]) -> Vec<SampleProof> {
            samples
                .iter()
                .map(|&i| {
                    let proof = self.tree.prove(i).unwrap();
                    proof_to_wire(&proof, self.leaves[i as usize].clone())
                })
                .collect()
        }

        /// `verify_round` against the honest commitment, no reports.
        fn verify(
            &self,
            samples: &[u64],
            proofs: &[SampleProof],
        ) -> (Result<Verdict, SchemeError>, ugc_grid::CostReport) {
            let ledger = CostLedger::new();
            let result = verify_round::<H>(
                &self.task,
                &AcceptAllScreener,
                self.domain,
                &self.tree.root(),
                samples,
                proofs,
                &[],
                0,
                0,
                &ledger,
            );
            (result, ledger.report())
        }
    }

    #[test]
    fn verify_round_accepts_honest() {
        let c = Committed::<Sha256>::honest(16);
        let (result, costs) = c.verify(&[4], &c.proofs(&[4]));
        assert_eq!(result, Ok(Verdict::Accepted));
        // Verification recomputed f once and hashed the path.
        assert_eq!(costs.verify_ops, 1);
        assert_eq!(costs.f_evals, c.task.unit_cost());
        assert_eq!(costs.hash_ops, 4);
    }

    #[test]
    fn verify_round_rejects_wrong_result() {
        let c = Committed::<Sha256>::honest(16);
        let mut proofs = c.proofs(&[4]);
        proofs[0].leaf_value = c.leaves[5].clone();
        let (result, costs) = c.verify(&[4], &proofs);
        assert_eq!(result, Ok(Verdict::WrongResult { sample: 4 }));
        // f(x) was checked and paid for; the path was never looked at.
        assert_eq!(costs.f_evals, c.task.unit_cost());
        assert_eq!(costs.hash_ops, 0);
    }

    #[test]
    fn verify_round_rejects_commitment_mismatch() {
        // The participant recomputed the true f(x) after the challenge, but
        // its tree committed to garbage: correct value, wrong path.
        let c = Committed::<Sha256>::honest(16);
        let garbage: Vec<Vec<u8>> = (0..16u64).map(|x| vec![x as u8; 16]).collect();
        let garbage_tree: MerkleTree<Sha256> = MerkleTree::build(&garbage).unwrap();
        let proof = garbage_tree.prove(4).unwrap();
        let wire = proof_to_wire(&proof, c.leaves[4].clone()); // truthful f(x)…
        let ledger = CostLedger::new();
        let verdict = verify_round::<Sha256>(
            &c.task,
            &AcceptAllScreener,
            c.domain,
            &garbage_tree.root(), // …but the commitment disagrees
            &[4],
            &[wire],
            &[],
            0,
            0,
            &ledger,
        );
        assert_eq!(verdict, Ok(Verdict::CommitmentMismatch { sample: 4 }));
        assert_eq!(ledger.report().hash_ops, 4);
    }

    #[test]
    fn verify_round_rejects_out_of_domain_index() {
        // The challenge itself names an index outside the share and the
        // proof echoes it: nothing to evaluate, nothing charged.
        let c = Committed::<Sha256>::honest(16);
        let mut proofs = c.proofs(&[4]);
        proofs[0].index = 99;
        let (result, costs) = c.verify(&[99], &proofs);
        assert_eq!(result, Ok(Verdict::WrongResult { sample: 99 }));
        assert_eq!(costs, ugc_grid::CostReport::default());
    }

    #[test]
    fn verify_round_rejects_bad_digest_len() {
        let c = Committed::<Sha256>::honest(16);
        let mut proofs = c.proofs(&[4, 9]);
        proofs[1].digest_siblings[2].pop();
        let (result, costs) = c.verify(&[4, 9], &proofs);
        assert_eq!(
            result,
            Err(SchemeError::MalformedPayload {
                what: "proof digest sibling"
            })
        );
        // Both f(x) were checked; only the first path was reconstructed.
        assert_eq!(costs.verify_ops, 2);
        assert_eq!(costs.hash_ops, 4);
    }

    /// The walk `verify_round` replaced, kept as the reference it must
    /// stay indistinguishable from: one sample at a time — index echo,
    /// domain, `task.verify`, sibling widths, [`MerkleProof::verify`] —
    /// charging as it goes and returning at the first thing wrong. It
    /// has no path-length rule: there `verify_round` differs on purpose
    /// (`tests/hostile_proof.rs`).
    #[allow(clippy::too_many_arguments)]
    fn sequential_reference<H: HashFunction>(
        task: &dyn ComputeTask,
        screener: &dyn Screener,
        domain: Domain,
        root: &H::Digest,
        samples: &[u64],
        proofs: &[SampleProof],
        reports: &[(u64, Vec<u8>)],
        report_audit: usize,
        seed: u64,
        ledger: &CostLedger,
    ) -> Result<Verdict, SchemeError> {
        if proofs.len() != samples.len() {
            return Err(SchemeError::ProofCountMismatch {
                expected: samples.len(),
                got: proofs.len(),
            });
        }
        for (&sample, wire) in samples.iter().zip(proofs) {
            if wire.index != sample {
                return Ok(Verdict::WrongResult { sample });
            }
            let Ok(x) = domain.input(sample) else {
                return Ok(Verdict::WrongResult { sample });
            };
            ledger.charge_verify(1);
            if !task.cheap_verification() {
                ledger.charge_f(task.unit_cost());
            }
            if !task.verify(x, &wire.leaf_value) {
                return Ok(Verdict::WrongResult { sample });
            }
            let digests = wire
                .digest_siblings
                .iter()
                .map(|bytes| H::digest_from_bytes(bytes))
                .collect::<Option<Vec<_>>>()
                .ok_or(SchemeError::MalformedPayload {
                    what: "proof digest sibling",
                })?;
            let proof: MerkleProof<H> =
                MerkleProof::from_parts(wire.index, wire.leaf_sibling.clone(), digests);
            ledger.charge_hash(proof.verification_hash_ops());
            if !proof.verify(root, &wire.leaf_value) {
                return Ok(Verdict::CommitmentMismatch { sample });
            }
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

    /// One way a proof can be wrong, as drawn by the differential test.
    #[derive(Debug, Clone, Copy)]
    enum Tamper {
        WrongIndexEchoed,
        OutOfDomainIndex,
        LeafValueByte,
        DigestSibling,
        LeafSibling,
        SiblingWidth,
    }

    const TAMPERS: [Tamper; 6] = [
        Tamper::WrongIndexEchoed,
        Tamper::OutOfDomainIndex,
        Tamper::LeafValueByte,
        Tamper::DigestSibling,
        Tamper::LeafSibling,
        Tamper::SiblingWidth,
    ];

    /// Applies `tamper` to sample `at`; `level` picks among its digest
    /// siblings (a height-1 tree has none, and those two tampers then
    /// leave the proof as it was).
    fn apply(
        tamper: Tamper,
        at: usize,
        level: Index,
        n: u64,
        samples: &mut [u64],
        proofs: &mut [SampleProof],
    ) {
        let wire = &mut proofs[at];
        let siblings = wire.digest_siblings.len();
        match tamper {
            Tamper::WrongIndexEchoed => wire.index = wire.index.wrapping_add(1),
            Tamper::OutOfDomainIndex => {
                samples[at] += n;
                wire.index = samples[at];
            }
            Tamper::LeafValueByte => wire.leaf_value[3] ^= 0x10,
            Tamper::LeafSibling => wire.leaf_sibling[0] ^= 1,
            Tamper::DigestSibling if siblings > 0 => {
                wire.digest_siblings[level.index(siblings)][1] ^= 0x80;
            }
            Tamper::SiblingWidth if siblings > 0 => {
                wire.digest_siblings[level.index(siblings)].push(0);
            }
            Tamper::DigestSibling | Tamper::SiblingWidth => {}
        }
    }

    /// Runs the tampered round through both implementations and demands
    /// the same verdict or error and the same ledger, axis for axis.
    fn assert_indistinguishable<H: HashFunction>(
        n: u64,
        picks: &[Index],
        tampers: &[(usize, Index, Index)],
        corrupt_report: bool,
        report_audit: usize,
    ) {
        let c = Committed::<H>::honest(n);
        let mut samples: Vec<u64> = picks.iter().map(|p| p.index(n as usize) as u64).collect();
        let mut proofs = c.proofs(&samples);
        for &(kind, at, level) in tampers {
            let at = at.index(samples.len());
            apply(TAMPERS[kind], at, level, n, &mut samples, &mut proofs);
        }
        let mut reports: Vec<(u64, Vec<u8>)> = c.domain.inputs().zip(c.leaves.clone()).collect();
        if corrupt_report {
            reports[0].1[0] ^= 0xFF;
        }
        let root = c.tree.root();
        let run = |batched: bool, proofs: &[SampleProof]| {
            let step4 = if batched {
                verify_round::<H>
            } else {
                sequential_reference::<H>
            };
            let ledger = CostLedger::new();
            let result = step4(
                &c.task,
                &AcceptAllScreener,
                c.domain,
                &root,
                &samples,
                proofs,
                &reports,
                report_audit,
                9,
                &ledger,
            );
            (result, ledger.report())
        };
        let batched = run(true, &proofs);
        assert_eq!(
            batched,
            run(false, &proofs),
            "{} n={n} samples={samples:?} tampers={tampers:?}",
            H::NAME
        );
        if tampers.is_empty() && !(corrupt_report && report_audit > 0) {
            assert_eq!(batched.0, Ok(Verdict::Accepted));
        }

        // One proof short: the same error, and not a unit charged.
        let short = SchemeError::ProofCountMismatch {
            expected: samples.len(),
            got: samples.len() - 1,
        };
        for batched in [true, false] {
            assert_eq!(
                run(batched, &proofs[1..]),
                (Err(short.clone()), ugc_grid::CostReport::default())
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Zero, one or two things wrong at independent positions, with
        /// duplicate samples: whichever comes first in sample order is
        /// what is reported, and nothing after it is charged. SHA-256
        /// inner nodes take the pad-64 lane path, MD5's 32-byte ones the
        /// general driver.
        #[test]
        fn verify_round_is_the_sequential_walk(
            n in 1u64..=257,
            picks in proptest::collection::vec(any::<Index>(), 1..=20),
            tampers in proptest::collection::vec(
                (0usize..TAMPERS.len(), any::<Index>(), any::<Index>()),
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
