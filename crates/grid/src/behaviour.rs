//! Participant behaviours: the cheating models of Section 2.2.
//!
//! A behaviour decides what a participant *commits* for each leaf and what
//! it *reports* as interesting results:
//!
//! * [`HonestWorker`] — evaluates `f` everywhere and screens truthfully.
//! * [`SemiHonestCheater`] — the paper's rational cheater: evaluates `f` on
//!   a fraction `r` of the domain (`D′`) and substitutes the cheap guess
//!   `f̌` elsewhere, to save work.
//! * [`MaliciousWorker`] — evaluates `f` everywhere (so commitment checks
//!   pass!) but corrupts the screener output `S(x, z)` with random `z`, to
//!   disrupt the computation. Detecting it requires the screened-report
//!   cross-check, not just CBS path verification.

use crate::CostLedger;
use ugc_task::{ComputeTask, Domain, Guesser, ScreenReport, Screener, SplitMix64, WidthMismatch};

/// How a participant produces commitments and reports for an assignment.
///
/// The `ledger` is charged for real `f` evaluations only — guesses are the
/// whole point of cheating and cost (approximately) nothing.
pub trait WorkerBehaviour: Send + Sync {
    /// Behaviour name for experiment tables.
    fn name(&self) -> &str;

    /// The honesty ratio `r = |D′|/|D|` this behaviour realises.
    fn honesty_ratio(&self) -> f64 {
        1.0
    }

    /// The leaf value committed for leaf `index` of `domain`
    /// (`Φ(L_i)` in the paper: `f(x_i)` if honest, `f̌(x_i)` if not).
    fn leaf_value(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        index: u64,
        ledger: &CostLedger,
    ) -> Vec<u8>;

    /// Every leaf value of `domain`, in index order, back to back in one
    /// flat row of `domain.len() · task.output_width()` bytes — the form
    /// the commitment consumes (`MerkleTree::from_leaf_row` hashes it in
    /// place; the naive scheme uploads it as is).
    ///
    /// Must equal concatenating [`leaf_value`](Self::leaf_value) over the
    /// domain and charge `ledger` the same total. The default does
    /// exactly that, checking each value's width; behaviours whose leaves
    /// are all plain `f(x_i)` override it to evaluate in batches
    /// ([`HonestWorker`] does).
    ///
    /// `Ok(None)` when the row cannot exist — `len · width` overflows, or
    /// the allocator refuses it — decided before `f` is evaluated once.
    ///
    /// # Errors
    ///
    /// [`WidthMismatch`] naming the first leaf index whose value is not
    /// `task.output_width()` bytes — appended unchecked, it would shift
    /// every later leaf.
    ///
    /// # Examples
    ///
    /// ```
    /// use ugc_grid::{CostLedger, HonestWorker, WorkerBehaviour};
    /// use ugc_task::{ComputeTask, Domain};
    /// use ugc_task::workloads::PasswordSearch;
    ///
    /// let task = PasswordSearch::with_hidden_password(1, 2);
    /// let ledger = CostLedger::new();
    /// let row = HonestWorker.leaf_row(&task, Domain::new(10, 4), &ledger)?.unwrap();
    /// let leaves: Vec<&[u8]> = row.chunks_exact(task.output_width()).collect();
    /// assert_eq!(leaves.len(), 4);
    /// assert_eq!(leaves[3], task.compute(13).as_slice());
    /// assert_eq!(ledger.report().f_evals, 4);
    ///
    /// // 2^60 leaves of 16 bytes: the row's size overflows, nothing runs.
    /// let huge = Domain::new(0, 1 << 60);
    /// assert_eq!(HonestWorker.leaf_row(&task, huge, &ledger)?, None);
    /// assert_eq!(ledger.report().f_evals, 4);
    /// # Ok::<(), ugc_task::WidthMismatch>(())
    /// ```
    fn leaf_row(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        ledger: &CostLedger,
    ) -> Result<Option<Vec<u8>>, WidthMismatch> {
        let width = task.output_width();
        let Some(mut row) = reserve_row(domain, width) else {
            return Ok(None);
        };
        for index in 0..domain.len() {
            let value = self.leaf_value(task, domain, index, ledger);
            if value.len() != width {
                return Err(WidthMismatch {
                    expected: width,
                    found: value.len(),
                    index,
                });
            }
            row.extend_from_slice(&value);
        }
        Ok(Some(row))
    }

    /// The report (if any) for leaf `index` whose committed value is
    /// `committed`. Default: truthful screening of the committed value.
    fn report_for(
        &self,
        screener: &dyn Screener,
        domain: Domain,
        index: u64,
        committed: &[u8],
    ) -> Option<ScreenReport> {
        let x = domain.input(index).expect("index within domain");
        screener.screen(x, committed)
    }
}

impl<B: WorkerBehaviour + ?Sized> WorkerBehaviour for &B {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn honesty_ratio(&self) -> f64 {
        (**self).honesty_ratio()
    }
    fn leaf_value(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        index: u64,
        ledger: &CostLedger,
    ) -> Vec<u8> {
        (**self).leaf_value(task, domain, index, ledger)
    }
    fn leaf_row(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        ledger: &CostLedger,
    ) -> Result<Option<Vec<u8>>, WidthMismatch> {
        (**self).leaf_row(task, domain, ledger)
    }
    fn report_for(
        &self,
        screener: &dyn Screener,
        domain: Domain,
        index: u64,
        committed: &[u8],
    ) -> Option<ScreenReport> {
        (**self).report_for(screener, domain, index, committed)
    }
}

/// The fully honest participant: `Φ(L_i) = f(x_i)` for every `i`.
///
/// # Examples
///
/// ```
/// use ugc_grid::{CostLedger, HonestWorker, WorkerBehaviour};
/// use ugc_task::{ComputeTask, Domain};
/// use ugc_task::workloads::PasswordSearch;
///
/// let task = PasswordSearch::with_hidden_password(1, 2);
/// let ledger = CostLedger::new();
/// let worker = HonestWorker;
/// let leaf = worker.leaf_value(&task, Domain::new(0, 8), 3, &ledger);
/// assert_eq!(leaf, task.compute(3));
/// assert_eq!(ledger.report().f_evals, 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HonestWorker;

impl WorkerBehaviour for HonestWorker {
    fn name(&self) -> &str {
        "honest"
    }

    fn leaf_value(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        index: u64,
        ledger: &CostLedger,
    ) -> Vec<u8> {
        let x = domain.input(index).expect("index within domain");
        ledger.charge_f(task.unit_cost());
        task.compute(x)
    }

    /// `f` over the whole domain through [`ComputeTask::compute_into`],
    /// 1024 inputs at a time, each chunk written onto the end of the
    /// reserved row and charged in one ledger update.
    fn leaf_row(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        ledger: &CostLedger,
    ) -> Result<Option<Vec<u8>>, WidthMismatch> {
        let width = task.output_width();
        let n = domain.len();
        let Some(mut row) = reserve_row(domain, width) else {
            return Ok(None);
        };
        let mut inputs = Vec::with_capacity(HONEST_BATCH);
        for start in (0..n).step_by(HONEST_BATCH) {
            let end = (start + HONEST_BATCH as u64).min(n);
            inputs.clear();
            inputs.extend((start..end).map(|i| domain.input(i).expect("index within domain")));
            ledger.charge_f(task.unit_cost() * (end - start));
            // Within the reserved capacity: grows in place.
            let filled = row.len();
            row.resize(filled + inputs.len() * width, 0);
            task.compute_into(&inputs, &mut row[filled..])
                .map_err(|e| WidthMismatch {
                    index: start + e.index,
                    ..e
                })?;
        }
        Ok(Some(row))
    }
}

/// An empty row with room for exactly `domain.len() · width` bytes, or
/// `None` if that product overflows or the allocator refuses it.
fn reserve_row(domain: Domain, width: usize) -> Option<Vec<u8>> {
    let bytes = usize::try_from(domain.len()).ok()?.checked_mul(width)?;
    let mut row = Vec::new();
    row.try_reserve_exact(bytes).ok()?;
    Some(row)
}

/// Inputs per [`ComputeTask::compute_into`] call in
/// [`HonestWorker::leaf_row`]: large enough to amortise a batch kernel's
/// set-up, small enough that a chunk's inputs and outputs stay in L1.
const HONEST_BATCH: usize = 1024;

/// Which subset `D′` the semi-honest cheater computes honestly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheatSelection {
    /// The first `⌊r·n⌋` indices — `|D′|` is exact, matching the
    /// `r = |D′|/|D|` of Definition 2.1 precisely.
    Prefix,
    /// Each index is honest independently with probability `r` —
    /// `|D′|` is Binomial(n, r); more naturalistic for a lazy worker.
    Scattered,
}

/// The semi-honest cheater of Section 2.2: computes `f` on `D′`, guesses
/// elsewhere with a [`Guesser`] realising the paper's `q`.
///
/// # Examples
///
/// ```
/// use ugc_grid::{CheatSelection, CostLedger, SemiHonestCheater, WorkerBehaviour};
/// use ugc_task::{ComputeTask, Domain, ZeroGuesser};
/// use ugc_task::workloads::PasswordSearch;
///
/// let task = PasswordSearch::with_hidden_password(1, 2);
/// let cheater = SemiHonestCheater::new(0.5, CheatSelection::Prefix, ZeroGuesser::new(9), 7);
/// let ledger = CostLedger::new();
/// let domain = Domain::new(0, 8);
/// // First half honest, second half guessed:
/// assert_eq!(cheater.leaf_value(&task, domain, 0, &ledger), task.compute(0));
/// assert_ne!(cheater.leaf_value(&task, domain, 7, &ledger), task.compute(7));
/// assert_eq!(ledger.report().f_evals, 1); // only the honest leaf was paid for
/// ```
#[derive(Debug, Clone)]
pub struct SemiHonestCheater<G> {
    honesty_ratio: f64,
    selection: CheatSelection,
    guesser: G,
    seed: u64,
}

impl<G: Guesser> SemiHonestCheater<G> {
    /// Creates a cheater with honesty ratio `r ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a probability.
    #[must_use]
    pub fn new(honesty_ratio: f64, selection: CheatSelection, guesser: G, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&honesty_ratio) && honesty_ratio.is_finite(),
            "honesty ratio must be in [0,1]"
        );
        SemiHonestCheater {
            honesty_ratio,
            selection,
            guesser,
            seed,
        }
    }

    /// Whether leaf `index` (of `n`) belongs to the honestly-computed `D′`.
    #[must_use]
    pub fn is_honest_index(&self, n: u64, index: u64) -> bool {
        match self.selection {
            CheatSelection::Prefix => {
                // ⌊r·n⌋ computed exactly; f64 is exact for n < 2^53.
                let honest_count = (self.honesty_ratio * n as f64).floor() as u64;
                index < honest_count
            }
            CheatSelection::Scattered => {
                SplitMix64::for_stream(self.seed, index).next_f64() < self.honesty_ratio
            }
        }
    }

    /// Leaf value for a given retry-attack `salt` (Section 4.2): honest
    /// leaves are stable across salts, guessed leaves re-roll.
    #[must_use]
    pub fn leaf_value_salted(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        index: u64,
        salt: u64,
        ledger: &CostLedger,
    ) -> Vec<u8> {
        if self.is_honest_index(domain.len(), index) {
            let x = domain.input(index).expect("index within domain");
            ledger.charge_f(task.unit_cost());
            task.compute(x)
        } else {
            let x = domain.input(index).expect("index within domain");
            self.guesser.guess_salted(x, task.output_width(), salt)
        }
    }
}

impl<G: Guesser> WorkerBehaviour for SemiHonestCheater<G> {
    fn name(&self) -> &str {
        "semi-honest"
    }

    fn honesty_ratio(&self) -> f64 {
        self.honesty_ratio
    }

    fn leaf_value(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        index: u64,
        ledger: &CostLedger,
    ) -> Vec<u8> {
        self.leaf_value_salted(task, domain, index, 0, ledger)
    }
}

/// The malicious participant of Section 2.2: does all the work but feeds
/// the screener random values to sabotage the reported results.
#[derive(Debug, Clone, Copy)]
pub struct MaliciousWorker {
    corrupt_rate: f64,
    seed: u64,
}

impl MaliciousWorker {
    /// Corrupts the screener input for a `corrupt_rate` fraction of inputs.
    ///
    /// # Panics
    ///
    /// Panics if `corrupt_rate` is not a probability.
    #[must_use]
    pub fn new(corrupt_rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&corrupt_rate) && corrupt_rate.is_finite(),
            "corrupt rate must be in [0,1]"
        );
        MaliciousWorker { corrupt_rate, seed }
    }

    /// Whether input `index` gets a corrupted screener evaluation.
    #[must_use]
    pub fn corrupts(&self, index: u64) -> bool {
        SplitMix64::for_stream(self.seed ^ 0x6d61_6c76, index).next_f64() < self.corrupt_rate
    }
}

impl WorkerBehaviour for MaliciousWorker {
    fn name(&self) -> &str {
        "malicious"
    }

    fn leaf_value(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        index: u64,
        ledger: &CostLedger,
    ) -> Vec<u8> {
        // Malicious ≠ lazy: the work is done (and paid for) in full.
        let x = domain.input(index).expect("index within domain");
        ledger.charge_f(task.unit_cost());
        task.compute(x)
    }

    fn report_for(
        &self,
        screener: &dyn Screener,
        domain: Domain,
        index: u64,
        committed: &[u8],
    ) -> Option<ScreenReport> {
        let x = domain.input(index).expect("index within domain");
        if self.corrupts(index) {
            // S(x, z) with random z, per the paper's malicious model.
            let mut rng = SplitMix64::for_stream(self.seed ^ 0x7a7a, index);
            let mut z = vec![0u8; committed.len()];
            for chunk in z.chunks_mut(8) {
                let bytes = rng.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
            screener.screen(x, &z)
        } else {
            screener.screen(x, committed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_task::workloads::PasswordSearch;
    use ugc_task::{AcceptAllScreener, ZeroGuesser};

    fn task() -> PasswordSearch {
        PasswordSearch::with_hidden_password(5, 3)
    }

    #[test]
    fn honest_worker_charges_every_eval() {
        let t = task();
        let ledger = CostLedger::new();
        let d = Domain::new(0, 16);
        for i in 0..16 {
            assert_eq!(HonestWorker.leaf_value(&t, d, i, &ledger), t.compute(i));
        }
        assert_eq!(ledger.report().f_evals, 16);
        assert!((HonestWorker.honesty_ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn prefix_cheater_splits_domain_exactly() {
        let cheater = SemiHonestCheater::new(0.25, CheatSelection::Prefix, ZeroGuesser::new(1), 0);
        let honest = (0..100)
            .filter(|&i| cheater.is_honest_index(100, i))
            .count();
        assert_eq!(honest, 25);
        // And the honest part is the prefix.
        assert!(cheater.is_honest_index(100, 24));
        assert!(!cheater.is_honest_index(100, 25));
    }

    #[test]
    fn scattered_cheater_hits_ratio_statistically() {
        let cheater =
            SemiHonestCheater::new(0.5, CheatSelection::Scattered, ZeroGuesser::new(1), 42);
        let honest = (0..10_000)
            .filter(|&i| cheater.is_honest_index(10_000, i))
            .count() as f64;
        assert!((honest / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn cheater_charges_only_honest_leaves() {
        let t = task();
        let cheater = SemiHonestCheater::new(0.5, CheatSelection::Prefix, ZeroGuesser::new(1), 0);
        let ledger = CostLedger::new();
        let d = Domain::new(0, 32);
        for i in 0..32 {
            let _ = cheater.leaf_value(&t, d, i, &ledger);
        }
        assert_eq!(ledger.report().f_evals, 16);
    }

    #[test]
    fn cheater_guessed_leaves_are_wrong_honest_are_right() {
        let t = task();
        let cheater = SemiHonestCheater::new(0.5, CheatSelection::Prefix, ZeroGuesser::new(1), 0);
        let ledger = CostLedger::new();
        let d = Domain::new(0, 32);
        for i in 0..16 {
            assert_eq!(cheater.leaf_value(&t, d, i, &ledger), t.compute(i));
        }
        for i in 16..32 {
            assert_ne!(cheater.leaf_value(&t, d, i, &ledger), t.compute(i));
        }
    }

    #[test]
    fn salt_rerolls_guesses_but_not_honest_values() {
        let t = task();
        let cheater = SemiHonestCheater::new(0.5, CheatSelection::Prefix, ZeroGuesser::new(1), 0);
        let ledger = CostLedger::new();
        let d = Domain::new(0, 8);
        assert_eq!(
            cheater.leaf_value_salted(&t, d, 0, 0, &ledger),
            cheater.leaf_value_salted(&t, d, 0, 1, &ledger),
        );
        assert_ne!(
            cheater.leaf_value_salted(&t, d, 7, 0, &ledger),
            cheater.leaf_value_salted(&t, d, 7, 1, &ledger),
        );
    }

    #[test]
    fn zero_and_one_ratios_are_extremes() {
        let t = task();
        let ledger = CostLedger::new();
        let d = Domain::new(0, 8);
        let all = SemiHonestCheater::new(1.0, CheatSelection::Prefix, ZeroGuesser::new(1), 0);
        let none = SemiHonestCheater::new(0.0, CheatSelection::Prefix, ZeroGuesser::new(1), 0);
        for i in 0..8 {
            assert_eq!(all.leaf_value(&t, d, i, &ledger), t.compute(i));
            assert_ne!(none.leaf_value(&t, d, i, &ledger), t.compute(i));
        }
    }

    #[test]
    fn malicious_leaves_are_honest() {
        let t = task();
        let m = MaliciousWorker::new(1.0, 3);
        let ledger = CostLedger::new();
        let d = Domain::new(0, 8);
        for i in 0..8 {
            assert_eq!(m.leaf_value(&t, d, i, &ledger), t.compute(i));
        }
        assert_eq!(ledger.report().f_evals, 8);
    }

    #[test]
    fn malicious_reports_are_corrupted() {
        let t = task();
        let m = MaliciousWorker::new(1.0, 3);
        let d = Domain::new(0, 8);
        let screener = AcceptAllScreener;
        let mut corrupted = 0;
        for i in 0..8 {
            let committed = t.compute(i);
            let report = m.report_for(&screener, d, i, &committed).unwrap();
            if report.payload != committed {
                corrupted += 1;
            }
        }
        assert_eq!(corrupted, 8);
    }

    #[test]
    fn honest_default_report_is_truthful() {
        let t = task();
        let d = Domain::new(0, 8);
        let screener = AcceptAllScreener;
        let committed = t.compute(2);
        let report = HonestWorker
            .report_for(&screener, d, 2, &committed)
            .unwrap();
        assert_eq!(report.input, 2);
        assert_eq!(report.payload, committed);
    }

    #[test]
    #[should_panic(expected = "honesty ratio must be in [0,1]")]
    fn invalid_ratio_rejected() {
        let _ = SemiHonestCheater::new(-0.1, CheatSelection::Prefix, ZeroGuesser::new(1), 0);
    }

    #[test]
    fn behaviour_names() {
        assert_eq!(HonestWorker.name(), "honest");
        assert_eq!(
            SemiHonestCheater::new(0.5, CheatSelection::Prefix, ZeroGuesser::new(1), 0).name(),
            "semi-honest"
        );
        assert_eq!(MaliciousWorker::new(0.5, 0).name(), "malicious");
    }
}
