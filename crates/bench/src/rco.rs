//! The **Section 3.3 / Fig. 3 storage trade-off**: storing the Merkle
//! tree only down to level `H − ℓ` shrinks storage by `2^ℓ` and costs
//! `O(2^ℓ)` recomputation per sample, for a relative computation overhead
//! of `rco = 2m/S`.
//!
//! We *measure* the recomputed `f` evaluations with a counting task — the
//! numbers in the "measured rco" column are actual call counts, not the
//! formula — then extrapolate to the paper's anchor (task of size `2⁴⁰`,
//! 4G of storage, `m = 64` → `rco = 2⁻²⁵`).

use crate::Report;
use crate::Table;
use ugc_core::analysis::rco;
use ugc_hash::Sha256;
use ugc_merkle::MerkleTree;
use ugc_task::workloads::PasswordSearch;
use ugc_task::{ComputeTask, CountingTask};

const HEIGHT: u32 = 16;
const N: u64 = 1 << HEIGHT;
const M: u64 = 64;

pub(crate) fn run(report: &mut Report) {
    report.say(format!(
        "Section 3.3 / Fig. 3 — partial-storage Merkle tree (n = 2^{HEIGHT}, m = {M})\n"
    ));

    let task = CountingTask::new(PasswordSearch::with_hidden_password(7, 3));
    let provider = |x: u64| task.compute(x);
    let full_root = MerkleTree::<Sha256>::from_leaf_fn(N, task.output_width(), provider)
        .expect("full tree builds")
        .root();

    let mut table = Table::new(
        "ℓ|stored nodes S|storage bytes|f-evals/proof (2^ℓ)|measured rco|formula 2m/S|roots match"
            .split('|'),
    );
    for ell in [1u32, 2, 4, 6, 8, 10, 12] {
        let partial: MerkleTree<Sha256> =
            MerkleTree::build_truncated(N, task.output_width(), ell, provider)
                .expect("partial tree builds");
        task.counter().reset();
        let mut proofs_verify = true;
        for k in 0..M {
            // Deterministic spread of samples across the domain.
            let index = (k * 0x9e37_79b9) % N;
            let (proof, _) = partial
                .prove_with(index, provider)
                .expect("partial proof generates");
            // Checked against the uncounted task: only the prover's
            // recomputation is on the meter.
            proofs_verify &= proof.verify(&full_root, &task.inner().compute(index));
        }
        let measured_rco = task.evaluations() as f64 / N as f64;
        let s = partial.paper_storage_units();
        let roots_match = partial.root() == full_root;
        report.check(
            format!("rco ℓ={ell}: root and all {M} proofs match the full tree's"),
            roots_match && proofs_verify,
        );
        report.check(
            format!("rco ℓ={ell}: measured {measured_rco:.3e} within 2m/S"),
            measured_rco <= rco(M, s),
        );
        let (bytes, per_proof, formula) = (partial.stored_bytes(), 1u64 << ell, rco(M, s));
        table.push(
            format!("{ell}|{s}|{bytes}|{per_proof}|{measured_rco:.3e}|{formula:.3e}|{roots_match}")
                .split('|'),
        );
    }
    report.table(&table);

    report.say("\nExtrapolation via rco = 2m/S (independent of |D| — the paper's point):");
    let mut extra = Table::new(["task size |D|", "storage units S", "m", "rco"]);
    for (d, s_bits, m) in [(30, 22, 64), (40, 32, 64), (40, 22, 64), (64, 32, 64)] {
        let log2_rco = rco(m, 1 << s_bits).log2();
        extra.push(format!("2^{d}|2^{s_bits}|{m}|2^{log2_rco:.0}").split('|'));
    }
    report.table(&extra);
    report.check(
        "rco anchor: 2^32 storage units and m = 64 give exactly 2^-25",
        rco(64, 1 << 32) == 2f64.powi(-25),
    );
    report.conclude(
        "Paper anchor reproduced: |D| = 2^40 with 4G (2^32) storage and m = 64 → rco = 2^-25,\n\
         and the rco column is identical for |D| = 2^30 and 2^64 at equal S.",
    );
}
