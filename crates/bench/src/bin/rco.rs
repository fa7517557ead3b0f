//! Regenerates the **Section 3.3 / Fig. 3 storage trade-off**: storing the
//! Merkle tree only down to level `H − ℓ` shrinks storage by `2^ℓ` and
//! costs `O(2^ℓ)` recomputation per sample, for a relative computation
//! overhead of `rco = 2m/S`.
//!
//! We *measure* the recomputed `f` evaluations with a counting task — the
//! numbers in the "measured rco" column are actual call counts, not the
//! formula — then extrapolate to the paper's anchor (task of size `2⁴⁰`,
//! 4G of storage, `m = 64` → `rco = 2⁻²⁵`).
//!
//! Run: `cargo run --release -p ugc-bench --bin rco`

#![forbid(unsafe_code)]

use ugc_core::analysis::rco;
use ugc_hash::Sha256;
use ugc_merkle::{MerkleTree, RebuildStats};
use ugc_sim::Table;
use ugc_task::workloads::PasswordSearch;
use ugc_task::{ComputeTask, CountingTask};

fn main() {
    const HEIGHT: u32 = 16;
    const N: u64 = 1 << HEIGHT;
    const M: u64 = 64;

    println!("Section 3.3 / Fig. 3 — partial-storage Merkle tree (n = 2^{HEIGHT}, m = {M})\n");

    let task = CountingTask::new(PasswordSearch::with_hidden_password(7, 3));
    let full: MerkleTree<Sha256> =
        MerkleTree::from_leaf_fn(N, task.output_width(), |x| task.compute(x))
            .expect("full tree builds");
    let full_root = full.root();
    task.counter().reset();

    let mut table = Table::new([
        "ℓ",
        "stored nodes S",
        "storage bytes",
        "f-evals/proof (2^ℓ)",
        "measured rco",
        "formula 2m/S",
        "roots match",
    ]);

    for ell in [1u32, 2, 4, 6, 8, 10, 12] {
        let provider = |x: u64| task.compute(x);
        let partial: MerkleTree<Sha256> =
            MerkleTree::build_truncated(N, task.output_width(), ell, provider)
                .expect("partial tree builds");
        task.counter().reset();
        let mut total = RebuildStats::default();
        for k in 0..M {
            // Deterministic spread of samples across the domain.
            let index = (k * 0x9e37_79b9) % N;
            let (proof, stats) = partial
                .prove_with(index, provider)
                .expect("partial proof generates");
            assert!(proof.verify(&full_root, &task.compute(index)));
            total.absorb(stats);
        }
        let measured_rco = total.leaves_recomputed as f64 / N as f64;
        let s = partial.paper_storage_units();
        table.push([
            ell.to_string(),
            s.to_string(),
            partial.stored_bytes().to_string(),
            (1u64 << ell).to_string(),
            format!("{measured_rco:.3e}"),
            format!("{:.3e}", rco(M, s)),
            (partial.root() == full_root).to_string(),
        ]);
    }
    print!("{table}");

    println!("\nExtrapolation via rco = 2m/S (independent of |D| — the paper's point):");
    let mut extra = Table::new(["task size |D|", "storage units S", "m", "rco"]);
    for (d, s, m) in [
        (30u32, 1u64 << 22, 64u64),
        (40, 1 << 32, 64),
        (40, 1 << 22, 64),
        (64, 1 << 32, 64),
    ] {
        extra.push([
            format!("2^{d}"),
            format!("2^{}", s.trailing_zeros()),
            m.to_string(),
            format!("2^{:.0}", rco(m, s).log2()),
        ]);
    }
    print!("{extra}");
    println!(
        "\nPaper anchor reproduced: |D| = 2^40 with 4G (2^32) storage and m = 64 → rco = 2^-25,\n\
         and the rco column is identical for |D| = 2^30 and 2^64 at equal S."
    );
}
