//! Regenerates the paper's **communication-cost comparison** (Sections 1
//! and 3): naive sampling ships `O(n)` result bytes, CBS ships
//! `O(m log n)`.
//!
//! Measured numbers come from the byte-counted transport — every frame a
//! real deployment would send, encoded and counted — then the closed forms
//! extrapolate to the paper's motivating example: a 64-bit key-search
//! domain, where the naive upload is "about 16 million terabytes" while
//! CBS stays in kilobytes.
//!
//! The naive closed form is exact up to framing. The CBS one —
//! `m·(2w + (H − 1)·D)`, `m` authentication paths that never meet — is a
//! **bound**: the `m` samples travel as one opening that sends each
//! shared sibling once and none that another sample supplies, so what is
//! measured, framing and all, stays below it (asserted on every row).
//!
//! Run: `cargo run --release -p ugc-bench --bin comm`

#![forbid(unsafe_code)]

use ugc_core::analysis::{cbs_traffic_bytes, naive_traffic_bytes};
use ugc_core::scheme::cbs::{run_cbs, CbsConfig};
use ugc_core::scheme::naive::{run_naive, NaiveConfig};
use ugc_core::scheme::ni_cbs::{run_ni_cbs, NiCbsConfig};
use ugc_core::ParticipantStorage;
use ugc_grid::HonestWorker;
use ugc_hash::{HashFunction, Sha256};
use ugc_merkle::tree_height;
use ugc_sim::Table;
use ugc_task::workloads::PasswordSearch;
use ugc_task::{ComputeTask, Domain};

const M: usize = 50;

fn main() {
    println!("Communication cost — naive O(n) vs CBS/NI-CBS O(m log n), m = {M}\n");
    println!("Measured: participant→supervisor bytes over the byte-counted transport.");

    let task = PasswordSearch::with_hidden_password(1, 3);
    let screener = task.match_screener();

    let mut table = Table::new(["n", "naive bytes", "CBS bytes", "NI-CBS bytes", "naive/CBS"]);
    let mut widths = Vec::new();
    for bits in [10u32, 12, 14, 16] {
        let n = 1u64 << bits;
        let domain = Domain::new(0, n);
        let naive = run_naive(
            &task,
            &screener,
            domain,
            &HonestWorker,
            &NaiveConfig {
                task_id: 1,
                samples: M,
                seed: 5,
            },
        )
        .expect("naive round");
        let cbs = run_cbs::<Sha256, _, _, _>(
            &task,
            &screener,
            domain,
            &HonestWorker,
            ParticipantStorage::Full,
            &CbsConfig {
                task_id: 1,
                samples: M,
                seed: 5,
                report_audit: 0,
            },
        )
        .expect("cbs round");
        let ni = run_ni_cbs::<Sha256, _, _, _>(
            &task,
            &screener,
            domain,
            &HonestWorker,
            ParticipantStorage::Full,
            &NiCbsConfig {
                task_id: 1,
                samples: M,
                g_iterations: 1,
                report_audit: 0,
                audit_seed: 0,
            },
        )
        .expect("ni-cbs round");
        assert!(naive.accepted && cbs.accepted && ni.accepted);
        let naive_b = naive.supervisor_link.bytes_received;
        let cbs_b = cbs.supervisor_link.bytes_received;
        let ni_b = ni.supervisor_link.bytes_received;
        widths.push((n, naive_b, cbs_b, ni_b));
        table.push([
            format!("2^{bits}"),
            naive_b.to_string(),
            cbs_b.to_string(),
            ni_b.to_string(),
            format!("{:.1}×", naive_b as f64 / cbs_b as f64),
        ]);
    }
    print!("{table}");

    // Sanity: the naive upload tracks its closed form (payload + framing);
    // the CBS uploads stay under theirs.
    let leaf_w = task.output_width() as u64;
    let digest = Sha256::DIGEST_LEN as u64;
    println!(
        "\nClosed-form check (formulas are payload only; the CBS one is the paper's m paths,\n\
         an upper bound on one deduplicated opening — measured includes framing and reports):"
    );
    let mut check = Table::new([
        "n",
        "naive formula",
        "naive meas.",
        "CBS bound",
        "CBS meas.",
        "NI-CBS meas.",
    ]);
    for (n, naive_b, cbs_b, ni_b) in widths {
        let bound = cbs_traffic_bytes(M as u64, tree_height(n), leaf_w, digest);
        assert!(
            cbs_b <= bound && ni_b <= bound,
            "n = {n}: measured {cbs_b} / {ni_b} B above the {bound} B bound"
        );
        check.push([
            format!("2^{}", n.trailing_zeros()),
            naive_traffic_bytes(n, leaf_w).to_string(),
            naive_b.to_string(),
            bound.to_string(),
            cbs_b.to_string(),
            ni_b.to_string(),
        ]);
    }
    print!("{check}");

    println!("\nExtrapolation to the paper's motivating scales (closed forms):");
    let mut extra = Table::new(["n", "naive upload", "CBS upload (bound)"]);
    for bits in [24u32, 32, 40, 64] {
        let naive = 2f64.powi(bits as i32) * leaf_w as f64;
        let cbs = cbs_traffic_bytes(M as u64, bits, leaf_w, digest);
        extra.push([
            format!("2^{bits}"),
            human_bytes(naive),
            human_bytes(cbs as f64),
        ]);
    }
    print!("{extra}");
    println!(
        "\nPaper anchor reproduced: the paper prices a 64-bit key search at \
         \"about 16 million terabytes\"\n(2^64 one-byte records ≈ {}); with our \
         16-byte results that is {} —\neither way CBS needs at most ~{}: the \
         O(n) → O(m log n) collapse.",
        human_bytes(2f64.powi(64)),
        human_bytes(2f64.powi(64) * leaf_w as f64),
        human_bytes(cbs_traffic_bytes(M as u64, 64, leaf_w, digest) as f64),
    );
}

fn human_bytes(b: f64) -> String {
    const UNITS: [&str; 7] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"];
    let mut value = b;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.1} {}", UNITS[unit])
}
