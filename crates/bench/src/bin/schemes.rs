//! Regenerates the paper's **implicit scheme comparison** (Sections 1–4):
//! every verification scheme on the same workload, same domain, same
//! verification strength, with measured costs on every axis.
//!
//! This is the table a practitioner would use to pick a scheme — the
//! "who wins, by what factor" summary of the whole paper.
//!
//! Run: `cargo run --release -p ugc-bench --bin schemes`

#![forbid(unsafe_code)]

use ugc_core::scheme::cbs::{run_cbs, CbsConfig};
use ugc_core::scheme::double_check::{run_double_check, DoubleCheckConfig};
use ugc_core::scheme::naive::{run_naive, NaiveConfig};
use ugc_core::scheme::ni_cbs::{run_ni_cbs, NiCbsConfig};
use ugc_core::scheme::ringer::{run_ringer, RingerConfig};
use ugc_core::{ParticipantStorage, RoundOutcome};
use ugc_grid::{CheatSelection, HonestWorker, SemiHonestCheater};
use ugc_hash::Sha256;
use ugc_sim::Table;
use ugc_task::workloads::PasswordSearch;
use ugc_task::{Domain, ZeroGuesser};

const N_BITS: u32 = 12;
const N: u64 = 1 << N_BITS;
const M: usize = 50;

fn cheater(seed: u64) -> SemiHonestCheater<ZeroGuesser> {
    SemiHonestCheater::new(0.5, CheatSelection::Scattered, ZeroGuesser::new(seed), seed)
}

fn main() {
    println!(
        "Scheme comparison — n = 2^{N_BITS}, m = {M} samples (d = {M} ringers), honest worker"
    );
    println!(
        "(CBS and NI-CBS answer the m samples with one Merkle opening: shared siblings are sent\n \
         once, a repeated sample is checked once, and a partial tree rebuilds each subtree the\n \
         samples fall in once — so their upload, supervisor f-evals and partial-storage\n \
         recomputation read below the m-path figures m·(2w + (H−1)·D), m and m·2^ℓ.)\n"
    );
    let task = PasswordSearch::with_hidden_password(5, 77);
    let screener = task.match_screener();
    let domain = Domain::new(0, N);

    let naive = run_naive(
        &task,
        &screener,
        domain,
        &HonestWorker,
        &NaiveConfig {
            task_id: 1,
            samples: M,
            seed: 4,
        },
    )
    .expect("naive");
    let double = run_double_check(
        &task,
        &screener,
        domain,
        &HonestWorker,
        &HonestWorker,
        &DoubleCheckConfig { task_id: 2 },
    )
    .expect("double-check");
    let cbs = run_cbs::<Sha256, _, _, _>(
        &task,
        &screener,
        domain,
        &HonestWorker,
        ParticipantStorage::Full,
        &CbsConfig {
            task_id: 3,
            samples: M,
            seed: 4,
            report_audit: 0,
        },
    )
    .expect("cbs");
    let cbs_partial = run_cbs::<Sha256, _, _, _>(
        &task,
        &screener,
        domain,
        &HonestWorker,
        ParticipantStorage::Partial { subtree_height: 6 },
        &CbsConfig {
            task_id: 4,
            samples: M,
            seed: 4,
            report_audit: 0,
        },
    )
    .expect("cbs partial");
    let ni = run_ni_cbs::<Sha256, _, _, _>(
        &task,
        &screener,
        domain,
        &HonestWorker,
        ParticipantStorage::Full,
        &NiCbsConfig {
            task_id: 5,
            samples: M,
            g_iterations: 1,
            report_audit: 0,
            audit_seed: 0,
        },
    )
    .expect("ni-cbs");
    let ringer = run_ringer(
        &task,
        &screener,
        domain,
        &HonestWorker,
        &RingerConfig {
            task_id: 6,
            ringers: M,
            seed: 4,
        },
    )
    .expect("ringer");

    let mut table = Table::new([
        "scheme",
        "sup→part B",
        "part→sup B",
        "sup f-evals",
        "part f-evals",
        "part hashes",
        "rounds",
        "accepted",
    ]);
    let mut row = |name: &str, o: &RoundOutcome| {
        table.push([
            name.to_string(),
            o.supervisor_link.bytes_sent.to_string(),
            o.supervisor_link.bytes_received.to_string(),
            o.supervisor_costs.f_evals.to_string(),
            o.participant_costs.f_evals.to_string(),
            o.participant_costs.hash_ops.to_string(),
            o.supervisor_link.messages_sent.to_string(),
            o.accepted.to_string(),
        ]);
    };
    row("double-check", &double);
    row("naive-sampling", &naive);
    row("ringer", &ringer);
    row("CBS", &cbs);
    row("CBS (ℓ=6 partial)", &cbs_partial);
    row("NI-CBS", &ni);
    print!("{table}");

    println!("\nDetection spot-check — same grid against a 50%-honest cheater:");
    let mut det = Table::new(["scheme", "verdict on r=0.5 cheater"]);
    let c = cheater(9);
    let naive_c = run_naive(
        &task,
        &screener,
        domain,
        &c,
        &NaiveConfig {
            task_id: 11,
            samples: M,
            seed: 4,
        },
    )
    .expect("naive cheat");
    let cbs_c = run_cbs::<Sha256, _, _, _>(
        &task,
        &screener,
        domain,
        &c,
        ParticipantStorage::Full,
        &CbsConfig {
            task_id: 12,
            samples: M,
            seed: 4,
            report_audit: 0,
        },
    )
    .expect("cbs cheat");
    let ni_c = run_ni_cbs::<Sha256, _, _, _>(
        &task,
        &screener,
        domain,
        &c,
        ParticipantStorage::Full,
        &NiCbsConfig {
            task_id: 13,
            samples: M,
            g_iterations: 1,
            report_audit: 0,
            audit_seed: 0,
        },
    )
    .expect("ni cheat");
    let ringer_c = run_ringer(
        &task,
        &screener,
        domain,
        &c,
        &RingerConfig {
            task_id: 14,
            ringers: M,
            seed: 4,
        },
    )
    .expect("ringer cheat");
    let double_c = run_double_check(
        &task,
        &screener,
        domain,
        &HonestWorker,
        &c,
        &DoubleCheckConfig { task_id: 15 },
    )
    .expect("double cheat");
    det.push(["double-check (1 honest)", &double_c.verdict.to_string()]);
    det.push(["naive-sampling", &naive_c.verdict.to_string()]);
    det.push(["ringer", &ringer_c.verdict.to_string()]);
    det.push(["CBS", &cbs_c.verdict.to_string()]);
    det.push(["NI-CBS", &ni_c.verdict.to_string()]);
    print!("{det}");

    println!(
        "\nShape reproduced: the naive schemes upload O(n) bytes; CBS and NI-CBS\n\
         cut the participant upload to O(m log n) at equal detection power; the\n\
         ringer scheme is cheapest on the wire but needs a one-way f and charges\n\
         the supervisor d full evaluations; double-check burns 2× the grid cycles."
    );
}
