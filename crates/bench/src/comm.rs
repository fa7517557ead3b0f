//! The paper's **communication-cost comparison** (Sections 1 and 3.4):
//! naive sampling ships `O(n)` result bytes, CBS ships `O(m log n)`.
//!
//! Measured numbers are what the session engine charges for every message
//! a real deployment would send — `Message::charged`, its encoded length
//! plus the four-byte frame header — then the closed forms
//! extrapolate to the paper's motivating example: a 64-bit key-search
//! domain, where the naive upload is "about 16 million terabytes" while
//! CBS stays in kilobytes.
//!
//! The naive closed form is exact up to framing. The CBS one —
//! `m·(2w + (H − 1)·D)`, `m` authentication paths that never meet — is a
//! **bound**: the `m` samples travel as one opening that sends each
//! shared sibling once and none that another sample supplies, so what is
//! measured, framing and all, stays below it (checked on every row).

use crate::Table;
use crate::{round, Report};
use ugc_core::analysis::{cbs_traffic_bytes, naive_traffic_bytes};
use ugc_core::scheme::cbs::CbsScheme;
use ugc_core::scheme::naive::NaiveScheme;
use ugc_core::scheme::ni_cbs::NiCbsScheme;
use ugc_core::session::VerificationScheme;
use ugc_core::ParticipantStorage::Full;
use ugc_grid::HonestWorker;
use ugc_hash::{HashFunction, Sha256};
use ugc_merkle::tree_height;
use ugc_task::workloads::PasswordSearch;
use ugc_task::{ComputeTask, Domain};

const M: usize = 50;
/// Most a naive upload adds to its `n·w` payload: frame header, id, counts.
const NAIVE_FRAMING: u64 = 64;

pub(crate) fn run(report: &mut Report) {
    report.say(format!(
        "Communication cost — naive O(n) vs CBS/NI-CBS O(m log n), m = {M}\n"
    ));
    report.say("Measured: participant→supervisor bytes, each message charged by Message::charged.");

    let task = PasswordSearch::with_hidden_password(1, 3);
    let leaf_w = task.output_width() as u64;
    let digest = Sha256::DIGEST_LEN as u64;
    let schemes: [&dyn VerificationScheme<Sha256>; 3] = [
        &NaiveScheme {
            samples: M,
            seed: 5,
        },
        &CbsScheme {
            samples: M,
            seed: 5,
            report_audit: 0,
        },
        &NiCbsScheme {
            samples: M,
            g_iterations: 1,
            report_audit: 0,
            audit_seed: 0,
        },
    ];

    let mut table = Table::new(["n", "naive bytes", "CBS bytes", "NI-CBS bytes", "naive/CBS"]);
    let mut check =
        Table::new("n|naive formula|naive meas.|CBS bound|CBS meas.|NI-CBS meas.".split('|'));
    let mut ratios = Vec::new();
    for bits in [10u32, 12, 14, 16] {
        let n = 1u64 << bits;
        let [naive_b, cbs_b, ni_b] = schemes.map(|scheme| {
            let outcome = round(scheme, &task, Domain::new(0, n), &[&HonestWorker], Full);
            report.check(
                format!("comm n=2^{bits}: an honest round is accepted"),
                outcome.accepted,
            );
            outcome.supervisor_link.bytes_received
        });
        let ratio = naive_b as f64 / cbs_b as f64;
        ratios.push(ratio);
        table.push(format!("2^{bits}|{naive_b}|{cbs_b}|{ni_b}|{ratio:.1}×").split('|'));

        let formula = naive_traffic_bytes(n, leaf_w);
        let bound = cbs_traffic_bytes(M as u64, tree_height(n), leaf_w, digest);
        report.check(
            format!("comm n=2^{bits}: naive upload is n·w plus at most {NAIVE_FRAMING} B"),
            (formula..=formula + NAIVE_FRAMING).contains(&naive_b),
        );
        report.check(
            format!(
                "comm n=2^{bits}: CBS {cbs_b} B and NI-CBS {ni_b} B within the {bound} B bound"
            ),
            cbs_b <= bound && ni_b <= bound,
        );
        check.push(format!("2^{bits}|{formula}|{naive_b}|{bound}|{cbs_b}|{ni_b}").split('|'));
    }
    report.check(
        "comm: naive/CBS ratio rises with n",
        ratios.windows(2).all(|w| w[0] < w[1]),
    );
    report.table(&table);
    report.say(
        "\nClosed-form check (formulas are payload only; the CBS one is the paper's m paths,\n\
         an upper bound on one deduplicated opening — measured includes framing and reports):",
    );
    report.table(&check);

    report.say("\nExtrapolation to the paper's motivating scales (closed forms):");
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
    report.table(&extra);
    let cbs_at_64 = cbs_traffic_bytes(M as u64, 64, leaf_w, digest);
    report.check(
        "comm anchor: the CBS bound for a 64-bit key search is under a mebibyte",
        cbs_at_64 < 1 << 20,
    );
    report.conclude(&format!(
        "Paper anchor reproduced: the paper prices a 64-bit key search at \
         \"about 16 million terabytes\"\n(2^64 one-byte records ≈ {}); with our \
         16-byte results that is {} —\neither way CBS needs at most ~{}: the \
         O(n) → O(m log n) collapse.",
        human_bytes(2f64.powi(64)),
        human_bytes(2f64.powi(64) * leaf_w as f64),
        human_bytes(cbs_at_64 as f64),
    ));
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
