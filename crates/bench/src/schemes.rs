//! The paper's **implicit scheme comparison** (Sections 1–4): every
//! verification scheme on the same workload, same domain, same
//! verification strength, with measured costs on every axis.
//!
//! This is the table a practitioner would use to pick a scheme — the
//! "who wins, by what factor" summary of the whole paper.

use crate::Table;
use crate::{round, Report};
use ugc_core::scheme::cbs::CbsScheme;
use ugc_core::scheme::double_check::DoubleCheckScheme;
use ugc_core::scheme::naive::NaiveScheme;
use ugc_core::scheme::ni_cbs::NiCbsScheme;
use ugc_core::scheme::ringer::RingerScheme;
use ugc_core::session::VerificationScheme;
use ugc_core::ParticipantStorage::{Full, Partial};
use ugc_grid::{CheatSelection, HonestWorker, SemiHonestCheater, WorkerBehaviour};
use ugc_hash::Sha256;
use ugc_task::workloads::PasswordSearch;
use ugc_task::{Domain, ZeroGuesser};

const N_BITS: u32 = 12;
const N: u64 = 1 << N_BITS;
const M: usize = 50;

pub(crate) fn run(report: &mut Report) {
    report.say(format!(
        "Scheme comparison — n = 2^{N_BITS}, m = {M} samples (d = {M} ringers), honest worker"
    ));
    report.say(
        "(CBS and NI-CBS answer the m samples with one Merkle opening: shared siblings are sent\n \
         once, a repeated sample is checked once, and a partial tree rebuilds each subtree the\n \
         samples fall in once — so their upload, supervisor f-evals and partial-storage\n \
         recomputation read below the m-path figures m·(2w + (H−1)·D), m and m·2^ℓ.)\n",
    );
    let task = PasswordSearch::with_hidden_password(5, 77);
    let domain = Domain::new(0, N);
    let honest: &dyn WorkerBehaviour = &HonestWorker;
    let cheater: &dyn WorkerBehaviour =
        &SemiHonestCheater::new(0.5, CheatSelection::Scattered, ZeroGuesser::new(9), 9);

    let naive = NaiveScheme {
        samples: M,
        seed: 4,
    };
    let ringer = RingerScheme {
        ringers: M,
        seed: 4,
    };
    let cbs = CbsScheme {
        samples: M,
        seed: 4,
        report_audit: 0,
    };
    let ni_cbs = NiCbsScheme {
        samples: M,
        g_iterations: 1,
        report_audit: 0,
        audit_seed: 0,
    };
    let partial = Partial { subtree_height: 6 };
    let rows: [(&str, &dyn VerificationScheme<Sha256>, _); 6] = [
        ("double-check", &DoubleCheckScheme, Full),
        ("naive-sampling", &naive, Full),
        ("ringer", &ringer, Full),
        ("CBS", &cbs, Full),
        ("CBS (ℓ=6 partial)", &cbs, partial),
        ("NI-CBS", &ni_cbs, Full),
    ];

    let mut table = Table::new(
        "scheme|sup→part B|part→sup B|sup f-evals|part f-evals|part hashes|rounds|accepted"
            .split('|'),
    );
    let mut uploads = Vec::new();
    for (name, scheme, storage) in rows {
        let workers = vec![honest; scheme.participant_slots()];
        let o = round(scheme, &task, domain, &workers, storage);
        report.check(format!("schemes: honest {name} round accepted"), o.accepted);
        if name == "double-check" {
            report.check(
                "schemes: double-check spends twice the task's f evaluations",
                o.participant_costs.f_evals == 2 * N,
            );
        }
        uploads.push(o.supervisor_link.bytes_received);
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
    }
    report.table(&table);
    let [_, naive_up, ringer_up, cbs_up, _, ni_up] = uploads[..] else {
        unreachable!("one upload per row");
    };
    report.check(
        format!("schemes: CBS and NI-CBS upload under a fifth of naive's at n = 2^{N_BITS}"),
        cbs_up.max(ni_up) * 5 < naive_up,
    );
    report.check(
        "schemes: the ringer upload is the smallest",
        uploads.iter().all(|&up| ringer_up <= up),
    );

    report.say("\nDetection spot-check — same grid against a 50%-honest cheater:");
    let mut det = Table::new(["scheme", "verdict on r=0.5 cheater"]);
    for (name, scheme, storage) in rows {
        if storage != Full {
            continue;
        }
        // Double-check pairs the cheater with one honest replica.
        let (name, workers) = match scheme.participant_slots() {
            2 => ("double-check (1 honest)", vec![honest, cheater]),
            _ => (name, vec![cheater]),
        };
        let o = round(scheme, &task, domain, &workers, Full);
        report.check(
            format!("schemes: r=0.5 cheater rejected by {name}"),
            !o.accepted,
        );
        det.push([name, &o.verdict.to_string()]);
    }
    report.table(&det);
    report.conclude(
        "Shape reproduced: the naive schemes upload O(n) bytes; CBS and NI-CBS\n\
         cut the participant upload to O(m log n) at equal detection power; the\n\
         ringer scheme is cheapest on the wire but needs a one-way f and charges\n\
         the supervisor d full evaluations; double-check burns 2× the grid cycles.",
    );
}
