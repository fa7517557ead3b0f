//! The **Section 4.2 analysis**: the NI-CBS retry attack and the Eq. (5)
//! hardening that prices it out.
//!
//! Part 1 measures the attack: a semi-honest cheater re-rolls one
//! uncommitted leaf (incremental `O(log n)` tree updates) until the
//! self-derived samples all land in its honest subset. Expected attempts:
//! `r^{-m}`.
//!
//! Part 2 prices the defence: Eq. (5) demands
//! `(1/r^m)·m·C_g ≥ n·C_f`; we compute the minimal `g = MD5^k` hardness
//! and verify the measured attack cost crosses the task cost there.
//!
//! An implementation finding (see [`retry_attack`]): a practical attacker
//! can *early-exit* sample derivation at the first escaping sample, paying
//! ≈`1/(1−r)` chain elements per attempt instead of the paper's `m`;
//! Eq. (5)'s margin shrinks accordingly but the exponential `r^{-m}`
//! attempt count — the real defence — is unchanged.

use crate::Report;
use crate::{Summary, Table};
use ugc_core::analysis::{min_g_cost_for_uncheatability, ni_attack_cost, ni_expected_attempts};
use ugc_core::scheme::ni_cbs::{retry_attack, RetryAttackConfig, RetryAttackOutcome};
use ugc_grid::{CheatSelection, SemiHonestCheater};
use ugc_hash::Md5;
use ugc_task::workloads::PasswordSearch;
use ugc_task::{Domain, ZeroGuesser};

const N: u64 = 1 << 12;
const RUNS: u64 = 40;
/// Half-width of the band around `r^-m` for a measured mean, in standard
/// errors. Two cells (`r = 0.7, m = 8` and `r = 0.9, m = 16`) land ≈ 3
/// above at these `RUNS` seeds; that is the draw, not `retry_attack` —
/// over 400 seeds both means close to within one standard error
/// (`retry_attack_mean_holds_where_forty_runs_strayed` in `ugc-core`).
const BAND: f64 = 4.0;

/// One seeded run of the attack on `0..N`: an `r`-honest cheater against
/// `m` samples derived by `g = MD5^k`.
fn attack(r: f64, m: usize, k: u64, seed: u64, guess_seed: u64) -> RetryAttackOutcome {
    let task = PasswordSearch::with_hidden_password(3, 9);
    let guesser = ZeroGuesser::new(guess_seed);
    let cheater = SemiHonestCheater::new(r, CheatSelection::Prefix, guesser, seed);
    let config = RetryAttackConfig {
        samples: m,
        g_iterations: k,
        max_attempts: 50_000_000,
    };
    retry_attack::<Md5, _, _>(&task, Domain::new(0, N), &cheater, &config).expect("attack runs")
}

pub(crate) fn run(report: &mut Report) {
    report.say(format!(
        "Section 4.2 — the NI-CBS retry attack (n = 2^12, {RUNS} runs/cell)\n"
    ));

    let mut table = Table::new(
        "r|m|E[attempts] r^-m|measured mean|measured sd|g-hashes/run|tree-hashes/run".split('|'),
    );
    for &(r, m) in &[(0.5f64, 4usize), (0.5, 8), (0.7, 8), (0.9, 8), (0.9, 16)] {
        let runs: Vec<RetryAttackOutcome> = (0..RUNS)
            .map(|seed| attack(r, m, 1, seed, seed ^ 0x5eed))
            .collect();
        let summary_of = |f: fn(&RetryAttackOutcome) -> u64| {
            Summary::of(&runs.iter().map(|o| f(o) as f64).collect::<Vec<_>>())
        };
        let attempts = summary_of(|o| o.attempts);
        let expected = ni_expected_attempts(r, m as u64);
        report.check(
            format!("ni_retry r={r} m={m}: every run succeeds within its budget"),
            runs.iter().all(|o| o.succeeded),
        );
        // A geometric count's standard deviation is about its mean, so
        // the mean of RUNS runs has standard error ≈ r^-m / √RUNS.
        report.check(
            format!(
                "ni_retry r={r} m={m}: mean attempts {:.1} within {BAND} standard errors of {expected:.1}",
                attempts.mean
            ),
            (attempts.mean - expected).abs() <= BAND * expected / (RUNS as f64).sqrt(),
        );
        let (mean, sd) = (attempts.mean, attempts.std_dev());
        let g = summary_of(|o| o.g_unit_hashes).mean;
        let tree = summary_of(|o| o.tree_hashes).mean;
        table.push(
            format!("{r:.1}|{m}|{expected:.0}|{mean:.0}|{sd:.0}|{g:.0}|{tree:.0}").split('|'),
        );
    }
    report.table(&table);
    report.say(format!(
        "\nEach measured mean is checked to lie within {BAND} standard errors of r^-m, taking a\n\
         geometric count's deviation as its mean: |mean − r^-m| ≤ {BAND}·r^-m/√{RUNS}."
    ));

    report.say("\nEq. (5) — minimal hardened-g cost C_g (unit hashes) so that");
    report.say("expected attack cost (1/r^m)·m·C_g exceeds the task cost n·C_f:\n");
    let mut eq5 =
        Table::new("n|r|m|C_g(min) = n·C_f·r^m/m|attack cost @C_g(min)|task cost n·C_f".split('|'));
    for &(bits, r, m) in &[
        (20u32, 0.9f64, 20u64),
        (20, 0.9, 50),
        (30, 0.9, 50),
        (30, 0.99, 50),
        (40, 0.9, 50),
    ] {
        let n = 1u64 << bits;
        let c_f = 1u64;
        let c_g = (min_g_cost_for_uncheatability(r, m, n, c_f).ceil() as u64).max(1);
        let (attack_cost, task_cost) = (ni_attack_cost(r, m, c_g), (n * c_f) as f64);
        report.check(
            format!("ni_retry n=2^{bits} r={r} m={m}: attack at C_g(min) costs the task or more"),
            attack_cost >= task_cost,
        );
        eq5.push(format!("2^{bits}|{r}|{m}|{c_g}|{attack_cost:.2e}|{task_cost:.2e}").split('|'));
    }
    report.table(&eq5);

    report.say("\nMeasured crossover (n = 2^12, r = 0.5, m = 8, C_f = 1):");
    report.say(
        "(marginal attack cost: g-chain hashes + incremental tree updates,\n\
         excluding the commitment build an honest participant also pays)\n",
    );
    let mut cross = Table::new(
        "g hardness k|marginal attack hashes|vs task cost|Eq.5 predicts uneconomical".split('|'),
    );
    let mut means = Vec::new();
    for k in [1u64, 8, 64, 512] {
        let total: u64 = (0..8u64)
            .map(|seed| attack(0.5, 8, k, seed, seed ^ 0xc0).marginal_cost())
            .sum();
        let mean = total as f64 / 8.0;
        means.push(mean);
        let (vs_task, predicted) = (mean / N as f64, ni_attack_cost(0.5, 8, k) >= N as f64);
        cross.push(format!("{k}|{mean:.0}|{vs_task:.2}× task|{predicted}").split('|'));
    }
    report.table(&cross);
    report.check(
        "ni_retry: marginal attack cost rises with the hardness k",
        means.windows(2).all(|w| w[0] < w[1]),
    );
    report.conclude(
        "Shape reproduced: attempts grow as r^-m; hardening g multiplies the\n\
         attack's hash bill linearly in k until it dwarfs honestly computing the task.\n\
         Note the early-exit effect on the margin (see `retry_attack` in ugc-core): the attacker\n\
         pays ≈1/(1−r) chain elements per attempt, not m, so the measured bill sits\n\
         below the paper's m·C_g accounting by that factor.",
    );
}
