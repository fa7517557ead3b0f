//! **Figure 2** of the paper: required sample size `m` vs honesty ratio
//! `r`, for `q = 0` and `q = 0.5`, at `ε = 10⁻⁴`.
//!
//! The paper's figure is analytic (Eq. 3). This section prints the same
//! series and *additionally* validates each point empirically: at the
//! computed `m`, a Monte-Carlo sweep confirms the cheat-success rate is
//! consistent with `ε` (its Wilson interval must admit the Eq. 2 value).

use crate::{
    estimate_cheat_success_fast, mark, wilson_interval, DetectionExperiment, Report, Table,
};
use ugc_core::analysis::{cheat_success_probability, required_sample_size};

const EPSILON: f64 = 1e-4;
const TRIALS: u32 = 200_000;

pub(crate) fn run(report: &mut Report) {
    report.say(format!(
        "Figure 2 — required sample size vs honesty ratio (ε = {EPSILON:.0e})"
    ));
    report.say("Paper anchors: r=0.5,q=0.5 → 33 samples; r=0.5,q≈0 → 14 samples.\n");

    let mut table = Table::new(
        "r|m (q=0)|m (q=0.5)|Eq2(q=0)|MC rate(q=0)|Eq2(q=0.5)|MC rate(q=0.5)|ok".split('|'),
    );
    for r10 in 1..=9u32 {
        let r = f64::from(r10) / 10.0;
        let mut point_ok = true;
        let [(m0, eq0, mc0), (m5, eq5, mc5)] = [0.0, 0.5].map(|q| {
            let m = required_sample_size(EPSILON, r, q).expect("r < 1 always has a finite m");
            let theory = cheat_success_probability(r, q, m);
            let est = estimate_cheat_success_fast(&DetectionExperiment {
                domain_size: 0,
                samples: m as usize,
                honesty_ratio: r,
                guess_quality: q,
                trials: TRIALS,
                seed: 0x0f16_2000 ^ (u64::from(r10) * 131) ^ ((q * 10.0) as u64 * 7919),
            });
            // 99.99% Wilson band: 18 independent cells must all pass, so
            // per-cell acceptance needs a low false-alarm rate.
            let (lo, hi) = wilson_interval(u64::from(est.successes), u64::from(TRIALS), 3.89);
            let lo = if est.successes == 0 { 0.0 } else { lo };
            point_ok &= lo <= theory && theory <= hi && theory <= EPSILON;
            (m, theory, est.rate)
        });
        let label = format!("fig2 r={r:.1}: Eq. 2 inside the Wilson band and at most ε");
        let ok = mark(report.check(label, point_ok));
        table.push(
            format!("{r:.1}|{m0}|{m5}|{eq0:.2e}|{mc0:.2e}|{eq5:.2e}|{mc5:.2e}|{ok}").split('|'),
        );
    }
    report.table(&table);
    for (q, anchor) in [(0.0, 14), (0.5, 33)] {
        report.check(
            format!("fig2 anchor: r=0.5, q={q} needs {anchor} samples"),
            required_sample_size(EPSILON, 0.5, q) == Some(anchor),
        );
    }
    report.say(format!(
        "\nEach Monte-Carlo rate is over {TRIALS} trials; `ok` requires the \
         99.99% Wilson interval to contain the Eq. 2 value and Eq. 3's m to \
         push it below ε."
    ));
    report.conclude("Overall: REPRODUCED — shape and anchors match the paper");
}
