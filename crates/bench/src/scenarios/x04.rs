//! X4 — Theorem 1(2) runtime: the unordered variant pays an additive
//! `O(log² n)` for leader election.
//!
//! We measure total parallel time and the time spent before `le_done`
//! (leader election + defender selection) separately. The paper's claim:
//! total ≈ O(k·log n + log² n). The LE share dominates at small k and
//! washes out as k grows — exactly the additive structure of the bound.
//!
//! A USD baseline arm runs the n-sweep inputs on the batched
//! configuration-space engine (`--engine seq` for the sequential A/B);
//! with `--full` it extends to `n = 10⁸`.

use std::io;

use plurality_core::Algorithm;
use pp_stats::{fit_affine, Summary};
use pp_workloads::Workload;

use crate::arm;
use crate::scenario::{col, Ctx, GridPoint, PointRun, RunFlag, Scenario, Study};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x04",
    slug: "x04_unordered_scaling",
    about: "Theorem 1(2): UnorderedAlgorithm pays an additive O(log² n) for leader election",
    outputs: &["x04_unordered_scaling", "x04_unordered_scaling_baseline"],
    flags: RunFlag::TABLE_TRIAL,
    run,
};

/// Median leader-election completion time in parallel-time units.
fn le_median(r: &PointRun) -> f64 {
    let n = r.n() as f64;
    let le: Vec<f64> = r
        .outcomes
        .iter()
        .filter_map(|o| o.le_done.map(|t| t as f64 / n))
        .collect();
    if le.is_empty() {
        f64::NAN
    } else {
        Summary::of(&le).median
    }
}

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let (n_grid, k_grid, fixed_k, fixed_n): (Vec<usize>, Vec<usize>, usize, usize) = if ctx.full() {
        (vec![1000, 2000, 4000, 8000], vec![2, 3, 4, 6, 8], 3, 2000)
    } else {
        (vec![600, 1200, 2400], vec![2, 3, 4], 3, 1200)
    };
    let budget = |k: usize| 5.0e3 * k as f64 + 5.0e4;

    let runs =
        Study::new(
            "X4: UnorderedAlgorithm parallel time (total and leader-election share)",
            "x04_unordered_scaling",
        )
        .skip_unconverged()
        .points(n_grid.iter().map(|&n| {
            GridPoint::new(Workload::BiasOne { n, k: fixed_k }, budget(fixed_k)).sweep("n-sweep")
        }))
        .points(k_grid.iter().map(|&k| {
            GridPoint::new(Workload::BiasOne { n: fixed_n, k }, budget(k)).sweep("k-sweep")
        }))
        .arm(arm::protocol(Algorithm::Unordered))
        .cols(vec![
            col::sweep(),
            col::n(),
            col::k(),
            col::ok_frac(),
            col::derived("median total", |r| format!("{:.0}", r.median())),
            col::derived("median LE", |r| format!("{:.0}", le_median(r))),
            col::derived("LE share", |r| format!("{:.2}", le_median(r) / r.median())),
            col::derived("t/(k·lnn + ln²n)", |r| {
                let ln = (r.n() as f64).ln();
                format!("{:.1}", r.median() / (r.k() as f64 * ln + ln * ln))
            }),
        ])
        .run(ctx)?;

    let (le_xs, le_ys): (Vec<f64>, Vec<f64>) = runs
        .iter()
        .filter_map(|r| {
            let le = le_median(r);
            let ln = (r.n() as f64).ln();
            le.is_finite().then_some((ln * ln, le))
        })
        .unzip();
    let fit = fit_affine(&le_xs, &le_ys);
    println!(
        "leader-election time vs ln²n: LE ≈ {:.2}·ln²n + {:.0}   (R² = {:.3}) — the additive \
         O(log² n) term of Theorem 1(2)",
        fit.a, fit.b, fit.r2
    );

    // Baseline arm: USD over the same n-sweep (configuration-space engine
    // reaches 10⁸ agents; the per-agent protocols above stop at 10⁴).
    super::usd_baseline(
        ctx,
        "X4",
        "x04_unordered_scaling_baseline",
        n_grid,
        fixed_k,
        300,
    )
}
