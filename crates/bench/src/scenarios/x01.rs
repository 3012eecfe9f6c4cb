//! X1 — Theorem 1(1) runtime: `SimpleAlgorithm` converges in O(k·log n).
//!
//! Two sweeps on bias-1 inputs: n at fixed k, and k at fixed n. For each
//! configuration we report the median parallel time; the summary fits
//! `time ≈ a·k·ln n` and reports the constant and R². The paper's claim
//! holds if the fit is tight (R² near 1) and the constant stable.
//!
//! A USD baseline arm runs on the same inputs through the batched
//! configuration-space engine (`--engine seq` for the sequential A/B);
//! with `--full` its grid extends to `n = 10⁸`, far beyond what the
//! per-agent protocols can reach.

use std::io;

use plurality_core::Algorithm;
use pp_stats::fit_through_origin;
use pp_workloads::Workload;

use crate::arm;
use crate::scenario::{col, Ctx, GridPoint, RunFlag, Scenario, Study};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x01",
    slug: "x01_simple_scaling",
    about: "Theorem 1(1): SimpleAlgorithm time = O(k·log n), with a USD baseline arm",
    outputs: &["x01_simple_scaling", "x01_simple_scaling_baseline"],
    flags: RunFlag::TABLE_TRIAL,
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let (n_grid, k_grid, fixed_k, fixed_n): (Vec<usize>, Vec<usize>, usize, usize) = if ctx.full() {
        (
            vec![1000, 2000, 4000, 8000, 16000],
            vec![2, 3, 4, 6, 8, 12],
            3,
            4000,
        )
    } else {
        (vec![600, 1200, 2400], vec![2, 3, 4, 6], 3, 1200)
    };
    let budget = |k: usize| 4.0e3 * k as f64 + 2.0e4;

    let runs =
        Study::new(
            "X1: SimpleAlgorithm parallel time on bias-1 inputs",
            "x01_simple_scaling",
        )
        .skip_unconverged()
        .points(n_grid.iter().map(|&n| {
            GridPoint::new(Workload::BiasOne { n, k: fixed_k }, budget(fixed_k)).sweep("n-sweep")
        }))
        .points(k_grid.iter().map(|&k| {
            GridPoint::new(Workload::BiasOne { n: fixed_n, k }, budget(k)).sweep("k-sweep")
        }))
        .arm(arm::protocol(Algorithm::Simple))
        .cols(vec![
            col::sweep(),
            col::n(),
            col::k(),
            col::ok_frac(),
            col::median(0),
            col::mean(0),
            col::ci95(0),
            col::derived("t/(k·ln n)", |r| {
                format!("{:.1}", r.median() / (r.k() as f64 * (r.n() as f64).ln()))
            }),
        ])
        .run(ctx)?;

    let (xs, ys): (Vec<f64>, Vec<f64>) = runs
        .iter()
        .map(|r| (r.k() as f64 * (r.n() as f64).ln(), r.median()))
        .unzip();
    let fit = fit_through_origin(&xs, &ys);
    println!(
        "fit: time ≈ {:.2} · k·ln n   (R² = {:.4}) — Theorem 1(1) predicts a linear law",
        fit.a, fit.r2
    );

    // Baseline arm: USD on the same bias-1 inputs. Fast but approximate —
    // the ok column collapsing towards a lottery is the paper's motivation.
    super::usd_baseline(
        ctx,
        "X1",
        "x01_simple_scaling_baseline",
        n_grid,
        fixed_k,
        200,
    )
}
