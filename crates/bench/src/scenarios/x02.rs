//! X2/X6 — State-space usage: `O(k + log n)` for `SimpleAlgorithm`,
//! `O(k·loglog n + log n)` for `ImprovedAlgorithm`.
//!
//! We count the *distinct agent states actually visited* over a full run
//! (canonical encodings, see `Machine::encode`) across a (k, n) grid. The
//! paper's claims show up as: the Simple census grows additively in k (slope
//! ≈ constant per opinion) and logarithmically in n; the Improved census
//! pays an extra log log n factor on the k term (the per-opinion clock
//! states) — both far below the `Ω(k²)` bound for always-correct protocols.

use std::io;

use plurality_core::Algorithm;
use pp_workloads::Workload;

use crate::arm;
use crate::scenario::{col, Ctx, GridPoint, RunFlag, Scenario, Study};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x02",
    slug: "x02_state_census",
    about: "X2/X6: distinct states visited stay O(k + log n), far below the Ω(k²) bound",
    outputs: &["x02_state_census"],
    // Census trials run without faults.
    flags: &[RunFlag::Scheduler, RunFlag::Adversary],
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let (n_grid, k_grid, fixed_k, fixed_n): (Vec<usize>, Vec<usize>, usize, usize) = if ctx.full() {
        (
            vec![500, 1000, 2000, 4000, 8000],
            vec![2, 4, 8, 16, 32],
            4,
            2000,
        )
    } else {
        (vec![500, 1000, 2000], vec![2, 4, 8], 4, 1000)
    };
    let budget = |k: usize| 5.0e3 * k as f64 + 3.0e4;
    let max_census = |r: &crate::scenario::PointRun| {
        r.outcomes
            .iter()
            .filter_map(|o| o.census)
            .max()
            .unwrap_or(0)
    };

    Study::new(
        "X2/X6: distinct states visited (max over trials)",
        "x02_state_census",
    )
    .census(true)
    .arm_major()
    .points(
        k_grid.iter().map(|&k| {
            GridPoint::new(Workload::BiasOne { n: fixed_n, k }, budget(k)).sweep("k-sweep")
        }),
    )
    .points(n_grid.iter().map(|&n| {
        GridPoint::new(Workload::BiasOne { n, k: fixed_k }, budget(fixed_k)).sweep("n-sweep")
    }))
    .arm(arm::protocol(Algorithm::Simple))
    .arm(arm::protocol(Algorithm::Improved))
    .cols(vec![
        col::arm("algo"),
        col::sweep(),
        col::n(),
        col::k(),
        col::derived("states", move |r| max_census(r).to_string()),
        col::derived("states/k", move |r| {
            format!("{:.1}", max_census(r) as f64 / r.k() as f64)
        }),
        col::derived("states/ln n", move |r| {
            format!("{:.1}", max_census(r) as f64 / (r.n() as f64).ln())
        }),
        col::derived("k^2 (lower bd.)", |r| (r.k() * r.k()).to_string()),
    ])
    .run(ctx)?;

    println!(
        "Read: the census grows roughly linearly in k and logarithmically in n for both \
         protocols, with Improved paying an extra loglog-factor on the k term — well below \
         the always-correct Ω(k²) state bound shown in the last column."
    );
    Ok(())
}
