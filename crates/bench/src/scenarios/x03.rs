//! X3 — Exactness at bias 1 (Theorem 1 & 2 correctness).
//!
//! The paper's protocols identify the plurality w.h.p. *even at bias 1*.
//! This experiment plants bias-1 (bias-2 for k = 2 with even n) inputs
//! across a grid of (n, k) and reports per-protocol success rates with
//! Wilson 95% intervals.
//!
//! Paper prediction: success probability `1 − n^(−Ω(1))` — i.e. rates at or
//! near 1.0 throughout, improving with n.

use std::io;

use plurality_core::Algorithm;
use pp_stats::wilson_interval;
use pp_workloads::Counts;

use crate::arm;
use crate::scenario::{col, Ctx, GridPoint, RunFlag, Scenario, Study};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x03",
    slug: "x03_exactness",
    about: "Exactness at bias 1: success rates with Wilson intervals for all three protocols",
    outputs: &["x03_exactness"],
    flags: RunFlag::TRIAL,
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let grid: Vec<(usize, usize)> = if ctx.full() {
        vec![
            (1001, 2),
            (2001, 2),
            (4001, 2),
            (1000, 4),
            (2000, 4),
            (4000, 8),
            (8001, 2),
            (8000, 8),
        ]
    } else {
        vec![(601, 2), (1201, 2), (900, 3), (1800, 6)]
    };

    Study::new(
        "X3: exactness at bias 1 (success rate over trials, Wilson 95%)",
        "x03_exactness",
    )
    .points(
        grid.into_iter()
            .map(|(n, k)| GridPoint::new(Counts::bias_one(n, k), 4.0e3 * k as f64 + 4.0e4)),
    )
    .arm(arm::protocol(Algorithm::Simple))
    .arm(arm::protocol(Algorithm::Unordered))
    .arm(arm::protocol(Algorithm::Improved))
    .cols(vec![
        col::arm("algo"),
        col::n(),
        col::k(),
        col::bias(),
        col::ok_count(),
        col::trials(),
        col::rate(3),
        col::derived("lo", |r| {
            format!("{:.3}", wilson_interval(r.ok(), r.trials(), 1.96).0)
        }),
        col::derived("hi", |r| {
            format!("{:.3}", wilson_interval(r.ok(), r.trials(), 1.96).1)
        }),
        col::median_all("median time", 0),
    ])
    .run(ctx)
    .map(|_| ())
}
