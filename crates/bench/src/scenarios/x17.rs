//! X17 — adversarial initial distributions under undecided-state dynamics.
//!
//! The USD lower-bound line of work (El-Hayek & Elsässer 2025, and the
//! load-balancing inputs of Berenbrink et al. 2016) studies how the
//! *shape* of the initial support vector drives approximate dynamics: at
//! minimal bias the winner degrades towards a support-weighted lottery
//! regardless of the tail shape. This scenario sweeps four input shapes,
//! each a `Counts` constructor tagged with its name — flat bias-1,
//! one-large-many-small, Zipf and geometric tails — through the
//! engine-erased USD arm.
//!
//! It is also the template for adding scenarios: the whole experiment is
//! one declarative `Study` (grid = tagged input shapes, one arm, schema as
//! columns) — under twenty lines of actual definition.

use std::io;

use pp_workloads::Counts;

use crate::arm;
use crate::scenario::{col, Ctx, GridPoint, RunFlag, Scenario, Study};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x17",
    slug: "x17_adversarial_init",
    about: "USD across adversarial input shapes (bias-1, one-large, Zipf, geometric tails)",
    outputs: &["x17_adversarial_init"],
    flags: RunFlag::TABLE_TRIAL,
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let (n, k) = if ctx.full() {
        (1_000_000, 8)
    } else {
        (10_000, 8)
    };
    let shapes = [
        ("bias_one", Counts::bias_one(n, k)),
        ("one_large", Counts::one_large(n, k, n / 4)),
        ("zipf", Counts::zipf(n, k, 1.0)),
        ("geometric", Counts::geometric(n, k, 0.5)),
    ];

    Study::new(
        "X17: USD winner quality across adversarial initial distributions",
        "x17_adversarial_init",
    )
    .points(
        shapes
            .into_iter()
            .map(|(name, counts)| GridPoint::new(counts, 1.0e4).tag(name)),
    )
    .arm(arm::usd())
    .cols(vec![
        col::tag("workload"),
        col::n(),
        col::k(),
        col::bias(),
        col::engine(),
        col::ok_frac(),
        col::median(1),
        col::mean(1),
        col::ci95(1),
    ])
    .run(ctx)?;

    println!(
        "Read: USD converges fast on every input shape, but only the strongly skewed tails \
         (one_large, geometric) let it find the plurality reliably — flat bias-1 inputs \
         collapse to the lottery the exact protocols are built to avoid."
    );
    Ok(())
}
