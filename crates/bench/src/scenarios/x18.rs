//! X18 — recovery from transient state corruption.
//!
//! Population protocols are prized for self-stabilization-adjacent
//! robustness: after a transient fault scrambles part of the population,
//! the dynamics should re-converge from the perturbed configuration. This
//! scenario corrupts a fraction of the agents to uniformly random states
//! *after* convergence (parallel time 50 is past the convergence knee for
//! every arm at these sizes) and measures the recovery time — parallel
//! time from the strike back to an agreeing population — and whether the
//! pre-fault winner survives, as the corrupted fraction grows.
//!
//! USD and the 3-state majority recover in `O(log n)` (the surviving
//! majority re-runs the dynamics from a biased start); the 4-state exact
//! majority also re-converges but its token bookkeeping is *not* restored
//! by corruption — random strong tokens shift `#A − #B` — so its famed
//! exactness holds only against the faults that preserve the token
//! invariant, a point the fault layer makes measurable.

use std::io;

use pp_engine::FaultSpec;
use pp_majority::{four_state_counts, FourState, ThreeState};
use pp_workloads::Counts;

use crate::arm;
use crate::scenario::{col, Ctx, GridPoint, RunFlag, Scenario, Study};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x18",
    slug: "x18_fault_recovery",
    about: "Recovery time and winner survival vs corrupted fraction (USD, 3-/4-state)",
    outputs: &["x18_fault_recovery"],
    flags: RunFlag::TABLE_TRIAL,
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let n = if ctx.full() { 1_000_000 } else { 10_000 };
    // 2:1 support — far enough from the lottery regime that the original
    // winner should survive moderate corruption.
    let counts = Counts::geometric(n, 2, 0.5);
    let fracs = [0.05, 0.1, 0.2, 0.4];

    Study::new(
        "X18: recovery from transient corruption vs corrupted fraction",
        "x18_fault_recovery",
    )
    .points(fracs.into_iter().map(|frac| {
        GridPoint::new(counts.clone(), 2_000.0)
            .tag(format!("{frac}"))
            .faults(vec![FaultSpec::Corrupt { at: 50.0, frac }])
    }))
    .arm(arm::usd())
    .arm(arm::table("3-state", |c: &Counts| {
        (
            ThreeState,
            vec![0, c.support(1) as u64, c.support(2) as u64],
        )
    }))
    .arm(arm::table("4-state", |c: &Counts| {
        (
            FourState,
            four_state_counts(c.support(1) as u64, c.support(2) as u64),
        )
    }))
    .cols(vec![
        col::tag("frac"),
        col::arm("protocol"),
        col::n(),
        col::engine(),
        col::ok_frac(),
        col::median(1),
        col::recovery(1),
        col::survived(),
    ])
    .run(ctx)?;

    println!(
        "Read: recovery time grows only mildly with the corrupted fraction (the surviving \
         majority restarts the dynamics from a biased configuration), and the pre-fault \
         winner survives moderate corruption in the large majority of trials."
    );
    Ok(())
}
