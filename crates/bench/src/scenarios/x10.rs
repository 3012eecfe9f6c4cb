//! X10 — The majority substrates: exactness, speed and the baselines.
//!
//! Three protocols on two-opinion inputs:
//!
//! * cancel/split (our \[20\] stand-in): exact at bias 1, `O(log n)` time;
//! * 3-state approximate majority \[4\]: `O(log n)` time but needs bias
//!   `Ω(√(n·log n))` — watch its success rate climb with the bias;
//! * 4-state stable exact majority: always correct, but `Θ(n)` time at
//!   bias 1.
//!
//! The 3- and 4-state substrates are table protocols: their arms run on
//! the batched configuration-space engine by default and honor
//! `--engine seq` like every other table arm.

use std::io;

use pp_engine::{RunOptions, RunStatus, Simulation};
use pp_majority::{cancel_split::CancelSplitRun, four_state_counts, FourState, ThreeState};
use pp_stats::wilson_interval;
use pp_workloads::{Counts, Workload};

use crate::arm::{self, TrialSpec};
use crate::protocols::TrialOutcome;
use crate::scenario::{col, Ctx, GridPoint, Scenario, Study};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x10",
    slug: "x10_majority",
    about: "Majority substrates: cancel/split vs 3-state vs 4-state, and the 3-state bias knee",
    outputs: &["x10a_majority_bias1", "x10b_three_state_bias"],
    // The cancel/split arm hands no fault, scheduler or adversary to its engine.
    flags: &[],
    run,
};

/// 3-state approximate majority as an engine-erased table arm.
fn three_state_arm() -> arm::Arm {
    arm::table("3-state", |c: &Counts| {
        (
            ThreeState,
            vec![0, c.support(1) as u64, c.support(2) as u64],
        )
    })
}

fn run(ctx: &mut Ctx) -> io::Result<()> {
    // ---- Part A: exactness at bias 1 and time scaling in n. ----
    let sizes: Vec<usize> = if ctx.full() {
        vec![1001, 4001, 16001, 64001]
    } else {
        vec![1001, 4001, 16001]
    };

    // cancel/split (window 24: the reliable standalone setting; the window
    // sweep lives in X14b) is a per-agent protocol — a closure arm.
    let cancel_split = arm::from_fn("cancel/split", |spec: &TrialSpec, seed| {
        let (a, b) = (spec.counts.support(1), spec.counts.support(2));
        let (proto, states) = CancelSplitRun::new(a, b, 0, 24);
        let mut sim = Simulation::new(proto, states, seed);
        let r = sim.run(&RunOptions::with_parallel_time_budget(a + b, spec.budget));
        TrialOutcome {
            converged: r.status == RunStatus::Converged,
            correct: r.output == Some(1),
            parallel_time: r.parallel_time,
            init_end: None,
            le_done: None,
            census: None,
            faults: r.faults,
        }
    });
    let four_state = arm::table("4-state", |c: &Counts| {
        (
            FourState,
            four_state_counts(c.support(1) as u64, c.support(2) as u64),
        )
    });

    Study::new(
        "X10a: bias-1 majority across substrates",
        "x10a_majority_bias1",
    )
    .points(sizes.iter().map(|&n| {
        GridPoint::new(
            Workload::Explicit {
                supports: vec![n / 2 + 1, n / 2],
            },
            100_000.0,
        )
    }))
    .arm(cancel_split)
    .arm(three_state_arm())
    // 4-state pays Θ(n) at bias 1: larger budget, capped population.
    .arm_with(four_state, Some(5.0e6), Some(4001))
    .cols(vec![
        col::arm("protocol"),
        col::n(),
        col::ok_count(),
        col::trials(),
        col::derived("rate lo", |r| {
            format!("{:.3}", wilson_interval(r.ok(), r.trials(), 1.96).0)
        }),
        col::median_all("median time", 0),
        col::derived("time/ln n", |r| {
            format!("{:.1}", r.median_all() / (r.n() as f64).ln())
        }),
    ])
    .run(ctx)?;

    // ---- Part B: 3-state success rate vs bias (the √(n log n) knee). ----
    let n = if ctx.full() { 16000 } else { 4000 };
    let sqrt_term = ((n as f64) * (n as f64).ln()).sqrt();
    Study::new(
        "X10b: 3-state approximate majority — success vs bias",
        "x10b_three_state_bias",
    )
    .stream_base(2000)
    .points([0.0, 0.25, 0.5, 1.0, 2.0].into_iter().map(|mult| {
        let bias = ((sqrt_term * mult) as usize).max(1) | 1; // odd, ≥ 1
        let a = (n + bias).div_ceil(2); // strict plurality even when n + bias is odd
        GridPoint::new(
            Workload::Explicit {
                supports: vec![a, n - a],
            },
            100_000.0,
        )
        // Tag the bias actually materialised (a − b), not the nominal one.
        .tag((2 * a - n).to_string())
    }))
    .arm(three_state_arm())
    .cols(vec![
        col::n(),
        col::tag("bias"),
        col::derived("bias/√(n·ln n)", move |r| {
            format!(
                "{:.2}",
                r.point.tag.parse::<f64>().unwrap_or(f64::NAN) / sqrt_term
            )
        }),
        col::ok_count(),
        col::trials(),
        col::rate(2),
    ])
    .run(ctx)?;

    println!(
        "Read: cancel/split is exact at bias 1 in O(log n) time; 3-state needs bias \
         ≳ √(n·ln n); 4-state is exact but pays Θ(n) time — the trade-off that motivates \
         the paper's w.h.p. protocols."
    );
    Ok(())
}
