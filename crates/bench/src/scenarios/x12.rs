//! X12 — The elementary substrates: epidemic broadcast, load balancing,
//! and the leaderless phase clock.
//!
//! These calibrate the constants used by the tournament phase schedule:
//!
//! * one-way epidemic completes in ≈ log₂ n + ln n parallel time,
//! * discrete load balancing reaches the ±1 band in O(log n),
//! * the leaderless clock's wrap milestones are evenly spaced and its
//!   counters stay tightly clustered (small circular skew).

use std::io;

use pp_clocks::leaderless::{circular_spread, LeaderlessClockRun};
use pp_dynamics::{Epidemic, LoadBalance};
use pp_engine::{RunOptions, Simulation};
use pp_stats::{Summary, Table};

use crate::scenario::{Ctx, Scenario};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x12",
    slug: "x12_dynamics",
    about: "Substrate constants: epidemic broadcast, load balancing, leaderless phase clock",
    outputs: &["x12a_epidemic", "x12b_load_balance", "x12c_clock"],
    flags: &[],
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let sizes: Vec<usize> = if ctx.full() {
        vec![1000, 4000, 16000, 64000, 256000]
    } else {
        vec![1000, 8000, 64000]
    };

    // ---- Epidemic. ----
    let mut te = Table::new(
        "X12a: one-way epidemic broadcast time",
        &["n", "median time", "time/(log2 n + ln n)"],
    );
    for (i, &n) in sizes.iter().enumerate() {
        let times = ctx.run_trials(i as u64, |seed| {
            let states = Epidemic::initial_states(n, 1);
            let mut sim = Simulation::new(Epidemic, states, seed);
            sim.run(&RunOptions::default()).parallel_time
        });
        let s = Summary::of(&times);
        let model = (n as f64).log2() + (n as f64).ln();
        te.push(vec![
            n.to_string(),
            format!("{:.1}", s.median),
            format!("{:.2}", s.median / model),
        ]);
        eprintln!("  epidemic n={n}: {:.1}", s.median);
    }
    ctx.emit("x12a_epidemic", &te)?;

    // ---- Load balancing. ----
    let mut tl = Table::new(
        "X12b: discrete load balancing to the ±1 band",
        &["n", "median time", "time/ln n"],
    );
    for (i, &n) in sizes.iter().enumerate() {
        let times = ctx.run_trials(100 + i as u64, |seed| {
            let mut states = vec![0i64; n];
            states[0] = (n / 2) as i64;
            states[1] = -((n / 2) as i64);
            let mut sim = Simulation::new(LoadBalance, states, seed);
            sim.run(&RunOptions::with_parallel_time_budget(n, 50_000.0))
                .parallel_time
        });
        let s = Summary::of(&times);
        tl.push(vec![
            n.to_string(),
            format!("{:.1}", s.median),
            format!("{:.2}", s.median / (n as f64).ln()),
        ]);
        eprintln!("  loadbal n={n}: {:.1}", s.median);
    }
    ctx.emit("x12b_load_balance", &tl)?;

    // ---- Leaderless clock. ----
    let mut tc = Table::new(
        "X12c: leaderless phase clock — wrap spacing and skew",
        &[
            "n",
            "period",
            "wraps",
            "median gap (pt)",
            "gap/period",
            "final skew",
        ],
    );
    for (i, &n) in sizes.iter().enumerate() {
        let period = (6.0 * (n as f64).ln()).ceil() as u32;
        let results = ctx.run_trials(200 + i as u64, |seed| {
            let (proto, states) = LeaderlessClockRun::new(n, period);
            let mut sim = Simulation::new(proto, states, seed);
            sim.run(&RunOptions::with_parallel_time_budget(n, 4000.0));
            let marks = sim.protocol().first_wrap_at.clone();
            let gaps: Vec<f64> = marks
                .windows(2)
                .map(|w| (w[1] - w[0]) as f64 / n as f64)
                .collect();
            let counters: Vec<u32> = sim.states().iter().map(|s| s.g).collect();
            let skew = circular_spread(&counters, period);
            let med_gap = if gaps.is_empty() {
                f64::NAN
            } else {
                Summary::of(&gaps).median
            };
            (marks.len(), med_gap, skew)
        });
        let wraps: Vec<f64> = results.iter().map(|r| r.0 as f64).collect();
        let gaps: Vec<f64> = results
            .iter()
            .map(|r| r.1)
            .filter(|v| v.is_finite())
            .collect();
        let skews: Vec<f64> = results.iter().map(|r| r.2 as f64).collect();
        let gap = if gaps.is_empty() {
            f64::NAN
        } else {
            Summary::of(&gaps).median
        };
        tc.push(vec![
            n.to_string(),
            period.to_string(),
            format!("{:.0}", Summary::of(&wraps).median),
            format!("{gap:.0}"),
            format!("{:.2}", gap / period as f64),
            format!("{:.0}", Summary::of(&skews).median),
        ]);
        eprintln!(
            "  clock n={n}: gap {gap:.0} pt, skew {:.0}",
            Summary::of(&skews).median
        );
    }
    ctx.emit("x12c_clock", &tc)?;
    println!(
        "Read: epidemic ≈ log₂n + ln n; balancing = O(log n); clock wraps are evenly spaced \
         with skew ≪ period/2 — these constants justify the phase-length factors in \
         core::config::Tuning."
    );
    Ok(())
}
