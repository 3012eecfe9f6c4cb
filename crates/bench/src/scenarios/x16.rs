//! X16 — trajectory figures: what the dynamics *look like* over time.
//!
//! Two time series (CSV under `results/`), one row per sample:
//!
//! * `x16a_usd_trajectory` — per-opinion support under undecided-state
//!   dynamics on a bias-1 input: the plurality's lead is visibly drowned in
//!   the stochastic drift (why USD cannot be exact);
//! * `x16b_simple_trajectory` — defender-bit counts per opinion and the
//!   phase mode under `SimpleAlgorithm` on the same input: the defender
//!   marker hops to the tournament winner every cycle and settles on the
//!   plurality.

use std::io;

use plurality_core::roles::Role;
use plurality_core::{SimpleAlgorithm, Tuning};
use pp_baselines::UsdTable;
use pp_engine::{RunOptions, SeqTable, Simulation};
use pp_stats::Table;
use pp_workloads::Counts;

use crate::scenario::{Ctx, Scenario};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x16",
    slug: "x16_trajectories",
    about: "Trajectory figures: USD supports random-walk; Simple's defender settles",
    outputs: &["x16a_usd_trajectory", "x16b_simple_trajectory"],
    flags: &[],
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let n = if ctx.full() { 4000 } else { 1200 };
    let k = 3;
    let counts = Counts::bias_one(n, k);
    let assignment = counts.assignment();

    // ---- (a) USD supports over time. ----
    let mut ta = Table::new(
        "X16a: USD per-opinion support over time (bias-1 input)",
        &["t", "op1", "op2", "op3", "undecided"],
    );
    {
        let table = UsdTable::new(k);
        let states = SeqTable::<UsdTable>::initial_states(&table.initial_counts(counts.supports()));
        let mut sim = Simulation::new(SeqTable::new(table), states, ctx.opts.seed);
        let mut next = 0u64;
        let _ = sim.run_observed(
            &RunOptions::with_parallel_time_budget(n, 200.0),
            |t, states| {
                if t < next {
                    return;
                }
                next = t + n as u64 / 2;
                let mut c = [0usize; 4];
                for &s in states {
                    c[s as usize] += 1;
                }
                ta.push(vec![
                    format!("{:.1}", t as f64 / n as f64),
                    c[1].to_string(),
                    c[2].to_string(),
                    c[3].to_string(),
                    c[0].to_string(),
                ]);
            },
        );
    }
    println!("X16a: {} samples (see CSV)", ta.len());
    ctx.emit_csv_only("x16a_usd_trajectory", &ta)?;

    // ---- (b) SimpleAlgorithm defender evolution. ----
    let mut tb = Table::new(
        "X16b: SimpleAlgorithm defender bits per opinion over time",
        &["t", "phase_mode", "def1", "def2", "def3", "winners"],
    );
    {
        let (proto, states) = SimpleAlgorithm::new(&assignment, Tuning::default());
        let mut sim = Simulation::new(proto, states, ctx.opts.seed);
        let mut next = 0u64;
        let r = sim.run_observed(
            &RunOptions::with_parallel_time_budget(n, 100_000.0),
            |t, states| {
                if t < next {
                    return;
                }
                next = t + (n as u64) * 50;
                let mut defs = [0usize; 3];
                let mut winners = 0usize;
                let mut phases = std::collections::HashMap::new();
                for s in states {
                    *phases.entry(s.phase).or_insert(0usize) += 1;
                    if let Role::Collector(c) = &s.role {
                        if c.defender && usize::from(c.opinion) <= 3 {
                            defs[usize::from(c.opinion) - 1] += 1;
                        }
                        winners += usize::from(c.winner);
                    }
                }
                let mode = phases
                    .iter()
                    .max_by_key(|(_, &c)| c)
                    .map(|(&p, _)| p)
                    .unwrap_or(-9);
                tb.push(vec![
                    format!("{:.0}", t as f64 / n as f64),
                    mode.to_string(),
                    defs[0].to_string(),
                    defs[1].to_string(),
                    defs[2].to_string(),
                    winners.to_string(),
                ]);
            },
        );
        println!(
            "X16b: {} samples, final output {:?} (expected {})",
            tb.len(),
            r.output,
            assignment.plurality()
        );
    }
    ctx.emit_csv_only("x16b_simple_trajectory", &tb)?;
    println!(
        "Read: the USD series shows supports random-walking across each other at bias 1; \
         the Simple series shows the defender marker held by one opinion per tournament \
         and ending on the plurality."
    );
    Ok(())
}
