//! X5 — Theorem 2: pruning reduces the tournaments from k − 1 to
//! O(n/x_max).
//!
//! One-large-many-small inputs with fixed n and k while x_max sweeps
//! upward. The paper predicts the improved algorithm's time to scale with
//! `n/x_max·log n + log² n` — so it *falls* as x_max grows — while the
//! unordered algorithm keeps paying for all k − 1 tournaments. The final
//! column is the headline speedup — a cross-arm ratio, so this scenario
//! drives its two arms by hand instead of using a `Study`.

use std::io;

use plurality_core::Algorithm;
use pp_stats::{Summary, Table};
use pp_workloads::Counts;

use crate::arm::{self, TrialSpec};
use crate::scenario::{Ctx, RunFlag, Scenario};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x05",
    slug: "x05_improved_speedup",
    about: "Theorem 2: pruning beats the unordered variant on one-large-many-small inputs",
    outputs: &["x05_improved_speedup"],
    flags: RunFlag::TRIAL,
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let (n, k, xmax_grid): (usize, usize, Vec<usize>) = if ctx.full() {
        (4000, 21, vec![800, 1200, 1600, 2400, 3200])
    } else {
        (2000, 13, vec![500, 800, 1200])
    };
    let arms = [
        arm::protocol(Algorithm::Unordered),
        arm::protocol(Algorithm::Improved),
    ];

    let mut table = Table::new(
        "X5: Improved vs Unordered on one-large-many-small inputs",
        &[
            "n",
            "k",
            "x_max",
            "n/x_max",
            "algo",
            "ok",
            "median time",
            "speedup",
        ],
    );

    for (i, &x_max) in xmax_grid.iter().enumerate() {
        let counts = Counts::one_large(n, k, x_max);
        let spec = TrialSpec::new(&counts, 5.0e3 * k as f64 + 5.0e4);
        let mut medians = [0.0f64; 2];
        for (j, a) in arms.iter().enumerate() {
            let outcomes = ctx.run_arm(a.as_ref(), &spec, (i as u64) << 4 | j as u64);
            let ok = outcomes.iter().filter(|o| o.correct).count();
            let times: Vec<f64> = outcomes
                .iter()
                .filter(|o| o.converged)
                .map(|o| o.parallel_time)
                .collect();
            let median = if times.is_empty() {
                f64::NAN
            } else {
                Summary::of(&times).median
            };
            medians[j] = median;
            let speedup = if j == 1 {
                format!("{:.2}x", medians[0] / medians[1])
            } else {
                "-".into()
            };
            table.push(vec![
                n.to_string(),
                k.to_string(),
                x_max.to_string(),
                format!("{:.1}", n as f64 / x_max as f64),
                a.label().into(),
                format!("{ok}/{}", outcomes.len()),
                format!("{median:.0}"),
                speedup,
            ]);
            eprintln!(
                "  x_max={x_max} {}: median {median:.0} (ok {ok})",
                a.label()
            );
        }
    }

    ctx.emit("x05_improved_speedup", &table)?;
    println!(
        "Read: improved time tracks n/x_max (falling down the column) while unordered stays \
         ~flat; the crossover factor approaches k·x_max/n as predicted by Theorem 2."
    );
    Ok(())
}
