//! X8 — Lemmas 6/7 + Claim 8: junta sizes and per-subpopulation clock
//! rates.
//!
//! Part A: junta size vs population size (Claim 8 bound `x^0.98`).
//! Part B: two-opinion populations with varying split: the tick spacing of
//! each opinion's clock scales as `n²/x_j` (Lemma 7(3)) — we report
//! spacing·x_j/n², which the lemma predicts to be ~constant (up to the
//! log n factor shared by all rows at fixed n).

use std::io;

use pp_clocks::junta::FormJuntaRun;
use pp_clocks::subpop::SubpopClocks;
use pp_engine::{RunOptions, Simulation};
use pp_stats::{Summary, Table};

use crate::scenario::{Ctx, Scenario};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x08",
    slug: "x08_clocks",
    about: "Lemmas 6/7 + Claim 8: junta sizes and per-subpopulation clock tick spacing",
    outputs: &["x08a_junta", "x08b_subpop_clocks"],
    flags: &[],
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    // ---- Part A: junta sizes. ----
    let sizes: Vec<usize> = if ctx.full() {
        vec![1000, 4000, 16000, 64000]
    } else {
        vec![1000, 4000, 16000]
    };
    let mut ta = Table::new(
        "X8a: FormJunta — junta size vs population (bound x^0.98)",
        &["x", "median junta", "x^0.98", "junta frac", "median time"],
    );
    for (i, &x) in sizes.iter().enumerate() {
        let results = ctx.run_trials(i as u64, |seed| {
            let (proto, states) = FormJuntaRun::new(x);
            let mut sim = Simulation::new(proto, states, seed);
            let r = sim.run(&RunOptions::with_parallel_time_budget(x, 50_000.0));
            (r.output.unwrap_or(0) as f64, r.parallel_time)
        });
        let juntas: Vec<f64> = results.iter().map(|r| r.0).collect();
        let times: Vec<f64> = results.iter().map(|r| r.1).collect();
        let j = Summary::of(&juntas);
        ta.push(vec![
            x.to_string(),
            format!("{:.0}", j.median),
            format!("{:.0}", (x as f64).powf(0.98)),
            format!("{:.3}", j.median / x as f64),
            format!("{:.1}", Summary::of(&times).median),
        ]);
        eprintln!("  junta at x={x}: {:.0}", j.median);
    }
    ctx.emit("x08a_junta", &ta)?;

    // ---- Part B: subpopulation clock rates. ----
    let n: usize = if ctx.full() { 16000 } else { 8000 };
    let splits: Vec<f64> = vec![0.5, 0.25, 0.125, 0.0625];
    let mut tb = Table::new(
        "X8b: per-opinion clock tick spacing vs subpopulation size (Lemma 7)",
        &["n", "x_j", "hours", "spacing (ints)", "spacing·x_j/n²"],
    );
    for (i, &frac) in splits.iter().enumerate() {
        let x = (n as f64 * frac) as usize;
        let results = ctx.run_trials(1000 + i as u64, |seed| {
            let mut opinions = vec![1u16; x];
            opinions.extend(std::iter::repeat_n(2u16, n - x));
            let (proto, states) = SubpopClocks::new(&opinions, 8);
            let mut sim = Simulation::new(proto, states, seed);
            sim.run(&RunOptions::with_parallel_time_budget(n, 4000.0));
            let marks = sim.protocol().first_hour_at[0].clone();
            let gaps: Vec<f64> = marks.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
            (
                marks.len(),
                if gaps.is_empty() {
                    f64::NAN
                } else {
                    Summary::of(&gaps).median
                },
            )
        });
        let hours: Vec<f64> = results.iter().map(|r| r.0 as f64).collect();
        let spacings: Vec<f64> = results
            .iter()
            .map(|r| r.1)
            .filter(|v| v.is_finite())
            .collect();
        if spacings.is_empty() {
            tb.push(vec![
                n.to_string(),
                x.to_string(),
                "0".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let sp = Summary::of(&spacings).median;
        tb.push(vec![
            n.to_string(),
            x.to_string(),
            format!("{:.0}", Summary::of(&hours).median),
            format!("{sp:.0}"),
            format!("{:.2}", sp * x as f64 / (n as f64 * n as f64)),
        ]);
        eprintln!("  x_j={x}: spacing {sp:.0}");
    }
    ctx.emit("x08b_subpop_clocks", &tb)?;
    println!(
        "Read: spacing·x_j/n² is ~constant across rows — the Lemma 7 law \
         spacing = Θ((n²/x_j)·log n) at fixed n."
    );
    Ok(())
}
