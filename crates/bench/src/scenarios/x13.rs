//! X13 — The paper's motivation: exact vs approximate plurality.
//!
//! Undecided-state dynamics reaches consensus fast but picks the planted
//! plurality only when the bias is large (≈ √(n·log n) for k = 2 —
//! at bias 1 it is a support-weighted lottery). `SimpleAlgorithm` pays a
//! `O(k·log n)` running time and stays correct all the way down to bias 1.
//!
//! The USD arm is engine-erased: batched by default, `--engine seq` for
//! the A/B. With `--full` extra USD-only rows
//! extend the population to `n = 10⁸`, where the lottery behaviour at
//! bias 1 is starkest. The side-by-side row layout is bespoke, so this
//! scenario drives its arms by hand.

use std::io;

use plurality_core::Algorithm;
use pp_stats::Table;
use pp_workloads::Counts;

use crate::arm::{self, TrialSpec};
use crate::harness::Engine;
use crate::protocols::median_parallel_time;
use crate::scenario::{Ctx, RunFlag, Scenario};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x13",
    slug: "x13_usd_comparison",
    about: "USD vs SimpleAlgorithm across the bias range — fast lottery vs exact consensus",
    outputs: &["x13_usd_comparison"],
    flags: RunFlag::TABLE_TRIAL,
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let (n, k): (usize, usize) = if ctx.full() { (4001, 3) } else { (1201, 3) };
    let sqrt_term = ((n as f64) * (n as f64).ln()).sqrt();
    let biases: Vec<usize> = [1.0, 0.1 * sqrt_term, 0.5 * sqrt_term, 1.5 * sqrt_term]
        .into_iter()
        .map(|b| (b as usize).max(1))
        .collect();
    let usd = arm::usd();
    let simple = arm::protocol(Algorithm::Simple);

    let mut table = Table::new(
        "X13: USD vs SimpleAlgorithm across the bias range",
        &[
            "n",
            "k",
            "bias",
            "bias/√(n·ln n)",
            "usd ok",
            "usd med time",
            "simple ok",
            "simple med time",
        ],
    );

    for (i, &bias) in biases.iter().enumerate() {
        let counts = Counts::adversarial_bias(n, k, bias);
        let actual_bias = counts.bias();

        let usd_out = ctx.run_arm(usd.as_ref(), &TrialSpec::new(&counts, 100_000.0), i as u64);
        let simple_out = ctx.run_arm(
            simple.as_ref(),
            &TrialSpec::new(&counts, 1.0e5),
            100 + i as u64,
        );

        let usd_ok = usd_out.iter().filter(|o| o.correct).count();
        let simple_ok = simple_out.iter().filter(|o| o.correct).count();
        table.push(vec![
            n.to_string(),
            k.to_string(),
            actual_bias.to_string(),
            format!("{:.2}", actual_bias as f64 / sqrt_term),
            format!("{usd_ok}/{}", usd_out.len()),
            format!("{:.0}", median_parallel_time(&usd_out)),
            format!("{simple_ok}/{}", simple_out.len()),
            format!("{:.0}", median_parallel_time(&simple_out)),
        ]);
        eprintln!(
            "  bias={actual_bias}: usd {usd_ok}/{}, simple {simple_ok}/{}",
            usd_out.len(),
            simple_out.len()
        );
    }

    // Large-population USD-only rows: the configuration-space engines take
    // the same bias-1 lottery to 10⁸ agents (SimpleAlgorithm columns stay
    // empty — the per-agent protocol does not scale there).
    if ctx.full() && ctx.opts.engine != Engine::Seq {
        for (i, big_n) in [1_000_000usize, 100_000_000].into_iter().enumerate() {
            let counts = Counts::adversarial_bias(big_n, k, 1);
            let big_sqrt = ((big_n as f64) * (big_n as f64).ln()).sqrt();
            let usd_out = ctx.run_arm(
                usd.as_ref(),
                &TrialSpec::new(&counts, 100_000.0),
                500 + i as u64,
            );
            let usd_ok = usd_out.iter().filter(|o| o.correct).count();
            table.push(vec![
                big_n.to_string(),
                k.to_string(),
                counts.bias().to_string(),
                format!("{:.5}", counts.bias() as f64 / big_sqrt),
                format!("{usd_ok}/{}", usd_out.len()),
                format!("{:.0}", median_parallel_time(&usd_out)),
                "—".into(),
                "—".into(),
            ]);
            eprintln!(
                "  n={big_n} bias={}: usd {usd_ok}/{}",
                counts.bias(),
                usd_out.len()
            );
        }
    }

    ctx.emit("x13_usd_comparison", &table)?;
    println!(
        "Read: USD is fast but fails towards small bias; SimpleAlgorithm holds its success \
         rate at every bias — the 'small chance of failure' buys exactness, not sloppiness."
    );
    Ok(())
}
