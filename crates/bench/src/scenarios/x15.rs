//! X15 — Appendix C: `SimpleAlgorithm` beyond `k ≤ n/40`.
//!
//! The theorem's base analysis assumes `k ≤ n/40`; Appendix C extends the
//! protocol to `k ≤ (1 − ε)·n` by slowing the init-counter decrement (the
//! `1/c` rule) so a clock agent finishes counting even when a large
//! constant fraction of the population remains collectors. We sweep k up to
//! n/2.5 and compare the base tuning against `Tuning::large_k()` — two
//! arms of the same protocol with different tunings.
//!
//! Note the time: with `x_max ≈ n/k` tiny, the protocol runs all `k − 1`
//! tournaments — runtime grows linearly in k, exactly as Theorem 1 says.

use std::io;

use plurality_core::{Algorithm, Tuning};
use pp_workloads::Counts;

use crate::arm;
use crate::scenario::{col, Ctx, GridPoint, RunFlag, Scenario, Study};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x15",
    slug: "x15_large_k",
    about: "Appendix C: SimpleAlgorithm at large k, base tuning vs the 1/c decrement rule",
    outputs: &["x15_large_k"],
    flags: RunFlag::TRIAL,
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let n = if ctx.full() { 1500 } else { 1000 };
    let ks: Vec<usize> = if ctx.full() {
        vec![n / 40, n / 10, n / 5, (n as f64 / 2.5) as usize]
    } else {
        vec![n / 40, n / 10, n / 5]
    };

    Study::new(
        "X15: SimpleAlgorithm at large k (Appendix C decrement rule)",
        "x15_large_k",
    )
    .points(
        ks.into_iter()
            .map(|k| GridPoint::new(Counts::bias_one(n, k), 2.0e3 * k as f64 + 5.0e4)),
    )
    .arm(arm::protocol_tuned(
        "base",
        Algorithm::Simple,
        Tuning::default(),
    ))
    .arm(arm::protocol_tuned(
        "large_k",
        Algorithm::Simple,
        Tuning::large_k(),
    ))
    .cols(vec![
        col::n(),
        col::k(),
        col::arm("tuning"),
        col::ok_frac(),
        col::trials(),
        col::derived("median time", |r| format!("{:.0}", r.median())),
        col::derived("time/(k·ln n)", |r| {
            format!("{:.1}", r.median() / (r.k() as f64 * (r.n() as f64).ln()))
        }),
    ])
    .run(ctx)?;

    println!(
        "Read: the base tuning carries k = n/5 with k-linear time; the Appendix C decrement \
         rule ends the init earlier, thins every worker role, and only pays off in its \
         asymptotic target regime (collectors above n/2 forever), infeasible under n >= 2k."
    );
    Ok(())
}
