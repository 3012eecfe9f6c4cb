//! Quickstart: exact plurality consensus with a one-agent lead.
//!
//! 900 anonymous agents hold one of three opinions; opinion 1 leads opinion
//! 2 by a *single agent*. The ordered `Algorithm::Simple` still identifies it
//! w.h.p., which is precisely what "exact" plurality consensus means.
//!
//! Run with: `cargo run --release --example quickstart`

use exact_plurality::prelude::*;

fn main() {
    let counts = Counts::bias_one(900, 3);
    let assignment = counts.assignment();
    println!(
        "population: n = {}, k = {}, supports = {:?} (bias = {})",
        assignment.n(),
        assignment.k(),
        assignment.counts().supports(),
        assignment.counts().bias(),
    );

    let (protocol, states) = Machine::start(Algorithm::Simple, &assignment, Tuning::default());
    let mut sim = Simulation::new(protocol, states, 42);
    let result = sim.run(&RunOptions::with_parallel_time_budget(
        assignment.n(),
        1_000_000.0,
    ));

    let ms = sim.protocol().milestones;
    println!(
        "initialization ended after {:.0} parallel time",
        ms.init_end
            .map(|t| t as f64 / assignment.n() as f64)
            .unwrap_or(f64::NAN)
    );
    match result.output {
        Some(op) if op == assignment.plurality() => println!(
            "consensus on opinion {op} (the true plurality) after {:.0} parallel time",
            result.parallel_time
        ),
        Some(op) => println!(
            "consensus on opinion {op} — a failure run (the paper allows probability n^-Ω(1))"
        ),
        None => println!("no consensus within the budget"),
    }
}
