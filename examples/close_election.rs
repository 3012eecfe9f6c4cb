//! A dead-heat election: exact consensus vs the undecided-state dynamics.
//!
//! 701 voters, two candidates, a one-vote margin. The classic
//! undecided-state dynamics (USD) reaches consensus fast but picks the
//! loser almost half the time — it solves *approximate* plurality only.
//! `Algorithm::Simple` pays more time but gets the winner right
//! w.h.p. — the paper's core trade-off, measured over 10 runs of each.
//!
//! Run with: `cargo run --release --example close_election`

use exact_plurality::baselines::UsdTable;
use exact_plurality::prelude::*;

fn main() {
    let counts = Counts::bias_one(701, 2);
    let assignment = counts.assignment();
    let winner = assignment.plurality();
    println!(
        "election: {} voters, supports {:?}, true winner: candidate {winner}",
        assignment.n(),
        assignment.counts().supports()
    );

    let trials = 10;
    let mut usd_correct = 0;
    let mut exact_correct = 0;
    for seed in 0..trials {
        // USD baseline.
        let usd = UsdTable::new(assignment.k());
        let states = SeqTable::<UsdTable>::initial_states(&usd.initial_counts(counts.supports()));
        let mut sim = Simulation::new(SeqTable::new(usd), states, seed);
        let r = sim.run(&RunOptions::with_parallel_time_budget(
            assignment.n(),
            200_000.0,
        ));
        usd_correct += usize::from(r.is_correct(winner));

        // Exact protocol.
        let (proto, states) = Machine::start(Algorithm::Simple, &assignment, Tuning::default());
        let mut sim = Simulation::new(proto, states, seed);
        let r = sim.run(&RunOptions::with_parallel_time_budget(
            assignment.n(),
            1_000_000.0,
        ));
        exact_correct += usize::from(r.is_correct(winner));
    }

    println!("undecided-state dynamics: {usd_correct}/{trials} correct (a coin flip at bias 1)");
    println!("SimpleAlgorithm:          {exact_correct}/{trials} correct");
}
