//! Eliminating insignificant opinions — the paper's headline mechanism.
//!
//! One strong opinion (x_max = 800 ≈ n^0.87) faces fifteen splinter
//! opinions of ~80 agents each. The unordered algorithm would grind through
//! up to k − 1 = 15 tournaments; `Algorithm::Improved` runs one junta clock
//! per opinion during initialization, and when the strong opinion's clock
//! fires first, every opinion whose clock never ticked is pruned — no
//! tournament is ever held for it. The run prints how many opinions
//! survived pruning and compares total time against the unordered variant.
//!
//! Run with: `cargo run --release --example eliminate_insignificant`

use exact_plurality::core::roles::Role;
use exact_plurality::prelude::*;
use std::collections::BTreeSet;

fn main() {
    let counts = Counts::one_large(2000, 16, 800);
    let assignment = counts.assignment();
    println!(
        "population: n = {}, k = {}, x_max = {}",
        assignment.n(),
        assignment.k(),
        assignment.x_max()
    );

    // --- Algorithm::Improved, watching the pruning moment. ---
    let (proto, states) = Machine::start(Algorithm::Improved, &assignment, Tuning::default());
    let mut sim = Simulation::new(proto, states, 11);
    let mut surviving: Option<BTreeSet<u16>> = None;
    let result = sim.run_observed(
        &RunOptions::with_parallel_time_budget(assignment.n(), 2_000_000.0),
        |_, states| {
            if surviving.is_none() && states.iter().all(|s| s.phase >= 0) {
                let set: BTreeSet<u16> = states
                    .iter()
                    .filter_map(|s| match &s.role {
                        Role::Collector(c) if c.tokens > 0 => Some(c.opinion),
                        _ => None,
                    })
                    .collect();
                surviving = Some(set);
            }
        },
    );
    let improved_time = result.parallel_time;
    if let Some(set) = &surviving {
        println!(
            "after pruning, {} of {} opinions still hold tokens: {:?}",
            set.len(),
            assignment.k(),
            set
        );
    }
    match result.output {
        Some(op) => println!("improved: consensus on {op} after {improved_time:.0} parallel time"),
        None => println!("improved: no consensus within budget"),
    }

    // --- Algorithm::Unordered on the same input, for the time contrast. ---
    let (proto, states) = Machine::start(Algorithm::Unordered, &assignment, Tuning::default());
    let mut sim = Simulation::new(proto, states, 11);
    let result = sim.run(&RunOptions::with_parallel_time_budget(
        assignment.n(),
        4_000_000.0,
    ));
    match result.output {
        Some(op) => println!(
            "unordered (no pruning): consensus on {op} after {:.0} parallel time ({:.1}x slower)",
            result.parallel_time,
            result.parallel_time / improved_time
        ),
        None => println!("unordered: no consensus within budget"),
    }
}
