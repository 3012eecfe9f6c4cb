//! Sensor swarm fault diagnosis — the unordered variant.
//!
//! A swarm of 1200 disposable sensors each observed one of six *fault
//! signatures*. Signatures are opaque hashes: there is no global numbering
//! the agents could agree on, so `Algorithm::Simple`'s ordered tournament
//! schedule is unavailable — exactly the situation Appendix B addresses.
//! `Algorithm::Unordered` elects a leader among the tracker agents that
//! samples each tournament's challenger, and still returns the *exact*
//! most frequent signature even though the top two counts differ by one.
//!
//! Run with: `cargo run --release --example sensor_swarm`

use exact_plurality::prelude::*;

fn main() {
    // Six fault signatures; the two most frequent differ by a single
    // sensor: any sampling/approximate scheme is a coin flip here.
    let counts = Counts::from_supports(vec![281, 280, 200, 170, 150, 119]);
    let assignment = counts.assignment();
    println!(
        "swarm: {} sensors, {} fault signatures, supports {:?}",
        assignment.n(),
        assignment.k(),
        assignment.counts().supports()
    );

    let (protocol, states) = Machine::start(Algorithm::Unordered, &assignment, Tuning::default());
    let mut sim = Simulation::new(protocol, states, 7);
    let result = sim.run(&RunOptions::with_parallel_time_budget(
        assignment.n(),
        2_000_000.0,
    ));

    let n = assignment.n() as f64;
    let ms = sim.protocol().milestones;
    println!(
        "timeline (parallel time): init {:.0} -> leader+defender {:.0} -> finished {:.0}",
        ms.init_end.map(|t| t as f64 / n).unwrap_or(f64::NAN),
        ms.le_done.map(|t| t as f64 / n).unwrap_or(f64::NAN),
        ms.fin.map(|t| t as f64 / n).unwrap_or(f64::NAN),
    );
    match result.output {
        Some(sig) if sig == assignment.plurality() => {
            println!("diagnosis: signature {sig} — correct despite the one-sensor margin")
        }
        Some(sig) => println!("diagnosis: signature {sig} — a w.h.p. failure run"),
        None => println!("no diagnosis within budget"),
    }
}
