//! X11 — Leader election: uniqueness w.h.p. and `O(log² n)` time.
//!
//! Measures, per population size: the fraction of runs electing exactly
//! one leader, the median completion time, and the ratio time/log² n
//! (stable ratio = the Theorem 1(2) substitution bound holds).

use std::io;

use pp_engine::{RunOptions, RunStatus, SimRng, Simulation};
use pp_leader::LeaderElectionRun;
use pp_workloads::Workload;
use rand::SeedableRng;

use crate::arm::{self, TrialSpec};
use crate::protocols::TrialOutcome;
use crate::scenario::{col, Ctx, GridPoint, Scenario, Study};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x11",
    slug: "x11_leader",
    about: "Leader election: unique leader w.h.p. in O(log² n) parallel time",
    outputs: &["x11_leader"],
    // The leader-election arm hands no fault, scheduler or adversary to its engine.
    flags: &[],
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let sizes: Vec<usize> = if ctx.full() {
        vec![1000, 2000, 4000, 8000, 16000, 32000]
    } else {
        vec![1000, 4000, 16000]
    };

    let leader = arm::from_fn("leader", |spec: &TrialSpec, seed| {
        let n = spec.counts.n();
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5eed);
        let (proto, states) = LeaderElectionRun::new(n, 4, &mut rng);
        let mut sim = Simulation::new(proto, states, seed);
        let r = sim.run(&RunOptions::with_parallel_time_budget(n, spec.budget));
        TrialOutcome {
            converged: r.status == RunStatus::Converged,
            correct: r.status == RunStatus::Converged && r.output == Some(1),
            parallel_time: r.parallel_time,
            init_end: None,
            le_done: None,
            census: None,
            faults: r.faults,
        }
    });

    Study::new(
        "X11: leader election (junta-clock coin lottery)",
        "x11_leader",
    )
    .points(
        sizes
            .into_iter()
            .map(|n| GridPoint::new(Workload::BiasOne { n, k: 2 }, 500_000.0)),
    )
    .arm(leader)
    .cols(vec![
        col::n(),
        col::derived("unique", |r| format!("{}/{}", r.ok(), r.trials())),
        col::trials(),
        col::median_all("median time", 0),
        col::derived("time/log2²n", |r| {
            let log2n = (r.n() as f64).log2();
            format!("{:.2}", r.median_all() / (log2n * log2n))
        }),
    ])
    .run(ctx)?;

    println!("Read: exactly one leader in (nearly) every run; time/log²n is ~constant.");
    Ok(())
}
