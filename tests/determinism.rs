//! Reproducibility: a fixed seed yields an identical trajectory, and
//! different seeds decorrelate. The contract extends to the fault layer:
//! a fixed seed plus a fixed fault list (and scheduler) replays the
//! strikes, the recovery bookkeeping, and the final configuration
//! identically on both engines.

use exact_plurality::majority::ThreeState;
use exact_plurality::prelude::*;

fn run_simple(seed: u64) -> (Option<u32>, u64) {
    let counts = Counts::bias_one(601, 3);
    let assignment = counts.assignment();
    let (proto, states) = Machine::start(Algorithm::Simple, &assignment, Tuning::default());
    let mut sim = Simulation::new(proto, states, seed);
    let r = sim.run(&RunOptions::with_parallel_time_budget(601, 500_000.0));
    (r.output, r.interactions)
}

#[test]
fn same_seed_same_run() {
    let a = run_simple(12345);
    let b = run_simple(12345);
    assert_eq!(a, b, "identical seeds must replay identically");
}

#[test]
fn different_seeds_differ_in_timing() {
    let (_, t1) = run_simple(1);
    let (_, t2) = run_simple(2);
    assert_ne!(
        t1, t2,
        "distinct seeds should not produce identical interaction counts"
    );
}

/// A run's observable trace, with fault records flattened through `Debug`
/// so `NaN` recovery times (never-recovered epochs) compare equal instead
/// of poisoning `==`.
fn trace(r: &RunResult) -> (Option<u32>, u64, String) {
    (r.output, r.interactions, format!("{:?}", r.faults))
}

#[test]
fn faulted_batch_runs_replay_identically() {
    let faults = FaultSpec::parse_list("corrupt@20:0.2,churn@40:0.1").expect("specs parse");
    let opts = RunOptions::with_parallel_time_budget(1000, 5_000.0);
    let run = |seed: u64| {
        let mut sim = BatchSimulation::new(ThreeState, vec![0, 600, 400], seed);
        trace(&sim.run_faulted(&opts, &faults))
    };
    assert_eq!(run(9), run(9), "same seed + same faults must replay");
    assert_ne!(run(9).1, run(10).1, "distinct seeds must decorrelate");
}

#[test]
fn scheduled_sequential_runs_replay_identically() {
    let faults = FaultSpec::parse_list("inject@30:0.2:2").expect("spec parses");
    let sched: SchedulerSpec = "pairbias:0.3".parse().expect("scheduler parses");
    let opts = RunOptions::with_parallel_time_budget(1000, 5_000.0);
    let init = vec![0u64, 600, 400];
    let run = |seed: u64| {
        let states = SeqTable::<ThreeState>::initial_states(&init);
        let mut sim = Simulation::new(SeqTable::new(ThreeState), states, seed);
        sim.set_scheduler(sched);
        trace(&sim.run_faulted(&opts, &faults))
    };
    assert_eq!(run(5), run(5));
}

#[test]
fn empty_fault_plan_replays_the_unfaulted_run() {
    // `run_faulted` with no faults, and the uniform scheduler, must be
    // RNG-identical to a plain `run` — the fault layer may not perturb
    // existing experiment trajectories.
    let opts = RunOptions::with_parallel_time_budget(1000, 5_000.0);
    let init = vec![0u64, 600, 400];

    let mut plain = BatchSimulation::new(ThreeState, init.clone(), 11);
    let rp = plain.run(&opts);
    let mut faulted = BatchSimulation::new(ThreeState, init.clone(), 11);
    let rf = faulted.run_faulted(&opts, &[]);
    let mut uniform = BatchSimulation::new(ThreeState, init.clone(), 11);
    uniform.set_scheduler(SchedulerSpec::Uniform);
    let ru = uniform.run(&opts);
    let want = (trace(&rp), plain.rng_state());
    assert_eq!((trace(&rf), faulted.rng_state()), want, "batch, no faults");
    assert_eq!((trace(&ru), uniform.rng_state()), want, "batch, uniform");

    let states = SeqTable::<ThreeState>::initial_states(&init);
    let mut plain = Simulation::new(SeqTable::new(ThreeState), states.clone(), 11);
    let rp = plain.run(&opts);
    let mut faulted = Simulation::new(SeqTable::new(ThreeState), states.clone(), 11);
    let rf = faulted.run_faulted(&opts, &[]);
    let mut uniform = Simulation::new(SeqTable::new(ThreeState), states, 11);
    uniform.set_scheduler(SchedulerSpec::Uniform);
    let ru = uniform.run(&opts);
    let want = (trace(&rp), plain.rng_state());
    assert_eq!((trace(&rf), faulted.rng_state()), want, "seq, no faults");
    assert_eq!((trace(&ru), uniform.rng_state()), want, "seq, uniform");
}

#[test]
fn improved_replays_identically() {
    let counts = Counts::one_large(1000, 9, 400);
    let assignment = counts.assignment();
    let run = |seed: u64| {
        let (proto, states) = Machine::start(Algorithm::Improved, &assignment, Tuning::default());
        let mut sim = Simulation::new(proto, states, seed);
        let r = sim.run(&RunOptions::with_parallel_time_budget(1000, 800_000.0));
        (r.output, r.interactions, sim.protocol().milestones)
    };
    assert_eq!(run(777), run(777));
}
