//! Thread-count invariance: the bedrock reproducibility contract of the
//! threaded batch engine. Same seed ⇒ byte-identical trajectory at *any*
//! `set_threads` value — full runs, fault records, adversarial runs,
//! churned segment runs, and checkpoints. Thread counts are pure
//! scheduling; if any assertion here fails, parallelism has leaked into
//! the random stream.
//!
//! Populations sit above ~3×10⁶ so batch lengths (ℓ ≈ 0.627·√n) cross
//! the engine's internal parallel cutoff. The adversarial run then takes
//! the pooled path when threads > 1, which it asserts through the
//! engine's path counters. The clean 3-state runs take the lumped path,
//! which draws inline on the main stream at any thread count, except
//! while some occupied state holds fewer than 2ℓ agents (the blanks of
//! the first batches, the losing opinion near consensus), when they take
//! the split, also on the calling thread; their census rebuilds after
//! faults and churn still shard across threads. These tests pin that the
//! thread count stays out of the stream on every path.

use exact_plurality::engine::fault::ByzantineAdversary;
use exact_plurality::engine::{rng, ChurnProcess, ChurnSpec, SegmentRunner};
use exact_plurality::majority::ThreeState;
use exact_plurality::prelude::*;
use std::sync::Arc;

const N: u64 = 4_000_000;
const THREADS: [usize; 3] = [1, 2, 8];

fn init() -> Vec<u64> {
    vec![0, 2 * N / 3, N - 2 * N / 3]
}

/// A run's observable trace: everything `RunResult` carries, flattened
/// through `Debug` so `NaN` recovery times compare equal.
fn trace(r: &RunResult) -> String {
    format!("{r:?}")
}

#[test]
fn full_runs_are_byte_identical_across_thread_counts() {
    let opts = RunOptions::with_parallel_time_budget(N as usize, 4.0);
    let run = |threads: usize| {
        let mut sim = BatchSimulation::new(ThreeState, init(), 7001);
        sim.set_threads(threads);
        let r = sim.run(&opts);
        (trace(&r), sim.counts().to_vec(), sim.rng_state())
    };
    let want = run(1);
    for threads in &THREADS[1..] {
        assert_eq!(run(*threads), want, "threads = {threads}");
    }
}

#[test]
fn faulted_runs_replay_fault_records_at_any_thread_count() {
    let plan = FaultPlan::from_specs(
        &FaultSpec::parse_list("corrupt@1:0.2,churn@2:0.1").expect("specs parse"),
    );
    let opts = RunOptions::with_parallel_time_budget(N as usize, 4.0);
    let run = |threads: usize| {
        let mut sim = BatchSimulation::new(ThreeState, init(), 7002);
        sim.set_threads(threads);
        let r = sim.run_faulted(&opts, &plan);
        assert!(!r.faults.is_empty(), "the plan must actually strike");
        (trace(&r), sim.counts().to_vec(), sim.rng_state())
    };
    let want = run(1);
    for threads in &THREADS[1..] {
        assert_eq!(run(*threads), want, "threads = {threads}");
    }
}

#[test]
fn adversarial_runs_are_thread_count_invariant() {
    let opts = RunOptions::with_parallel_time_budget(N as usize, 3.0);
    let run = |threads: usize| {
        let mut sim = BatchSimulation::new(ThreeState, init(), 7003);
        sim.set_adversary(Arc::new(ByzantineAdversary {
            frac: 0.05,
            opinion: Some(2),
        }));
        sim.set_threads(threads);
        let r = sim.run(&opts);
        let paths = sim.tally_paths();
        assert_eq!(paths.lumped, 0, "an adversary keeps the split: {paths:?}");
        assert_eq!(paths.pooled > 0, threads > 1, "{paths:?}");
        (trace(&r), sim.counts().to_vec(), sim.rng_state())
    };
    let want = run(1);
    for threads in &THREADS[1..] {
        assert_eq!(run(*threads), want, "threads = {threads}");
    }
}

#[test]
fn pairwise_engine_accepts_the_knob_as_a_no_op() {
    // The per-pair reference engine is serial; `set_threads` exists for
    // interface parity and must not perturb its stream.
    let opts = RunOptions::with_parallel_time_budget(100_000, 50.0);
    let run = |threads: usize| {
        let mut sim = PairwiseBatchSimulation::new(ThreeState, vec![0, 60_000, 40_000], 7004);
        sim.set_threads(threads);
        trace(&sim.run(&opts))
    };
    assert_eq!(run(1), run(8));
}

#[test]
fn churned_segment_runs_and_checkpoints_are_identical() {
    let spec: ChurnSpec = "churn:0.002:0.002".parse().expect("churn spec");
    let drive = |threads: usize| {
        let mut runner = SegmentRunner::new(
            BatchSimulation::new(ThreeState, init(), rng::derive(7005, 1)),
            ChurnProcess::new(spec),
            init(),
        );
        runner.set_threads(threads);
        runner.advance_to(4.0);
        (
            runner.checkpoint().to_text(),
            format!("{:?}", runner.series()),
        )
    };
    let want = drive(1);
    for threads in &THREADS[1..] {
        assert_eq!(drive(*threads), want, "threads = {threads}");
    }
}

#[test]
fn a_resume_may_change_the_thread_count_mid_flight() {
    // Kill at t=2 on one thread, resume on eight (and vice versa): the
    // stitched trajectory must match the uninterrupted single-thread
    // run because checkpoints never record scheduling state.
    let spec: ChurnSpec = "churn:0.002:0.002".parse().expect("churn spec");
    let uninterrupted = {
        let mut runner = SegmentRunner::new(
            BatchSimulation::new(ThreeState, init(), rng::derive(7006, 1)),
            ChurnProcess::new(spec),
            init(),
        );
        runner.advance_to(4.0);
        runner.checkpoint().to_text()
    };
    for (first, second) in [(1usize, 8usize), (8, 1)] {
        let mut runner = SegmentRunner::new(
            BatchSimulation::new(ThreeState, init(), rng::derive(7006, 1)),
            ChurnProcess::new(spec),
            init(),
        );
        runner.set_threads(first);
        runner.advance_to(2.0);
        let ck = runner.checkpoint();
        let mut resumed = SegmentRunner::from_checkpoint(&ck, ThreeState, ChurnProcess::new(spec))
            .expect("checkpoint restores");
        resumed.set_threads(second);
        resumed.advance_to(4.0);
        assert_eq!(
            resumed.checkpoint().to_text(),
            uninterrupted,
            "threads {first} -> {second}"
        );
    }
}
