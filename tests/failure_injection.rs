//! Failure injection: deliberately under-provisioned constants and
//! deliberately hostile runtime conditions (state corruption, churn,
//! adversarial schedulers) must degrade *gracefully* — wrong outputs or
//! exhausted budgets are acceptable, panics, livelocks past the budget, or
//! corrupted convergence (mixed winner reports) are not. The fault-layer
//! tests cover both engines.

use exact_plurality::majority::ThreeState;
use exact_plurality::prelude::*;

fn drive(tuning: Tuning, seed: u64) -> RunResult {
    let counts = Counts::bias_one(401, 3);
    let assignment = counts.assignment();
    let (proto, states) = SimpleAlgorithm::new(&assignment, tuning);
    let mut sim = Simulation::new(proto, states, seed);
    sim.run(&RunOptions::with_parallel_time_budget(
        assignment.n(),
        50_000.0,
    ))
}

#[test]
fn skimpy_constants_never_panic() {
    for seed in 0..5 {
        let r = drive(Tuning::skimpy(), seed);
        // Either outcome is legal; the protocol must simply terminate the
        // simulation loop cleanly.
        assert!(r.interactions > 0);
        if r.status == RunStatus::Converged {
            assert!(r.output.is_some());
        }
    }
}

#[test]
fn tiny_match_window_degrades_not_explodes() {
    let tuning = Tuning {
        match_window: 1,
        match_tail_windows: 0,
        ..Tuning::default()
    };
    let mut correct = 0;
    for seed in 0..20 {
        let r = drive(tuning, seed);
        correct += usize::from(r.is_correct(1));
    }
    // Recorded baseline: 15/20 correct (seeds 0..20, n = 401, k = 3). The
    // band is ±3σ of Binomial(20, 0.75): a crippled match window must
    // leave the protocol degraded-but-functional — a drop below half
    // correct means the tournament broke, a perfect score means the
    // window stopped mattering and the test lost its teeth.
    assert!(
        (9..20).contains(&correct),
        "window=1 correctness {correct}/20 outside the recorded band [9, 19]"
    );
}

#[test]
fn unordered_with_skimpy_leader_patience_terminates() {
    let tuning = Tuning {
        leader_wait_factor: 0.5,
        ..Tuning::default()
    };
    let counts = Counts::bias_one(401, 3);
    let assignment = counts.assignment();
    for seed in 0..3 {
        let (proto, states) = UnorderedAlgorithm::new(&assignment, tuning);
        let mut sim = Simulation::new(proto, states, seed);
        let r = sim.run(&RunOptions::with_parallel_time_budget(
            assignment.n(),
            100_000.0,
        ));
        assert!(r.interactions > 0);
        // With an impatient leader, `fin` may fire before any tournament:
        // the output is then whatever defender existed — wrong but clean.
        if r.status == RunStatus::Converged {
            assert!(r.output.is_some());
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-layer injection: the same "degrade, never panic" contract on both
// engines, under a hostile plan (half the population corrupted, then
// churned, then swamped with minority supporters) and an adversarial
// scheduler on top (both schedulers on the batched engine).

fn hostile_plan() -> Vec<FaultSpec> {
    FaultSpec::parse_list("corrupt@5:0.5,churn@10:0.5,inject@15:0.9:2").expect("specs parse")
}

fn assert_degrades_cleanly(r: &RunResult) {
    assert!(r.interactions > 0);
    assert_eq!(r.faults.len(), 3, "every scheduled hook fired");
    if r.status == RunStatus::Converged {
        assert!(r.output.is_some());
    }
    for f in &r.faults {
        // Recovery bookkeeping stays internally consistent even when the
        // strike prevents reconvergence.
        assert_eq!(f.recovered(), f.output_after.is_some());
    }
}

#[test]
fn hostile_faults_degrade_never_panic_on_batch_engine() {
    let opts = RunOptions::with_parallel_time_budget(1000, 5_000.0);
    for sched in ["starve:1:0.25", "pairbias:0.5"] {
        let mut sim = BatchSimulation::new(ThreeState, vec![0, 700, 300], 3);
        sim.set_scheduler(sched.parse().expect("scheduler parses"));
        assert_degrades_cleanly(&sim.run_faulted(&opts, &hostile_plan()));
    }
}

/// A NaN participation weight is a malformed spec: the CLI refuses it, but
/// the fields are public. The batched engine's weighted tally hands it to
/// the binomial sampler, which must refuse it by name instead of looping
/// forever (debug builds stop one step earlier, at the NaN total weight).
#[test]
#[should_panic(expected = "NaN")]
fn nan_scheduler_weight_panics_instead_of_hanging_on_batch_engine() {
    let mut sim = BatchSimulation::new(ThreeState, vec![0, 6_000, 4_000], 3);
    sim.set_scheduler(SchedulerSpec::Starve {
        opinion: 1,
        weight: f64::NAN,
    });
    sim.run(&RunOptions::with_parallel_time_budget(10_000, 20.0));
}

#[test]
fn hostile_faults_degrade_never_panic_on_sequential_table_engine() {
    let sched: SchedulerSpec = "starve:2:0.5".parse().expect("scheduler parses");
    let opts = RunOptions::with_parallel_time_budget(1000, 5_000.0);
    let init = vec![0u64, 700, 300];
    let states = SeqTable::<ThreeState>::initial_states(&init);
    let mut sim = Simulation::new(SeqTable::new(ThreeState), states, 3);
    sim.set_scheduler(sched);
    assert_degrades_cleanly(&sim.run_faulted(&opts, &hostile_plan()));
}

#[test]
fn corrupting_a_paper_protocol_mid_run_terminates_cleanly() {
    let counts = Counts::bias_one(401, 3);
    let assignment = counts.assignment();
    let faults = FaultSpec::parse_list("corrupt@100:0.3").expect("spec parses");
    for seed in 0..3 {
        let (proto, states) = SimpleAlgorithm::new(&assignment, Tuning::default());
        let mut sim = Simulation::new(proto, states, seed);
        let r = sim.run_faulted(
            &RunOptions::with_parallel_time_budget(assignment.n(), 50_000.0),
            &faults,
        );
        assert!(r.interactions > 0);
        assert_eq!(r.faults.len(), 1, "seed {seed}");
        if r.status == RunStatus::Converged {
            assert!(r.output.is_some());
        }
    }
}

#[test]
fn improved_without_dominant_plurality_still_behaves() {
    // Theorem 2 assumes x_max > n^(1/2+ε); violate it (all opinions tiny
    // and equal-ish) and check for clean termination.
    let counts = Counts::bias_one(600, 20); // x_max = 31 ≈ n^0.54, marginal
    let assignment = counts.assignment();
    for seed in 0..2 {
        let (proto, states) = ImprovedAlgorithm::new(&assignment, Tuning::default());
        let mut sim = Simulation::new(proto, states, seed);
        let r = sim.run(&RunOptions::with_parallel_time_budget(
            assignment.n(),
            200_000.0,
        ));
        assert!(r.interactions > 0);
    }
}
