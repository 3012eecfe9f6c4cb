//! Uniform driver for the three plurality protocols (and shared outcome
//! bookkeeping). Engine-erased arms — including the USD baseline — live
//! in [`crate::arm`].

use plurality_core::{Algorithm, Machine, Tuning};
use pp_engine::{Census, FaultRecord, Protocol, RunOptions, RunResult, RunStatus, Simulation};

use crate::arm::TrialSpec;

/// Outcome of a single trial.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// The run converged (someone won and everyone agreed).
    pub converged: bool,
    /// The run converged *to the planted plurality*.
    pub correct: bool,
    /// Parallel time consumed (budget, if exhausted).
    pub parallel_time: f64,
    /// Interaction index at which the initialization ended, if recorded.
    pub init_end: Option<u64>,
    /// Interaction index of the leader/defender release, if recorded.
    pub le_done: Option<u64>,
    /// Distinct states visited (only when census tracking was requested).
    pub census: Option<usize>,
    /// Per-fault-epoch recovery bookkeeping (empty without a fault plan).
    pub faults: Vec<FaultRecord>,
}

impl TrialOutcome {
    /// The outcome of `result` against the planted plurality `expected`,
    /// with no milestones recorded.
    pub(crate) fn of(result: RunResult, expected: u32, census: Option<usize>) -> Self {
        Self {
            converged: result.status == RunStatus::Converged,
            correct: result.is_correct(expected),
            parallel_time: result.parallel_time,
            init_end: None,
            le_done: None,
            census,
            faults: result.faults,
        }
    }
}

/// Upper median of the parallel times over *all* trials (budget-capped
/// included) — the convention the experiment tables use for mixed
/// converged/exhausted samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median_parallel_time(outcomes: &[TrialOutcome]) -> f64 {
    let mut t: Vec<f64> = outcomes.iter().map(|o| o.parallel_time).collect();
    t.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    t[t.len() / 2]
}

/// Run one trial of `algorithm` on the spec's counts with the given seed
/// and tuning. Honors the spec's fault plan, scheduler and adversary;
/// census collection (slower) takes precedence over fault injection when
/// both are requested.
pub fn run_trial(
    algorithm: Algorithm,
    spec: &TrialSpec,
    tuning: Tuning,
    seed: u64,
) -> TrialOutcome {
    let assignment = spec.counts.assignment();
    let (machine, states) = Machine::start(algorithm, &assignment, tuning);
    let mut sim = Simulation::new(machine, states, seed);
    let (result, census) = run_sequential(&mut sim, spec);
    let ms = sim.protocol().milestones;
    TrialOutcome {
        init_end: ms.init_end,
        le_done: ms.le_done,
        ..TrialOutcome::of(result, assignment.plurality(), census)
    }
}

/// Run a sequential trial under the spec's budget, scheduler and
/// adversary: with a census when the spec asks for one (census collection,
/// which is slower, takes precedence over fault injection), else under the
/// spec's fault plan. Returns the result and the census size.
pub(crate) fn run_sequential<P: Protocol>(
    sim: &mut Simulation<P>,
    spec: &TrialSpec,
) -> (RunResult, Option<usize>) {
    let opts = RunOptions::with_parallel_time_budget(sim.n(), spec.budget);
    if let Some(sched) = spec.scheduler {
        sim.set_scheduler(sched);
    }
    if let Some(adv) = spec.adversary {
        sim.set_adversary(adv);
    }
    if spec.census {
        let mut c = Census::new();
        let r = sim.run_with_census(&opts, &mut c);
        (r, Some(c.len()))
    } else {
        (sim.run_faulted(&opts, &spec.faults), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_workloads::Counts;

    #[test]
    fn all_three_protocols_drive() {
        let spec = TrialSpec::new(Counts::bias_one(401, 3), 500_000.0);
        for algorithm in [Algorithm::Simple, Algorithm::Unordered, Algorithm::Improved] {
            let out = run_trial(algorithm, &spec, Tuning::default(), 7);
            assert!(out.converged, "{} did not converge", algorithm.name());
            assert!(out.faults.is_empty(), "no plan, no fault records");
        }
    }

    #[test]
    fn census_is_collected_when_requested() {
        let mut spec = TrialSpec::new(Counts::bias_one(401, 3), 500_000.0);
        spec.census = true;
        let out = run_trial(Algorithm::Simple, &spec, Tuning::default(), 3);
        let states = out.census.expect("census requested");
        assert!(states > 10, "suspiciously few states: {states}");
    }
}
