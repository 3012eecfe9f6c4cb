//! The run driver both engines share.
//!
//! A clean or faulted run has the same shape on the sequential and the
//! batched engine: advance, check the output predicate, strike between
//! advances, keep the parallel clock, and assemble a [`RunResult`]. This
//! module writes that shape once, generic over [`Engine`], which each
//! engine implements with only its own steps. Dispatch is static, so
//! every run is monomorphic, and the per-interaction and per-batch hot
//! loops stay inside each engine's [`Engine::advance`]. Steady-state
//! churn runs on the batched engine alone, in
//! [`BatchSimulation::run_churned`](crate::BatchSimulation::run_churned).
//!
//! Runs only cut at natural stride or batch boundaries (a fault's target
//! time caps an advance; a churned run's stop time never does), which is
//! what keeps checkpointed and uninterrupted runs on the same RNG
//! trajectory.

use std::borrow::Borrow;

use crate::fault::{FaultRecord, FaultSpec};
use crate::result::{RunNote, RunOptions, RunResult, RunStatus};

/// The parallel clock: interactions divided by the population size,
/// folded over population changes (churn, admissions) so it stays
/// continuous.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Clock {
    /// Interactions executed so far.
    pub(crate) interactions: u64,
    /// Interactions already folded into `time_base`.
    interactions_base: u64,
    /// Parallel time accumulated before `interactions_base` — non-zero
    /// only after the population size changed.
    time_base: f64,
}

impl Clock {
    /// A clock restored from its checkpoint triple.
    pub(crate) fn restored(interactions: u64, interactions_base: u64, time_base: f64) -> Self {
        Self {
            interactions,
            interactions_base,
            time_base,
        }
    }

    /// The checkpoint triple: `(interactions, interactions_base,
    /// time_base)`.
    pub(crate) fn parts(&self) -> (u64, u64, f64) {
        (self.interactions, self.interactions_base, self.time_base)
    }

    /// Parallel time over a population of `n` agents.
    pub(crate) fn parallel_time(&self, n: u64) -> f64 {
        self.time_base + (self.interactions - self.interactions_base) as f64 / n as f64
    }

    /// Fold the elapsed time into `time_base`; must be called *before*
    /// the population size changes away from `n`.
    pub(crate) fn fold(&mut self, n: u64) {
        self.time_base = self.parallel_time(n);
        self.interactions_base = self.interactions;
    }
}

/// What the driver needs from an engine: its own steps, nothing shared.
pub(crate) trait Engine {
    /// The configuration rejoining agents return to: per-agent states on
    /// the sequential engine, per-state counts on the batched one.
    type Config: ?Sized + ToOwned;

    fn clock(&self) -> &Clock;

    fn population(&self) -> u64;

    /// The live configuration.
    fn config(&self) -> &Self::Config;

    /// Advance one convergence-check stride (sequential) or one batch
    /// (batched) of at most `cap` interactions; returns how many ran.
    fn advance(&mut self, opts: &RunOptions, cap: u64) -> u64;

    /// The output predicate on the live configuration.
    fn output(&self) -> Option<u32>;

    /// Apply `fault`'s strike; `initial` is the configuration at the
    /// start of the run, which rejoining agents return to.
    fn strike(&mut self, initial: &Self::Config, fault: FaultSpec);

    fn scheduler_saturated(&self) -> bool;
}

fn parallel_time<E: Engine>(e: &E) -> f64 {
    e.clock().parallel_time(e.population())
}

/// Run until the output predicate fires or the budget is exhausted,
/// calling `observe` before every check.
pub(crate) fn run<E: Engine>(
    e: &mut E,
    opts: &RunOptions,
    mut observe: impl FnMut(&E),
) -> RunResult {
    loop {
        observe(e);
        if let Some(output) = e.output() {
            return finish(e, RunStatus::Converged, Some(output));
        }
        let done = e.clock().interactions;
        if done >= opts.max_interactions {
            return finish(e, RunStatus::Exhausted, None);
        }
        e.advance(opts, opts.max_interactions - done);
    }
}

/// [`Simulation::run_faulted`](crate::Simulation::run_faulted) for both
/// engines. Faults fire in time order whatever their order in the list;
/// the advance straddling one is cut to land exactly on it, and one
/// scheduled beyond the budget never fires.
pub(crate) fn run_faulted<E: Engine>(
    e: &mut E,
    opts: &RunOptions,
    faults: &[FaultSpec],
) -> RunResult {
    if faults.is_empty() {
        return run(e, opts, |_| {});
    }
    let mut schedule = faults.to_vec();
    schedule.sort_by(|a, b| a.at().partial_cmp(&b.at()).expect("finite fault times"));
    let n = e.population() as f64;
    let initial = e.config().to_owned();
    let mut records: Vec<FaultRecord> = Vec::new();
    // Whether the last record still waits for a reconvergence.
    let mut open = false;

    for fault in schedule {
        let target = (fault.at().max(0.0) * n).ceil() as u64;
        if target > opts.max_interactions {
            break;
        }
        while e.clock().interactions < target {
            if open {
                if let Some(output) = e.output() {
                    last(&mut records).reconverged(parallel_time(e), output);
                    open = false;
                }
            }
            e.advance(opts, target - e.clock().interactions);
        }
        let output_before = e.output();
        if let (true, Some(output)) = (open, output_before) {
            last(&mut records).reconverged(parallel_time(e), output);
        }
        e.strike(initial.borrow(), fault);
        records.push(FaultRecord {
            at: parallel_time(e),
            hook: fault.to_string(),
            output_before,
            output_after: None,
            recovery_time: f64::NAN,
        });
        open = true;
    }

    let mut r = run(e, opts, |_| {});
    if let (true, Some(output)) = (open, r.output) {
        last(&mut records).reconverged(r.parallel_time, output);
    }
    r.faults = records;
    r
}

fn last(records: &mut [FaultRecord]) -> &mut FaultRecord {
    records.last_mut().expect("an open record exists")
}

/// The run's result at the current clock, with no fault records or
/// series attached.
pub(crate) fn finish<E: Engine>(e: &E, status: RunStatus, output: Option<u32>) -> RunResult {
    RunResult {
        status,
        output,
        interactions: e.clock().interactions,
        parallel_time: parallel_time(e),
        faults: Vec::new(),
        series: Vec::new(),
        notes: if e.scheduler_saturated() {
            vec![RunNote::SchedulerSaturated]
        } else {
            Vec::new()
        },
    }
}

#[cfg(test)]
mod tests {
    use crate::batch::sim::tests::Am3;
    use crate::batch::BatchSimulation;
    use crate::fault::FaultSpec;
    use crate::result::RunOptions;

    #[test]
    fn faults_fire_in_time_order_and_never_past_the_budget() {
        let faults = FaultSpec::parse_list("churn@30:0.1,corrupt@900:0.5,corrupt@10:0.2")
            .expect("faults parse");
        let opts = RunOptions::with_parallel_time_budget(1_000, 500.0);
        let mut sim = BatchSimulation::new(Am3, vec![0, 600, 400], 1);
        let r = sim.run_faulted(&opts, &faults);
        let fired: Vec<(f64, &str)> = r.faults.iter().map(|f| (f.at, f.hook.as_str())).collect();
        assert_eq!(fired, [(10.0, "corrupt@10:0.2"), (30.0, "churn@30:0.1")]);
    }
}
