//! Run outcomes and options.

use crate::fault::FaultRecord;

/// How a simulation run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunStatus {
    /// The convergence predicate fired.
    Converged,
    /// The interaction budget was exhausted first.
    Exhausted,
}

/// One sample of a run's health under steady-state churn, taken every
/// [`ChurnProcess::sample_every`](crate::ChurnProcess) units of parallel
/// time by the engines' `run_churned` methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSample {
    /// Parallel time of the sample.
    pub t: f64,
    /// Population size at the sample (churn makes it drift).
    pub population: u64,
    /// Fraction of agents currently advocating the true plurality opinion.
    pub plurality_frac: f64,
    /// Converged output at the sample, if the predicate currently fires.
    pub output: Option<u32>,
}

/// An out-of-band observation attached to a run — conditions worth
/// surfacing that are neither a status nor a fault record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunNote {
    /// A biased scheduler saturated: every candidate was vetoed (e.g. the
    /// starved opinion was the only one left at weight 0), so pair
    /// selection degraded to uniform instead of spinning the retry bound.
    SchedulerSaturated,
}

/// The outcome of a [`crate::Simulation::run`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether the run converged or ran out of budget.
    pub status: RunStatus,
    /// Output reported by the convergence predicate, if any.
    pub output: Option<u32>,
    /// Total interactions executed.
    pub interactions: u64,
    /// Interactions divided by the population size.
    pub parallel_time: f64,
    /// Recovery bookkeeping for every fault that fired, in firing order.
    /// Empty for clean (`run`) and fault-free `run_faulted` runs.
    pub faults: Vec<FaultRecord>,
    /// Time series sampled by `run_churned`, in time order. Empty for
    /// non-churned runs.
    pub series: Vec<ChurnSample>,
    /// Out-of-band observations (e.g. scheduler saturation). Empty for
    /// clean runs.
    pub notes: Vec<RunNote>,
}

impl RunResult {
    /// `true` iff the run converged to `expected`.
    pub fn is_correct(&self, expected: u32) -> bool {
        self.status == RunStatus::Converged && self.output == Some(expected)
    }

    /// Fraction of churn samples at which the convergence predicate fired
    /// — the "time in consensus" a soak run reports. `NaN` when the run
    /// has no series.
    pub fn time_in_consensus(&self) -> f64 {
        time_in_consensus(&self.series)
    }
}

/// Fraction of churn samples at which the convergence predicate fired —
/// the series-level form of [`RunResult::time_in_consensus`], for soaks
/// that stitch series across checkpoint segments. `NaN` on an empty
/// series.
pub fn time_in_consensus(series: &[ChurnSample]) -> f64 {
    let hits = series.iter().filter(|s| s.output.is_some()).count();
    hits as f64 / series.len() as f64
}

/// Options controlling a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Hard cap on interactions. Defaults to `u64::MAX` scaled down by the
    /// caller; experiments always set an explicit budget.
    pub max_interactions: u64,
    /// How often (in interactions) the convergence predicate is evaluated.
    /// `0` means "every n interactions" (one parallel time unit).
    pub check_every: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            max_interactions: u64::MAX,
            check_every: 0,
        }
    }
}

impl RunOptions {
    /// Budget expressed in parallel time for a population of `n` agents.
    pub fn with_parallel_time_budget(n: usize, parallel_time: f64) -> Self {
        Self {
            max_interactions: (n as f64 * parallel_time).ceil() as u64,
            check_every: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_in_parallel_time() {
        let opts = RunOptions::with_parallel_time_budget(100, 2.5);
        assert_eq!(opts.max_interactions, 250);
    }

    #[test]
    fn correctness_requires_convergence() {
        let r = RunResult {
            status: RunStatus::Exhausted,
            output: Some(1),
            interactions: 10,
            parallel_time: 1.0,
            faults: Vec::new(),
            series: Vec::new(),
            notes: Vec::new(),
        };
        assert!(!r.is_correct(1));
        let r = RunResult {
            status: RunStatus::Converged,
            ..r
        };
        assert!(r.is_correct(1));
        assert!(!r.is_correct(2));
    }

    #[test]
    fn time_in_consensus_counts_converged_samples() {
        let sample = |t: f64, output: Option<u32>| ChurnSample {
            t,
            population: 100,
            plurality_frac: 0.5,
            output,
        };
        let r = RunResult {
            status: RunStatus::Exhausted,
            output: None,
            interactions: 400,
            parallel_time: 4.0,
            faults: Vec::new(),
            series: vec![
                sample(1.0, None),
                sample(2.0, Some(1)),
                sample(3.0, Some(1)),
                sample(4.0, None),
            ],
            notes: Vec::new(),
        };
        assert_eq!(r.time_in_consensus(), 0.5);
        let empty = RunResult {
            series: Vec::new(),
            ..r
        };
        assert!(empty.time_in_consensus().is_nan());
    }
}
