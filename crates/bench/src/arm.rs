//! Engine-erased experiment arms.
//!
//! An *arm* is one protocol-under-test inside a scenario: a paper protocol
//! on the sequential engine, a table protocol on either engine, or a
//! bespoke closure. Each [`Arm`] is a label plus one trial closure that
//! hides the concrete protocol and engine types, so every arm — whichever
//! simulator it needs — honors `--engine`, ensemble threading, census
//! collection and per-trial seed derivation the same way.

use plurality_core::{Algorithm, Tuning};
use pp_engine::{
    AdversarySpec, BatchSimulation, FaultSpec, RunOptions, SchedulerSpec, SeqTable, Simulation,
    TableProtocol,
};
use pp_workloads::Counts;

use crate::harness::Engine;
use crate::protocols::{run_sequential, run_trial, TrialOutcome};

/// Largest population the sequential engine is allowed for table arms
/// (per-agent state at 10⁸ agents is hundreds of megabytes per trial and
/// hours of walltime).
pub const SEQ_CAP: usize = 1_000_000;

/// Everything one trial needs besides the seed and the engine.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    /// The initial opinion distribution.
    pub counts: Counts,
    /// Parallel-time budget.
    pub budget: f64,
    /// Protocol tuning constants.
    pub tuning: Tuning,
    /// Collect the distinct-state census (slower; sequential engine only).
    pub census: bool,
    /// Fault hooks applied during the run (empty = fault-free).
    pub faults: Vec<FaultSpec>,
    /// Interaction scheduler (`None` = uniform hot path).
    pub scheduler: Option<SchedulerSpec>,
    /// Byzantine adversary (`None` = all participants honest).
    pub adversary: Option<AdversarySpec>,
}

impl TrialSpec {
    /// A spec with default tuning, no census and no faults.
    pub fn new(counts: Counts, budget: f64) -> Self {
        Self {
            counts,
            budget,
            tuning: Tuning::default(),
            census: false,
            faults: Vec::new(),
            scheduler: None,
            adversary: None,
        }
    }
}

/// One trial: the spec, the engine `--engine` selected and the seed.
type Trial = dyn Fn(&TrialSpec, Engine, u64) -> TrialOutcome + Send + Sync;

/// An engine-erased experiment arm: a row label and the closure that runs
/// one trial.
pub struct Arm {
    label: String,
    /// A table protocol, which runs on either engine; every other arm runs
    /// sequentially whatever `--engine` says.
    table: bool,
    trial: Box<Trial>,
}

impl Arm {
    fn new(
        label: impl Into<String>,
        table: bool,
        trial: impl Fn(&TrialSpec, Engine, u64) -> TrialOutcome + Send + Sync + 'static,
    ) -> Self {
        Self {
            label: label.into(),
            table,
            trial: Box::new(trial),
        }
    }

    /// Row label ("simple", "usd", "3-state", …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Whether the arm can switch engines (`--engine`). Arms tied to the
    /// per-agent `Protocol` interface always run sequentially.
    pub fn engine_aware(&self) -> bool {
        self.table
    }

    /// Largest population this arm accepts on `engine`, if capped. The
    /// scenario layer skips grid points above the cap (with a note) rather
    /// than melting the machine.
    pub fn max_n(&self, engine: Engine) -> Option<usize> {
        (self.table && engine == Engine::Seq).then_some(SEQ_CAP)
    }

    /// Run one trial.
    pub fn run(&self, spec: &TrialSpec, engine: Engine, seed: u64) -> TrialOutcome {
        (self.trial)(spec, engine, seed)
    }
}

/// One of the paper's plurality protocols as an arm. Runs on the
/// sequential engine (the `Θ(k + log n)`-state machines are not table
/// protocols).
pub fn protocol(algorithm: Algorithm) -> Arm {
    Arm::new(algorithm.name(), false, move |spec, _, seed| {
        run_trial(algorithm, spec, spec.tuning, seed)
    })
}

/// A paper protocol with a fixed tuning and its own label, for arms that
/// compare tuning variants side by side.
pub fn protocol_tuned(label: impl Into<String>, algorithm: Algorithm, tuning: Tuning) -> Arm {
    Arm::new(label, false, move |spec, _, seed| {
        run_trial(algorithm, spec, tuning, seed)
    })
}

/// A table protocol as an engine-erased arm: `factory` builds the table
/// and its initial configuration from the grid point's opinion counts.
/// The arm runs on whichever engine `--engine` selects — batched
/// (multinomial tallies) or sequential via [`pp_engine::SeqTable`]
/// (capped at [`SEQ_CAP`] agents).
///
/// Correctness is judged against the planted plurality, so the table's
/// output values must be opinion identifiers (true for USD and the
/// majority substrates).
pub fn table<P, F>(label: impl Into<String>, factory: F) -> Arm
where
    P: TableProtocol + Send + Sync + 'static,
    F: Fn(&Counts) -> (P, Vec<u64>) + Send + Sync + 'static,
{
    Arm::new(label, true, move |spec, engine, seed| {
        let (table, init) = factory(&spec.counts);
        let expected = u32::from(spec.counts.plurality());
        let (result, census) = match engine {
            Engine::Batch => {
                let n = init.iter().sum::<u64>() as usize;
                let opts = RunOptions::with_parallel_time_budget(n, spec.budget);
                let mut sim = BatchSimulation::new(table, init, seed);
                if let Some(sched) = spec.scheduler {
                    sim.set_scheduler(sched);
                }
                if let Some(adv) = spec.adversary {
                    sim.set_adversary(adv);
                }
                (sim.run_faulted(&opts, &spec.faults), None)
            }
            Engine::Seq => {
                let states = SeqTable::<P>::initial_states(&init);
                let mut sim = Simulation::new(SeqTable::new(table), states, seed);
                run_sequential(&mut sim, spec)
            }
        };
        TrialOutcome::of(result, expected, census)
    })
}

/// The undecided-state-dynamics baseline as an engine-erased arm.
pub fn usd() -> Arm {
    table("usd", |counts: &Counts| {
        let t = pp_baselines::UsdTable::new(counts.k());
        let init = t.initial_counts(counts.supports());
        (t, init)
    })
}

/// A bespoke sequential arm from a closure, for protocols outside both the
/// [`Algorithm`] set and the table interface (e.g. the cancel/split majority).
pub fn from_fn<F>(label: impl Into<String>, f: F) -> Arm
where
    F: Fn(&TrialSpec, u64) -> TrialOutcome + Send + Sync + 'static,
{
    Arm::new(label, false, move |spec, _, seed| f(spec, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usd_arm_agrees_across_both_engines() {
        let spec = TrialSpec::new(Counts::bias_one(801, 3), 1.0e4);
        let arm = usd();
        assert!(arm.engine_aware());
        for engine in [Engine::Seq, Engine::Batch] {
            let out = arm.run(&spec, engine, 11);
            assert!(out.converged, "usd did not converge on {}", engine.name());
        }
        assert_eq!(arm.max_n(Engine::Seq), Some(SEQ_CAP));
        assert_eq!(arm.max_n(Engine::Batch), None);
    }

    #[test]
    fn protocol_arm_runs_and_ignores_engine() {
        let spec = TrialSpec::new(Counts::bias_one(401, 3), 5.0e5);
        let arm = protocol(Algorithm::Simple);
        assert!(!arm.engine_aware());
        let out = arm.run(&spec, Engine::Batch, 7);
        assert!(out.converged);
    }

    #[test]
    fn table_arm_census_counts_occupied_states_on_seq() {
        let mut spec = TrialSpec::new(Counts::bias_one(401, 3), 1.0e4);
        spec.census = true;
        let out = usd().run(&spec, Engine::Seq, 5);
        // USD over k = 3 occupies at most 4 states (blank + opinions).
        let states = out.census.expect("census requested on seq");
        assert!((2..=4).contains(&states), "states = {states}");
        // Batched engines cannot collect a per-agent census.
        assert!(usd().run(&spec, Engine::Batch, 5).census.is_none());
    }
}
