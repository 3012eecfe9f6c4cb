//! Declarative scenario API.
//!
//! A [`Scenario`] is a registered experiment: a name, a one-line
//! description, a declared output schema (the CSV basenames it emits), the
//! run flags it honors and a run function. Scenario bodies receive a
//! [`Ctx`] giving them the parsed CLI options, uniform arm execution
//! ([`Ctx::run_arm`], which applies `--faults`, `--scheduler` and
//! `--adversary`) and result emission ([`Ctx::emit`] → CSV + manifest).
//!
//! Grid-shaped experiments don't write loops at all: a [`Study`] describes
//! a grid of [`GridPoint`]s (a labelled [`TrialSpec`]: counts, budget,
//! tuning and run knobs), a list of
//! engine-erased [`Arm`]s and an output schema as [`ColSpec`] columns, and
//! [`Study::run`] executes the cross product — honoring `--engine`,
//! per-arm population caps, ensemble threading and seed derivation — then
//! emits the table and returns the raw per-point outcomes for bespoke
//! post-processing (fits, cross-arm ratios).
//!
//! Adding a new experiment is: write a `scenarios/xNN.rs` with a `Study`
//! (typically < 20 lines), register it in `registry.rs`, done — it is
//! immediately runnable as `xp run xNN` with manifests, engine A/B and
//! threading for free.

use std::io;

use plurality_core::Tuning;
use pp_engine::{AdversarySpec, FaultSpec, SchedulerSpec};
use pp_stats::{Summary, Table};
use pp_workloads::Counts;

use crate::arm::{Arm, TrialSpec};
use crate::harness::{Engine, ExpOpts};
use crate::protocols::TrialOutcome;
use crate::sink::Sink;

/// A run flag that only some scenarios honor. A scenario lists the ones
/// it honors in [`Scenario::flags`]; the registry refuses every other one
/// that is set before the scenario's first trial, so a manifest never
/// records a flag its run ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunFlag {
    /// `--engine seq`, the only non-default engine: a scenario that lists
    /// it runs table arms, the only arms the engine choice switches.
    Engine,
    /// `--faults`.
    Faults,
    /// `--scheduler`.
    Scheduler,
    /// `--adversary`.
    Adversary,
    /// `--churn`.
    Churn,
    /// `--checkpoint-every`.
    CheckpointEvery,
    /// `--resume`.
    Resume,
}

impl RunFlag {
    /// Every flag, in CLI order.
    pub const ALL: [RunFlag; 7] = [
        RunFlag::Engine,
        RunFlag::Faults,
        RunFlag::Scheduler,
        RunFlag::Adversary,
        RunFlag::Churn,
        RunFlag::CheckpointEvery,
        RunFlag::Resume,
    ];

    /// The flags every trial run through [`Ctx::run_arm`] honors, provided
    /// its arms hand them to the engine (paper-protocol and table arms do;
    /// closure arms do not).
    pub const TRIAL: &'static [RunFlag] =
        &[RunFlag::Faults, RunFlag::Scheduler, RunFlag::Adversary];

    /// [`RunFlag::TRIAL`] plus `--engine`, for a scenario whose trials
    /// include a table arm.
    pub(crate) const TABLE_TRIAL: &'static [RunFlag] = &[
        RunFlag::Engine,
        RunFlag::Faults,
        RunFlag::Scheduler,
        RunFlag::Adversary,
    ];

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            RunFlag::Engine => "--engine",
            RunFlag::Faults => "--faults",
            RunFlag::Scheduler => "--scheduler",
            RunFlag::Adversary => "--adversary",
            RunFlag::Churn => "--churn",
            RunFlag::CheckpointEvery => "--checkpoint-every",
            RunFlag::Resume => "--resume",
        }
    }

    /// Whether `opts` sets the flag.
    pub fn is_set(self, opts: &ExpOpts) -> bool {
        match self {
            RunFlag::Engine => opts.engine == Engine::Seq,
            RunFlag::Faults => !opts.faults.is_empty(),
            RunFlag::Scheduler => opts.scheduler.is_some(),
            RunFlag::Adversary => opts.adversary.is_some(),
            RunFlag::Churn => opts.churn.is_some(),
            RunFlag::CheckpointEvery => opts.checkpoint_every.is_some(),
            RunFlag::Resume => opts.resume.is_some(),
        }
    }
}

/// A registered experiment.
pub struct Scenario {
    /// Short name (`"x01"`), the primary CLI handle.
    pub name: &'static str,
    /// Long name (`"x01_simple_scaling"`), matching the legacy binary.
    pub slug: &'static str,
    /// One-line description for `xp list`.
    pub about: &'static str,
    /// CSV basenames this scenario emits, in order — the output schema
    /// contract checked by [`Sink::finish`].
    pub outputs: &'static [&'static str],
    /// The [`RunFlag`]s the scenario honors; any other one is refused.
    pub flags: &'static [RunFlag],
    /// The scenario body.
    pub run: fn(&mut Ctx) -> io::Result<()>,
}

/// Everything a scenario body gets to work with.
pub struct Ctx<'a> {
    /// Parsed CLI options.
    pub opts: &'a ExpOpts,
    /// Output sink (CSV + manifest).
    pub sink: &'a mut Sink,
}

impl Ctx<'_> {
    /// Whether `--full` was passed.
    pub fn full(&self) -> bool {
        self.opts.full
    }

    /// Print and persist a table (see [`Sink::emit`]).
    ///
    /// # Errors
    ///
    /// Propagates the CSV write failure.
    pub fn emit(&mut self, csv_name: &str, table: &Table) -> io::Result<()> {
        self.sink.emit(csv_name, table)
    }

    /// Persist a table as CSV (and record it in the manifest) without
    /// printing it — for per-sample time series (see
    /// [`Sink::emit_csv_only`]).
    ///
    /// # Errors
    ///
    /// Propagates the CSV write failure.
    pub fn emit_csv_only(&mut self, csv_name: &str, table: &Table) -> io::Result<()> {
        self.sink.emit_csv_only(csv_name, table)
    }

    /// Run the configured number of trials of an arbitrary closure in
    /// parallel; `f` receives the derived per-trial seed. The escape hatch
    /// for observational experiments that drive simulations by hand.
    pub fn run_trials<R: Send>(&self, stream: u64, f: impl Fn(u64) -> R + Sync) -> Vec<R> {
        self.opts.run_trials(stream, f)
    }

    /// The engine `arm` will actually run on under the current options.
    pub fn engine_for(&self, arm: &Arm) -> Engine {
        if arm.engine_aware() {
            self.opts.engine
        } else {
            Engine::Seq
        }
    }

    /// Run one arm over the ensemble: resolves the engine, lets the
    /// `--faults`, `--scheduler` and `--adversary` flags override the
    /// spec's own, derives per-trial seeds from `stream` and fans trials
    /// out across threads.
    pub fn run_arm(&self, arm: &Arm, spec: &TrialSpec, stream: u64) -> Vec<TrialOutcome> {
        let engine = self.engine_for(arm);
        let mut spec = spec.clone();
        if !self.opts.faults.is_empty() {
            spec.faults = self.opts.faults.clone();
        }
        spec.scheduler = self.opts.scheduler.or(spec.scheduler);
        spec.adversary = self.opts.adversary.or(spec.adversary);
        self.opts
            .run_trials(stream, |seed| arm.run(&spec, engine, seed))
    }
}

// ---------------------------------------------------------------------------
// Declarative studies.

/// One grid point of a [`Study`]: a labelled trial spec.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Sweep label (for multi-sweep tables; empty when unused).
    pub sweep: &'static str,
    /// Free-form row key (ablation factor, bias multiple, …).
    pub tag: String,
    /// What every trial of this point runs: the counts, budget and tuning,
    /// and the fault plan, scheduler and adversary that `--faults`,
    /// `--scheduler` and `--adversary` override (see [`Ctx::run_arm`]).
    pub spec: TrialSpec,
}

impl GridPoint {
    /// A point with default tuning, empty labels and no faults.
    pub fn new(counts: Counts, budget: f64) -> Self {
        Self {
            sweep: "",
            tag: String::new(),
            spec: TrialSpec::new(counts, budget),
        }
    }

    /// Set the sweep label.
    pub fn sweep(mut self, sweep: &'static str) -> Self {
        self.sweep = sweep;
        self
    }

    /// Set the row key.
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }

    /// Set the tuning.
    pub fn tuning(mut self, tuning: Tuning) -> Self {
        self.spec.tuning = tuning;
        self
    }

    /// Set the fault plan.
    pub fn faults(mut self, faults: impl Into<Vec<FaultSpec>>) -> Self {
        self.spec.faults = faults.into();
        self
    }

    /// Set the scheduler.
    pub fn scheduler(mut self, scheduler: SchedulerSpec) -> Self {
        self.spec.scheduler = Some(scheduler);
        self
    }

    /// Set the Byzantine adversary.
    pub fn adversary(mut self, adversary: AdversarySpec) -> Self {
        self.spec.adversary = Some(adversary);
        self
    }
}

/// An arm inside a study, with optional per-arm overrides.
struct StudyArm {
    arm: Arm,
    /// Budget override (e.g. the stable-majority arm needs Θ(n) time).
    budget: Option<f64>,
    /// Population cap on top of the arm's own engine caps.
    cap: Option<usize>,
}

/// The completed trials of one (grid point × arm) cell.
pub struct PointRun {
    /// The grid point.
    pub point: GridPoint,
    /// Arm label.
    pub arm: String,
    /// Engine the cell ran on.
    pub engine: Engine,
    /// Per-trial outcomes, in trial order.
    pub outcomes: Vec<TrialOutcome>,
}

impl PointRun {
    /// Population size.
    pub fn n(&self) -> usize {
        self.point.spec.counts.n()
    }

    /// Opinion count.
    pub fn k(&self) -> usize {
        self.point.spec.counts.k()
    }

    /// Trials that converged to the planted plurality.
    pub fn ok(&self) -> usize {
        self.outcomes.iter().filter(|o| o.correct).count()
    }

    /// Total trials.
    pub fn trials(&self) -> usize {
        self.outcomes.len()
    }

    /// Trials that exhausted their budget.
    pub fn timeouts(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.converged).count()
    }

    /// Parallel times of the converged trials.
    pub fn converged_times(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.converged)
            .map(|o| o.parallel_time)
            .collect()
    }

    /// Summary of the converged times, if any trial converged.
    pub fn summary(&self) -> Option<Summary> {
        let times = self.converged_times();
        (!times.is_empty()).then(|| Summary::of(&times))
    }

    /// Median parallel time over *all* trials (budget-capped included).
    pub fn median_all(&self) -> f64 {
        crate::protocols::median_parallel_time(&self.outcomes)
    }

    /// Median of the converged times, `NaN` if none converged.
    pub fn median(&self) -> f64 {
        self.summary().map_or(f64::NAN, |s| s.median)
    }

    /// Recovery times (parallel time from fault epoch back to an agreeing
    /// population) over all fault records of all trials, recovered epochs
    /// only.
    pub fn recovery_times(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .flat_map(|o| &o.faults)
            .filter(|f| f.recovered())
            .map(|f| f.recovery_time)
            .collect()
    }

    /// Median recovery time over recovered fault epochs, `NaN` if none.
    pub fn median_recovery(&self) -> f64 {
        let mut t = self.recovery_times();
        if t.is_empty() {
            return f64::NAN;
        }
        t.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        t[t.len() / 2]
    }

    /// Trials where the pre-fault winner survived every fault epoch (the
    /// population reconverged to the same output it held before the first
    /// strike).
    pub fn survived(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !o.faults.is_empty() && o.faults.iter().all(|f| f.winner_survived()))
            .count()
    }
}

/// One output column: a header plus a formatter over a completed cell.
pub struct ColSpec {
    /// Column header.
    pub header: String,
    value: Box<dyn Fn(&PointRun) -> String>,
}

/// Column constructors for [`Study`] output schemas.
pub mod col {
    use super::{ColSpec, PointRun};
    use pp_engine::ChurnSample;

    /// Integrated consensus fraction of a churn-soak series, formatted for
    /// a CSV cell: the fraction of samples at which the exact predicate
    /// fired, `NaN` on an empty series. Soak scenarios (x22, x24) drive
    /// the engines by hand and stitch series across checkpoint segments,
    /// so this is a value helper rather than a [`ColSpec`].
    pub fn time_in_consensus(series: &[ChurnSample]) -> String {
        format!("{:.4}", pp_engine::result::time_in_consensus(series))
    }

    /// A column from a header and a formatter.
    pub fn derived(
        header: impl Into<String>,
        f: impl Fn(&PointRun) -> String + 'static,
    ) -> ColSpec {
        ColSpec {
            header: header.into(),
            value: Box::new(f),
        }
    }

    /// The sweep label.
    pub fn sweep() -> ColSpec {
        derived("sweep", |r| r.point.sweep.to_string())
    }

    /// The row key under a custom header.
    pub fn tag(header: &str) -> ColSpec {
        derived(header, |r| r.point.tag.clone())
    }

    /// Population size.
    pub fn n() -> ColSpec {
        derived("n", |r| r.n().to_string())
    }

    /// Opinion count.
    pub fn k() -> ColSpec {
        derived("k", |r| r.k().to_string())
    }

    /// Input bias (plurality minus runner-up).
    pub fn bias() -> ColSpec {
        derived("bias", |r| r.point.spec.counts.bias().to_string())
    }

    /// Arm label under a custom header ("algo", "protocol", …).
    pub fn arm(header: &str) -> ColSpec {
        derived(header, |r| r.arm.clone())
    }

    /// Engine name.
    pub fn engine() -> ColSpec {
        derived("engine", |r| r.engine.name().to_string())
    }

    /// Correct trials as "ok/total".
    pub fn ok_frac() -> ColSpec {
        derived("ok", |r| format!("{}/{}", r.ok(), r.trials()))
    }

    /// Correct trials as a bare count.
    pub fn ok_count() -> ColSpec {
        derived("ok", |r| r.ok().to_string())
    }

    /// Total trials.
    pub fn trials() -> ColSpec {
        derived("trials", |r| r.trials().to_string())
    }

    /// Budget-exhausted trials.
    pub fn timeouts() -> ColSpec {
        derived("timeouts", |r| r.timeouts().to_string())
    }

    /// Success rate with the given precision.
    pub fn rate(prec: usize) -> ColSpec {
        derived("rate", move |r| {
            format!("{:.prec$}", r.ok() as f64 / r.trials() as f64)
        })
    }

    /// Median of converged times (`NaN` if none), given precision.
    pub fn median(prec: usize) -> ColSpec {
        derived("median", move |r| format!("{:.prec$}", r.median()))
    }

    /// Median over all trials (budget-capped included), custom header.
    pub fn median_all(header: &str, prec: usize) -> ColSpec {
        derived(header, move |r| format!("{:.prec$}", r.median_all()))
    }

    /// Mean of converged times, given precision.
    pub fn mean(prec: usize) -> ColSpec {
        derived("mean", move |r| {
            format!("{:.prec$}", r.summary().map_or(f64::NAN, |s| s.mean))
        })
    }

    /// 95% CI half-width of converged times, given precision.
    pub fn ci95(prec: usize) -> ColSpec {
        derived("ci95", move |r| {
            format!("{:.prec$}", r.summary().map_or(f64::NAN, |s| s.ci95()))
        })
    }

    /// Median recovery time after a fault strike (`NaN` if no epoch
    /// recovered), given precision.
    pub fn recovery(prec: usize) -> ColSpec {
        derived("recovery", move |r| {
            format!("{:.prec$}", r.median_recovery())
        })
    }

    /// Trials whose pre-fault winner survived every strike, as
    /// "survived/total".
    pub fn survived() -> ColSpec {
        derived("survived", |r| format!("{}/{}", r.survived(), r.trials()))
    }
}

/// A declarative grid × arms experiment.
pub struct Study {
    title: String,
    csv: String,
    stream_base: u64,
    census: bool,
    arm_major: bool,
    skip_unconverged: bool,
    grid: Vec<GridPoint>,
    arms: Vec<StudyArm>,
    cols: Vec<ColSpec>,
}

impl Study {
    /// A study printing under `title` and persisting as `<csv>.csv`.
    pub fn new(title: impl Into<String>, csv: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            csv: csv.into(),
            stream_base: 0,
            census: false,
            arm_major: false,
            skip_unconverged: false,
            grid: Vec::new(),
            arms: Vec::new(),
            cols: Vec::new(),
        }
    }

    /// Base of the seed-stream range (keep distinct across studies within
    /// a scenario). Cell `(arm i, point j)` uses stream
    /// `base + i·10000 + j`.
    pub fn stream_base(mut self, base: u64) -> Self {
        self.stream_base = base;
        self
    }

    /// Collect the distinct-state census in every trial (slower).
    pub fn census(mut self, census: bool) -> Self {
        self.census = census;
        self
    }

    /// Iterate arms in the outer loop (default: grid points outer).
    pub fn arm_major(mut self) -> Self {
        self.arm_major = true;
        self
    }

    /// Skip (with a note) rows where no trial converged, instead of
    /// printing `NaN` statistics.
    pub fn skip_unconverged(mut self) -> Self {
        self.skip_unconverged = true;
        self
    }

    /// Add one grid point.
    pub fn point(mut self, point: GridPoint) -> Self {
        self.grid.push(point);
        self
    }

    /// Add many grid points.
    pub fn points(mut self, points: impl IntoIterator<Item = GridPoint>) -> Self {
        self.grid.extend(points);
        self
    }

    /// Add an arm.
    pub fn arm(mut self, arm: Arm) -> Self {
        self.arms.push(StudyArm {
            arm,
            budget: None,
            cap: None,
        });
        self
    }

    /// Add an arm with a budget override and/or an extra population cap.
    pub fn arm_with(mut self, arm: Arm, budget: Option<f64>, cap: Option<usize>) -> Self {
        self.arms.push(StudyArm { arm, budget, cap });
        self
    }

    /// Set the output schema.
    pub fn cols(mut self, cols: Vec<ColSpec>) -> Self {
        self.cols = cols;
        self
    }

    /// Execute the grid × arm cross product, emit the table, and return
    /// the per-cell outcomes (in emitted row order) for post-processing.
    ///
    /// Cells whose population exceeds the arm's engine cap are skipped
    /// with a console note, as are unconverged cells under
    /// [`skip_unconverged`](Self::skip_unconverged).
    ///
    /// # Errors
    ///
    /// Propagates the CSV write failure.
    pub fn run(self, ctx: &mut Ctx) -> io::Result<Vec<PointRun>> {
        let headers: Vec<&str> = self.cols.iter().map(|c| c.header.as_str()).collect();
        let mut table = Table::new(self.title.clone(), &headers);
        let mut runs = Vec::new();

        let cells: Vec<(usize, usize)> = if self.arm_major {
            (0..self.arms.len())
                .flat_map(|a| (0..self.grid.len()).map(move |p| (a, p)))
                .collect()
        } else {
            (0..self.grid.len())
                .flat_map(|p| (0..self.arms.len()).map(move |a| (a, p)))
                .collect()
        };

        for (arm_idx, point_idx) in cells {
            let sa = &self.arms[arm_idx];
            let point = &self.grid[point_idx];
            let engine = ctx.engine_for(&sa.arm);
            let n = point.spec.counts.n();
            let cap = sa
                .arm
                .max_n(engine)
                .unwrap_or(usize::MAX)
                .min(sa.cap.unwrap_or(usize::MAX));
            if n > cap {
                eprintln!(
                    "  [{}] skipping n={n} on {} (cap {cap})",
                    sa.arm.label(),
                    engine.name()
                );
                continue;
            }
            let mut spec = point.spec.clone();
            spec.budget = sa.budget.unwrap_or(spec.budget);
            spec.census = self.census;
            let stream = self.stream_base + (arm_idx as u64) * 10_000 + point_idx as u64;
            let outcomes = ctx.run_arm(&sa.arm, &spec, stream);
            let run = PointRun {
                point: point.clone(),
                arm: sa.arm.label().to_string(),
                engine,
                outcomes,
            };
            if self.skip_unconverged && run.summary().is_none() {
                eprintln!("  [{}] n={n}: no convergence!", run.arm);
                continue;
            }
            if ctx.sink.verbose {
                eprintln!(
                    "  [{}] n={n} k={}: ok {}/{}, median {:.1}",
                    run.arm,
                    run.k(),
                    run.ok(),
                    run.trials(),
                    run.median()
                );
            }
            table.push(self.cols.iter().map(|c| (c.value)(&run)).collect());
            runs.push(run);
        }

        ctx.emit(&self.csv, &table)?;
        Ok(runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arm;

    #[test]
    fn study_runs_grid_times_arms_and_emits_schema() {
        let opts = ExpOpts {
            trials: 2,
            out_dir: std::env::temp_dir().join(format!("pp-study-test-{}", std::process::id())),
            ..ExpOpts::default()
        };
        let mut sink = Sink::new("t", &opts);
        sink.verbose = false;
        let mut ctx = Ctx {
            opts: &opts,
            sink: &mut sink,
        };
        let runs = Study::new("t", "t_study")
            .points([400, 800].map(|n| GridPoint::new(Counts::bias_one(n, 3), 1.0e4)))
            .arm(arm::usd())
            .cols(vec![
                col::n(),
                col::k(),
                col::engine(),
                col::ok_frac(),
                col::median(1),
            ])
            .run(&mut ctx)
            .expect("study runs");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].trials(), 2);
        assert_eq!(runs[0].engine, Engine::Batch);
        let csv = std::fs::read_to_string(opts.csv_path("t_study")).expect("csv written");
        assert!(csv.starts_with("n,k,engine,ok,median\n"), "csv: {csv}");
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }

    #[test]
    fn seq_cap_skips_oversized_cells() {
        let opts = ExpOpts {
            trials: 1,
            engine: Engine::Seq,
            out_dir: std::env::temp_dir().join(format!("pp-cap-test-{}", std::process::id())),
            ..ExpOpts::default()
        };
        let mut sink = Sink::new("t", &opts);
        sink.verbose = false;
        let mut ctx = Ctx {
            opts: &opts,
            sink: &mut sink,
        };
        let runs = Study::new("t", "t_cap")
            .point(GridPoint::new(Counts::bias_one(400, 2), 1.0e4))
            // Far beyond SEQ_CAP: must be skipped, not attempted.
            .point(GridPoint::new(Counts::bias_one(100_000_000, 2), 1.0e4))
            .arm(arm::usd())
            .cols(vec![col::n(), col::ok_frac()])
            .run(&mut ctx)
            .expect("study runs");
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].engine, Engine::Seq);
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
