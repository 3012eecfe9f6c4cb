//! The experiment layer: a declarative scenario API plus the `xp` driver.
//!
//! The paper's evaluation is a matrix of protocols × workloads × engines.
//! This crate expresses it as *data*:
//!
//! * [`arm`] — engine-erased protocol arms ([`arm::Arm`]): paper
//!   protocols on the sequential engine, table protocols on either
//!   engine (`--engine {seq,batch}`), bespoke closures — all sharing seed
//!   derivation, ensemble threading and census handling;
//! * [`scenario`] — [`scenario::Scenario`] (a registered experiment) and
//!   [`scenario::Study`] (a declarative grid × arms × columns runner);
//! * [`sink`] — CSV emission plus a JSON run manifest (seed, grid flavour,
//!   engine, fault plan, scheduler, git revision, wall time, per-table
//!   schemas) for every run;
//! * [`registry`] — the scenario table behind `xp list` / `xp run` /
//!   `xp all`;
//! * [`harness`] — the shared CLI ([`ExpOpts`], [`parse_args`]) and
//!   trial-ensemble execution, including the fault-injection flags
//!   (`--faults corrupt@50:0.1,…` and `--scheduler starve:1:0.5`), which
//!   a scenario either honors or refuses by name
//!   ([`scenario::Scenario::flags`]).
//!
//! # Running experiments
//!
//! ```text
//! xp list                      # what is registered
//! xp run x01 --full            # one scenario, full grid
//! xp run x03 x13 --trials 50   # several scenarios
//! xp all --filter usd          # every scenario whose name matches
//! xp run x01_simple_scaling    # a scenario by its long name
//! ```
//!
//! # Adding a scenario
//!
//! Write `scenarios/xNN.rs` exposing a `SCENARIO` constant whose body is
//! (typically) one [`scenario::Study`] — grid points from
//! [`pp_workloads::Counts`] constructors (`bias_one`, `one_large`, `zipf`,
//! …) and a budget, arms from [`arm`], output schema from
//! [`scenario::col`], plus the [`scenario::RunFlag`]s it honors — then
//! add it to the array in `registry.rs`. See
//! `scenarios/x17.rs` for the template; the definition is under twenty
//! lines and `xp run xNN` works immediately, manifest included.

pub mod arm;
pub mod harness;
pub mod protocols;
pub mod registry;
pub mod scenario;
pub mod scenarios;
pub mod sink;

pub use arm::{Arm, TrialSpec};
pub use harness::{parse_args, CliError, Engine, ExpOpts, USAGE};
pub use protocols::{median_parallel_time, run_trial, TrialOutcome};
pub use scenario::{col, Ctx, GridPoint, PointRun, Scenario, Study};
pub use sink::Sink;
