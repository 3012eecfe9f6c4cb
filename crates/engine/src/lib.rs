//! Simulation engines for population protocols.
//!
//! The *population protocol* model (Angluin et al.) consists of `n`
//! anonymous agents, each a finite state machine. In every discrete step the
//! scheduler draws an ordered pair of distinct agents `(initiator,
//! responder)` independently and uniformly at random, and both agents update
//! their states through a common transition function. *Parallel time* is the
//! number of interactions divided by `n`.
//!
//! # The two engines
//!
//! **Sequential** ([`Simulation`]): one agent-state vector, one interaction
//! per step. The pair draw is the hot path: both indices come out of a
//! single RNG word (Lemire bounded sampling on `0..n·(n−1)`, see
//! [`pair::sample_pair`]) whenever `n < 2³²`, and the `O(n)` convergence
//! scan runs on a stride cached once per run — never mid-stride. This
//! engine handles *any* [`Protocol`], including the paper's own
//! `Θ(k + log n)`-state algorithms with their milestone bookkeeping, and
//! tops out around `n ≈ 10⁶` in practice.
//!
//! **Batched configuration-space** ([`BatchSimulation`], module
//! [`batch`]): for protocols expressible as a [`TableProtocol`] — a
//! transition table over a small enumerable state space whose convergence
//! predicate reads only per-state counts — the engine advances in
//! collision-free batches of `Θ(√n)` interactions. Batch lengths are
//! sampled in `O(1)` by inverting the birthday survival function; each
//! batch becomes one *multinomial tally* of ordered state pairs (binomial
//! splits, `O(S·√ℓ)` per batch) applied with multiplicity, with a
//! Fenwick-tree sampler covering the small-count cases in `O(log S)`.
//! Per-interaction cost is **sub-constant**: throughput *grows* with `n`
//! (billions of interactions per second at `n = 10⁸`, see
//! `BENCH_engine.json`). Randomized transitions are supported — the table
//! receives the scheduler RNG and declares itself via
//! [`TableProtocol::is_deterministic`].
//!
//! **Accuracy contract.** Batch participants are sampled *with
//! replacement* from the configuration, deviating from the exact
//! without-replacement law by `O(ℓ²/n)` total variation per batch — with
//! `ℓ = Θ(√n)` that is `O(1)` interactions' worth of drift per batch, and
//! observable statistics (convergence and recovery times) match the
//! sequential engine's: `tests/engine_equivalence.rs` compares 50 seeded
//! runs per engine by a two-sided Mann–Whitney rank test at a
//! false-failure rate of 10⁻³ per comparison, plus a bound on the ratio of
//! their interquartile ranges. Use the sequential engine when
//! trajectory-exact semantics matter; use the batched engine for scaling
//! curves and baseline arms.
//!
//! **Fast-path checklist** for a protocol to run batched: (1) states fit
//! `0..S` for small `S`; (2) the transition is a function of the two
//! states (plus randomness) only — no interaction-index or per-agent
//! identity dependence; (3) convergence reads the counts vector. The
//! constant-state baselines (USD, 3-/4-state majority, epidemics) all
//! qualify; adapters live next to each protocol.
//!
//! This crate provides the infrastructure shared by every protocol in the
//! workspace:
//!
//! * [`Protocol`] — the transition-function interface,
//! * [`Simulation`] — the sequential scheduler with convergence detection,
//! * [`batch`] — the configuration-space engine, [`BatchSimulation`]
//!   (multinomial tallies),
//! * [`Census`] — exact tracking of the set of distinct agent states visited
//!   (used to validate state-space bounds such as `O(k + log n)`),
//! * [`ensemble`] — embarrassingly-parallel execution of independent trials,
//! * [`rng`] — deterministic seed derivation so every experiment is
//!   reproducible from a single base seed.
//!
//! # Example
//!
//! ```
//! use pp_engine::{Protocol, Simulation, SimRng, RunOptions};
//!
//! /// One-way epidemic: state 1 infects state 0.
//! struct Epidemic;
//! impl Protocol for Epidemic {
//!     type State = u8;
//!     fn interact(&mut self, _t: u64, a: &mut u8, b: &mut u8, _rng: &mut SimRng) {
//!         if *a == 1 { *b = 1; }
//!         if *b == 1 { *a = 1; }
//!     }
//!     fn converged(&self, states: &[u8]) -> Option<u32> {
//!         states.iter().all(|&s| s == 1).then_some(1)
//!     }
//! }
//!
//! let mut states = vec![0u8; 1024];
//! states[0] = 1;
//! let mut sim = Simulation::new(Epidemic, states, 42);
//! let result = sim.run(&RunOptions::default());
//! assert_eq!(result.output, Some(1));
//! // An epidemic completes in roughly log2(n) + ln(n) parallel time.
//! assert!(result.parallel_time < 40.0);
//! ```

pub mod batch;
pub mod census;
pub mod checkpoint;
pub mod churn;
mod driver;
pub mod ensemble;
pub mod fault;
pub mod pair;
pub mod protocol;
pub mod result;
pub mod rng;
pub mod segment;
pub mod sim;
pub mod table_seq;

pub use batch::{AdmitError, BatchSimulation, Fenwick, ShardedFenwick, TableProtocol, TallyPaths};
pub use census::Census;
pub use checkpoint::Checkpoint;
pub use churn::ChurnProcess;
pub use fault::{
    AdaptiveStrategy, AdversarySpec, ChurnSpec, ChurnTarget, FaultRecord, FaultSpec, Forgery,
    LieTarget, OpinionCensus, Replacement, SchedulerSpec,
};
pub use protocol::{Protocol, SimRng};
pub use result::{ChurnSample, RunNote, RunOptions, RunResult, RunStatus};
pub use segment::SegmentRunner;
pub use sim::Simulation;
pub use table_seq::SeqTable;
