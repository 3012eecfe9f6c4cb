//! Batched configuration-space simulation for small-state protocols.
//!
//! For protocols whose state space is a small finite set, the configuration
//! (one counter per state) is a sufficient statistic: the scheduler never
//! needs to know *which* agent holds a state, only *how many* do. The
//! engine in this module exploits that in two stages.
//!
//! **Collision-free batches.** Instead of touching two agents per step, the
//! engine draws the number of consecutive interactions in which no agent
//! participates twice — the birthday process, expected length `Θ(√n)`, see
//! [`birthday`]. Within such a batch every interaction reads the pre-batch
//! configuration, so the interactions commute and can be applied in any
//! order.
//!
//! **Multinomial tallies.** Because the batch's ordered pairs are drawn
//! i.i.d. from the configuration (with replacement — see *Accuracy* below),
//! the per-state participant counts follow a multinomial law. The fast
//! engine ([`BatchSimulation`]) therefore never samples individual pairs:
//! it splits the batch length into initiator counts with `O(S)` binomial
//! draws ([`multinomial`]), splits each initiator count into responder
//! counts the same way (or, for small counts, draws responders through an
//! `O(log S)` Fenwick-tree sampler, [`fenwick`], rebuilt from the counts
//! in `O(S)` at the start of the batch), and applies each distinct
//! ordered state pair `(a, b)` *once* with its multiplicity. Per-interaction
//! cost is thus **sub-constant** whenever batches are long: each binomial
//! draw has `O(1)` expected cost whatever its `n` ([`multinomial`]), so a
//! batch of `ℓ` interactions costs at most `O(S)` binomial draws or
//! `O(log S)`-cost tree draws per initiator state, `O(S² log S)` in the
//! worst case however long the batch, and `o(ℓ)` for `ℓ ≫ S² log S`.
//!
//! # Lumped tallies
//!
//! A deterministic table needs less: only each pair's *count change*
//! matters, and merging the cells of a multinomial gives a multinomial
//! over the merged cells. So, with no adversary or scheduler installed, a
//! batch is drawn as **one multinomial over the table's distinct count
//! changes plus one null cell** (`batch/lumped.rs`); USD's `(k + 1)²` ordered
//! pairs collapse to `2k` changes.
//!
//! * **Cost model.** One binomial per non-empty cell, plus the member-list
//!   work that weights the changes: `O(min(|members|, S − |members|))` per
//!   `(change, responder)` list, `O(k)` per batch for USD. The per-initiator
//!   split costs `O(S_occupied)` binomials per initiator, about `S²` per
//!   batch once every state is occupied, plus the `O(S)` rebuild of its
//!   Fenwick sampler; a lumped batch reads no sampler and keeps none. The change table is built once,
//!   on the first batch that could use it, with up to `O(S²)` calls of
//!   `delta`. A build stops as soon as the changes reach its cap (the
//!   batch length, and at least twice the last cap), so a table with too
//!   many changes is never built in full; a stopped build is retried only
//!   by a batch longer than its cap.
//! * **The `2ℓ` rule.** A batch has `2ℓ` participants, so a state holding
//!   at least `2ℓ` agents can never be overdrawn. A batch is lumped only
//!   if every occupied state holds that many: then the per-initiator split
//!   would never redraw either, and both draw the same multinomial. A
//!   batch with a smaller occupied state takes the split, whose
//!   feasibility check, redraws and per-pair fallback are unchanged.
//! * **The selection rule.** A batch is lumped when the `2ℓ` rule holds
//!   and the changes plus the null cell number at most `ℓ`. Otherwise (a
//!   small `n`, many changes, a near-empty state) it takes the
//!   per-initiator split, which costs at most about `ℓ` tree draws.
//!   Randomized tables, adversaries and schedulers always take the split,
//!   unchanged.
//!
//! The lumped draw runs on the main stream; the per-initiator split draws
//! its root there and each initiator's subtree on a substream of its own
//! (`batch/tally.rs`). Both run on the calling thread: one run is one
//! thread, and parallelism lives one level up, across independent trials
//! ([`crate::ensemble`]). [`BatchSimulation::tally_paths`] counts which
//! path each batch took.
//!
//! # Accuracy
//!
//! The engine samples batch participants *with replacement* from the
//! current configuration, which deviates from the exact
//! without-replacement hypergeometric law by `O(ℓ²/n)` total-variation
//! distance per batch — the standard trade-off in batched
//! population-protocol simulation. With `ℓ = Θ(√n)` the per-batch drift is
//! `O(1)` interactions' worth and the engine's observable statistics agree
//! with the sequential scheduler; the consistency tests in this module and
//! in `tests/engine_equivalence.rs` bound the divergence. A second,
//! strictly rarer effect: a with-replacement tally can overdraw a
//! nearly-empty state; such infeasible tallies (probability `O(ℓ²/n)` per
//! batch) are rejected and redrawn, and after eight misses in a row the
//! batch is applied pair by pair from the live configuration, see
//! [`BatchSimulation::step_batch`] and [`TallyPaths::pairwise`].
//!
//! # Which protocols qualify
//!
//! Any protocol expressible as a [`TableProtocol`] — a transition function
//! over a state space small enough to enumerate (`S` up to a few thousand)
//! whose convergence predicate reads only the per-state counts. Randomized
//! transitions are supported ([`TableProtocol::delta`] receives the
//! scheduler RNG); deterministic ones additionally get the
//! once-per-distinct-pair fast path and the lumped tally by overriding
//! [`TableProtocol::is_deterministic`] to `true`. The paper's own protocols carry
//! `Θ(k + log n)` states *per phase-clock value* and milestone bookkeeping,
//! and stay on the sequential engine; the constant-state baselines (USD,
//! 3-state/4-state majority, epidemics) all run here.

pub mod birthday;
pub mod fenwick;
mod lumped;
pub mod multinomial;
pub(crate) mod sim;
pub(crate) mod tally;

pub use fenwick::{Fenwick, ShardedFenwick};
pub use sim::{AdmitError, BatchSimulation, TallyPaths};

use crate::protocol::SimRng;

/// A population protocol presented as a transition table over a small state
/// space `0..states()`, runnable on the configuration-space engine.
///
/// The `Send + Sync + 'static` supertraits let a table move into a
/// service's simulation thread and be shared by the trial threads of an
/// ensemble; every table here is a small value-type (often zero-sized),
/// so the bounds cost nothing in practice.
pub trait TableProtocol: Send + Sync + 'static {
    /// Size of the state space.
    fn states(&self) -> usize;

    /// Transition `(initiator, responder) → (initiator', responder')`.
    ///
    /// Randomized protocols (USD tie-breaking, lottery coin flips, …) draw
    /// from `rng`; deterministic ones ignore it and should keep the default
    /// [`is_deterministic`](Self::is_deterministic) so the batched engine
    /// may evaluate each distinct pair once per batch.
    fn delta(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize);

    /// Whether [`delta`](Self::delta) ignores its RNG. Deterministic tables
    /// are applied once per distinct ordered pair with multiplicity;
    /// randomized tables are evaluated once per interaction (still skipping
    /// all per-interaction *pair sampling*).
    ///
    /// Defaults to `false` — the safe choice: a randomized table routed
    /// through the deterministic fast path would silently apply one coin
    /// flip with multiplicity `m` instead of `m` flips, corrupting the
    /// dynamics with no error. Tables whose `delta` never touches `rng`
    /// should override this to `true` to unlock the fast path.
    fn is_deterministic(&self) -> bool {
        false
    }

    /// Convergence check on the configuration (`counts[s]` = agents in
    /// state `s`). Returning `Some(o)` stops the run with output `o`.
    fn output(&self, counts: &[u64]) -> Option<u32>;

    /// The opinion an agent in state `s` advocates, if any — the hook
    /// adversarial [`SchedulerSpec`](crate::SchedulerSpec)s bias on. `None` (the
    /// default) marks undecided/helper states, treated uniformly.
    fn opinion(&self, s: usize) -> Option<u32> {
        let _ = s;
        None
    }

    /// The state a freshly injected agent advocating `opinion` enters
    /// (the inverse of [`opinion`](Self::opinion) on fresh agents). `None`
    /// (the default) makes opinion-injection faults degrade to no-ops.
    fn opinion_state(&self, opinion: u32) -> Option<usize> {
        let _ = opinion;
        None
    }
}
