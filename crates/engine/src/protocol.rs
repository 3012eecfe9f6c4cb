//! The [`Protocol`] trait: a population protocol as seen by the scheduler.

use rand::rngs::SmallRng;

use crate::fault::Replacement;

/// The RNG handed to transition functions.
///
/// A concrete type (rather than a generic parameter) keeps the hot
/// interaction loop monomorphic and the trait object-safe. `SmallRng` is a
/// non-cryptographic generator chosen for speed; experiments derive
/// independent seeds per trial via [`crate::rng::derive`].
pub type SimRng = SmallRng;

/// The class of an agent whose class is unknown or that has none; never
/// [`quiet`](Protocol::quiet) with any class.
pub const UNCLASSED: u8 = u8::MAX;

/// A population protocol: per-agent state plus a pairwise transition
/// function.
///
/// The scheduler calls [`interact`](Protocol::interact) once per interaction
/// with the (initiator, responder) pair. Protocols take `&mut self` so they
/// can record internal milestones (e.g. "first agent entered phase 0 at
/// interaction t"); the *agent-visible* protocol state must live in
/// [`State`](Protocol::State) only.
///
/// Most protocols in the paper are randomized only through the scheduler;
/// those that flip internal coins (e.g. role selection with probability 1/3)
/// draw from the provided RNG, which models the standard synthetic-coin
/// construction.
///
/// # Quiet pairs
///
/// A protocol whose pairs mostly change nothing may let the sequential
/// engine skip them without reading either agent. It opts in by setting
/// [`CLASSED`](Protocol::CLASSED) and implementing
/// [`class`](Protocol::class), a one-byte summary of a state, and
/// [`quiet`](Protocol::quiet), a predicate on an (initiator, responder)
/// pair of classes. The contract: `quiet(class(a), class(b))` may hold
/// only when `interact(t, a, b, rng)` would write neither state, draw no
/// RNG word and record nothing, for every `t`. [`UNCLASSED`] is never
/// quiet with any class.
///
/// [`Simulation`](crate::Simulation) then keeps one class byte per agent
/// beside the states and skips a quiet pair before it touches either
/// agent. Its cache may be conservative but is never stale: a cached
/// class is either [`UNCLASSED`] (an agent not yet classed since the
/// start or since a fault struck it, which takes the full transition
/// once) or `class` of the agent's current state. So a quiet skip leaves
/// the run exactly as `interact` would, in every state, RNG word and
/// milestone. Protocols that do not opt in (the default) compile to the
/// plain loop, with no class array and no class store.
pub trait Protocol {
    /// Per-agent state.
    type State: Clone + Send + Sync + std::fmt::Debug;

    /// Whether the sequential engine caches [`class`](Protocol::class)
    /// per agent and skips [`quiet`](Protocol::quiet) pairs (the trait
    /// doc's quiet-pair contract). Off by default.
    const CLASSED: bool = false;

    /// Apply one interaction at (zero-based) interaction index `t`.
    ///
    /// `a` is the initiator and `b` the responder; the model draws ordered
    /// pairs, and several of the paper's transitions are asymmetric (e.g.
    /// only the initiator's clock counter moves).
    fn interact(&mut self, t: u64, a: &mut Self::State, b: &mut Self::State, rng: &mut SimRng);

    /// The one-byte class of `state`, a pure function of the state; read
    /// only when [`CLASSED`](Protocol::CLASSED) is set. The default classes
    /// nothing.
    fn class(&self, state: &Self::State) -> u8 {
        let _ = state;
        UNCLASSED
    }

    /// Whether an initiator of class `a` and a responder of class `b`
    /// form a quiet pair, one whose `interact` writes neither state, draws
    /// no RNG word and records nothing. Must be `false` whenever either
    /// class is [`UNCLASSED`]. The default holds for no pair.
    fn quiet(&self, a: u8, b: u8) -> bool {
        let _ = (a, b);
        false
    }

    /// Whether the configuration has reached the protocol's target, and if
    /// so which output (opinion identifier) it carries.
    ///
    /// Called periodically (not every step); it should be a pure function of
    /// the configuration. Returning `Some(o)` stops the run.
    fn converged(&self, states: &[Self::State]) -> Option<u32>;

    /// A canonical bounded encoding of an agent state for the state census.
    ///
    /// Two states must encode equal iff the protocol, implemented with
    /// minimal memory, could represent them identically. The default
    /// implementation panics; protocols that participate in census
    /// experiments override it.
    fn encode(&self, state: &Self::State) -> u64 {
        let _ = state;
        unimplemented!("this protocol does not provide a census encoding")
    }

    /// The state a fault-struck agent is replaced with, for the given
    /// [`Replacement`] kind.
    ///
    /// Returning `None` means the protocol cannot synthesize such a state
    /// and the strike leaves the victim untouched (for
    /// [`Replacement::Rejoin`] the engine instead restores the victim's
    /// *initial* state itself, so `None` is the correct answer there).
    /// The default supports no replacement at all, so faults degrade to
    /// no-ops on protocols that have not opted in.
    fn fault_state(&self, replacement: &Replacement, rng: &mut SimRng) -> Option<Self::State> {
        let _ = (replacement, rng);
        None
    }

    /// The opinion an agent in `state` currently advocates, if any — the
    /// hook adversarial [`SchedulerSpec`](crate::SchedulerSpec)s bias on. `None`
    /// (the default) marks undecided or helper agents, which schedulers
    /// treat uniformly.
    fn opinion_of(&self, state: &Self::State) -> Option<u32> {
        let _ = state;
        None
    }
}
