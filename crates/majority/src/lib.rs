//! Two-opinion majority substrates.
//!
//! * [`cancel_split`] — the workhorse: a w.h.p.-exact majority with
//!   `O(log n)` states and `O(log n)` parallel time, standing in for the
//!   fast path of Doty et al. \[20\]. Algorithm 4's *match* phase runs this
//!   protocol among the player agents.
//! * [`three_state`] — the classic 3-state *approximate* majority \[4\]:
//!   blazingly fast but only correct for bias `Ω(√(n log n))`; the
//!   motivation baseline for why exactness is hard.
//! * [`four_state`] — the classic 4-state *stable exact* majority: always
//!   correct with ≥ 1 bias, but Θ(n) parallel time at bias 1 — the
//!   motivation baseline for why small state counts alone are not enough.
//!
//! Experiment X10 compares all three on the same inputs.
//!
//! The 3- and 4-state protocols exist once each, as transition tables
//! ([`pp_engine::TableProtocol`]): the batched engine runs them directly,
//! and the sequential engine through [`pp_engine::SeqTable`].

pub mod cancel_split;
pub mod four_state;
pub mod three_state;

pub use cancel_split::{CancelSplit, CancelSplitRun, MajState, Verdict};
pub use four_state::{four_state_counts, FourState};
pub use three_state::ThreeState;
