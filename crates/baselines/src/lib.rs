//! Comparison baselines for the paper's exact plurality protocols.
//!
//! The headline baseline is the k-opinion *undecided-state dynamics*
//! ([`usd`]): simple, fast (`O(log n)`-ish for large bias), but only
//! **approximately** correct — at bias `o(√(n·log n))` it picks the wrong
//! opinion with substantial probability. Experiment X13 reproduces the
//! paper's motivating contrast: USD's failure rate vs bias against the
//! exact protocols' success at bias 1.
//!
//! USD exists once, as the transition table [`UsdTable`]: the batched
//! engine runs it directly, and the sequential engine through
//! [`pp_engine::SeqTable`].

pub mod usd;

pub use usd::UsdTable;
