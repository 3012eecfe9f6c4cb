//! Leader election in `O(log² n)` time w.h.p., standing in for
//! Gąsieniec–Stachowiak \[23\].
//!
//! See [`lottery`] for the mechanism; it meets the same `O(log² n)` time
//! and w.h.p. uniqueness bounds the plurality protocols need from the
//! cited election. The component form is embedded by the unordered
//! and improved plurality protocols (the trackers elect the leader that
//! samples each tournament's challenger); the standalone protocol measures
//! uniqueness probability and running time (experiment X11).

pub mod lottery;

pub use lottery::{LeaderElectionRun, Lottery, LotteryState};
