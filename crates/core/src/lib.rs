//! The paper's plurality-consensus protocols.
//!
//! This crate implements the three protocols of *Population Protocols for
//! Exact Plurality Consensus* (PODC 2022) as one [`Machine`], a
//! [`Protocol`](pp_engine::Protocol) built by [`Machine::start`] for one
//! [`Algorithm`]:
//!
//! * [`Algorithm::Simple`] — `SimpleAlgorithm` (Theorem 1(1)): `k − 1`
//!   tournaments over *ordered* opinions, `O(k·log n)` time,
//!   `O(k + log n)` states.
//! * [`Algorithm::Unordered`] — the Appendix B variant (Theorem 1(2)): a
//!   leader elected among the trackers samples each tournament's
//!   challenger, removing the order assumption at the cost of `O(log² n)`
//!   additional time.
//! * [`Algorithm::Improved`] — `ImprovedAlgorithm` (Theorem 2): per-opinion
//!   junta-driven phase clocks prune insignificant opinions before the
//!   tournaments, reducing their number from `k − 1` to `O(n/x_max)`.
//!
//! The agent roles live in [`roles`], the tournament phase logic in
//! [`tournament`] and the tuning constants in [`config`].

pub mod config;
pub mod roles;
pub mod tournament;

pub use config::Tuning;
pub use tournament::{Algorithm, Machine};

use pp_workloads::OpinionAssignment;

/// Builds [`Algorithm::Improved`]. Remains only because perfbench still
/// calls it; everything else calls [`Machine::start`].
pub struct ImprovedAlgorithm;

impl ImprovedAlgorithm {
    /// [`Machine::start`] with [`Algorithm::Improved`].
    ///
    /// # Panics
    ///
    /// Panics if `n < 2k` or `n < 40`.
    // perfbench calls this name, so it keeps `new` though it returns a
    // `Machine`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(assignment: &OpinionAssignment, tuning: Tuning) -> (Machine, Vec<roles::Agent>) {
        Machine::start(Algorithm::Improved, assignment, tuning)
    }
}
