//! Opinion workloads: initial opinion distributions for plurality consensus.
//!
//! The paper's input is a vector `x = (x_i)` of opinion supports with
//! `Σ x_i = n`. The interesting regimes are:
//!
//! * **bias 1** — the plurality leads the runner-up by a single agent
//!   (the *exact* plurality regime the paper targets),
//! * **one large, many small** — `x_max = n^(1/2+ε)` with many insignificant
//!   opinions (the regime where `ImprovedAlgorithm`'s pruning shines),
//! * **Zipf / geometric** — natural heavy-tailed opinion landscapes.
//!
//! A [`Counts`] value is the distribution; [`OpinionAssignment`] expands it
//! into one opinion per agent. Opinions are numbered `1..=k` as in the paper.

mod assignment;
mod counts;

pub use assignment::OpinionAssignment;
pub use counts::Counts;
