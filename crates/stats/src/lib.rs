//! Statistics and reporting for the experiment harness.
//!
//! Everything the benches need to turn ensembles of [`f64`] measurements
//! into the tables the experiment scenarios print and write as CSV:
//!
//! * [`Summary`] — mean / std / quantiles of a sample,
//! * [`wilson_interval`] — confidence intervals on success probabilities,
//! * [`fit`] — least-squares scaling-law fits (`y ≈ a·x`, `y ≈ a·x + b`)
//!   with coefficients of determination,
//! * [`Table`] — aligned console tables with CSV export.

pub mod fit;
pub mod proportion;
pub mod summary;
pub mod table;

pub use fit::{fit_affine, fit_through_origin, Fit};
pub use proportion::wilson_interval;
pub use summary::Summary;
pub use table::Table;
