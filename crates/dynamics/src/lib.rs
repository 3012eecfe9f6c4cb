//! Elementary population dynamics used as building blocks by the paper's
//! protocols.
//!
//! * [`epidemic`] — the one-way epidemic (broadcast by infection), the
//!   paper's tool for disseminating `phase = 0`, the winner bit, the
//!   challenger token, … Completes in `log₂ n + O(log n)` parallel time
//!   w.h.p. \[5\].
//! * [`load_balance`] — the discrete averaging protocol of [12, 28]:
//!   a pair holding loads `(a, b)` rebalances to `(⌊(a+b)/2⌋, ⌈(a+b)/2⌉)`.
//!   After `O(n·log n)` interactions all loads are within ±1 of the average
//!   w.h.p.; Algorithm 4's *cancellation* phase is exactly this protocol on
//!   signed token counts.

pub mod epidemic;
pub mod load_balance;

pub use epidemic::Epidemic;
pub use load_balance::{balance, LoadBalance};
