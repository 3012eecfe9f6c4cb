//! Synchronisation substrates for population protocols.
//!
//! The paper's protocols are organised around two very different clocks:
//!
//! * the **leaderless phase clock** of Alistarh–Aspnes–Gelashvili \[1\]
//!   ([`leaderless`]): clock agents run a circular counter where the laggard
//!   of every clock–clock meeting catches up by one; the counter position
//!   determines the current *phase* of the tournament machinery
//!   ([`schedule`]);
//! * the **junta-driven phase clock** of Berenbrink et al. \[11\]
//!   ([`junta_clock`]): a small junta (elected by the level race in
//!   [`junta`]) pushes a max-propagated counter forward; `ImprovedAlgorithm`
//!   runs one such clock *per opinion* on meaningful (same-opinion)
//!   interactions only ([`subpop`]), so large opinions tick fast and
//!   insignificant ones never tick at all — which is exactly what the
//!   pruning phase exploits.
//!
//! Each module exposes the transition function as an embeddable component.
//! The leaderless clock, the junta race and the per-opinion clocks also come
//! as standalone [`pp_engine::Protocol`]s that measure their guarantees
//! (experiments X8 and X12). The junta clock has no harness of its own: it
//! is measured through [`subpop::SubpopClocks`] with every agent holding
//! one opinion, where every interaction is meaningful.

pub mod junta;
pub mod junta_clock;
pub mod leaderless;
pub mod schedule;
pub mod subpop;

pub use junta::{FormJunta, JuntaState};
pub use junta_clock::JuntaClock;
pub use leaderless::{Advanced, LeaderlessClock};
pub use schedule::PhaseSchedule;
