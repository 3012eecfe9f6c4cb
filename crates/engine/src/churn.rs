//! Steady-state churn: a continuous Poisson join/leave process.
//!
//! Unlike the one-shot [`FaultSpec::Churn`](crate::FaultSpec::Churn) epoch
//! strike, a
//! [`ChurnProcess`] runs *for the whole run*: after every engine stride or
//! batch of `ℓ` interactions, `Poisson(join·ℓ)` fresh agents drawn from
//! the initial workload join and `Poisson(leave·ℓ)` uniformly random
//! agents leave (never below two agents). Rates are expressed per agent
//! per unit of parallel time, so a stride of `ℓ` interactions — `ℓ/n`
//! parallel time across `n` agents — carries an expected `rate · ℓ`
//! events regardless of the current population size.
//!
//! The engines' `run_churned` methods drive the process and record a
//! [`ChurnSample`](crate::ChurnSample) each time the parallel clock
//! crosses a multiple of [`ChurnProcess::sample_every`], producing the
//! population / plurality-fraction / time-in-consensus series the churn
//! soak experiments report. All churn randomness comes from the engine's
//! own RNG stream, preserving the (seed, config) replay contract.

use crate::batch::multinomial::poisson;
use crate::fault::{ChurnSpec, ChurnTarget};
use crate::protocol::SimRng;

/// A continuous Poisson join/leave process with a sampling period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnProcess {
    join: f64,
    leave: f64,
    target: ChurnTarget,
    sample_every: f64,
}

impl ChurnProcess {
    /// A process with the spec's rates, sampling once per unit of parallel
    /// time.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or negative rates.
    pub fn new(spec: ChurnSpec) -> Self {
        assert!(
            spec.join.is_finite()
                && spec.join >= 0.0
                && spec.leave.is_finite()
                && spec.leave >= 0.0,
            "churn rates must be finite and non-negative: {spec}"
        );
        Self {
            join: spec.join,
            leave: spec.leave,
            target: spec.target,
            sample_every: 1.0,
        }
    }

    /// Override the sampling period (parallel time between
    /// [`ChurnSample`](crate::ChurnSample)s).
    ///
    /// # Panics
    ///
    /// Panics unless `every` is finite and positive.
    #[must_use]
    pub fn with_sample_every(mut self, every: f64) -> Self {
        assert!(
            every.is_finite() && every > 0.0,
            "sampling period must be finite and positive"
        );
        self.sample_every = every;
        self
    }

    /// The process's rates and departure targeting as a CLI/manifest spec.
    pub fn spec(&self) -> ChurnSpec {
        ChurnSpec {
            join: self.join,
            leave: self.leave,
            target: self.target,
        }
    }

    /// Which agents the departures hit.
    pub fn target(&self) -> ChurnTarget {
        self.target
    }

    /// Parallel time between samples.
    pub fn sample_every(&self) -> f64 {
        self.sample_every
    }

    /// The first sampling mark strictly after `clock`. Derived from the
    /// clock alone (no running state), so a resumed run lands on the same
    /// marks as an uninterrupted one.
    pub fn next_mark(&self, clock: f64) -> f64 {
        ((clock / self.sample_every).floor() + 1.0) * self.sample_every
    }

    /// Draw the `(joins, leaves)` event counts for a stride of `len`
    /// interactions. A zero rate draws nothing from the RNG, so a
    /// zero-rate process leaves the engine's stream untouched.
    pub fn draw_events(&self, rng: &mut SimRng, len: u64) -> (u64, u64) {
        (
            poisson(rng, self.join * len as f64),
            poisson(rng, self.leave * len as f64),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn marks_advance_strictly_and_align_to_the_period() {
        let p = ChurnProcess::new(ChurnSpec {
            join: 0.0,
            leave: 0.0,
            target: ChurnTarget::Uniform,
        })
        .with_sample_every(2.5);
        assert_eq!(p.next_mark(0.0), 2.5);
        assert_eq!(p.next_mark(2.4), 2.5);
        assert_eq!(p.next_mark(2.5), 5.0);
        assert_eq!(p.next_mark(7.9), 10.0);
    }

    #[test]
    fn event_counts_track_rates() {
        let p = ChurnProcess::new(ChurnSpec {
            join: 0.02,
            leave: 0.01,
            target: ChurnTarget::Uniform,
        });
        let mut rng = SimRng::seed_from_u64(3);
        let (mut joins, mut leaves) = (0u64, 0u64);
        let reps = 2_000u64;
        for _ in 0..reps {
            let (j, l) = p.draw_events(&mut rng, 1_000);
            joins += j;
            leaves += l;
        }
        let want_joins = 0.02 * 1_000.0 * reps as f64;
        let want_leaves = 0.01 * 1_000.0 * reps as f64;
        assert!(
            (joins as f64 - want_joins).abs() / want_joins < 0.05,
            "{joins}"
        );
        assert!(
            (leaves as f64 - want_leaves).abs() / want_leaves < 0.05,
            "{leaves}"
        );
    }

    #[test]
    fn spec_round_trips_rates_and_target() {
        let spec = ChurnSpec {
            join: 0.01,
            leave: 0.03,
            target: ChurnTarget::Plurality,
        };
        let p = ChurnProcess::new(spec);
        assert_eq!(p.spec(), spec, "manifests must see the targeted spelling");
        assert_eq!(p.target(), ChurnTarget::Plurality);
    }

    #[test]
    fn zero_rates_leave_the_rng_untouched() {
        let p = ChurnProcess::new(ChurnSpec {
            join: 0.0,
            leave: 0.0,
            target: ChurnTarget::Uniform,
        });
        let mut rng = SimRng::seed_from_u64(9);
        let mut clean = rng.clone();
        assert_eq!(p.draw_events(&mut rng, 10_000), (0, 0));
        use rand::Rng;
        assert_eq!(rng.gen::<u64>(), clean.gen::<u64>());
    }
}
