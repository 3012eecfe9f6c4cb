//! One-way epidemic broadcast.

use pp_engine::{Protocol, SimRng};

/// The one-way epidemic: an infected agent infects its interaction partner
/// regardless of direction. Starting from a single infected agent, all `n`
/// agents are infected within `log₂ n + ln n + O(1)` parallel time w.h.p.
/// (Angluin, Aspnes, Eisenstat 2008).
///
/// The standalone protocol exists to *measure* the broadcast-time constant
/// (experiment X12), which in turn justifies the per-phase length constants
/// used by the tournament clock.
#[derive(Debug, Clone, Default)]
pub struct Epidemic;

impl Epidemic {
    /// Initial configuration: `sources` infected agents out of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is zero or exceeds `n`.
    pub fn initial_states(n: usize, sources: usize) -> Vec<bool> {
        assert!(sources >= 1 && sources <= n);
        let mut states = vec![false; n];
        for s in states.iter_mut().take(sources) {
            *s = true;
        }
        states
    }
}

impl Protocol for Epidemic {
    type State = bool;

    #[inline]
    fn interact(&mut self, _t: u64, a: &mut bool, b: &mut bool, _rng: &mut SimRng) {
        let infected = *a || *b;
        *a = infected;
        *b = infected;
    }

    fn converged(&self, states: &[bool]) -> Option<u32> {
        states.iter().all(|&s| s).then_some(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{RunOptions, RunStatus, Simulation};

    #[test]
    fn epidemic_reaches_everyone() {
        let states = Epidemic::initial_states(4096, 1);
        let mut sim = Simulation::new(Epidemic, states, 17);
        let r = sim.run(&RunOptions::default());
        assert_eq!(r.status, RunStatus::Converged);
    }

    #[test]
    fn epidemic_time_is_logarithmic() {
        // log2(4096) + ln(4096) ≈ 20.3; allow generous slack.
        let states = Epidemic::initial_states(4096, 1);
        let mut sim = Simulation::new(Epidemic, states, 23);
        let r = sim.run(&RunOptions::default());
        assert!(
            r.parallel_time > 8.0 && r.parallel_time < 60.0,
            "parallel time {}",
            r.parallel_time
        );
    }

    #[test]
    fn more_sources_is_faster() {
        let time = |sources| {
            let states = Epidemic::initial_states(8192, sources);
            let mut sim = Simulation::new(Epidemic, states, 5);
            sim.run(&RunOptions::default()).parallel_time
        };
        assert!(time(512) < time(1));
    }

    #[test]
    #[should_panic]
    fn zero_sources_rejected() {
        let _ = Epidemic::initial_states(10, 0);
    }
}
