//! The leaderless phase clock of Alistarh–Aspnes–Gelashvili \[1\].
//!
//! Clock agents each hold a counter modulo the period Ψ. When two clock
//! agents interact, the one whose counter is *circularly behind* increments
//! it; ties advance the initiator. The counter values self-organise into a
//! tight travelling wave, so "the counter wrapped past zero" is a
//! population-wide event that is Θ(log n)-concentrated in time — precisely
//! what Algorithm 1 uses to advance the tournament `phase`.

use pp_engine::{Protocol, SimRng};

/// Which participant advanced, and from/to which counter value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advanced {
    /// The initiator's counter moved `from → to`.
    Initiator {
        /// Counter before the advance.
        from: u32,
        /// Counter after the advance (`(from + 1) mod period`).
        to: u32,
    },
    /// The responder's counter moved `from → to`.
    Responder {
        /// Counter before the advance.
        from: u32,
        /// Counter after the advance.
        to: u32,
    },
}

impl Advanced {
    /// The counter movement `(from, to)` regardless of who moved.
    pub fn movement(&self) -> (u32, u32) {
        match *self {
            Advanced::Initiator { from, to } | Advanced::Responder { from, to } => (from, to),
        }
    }
}

/// The clock component: a period and the catch-up rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderlessClock {
    period: u32,
}

impl LeaderlessClock {
    /// A clock with the given period Ψ (counter values `0..period`).
    ///
    /// # Panics
    ///
    /// Panics if `period < 2`.
    pub fn new(period: u32) -> Self {
        assert!(period >= 2, "clock period must be at least 2");
        Self { period }
    }

    /// The period Ψ.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Circular distance from `x` forward to `y` (how far `y` is ahead).
    #[inline]
    pub fn ahead_by(&self, x: u32, y: u32) -> u32 {
        if y >= x {
            y - x
        } else {
            self.period - x + y
        }
    }

    /// One clock–clock interaction: the circularly-lagging counter advances
    /// by one (ties advance the initiator `a`). Both counters must lie in
    /// `0..period`.
    #[inline]
    pub fn interact(&self, a: &mut u32, b: &mut u32) -> Advanced {
        debug_assert!(*a < self.period && *b < self.period);
        if self.ahead_by(*a, *b) > self.period / 2 {
            // b is circularly behind a.
            let from = *b;
            *b = self.tick(from);
            Advanced::Responder { from, to: *b }
        } else {
            // a is behind, or the counters tie: the initiator advances,
            // which is the "ties broken arbitrarily" of Algorithm 1.
            let from = *a;
            *a = self.tick(from);
            Advanced::Initiator { from, to: *a }
        }
    }

    /// `(g + 1) mod period` for a counter `g < period`, wrapped by a
    /// compare instead of a division.
    #[inline]
    fn tick(&self, g: u32) -> u32 {
        if g + 1 == self.period {
            0
        } else {
            g + 1
        }
    }
}

/// Circular spread of a set of counter values: the arc length of the
/// smallest arc containing all of them. A healthy clock keeps this well
/// below `period / 2`.
pub fn circular_spread(values: &[u32], period: u32) -> u32 {
    assert!(!values.is_empty());
    let mut sorted: Vec<u32> = values.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() == 1 {
        return 0;
    }
    // Largest gap between consecutive (circularly adjacent) values; the
    // spread is the complement.
    let mut largest_gap = 0;
    for w in sorted.windows(2) {
        largest_gap = largest_gap.max(w[1] - w[0]);
    }
    let wrap_gap = sorted[0] + period - sorted[sorted.len() - 1];
    largest_gap = largest_gap.max(wrap_gap);
    period - largest_gap
}

/// State of one agent in the standalone clock run: counter plus how many
/// times it has wrapped (the wrap count exists for measurement only and is
/// not part of the protocol's state space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClockAgent {
    /// Counter position in `0..period`.
    pub g: u32,
    /// Completed wraps past zero.
    pub wraps: u32,
}

/// Standalone protocol: a pure population of clock agents. Used to measure
/// wave speed (counter advances per parallel time), skew and the
/// concentration of wrap times, which calibrate the tournament phase lengths
/// (experiment X12).
#[derive(Debug, Clone)]
pub struct LeaderlessClockRun {
    clock: LeaderlessClock,
    /// `first_wrap_at[w]` is the interaction at which the first agent
    /// completed wrap `w + 1` — the paper's `s(i)` milestones.
    pub first_wrap_at: Vec<u64>,
}

impl LeaderlessClockRun {
    /// A standalone run over `n` agents with the given period.
    pub fn new(n: usize, period: u32) -> (Self, Vec<ClockAgent>) {
        (
            Self {
                clock: LeaderlessClock::new(period),
                first_wrap_at: Vec::new(),
            },
            vec![ClockAgent::default(); n],
        )
    }

    /// The underlying clock component.
    pub fn clock(&self) -> &LeaderlessClock {
        &self.clock
    }
}

impl Protocol for LeaderlessClockRun {
    type State = ClockAgent;

    fn interact(&mut self, t: u64, a: &mut ClockAgent, b: &mut ClockAgent, _rng: &mut SimRng) {
        let adv = self.clock.interact(&mut a.g, &mut b.g);
        let (from, to) = adv.movement();
        if from == self.clock.period() - 1 && to == 0 {
            let agent = match adv {
                Advanced::Initiator { .. } => a,
                Advanced::Responder { .. } => b,
            };
            agent.wraps += 1;
            // The first agent to reach wrap count w defines milestone w.
            if agent.wraps as usize > self.first_wrap_at.len() {
                self.first_wrap_at.push(t);
            }
        }
    }

    fn converged(&self, _states: &[ClockAgent]) -> Option<u32> {
        None
    }

    fn encode(&self, state: &ClockAgent) -> u64 {
        u64::from(state.g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{RunOptions, Simulation};

    #[test]
    fn lagging_counter_advances() {
        let c = LeaderlessClock::new(10);
        let (mut a, mut b) = (3u32, 5u32);
        // a is behind by 2.
        let adv = c.interact(&mut a, &mut b);
        assert_eq!(adv, Advanced::Initiator { from: 3, to: 4 });
        assert_eq!((a, b), (4, 5));
    }

    #[test]
    fn circular_wraparound_is_respected() {
        let c = LeaderlessClock::new(10);
        // b=9, a=1: a is *ahead* circularly (9 → 0 → 1), so b advances.
        let (mut a, mut b) = (1u32, 9u32);
        let adv = c.interact(&mut a, &mut b);
        assert_eq!(adv, Advanced::Responder { from: 9, to: 0 });
        assert_eq!((a, b), (1, 0));
    }

    #[test]
    fn tie_advances_initiator() {
        let c = LeaderlessClock::new(10);
        let (mut a, mut b) = (7u32, 7u32);
        let adv = c.interact(&mut a, &mut b);
        assert_eq!(adv, Advanced::Initiator { from: 7, to: 8 });
        assert_eq!((a, b), (8, 7));
    }

    #[test]
    fn last_counter_value_wraps_to_zero() {
        let c = LeaderlessClock::new(10);
        // The initiator trails its partner by one.
        let (mut a, mut b) = (9u32, 0u32);
        assert_eq!(
            c.interact(&mut a, &mut b),
            Advanced::Initiator { from: 9, to: 0 }
        );
        assert_eq!((a, b), (0, 0));
        // The responder trails its partner by one.
        let (mut a, mut b) = (0u32, 9u32);
        assert_eq!(
            c.interact(&mut a, &mut b),
            Advanced::Responder { from: 9, to: 0 }
        );
        assert_eq!((a, b), (0, 0));
        // A tie.
        let (mut a, mut b) = (9u32, 9u32);
        assert_eq!(
            c.interact(&mut a, &mut b),
            Advanced::Initiator { from: 9, to: 0 }
        );
        assert_eq!((a, b), (0, 9));
    }

    #[test]
    fn spread_of_tight_cluster_is_small() {
        assert_eq!(circular_spread(&[1, 2, 3], 100), 2);
        // Cluster straddling zero.
        assert_eq!(circular_spread(&[98, 99, 0, 1], 100), 3);
        assert_eq!(circular_spread(&[5], 100), 0);
    }

    #[test]
    fn clock_population_stays_synchronised() {
        let n = 1000;
        let period = 64;
        let (proto, states) = LeaderlessClockRun::new(n, period);
        let mut sim = Simulation::new(proto, states, 11);
        sim.run(&RunOptions::with_parallel_time_budget(n, 2000.0));
        let counters: Vec<u32> = sim.states().iter().map(|s| s.g).collect();
        let spread = circular_spread(&counters, period);
        assert!(
            spread < period / 2,
            "clock skew {spread} of period {period}"
        );
        // Liveness: with ~2000 total increments per agent the clock must
        // have wrapped many times.
        assert!(
            sim.protocol().first_wrap_at.len() > 10,
            "only {} wraps",
            sim.protocol().first_wrap_at.len()
        );
    }

    #[test]
    fn clock_advances_at_constant_rate() {
        // With all n agents being clocks, total increments per interaction
        // is exactly 1, so mean counter movement per parallel time is 1.
        let n = 512;
        let period = 1 << 30; // effectively unbounded: count raw advances
        let (proto, states) = LeaderlessClockRun::new(n, period);
        let mut sim = Simulation::new(proto, states, 3);
        sim.run(&RunOptions::with_parallel_time_budget(n, 300.0));
        let mean: f64 = sim.states().iter().map(|s| s.g as f64).sum::<f64>() / n as f64;
        assert!(
            (mean - 300.0).abs() < 60.0,
            "mean advance {mean} vs expected 300"
        );
    }

    #[test]
    fn wrap_spacing_is_concentrated() {
        let n = 1000;
        let period = 60;
        let (proto, states) = LeaderlessClockRun::new(n, period);
        let mut sim = Simulation::new(proto, states, 29);
        sim.run(&RunOptions::with_parallel_time_budget(n, 3000.0));
        let marks = &sim.protocol().first_wrap_at;
        assert!(marks.len() >= 5, "need several wraps, got {}", marks.len());
        let gaps: Vec<f64> = marks.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let max = gaps.iter().cloned().fold(f64::MIN, f64::max);
        let min = gaps.iter().cloned().fold(f64::MAX, f64::min);
        // Ticks are regular: no gap strays past 3x/0.2x of the mean.
        assert!(
            max < 3.0 * mean,
            "irregular clock: max gap {max}, mean {mean}"
        );
        assert!(
            min > 0.2 * mean,
            "irregular clock: min gap {min}, mean {mean}"
        );
    }
}
