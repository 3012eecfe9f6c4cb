//! `SimpleAlgorithm` — the paper's first protocol (Theorem 1(1)).
//!
//! Opinions are numbered `1..=k`. After an initialization phase that
//! collects tokens and splits the population into collector / clock /
//! tracker / player roles, `k − 1` tournaments run back to back: in
//! tournament `i` the current defender (w.h.p. the plurality among opinions
//! `1..=i`) meets challenger `i + 1` in an exact two-opinion match. The
//! final defender is broadcast to everyone. W.h.p. correct for any bias
//! ≥ 1 in `O(k·log n)` parallel time with `O(k + log n)` states.

use pp_engine::{Protocol, Replacement, SimRng};
use pp_workloads::OpinionAssignment;

use crate::config::Tuning;
use crate::roles::{Agent, Role};
use crate::tournament::{Machine, Milestones, Mode};

/// The ordered plurality-consensus protocol.
#[derive(Debug, Clone)]
pub struct SimpleAlgorithm {
    machine: Machine,
}

impl SimpleAlgorithm {
    /// Build the protocol and its initial configuration for an opinion
    /// assignment.
    ///
    /// The paper's Theorem 1 assumes `k ≤ n/40`; the protocol itself runs
    /// (with weaker guarantees, cf. Appendix C) for any `k < n`, so we only
    /// require room for the role split.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2k` or `n < 40`.
    pub fn new(assignment: &OpinionAssignment, tuning: Tuning) -> (Self, Vec<Agent>) {
        let n = assignment.n();
        let k = assignment.k() as u16;
        assert!(n >= 40, "population too small to split into roles");
        assert!(n >= 2 * usize::from(k), "need n >= 2k");
        let machine = Machine::new(Mode::Ordered, false, n, k, tuning);
        let phase = machine.initial_phase();
        let states = assignment
            .opinions()
            .iter()
            .map(|&op| {
                let mut agent = Agent::collector(op, phase, true);
                // Lemma 3(3): opinion 1 starts as the first defender. The
                // paper sets the bit at each agent's first interaction; we
                // set it at time 0 (outcome-equivalent).
                if op == 1 {
                    if let Role::Collector(c) = &mut agent.role {
                        c.defender = true;
                    }
                }
                agent
            })
            .collect();
        (Self { machine }, states)
    }

    /// Recorded milestones (init end, first winner, …).
    pub fn milestones(&self) -> &Milestones {
        &self.machine.milestones
    }

    /// The underlying machine (schedule, majority config, …).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

impl Protocol for SimpleAlgorithm {
    type State = Agent;

    fn interact(&mut self, t: u64, a: &mut Agent, b: &mut Agent, rng: &mut SimRng) {
        self.machine.interact(t, a, b, rng);
    }

    fn converged(&self, states: &[Agent]) -> Option<u32> {
        self.machine.converged(states)
    }

    fn encode(&self, state: &Agent) -> u64 {
        self.machine.encode(state)
    }

    fn fault_state(&self, replacement: &Replacement, rng: &mut SimRng) -> Option<Agent> {
        self.machine.fault_state(replacement, rng)
    }

    fn opinion_of(&self, state: &Agent) -> Option<u32> {
        state.as_collector().map(|c| u32::from(c.opinion))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{RunOptions, RunStatus, Simulation};
    use pp_workloads::Counts;

    fn run(counts: Counts, seed: u64, budget: f64) -> (pp_engine::RunResult, u32) {
        let assignment = counts.assignment();
        let expected = assignment.plurality();
        let (proto, states) = SimpleAlgorithm::new(&assignment, Tuning::default());
        let mut sim = Simulation::new(proto, states, seed);
        let r = sim.run(&RunOptions::with_parallel_time_budget(
            assignment.n(),
            budget,
        ));
        (r, expected)
    }

    #[test]
    fn two_opinions_bias_one() {
        // Odd n so a true bias of 1 is feasible with k = 2.
        let (r, expected) = run(Counts::bias_one(601, 2), 11, 100_000.0);
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(expected));
    }

    #[test]
    fn four_opinions_bias_one() {
        let (r, expected) = run(Counts::bias_one(800, 4), 5, 300_000.0);
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(expected));
    }

    #[test]
    fn plurality_not_first_opinion() {
        // Opinion 3 dominates: the defender bit must migrate through the
        // tournaments.
        let counts = Counts::from_supports(vec![100, 100, 260, 140]);
        let (r, expected) = run(counts, 9, 300_000.0);
        assert_eq!(expected, 3);
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(3));
    }

    #[test]
    fn single_opinion_trivially_wins() {
        let (r, expected) = run(Counts::from_supports(vec![500]), 3, 100_000.0);
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(expected));
    }

    #[test]
    fn skimpy_tuning_fails_gracefully() {
        // Deliberately under-provisioned constants: the run may finish with
        // the wrong opinion or exhaust its budget, but it must not panic.
        let counts = Counts::bias_one(400, 3);
        let assignment = counts.assignment();
        let (proto, states) = SimpleAlgorithm::new(&assignment, Tuning::skimpy());
        let mut sim = Simulation::new(proto, states, 1);
        let _ = sim.run(&RunOptions::with_parallel_time_budget(
            assignment.n(),
            20_000.0,
        ));
    }

    #[test]
    fn milestones_are_recorded() {
        let counts = Counts::bias_one(601, 2);
        let assignment = counts.assignment();
        let (proto, states) = SimpleAlgorithm::new(&assignment, Tuning::default());
        let mut sim = Simulation::new(proto, states, 2);
        let r = sim.run(&RunOptions::with_parallel_time_budget(
            assignment.n(),
            100_000.0,
        ));
        assert_eq!(r.status, RunStatus::Converged);
        let ms = sim.protocol().milestones();
        let init_end = ms.init_end.expect("init end recorded");
        let first_winner = ms.first_winner.expect("winner recorded");
        assert!(init_end < first_winner);
    }
}
