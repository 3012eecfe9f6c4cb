//! Run a [`TableProtocol`] on the sequential per-agent engine.
//!
//! The batched configuration-space engine is the fast path for table
//! protocols, but some runs still need the sequential scheduler:
//!
//! * **A/B validation** — the `--engine seq` flag of the experiment driver
//!   re-runs every table-protocol arm per-agent so batched statistics can
//!   be cross-checked on identical inputs, and the engine-equivalence
//!   tests take their reference times from it;
//! * **census collection** — distinct-state tracking
//!   ([`crate::Simulation::run_with_census`]) needs per-agent states;
//! * **trajectories** — observers that read every agent's state
//!   ([`crate::Simulation::run_observed`]).
//!
//! [`SeqTable`] is the only per-agent form of a table: the constant-state
//! baselines (3- and 4-state majority, USD) are written once, as tables,
//! and reach the sequential engine only as `Simulation<SeqTable<_>>`.

use rand::Rng;

use crate::batch::TableProtocol;
use crate::fault::Replacement;
use crate::protocol::{Protocol, SimRng};

/// Adapter running a [`TableProtocol`] under [`crate::Simulation`].
///
/// Agent states are the table's state indices. The convergence predicate
/// tallies the configuration and defers to [`TableProtocol::output`], so
/// the decision matches the batched engines exactly.
#[derive(Debug, Clone)]
pub struct SeqTable<P: TableProtocol> {
    table: P,
}

impl<P: TableProtocol> SeqTable<P> {
    /// Wrap `table` for the sequential engine.
    pub fn new(table: P) -> Self {
        Self { table }
    }

    /// Expand a configuration (`counts[s]` agents in state `s`) into the
    /// per-agent state vector the sequential engine needs. Agents of equal
    /// state are contiguous; the uniform scheduler makes ordering
    /// irrelevant.
    pub fn initial_states(counts: &[u64]) -> Vec<u32> {
        let mut states = Vec::with_capacity(counts.iter().sum::<u64>() as usize);
        for (s, &c) in counts.iter().enumerate() {
            states.extend(std::iter::repeat_n(s as u32, c as usize));
        }
        states
    }
}

impl<P: TableProtocol> Protocol for SeqTable<P> {
    type State = u32;

    #[inline]
    fn interact(&mut self, _t: u64, a: &mut u32, b: &mut u32, rng: &mut SimRng) {
        let (x, y) = self.table.delta(*a as usize, *b as usize, rng);
        *a = x as u32;
        *b = y as u32;
    }

    fn converged(&self, states: &[u32]) -> Option<u32> {
        let mut counts = vec![0u64; self.table.states()];
        for &s in states {
            counts[s as usize] += 1;
        }
        self.table.output(&counts)
    }

    fn encode(&self, state: &u32) -> u64 {
        u64::from(*state)
    }

    fn fault_state(&self, replacement: &Replacement, rng: &mut SimRng) -> Option<u32> {
        match *replacement {
            Replacement::Random => Some(rng.gen_range(0..self.table.states()) as u32),
            Replacement::Opinion(o) => self.table.opinion_state(o).map(|s| s as u32),
            // The engine restores the victim's initial state itself.
            Replacement::Rejoin => None,
        }
    }

    fn opinion_of(&self, state: &u32) -> Option<u32> {
        self.table.opinion(*state as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunOptions, RunStatus, Simulation};

    /// One-way epidemic as a table: state 1 infects state 0.
    struct EpidemicTable;
    impl TableProtocol for EpidemicTable {
        fn states(&self) -> usize {
            2
        }
        fn is_deterministic(&self) -> bool {
            true
        }
        fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
            if a == 1 || b == 1 {
                (1, 1)
            } else {
                (0, 0)
            }
        }
        fn output(&self, counts: &[u64]) -> Option<u32> {
            (counts[0] == 0).then_some(1)
        }
    }

    #[test]
    fn initial_states_expand_the_configuration() {
        let states = SeqTable::<EpidemicTable>::initial_states(&[2, 3]);
        assert_eq!(states, vec![0, 0, 1, 1, 1]);
    }

    #[test]
    fn epidemic_completes_under_the_adapter() {
        let mut states = SeqTable::<EpidemicTable>::initial_states(&[1023, 1]);
        states.sort_unstable(); // irrelevant under the uniform scheduler
        let mut sim = Simulation::new(SeqTable::new(EpidemicTable), states, 9);
        let r = sim.run(&RunOptions::with_parallel_time_budget(1024, 200.0));
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(1));
    }

    #[test]
    fn census_sees_exactly_the_occupied_table_states() {
        let states = SeqTable::<EpidemicTable>::initial_states(&[100, 1]);
        let mut sim = Simulation::new(SeqTable::new(EpidemicTable), states, 3);
        let mut census = crate::Census::new();
        let r = sim.run_with_census(
            &RunOptions::with_parallel_time_budget(101, 500.0),
            &mut census,
        );
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(census.len(), 2);
    }
}
