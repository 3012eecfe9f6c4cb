//! Undecided-state dynamics (USD) for `k` opinions.
//!
//! The classic opinion dynamics behind approximate plurality consensus
//! (cf. \[7\] and its predecessors): an opinionated agent meeting a
//! *different* opinion blanks its partner; a blank agent adopts the opinion
//! it next encounters. Consensus is reached quickly, but on close inputs the
//! winner is essentially a (support-weighted) lottery — USD solves
//! *approximate*, never *exact*, plurality.
//!
//! The dynamics are written once, as the transition table [`UsdTable`]: it
//! runs on the batched engine as it is and on the sequential engine as
//! `Simulation<SeqTable<UsdTable>>` (see [`pp_engine::SeqTable`]).

use pp_engine::SimRng;

/// USD over a fixed opinion count `k`, as a deterministic transition
/// table: state 0 is undecided, states `1..=k` are the opinions.
#[derive(Debug, Clone)]
pub struct UsdTable {
    k: usize,
}

impl UsdTable {
    /// A table for `k` opinions.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        Self { k }
    }

    /// Initial configuration from a support vector (`supports[i]` agents
    /// hold opinion `i + 1`).
    pub fn initial_counts(&self, supports: &[usize]) -> Vec<u64> {
        assert_eq!(supports.len(), self.k);
        let mut counts = vec![0u64; self.k + 1];
        for (i, &s) in supports.iter().enumerate() {
            counts[i + 1] = s as u64;
        }
        counts
    }
}

impl pp_engine::TableProtocol for UsdTable {
    fn states(&self) -> usize {
        self.k + 1
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
        match (a, b) {
            (0, 0) => (0, 0),
            (x, 0) => (x, x),
            (0, y) => (y, y),
            (x, y) if x != y => (x, 0),
            same => same,
        }
    }

    fn output(&self, counts: &[u64]) -> Option<u32> {
        if counts[0] != 0 {
            return None;
        }
        let mut winner = None;
        for (s, &c) in counts.iter().enumerate().skip(1) {
            if c > 0 {
                if winner.is_some() {
                    return None;
                }
                winner = Some(s as u32);
            }
        }
        winner
    }

    fn opinion(&self, s: usize) -> Option<u32> {
        (s >= 1).then_some(s as u32)
    }

    fn opinion_state(&self, opinion: u32) -> Option<usize> {
        (1..=self.k as u32)
            .contains(&opinion)
            .then_some(opinion as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{BatchSimulation, RunOptions, RunStatus, SeqTable, Simulation, TableProtocol};
    use pp_workloads::Counts;

    /// A sequential run from `counts`, agents contiguous by opinion.
    fn sequential(counts: &Counts, seed: u64) -> Simulation<SeqTable<UsdTable>> {
        let table = UsdTable::new(counts.k());
        let states = SeqTable::<UsdTable>::initial_states(&table.initial_counts(counts.supports()));
        Simulation::new(SeqTable::new(table), states, seed)
    }

    #[test]
    fn overwhelming_plurality_wins() {
        let counts = Counts::from_supports(vec![3000, 500, 500]);
        let mut sim = sequential(&counts, 3);
        let r = sim.run(&RunOptions::with_parallel_time_budget(counts.n(), 10_000.0));
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(1));
    }

    #[test]
    fn consensus_is_fast() {
        let counts = Counts::from_supports(vec![6000, 1000, 1000]);
        let mut sim = sequential(&counts, 5);
        let r = sim.run(&RunOptions::with_parallel_time_budget(counts.n(), 10_000.0));
        assert_eq!(r.status, RunStatus::Converged);
        assert!(
            r.parallel_time < 20.0 * (counts.n() as f64).ln(),
            "time {}",
            r.parallel_time
        );
    }

    #[test]
    fn bias_one_fails_often() {
        // The paper's motivation: USD is *approximate* — at bias 1 the
        // plurality opinion loses a non-trivial fraction of runs.
        let n = 400;
        let counts = Counts::bias_one(n, 2);
        let mut wrong = 0;
        let trials = 40;
        for seed in 0..trials {
            let mut sim = sequential(&counts, seed);
            let r = sim.run(&RunOptions::with_parallel_time_budget(n, 50_000.0));
            if r.status == RunStatus::Converged && r.output != Some(1) {
                wrong += 1;
            }
        }
        assert!(
            wrong > 5,
            "USD should fail regularly at bias 1, failed {wrong}/{trials}"
        );
    }

    #[test]
    fn million_agent_usd_with_large_bias() {
        let t = UsdTable::new(3);
        let counts = t.initial_counts(&[600_000, 250_000, 150_000]);
        let mut sim = BatchSimulation::new(t, counts, 21);
        let r = sim.run(&RunOptions {
            max_interactions: 300_000_000,
            check_every: 0,
        });
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(1));
    }

    #[test]
    fn undecided_agents_adopt() {
        let t = UsdTable::new(4);
        let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(1);
        assert_eq!(t.delta(0, 4, &mut rng), (4, 4));
        assert_eq!(t.delta(2, 3, &mut rng), (2, 0));
    }
}
