//! The classic 4-state stable exact majority.
//!
//! States: *strong* `A`/`B` (carrying the agent's original vote as a token)
//! and *weak* `a`/`b` (an opinion without a token). Strong opposites
//! annihilate into weak states — preserving the token difference
//! `#A − #B` exactly — and surviving strong agents convert weak agents to
//! their side. For any bias `d ≥ 1` the minority's strong tokens are
//! eventually wiped out and the `d` surviving majority tokens convert
//! everyone: *always correct*. The price is time: with `d = 1` the final
//! annihilation and the single-token conversion sweep cost `Θ(n)` parallel
//! time — the baseline demonstrating why the paper accepts a small failure
//! probability to get `O(log n)`-time building blocks (experiment X10).
//!
//! The protocol is written once, as a transition table: it runs on the
//! batched engine as it is (up to `n = 10⁸` in the experiments) and on
//! the sequential engine as `Simulation<SeqTable<FourState>>` (see
//! [`pp_engine::SeqTable`]).

use pp_engine::SimRng;

/// The 4-state stable exact-majority protocol, as a deterministic
/// transition table over states `0..4`: 0 = strong A, 1 = strong B (the
/// token holders), 2 = weak a, 3 = weak b.
#[derive(Debug, Clone, Default)]
pub struct FourState;

impl pp_engine::TableProtocol for FourState {
    fn states(&self) -> usize {
        4
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
        match (a, b) {
            // Strong opposites annihilate into weak opinions.
            (0, 1) => (2, 3),
            (1, 0) => (3, 2),
            // Strong agents convert weak opposites.
            (0, 3) => (0, 2),
            (1, 2) => (1, 3),
            (3, 0) => (2, 0),
            (2, 1) => (3, 1),
            _ => (a, b),
        }
    }

    fn output(&self, counts: &[u64]) -> Option<u32> {
        let saw_a = counts[0] + counts[2] > 0;
        let saw_b = counts[1] + counts[3] > 0;
        match (saw_a, saw_b) {
            (true, true) => None,
            (true, false) => Some(1),
            (false, _) => Some(2),
        }
    }

    fn opinion(&self, s: usize) -> Option<u32> {
        match s {
            0 | 2 => Some(1),
            1 | 3 => Some(2),
            _ => None,
        }
    }

    fn opinion_state(&self, opinion: u32) -> Option<usize> {
        // Injected agents enter strong (token-carrying) — a fresh vote.
        match opinion {
            1 => Some(0),
            2 => Some(1),
            _ => None,
        }
    }
}

/// Initial per-state counts for the table form: `a` strong-A, `b` strong-B.
pub fn four_state_counts(a: u64, b: u64) -> Vec<u64> {
    vec![a, b, 0, 0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{BatchSimulation, RunOptions, RunStatus, SeqTable, Simulation, TableProtocol};

    /// A sequential run from `a` strong-A and `b` strong-B agents.
    fn sequential(a: u64, b: u64, seed: u64) -> Simulation<SeqTable<FourState>> {
        let states = SeqTable::<FourState>::initial_states(&four_state_counts(a, b));
        Simulation::new(SeqTable::new(FourState), states, seed)
    }

    #[test]
    fn exact_at_bias_one_always() {
        for seed in 0..10 {
            let n = 200;
            let mut sim = sequential(n / 2 + 1, n / 2 - 1, seed);
            let r = sim.run(&RunOptions::with_parallel_time_budget(
                n as usize, 200_000.0,
            ));
            assert_eq!(r.status, RunStatus::Converged, "seed {seed}");
            assert_eq!(r.output, Some(1), "seed {seed}");
        }
    }

    #[test]
    fn minority_never_wins() {
        let mut sim = sequential(200, 300, 77);
        let r = sim.run(&RunOptions::with_parallel_time_budget(500, 200_000.0));
        assert_eq!(r.output, Some(2));
    }

    #[test]
    fn token_difference_is_invariant() {
        // #strong-A − #strong-B (states 0 and 1) survives every transition.
        let token = |s: usize| match s {
            0 => 1,
            1 => -1,
            _ => 0,
        };
        let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(5);
        for a in 0..4 {
            for b in 0..4 {
                let (x, y) = FourState.delta(a, b, &mut rng);
                assert_eq!(
                    token(x) + token(y),
                    token(a) + token(b),
                    "({a},{b}) -> ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn batched_four_state_is_exact_at_scale() {
        let n = 1_000_000u64;
        // Minority-heavy weak start is irrelevant for the table: strong
        // counts decide. Bias n/100 keeps runtime tame at this n.
        let counts = four_state_counts(n / 2 + n / 100, n / 2 - n / 100);
        let mut sim = BatchSimulation::new(FourState, counts, 19);
        let r = sim.run(&RunOptions {
            max_interactions: 2000 * n,
            check_every: 0,
        });
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(1));
    }

    #[test]
    fn bias_one_is_slow() {
        // Θ(n) parallel time: at n = 512 expect hundreds of time units,
        // far above the O(log n) of cancel/split.
        let n = 512;
        let mut sim = sequential(n / 2 + 1, n / 2 - 1, 3);
        let r = sim.run(&RunOptions::with_parallel_time_budget(
            n as usize,
            1_000_000.0,
        ));
        assert_eq!(r.status, RunStatus::Converged);
        assert!(
            r.parallel_time > 2.0 * (n as f64).ln(),
            "suspiciously fast: {}",
            r.parallel_time
        );
    }
}
