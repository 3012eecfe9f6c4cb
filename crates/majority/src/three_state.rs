//! The 3-state approximate majority of Angluin–Aspnes–Eisenstat \[4\].
//!
//! States: opinion `A`, opinion `B`, or blank. An opinionated initiator
//! blanks a responder of the opposite opinion and recruits a blank
//! responder. Converges in `O(log n)` parallel time w.h.p., but identifies
//! the true majority only when the initial bias is `Ω(√(n·log n))` — the
//! canonical example of *approximate* (non-exact) majority, included as the
//! baseline the paper's protocols are measured against (experiment X13
//! flavour for k = 2).
//!
//! The protocol is written once, as a transition table: it runs on the
//! batched engine as it is and on the sequential engine as
//! `Simulation<SeqTable<ThreeState>>` (see [`pp_engine::SeqTable`]).

use pp_engine::SimRng;

/// Blank (undecided) state.
pub const BLANK: usize = 0;
/// Opinion A.
pub const A: usize = 1;
/// Opinion B.
pub const B: usize = 2;

/// The 3-state approximate-majority protocol, as a deterministic
/// transition table over [`BLANK`], [`A`] and [`B`].
#[derive(Debug, Clone, Default)]
pub struct ThreeState;

impl pp_engine::TableProtocol for ThreeState {
    fn states(&self) -> usize {
        3
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
        match (a, b) {
            (A, B) | (B, A) => (a, BLANK),
            (A, BLANK) => (a, A),
            (B, BLANK) => (a, B),
            _ => (a, b),
        }
    }

    fn output(&self, counts: &[u64]) -> Option<u32> {
        if counts[BLANK] != 0 {
            return None;
        }
        match (counts[A], counts[B]) {
            (_, 0) => Some(A as u32),
            (0, _) => Some(B as u32),
            _ => None,
        }
    }

    fn opinion(&self, s: usize) -> Option<u32> {
        (s != BLANK).then_some(s as u32)
    }

    fn opinion_state(&self, opinion: u32) -> Option<usize> {
        matches!(opinion, 1 | 2).then_some(opinion as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{BatchSimulation, RunOptions, RunStatus, SeqTable, Simulation, TableProtocol};

    /// A sequential run from `a` supporters of A and `b` of B.
    fn sequential(a: u64, b: u64, seed: u64) -> Simulation<SeqTable<ThreeState>> {
        let states = SeqTable::<ThreeState>::initial_states(&[0, a, b]);
        Simulation::new(SeqTable::new(ThreeState), states, seed)
    }

    #[test]
    fn large_bias_picks_the_majority() {
        let n = 4096;
        // bias n/4 >> sqrt(n log n) ≈ 185.
        let mut sim = sequential(n / 2 + n / 8, n / 2 - n / 8, 31);
        let r = sim.run(&RunOptions::with_parallel_time_budget(n as usize, 2000.0));
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(A as u32));
    }

    #[test]
    fn convergence_is_fast() {
        let n = 8192;
        let mut sim = sequential(n * 3 / 4, n / 4, 7);
        let r = sim.run(&RunOptions::with_parallel_time_budget(n as usize, 2000.0));
        assert_eq!(r.status, RunStatus::Converged);
        assert!(
            r.parallel_time < 15.0 * (n as f64).ln(),
            "time {}",
            r.parallel_time
        );
    }

    #[test]
    fn bias_one_is_a_coin_flip() {
        // Not a correctness guarantee — exactly the paper's point. Over many
        // trials at bias 1 the loser must win a non-trivial fraction.
        let n = 256;
        let mut wrong = 0;
        let trials = 40;
        for seed in 0..trials {
            let mut sim = sequential(n / 2 + 1, n / 2 - 1, seed);
            let r = sim.run(&RunOptions::with_parallel_time_budget(n as usize, 5000.0));
            if r.output == Some(B as u32) {
                wrong += 1;
            }
        }
        assert!(
            wrong > 5,
            "3-state majority should often fail at bias 1, failed {wrong}/{trials}"
        );
    }

    #[test]
    fn transitions_never_resurrect_a_decided_population() {
        let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(3);
        assert_eq!(ThreeState.delta(A, A, &mut rng), (A, A));
    }

    #[test]
    fn million_agent_majority_via_batch_engine() {
        let n = 1_000_000u64;
        let mut sim = BatchSimulation::new(ThreeState, vec![0, n / 2 + n / 8, n / 2 - n / 8], 7);
        let r = sim.run(&RunOptions {
            max_interactions: 200 * n,
            check_every: 0,
        });
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(A as u32));
        assert!(r.parallel_time < 15.0 * (n as f64).ln());
    }
}
