//! Discrete load balancing by pairwise floor/ceil averaging [12, 28].

use pp_engine::{Protocol, SimRng};

/// One rebalancing step: `(a, b) → (⌊(a+b)/2⌋, ⌈(a+b)/2⌉)`.
///
/// The sum is preserved exactly, which is the invariant Algorithm 4's
/// cancellation phase relies on: the signed token total
/// `L = x_defender − x_challenger` survives the phase.
#[inline]
pub fn balance(a: i64, b: i64) -> (i64, i64) {
    let sum = a + b;
    // Rust's `/` truncates toward zero; emulate floor/ceil for negatives.
    let floor = sum.div_euclid(2);
    let ceil = sum - floor;
    (floor, ceil)
}

/// Standalone load-balancing protocol over signed integer loads, used to
/// measure the convergence constant (experiment X12): after `c·n·ln n`
/// interactions the discrepancy `max − min` is at most 1 w.h.p.
#[derive(Debug, Clone, Default)]
pub struct LoadBalance;

impl Protocol for LoadBalance {
    type State = i64;

    #[inline]
    fn interact(&mut self, _t: u64, a: &mut i64, b: &mut i64, _rng: &mut SimRng) {
        let (x, y) = balance(*a, *b);
        *a = x;
        *b = y;
    }

    fn converged(&self, states: &[i64]) -> Option<u32> {
        // [12, 28] guarantee every load within ±1 of the average after
        // O(n·log n) interactions, i.e. a discrepancy of at most 2. The last
        // step down to discrepancy 1 has a slow Θ(n) tail (a lone `avg+1`
        // must meet a lone `avg−1`), so the paper — and this predicate —
        // settle for the ±1 band.
        let min = *states.iter().min().expect("non-empty");
        let max = *states.iter().max().expect("non-empty");
        (max - min <= 2).then_some(0)
    }
}

/// Discrepancy (`max − min`) of a configuration; the quantity bounded by
/// [12, 28].
pub fn discrepancy(states: &[i64]) -> i64 {
    let min = *states.iter().min().expect("non-empty");
    let max = *states.iter().max().expect("non-empty");
    max - min
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{RunOptions, RunStatus, Simulation};

    #[test]
    fn balance_preserves_sum_and_orders_floor_ceil() {
        for (a, b) in [
            (5, 2),
            (-5, 2),
            (-3, -4),
            (7, 7),
            (0, -1),
            (i64::from(i32::MAX), 1),
        ] {
            let (x, y) = balance(a, b);
            assert_eq!(x + y, a + b, "sum broken for ({a},{b})");
            assert!(
                y - x <= 1 && y >= x,
                "floor/ceil broken for ({a},{b}): ({x},{y})"
            );
        }
    }

    #[test]
    fn balancing_converges_to_band() {
        let mut states = vec![0i64; 1000];
        states[0] = 500; // one heavily loaded agent
        let mut sim = Simulation::new(LoadBalance, states, 3);
        let r = sim.run(&RunOptions::with_parallel_time_budget(1000, 2000.0));
        assert_eq!(r.status, RunStatus::Converged);
        assert!(discrepancy(sim.states()) <= 2);
        // Sum preserved: 500 over 1000 agents → loads near 0.5.
        let sum: i64 = sim.states().iter().sum();
        assert_eq!(sum, 500);
        assert!(sim.states().iter().all(|&s| (-1..=2).contains(&s)));
    }

    #[test]
    fn negative_loads_cancel() {
        // +1s and −1s in equal measure average to 0 everywhere.
        let mut states = vec![1i64; 512];
        states.iter_mut().skip(256).for_each(|s| *s = -1);
        let mut sim = Simulation::new(LoadBalance, states, 9);
        let r = sim.run(&RunOptions::with_parallel_time_budget(512, 2000.0));
        assert_eq!(r.status, RunStatus::Converged);
        let sum: i64 = sim.states().iter().sum();
        assert_eq!(sum, 0);
        assert!(sim.states().iter().all(|&s| (-1..=1).contains(&s)));
        assert!(discrepancy(sim.states()) <= 2);
    }

    #[test]
    fn convergence_time_is_quasilinear() {
        // c·ln n parallel time with a modest constant.
        let n = 4096;
        let mut states = vec![0i64; n];
        states[0] = n as i64;
        let mut sim = Simulation::new(LoadBalance, states, 1);
        let r = sim.run(&RunOptions::with_parallel_time_budget(n, 10_000.0));
        assert_eq!(r.status, RunStatus::Converged);
        assert!(
            r.parallel_time < 40.0 * (n as f64).ln(),
            "time {}",
            r.parallel_time
        );
    }
}
