//! State-space accounting: the census stays within the paper's envelopes
//! and far below the always-correct Ω(k²) bound.

use exact_plurality::prelude::*;

fn census_of_simple(n: usize, k: usize, seed: u64) -> usize {
    let counts = Counts::bias_one(n, k);
    let assignment = counts.assignment();
    let (proto, states) = Machine::start(Algorithm::Simple, &assignment, Tuning::default());
    let mut sim = Simulation::new(proto, states, seed);
    let mut census = Census::new();
    let r = sim.run_with_census(
        &RunOptions::with_parallel_time_budget(n, 300_000.0 * k as f64),
        &mut census,
    );
    assert_eq!(r.status, RunStatus::Converged, "census run must converge");
    census.len()
}

#[test]
fn simple_census_is_linear_in_k_not_quadratic() {
    // Doubling k roughly doubles the k-dependent share; it must stay far
    // from quadratic growth.
    let c4 = census_of_simple(800, 4, 1);
    let c8 = census_of_simple(800, 8, 1);
    assert!(c8 < 3 * c4, "k-growth too steep: census {c4} -> {c8}");
    // Both far below the always-correct Ω(k²)·constant regime at this size:
    // with C·(k + log n) and a generous per-item constant, a few thousand
    // states is the expected magnitude; k²·that would be tens of thousands.
    assert!(c8 < 8 * 8 * 150, "census {c8} is quadratic-scale");
}

#[test]
fn simple_census_grows_slowly_in_n() {
    let c1 = census_of_simple(600, 3, 2);
    let c2 = census_of_simple(2400, 3, 2);
    // ln(2400)/ln(600) ≈ 1.22: a 4x population pays well under 2x states.
    assert!(
        (c2 as f64) < 2.0 * c1 as f64,
        "n-growth too steep: {c1} -> {c2} for a 4x population"
    );
}

#[test]
fn encodings_distinguish_core_fields() {
    // Different opinions, phases and roles must encode differently; this is
    // what makes the census a sound lower bound on used state counts.
    use exact_plurality::core::roles::Agent;
    let counts = Counts::bias_one(600, 3);
    let assignment = counts.assignment();
    let (proto, _) = Machine::start(Algorithm::Simple, &assignment, Tuning::default());
    let a1 = Agent::collector(1, -1, true);
    let a2 = Agent::collector(2, -1, true);
    let mut a3 = Agent::collector(1, -1, true);
    a3.phase = 0;
    let e = |a: &Agent| proto.encode(a);
    assert_ne!(e(&a1), e(&a2));
    assert_ne!(e(&a1), e(&a3));
}
