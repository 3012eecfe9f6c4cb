//! End-to-end exactness: all three protocols identify the plurality on
//! bias-1 inputs across several shapes and seeds.

use exact_plurality::prelude::*;

fn run(algorithm: Algorithm, counts: &Counts, seed: u64, budget: f64) -> (RunResult, u32) {
    let assignment = counts.assignment();
    let (machine, states) = Machine::start(algorithm, &assignment, Tuning::default());
    let mut sim = Simulation::new(machine, states, seed);
    let opts = RunOptions::with_parallel_time_budget(assignment.n(), budget);
    (sim.run(&opts), assignment.plurality())
}

#[test]
fn simple_is_exact_on_bias_one_across_seeds() {
    let counts = Counts::bias_one(901, 3);
    for seed in 0..5 {
        let (r, expected) = run(Algorithm::Simple, &counts, seed, 500_000.0);
        assert!(r.is_correct(expected), "seed {seed}: {r:?}");
    }
}

#[test]
fn unordered_is_exact_on_bias_one() {
    let counts = Counts::bias_one(901, 3);
    for seed in 0..3 {
        let (r, expected) = run(Algorithm::Unordered, &counts, seed, 800_000.0);
        assert!(r.is_correct(expected), "seed {seed}: {r:?}");
    }
}

#[test]
fn improved_is_exact_on_the_theorem2_regime() {
    // x_max ≈ n^0.87 with many insignificant opinions.
    let counts = Counts::one_large(1500, 12, 600);
    for seed in 0..3 {
        let (r, expected) = run(Algorithm::Improved, &counts, seed, 800_000.0);
        assert!(r.is_correct(expected), "seed {seed}: {r:?}");
    }
}

#[test]
fn plurality_in_last_position_is_found() {
    // The ordered protocol must carry the defender bit through k − 1
    // tournaments to the final opinion.
    let counts = Counts::from_supports(vec![200, 200, 200, 201]);
    let (r, expected) = run(Algorithm::Simple, &counts, 3, 800_000.0);
    assert_eq!(expected, 4);
    assert!(r.is_correct(4), "{r:?}");
}

#[test]
fn heavy_tailed_landscape_converges() {
    let counts = Counts::zipf(1200, 8, 1.0);
    let (r, expected) = run(Algorithm::Simple, &counts, 1, 900_000.0);
    assert!(r.is_correct(expected), "{r:?}");
}

#[test]
fn geometric_landscape_with_improved() {
    let counts = Counts::geometric(1200, 8, 0.5);
    let (r, expected) = run(Algorithm::Improved, &counts, 2, 900_000.0);
    assert!(r.is_correct(expected), "{r:?}");
}
