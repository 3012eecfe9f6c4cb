//! Cross-crate substrate checks: each building block delivers the guarantee
//! the plurality protocols lean on.

use exact_plurality::clocks::junta_clock::JuntaClockRun;
use exact_plurality::clocks::subpop::SubpopClocks;
use exact_plurality::dynamics::load_balance::discrepancy;
use exact_plurality::dynamics::{Epidemic, LoadBalance};
use exact_plurality::engine::{RunOptions, RunStatus, SimRng, Simulation};
use exact_plurality::leader::LeaderElectionRun;
use exact_plurality::majority::cancel_split::CancelSplitRun;
use rand::SeedableRng;

#[test]
fn epidemic_is_logarithmic_across_sizes() {
    for n in [1 << 10, 1 << 13] {
        let states = Epidemic::initial_states(n, 1);
        let mut sim = Simulation::new(Epidemic, states, 5);
        let r = sim.run(&RunOptions::default());
        let model = (n as f64).log2() + (n as f64).ln();
        assert!(
            r.parallel_time < 3.0 * model,
            "epidemic at n={n} took {} (model {model})",
            r.parallel_time
        );
    }
}

#[test]
fn load_balance_hits_the_band_within_logarithmic_time() {
    let n = 4096;
    let mut states = vec![0i64; n];
    states[0] = 2048;
    states[1] = -2048;
    let mut sim = Simulation::new(LoadBalance, states, 9);
    let r = sim.run(&RunOptions::with_parallel_time_budget(n, 10_000.0));
    assert_eq!(r.status, RunStatus::Converged);
    assert!(discrepancy(sim.states()) <= 2);
    assert!(r.parallel_time < 60.0 * (n as f64).ln());
}

#[test]
fn majority_is_exact_at_bias_one_over_seeds() {
    // Window 24: the reliable setting for the undiluted (no undecided
    // agents) standalone case. The in-tournament matches (their window is
    // swept in experiment X14b) run diluted with undecided players and get
    // away with the smaller Tuning default.
    let mut wrong = 0;
    for seed in 0..10 {
        let (proto, states) = CancelSplitRun::new(1001, 1000, 0, 24);
        let n = states.len();
        let mut sim = Simulation::new(proto, states, seed);
        let r = sim.run(&RunOptions::with_parallel_time_budget(n, 50_000.0));
        if r.output != Some(1) {
            wrong += 1;
        }
    }
    assert_eq!(wrong, 0, "{wrong}/10 bias-1 majorities failed");
}

#[test]
fn leader_election_is_unique_over_seeds() {
    for seed in 0..5 {
        let n = 2000;
        let mut rng = SimRng::seed_from_u64(100 + seed);
        let (proto, states) = LeaderElectionRun::new(n, 8, &mut rng);
        let mut sim = Simulation::new(proto, states, seed);
        let r = sim.run(&RunOptions::with_parallel_time_budget(n, 300_000.0));
        assert_eq!(r.status, RunStatus::Converged, "seed {seed}");
        assert_eq!(r.output, Some(1), "seed {seed}: non-unique leader");
    }
}

#[test]
fn junta_clock_hours_strictly_increase() {
    let n = 8000;
    let (proto, states) = JuntaClockRun::new(n, 8);
    let mut sim = Simulation::new(proto, states, 3);
    sim.run(&RunOptions::with_parallel_time_budget(n, 1500.0));
    let marks = &sim.protocol().first_hour_at;
    assert!(marks.len() >= 2, "clock produced {} hours", marks.len());
    for w in marks.windows(2) {
        assert!(w[1] > w[0], "hour milestones must strictly increase");
    }
}

#[test]
fn subpopulation_clock_rate_orders_by_support() {
    // Three opinions with supports 4:2:1 — hours completed must order the
    // same way.
    let mut opinions = vec![1u16; 4000];
    opinions.extend(std::iter::repeat_n(2u16, 2000));
    opinions.extend(std::iter::repeat_n(3u16, 1000));
    let n = opinions.len();
    let (proto, states) = SubpopClocks::new(&opinions, 8);
    let mut sim = Simulation::new(proto, states, 17);
    sim.run(&RunOptions::with_parallel_time_budget(n, 6000.0));
    let h1 = sim.protocol().hours_of(1);
    let h2 = sim.protocol().hours_of(2);
    let h3 = sim.protocol().hours_of(3);
    assert!(h1 >= h2 && h2 >= h3, "hours not ordered: {h1} {h2} {h3}");
    assert!(
        h1 > h3,
        "largest opinion must be strictly fastest: {h1} vs {h3}"
    );
}
