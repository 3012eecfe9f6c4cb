//! Distribution-level consistency between the two engines.
//!
//! The sequential per-agent engine is the ground truth; the multinomial
//! batch engine must reproduce its *observable statistics* (it is not
//! trajectory-level equivalent: it samples batch participants with
//! replacement, an `O(ℓ²/n)` per-batch approximation). For 3-state
//! majority and USD, at two population sizes each, and for the recovery
//! time after a fault, the engines are compared on the parallel times of
//! [`TRIALS`] seeded runs per engine: by a two-sided Mann–Whitney rank
//! test for location, and by the ratio of their interquartile ranges for
//! scale (the rank test alone passes a spread that collapses or explodes
//! around the right median).
//!
//! **False-failure rate:** at most 10⁻³ per comparison for the rank test
//! (normal approximation to the rank statistic, with tie and continuity
//! corrections), so about 5·10⁻³ over the file's five comparisons. The
//! spread check fails at a ratio of 5: for a normal law the sample IQR
//! of 50 runs has a coefficient of variation of about 0.17, so a ratio
//! of 5 lies about seven standard deviations of the log-ratio out, and
//! its false-failure rate is negligible beside the rank test's.
//!
//! **Power:** the time distributions measured here (120 runs per engine)
//! have coefficients of variation of at most 0.15. At 50 runs per engine
//! the test then rejects a 15% shift of the median with probability at
//! least 0.95: resampling the measured recovery times, it rejected a 15%
//! shift in 96–98% of 4,000 draws per engine, and the unshifted law in
//! 0.03%.
//!
//! **Runtime:** about 20 s of the debug-build test suite on two cores,
//! most of it the sequential engine simulating to the fault.

use exact_plurality::baselines::{Usd, UsdTable};
use exact_plurality::engine::{
    BatchSimulation, FaultSpec, Protocol, RunOptions, RunStatus, Simulation,
};
use exact_plurality::majority::ThreeState;

/// Seeded runs per engine and comparison.
const TRIALS: u64 = 50;

/// The two-sided standard-normal quantile at a false-failure rate of
/// 10⁻³: `Φ⁻¹(1 − 5·10⁻⁴)`.
const Z_CRIT: f64 = 3.290_526_731_491_926;

/// Largest accepted ratio between two engines' interquartile ranges.
const SPREAD_RATIO: f64 = 5.0;

/// Floor on an interquartile range, as a share of the reference median,
/// so that two near-degenerate spreads are not compared as a ratio of
/// noise.
const SPREAD_FLOOR: f64 = 0.02;

/// The Mann–Whitney statistic of `a` against `b`, standardised: `z` is
/// approximately standard normal when both samples come from one law.
/// Ties get average ranks and shrink the variance; a continuity
/// correction of one half keeps the test conservative.
fn rank_z(a: &[f64], b: &[f64]) -> f64 {
    let mut all: Vec<(f64, bool)> = a
        .iter()
        .map(|&x| (x, true))
        .chain(b.iter().map(|&x| (x, false)))
        .collect();
    all.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite times"));
    let (mut rank_sum_a, mut ties) = (0.0, 0.0);
    let mut i = 0;
    while i < all.len() {
        let j = (i..all.len())
            .find(|&j| all[j].0 != all[i].0)
            .unwrap_or(all.len());
        // Ranks i+1 ..= j share their average.
        let rank = (i + j + 1) as f64 / 2.0;
        let t = (j - i) as f64;
        ties += t * t * t - t;
        rank_sum_a += rank * all[i..j].iter().filter(|x| x.1).count() as f64;
        i = j;
    }
    let (m, k) = (a.len() as f64, b.len() as f64);
    let n = m + k;
    let u = rank_sum_a - m * (m + 1.0) / 2.0;
    let var = m * k / 12.0 * ((n + 1.0) - ties / (n * (n - 1.0)));
    let d = u - m * k / 2.0;
    (d.abs() - 0.5).max(0.0).copysign(d) / var.sqrt()
}

/// Median and interquartile range.
fn median_iqr(times: &[f64]) -> (f64, f64) {
    let mut v = times.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let q = |f: f64| v[((v.len() - 1) as f64 * f).round() as usize];
    (q(0.5), q(0.75) - q(0.25))
}

/// The larger over the smaller of two samples' interquartile ranges,
/// each floored at [`SPREAD_FLOOR`] of the reference median.
fn spread_ratio(reference: &[f64], other: &[f64]) -> f64 {
    let (med_r, iqr_r) = median_iqr(reference);
    let (_, iqr_o) = median_iqr(other);
    let floor = SPREAD_FLOOR * med_r;
    let (lo, hi) = (iqr_r.max(floor), iqr_o.max(floor));
    (hi / lo).max(lo / hi)
}

/// Assert that two engines' times are consistent with one law: the rank
/// test for location, and interquartile ranges within [`SPREAD_RATIO`]
/// of each other for scale, so a collapsed or exploded spread around
/// the right median still fails.
fn assert_consistent(label: &str, reference: &[f64], other: &[f64]) {
    let (med_r, iqr_r) = median_iqr(reference);
    let (med_o, iqr_o) = median_iqr(other);
    let z = rank_z(other, reference);
    assert!(
        z.abs() < Z_CRIT,
        "{label}: rank test rejects a common law (z = {z:.2}; medians {med_o:.2} vs {med_r:.2})"
    );
    let ratio = spread_ratio(reference, other);
    assert!(
        ratio < SPREAD_RATIO,
        "{label}: IQR {iqr_o:.2} vs {iqr_r:.2} differ by {ratio:.1}x"
    );
}

#[test]
fn rank_test_separates_shifted_samples_and_accepts_permuted_ones() {
    let a: Vec<f64> = (0..50).map(|i| 10.0 + (i % 10) as f64 * 0.3).collect();
    let mut b = a.clone();
    b.reverse();
    assert!(rank_z(&a, &b).abs() < 1e-9, "identical samples");
    let shifted: Vec<f64> = a.iter().map(|x| x * 1.15).collect();
    assert!(rank_z(&shifted, &a) > Z_CRIT, "a 15% shift of a tight law");
    assert!(rank_z(&a, &shifted) < -Z_CRIT, "and its mirror");
}

#[test]
fn spread_check_fails_a_collapsed_or_exploded_spread_around_one_median() {
    // Symmetric about 10, so scaling about 10 keeps the rank statistic
    // exactly at its mean.
    let a: Vec<f64> = (0..50)
        .map(|i| 10.0 + ((i % 10) as f64 - 4.5) * 0.3)
        .collect();
    assert!(spread_ratio(&a, &a) < 1.0 + 1e-9);
    for f in [0.1, 10.0] {
        let other: Vec<f64> = a.iter().map(|x| 10.0 + (x - 10.0) * f).collect();
        assert!(rank_z(&other, &a).abs() < Z_CRIT, "same median at {f}x");
        assert!(spread_ratio(&a, &other) >= SPREAD_RATIO, "spread at {f}x");
    }
}

/// Times of the sequential engine on an agent-level protocol. A fine
/// convergence-check stride (`n/16`) keeps detection latency below
/// 1/16 of a parallel-time unit.
fn seq_times<P: Protocol + Clone>(
    protocol: &P,
    states: &[P::State],
    n: usize,
    seed_base: u64,
) -> Vec<f64> {
    (0..TRIALS)
        .map(|i| {
            let mut sim = Simulation::new(protocol.clone(), states.to_vec(), seed_base + i);
            let opts = RunOptions {
                max_interactions: (n as u64) * 200_000,
                check_every: (n as u64 / 16).max(1),
            };
            let r = sim.run(&opts);
            assert_eq!(
                r.status,
                RunStatus::Converged,
                "sequential trial {i} exhausted"
            );
            r.parallel_time
        })
        .collect()
}

fn majority_counts(n: u64) -> Vec<u64> {
    vec![0, n * 11 / 20, n * 9 / 20]
}

fn usd_supports(n: usize) -> Vec<usize> {
    vec![n * 11 / 20, n - n * 11 / 20 - n / 5, n / 5]
}

#[test]
fn three_state_majority_engines_agree() {
    for n in [1_000u64, 20_000] {
        let states = ThreeState::initial_states((n * 11 / 20) as usize, (n * 9 / 20) as usize);
        let seq = seq_times(&ThreeState, &states, n as usize, 10);

        let opts = RunOptions {
            max_interactions: n * 200_000,
            check_every: 0,
        };
        let multinomial: Vec<f64> = (0..TRIALS)
            .map(|i| {
                let mut sim = BatchSimulation::new(ThreeState, majority_counts(n), 3000 + i);
                let r = sim.run(&opts);
                assert_eq!(r.status, RunStatus::Converged);
                r.parallel_time
            })
            .collect();

        assert_consistent(&format!("majority3 multinomial n={n}"), &seq, &multinomial);
    }
}

#[test]
fn fault_recovery_times_agree_across_engines() {
    // The fault layer must not break cross-engine consistency: the same
    // strike (10% of a converged 3-state population scrambled at parallel
    // time 40) must yield statistically consistent recovery times on both
    // engines. At this n the population converges at t ≈ 19 ± 1.3,
    // so t = 40 strikes a converged population while keeping the
    // simulation before the strike short enough for 50 runs per engine.
    let n = 20_000u64;
    let faults = FaultSpec::parse_list("corrupt@40:0.1").expect("spec parses");

    let recovery = |r: &exact_plurality::engine::RunResult, label: &str, i: u64| -> f64 {
        assert_eq!(r.status, RunStatus::Converged, "{label} trial {i}");
        assert_eq!(r.faults.len(), 1, "{label} trial {i}");
        let f = &r.faults[0];
        assert!(f.recovered(), "{label} trial {i} never reconverged");
        assert!(f.recovery_time > 0.0, "{label} trial {i}");
        f.recovery_time
    };

    let states = ThreeState::initial_states((n * 11 / 20) as usize, (n * 9 / 20) as usize);
    let seq_opts = RunOptions {
        max_interactions: n * 200_000,
        check_every: (n / 16).max(1),
    };
    let seq: Vec<f64> = (0..TRIALS)
        .map(|i| {
            let mut sim = Simulation::new(ThreeState, states.clone(), 6000 + i);
            recovery(&sim.run_faulted(&seq_opts, &faults), "seq", i)
        })
        .collect();

    let opts = RunOptions {
        max_interactions: n * 200_000,
        check_every: 0,
    };
    let multinomial: Vec<f64> = (0..TRIALS)
        .map(|i| {
            let mut sim = BatchSimulation::new(ThreeState, majority_counts(n), 8000 + i);
            recovery(&sim.run_faulted(&opts, &faults), "multinomial", i)
        })
        .collect();

    assert_consistent("recovery multinomial", &seq, &multinomial);
}

#[test]
fn usd_engines_agree() {
    for n in [1_000usize, 20_000] {
        let supports = usd_supports(n);
        let opinions: Vec<u16> = supports
            .iter()
            .enumerate()
            .flat_map(|(i, &s)| std::iter::repeat_n(i as u16 + 1, s))
            .collect();
        let states = Usd::initial_states(&opinions);
        let seq = seq_times(&Usd, &states, n, 50);

        let table = || UsdTable::new(3);
        let init = table().initial_counts(&supports);
        let opts = RunOptions {
            max_interactions: (n as u64) * 200_000,
            check_every: 0,
        };
        let multinomial: Vec<f64> = (0..TRIALS)
            .map(|i| {
                let mut sim = BatchSimulation::new(table(), init.clone(), 5000 + i);
                let r = sim.run(&opts);
                assert_eq!(r.status, RunStatus::Converged);
                r.parallel_time
            })
            .collect();

        assert_consistent(&format!("usd multinomial n={n}"), &seq, &multinomial);
    }
}
