//! Exact binomial and multinomial sampling for batch tallies.
//!
//! The batched engine turns a batch of `ℓ` interactions into per-state
//! participant counts in one shot: a multinomial over the configuration is
//! decomposed into conditional binomials (`X_s ~ Bin(remaining, w_s/rest)`).
//! The binomial sampler picks its algorithm by regime:
//!
//! * `n ≤ 16` — inverted geometric skips (`O(n·p + 1)` log-uniforms, never
//!   a per-trial coin flip),
//! * `n·p < 10` — BINV-style inversion from zero (`O(n·p)` expected),
//! * otherwise — inversion from the mode, walking outward (`O(√(n·p))`
//!   expected, the reason batch tallies cost `O(√ℓ)` rather than `O(ℓ)`).
//!
//! All branches invert a single uniform against exact pmf recurrences; the
//! only approximation is `f64` rounding (ln-factorials via a 16-entry exact
//! table plus a Stirling series accurate to ~1e-12 beyond it).
//!
//! # Batch forms
//!
//! The tally path often needs many draws that share one success
//! probability (the per-pair-type lie splits of a Byzantine batch, the
//! `p = ½` halves of a split forgery). [`binomial_batch`] processes those
//! as one array pass with the transcendental setup (`ln p`, `ln q`,
//! `p/q`) hoisted out of the per-lane loop; each lane then runs the same
//! branch-light pmf recurrence the scalar sampler would, consuming the
//! same uniforms in lane order, so the `scalar-samplers` fallback build
//! (`--features scalar-samplers`, one scalar call per lane) draws a
//! bit-identical stream. Exact-distribution tests pin both paths to each
//! other and to the closed-form pmf.

use rand::Rng;

use crate::protocol::SimRng;

/// `ln(k!)` — exact table for `k < 16`, Stirling series beyond.
#[inline]
fn ln_factorial(k: u64) -> f64 {
    const TABLE: [f64; 16] = [
        0.0,
        0.0,
        std::f64::consts::LN_2,
        1.791_759_469_228_055,
        3.178_053_830_347_946,
        4.787_491_742_782_046,
        6.579_251_212_010_101,
        8.525_161_361_065_415,
        10.604_602_902_745_25,
        12.801_827_480_081_469,
        15.104_412_573_075_516,
        17.502_307_845_873_887,
        19.987_214_495_661_885,
        22.552_163_853_123_42,
        25.191_221_182_738_68,
        27.899_271_383_840_89,
    ];
    if k < 16 {
        TABLE[k as usize]
    } else {
        let x = k as f64;
        x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
            - 1.0 / (360.0 * x * x * x)
    }
}

/// `ln P[Bin(n, p) = k]`, with `ln p` / `ln q` pre-hoisted so batch
/// callers pay the transcendentals once per shared `p`.
#[inline]
fn ln_binom_pmf(n: u64, k: u64, ln_p: f64, ln_q: f64) -> f64 {
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
        + k as f64 * ln_p
        + (n - k) as f64 * ln_q
}

/// The `p`-dependent constants every binomial regime needs, computed once
/// so batch draws sharing a success probability pay the transcendentals
/// (`ln p`, `ln q`, the odds ratio) once per *batch* instead of once per
/// *draw*. Holds the half-probability (`p ≤ 0.5`); callers mirror.
struct BinomialSetup {
    p: f64,
    q: f64,
    /// Odds `p / q`.
    s: f64,
    ln_p: f64,
    ln_q: f64,
}

impl BinomialSetup {
    fn new(p: f64) -> Self {
        debug_assert!(p > 0.0 && p <= 0.5, "p = {p}");
        let q = 1.0 - p;
        Self {
            p,
            q,
            s: p / q,
            ln_p: p.ln(),
            ln_q: q.ln(),
        }
    }
}

/// Draw `X ~ Binomial(n, p)`.
pub fn binomial(rng: &mut SimRng, n: u64, p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p), "p = {p}");
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if p > 0.5 {
        n - binomial_half(rng, n, &BinomialSetup::new(1.0 - p))
    } else {
        binomial_half(rng, n, &BinomialSetup::new(p))
    }
}

/// Draw `out[i] ~ Binomial(ns[i], p)` for one shared success probability —
/// the array pass over a batch's per-pair-type draws. The setup is hoisted
/// once; each lane consumes exactly the uniforms the scalar [`binomial`]
/// would, in lane order, so this is stream-identical to the
/// `scalar-samplers` fallback.
#[cfg(not(feature = "scalar-samplers"))]
pub fn binomial_batch(rng: &mut SimRng, ns: &[u64], p: f64, out: &mut Vec<u64>) {
    debug_assert!((0.0..=1.0).contains(&p), "p = {p}");
    out.clear();
    if p <= 0.0 {
        out.resize(ns.len(), 0);
        return;
    }
    if p >= 1.0 {
        out.extend_from_slice(ns);
        return;
    }
    let mirror = p > 0.5;
    let setup = BinomialSetup::new(if mirror { 1.0 - p } else { p });
    for &n in ns {
        let x = if n == 0 {
            0
        } else {
            binomial_half(rng, n, &setup)
        };
        out.push(if mirror { n - x } else { x });
    }
}

/// Scalar fallback for [`binomial_batch`]: one [`binomial`] call per lane.
/// Same regimes, same recurrences, same uniforms — only the setup
/// hoisting differs, and setup constants are pure functions of `p`, so
/// both builds draw bit-identical streams.
#[cfg(feature = "scalar-samplers")]
pub fn binomial_batch(rng: &mut SimRng, ns: &[u64], p: f64, out: &mut Vec<u64>) {
    out.clear();
    out.extend(ns.iter().map(|&n| binomial(rng, n, p)));
}

/// Binomial for `p ≤ 0.5` (pre-hoisted setup).
fn binomial_half(rng: &mut SimRng, n: u64, setup: &BinomialSetup) -> u64 {
    if n <= 16 {
        return binomial_geometric_skip(rng, n, setup);
    }
    if (n as f64) * setup.p < 10.0 {
        binomial_binv(rng, n, setup)
    } else {
        binomial_mode_inversion(rng, n, setup)
    }
}

/// Tiny-`n` binomial by inverted geometric skips: instead of one Bernoulli
/// coin per trial (`O(n)` uniforms), jump straight to the next success —
/// the failure run-length before it is `Geometric(p)`, sampled by
/// inverting one uniform as `⌊ln U / ln q⌋`. Expected `n·p + 1` uniforms,
/// and the loop body is branch-light: no per-trial accept test, just the
/// skip-exhausts-the-remaining-trials exit.
fn binomial_geometric_skip(rng: &mut SimRng, n: u64, setup: &BinomialSetup) -> u64 {
    let mut successes = 0u64;
    let mut trials = 0u64; // trials consumed so far
    loop {
        let u: f64 = rng.gen();
        // `P(skip ≥ j) = P(U < q^j) = q^j` — exactly geometric. `u = 0`
        // gives `skip = ∞` (no success in any finite tail), which the
        // float comparison below handles without a cast.
        let skip = (u.ln() / setup.ln_q).floor();
        if skip >= (n - trials) as f64 {
            return successes;
        }
        trials += skip as u64 + 1;
        successes += 1;
        if trials >= n {
            return successes;
        }
    }
}

/// BINV: invert a uniform against the pmf starting from zero. Expected
/// `O(n·p)` steps; requires `q^n` representable, guaranteed by the caller's
/// `n·p < 10`, `p ≤ 0.5` regime (`q^n ≥ e^{-20}`).
fn binomial_binv(rng: &mut SimRng, n: u64, setup: &BinomialSetup) -> u64 {
    let s = setup.s;
    let a = (n as f64 + 1.0) * s;
    let f0 = (n as f64 * setup.ln_q).exp();
    loop {
        let mut f = f0;
        let mut u: f64 = rng.gen();
        let mut k = 0u64;
        loop {
            if u < f {
                return k;
            }
            u -= f;
            k += 1;
            if k > n || f <= f64::MIN_POSITIVE {
                // Float tail rounding left `u` unserved (probability
                // ~1e-15): redraw.
                break;
            }
            f *= a / k as f64 - s;
        }
    }
}

/// Inversion from the mode, walking outward on both sides. Expected
/// `O(σ) = O(√(n·p·q))` steps; the two-sided walk is branch-light — each
/// iteration is two pmf-ratio multiplies and two compare-subtract steps.
fn binomial_mode_inversion(rng: &mut SimRng, n: u64, setup: &BinomialSetup) -> u64 {
    let (p, q) = (setup.p, setup.q);
    let mode = (((n + 1) as f64) * p).floor().min(n as f64) as u64;
    let pmf_mode = ln_binom_pmf(n, mode, setup.ln_p, setup.ln_q).exp();
    loop {
        let mut u: f64 = rng.gen();
        if u < pmf_mode {
            return mode;
        }
        u -= pmf_mode;
        let (mut lo, mut f_lo) = (mode, pmf_mode);
        let (mut hi, mut f_hi) = (mode, pmf_mode);
        loop {
            let mut moved = false;
            if hi < n {
                f_hi *= (n - hi) as f64 * p / ((hi + 1) as f64 * q);
                hi += 1;
                if u < f_hi {
                    return hi;
                }
                u -= f_hi;
                moved = true;
            }
            if lo > 0 {
                f_lo *= lo as f64 * q / ((n - lo + 1) as f64 * p);
                lo -= 1;
                if u < f_lo {
                    return lo;
                }
                u -= f_lo;
                moved = true;
            }
            if !moved {
                // Support exhausted with residual mass from rounding
                // (probability ~1e-15): redraw.
                break;
            }
        }
    }
}

/// `ln P[Poisson(mean) = k]`.
#[inline]
fn ln_poisson_pmf(mean: f64, k: u64) -> f64 {
    k as f64 * mean.ln() - mean - ln_factorial(k)
}

/// Draw `X ~ Poisson(mean)`.
///
/// Knuth's product-of-uniforms for small means (`O(mean)` uniforms),
/// inversion from the mode walking outward for large ones (`O(√mean)`
/// expected) — the same split [`binomial`] uses.
pub fn poisson(rng: &mut SimRng, mean: f64) -> u64 {
    debug_assert!(mean >= 0.0 && mean.is_finite(), "mean = {mean}");
    if mean <= 0.0 {
        return 0;
    }
    if mean < 10.0 {
        let limit = (-mean).exp();
        let mut k = 0u64;
        let mut prod: f64 = rng.gen();
        while prod > limit {
            k += 1;
            prod *= rng.gen::<f64>();
        }
        return k;
    }
    let mode = mean.floor() as u64;
    let pmf_mode = ln_poisson_pmf(mean, mode).exp();
    loop {
        let mut u: f64 = rng.gen();
        if u < pmf_mode {
            return mode;
        }
        u -= pmf_mode;
        let (mut lo, mut f_lo) = (mode, pmf_mode);
        let (mut hi, mut f_hi) = (mode, pmf_mode);
        loop {
            f_hi *= mean / (hi + 1) as f64;
            hi += 1;
            if u < f_hi {
                return hi;
            }
            u -= f_hi;
            if lo > 0 {
                f_lo *= lo as f64 / mean;
                lo -= 1;
                if u < f_lo {
                    return lo;
                }
                u -= f_lo;
            }
            if f_hi <= f64::MIN_POSITIVE && f_lo <= f64::MIN_POSITIVE {
                // Residual mass from rounding (probability ~1e-15): redraw.
                break;
            }
        }
    }
}

/// Sample `Multinomial(trials; weights/total)` by conditional binomial
/// splits, appending `(index, count)` for every non-zero cell to `out`.
///
/// `total` must equal `weights.iter().sum()` and be non-zero.
pub fn multinomial_into(
    rng: &mut SimRng,
    trials: u64,
    weights: &[u64],
    total: u64,
    out: &mut Vec<(usize, u64)>,
) {
    split_exact(rng, trials, weights, total, out);
}

/// [`multinomial_into`] over `u128` weights — the lumped tally, whose cell
/// weights are products of two counts and overflow `u64` once `n > 2³²`.
pub(crate) fn multinomial_wide_into(
    rng: &mut SimRng,
    trials: u64,
    weights: &[u128],
    total: u128,
    out: &mut Vec<(usize, u64)>,
) {
    split_exact(rng, trials, weights, total, out);
}

/// An exact integer weight: the running remainder stays exact, so the
/// last non-zero cell is recognised by equality.
trait Weight: Copy + Eq + std::fmt::Debug + std::iter::Sum + std::ops::SubAssign {
    const ZERO: Self;
    fn to_f64(self) -> f64;
}

impl Weight for u64 {
    const ZERO: Self = 0;
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Weight for u128 {
    const ZERO: Self = 0;
    fn to_f64(self) -> f64 {
        self as f64
    }
}

fn split_exact<W: Weight>(
    rng: &mut SimRng,
    trials: u64,
    weights: &[W],
    total: W,
    out: &mut Vec<(usize, u64)>,
) {
    debug_assert_eq!(total, weights.iter().copied().sum::<W>());
    debug_assert!(total != W::ZERO);
    let mut remaining = trials;
    let mut rest = total;
    for (index, &w) in weights.iter().enumerate() {
        if remaining == 0 {
            return;
        }
        if w == W::ZERO {
            continue;
        }
        if w == rest {
            // Last non-zero cell takes everything left.
            out.push((index, remaining));
            return;
        }
        let x = binomial(rng, remaining, w.to_f64() / rest.to_f64());
        if x > 0 {
            out.push((index, x));
        }
        remaining -= x;
        rest -= w;
    }
    debug_assert_eq!(remaining, 0, "weights exhausted with trials left");
}

/// [`multinomial_into`] over real-valued weights — the scheduler-biased
/// tally path, where a cell's weight is `count · opinion_weight` and no
/// longer integral.
///
/// Same conditional-binomial decomposition; the differences are float
/// hygiene: a cell whose weight reaches the remaining total (within
/// rounding) absorbs all remaining trials, and any trials stranded by
/// cancellation in the running `rest` are dumped on the last
/// positive-weight cell, so every trial is always assigned.
///
/// `total` must equal `weights.iter().sum()` (up to rounding) and be
/// positive.
pub fn multinomial_weighted_into(
    rng: &mut SimRng,
    trials: u64,
    weights: &[f64],
    total: f64,
    out: &mut Vec<(usize, u64)>,
) {
    debug_assert!(total > 0.0, "total weight must be positive");
    let mut remaining = trials;
    let mut rest = total;
    let mut last_pos = None;
    for (index, &w) in weights.iter().enumerate() {
        if remaining == 0 {
            return;
        }
        if w <= 0.0 {
            continue;
        }
        if w >= rest {
            out.push((index, remaining));
            return;
        }
        let x = binomial(rng, remaining, w / rest);
        if x > 0 {
            out.push((index, x));
        }
        remaining -= x;
        rest -= w;
        last_pos = Some(index);
    }
    if remaining > 0 {
        if let Some(index) = last_pos {
            match out.last_mut() {
                Some(entry) if entry.0 == index => entry.1 += remaining,
                _ => out.push((index, remaining)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn mean_var(rng: &mut SimRng, n: u64, p: f64, draws: u64) -> (f64, f64) {
        let (mut s1, mut s2) = (0.0f64, 0.0f64);
        for _ in 0..draws {
            let x = binomial(rng, n, p) as f64;
            s1 += x;
            s2 += x * x;
        }
        let mean = s1 / draws as f64;
        (mean, s2 / draws as f64 - mean * mean)
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(binomial(&mut rng, 0, 0.3), 0);
        assert_eq!(binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(binomial(&mut rng, 100, 1.0), 100);
        for _ in 0..100 {
            assert!(binomial(&mut rng, 5, 0.5) <= 5);
        }
    }

    #[test]
    fn binomial_moments_match_in_every_regime() {
        // (n, p) hitting: Bernoulli counting, BINV, mode inversion, and the
        // p > 1/2 mirror of each.
        let cases = [
            (10u64, 0.3),
            (10, 0.8),
            (1000, 0.004),
            (1000, 0.996),
            (1000, 0.3),
            (1_000_000, 0.25),
            (50_000, 0.7),
        ];
        let mut rng = SimRng::seed_from_u64(42);
        for (n, p) in cases {
            let draws = 30_000;
            let (mean, var) = mean_var(&mut rng, n, p, draws);
            let want_mean = n as f64 * p;
            let want_var = n as f64 * p * (1.0 - p);
            let mean_tol = 5.0 * (want_var / draws as f64).sqrt() + 1e-9;
            assert!(
                (mean - want_mean).abs() < mean_tol,
                "n={n} p={p}: mean {mean} vs {want_mean} (tol {mean_tol})"
            );
            assert!(
                (var - want_var).abs() / want_var.max(1.0) < 0.1,
                "n={n} p={p}: var {var} vs {want_var}"
            );
        }
    }

    #[test]
    fn binomial_small_n_distribution_is_exact() {
        // n = 4, p = 0.5: probabilities 1/16, 4/16, 6/16, 4/16, 1/16.
        let mut rng = SimRng::seed_from_u64(9);
        let draws = 160_000u64;
        let mut hist = [0u64; 5];
        for _ in 0..draws {
            hist[binomial(&mut rng, 4, 0.5) as usize] += 1;
        }
        let want = [1.0, 4.0, 6.0, 4.0, 1.0].map(|w| w / 16.0 * draws as f64);
        for (k, (&h, w)) in hist.iter().zip(want).enumerate() {
            let dev = (h as f64 - w).abs() / w;
            assert!(dev < 0.05, "k={k}: {h} vs {w:.0}");
        }
    }

    #[test]
    fn multinomial_conserves_trials_and_tracks_weights() {
        let mut rng = SimRng::seed_from_u64(5);
        let weights = [50u64, 0, 30, 20, 0, 900];
        let total: u64 = weights.iter().sum();
        let trials = 10_000u64;
        let mut acc = vec![0u64; weights.len()];
        let reps = 200;
        let mut out = Vec::new();
        for _ in 0..reps {
            out.clear();
            multinomial_into(&mut rng, trials, &weights, total, &mut out);
            let drawn: u64 = out.iter().map(|&(_, c)| c).sum();
            assert_eq!(drawn, trials, "multinomial must use every trial");
            for &(i, c) in &out {
                assert!(weights[i] > 0, "zero-weight cell {i} drawn");
                acc[i] += c;
            }
        }
        for (i, &w) in weights.iter().enumerate() {
            let want = reps as f64 * trials as f64 * w as f64 / total as f64;
            if w == 0 {
                assert_eq!(acc[i], 0);
            } else {
                let dev = (acc[i] as f64 - want).abs() / want;
                assert!(dev < 0.05, "cell {i}: {} vs {want:.0}", acc[i]);
            }
        }
    }

    #[test]
    fn weighted_multinomial_conserves_trials_and_tracks_weights() {
        let mut rng = SimRng::seed_from_u64(11);
        let weights = [12.5f64, 0.0, 7.5, 0.25, 80.0];
        let total: f64 = weights.iter().sum();
        let trials = 10_000u64;
        let mut acc = vec![0u64; weights.len()];
        let mut out = Vec::new();
        let reps = 200;
        for _ in 0..reps {
            out.clear();
            multinomial_weighted_into(&mut rng, trials, &weights, total, &mut out);
            let drawn: u64 = out.iter().map(|&(_, c)| c).sum();
            assert_eq!(drawn, trials, "weighted multinomial must use every trial");
            for &(i, c) in &out {
                assert!(weights[i] > 0.0, "zero-weight cell {i} drawn");
                acc[i] += c;
            }
        }
        for (i, &w) in weights.iter().enumerate() {
            if w == 0.0 {
                assert_eq!(acc[i], 0);
                continue;
            }
            let want = reps as f64 * trials as f64 * w / total;
            let dev = (acc[i] as f64 - want).abs() / want;
            assert!(dev < 0.1, "cell {i}: {} vs {want:.0}", acc[i]);
        }
    }

    #[test]
    fn poisson_moments_match_in_both_regimes() {
        let mut rng = SimRng::seed_from_u64(77);
        for mean in [0.0f64, 0.2, 3.0, 9.9, 10.0, 250.0, 40_000.0] {
            let draws = 30_000u64;
            let (mut s1, mut s2) = (0.0f64, 0.0f64);
            for _ in 0..draws {
                let x = poisson(&mut rng, mean) as f64;
                s1 += x;
                s2 += x * x;
            }
            let got_mean = s1 / draws as f64;
            let got_var = s2 / draws as f64 - got_mean * got_mean;
            if mean == 0.0 {
                assert_eq!(got_mean, 0.0);
                continue;
            }
            let mean_tol = 5.0 * (mean / draws as f64).sqrt() + 1e-9;
            assert!(
                (got_mean - mean).abs() < mean_tol,
                "mean={mean}: got {got_mean} (tol {mean_tol})"
            );
            assert!(
                (got_var - mean).abs() / mean < 0.1,
                "mean={mean}: var {got_var}"
            );
        }
    }

    #[test]
    fn binomial_batch_is_bit_identical_to_scalar_lanes() {
        // The array pass must consume exactly the uniforms the scalar
        // sampler would, in lane order — outputs AND the post-call RNG
        // position must match. Mixed regimes per batch: geometric skip,
        // BINV, mode inversion, and p > 1/2 mirrors.
        let lanes: Vec<u64> = vec![0, 1, 4, 16, 17, 500, 1000, 5_000, 1_000_000, 3];
        for (seed, p) in [
            (3u64, 0.3f64),
            (7, 0.004),
            (11, 0.8),
            (13, 0.5),
            (17, 0.996),
        ] {
            let mut batch_rng = SimRng::seed_from_u64(seed);
            let mut out = Vec::new();
            binomial_batch(&mut batch_rng, &lanes, p, &mut out);

            let mut scalar_rng = SimRng::seed_from_u64(seed);
            let scalar: Vec<u64> = lanes
                .iter()
                .map(|&n| binomial(&mut scalar_rng, n, p))
                .collect();

            assert_eq!(out, scalar, "p={p}: batch and scalar lanes diverged");
            assert_eq!(
                batch_rng.gen::<u64>(),
                scalar_rng.gen::<u64>(),
                "p={p}: batch and scalar consumed different stream lengths"
            );
        }
    }

    #[test]
    fn binomial_batch_edge_probabilities() {
        let mut rng = SimRng::seed_from_u64(0);
        let lanes = [5u64, 0, 9];
        let mut out = Vec::new();
        binomial_batch(&mut rng, &lanes, 0.0, &mut out);
        assert_eq!(out, vec![0, 0, 0]);
        binomial_batch(&mut rng, &lanes, 1.0, &mut out);
        assert_eq!(out, vec![5, 0, 9]);
    }

    #[test]
    fn geometric_skip_matches_exact_pmf_at_every_small_n() {
        // The n ≤ 16 path is inverted geometric skips; pin its law against
        // the exact binomial pmf for every n in the regime at two ps.
        let mut rng = SimRng::seed_from_u64(314);
        for p in [0.2f64, 0.5] {
            for n in 1..=16u64 {
                let draws = 40_000u64;
                let mut hist = vec![0u64; n as usize + 1];
                for _ in 0..draws {
                    hist[binomial(&mut rng, n, p) as usize] += 1;
                }
                let q = 1.0 - p;
                for (k, &h) in hist.iter().enumerate() {
                    let want = ln_binom_pmf(n, k as u64, p.ln(), q.ln()).exp() * draws as f64;
                    if want < 50.0 {
                        // Too little mass for a tight relative test; just
                        // bound the tail.
                        assert!(
                            (h as f64) < want + 6.0 * want.sqrt() + 25.0,
                            "n={n} p={p} k={k}: {h} vs {want:.1}"
                        );
                        continue;
                    }
                    let dev = (h as f64 - want).abs() / want;
                    let tol = 6.0 * (1.0 / want).sqrt() + 0.01;
                    assert!(dev < tol, "n={n} p={p} k={k}: {h} vs {want:.0}");
                }
            }
        }
    }

    #[test]
    fn multinomial_with_zero_trials_is_empty() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut out = Vec::new();
        multinomial_into(&mut rng, 0, &[1, 2, 3], 6, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn ln_factorial_is_accurate_across_the_table_boundary() {
        let mut exact = 0.0f64;
        for k in 1..=30u64 {
            exact += (k as f64).ln();
            let err = (ln_factorial(k) - exact).abs();
            assert!(err < 1e-9, "k={k}: err {err}");
        }
    }
}
