//! Exact binomial and multinomial sampling for batch tallies.
//!
//! The batched engine turns a batch of `ℓ` interactions into per-state
//! participant counts in one shot: a multinomial over the configuration is
//! decomposed into conditional binomials (`X_s ~ Bin(remaining, w_s/rest)`),
//! one per non-empty cell but the last. Each binomial draw picks its
//! algorithm by its own `n` and `p`, with `p` mirrored to `p ≤ ½`:
//!
//! * `n ≤ 16` — inverted geometric skips: `n·p + 1` uniforms and logs
//!   expected, never a per-trial coin flip;
//! * `n·p < 10` — BINV, inversion from zero: one uniform, one `exp` and
//!   `n·p + 1` pmf steps expected;
//! * otherwise — Hörmann's BTRS, transformed rejection with squeeze, whose
//!   expected cost does not grow with `n·p`. A draw takes 1.35–1.41
//!   pairs of uniforms at `n·p = 10`, 1.24 at `n·p ≈ 47` and 1.13–1.17
//!   at `n·p ≥ 700`. The squeeze accepts 37–51%, 74% and 85–89% of
//!   draws there with no logarithm; every candidate it misses costs one
//!   `ln` and four ln-factorials.
//!
//! So every draw costs `O(1)` expected work, and a batch's multinomial
//! costs `O(cells)` draws however long the batch is.
//!
//! All three are exact: the inversions invert one uniform against exact
//! pmf recurrences, and BTRS accepts against the exact pmf ratio. The only
//! approximation is `f64` rounding, in the ln-factorials: a 16-entry exact
//! table, then a Stirling series through the `1/(360·k³)` term, whose error
//! is 7.5·10⁻¹⁰ at `k = 16` and falls below 10⁻¹² only past `k ≈ 60`.
//! Values for `k < 2¹⁵` are memoised in one process-wide table (256 KB),
//! filled by the same series on first use, so they keep its bits. A
//! chi-square test pins each regime's draws to the exact pmf.
//!
//! # Batch forms
//!
//! The tally path often needs many draws that share one success
//! probability (the per-pair-type lie splits of a Byzantine batch, the
//! `p = ½` halves of a split forgery). [`binomial_batch`] processes those
//! as one array pass over one setup (`p/q`, then `ln q` and `ln(p/q)` on
//! first use), so the lanes share its transcendentals; each lane consumes
//! exactly the uniforms the scalar sampler would, in lane order, so it
//! draws the stream one scalar call per lane would. Exact-distribution
//! tests pin the batch form to the scalar one and to the closed-form pmf.

use std::cell::OnceCell;
use std::sync::OnceLock;

use rand::Rng;

use crate::protocol::SimRng;

/// How many `ln(k!)` values [`ln_factorial`] memoises: `k < 2¹⁵`, 256 KB.
const LN_FACTORIAL_MEMO: usize = 1 << 15;

/// `ln(k!)`. Values for `k < 2¹⁵` come from one process-wide table, filled
/// by [`ln_factorial_series`] on the first call (so a memoised value has
/// the bits of a computed one); larger `k` are computed.
#[inline]
fn ln_factorial(k: u64) -> f64 {
    static MEMO: OnceLock<Box<[f64; LN_FACTORIAL_MEMO]>> = OnceLock::new();
    if k < LN_FACTORIAL_MEMO as u64 {
        MEMO.get_or_init(|| {
            let memo: Vec<f64> = (0..LN_FACTORIAL_MEMO as u64)
                .map(ln_factorial_series)
                .collect();
            memo.into_boxed_slice().try_into().expect("2¹⁵ values")
        })[k as usize]
    } else {
        ln_factorial_series(k)
    }
}

/// `ln(k!)` — exact table for `k < 16`, Stirling series beyond.
fn ln_factorial_series(k: u64) -> f64 {
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

/// The `p`-dependent constants of a draw, for `p ≤ ½` (callers mirror).
/// The logarithms are taken on first use: a draw that the BTRS squeeze
/// accepts reads neither, and batch draws sharing `p` take each once.
struct BinomialSetup {
    p: f64,
    q: f64,
    /// Odds `p / q`.
    s: f64,
    ln_q: OnceCell<f64>,
    ln_odds: OnceCell<f64>,
}

impl BinomialSetup {
    fn new(p: f64) -> Self {
        debug_assert!(p > 0.0 && p <= 0.5, "p = {p}");
        let q = 1.0 - p;
        Self {
            p,
            q,
            s: p / q,
            ln_q: OnceCell::new(),
            ln_odds: OnceCell::new(),
        }
    }

    fn ln_q(&self) -> f64 {
        *self.ln_q.get_or_init(|| self.q.ln())
    }

    fn ln_odds(&self) -> f64 {
        *self.ln_odds.get_or_init(|| self.s.ln())
    }
}

/// Panic unless `p` is a probability. A NaN would otherwise pass every
/// comparison the samplers make and never be accepted.
fn check_probability(p: f64) {
    assert!(
        (0.0..=1.0).contains(&p),
        "binomial success probability p = {p} is not in [0, 1]"
    );
}

/// Draw `X ~ Binomial(n, p)`.
///
/// # Panics
///
/// If `p` is not in `[0, 1]` (a NaN included).
pub fn binomial(rng: &mut SimRng, n: u64, p: f64) -> u64 {
    check_probability(p);
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
/// would, in lane order, so this is stream-identical to one [`binomial`]
/// call per lane.
///
/// # Panics
///
/// If `p` is not in `[0, 1]` (a NaN included).
pub fn binomial_batch(rng: &mut SimRng, ns: &[u64], p: f64, out: &mut Vec<u64>) {
    check_probability(p);
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

/// Binomial for `p ≤ 0.5` (pre-hoisted setup).
fn binomial_half(rng: &mut SimRng, n: u64, setup: &BinomialSetup) -> u64 {
    if n <= 16 {
        return binomial_geometric_skip(rng, n, setup);
    }
    if (n as f64) * setup.p < 10.0 {
        binomial_binv(rng, n, setup)
    } else {
        binomial_btrs(rng, n, setup)
    }
}

/// Tiny-`n` binomial by inverted geometric skips: instead of one Bernoulli
/// coin per trial (`O(n)` uniforms), jump straight to the next success —
/// the failure run-length before it is `Geometric(p)`, sampled by
/// inverting one uniform as `⌊ln U / ln q⌋`. Expected `n·p + 1` uniforms,
/// and the loop body is branch-light: no per-trial accept test, just the
/// skip-exhausts-the-remaining-trials exit.
fn binomial_geometric_skip(rng: &mut SimRng, n: u64, setup: &BinomialSetup) -> u64 {
    let ln_q = setup.ln_q();
    let mut successes = 0u64;
    let mut trials = 0u64; // trials consumed so far
    loop {
        let u: f64 = rng.gen();
        // `P(skip ≥ j) = P(U < q^j) = q^j` — exactly geometric. `u = 0`
        // gives `skip = ∞` (no success in any finite tail), which the
        // float comparison below handles without a cast.
        let skip = (u.ln() / ln_q).floor();
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
    let f0 = (n as f64 * setup.ln_q()).exp();
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

/// BTRS, Hörmann's transformed rejection with squeeze (W. Hörmann, "The
/// generation of binomial random variates", J. Statist. Comput. Simul. 46,
/// 1993), valid for `n·p ≥ 10`, `p ≤ ½`. Each round maps a pair of
/// uniforms `(u, v)` to a candidate `k` under a hat whose tails fall off
/// like `1/(k − n·p)²`. Candidates inside the squeeze (`|u| ≤ 0.43`,
/// `v ≤ v_r`) are accepted with no further work; any other candidate is
/// accepted when `v`, scaled to the hat, lies below `P[k] / P[m]` at the
/// mode `m`, which costs one `ln` and four ln-factorials.
fn binomial_btrs(rng: &mut SimRng, n: u64, setup: &BinomialSetup) -> u64 {
    let nf = n as f64;
    let spq = (nf * setup.p * setup.q).sqrt();
    let b = 1.15 + 2.53 * spq;
    let a = -0.0873 + 0.0248 * b + 0.01 * setup.p;
    let c = nf * setup.p + 0.5;
    let v_r = 0.92 - 4.2 / b;
    // The constants of the exact test, on the first candidate that needs
    // them: the hat's scale `α`, the mode `m` and `ln(m!·(n − m)!)`.
    let mut exact: Option<(f64, u64, f64)> = None;
    loop {
        let u = rng.gen::<f64>() - 0.5;
        let v: f64 = rng.gen();
        let us = 0.5 - u.abs();
        // `us = 0` sends `k` to −∞, which the range test rejects.
        let k = ((2.0 * a / us + b) * u + c).floor();
        // Hörmann tests the squeeze first. The squeeze never leaves the
        // support, so the law is the same, and no cast sees an out-of-range
        // `k`.
        if !(0.0..=nf).contains(&k) {
            continue;
        }
        if us >= 0.07 && v <= v_r {
            return k as u64;
        }
        let k = k as u64;
        let (alpha, m, ln_fact_m) = *exact.get_or_insert_with(|| {
            let m = (((n + 1) as f64) * setup.p).floor() as u64;
            let ln_fact_m = ln_factorial(m) + ln_factorial(n - m);
            ((2.83 + 5.1 / b) * spq, m, ln_fact_m)
        });
        let hat = (v * alpha / (a / (us * us) + b)).ln();
        let ratio = ln_fact_m - ln_factorial(k) - ln_factorial(n - k)
            + (k as f64 - m as f64) * setup.ln_odds();
        if hat <= ratio {
            return k;
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
/// expected).
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
    debug_assert!(total > 0.0, "total weight {total} is not positive");
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
    use crate::test_support::chi_square_tail;
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
    #[should_panic(expected = "p = NaN")]
    fn binomial_refuses_a_nan_probability() {
        // Every comparison with NaN is false: unchecked, the large-mean
        // sampler would reject forever, and the geometric skips would
        // return `n`.
        binomial(&mut SimRng::seed_from_u64(0), 100, f64::NAN);
    }

    #[test]
    fn binomial_moments_match_in_every_regime() {
        // (n, p) hitting: geometric skips, BINV, BTRS, and the p > 1/2
        // mirror of each.
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

    /// `P[Bin(n, p) = k]` for every `k`, by the pmf ratio walked out from
    /// the mode and then normalised: exact up to rounding, and independent
    /// of the sampler's log-factorials.
    fn exact_pmf(n: u64, p: f64) -> Vec<f64> {
        let q = 1.0 - p;
        let n_us = n as usize;
        let mode = (((n + 1) as f64 * p).floor() as usize).min(n_us);
        let mut pmf = vec![0.0f64; n_us + 1];
        pmf[mode] = 1.0;
        for k in mode..n_us {
            pmf[k + 1] = pmf[k] * (n_us - k) as f64 * p / ((k + 1) as f64 * q);
        }
        for k in (0..mode).rev() {
            pmf[k] = pmf[k + 1] * (k + 1) as f64 * q / ((n_us - k) as f64 * p);
        }
        let total: f64 = pmf.iter().sum();
        pmf.iter().map(|f| f / total).collect()
    }

    /// The per-case false-failure rate of the binomial law test: ten cases
    /// keep the test's overall rate at 10⁻⁴ (union bound).
    const BINOMIAL_LAW_ALPHA: f64 = 1e-5;

    /// Chi-square goodness of fit of `draws` calls of `binomial(n, p)`
    /// against the exact pmf. Outcomes are pooled in order of `k` until each
    /// cell expects at least 20 draws; a short remainder joins the last
    /// cell. Returns the statistic, its degrees of freedom and its p-value.
    fn binomial_fit(seed: u64, n: u64, p: f64, draws: u64) -> (f64, f64, f64) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut hist = vec![0u64; n as usize + 1];
        for _ in 0..draws {
            hist[binomial(&mut rng, n, p) as usize] += 1;
        }
        let mut cells: Vec<(u64, f64)> = Vec::new();
        let (mut seen, mut want) = (0u64, 0.0f64);
        for (&h, f) in hist.iter().zip(exact_pmf(n, p)) {
            seen += h;
            want += f * draws as f64;
            if want >= 20.0 {
                cells.push((seen, want));
                (seen, want) = (0, 0.0);
            }
        }
        let last = cells.last_mut().expect("draws expect at least 20 in total");
        last.0 += seen;
        last.1 += want;
        let stat: f64 = cells.iter().map(|&(o, e)| (o as f64 - e).powi(2) / e).sum();
        let df = (cells.len() - 1) as f64;
        (stat, df, chi_square_tail(df, stat))
    }

    #[test]
    fn binomial_draws_the_exact_law_in_every_regime() {
        let cases: [(u64, f64); 10] = [
            // Geometric skips (n ≤ 16).
            (12, 0.3),
            // BINV (n·p < 10).
            (60, 0.1),
            // n·p = 10 exactly: the edge of the large-mean regime, at its
            // smallest n and at a small p, and mirrored from p > ½.
            (20, 0.5),
            (100, 0.1),
            (40, 0.75),
            // n·p ≈ 47, n·p = 700 and n·p = 3,000.
            (6_000, 1.0 / 128.0),
            (2_000, 0.35),
            (6_000, 0.5),
            // Mirrored from p > ½ at n·q = 300.
            (1_000, 0.7),
            // Past the memoised ln-factorials (k < 2¹⁵).
            (40_000, 0.3),
        ];
        for (i, (n, p)) in cases.into_iter().enumerate() {
            let (stat, df, pv) = binomial_fit(1_000 + i as u64, n, p, 1_000_000);
            assert!(
                pv > BINOMIAL_LAW_ALPHA,
                "Bin({n}, {p}): chi-square {stat:.1} on {df} df, p = {pv:.2e}"
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
        // BINV, BTRS, and p > 1/2 mirrors.
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
                for (k, (&h, f)) in hist.iter().zip(exact_pmf(n, p)).enumerate() {
                    let want = f * draws as f64;
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
