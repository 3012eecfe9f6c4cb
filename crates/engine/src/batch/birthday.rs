//! The collision-free batch length: the birthday process.
//!
//! Participants of consecutive interactions are drawn one at a time; the
//! batch closes just before the first draw that repeats an agent already in
//! the batch (approximated with replacement: the `j`-th draw collides with
//! probability `(j − 1)/n`). The expected batch length is `Θ(√n)`
//! (`≈ √(π·n/8)` interactions), which is what makes batching pay: one
//! tally covers `Θ(√n)` interactions.
//!
//! The seed implementation clamped the result with `len.max(1)`, which
//! silently *promoted a colliding draw into an interaction*: when the very
//! first pair's responder collided with its initiator, the engine reported
//! a batch of one interaction without ever consuming a valid pair — a
//! self-interaction that the sequential model (distinct ordered pairs)
//! never performs. [`draw_batch_len`] instead consumes that first pair
//! (the sequential scheduler redraws the responder until distinct) and
//! only then reports length 1; all later collisions close the batch before
//! the colliding draw, exactly as before.

use rand::Rng;

use crate::protocol::SimRng;

/// Populations below this size draw the batch length by the literal
/// participant walk; above it, one uniform is inverted through the
/// birthday survival function. The walk is exact but costs two RNG words
/// per interaction — `Θ(1)` per interaction, precisely what the batched
/// engine must not pay.
const WALK_CUTOFF: u64 = 1024;

/// Draw the number of interactions in a collision-free batch for a
/// population of `n` agents.
///
/// Always returns at least 1 (the first interaction is consumed even when
/// its responder draw collides — the pair is redrawn distinct, not
/// discarded) and at most `⌊n/2⌋` (no agent participates twice).
///
/// For `n ≥ 1024` the length is sampled by inverting a single uniform
/// against the birthday survival function (`O(1)` work per batch, the key
/// to sub-constant per-interaction cost); smaller populations run the
/// exact participant walk. The inversion's series truncation error in the
/// log-survival is `O(d⁴/n³)` — orders of magnitude below the engine's
/// inherent `O(ℓ²/n)` with-replacement drift.
///
/// # Panics
///
/// Debug-panics if `n < 2`.
pub fn draw_batch_len(rng: &mut SimRng, n: u64) -> u64 {
    if n < WALK_CUTOFF {
        draw_batch_len_walk(rng, n)
    } else {
        draw_batch_len_inversion(rng, n)
    }
}

/// The literal draw-by-draw birthday process (the seed implementation,
/// minus its `len.max(1)` bias — see the module docs). Two RNG words per
/// interaction; the small-`n` path of [`draw_batch_len`].
fn draw_batch_len_walk(rng: &mut SimRng, n: u64) -> u64 {
    debug_assert!(n >= 2, "population must contain at least two agents");
    let mut used = 0u64;
    let mut len = 0u64;
    loop {
        // Two fresh participants are needed for the next interaction.
        for _ in 0..2 {
            if rng.gen_range(0..n) < used {
                if len == 0 {
                    // Collision on the responder draw of the very first
                    // interaction (`used == 1`). The interaction still
                    // happens — between two *distinct* agents, the
                    // scheduler redraws — so consume the pair and close
                    // the batch after it.
                    debug_assert_eq!(used, 1);
                    return 1;
                }
                return len;
            }
            used += 1;
        }
        len += 1;
        if used + 2 > n {
            return len;
        }
    }
}

/// Log-survival of the birthday walk: `ln P(first d draws all distinct)`,
/// by the truncated series `Σ_{i<d} ln(1 − i/n) ≈ −Σ (i/n + i²/2n² +
/// i³/3n³)` in closed form.
#[inline]
fn ln_survival(d: f64, n: f64) -> f64 {
    let t1 = d * (d - 1.0) / (2.0 * n);
    let t2 = (d - 1.0) * d * (2.0 * d - 1.0) / (12.0 * n * n);
    let t3 = d * d * (d - 1.0) * (d - 1.0) / (12.0 * n * n * n);
    -(t1 + t2 + t3)
}

/// Derivative of [`ln_survival`] in `d`.
#[inline]
fn ln_survival_deriv(d: f64, n: f64) -> f64 {
    let t1 = (2.0 * d - 1.0) / (2.0 * n);
    let t2 = (6.0 * d * d - 6.0 * d + 1.0) / (12.0 * n * n);
    let t3 = 2.0 * d * (d - 1.0) * (2.0 * d - 1.0) / (12.0 * n * n * n);
    -(t1 + t2 + t3)
}

/// Invert one uniform against the birthday survival function: the first
/// repeated participant occurs at draw `D = min{d : S(d) < u}`, and the
/// batch closes after `max(⌊(D−1)/2⌋, 1)` interactions (capped at the
/// `⌊n/2⌋` participant capacity).
fn draw_batch_len_inversion(rng: &mut SimRng, n: u64) -> u64 {
    let cap = n / 2;
    let u: f64 = rng.gen();
    if u <= f64::MIN_POSITIVE {
        return cap;
    }
    let ln_u = u.ln();
    let nf = n as f64;
    // Quadratic seed: x(x−1)/2n = −ln u, then two Newton steps on the full
    // series (cubic convergence: the root is correct to ~1e-9 draws).
    let mut x = 0.5 + (0.25 - 2.0 * nf * ln_u).sqrt();
    for _ in 0..2 {
        x -= (ln_survival(x, nf) - ln_u) / ln_survival_deriv(x, nf);
    }
    let d = x.ceil().max(2.0);
    if d >= 2.0 * cap as f64 + 2.0 {
        return cap;
    }
    (((d as u64) - 1) / 2).clamp(1, cap)
}

/// Exact expectation of [`draw_batch_len`] under its own model (`j`-th
/// draw collides with probability `(j − 1)/n`), by direct dynamic
/// programming over the draw sequence. Used by tests to pin the sampler
/// against the birthday law without Monte-Carlo-vs-Monte-Carlo slack.
pub fn expected_batch_len(n: u64) -> f64 {
    assert!(n >= 2);
    let nf = n as f64;
    let mut expect = 0.0f64;
    let mut survive = 1.0f64; // P(no collision among first `drawn` draws)
    let mut drawn = 0u64;
    loop {
        // Draw 2 participants for interaction number `len + 1`.
        for step in 0..2u64 {
            let collide = (drawn as f64) / nf;
            let len_now = drawn / 2; // completed interactions so far
                                     // A collision here ends the batch at max(len_now, 1) — the
                                     // first interaction is consumed even on a responder collision.
            let reported = if step == 1 && len_now == 0 {
                1
            } else {
                len_now.max(1)
            };
            expect += survive * collide * reported as f64;
            survive *= 1.0 - collide;
            drawn += 1;
        }
        let len = drawn / 2;
        if drawn + 2 > n {
            // Capacity exhausted: the batch closes at `len`.
            expect += survive * len as f64;
            return expect;
        }
        if survive < 1e-15 {
            // Remaining mass is negligible; close it at the current length
            // to terminate (adds < 1e-12 to the expectation).
            expect += survive * len as f64;
            return expect;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn lengths_are_positive_and_capacity_bounded() {
        let mut rng = SimRng::seed_from_u64(1);
        for n in [2u64, 3, 4, 10, 1000] {
            for _ in 0..200 {
                let len = draw_batch_len(&mut rng, n);
                assert!(len >= 1, "n={n}");
                assert!(len <= n / 2, "n={n}, len={len}");
            }
        }
    }

    #[test]
    fn tiny_population_always_yields_one() {
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..100 {
            assert_eq!(draw_batch_len(&mut rng, 2), 1);
            assert_eq!(draw_batch_len(&mut rng, 3), 1);
        }
    }

    #[test]
    fn mean_matches_the_birthday_model() {
        // The satellite test for the `len.max(1)` bias fix: the empirical
        // mean must match the *exact* expectation of the birthday draw
        // process, not just an order of magnitude.
        let n = 10_000u64;
        let model = expected_batch_len(n);
        // Sanity: the model itself sits at the birthday scale √(π·n/8)
        // (±15% covers the discretisation of pairs).
        let birthday = (std::f64::consts::PI * n as f64 / 8.0).sqrt();
        assert!(
            (model - birthday).abs() / birthday < 0.15,
            "DP model {model} vs birthday {birthday}"
        );

        let mut rng = SimRng::seed_from_u64(77);
        let batches = 40_000u64;
        let mut total = 0u64;
        let mut total_sq = 0f64;
        for _ in 0..batches {
            let len = draw_batch_len(&mut rng, n);
            total += len;
            total_sq += (len * len) as f64;
        }
        let mean = total as f64 / batches as f64;
        let var = total_sq / batches as f64 - mean * mean;
        let se = (var / batches as f64).sqrt();
        assert!(
            (mean - model).abs() < 4.0 * se,
            "empirical mean {mean} vs model {model} (se {se:.4})"
        );
    }

    #[test]
    fn inversion_and_walk_agree_in_distribution() {
        // Just above the cutoff the analytic inversion must reproduce the
        // walk's law; compare means against each other and the DP model.
        let n = 2048u64;
        let model = expected_batch_len(n);
        let batches = 30_000u64;
        let mut rng = SimRng::seed_from_u64(3);
        let walk_mean = (0..batches)
            .map(|_| draw_batch_len_walk(&mut rng, n))
            .sum::<u64>() as f64
            / batches as f64;
        let inv_mean = (0..batches)
            .map(|_| draw_batch_len_inversion(&mut rng, n))
            .sum::<u64>() as f64
            / batches as f64;
        // sd(len) ≈ 0.52·√n ⇒ se ≈ 0.14 at these sizes; 4σ gates.
        let se = 0.52 * (n as f64).sqrt() / (batches as f64).sqrt();
        assert!(
            (walk_mean - model).abs() < 4.0 * se,
            "walk {walk_mean} vs model {model}"
        );
        assert!(
            (inv_mean - model).abs() < 4.0 * se,
            "inversion {inv_mean} vs model {model}"
        );
    }

    #[test]
    fn expected_batch_len_is_monotone_in_n() {
        let mut prev = 0.0;
        for n in [4u64, 16, 64, 256, 1024, 4096] {
            let e = expected_batch_len(n);
            assert!(e > prev, "E[len] should grow with n: {e} after {prev}");
            prev = e;
        }
    }
}
