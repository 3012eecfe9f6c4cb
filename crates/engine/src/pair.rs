//! Sampling and mutably borrowing a random ordered pair of agents.

use rand::{Rng, RngCore};

use crate::protocol::SimRng;

/// Draw an ordered pair of distinct indices uniformly from `0..n`.
///
/// Hot path of the sequential scheduler. Whenever `n·(n−1)` fits in a
/// `u64` (every population of at most 2³² agents), both indices come out
/// of *one* bounded draw `v` from `0..n·(n−1)`, which consumes RNG words
/// exactly as `gen_range(0..n·(n−1))` does: Lemire's multiply-shift on
/// the accepted word `x`, `v = ⌊x·n(n−1)/2⁶⁴⌋`, rejecting `x` while the
/// low half of `x·n(n−1)` falls below `2⁶⁴ mod n(n−1)`. The pair is
/// `(v / (n−1), v mod (n−1))` with the responder shifted past the
/// initiator, split without a division: since `⌊⌊y⌋/m⌋ = ⌊y/m⌋`, the
/// initiator is `i = ⌊x·n/2⁶⁴⌋` and the remainder `v − i·(n−1)`. Larger
/// populations take two bounded draws.
///
/// # Panics
///
/// Panics if `n < 2`.
#[inline]
pub fn sample_pair(rng: &mut SimRng, n: usize) -> (usize, usize) {
    assert!(n >= 2, "population must contain at least two agents");
    let (i, j) = if n as u64 <= 1u64 << 32 {
        let n = n as u64;
        let pairs = n * (n - 1);
        let mut x = rng.next_u64();
        if x.wrapping_mul(pairs) < pairs {
            x = accept_word(rng, pairs, x);
        }
        let (i, j) = split_word(x, n);
        (i as usize, j as usize)
    } else {
        draw_wide(rng, n)
    };
    (i, if j >= i { j + 1 } else { j })
}

/// The draw `(v / (n−1), v mod (n−1))` of a Lemire word `x` from the
/// `n·(n−1)` ordered pairs of `0..n`, where `v = ⌊x·n(n−1)/2⁶⁴⌋`,
/// computed without a division.
#[inline]
fn split_word(x: u64, n: u64) -> (u64, u64) {
    let high = |m: u64| ((u128::from(x) * u128::from(m)) >> 64) as u64;
    let i = high(n);
    (i, high(n * (n - 1)) - i * (n - 1))
}

/// The rejection step of the bounded draw from `0..pairs`, taken only
/// when the first word's low product falls below `pairs` (about
/// `pairs/2⁶⁴` of the time): redraw while it lies below the threshold
/// `2⁶⁴ mod pairs`, exactly as `rand::bounded_u64` does.
#[cold]
#[inline(never)]
fn accept_word(rng: &mut SimRng, pairs: u64, mut x: u64) -> u64 {
    let threshold = pairs.wrapping_neg() % pairs;
    while x.wrapping_mul(pairs) < threshold {
        x = rng.next_u64();
    }
    x
}

/// The draw of [`sample_pair`] above 2³² agents, where `n·(n−1)`
/// overflows a `u64`: two bounded draws.
#[cold]
#[inline(never)]
fn draw_wide(rng: &mut SimRng, n: usize) -> (usize, usize) {
    (rng.gen_range(0..n), rng.gen_range(0..n - 1))
}

/// Obtain simultaneous mutable references to two distinct slice elements.
///
/// # Panics
///
/// Panics if `i == j` or either index is out of bounds.
#[inline]
pub fn pair_mut<T>(slice: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j, "pair_mut requires distinct indices");
    let (lo, hi) = slice.split_at_mut(i.max(j));
    let (low, high) = (&mut lo[i.min(j)], &mut hi[0]);
    if i < j {
        (low, high)
    } else {
        (high, low)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sample_pair_is_distinct_and_in_range() {
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let (i, j) = sample_pair(&mut rng, 5);
            assert_ne!(i, j);
            assert!(i < 5 && j < 5);
        }
    }

    #[test]
    fn sample_pair_covers_all_ordered_pairs() {
        let mut rng = SimRng::seed_from_u64(3);
        let n = 4;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            seen.insert(sample_pair(&mut rng, n));
        }
        assert_eq!(seen.len(), n * (n - 1));
    }

    #[test]
    fn sample_pair_is_roughly_uniform() {
        let mut rng = SimRng::seed_from_u64(11);
        let n = 3;
        let trials = 60_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..trials {
            *counts.entry(sample_pair(&mut rng, n)).or_insert(0u32) += 1;
        }
        let expect = trials as f64 / (n * (n - 1)) as f64;
        for (&pair, &c) in &counts {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "pair {pair:?} count {c} deviates {dev:.3}");
        }
    }

    #[test]
    fn one_word_path_is_uniform_over_ordered_pairs() {
        // n = 100 exercises the single-RNG-word decomposition; every
        // ordered pair must appear with frequency 1/(n·(n−1)).
        let mut rng = SimRng::seed_from_u64(21);
        let n = 100;
        let trials = 2_000_000;
        let mut counts = vec![0u32; n * n];
        for _ in 0..trials {
            let (i, j) = sample_pair(&mut rng, n);
            assert_ne!(i, j);
            counts[i * n + j] += 1;
        }
        let expect = trials as f64 / (n * (n - 1)) as f64;
        let mut worst = 0.0f64;
        for i in 0..n {
            assert_eq!(counts[i * n + i], 0, "self-pair ({i},{i}) drawn");
            for j in 0..n {
                if i != j {
                    worst = worst.max((counts[i * n + j] as f64 - expect).abs() / expect);
                }
            }
        }
        // ~200 expected per cell; 5σ ≈ 0.35 relative.
        assert!(worst < 0.4, "worst cell deviation {worst:.3}");
    }

    /// The split `(v / (n−1), v mod (n−1))` of a word `x`, by division.
    fn split_by_division(x: u64, n: u64) -> (u64, u64) {
        let v = ((u128::from(x) * u128::from(n * (n - 1))) >> 64) as u64;
        (v / (n - 1), v % (n - 1))
    }

    #[test]
    fn split_word_matches_division() {
        let mut rng = SimRng::seed_from_u64(13);
        let random: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();
        let edges = [0, 1, 1 << 63, u64::MAX];
        for n in [2, 3, 4_000, 1_000_000, (1 << 31) + 11, 1 << 32] {
            for &x in edges.iter().chain(&random) {
                assert_eq!(
                    split_word(x, n),
                    split_by_division(x, n),
                    "x = {x:#x}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn redraws_consume_words_as_gen_range_does() {
        // n·(n−1) lies just above 2⁶³, so about half of all words fall
        // below the rejection threshold 2⁶⁴ mod n·(n−1) and are redrawn.
        let n: usize = 3_037_000_501;
        let pairs = n as u64 * (n as u64 - 1);
        assert!(pairs > 1 << 63);
        let start = SimRng::seed_from_u64(17);
        let (mut fast, mut reference) = (start.clone(), start.clone());
        let calls = 10_000;
        for _ in 0..calls {
            let v = reference.gen_range(0..pairs);
            let (i, j) = ((v / (n as u64 - 1)) as usize, (v % (n as u64 - 1)) as usize);
            let want = (i, if j >= i { j + 1 } else { j });
            assert_eq!(sample_pair(&mut fast, n), want);
            assert_eq!(fast.state(), reference.state());
        }
        // Count the words drawn: one per call plus the redraws.
        let mut probe = start;
        let mut words = 0;
        while probe.state() != fast.state() {
            probe.next_u64();
            words += 1;
        }
        assert!(words > calls * 3 / 2, "{words} words for {calls} draws");
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn sample_pair_rejects_an_empty_population() {
        let _ = sample_pair(&mut SimRng::seed_from_u64(1), 0);
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn sample_pair_rejects_a_single_agent() {
        let _ = sample_pair(&mut SimRng::seed_from_u64(1), 1);
    }

    #[test]
    fn pair_mut_returns_correct_elements() {
        let mut v = vec![10, 20, 30, 40];
        {
            let (a, b) = pair_mut(&mut v, 1, 3);
            assert_eq!((*a, *b), (20, 40));
            *a = 21;
            *b = 41;
        }
        {
            let (a, b) = pair_mut(&mut v, 3, 1);
            assert_eq!((*a, *b), (41, 21));
        }
        assert_eq!(v, vec![10, 21, 30, 41]);
    }

    #[test]
    #[should_panic]
    fn pair_mut_rejects_equal_indices() {
        let mut v = vec![1, 2];
        let _ = pair_mut(&mut v, 1, 1);
    }
}
