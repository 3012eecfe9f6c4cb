//! A Fenwick (binary indexed) tree over state weights, used as an
//! `O(log S)` weighted sampler with `O(log S)` incremental updates.
//!
//! The seed engine drew states by linearly scanning the count vector —
//! `O(S)` per draw, painful once state spaces reach hundreds of states
//! (USD at large `k`, future `Θ(k + log n)` tables). The tree stores
//! prefix-sum fragments in the classic 1-indexed layout; sampling descends
//! power-of-two strides, so a draw costs one bounded RNG word plus
//! `⌈log₂ S⌉` adds.
//!
//! The batch engine keeps one [`Fenwick`] over its counts and rebuilds it
//! in place ([`Fenwick::rebuild`], `O(S)`) at the start of every batch
//! that samples it; a draw maps each RNG word to the state whose
//! cumulative interval contains it, so any tree over the same weights
//! draws the same states from the same stream. [`ShardedFenwick`] only
//! forwards to a [`Fenwick`].

use rand::Rng;

use crate::protocol::SimRng;

/// Fenwick tree over `u64` weights for weighted index sampling.
#[derive(Debug, Clone)]
pub struct Fenwick {
    /// 1-indexed partial sums: `tree[i]` covers `(i - lowbit(i), i]`.
    tree: Vec<u64>,
    /// Number of weights.
    len: usize,
    /// Largest power of two `≤ len`, the first descent stride.
    top: usize,
    /// Sum of all weights (cached).
    total: u64,
}

impl Fenwick {
    /// Build from per-index weights in `O(len)`.
    pub fn from_weights(weights: &[u64]) -> Self {
        let len = weights.len();
        assert!(len > 0, "Fenwick tree needs at least one weight");
        let top = if len.is_power_of_two() {
            len
        } else {
            len.next_power_of_two() >> 1
        };
        let mut tree = Self {
            tree: vec![0; len + 1],
            len,
            top,
            total: 0,
        };
        tree.rebuild(weights);
        tree
    }

    /// Replace every weight in `O(len)`, reusing the allocation: the tree
    /// afterwards equals `from_weights(weights)`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` has a different length.
    pub fn rebuild(&mut self, weights: &[u64]) {
        assert_eq!(weights.len(), self.len, "weight count changed");
        self.tree[1..].copy_from_slice(weights);
        for i in 1..=self.len {
            let parent = i + (i & i.wrapping_neg());
            if parent <= self.len {
                self.tree[parent] += self.tree[i];
            }
        }
        self.total = weights.iter().sum();
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the tree covers no weights (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of all weights.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Add `delta` to the weight at `index`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the weight would underflow.
    pub fn add(&mut self, index: usize, delta: i64) {
        debug_assert!(index < self.len);
        self.total = self
            .total
            .checked_add_signed(delta)
            .expect("total weight underflow");
        let mut i = index + 1;
        while i <= self.len {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Weight currently stored at `index` (`O(log len)`).
    pub fn get(&self, index: usize) -> u64 {
        self.prefix(index + 1) - self.prefix(index)
    }

    /// Sum of weights at indices `< count`.
    pub fn prefix(&self, count: usize) -> u64 {
        debug_assert!(count <= self.len);
        let mut sum = 0;
        let mut i = count;
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum
    }

    /// Draw an index with probability proportional to its weight.
    ///
    /// # Panics
    ///
    /// Panics if the total weight is zero.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        assert!(self.total > 0, "cannot sample from an empty distribution");
        self.index_of(rng.gen_range(0..self.total))
    }

    /// The index whose cumulative weight interval contains `target`
    /// (`0 ≤ target < total`): the smallest `i` with `prefix(i + 1) > target`.
    #[inline]
    pub fn index_of(&self, mut target: u64) -> usize {
        debug_assert!(target < self.total);
        let mut pos = 0usize;
        let mut stride = self.top;
        while stride > 0 {
            let next = pos + stride;
            if next <= self.len && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            stride >>= 1;
        }
        // `pos` indices have cumulative weight ≤ original target, so the
        // target falls in index `pos` (0-based).
        pos
    }
}

/// A forwarding shim over one [`Fenwick`], named for the sharded census
/// it replaced. Remains only because perfbench still calls it.
#[derive(Debug, Clone)]
pub struct ShardedFenwick(Fenwick);

impl ShardedFenwick {
    /// [`Fenwick::from_weights`].
    pub fn from_weights(weights: &[u64]) -> Self {
        Self(Fenwick::from_weights(weights))
    }

    /// [`Fenwick::rebuild`]; `threads` is ignored.
    pub fn rebuild(&mut self, weights: &[u64], threads: usize) {
        let _ = threads;
        self.0.rebuild(weights);
    }

    /// [`Fenwick::add`].
    pub fn add(&mut self, index: usize, delta: i64) {
        self.0.add(index, delta);
    }

    /// [`Fenwick::sample`].
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        self.0.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn prefix_sums_match_naive() {
        let w = [3u64, 0, 7, 1, 0, 0, 5, 2, 9];
        let t = Fenwick::from_weights(&w);
        assert_eq!(t.total(), w.iter().sum::<u64>());
        let mut acc = 0;
        for (i, &wi) in w.iter().enumerate() {
            assert_eq!(t.prefix(i), acc, "prefix({i})");
            assert_eq!(t.get(i), wi, "get({i})");
            acc += wi;
        }
        assert_eq!(t.prefix(w.len()), acc);
    }

    #[test]
    fn index_of_maps_every_unit_of_weight() {
        let w = [2u64, 0, 3, 1];
        let t = Fenwick::from_weights(&w);
        let expect = [0, 0, 2, 2, 2, 3];
        for (target, &idx) in expect.iter().enumerate() {
            assert_eq!(t.index_of(target as u64), idx, "target {target}");
        }
    }

    #[test]
    fn add_updates_prefixes_and_total() {
        let mut t = Fenwick::from_weights(&[5, 5, 5, 5, 5]);
        t.add(2, -5);
        t.add(0, 3);
        t.add(4, 10);
        let want = [8u64, 5, 0, 5, 15];
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(t.get(i), w, "get({i})");
        }
        assert_eq!(t.total(), want.iter().sum::<u64>());
        // Zero-weight index is never sampled.
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..2000 {
            assert_ne!(t.sample(&mut rng), 2);
        }
    }

    #[test]
    fn sampling_is_proportional_to_weight() {
        let w = [10u64, 0, 30, 60];
        let t = Fenwick::from_weights(&w);
        let mut rng = SimRng::seed_from_u64(7);
        let trials = 100_000;
        let mut hist = [0u64; 4];
        for _ in 0..trials {
            hist[t.sample(&mut rng)] += 1;
        }
        assert_eq!(hist[1], 0);
        for (i, &h) in hist.iter().enumerate() {
            let want = trials as f64 * w[i] as f64 / t.total() as f64;
            if want > 0.0 {
                let dev = (h as f64 - want).abs() / want;
                assert!(dev < 0.05, "index {i}: {h} vs {want} ({dev:.3})");
            }
        }
    }

    #[test]
    fn single_weight_always_sampled() {
        let t = Fenwick::from_weights(&[42]);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn rebuild_in_place_matches_a_fresh_build() {
        let mut t = Fenwick::from_weights(&[4, 1, 0, 9, 2, 6, 3]);
        t.add(3, -9);
        let w = [0u64, 7, 7, 1, 0, 5, 2];
        t.rebuild(&w);
        let fresh = Fenwick::from_weights(&w);
        assert_eq!(t.total(), fresh.total());
        for target in 0..fresh.total() {
            assert_eq!(t.index_of(target), fresh.index_of(target), "{target}");
        }
        for (i, &wi) in w.iter().enumerate() {
            assert_eq!(t.get(i), wi, "get({i})");
        }
    }

    #[test]
    fn non_power_of_two_lengths_descend_correctly() {
        for len in 1..40usize {
            let w: Vec<u64> = (0..len as u64).map(|i| i % 3).collect();
            if w.iter().sum::<u64>() == 0 {
                continue;
            }
            let t = Fenwick::from_weights(&w);
            let mut acc = 0u64;
            for (i, &wi) in w.iter().enumerate() {
                for u in acc..acc + wi {
                    assert_eq!(t.index_of(u), i, "len {len}, target {u}");
                }
                acc += wi;
            }
        }
    }
}
