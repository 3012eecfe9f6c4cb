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
//! [`ShardedFenwick`], the engine's census, layers a two-level variant on
//! top: states are partitioned into fixed shards, each its own
//! [`Fenwick`], with a top-level tree over shard totals. `add`/`index_of`
//! keep the exact cumulative semantics of a flat tree: **for any
//! `target`, a sharded tree and a flat tree over the same weights return
//! the same index**, because both resolve the cumulative interval
//! containing `target` in index order, and a draw consumes the same RNG
//! word from either.

use rand::Rng;

use crate::protocol::SimRng;

/// States per shard in a [`ShardedFenwick`]. Small state spaces (the
/// 3–4-state majority protocols) collapse to a single shard and behave
/// exactly like a flat tree; only wide tables (USD at large `k`) fan out.
const SHARD_STATES: usize = 256;

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
        let mut tree = vec![0u64; len + 1];
        tree[1..].copy_from_slice(weights);
        for i in 1..=len {
            let parent = i + (i & i.wrapping_neg());
            if parent <= len {
                tree[parent] += tree[i];
            }
        }
        let total = weights.iter().sum();
        let top = if len.is_power_of_two() {
            len
        } else {
            len.next_power_of_two() >> 1
        };
        Self {
            tree,
            len,
            top,
            total,
        }
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

/// Two-level Fenwick census: states partitioned into 256-state shards,
/// each an independent [`Fenwick`], plus a top tree over shard
/// totals. Point updates touch one shard and the top (`O(log S)` as
/// before); a full rebuild rebuilds every shard, then the top.
#[derive(Debug, Clone)]
pub struct ShardedFenwick {
    /// Per-shard trees; all but the last cover exactly `shard_len` states.
    shards: Vec<Fenwick>,
    /// States per shard.
    shard_len: usize,
    /// Tree over shard totals, merged after every rebuild.
    top: Fenwick,
    /// Number of states.
    len: usize,
}

impl ShardedFenwick {
    /// Build from per-index weights.
    pub fn from_weights(weights: &[u64]) -> Self {
        let len = weights.len();
        assert!(len > 0, "Fenwick tree needs at least one weight");
        let shard_len = SHARD_STATES;
        let shards: Vec<Fenwick> = weights
            .chunks(shard_len)
            .map(Fenwick::from_weights)
            .collect();
        let totals: Vec<u64> = shards.iter().map(Fenwick::total).collect();
        let top = Fenwick::from_weights(&totals);
        Self {
            shards,
            shard_len,
            top,
            len,
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the tree covers no weights (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of all weights.
    pub fn total(&self) -> u64 {
        self.top.total()
    }

    /// Rebuild every shard from `weights`, then the top tree over the
    /// shard totals. `threads` is ignored: the rebuild runs on the
    /// calling thread, and the argument remains only because perfbench
    /// still passes it.
    pub fn rebuild(&mut self, weights: &[u64], threads: usize) {
        let _ = threads;
        assert_eq!(weights.len(), self.len, "weight count changed");
        for (shard, w) in self.shards.iter_mut().zip(weights.chunks(self.shard_len)) {
            *shard = Fenwick::from_weights(w);
        }
        let totals: Vec<u64> = self.shards.iter().map(Fenwick::total).collect();
        self.top = Fenwick::from_weights(&totals);
    }

    /// Add `delta` to the weight at `index`: one shard update plus one
    /// top update.
    pub fn add(&mut self, index: usize, delta: i64) {
        debug_assert!(index < self.len);
        let shard = index / self.shard_len;
        self.shards[shard].add(index % self.shard_len, delta);
        self.top.add(shard, delta);
    }

    /// Weight currently stored at `index`.
    pub fn get(&self, index: usize) -> u64 {
        self.shards[index / self.shard_len].get(index % self.shard_len)
    }

    /// Sum of weights at indices `< count`.
    pub fn prefix(&self, count: usize) -> u64 {
        debug_assert!(count <= self.len);
        let shard = count / self.shard_len;
        if shard == self.shards.len() {
            return self.top.total();
        }
        self.top.prefix(shard) + self.shards[shard].prefix(count % self.shard_len)
    }

    /// Draw an index with probability proportional to its weight.
    ///
    /// # Panics
    ///
    /// Panics if the total weight is zero.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        assert!(self.total() > 0, "cannot sample from an empty distribution");
        self.index_of(rng.gen_range(0..self.total()))
    }

    /// The index whose cumulative weight interval contains `target` —
    /// descends the top tree to pick the shard, then the shard tree.
    /// Agrees with a flat [`Fenwick`] over the same weights for every
    /// target.
    #[inline]
    pub fn index_of(&self, target: u64) -> usize {
        debug_assert!(target < self.total());
        let shard = self.top.index_of(target);
        let rem = target - self.top.prefix(shard);
        shard * self.shard_len + self.shards[shard].index_of(rem)
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

    /// Deterministic pseudo-random weights without an RNG dependency.
    fn mixed_weights(len: usize, salt: u64) -> Vec<u64> {
        (0..len as u64)
            .map(|i| {
                let h = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h >> 57) * u64::from(!h.is_multiple_of(5))
            })
            .collect()
    }

    #[test]
    fn sharded_agrees_with_flat_for_every_target() {
        // Straddle shard boundaries: 1 shard, exactly 2, and a ragged tail.
        for len in [3usize, 255, 256, 257, 700] {
            let w = mixed_weights(len, 12);
            let flat = Fenwick::from_weights(&w);
            let sharded = ShardedFenwick::from_weights(&w);
            assert_eq!(sharded.total(), flat.total());
            assert_eq!(sharded.len(), flat.len());
            let total = flat.total();
            let step = (total / 4096).max(1);
            let mut target = 0;
            while target < total {
                assert_eq!(
                    sharded.index_of(target),
                    flat.index_of(target),
                    "len {len}, target {target}"
                );
                target += step;
            }
            for i in 0..len {
                assert_eq!(sharded.get(i), flat.get(i), "get({i})");
                assert_eq!(sharded.prefix(i), flat.prefix(i), "prefix({i})");
            }
            assert_eq!(sharded.prefix(len), flat.prefix(len));
        }
    }

    #[test]
    fn sharded_add_tracks_flat() {
        let w = mixed_weights(600, 5);
        let mut flat = Fenwick::from_weights(&w);
        let mut sharded = ShardedFenwick::from_weights(&w);
        // Deltas spread across shards, including one that zeroes a state.
        for (i, d) in [(0usize, 7i64), (255, -(w[255] as i64)), (256, 3), (599, 11)] {
            flat.add(i, d);
            sharded.add(i, d);
        }
        assert_eq!(sharded.total(), flat.total());
        for target in 0..flat.total() {
            assert_eq!(sharded.index_of(target), flat.index_of(target));
        }
        // A rebuild replaces every shard: back to the original weights.
        sharded.rebuild(&w, 1);
        let fresh = Fenwick::from_weights(&w);
        assert_eq!(sharded.total(), fresh.total());
        for target in 0..fresh.total() {
            assert_eq!(sharded.index_of(target), fresh.index_of(target));
        }
    }

    #[test]
    fn sharded_sampling_consumes_the_same_stream_as_flat() {
        let w = mixed_weights(300, 9);
        let flat = Fenwick::from_weights(&w);
        let sharded = ShardedFenwick::from_weights(&w);
        let mut rng_a = SimRng::seed_from_u64(21);
        let mut rng_b = SimRng::seed_from_u64(21);
        for _ in 0..5000 {
            assert_eq!(flat.sample(&mut rng_a), sharded.sample(&mut rng_b));
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
