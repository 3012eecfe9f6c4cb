//! Lumped tallies for deterministic tables.
//!
//! A uniform batch of `ℓ` interactions draws its ordered state pairs
//! `(a, b)` from `Multinomial(ℓ; c_a·c_b / n²)`. For a deterministic table
//! only each pair's *count change* matters — the effect of
//! `δ(a, b) = (a', b')` on the configuration — and many pairs share one:
//! USD's 4,225 ordered pairs at `k = 64` produce 128 changes, each "one
//! agent moves from state `x` to state `y`". Merging the cells of a
//! multinomial yields a multinomial over the merged cells, so the batch
//! can be drawn as one multinomial over the distinct changes (plus one
//! null cell), with change `g` weighted `Σ c_a·c_b` over the pairs that
//! make it.
//!
//! [`ChangeTable`] enumerates the changes once per table (`O(S²)` calls of
//! `delta`), stopping as soon as they reach a cap, so a table with too
//! many changes to lump costs only the calls that find the first `cap`
//! of them. It stores, per change and responder `b`, the initiators `a`
//! whose pair `(a, b)` makes that change — as an explicit list or as its
//! complement in `0..S`, whichever is shorter — so a change's weight costs
//! `O(min(|members|, S − |members|))` per responder. USD's lists are all
//! of length one or two, so its weights cost `O(k)` per batch instead of
//! the `O(k²)` a scan over every pair would.
//!
//! Weights are `u128`: a product of two counts overflows `u64` once
//! `n > 2³²`.

use std::collections::HashMap;

use rand::SeedableRng;

use crate::batch::TableProtocol;
use crate::protocol::SimRng;

/// Marks an unassigned slot in the construction tables.
const NONE: u32 = u32::MAX;

/// Largest state count whose one-agent moves are keyed through a dense
/// `from × to` table during the build (`4·S²` bytes: 16 MiB here).
/// Larger tables key them through the map, in memory proportional to
/// the changes found.
const DENSE_STATES: usize = 2048;

/// One count change, as a representative pair's transition
/// `(a, b) → (a2, b2)`: applying it `m` times moves `m` agents out of `a`
/// and `b` and into `a2` and `b2`, which nets to the change itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Change {
    pub a: u32,
    pub b: u32,
    pub a2: u32,
    pub b2: u32,
}

/// The initiators of one `(change, responder)` group, stored in
/// `members[start..end]` as themselves or, when `complement`, as the
/// states of `0..S` that are *not* members.
#[derive(Debug, Clone, Copy)]
struct Group {
    change: u32,
    responder: u32,
    complement: bool,
    start: u32,
    end: u32,
}

/// The distinct count changes of a deterministic table, with the
/// member lists that weight them.
#[derive(Debug)]
pub(crate) struct ChangeTable {
    changes: Vec<Change>,
    /// Responder-major: every group of responder `b` precedes those of
    /// `b + 1`.
    groups: Vec<Group>,
    members: Vec<u32>,
}

impl ChangeTable {
    /// Enumerate the changes of `protocol`, which must be deterministic,
    /// or return `None` as soon as `cap` of them are found.
    ///
    /// Up to [`DENSE_STATES`] states, one-agent moves are keyed through a
    /// dense `from × to` table (dropped on return), and only two-agent
    /// moves go through the map.
    pub fn build<P: TableProtocol>(protocol: &P, cap: usize) -> Option<Self> {
        debug_assert!(protocol.is_deterministic());
        let states = protocol.states();
        let s = u32::try_from(states).expect("state count fits u32");
        // Deterministic tables never touch their RNG.
        let mut rng = SimRng::seed_from_u64(0);
        let dense = states <= DENSE_STATES;
        let mut moves = if dense {
            vec![NONE; states * states]
        } else {
            Vec::new()
        };
        // Two-agent moves by both sorted multisets; one-agent moves of a
        // sparse build as `[from, to, NONE, NONE]`.
        let mut keyed: HashMap<[u32; 4], u32> = HashMap::new();
        let mut changes: Vec<Change> = Vec::new();
        let mut groups: Vec<Group> = Vec::new();
        let mut members: Vec<u32> = Vec::new();
        // Per change: the responder whose walk last opened a group for it,
        // and that group's index.
        let mut opened_by: Vec<u32> = Vec::new();
        let mut group_of: Vec<u32> = Vec::new();
        // Per initiator, for the current responder: its change (or NONE).
        let mut change_of = vec![NONE; states];
        let mut sizes: Vec<u32> = Vec::new();

        for b in 0..s {
            let first = groups.len();
            sizes.clear();
            for a in 0..s {
                let (a2, b2) = protocol.delta(a as usize, b as usize, &mut rng);
                let (a2, b2) = (a2 as u32, b2 as u32);
                let key = match net_change(a, b, a2, b2) {
                    Net::Null => {
                        change_of[a as usize] = NONE;
                        continue;
                    }
                    Net::One(from, to) if dense => &mut moves[from as usize * states + to as usize],
                    Net::One(from, to) => keyed.entry([from, to, NONE, NONE]).or_insert(NONE),
                    Net::Two(key) => keyed.entry(key).or_insert(NONE),
                };
                if *key == NONE {
                    *key = changes.len() as u32;
                    changes.push(Change { a, b, a2, b2 });
                    if changes.len() >= cap {
                        return None;
                    }
                    opened_by.push(NONE);
                    group_of.push(NONE);
                }
                let g = *key;
                change_of[a as usize] = g;
                if opened_by[g as usize] != b {
                    opened_by[g as usize] = b;
                    group_of[g as usize] = groups.len() as u32;
                    groups.push(Group {
                        change: g,
                        responder: b,
                        complement: false,
                        start: 0,
                        end: 0,
                    });
                    sizes.push(0);
                }
                sizes[group_of[g as usize] as usize - first] += 1;
            }
            // Lay out this responder's lists, the shorter side of each.
            for (group, &size) in groups[first..].iter_mut().zip(&sizes) {
                group.complement = s - size < size;
                group.start = members.len() as u32;
                let len = if group.complement { s - size } else { size };
                members.resize(members.len() + len as usize, 0);
                group.end = members.len() as u32;
            }
            let mut cursor: Vec<u32> = groups[first..].iter().map(|g| g.start).collect();
            for a in 0..s {
                let g = change_of[a as usize];
                if g == NONE {
                    continue;
                }
                let i = group_of[g as usize] as usize;
                if !groups[i].complement {
                    members[cursor[i - first] as usize] = a;
                    cursor[i - first] += 1;
                }
            }
            // At most one group per responder can hold more than half of
            // `0..S`, so this pass is `O(S)` per responder.
            for (i, group) in groups[first..].iter().enumerate() {
                if group.complement {
                    for a in (0..s).filter(|&a| change_of[a as usize] != group.change) {
                        members[cursor[i] as usize] = a;
                        cursor[i] += 1;
                    }
                }
            }
        }
        Some(Self {
            changes,
            groups,
            members,
        })
    }

    /// Number of distinct non-null count changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Change `g`'s representative transition.
    pub fn change(&self, g: usize) -> Change {
        self.changes[g]
    }

    /// Fill `out[g]` with `Σ c_a·c_b` over the pairs `(a, b)` making change
    /// `g`, in the configuration `counts` of `total` agents.
    pub fn weights(&self, counts: &[u64], total: u64, out: &mut Vec<u128>) {
        out.clear();
        out.resize(self.changes.len(), 0);
        for group in &self.groups {
            let c_b = counts[group.responder as usize];
            if c_b == 0 {
                continue;
            }
            let listed: u64 = self.members[group.start as usize..group.end as usize]
                .iter()
                .map(|&a| counts[a as usize])
                .sum();
            let c_a = if group.complement {
                total - listed
            } else {
                listed
            };
            out[group.change as usize] += u128::from(c_b) * u128::from(c_a);
        }
    }
}

/// What one transition does to the configuration.
enum Net {
    /// Nothing: the pair leaves as the same multiset of states.
    Null,
    /// One agent moves `from → to`.
    One(u32, u32),
    /// Two agents move; the key is both multisets, each sorted.
    Two([u32; 4]),
}

fn net_change(a: u32, b: u32, a2: u32, b2: u32) -> Net {
    if (a, b) == (a2, b2) || (a, b) == (b2, a2) {
        Net::Null
    } else if a == a2 {
        Net::One(b, b2)
    } else if b == b2 {
        Net::One(a, a2)
    } else if a == b2 {
        Net::One(b, a2)
    } else if b == a2 {
        Net::One(a, b2)
    } else {
        Net::Two([a.min(b), a.max(b), a2.min(b2), a2.max(b2)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::sim::tests::{Am3, Usd};

    /// A transition's effect on the configuration, as its non-zero
    /// per-state changes in state order.
    fn net(a: u32, b: u32, a2: u32, b2: u32) -> Vec<(u32, i64)> {
        let mut net = std::collections::BTreeMap::new();
        for (s, d) in [(a, -1), (b, -1), (a2, 1), (b2, 1)] {
            *net.entry(s).or_insert(0i64) += d;
        }
        net.into_iter().filter(|&(_, d)| d != 0).collect()
    }

    /// The change weights by brute force over every ordered pair of
    /// occupied states, and the null mass.
    fn brute_weights<P: TableProtocol>(
        protocol: &P,
        table: &ChangeTable,
        counts: &[u64],
    ) -> (Vec<u128>, u128) {
        let index: HashMap<Vec<(u32, i64)>, usize> = (0..table.len())
            .map(|g| {
                let c = table.change(g);
                (net(c.a, c.b, c.a2, c.b2), g)
            })
            .collect();
        assert_eq!(index.len(), table.len(), "changes are distinct");
        let mut rng = SimRng::seed_from_u64(0);
        let mut w = vec![0u128; table.len()];
        let mut null = 0u128;
        let occupied: Vec<usize> = (0..counts.len()).filter(|&s| counts[s] > 0).collect();
        for &a in &occupied {
            for &b in &occupied {
                let (a2, b2) = protocol.delta(a, b, &mut rng);
                let p = u128::from(counts[a]) * u128::from(counts[b]);
                let net = net(a as u32, b as u32, a2 as u32, b2 as u32);
                if net.is_empty() {
                    null += p;
                } else {
                    w[index[&net]] += p;
                }
            }
        }
        (w, null)
    }

    fn build_all<P: TableProtocol>(protocol: &P) -> ChangeTable {
        ChangeTable::build(protocol, usize::MAX).expect("no cap")
    }

    #[test]
    fn usd_has_two_changes_per_opinion() {
        // One opinion has no clashes: only the undecided adopt it.
        assert_eq!(build_all(&Usd(1)).len(), 1);
        for k in [2usize, 3, 64] {
            assert_eq!(build_all(&Usd(k)).len(), 2 * k, "k = {k}");
        }
        assert_eq!(build_all(&Am3).len(), 4);
    }

    #[test]
    fn the_build_stops_at_its_cap() {
        assert!(ChangeTable::build(&Usd(64), 128).is_none());
        assert_eq!(
            ChangeTable::build(&Usd(64), 129).map(|t| t.len()),
            Some(128)
        );
        // Far past the dense limit, two hundred thousand changes: the
        // first responder's walk finds 44 of them, so the build returns
        // after 45 calls of `delta` instead of 10¹⁰.
        assert!(ChangeTable::build(&Usd(100_000), 44).is_none());
    }

    #[test]
    fn weights_match_a_scan_over_every_pair() {
        let usd = Usd(6);
        let table = build_all(&usd);
        for counts in [
            vec![0u64, 5, 9, 0, 1, 30, 2],
            vec![3u64, 0, 0, 0, 0, 0, 7],
            vec![
                u64::from(u32::MAX) * 3,
                7,
                u64::from(u32::MAX) * 2,
                1,
                0,
                0,
                5,
            ],
        ] {
            let total: u64 = counts.iter().sum();
            let mut w = Vec::new();
            table.weights(&counts, total, &mut w);
            let (want, null) = brute_weights(&usd, &table, &counts);
            assert_eq!(w, want, "{counts:?}");
            let n = u128::from(total);
            assert_eq!(w.iter().sum::<u128>() + null, n * n, "{counts:?}");
        }
    }

    /// A table mixing long member lists (stored as complements),
    /// two-agent moves and swaps (null), padded with swap-only states.
    struct Mixed(usize);
    impl TableProtocol for Mixed {
        fn states(&self) -> usize {
            self.0
        }
        fn is_deterministic(&self) -> bool {
            true
        }
        fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
            match (a, b) {
                // One two-agent move, from two ordered pairs.
                (0, 1) => (2, 3),
                (1, 0) => (3, 2),
                // Responder 3 leaves for 0 under every initiator but
                // itself: a group stored as its complement.
                (x, 3) if x != 3 => (x, 0),
                (4, _) => (4, 0),
                // Swaps: null.
                (x, y) => (y, x),
            }
        }
        fn output(&self, _counts: &[u64]) -> Option<u32> {
            None
        }
    }

    #[test]
    fn complements_and_two_agent_moves_are_weighted_exactly() {
        // Keyed densely at 5 states and through the map past the dense
        // limit; the padding states carry agents, but no changes.
        for states in [5, DENSE_STATES + 3] {
            let table = build_all(&Mixed(states));
            assert!(table.groups.iter().any(|g| g.complement));
            let mut counts = vec![0u64; states];
            counts[..5].copy_from_slice(&[4, 11, 2, 0, 9]);
            counts[states - 1] += 6;
            let total = counts.iter().sum();
            let mut w = Vec::new();
            table.weights(&counts, total, &mut w);
            assert_eq!(w, brute_weights(&Mixed(states), &table, &counts).0);
        }
    }

    #[test]
    fn sparse_keying_finds_the_dense_changes() {
        // USD past the dense limit: the same two changes per opinion,
        // weighted exactly on a configuration with a few occupied states.
        let k = DENSE_STATES + 10;
        let table = build_all(&Usd(k));
        assert_eq!(table.len(), 2 * k);
        let mut counts = vec![0u64; k + 1];
        for (s, c) in [(0, 3u64), (1, 40), (7, 2), (k, 15)] {
            counts[s] = c;
        }
        let total = counts.iter().sum();
        let mut w = Vec::new();
        table.weights(&counts, total, &mut w);
        assert_eq!(w, brute_weights(&Usd(k), &table, &counts).0);
    }
}
