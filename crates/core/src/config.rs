//! Tuning constants.
//!
//! The paper's analysis fixes constants only up to "sufficiently large"
//! (`5·log n` init counting, phase lengths `Θ(log n)`, the pruning constant
//! `c`, …). This module gathers every such constant in one place, states
//! which lemma each serves, and exposes them for the ablation experiment
//! (X14) that sweeps them to locate the failure-rate knee.

/// All tunable constants of the three protocols.
///
/// Thresholds scale as `⌈factor · ln n⌉` unless noted. The exactness
/// experiment x03 runs the defaults on bias-1 inputs up to `n = 1,800`,
/// `k = 6` in its default grid and up to `n = 8,000`, `k = 8` under
/// `--full`. The defaults do not always hold at bias 1: on the sequential engine with x03's budget,
/// [`Algorithm::Simple`](crate::Algorithm::Simple) answered wrong on 3 of 40 runs at `n = 4,000`,
/// `k = 8`, and on 8 of 20 at `n = 20,000`, `k = 4`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tuning {
    /// Algorithm 1 line 3: a clock agent ends the initialization phase when
    /// its counter reaches `⌈init_count_factor · ln n⌉` (the paper's
    /// `5·log n`, Lemma 3).
    pub init_count_factor: f64,
    /// Appendix C: the init counter decreases by `1/init_decrement_period`
    /// per collector meeting (implemented as one decrement every c-th such
    /// meeting). `1` is the base Algorithm 1; larger values let a clock
    /// agent finish the initialization even when collectors stay a large
    /// constant fraction of the population, extending [`Algorithm::Simple`](crate::Algorithm::Simple) to
    /// `k ≤ (1 − ε)·n`.
    pub init_decrement_period: u8,
    /// Counter units (× ln n) per tournament phase 0..9 (even = work,
    /// odd = buffer). The paper uses a uniform `Θ(log n)`; per-phase factors
    /// are a constants-only generalisation. Phase 6 (the
    /// match) carries the largest constant because the cancel/split majority
    /// runs inside it.
    pub phase_factors: [f64; 10],
    /// Cancel/split schedule window (own interactions per level) of the
    /// match majority.
    pub match_window: u32,
    /// Extra windows of dwell at the deepest level before declaring.
    pub match_tail_windows: u32,
    /// Algorithm 3 line 4: collectors merge while their combined tokens fit
    /// this cap (the paper's 10).
    pub merge_cap: u8,
    /// Algorithm 5: `phase` starts at `−improved_init_hours` (the paper's
    /// constant `c > 3·c₂/c₁`, Lemma 10). Must lie in `1..=127`;
    /// [`Machine::start`](crate::Machine::start) panics otherwise.
    ///
    /// Two hours is the measured minimum. One hour is accepted, as
    /// under-provisioned tunings such as [`Tuning::skimpy`] are meant to
    /// fail gracefully, but it answers wrong: an agent's first tick then
    /// takes it from phase −1 straight to phase 0, and its phase-0
    /// broadcast prunes as never ticked every agent that has not reached
    /// phase 0 itself, most of the plurality among them. Over seeds 0–19
    /// within x01's budget, `Algorithm::Improved` answered right in 1 of
    /// 20 runs on `one_large(2000, 4, 800)` and 0 of 20 on
    /// `one_large(4000, 8, 1000)` at one hour, and in 20 of 20 on both at
    /// each of 2–6 hours.
    pub improved_init_hours: u8,
    /// Hour length `m` of the per-opinion junta clocks (Algorithm 5).
    pub junta_hour_len: u32,
    /// Lower bound on the junta level cap for the per-opinion clocks. The
    /// paper's `⌊log₂log₂ n⌋ − 2` degenerates to 1 at simulation scales,
    /// which makes the junta half the subpopulation and the clock frontier
    /// outrun its own propagation (stragglers of *significant* opinions
    /// would be pruned). A floor of 3 restores the small-junta regime the
    /// analysis assumes; the asymptotic formula takes over for
    /// n ≳ 2^(2^5).
    pub junta_min_level: u8,
    /// Hour length `m` of the tracker lottery's junta clock (Appendix B).
    pub le_hour_len: u32,
    /// Leader patience `⌈leader_wait_factor · ln n⌉` (own interactions):
    /// how long the leader waits for the defender token to spread before
    /// releasing the clocks, and how long it samples without seeing a
    /// challenger candidate before declaring the tournaments finished
    /// (Appendix B).
    pub leader_wait_factor: f64,
}

impl Default for Tuning {
    fn default() -> Self {
        Self {
            init_count_factor: 5.0,
            init_decrement_period: 1,
            phase_factors: [7.0, 2.0, 5.0, 2.0, 5.0, 2.0, 24.0, 2.0, 4.0, 2.0],
            match_window: 10,
            match_tail_windows: 4,
            merge_cap: 10,
            improved_init_hours: 6,
            junta_hour_len: 8,
            junta_min_level: 3,
            le_hour_len: 8,
            leader_wait_factor: 16.0,
        }
    }
}

impl Tuning {
    /// A deliberately under-provisioned tuning (short phases, small match
    /// window) used by failure-injection tests and the X14 ablation: the
    /// protocols must *fail gracefully* (wrong output or timeout, never a
    /// panic or a livelock beyond the budget) when constants are too small.
    pub fn skimpy() -> Self {
        Self {
            init_count_factor: 2.0,
            init_decrement_period: 1,
            phase_factors: [1.5, 0.5, 1.0, 0.5, 1.0, 0.5, 2.0, 0.5, 1.0, 0.5],
            match_window: 2,
            match_tail_windows: 0,
            merge_cap: 10,
            improved_init_hours: 2,
            junta_hour_len: 2,
            junta_min_level: 1,
            le_hour_len: 2,
            leader_wait_factor: 2.0,
        }
    }

    /// Scale every phase length and patience constant by `f` (ablation
    /// X14 sweeps `f` to find the reliability knee).
    pub fn scaled(mut self, f: f64) -> Self {
        for p in &mut self.phase_factors {
            *p *= f;
        }
        self.leader_wait_factor *= f;
        self
    }

    /// The Appendix C configuration for large `k`: slow the init-counter
    /// decrement so the initialization ends even when a large constant
    /// fraction of the population must stay collectors, and raise the merge
    /// cap (the paper's `c′` replacing 10) so collectors compress harder
    /// and free correspondingly more worker agents — the two changes are a
    /// package: a faster-finishing clock without stronger compression ends
    /// the init before enough workers exist.
    pub fn large_k() -> Self {
        Self {
            init_decrement_period: 6,
            merge_cap: 30,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_phase_factors_are_positive() {
        let t = Tuning::default();
        assert!(t.phase_factors.iter().all(|&f| f > 0.0));
        assert!(t.match_window >= 1);
        assert!(
            t.merge_cap >= 2,
            "merging needs room for at least two tokens"
        );
    }

    #[test]
    fn scaling_scales_phases() {
        let t = Tuning::default().scaled(2.0);
        let d = Tuning::default();
        for (a, b) in t.phase_factors.iter().zip(d.phase_factors.iter()) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
        assert!((t.leader_wait_factor - 2.0 * d.leader_wait_factor).abs() < 1e-12);
    }
}
