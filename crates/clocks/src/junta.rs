//! `FormJunta`: the level-race junta election of Berenbrink et al. \[11\].
//!
//! Agents start active at level 0. An *active* initiator that meets an agent
//! on the same or a higher level climbs one level; meeting a lower-level
//! agent knocks it out (inactive). Agents that reach the maximum level
//! `ℓmax` form the *junta* (and stop climbing). With
//! `ℓmax = ⌊log₂log₂ x⌋ − 3` on a population of size `x`, the junta is
//! non-empty and of size at most `x^0.98` w.h.p. (\[11\], Thm 1); the paper's
//! Claim 8 shows the slack variant `ℓmax = ⌊log₂log₂ n⌋ − 2` still works for
//! subpopulations of size ≥ √n.

use pp_engine::{Protocol, SimRng};

/// Per-agent junta-election state: the level reached and whether the agent
/// is still racing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JuntaState {
    /// Current level (`0..=ℓmax`).
    pub level: u8,
    /// Whether the agent is still actively climbing.
    pub active: bool,
}

impl JuntaState {
    /// Initial state: level 0, active.
    pub fn new() -> Self {
        Self {
            level: 0,
            active: true,
        }
    }
}

impl Default for JuntaState {
    fn default() -> Self {
        Self::new()
    }
}

/// The election component: the level cap and the race rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormJunta {
    max_level: u8,
}

impl FormJunta {
    /// An election racing to the given maximum level (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `max_level` is 0.
    pub fn new(max_level: u8) -> Self {
        assert!(max_level >= 1, "junta election needs at least one level");
        Self { max_level }
    }

    /// `ℓmax = max(1, ⌊log₂log₂ x⌋ − 3)`: the \[11\] setting for a population
    /// whose size `x` the agents know.
    pub fn for_population(x: usize) -> Self {
        Self::new(Self::level_cap(x, 3))
    }

    /// `ℓmax = max(1, ⌊log₂log₂ n⌋ − 2)`: the paper's §4 setting, used when a
    /// subpopulation of unknown size ≥ √n runs the election but only the
    /// global `n` is known (Claim 8).
    pub fn for_subpopulation_of(n: usize) -> Self {
        Self::new(Self::level_cap(n, 2))
    }

    fn level_cap(x: usize, slack: u8) -> u8 {
        assert!(x >= 2);
        let loglog = (x as f64).log2().log2().floor() as i64;
        (loglog - i64::from(slack)).max(1) as u8
    }

    /// The level at which agents join the junta.
    pub fn max_level(&self) -> u8 {
        self.max_level
    }

    /// `true` iff this agent finished the race as a junta member.
    pub fn is_junta(&self, s: &JuntaState) -> bool {
        s.level == self.max_level
    }

    /// Initiator-side race step (the responder is unchanged, as in \[11\]).
    ///
    /// Levels ≥ 1 follow the paper's description verbatim: climb when the
    /// partner is on the same or a higher level, drop out otherwise. Level 0
    /// uses \[11\]'s special start rule (the paper's footnote 3): a level-0
    /// agent climbs only past another *level-0* agent and is knocked out by
    /// anyone who already climbed — this is what makes each level roughly
    /// square the survivor density (`B_{ℓ+1} ≈ B_ℓ²/n`) and keeps the junta
    /// at `≤ x^0.98` agents.
    #[inline]
    pub fn interact(&self, a: &mut JuntaState, b: &JuntaState) {
        if !a.active {
            return;
        }
        let climbs = if a.level == 0 {
            b.level == 0
        } else {
            b.level >= a.level
        };
        if climbs {
            a.level += 1;
            if a.level >= self.max_level {
                a.level = self.max_level;
                a.active = false; // joined the junta
            }
        } else {
            a.active = false;
        }
    }
}

/// Standalone protocol measuring junta sizes and election time
/// (experiment X8).
#[derive(Debug, Clone)]
pub struct FormJuntaRun {
    election: FormJunta,
    /// Interaction at which the first agent reached `ℓmax` (`s(0)` in the
    /// paper's notation), if any.
    pub first_junta_at: Option<u64>,
}

impl FormJuntaRun {
    /// A standalone run over `n` agents with the \[11\] level cap.
    pub fn new(n: usize) -> (Self, Vec<JuntaState>) {
        (
            Self {
                election: FormJunta::for_population(n),
                first_junta_at: None,
            },
            vec![JuntaState::new(); n],
        )
    }

    /// The election component.
    pub fn election(&self) -> &FormJunta {
        &self.election
    }
}

impl Protocol for FormJuntaRun {
    type State = JuntaState;

    fn interact(&mut self, t: u64, a: &mut JuntaState, b: &mut JuntaState, _rng: &mut SimRng) {
        let was_junta = self.election.is_junta(a);
        self.election.interact(a, b);
        if !was_junta && self.election.is_junta(a) && self.first_junta_at.is_none() {
            self.first_junta_at = Some(t);
        }
    }

    fn converged(&self, states: &[JuntaState]) -> Option<u32> {
        states
            .iter()
            .all(|s| !s.active)
            .then(|| states.iter().filter(|s| self.election.is_junta(s)).count() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{RunOptions, RunStatus, Simulation};

    #[test]
    fn level_caps_match_paper() {
        // n = 2^16: log2 log2 = 4 → cap 1 (with −3) and 2 (with −2).
        assert_eq!(FormJunta::for_population(1 << 16).max_level(), 1);
        assert_eq!(FormJunta::for_subpopulation_of(1 << 16).max_level(), 2);
        // Tiny populations clamp to 1.
        assert_eq!(FormJunta::for_population(4).max_level(), 1);
    }

    #[test]
    fn race_rules() {
        let e = FormJunta::new(3);
        let mut a = JuntaState::new();
        let peer_same = JuntaState {
            level: 0,
            active: true,
        };
        e.interact(&mut a, &peer_same);
        assert_eq!(a.level, 1);
        assert!(a.active);
        // Meeting a lower level knocks out.
        let lower = JuntaState {
            level: 0,
            active: false,
        };
        e.interact(&mut a, &lower);
        assert!(!a.active);
        assert_eq!(a.level, 1);
        // Inactive agents never move again.
        let higher = JuntaState {
            level: 3,
            active: false,
        };
        e.interact(&mut a, &higher);
        assert_eq!(a.level, 1);
    }

    #[test]
    fn level_zero_start_rule() {
        let e = FormJunta::new(3);
        // A level-0 agent meeting someone who already climbed is knocked
        // out without climbing.
        let mut a = JuntaState::new();
        let climbed = JuntaState {
            level: 1,
            active: true,
        };
        e.interact(&mut a, &climbed);
        assert!(!a.active);
        assert_eq!(a.level, 0);
        // …while meeting an inactive level-0 agent still lets it climb.
        let mut c = JuntaState::new();
        let dead_zero = JuntaState {
            level: 0,
            active: false,
        };
        e.interact(&mut c, &dead_zero);
        assert_eq!(c.level, 1);
        assert!(c.active);
    }

    #[test]
    fn reaching_cap_joins_junta_and_deactivates() {
        let e = FormJunta::new(1);
        let mut a = JuntaState::new();
        e.interact(&mut a, &JuntaState::new());
        assert!(e.is_junta(&a));
        assert!(!a.active);
    }

    #[test]
    fn election_terminates_with_small_nonempty_junta() {
        let n = 20_000;
        let (proto, states) = FormJuntaRun::new(n);
        let mut sim = Simulation::new(proto, states, 77);
        let r = sim.run(&RunOptions::with_parallel_time_budget(n, 10_000.0));
        assert_eq!(r.status, RunStatus::Converged);
        let junta = r.output.expect("junta size") as usize;
        assert!(junta >= 1, "junta must be non-empty");
        // x^0.98 bound with slack: at n=20k, n^0.98 ≈ 16.5k; the realistic
        // sizes are far smaller, but we only assert the theorem's bound.
        let bound = (n as f64).powf(0.98).ceil() as usize;
        assert!(junta <= bound, "junta {junta} exceeds n^0.98 = {bound}");
        assert!(sim.protocol().first_junta_at.is_some());
    }

    #[test]
    fn junta_shrinks_with_higher_cap() {
        let run = |cap: u8| {
            let n = 20_000usize;
            let proto = FormJuntaRun {
                election: FormJunta::new(cap),
                first_junta_at: None,
            };
            let states = vec![JuntaState::new(); n];
            let mut sim = Simulation::new(proto, states, 5);
            let r = sim.run(&RunOptions::with_parallel_time_budget(n, 20_000.0));
            r.output.expect("converged") as usize
        };
        let j1 = run(1);
        let j3 = run(3);
        assert!(
            j3 < j1,
            "junta at cap 3 ({j3}) should be smaller than at cap 1 ({j1})"
        );
        assert!(j3 >= 1);
    }
}
