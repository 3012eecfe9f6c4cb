//! Per-subpopulation junta clocks (the paper's §4 pruning machinery,
//! standalone).
//!
//! Agents carry an opinion; the junta election and the junta clock run on
//! *meaningful* interactions only (both agents share the opinion). A
//! subpopulation of size `x_j` therefore drives its clock at a rate
//! proportional to `x_j²/n²` per interaction, which yields the paper's
//! Lemma 7 spacing `Θ((n²/x_j)·log n)` between hours — large opinions tick
//! fast, and opinions below `√n` (Lemma 9) w.h.p. never elect a junta at
//! all within the relevant horizon. Experiment X8 measures both facts.

use pp_engine::{Protocol, SimRng};

use crate::junta::{FormJunta, JuntaState};
use crate::junta_clock::JuntaClock;

/// Agent state: opinion plus the per-opinion clock machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubpopAgent {
    /// Opinion (1-based).
    pub opinion: u16,
    /// Junta-race state within the agent's subpopulation.
    pub junta: JuntaState,
    /// Junta-clock counter within the subpopulation.
    pub p: u64,
}

/// Standalone protocol running one junta clock per opinion.
#[derive(Debug, Clone)]
pub struct SubpopClocks {
    election: FormJunta,
    clock: JuntaClock,
    /// `first_hour_at[j][i]` = interaction at which the first agent of
    /// opinion `j + 1` reached hour `i + 1`.
    pub first_hour_at: Vec<Vec<u64>>,
    /// `first_junta_at[j]` = interaction at which subpopulation `j + 1`
    /// elected its first junta member.
    pub first_junta_at: Vec<Option<u64>>,
}

impl SubpopClocks {
    /// Build over per-agent opinions (1-based, `k` distinct). The level cap
    /// follows the paper's §4 setting `⌊log₂log₂ n⌋ − 2` because agents know
    /// only `n`, not their subpopulation size.
    pub fn new(opinions: &[u16], hour_len: u32) -> (Self, Vec<SubpopAgent>) {
        let n = opinions.len();
        let k = usize::from(*opinions.iter().max().expect("non-empty population"));
        let states = opinions
            .iter()
            .map(|&opinion| SubpopAgent {
                opinion,
                junta: JuntaState::new(),
                p: 0,
            })
            .collect();
        (
            Self {
                election: FormJunta::for_subpopulation_of(n),
                clock: JuntaClock::new(hour_len),
                first_hour_at: vec![Vec::new(); k],
                first_junta_at: vec![None; k],
            },
            states,
        )
    }

    /// The election component.
    pub fn election(&self) -> &FormJunta {
        &self.election
    }

    /// The clock component.
    pub fn clock(&self) -> &JuntaClock {
        &self.clock
    }

    /// Hours completed by opinion `op` (1-based) so far.
    pub fn hours_of(&self, op: u16) -> usize {
        self.first_hour_at[usize::from(op) - 1].len()
    }
}

impl Protocol for SubpopClocks {
    type State = SubpopAgent;

    fn interact(&mut self, t: u64, a: &mut SubpopAgent, b: &mut SubpopAgent, _rng: &mut SimRng) {
        if a.opinion != b.opinion {
            return; // not meaningful
        }
        let j = usize::from(a.opinion) - 1;
        let was_junta = self.election.is_junta(&a.junta);
        self.election.interact(&mut a.junta, &b.junta);
        if !was_junta && self.election.is_junta(&a.junta) && self.first_junta_at[j].is_none() {
            self.first_junta_at[j] = Some(t);
        }
        let is_junta = self.election.is_junta(&a.junta);
        let before = self.clock.hour(a.p);
        self.clock.interact(is_junta, &mut a.p, b.p);
        let after = self.clock.hour(a.p);
        if after > before {
            let marks = &mut self.first_hour_at[j];
            while (marks.len() as u64) < after {
                marks.push(t);
            }
        }
    }

    fn converged(&self, _states: &[SubpopAgent]) -> Option<u32> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{RunOptions, Simulation};

    fn opinions_of(counts: &[usize]) -> Vec<u16> {
        let mut v = Vec::new();
        for (i, &c) in counts.iter().enumerate() {
            v.extend(std::iter::repeat_n((i + 1) as u16, c));
        }
        v
    }

    #[test]
    fn larger_subpopulations_tick_faster() {
        // Opinion 1: 6000 agents, opinion 2: 1500 agents of n = 7500.
        let opinions = opinions_of(&[6000, 1500]);
        let n = opinions.len();
        let (proto, states) = SubpopClocks::new(&opinions, 4);
        let mut sim = Simulation::new(proto, states, 13);
        sim.run(&RunOptions::with_parallel_time_budget(n, 3000.0));
        let h1 = sim.protocol().hours_of(1);
        let h2 = sim.protocol().hours_of(2);
        assert!(h1 > h2, "large opinion hours {h1} vs small {h2}");
        assert!(
            h1 >= 2,
            "large opinion should tick at least twice, got {h1}"
        );
    }

    #[test]
    fn tiny_subpopulation_never_ticks() {
        // Opinion 2 has 8 agents among 8000: far below √n ≈ 89. Within the
        // horizon where the large opinion completes several hours, the tiny
        // one must not complete a single one (Lemmas 9/10 case 2: its junta
        // election and clock are starved of meaningful interactions). At
        // simulation sizes ℓmax is tiny, so we assert the operative
        // consequence — zero hours — rather than junta non-existence, which
        // is only asymptotic.
        let opinions = opinions_of(&[7992, 8]);
        let n = opinions.len();
        let (proto, states) = SubpopClocks::new(&opinions, 4);
        let mut sim = Simulation::new(proto, states, 99);
        sim.run(&RunOptions::with_parallel_time_budget(n, 2000.0));
        assert!(sim.protocol().hours_of(1) >= 1);
        assert_eq!(sim.protocol().hours_of(2), 0, "tiny opinion ticked");
    }

    #[test]
    fn clock_ticks_and_hours_are_spaced() {
        // One opinion: every interaction is meaningful, so this is the
        // junta clock on the whole population.
        let n = 10_000;
        let (proto, states) = SubpopClocks::new(&vec![1; n], 4);
        let mut sim = Simulation::new(proto, states, 41);
        sim.run(&RunOptions::with_parallel_time_budget(n, 800.0));
        let marks = &sim.protocol().first_hour_at[0];
        assert!(
            marks.len() >= 4,
            "expected several hours, got {}",
            marks.len()
        );
        // Spacing after warm-up should be positive and not wildly irregular.
        let gaps: Vec<f64> = marks.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let tail = &gaps[1..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(mean > 0.0);
        for g in tail {
            assert!(*g < 6.0 * mean, "hour gap {g} vs mean {mean}");
        }
    }

    #[test]
    fn meaningless_interactions_do_not_move_clocks() {
        let opinions = opinions_of(&[2, 2]);
        let (mut proto, mut states) = SubpopClocks::new(&opinions, 4);
        let mut rng = <pp_engine::SimRng as rand::SeedableRng>::seed_from_u64(1);
        // Cross-opinion interaction: nothing changes.
        let before = states.clone();
        {
            let (a, rest) = states.split_at_mut(1);
            proto.interact(0, &mut a[0], &mut rest[2], &mut rng);
        }
        assert_eq!(states, before);
    }
}
