//! The junta-clock-synchronised coin lottery.
//!
//! All participants run the junta election and junta clock of \[11\]
//! (`pp-clocks`). Every participant starts as a *candidate*. Each clock
//! "hour" every surviving candidate draws a fresh coin; the pair
//! `(hour, coin)` is a lottery *token*, and the population relays the
//! lexicographic maximum token epidemically. A candidate that observes a
//! token strictly greater than its own current `(hour, coin)` retires.
//!
//! * **At least one survivor:** tokens are snapshots of candidate states, so
//!   no token ever strictly exceeds the lexicographically maximal current
//!   candidate — that candidate never retires.
//! * **Unique w.h.p.:** two candidates can only both survive `H` hours by
//!   drawing identical coins in every shared hour; with `H = ⌈3·log₂ n⌉`
//!   a union bound gives failure probability ≤ n²·2^(−H) ≤ 1/n.
//! * **Time:** `H` hours × Θ(log n) per hour = `O(log² n)` w.h.p.
//! * **Termination detection:** the candidate that reaches hour `H` *knows*
//!   it is the leader (the paper's requirement in Appendix B) and
//!   broadcasts `done`.

use pp_clocks::{FormJunta, JuntaClock, JuntaState};
use pp_engine::{Protocol, SimRng};
use rand::Rng;

/// Per-participant lottery state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LotteryState {
    /// Junta-race state.
    pub junta: JuntaState,
    /// Junta-clock counter.
    pub p: u64,
    /// Still in the running.
    pub candidate: bool,
    /// This hour's coin.
    pub coin: bool,
    /// Best token seen: hour.
    pub best_hour: u64,
    /// Best token seen: coin.
    pub best_coin: bool,
    /// Elected (a candidate that completed the final hour).
    pub leader: bool,
    /// Election-concluded broadcast flag.
    pub done: bool,
}

/// The lottery component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lottery {
    election: FormJunta,
    clock: JuntaClock,
    end_hour: u64,
}

impl Lottery {
    /// A lottery sized for `n` participants: junta cap per \[11\] (floored
    /// at 3 — see below), the given hour length, and `H = ⌈3·log₂ n⌉`
    /// elimination hours.
    ///
    /// The junta cap `⌊log₂log₂ n⌋ − 3` degenerates to 1 at simulation
    /// scales, which makes the junta roughly half the population and drives
    /// the clock frontier faster than the token epidemic — hours then fail
    /// to act as synchronised elimination rounds and several candidates
    /// survive. Flooring the cap at 3 keeps the junta small (the regime the
    /// \[11\] analysis assumes); the asymptotic formula dominates for
    /// n ≳ 2^64.
    pub fn new(n: usize, hour_len: u32) -> Self {
        assert!(n >= 2);
        let end_hour = (3.0 * (n as f64).log2()).ceil() as u64;
        let cap = FormJunta::for_population(n).max_level().max(3);
        Self {
            election: FormJunta::new(cap),
            clock: JuntaClock::new(hour_len),
            end_hour: end_hour.max(2),
        }
    }

    /// The hour after which the surviving candidate declares itself leader.
    pub fn end_hour(&self) -> u64 {
        self.end_hour
    }

    /// The clock component.
    pub fn clock(&self) -> &JuntaClock {
        &self.clock
    }

    /// Fresh participant state (every participant starts as a candidate
    /// with a random hour-0 coin).
    pub fn init_state(&self, rng: &mut SimRng) -> LotteryState {
        LotteryState {
            junta: JuntaState::new(),
            p: 0,
            candidate: true,
            coin: rng.gen(),
            best_hour: 0,
            best_coin: false,
            leader: false,
            done: false,
        }
    }

    /// One interaction between two participants (`a` initiates).
    pub fn interact(&self, a: &mut LotteryState, b: &mut LotteryState, rng: &mut SimRng) {
        // `done` freezes the machinery (states are reused afterwards).
        if a.done || b.done {
            a.done = true;
            b.done = true;
            return;
        }
        // Junta race + clock, initiator side.
        self.election.interact(&mut a.junta, &b.junta);
        let is_junta = self.election.is_junta(&a.junta);
        let before = self.clock.hour(a.p);
        self.clock.interact(is_junta, &mut a.p, b.p);
        let after = self.clock.hour(a.p);
        if after > before && a.candidate {
            a.coin = rng.gen();
        }

        // Token maxing: combine both agents' best with both current
        // candidate tokens, then broadcast the maximum both ways.
        let mut best = (a.best_hour, a.best_coin).max((b.best_hour, b.best_coin));
        if a.candidate {
            best = best.max((self.clock.hour(a.p), a.coin));
        }
        if b.candidate {
            best = best.max((self.clock.hour(b.p), b.coin));
        }
        (a.best_hour, a.best_coin) = best;
        (b.best_hour, b.best_coin) = best;

        // Elimination: a candidate strictly dominated by the best token
        // retires.
        for s in [&mut *a, &mut *b] {
            if s.candidate && (best.0, best.1) > (self.clock.hour(s.p), s.coin) {
                s.candidate = false;
            }
        }

        // Completion: a candidate that survived through the final hour is
        // the leader and knows it.
        for s in [&mut *a, &mut *b] {
            if s.candidate && !s.leader && self.clock.hour(s.p) >= self.end_hour {
                s.leader = true;
                s.done = true;
            }
        }
        if a.done || b.done {
            a.done = true;
            b.done = true;
        }
    }
}

/// Standalone leader election (experiment X11).
#[derive(Debug, Clone)]
pub struct LeaderElectionRun {
    lottery: Lottery,
}

impl LeaderElectionRun {
    /// A run over `n` participants.
    pub fn new(n: usize, hour_len: u32, rng: &mut SimRng) -> (Self, Vec<LotteryState>) {
        let lottery = Lottery::new(n, hour_len);
        let states = (0..n).map(|_| lottery.init_state(rng)).collect();
        (Self { lottery }, states)
    }

    /// The component.
    pub fn lottery(&self) -> &Lottery {
        &self.lottery
    }
}

impl Protocol for LeaderElectionRun {
    type State = LotteryState;

    fn interact(&mut self, _t: u64, a: &mut LotteryState, b: &mut LotteryState, rng: &mut SimRng) {
        self.lottery.interact(a, b, rng);
    }

    fn converged(&self, states: &[LotteryState]) -> Option<u32> {
        states
            .iter()
            .all(|s| s.done)
            .then(|| states.iter().filter(|s| s.leader).count() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{RunOptions, RunStatus, Simulation};
    use rand::SeedableRng;

    #[test]
    fn elects_exactly_one_leader() {
        for seed in 0..5 {
            let n = 3000;
            let mut rng = SimRng::seed_from_u64(1000 + seed);
            let (proto, states) = LeaderElectionRun::new(n, 4, &mut rng);
            let mut sim = Simulation::new(proto, states, seed);
            let r = sim.run(&RunOptions::with_parallel_time_budget(n, 100_000.0));
            assert_eq!(r.status, RunStatus::Converged, "seed {seed}");
            assert_eq!(r.output, Some(1), "seed {seed}: wrong leader count");
        }
    }

    #[test]
    fn leader_knows_it_is_leader() {
        let n = 2000;
        let mut rng = SimRng::seed_from_u64(7);
        let (proto, states) = LeaderElectionRun::new(n, 4, &mut rng);
        let mut sim = Simulation::new(proto, states, 3);
        let r = sim.run(&RunOptions::with_parallel_time_budget(n, 100_000.0));
        assert_eq!(r.status, RunStatus::Converged);
        let leaders: Vec<_> = sim.states().iter().filter(|s| s.leader).collect();
        assert_eq!(leaders.len(), 1);
        assert!(leaders[0].done);
    }

    #[test]
    fn time_is_polylogarithmic() {
        let n = 4096;
        let mut rng = SimRng::seed_from_u64(9);
        let (proto, states) = LeaderElectionRun::new(n, 4, &mut rng);
        let mut sim = Simulation::new(proto, states, 5);
        let r = sim.run(&RunOptions::with_parallel_time_budget(n, 200_000.0));
        assert_eq!(r.status, RunStatus::Converged);
        let log2n = (n as f64).log2();
        // O(log² n) with a moderate constant; fail loudly if it degrades to
        // something polynomial.
        assert!(
            r.parallel_time < 60.0 * log2n * log2n,
            "leader election took {} parallel time",
            r.parallel_time
        );
    }

    #[test]
    fn done_flag_freezes_state() {
        let lottery = Lottery::new(100, 4);
        let mut rng = SimRng::seed_from_u64(1);
        let mut a = lottery.init_state(&mut rng);
        let mut b = lottery.init_state(&mut rng);
        a.done = true;
        let b_before_p = b.p;
        lottery.interact(&mut a, &mut b, &mut rng);
        assert!(b.done, "done must spread");
        assert_eq!(b.p, b_before_p, "done must freeze the clock");
    }

    #[test]
    fn dominated_candidate_retires() {
        let lottery = Lottery::new(100, 4);
        let mut rng = SimRng::seed_from_u64(2);
        let mut a = lottery.init_state(&mut rng);
        let mut b = lottery.init_state(&mut rng);
        // b carries a token from a much later hour.
        b.best_hour = 5;
        b.best_coin = true;
        b.candidate = false;
        lottery.interact(&mut a, &mut b, &mut rng);
        assert!(
            !a.candidate,
            "hour-0 candidate must retire against an hour-5 token"
        );
    }
}
