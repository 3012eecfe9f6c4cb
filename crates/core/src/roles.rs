//! Agent states: the four roles of §3 plus the shared broadcast flags.

use pp_clocks::JuntaState;
use pp_leader::LotteryState;
use pp_majority::{MajState, Verdict};

/// A collector agent: holds an opinion's tokens and the tournament bits
/// (Figure 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Collector {
    /// Opinion (1-based).
    pub opinion: u16,
    /// Tokens held (1..=merge_cap; 0 transiently in the improved init).
    pub tokens: u8,
    /// This opinion defends the current tournament.
    pub defender: bool,
    /// This opinion challenges the current tournament.
    pub challenger: bool,
    /// Final-broadcast bit (§3.4).
    pub winner: bool,
    /// Unordered modes: this opinion has already been defender/challenger.
    pub played: bool,
    /// Load-balancing value `ℓ ∈ [−merge_cap, merge_cap]`.
    pub ell: i8,
    /// Improved init: junta race within the opinion's subpopulation.
    pub junta: JuntaState,
    /// Improved init: per-opinion junta-clock counter.
    pub jc: u64,
}

impl Collector {
    /// A fresh collector holding one token of `opinion`.
    pub fn new(opinion: u16) -> Self {
        Self {
            opinion,
            tokens: 1,
            defender: false,
            challenger: false,
            winner: false,
            played: false,
            ell: 0,
            junta: JuntaState::new(),
            jc: 0,
        }
    }

    /// `true` iff this collector's opinion may still be sampled as a
    /// challenger (Appendix B: not yet played, not currently competing).
    pub fn is_candidate(&self) -> bool {
        !self.defender && !self.challenger && !self.played && !self.winner
    }
}

/// A clock agent: its counter doubles as the init counter (phase −1) and
/// the leaderless phase-clock position (phases 0..9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Clock {
    /// Counter (`0..Σ Ψ_p` once the tournaments start).
    pub g: u32,
    /// Appendix C: sub-counter implementing the fractional (1/c) init
    /// decrement — the counter drops by one every c-th collector meeting.
    pub sub: u8,
}

/// What a tracker's single opinion slot currently carries (Appendix B).
/// One slot + a two-bit kind keeps the tracker at `O(k)` states, matching
/// the paper's "same number of states as the counter tcnt".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum SlotKind {
    /// Nothing stored.
    #[default]
    Empty,
    /// A sampled challenger candidate (not yet chosen).
    Cand,
    /// The leader's defender directive (initial tournament only).
    Def,
    /// The leader's challenger directive for the current tournament.
    Chal,
}

/// A tracker agent. In the ordered [`Algorithm::Simple`](crate::Algorithm::Simple) it counts tournaments
/// (`tcnt`); in the unordered variants it amplifies candidate opinions,
/// relays the leader's directives, and participates in the leader lottery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tracker {
    /// Ordered mode: challenger counter (1..=k+1, saturating).
    pub tcnt: u16,
    /// Unordered modes: the opinion in the slot (0 = none).
    pub slot_op: u16,
    /// What the slot carries.
    pub slot_kind: SlotKind,
    /// Unordered modes: leader-lottery state.
    pub lot: LotteryState,
    /// Leader bookkeeping: patience counter (defender-spread wait and
    /// finished-detection; only ever meaningful on the leader itself).
    pub leader_ctr: u32,
    /// Leader bookkeeping: the initial defender has been picked.
    pub def_picked: bool,
}

/// A player agent: carries the match-side opinion and the embedded
/// cancel/split majority state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Player {
    /// Pre-match side: `A` (defender), `B` (challenger) or `Tie` (= the
    /// paper's `U`, undecided).
    pub po: Verdict,
    /// Embedded majority state (initialised at the start of each match).
    pub maj: MajState,
}

/// The role-specific part of an agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Role {
    /// Token-holding collector.
    Collector(Collector),
    /// Clock agent.
    Clock(Clock),
    /// Tracker agent.
    Tracker(Tracker),
    /// Player agent.
    Player(Player),
}

/// One agent of the plurality protocols.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agent {
    /// `< 0` during initialization (−1 for Algorithms 1–4; −c..−1 for
    /// Algorithm 5), `0..=9` during the tournaments.
    pub phase: i8,
    /// Role and role-specific state.
    pub role: Role,
    /// Per-phase "do once" scratch bit (reset on every phase entry).
    pub done_once: bool,
    /// Broadcast flag: leader elected *and* initial defender selected; the
    /// tournament clock may run. Constant `true` in the ordered mode.
    pub le_done: bool,
    /// Broadcast flag: no challenger candidates remain — final broadcast.
    pub fin: bool,
}

impl Agent {
    /// The initial agent of the ordered/unordered algorithms: a collector
    /// with one token, in phase −1.
    pub fn collector(opinion: u16, phase: i8, le_done: bool) -> Self {
        Self {
            phase,
            role: Role::Collector(Collector::new(opinion)),
            done_once: false,
            le_done,
            fin: false,
        }
    }

    /// The collector payload, if this agent is a collector.
    pub fn as_collector(&self) -> Option<&Collector> {
        match &self.role {
            Role::Collector(c) => Some(c),
            _ => None,
        }
    }

    /// `true` iff the agent reached the terminal (winner) state.
    pub fn is_winner(&self) -> bool {
        matches!(&self.role, Role::Collector(c) if c.winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_collector_holds_one_token() {
        let c = Collector::new(3);
        assert_eq!(c.opinion, 3);
        assert_eq!(c.tokens, 1);
        assert!(c.is_candidate());
    }

    #[test]
    fn competing_collectors_are_not_candidates() {
        let mut c = Collector::new(1);
        c.defender = true;
        assert!(!c.is_candidate());
        let mut c = Collector::new(1);
        c.played = true;
        assert!(!c.is_candidate());
    }

    #[test]
    fn slot_kind_priority_order() {
        // Tracker-to-tracker adoption relies on this ordering: directives
        // beat candidates beat empty slots.
        assert!(SlotKind::Chal > SlotKind::Def);
        assert!(SlotKind::Def > SlotKind::Cand);
        assert!(SlotKind::Cand > SlotKind::Empty);
    }

    #[test]
    fn winner_detection() {
        let mut a = Agent::collector(2, -1, true);
        assert!(!a.is_winner());
        if let Role::Collector(c) = &mut a.role {
            c.winner = true;
        }
        assert!(a.is_winner());
    }
}
