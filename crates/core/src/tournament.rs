//! The tournament machine: the paper's three protocols as one
//! [`Protocol`].
//!
//! One [`Machine`] implements:
//!
//! * Algorithm 1 (clock agents: init counting + leaderless phase clock),
//! * Algorithm 2 (trackers: the ordered `tcnt` counter),
//! * Algorithm 3 (initialization: token merging, role splitting),
//! * Algorithm 4 (the five-phase tournament: setup, cancellation, lineup,
//!   match, conclusion; phase propagation),
//! * Algorithm 5 (improved initialization: per-opinion junta clocks,
//!   pruning at the phase-0 broadcast),
//! * Appendix B (tracker lottery, leader-driven defender/challenger
//!   selection, finished-detection),
//! * §3.4 (final winner broadcast).
//!
//! [`Machine::start`] builds it and its initial configuration for one
//! [`Algorithm`], which picks how challengers are chosen and which
//! initialization runs.

use pp_clocks::{FormJunta, JuntaClock, LeaderlessClock, PhaseSchedule};
use pp_dynamics::balance;
use pp_engine::{Protocol, Replacement, SimRng};
use pp_leader::Lottery;
use pp_majority::{CancelSplit, Verdict};
use pp_workloads::OpinionAssignment;
use rand::Rng;

use crate::config::Tuning;
use crate::roles::{Agent, Clock, Collector, Player, Role, SlotKind, Tracker};

/// The paper's three plurality-consensus protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// `SimpleAlgorithm` (Theorem 1(1)). Opinions are numbered `1..=k`;
    /// opinion 1 starts as the defender, and tournament `i` pits the
    /// defender against opinion `i + 1`, named by the trackers' `tcnt`.
    /// After `k − 1` tournaments the defender is broadcast. W.h.p. correct
    /// for any bias ≥ 1 in `O(k·log n)` parallel time with `O(k + log n)`
    /// states.
    Simple,
    /// The unordered variant (Theorem 1(2), Appendix B). No numbering of
    /// opinions is assumed: the trackers elect a leader (w.h.p. unique)
    /// via the junta-clock coin lottery, which samples the initial
    /// defender and one fresh challenger per tournament, and declares the
    /// tournaments finished when no candidate opinion remains. The leader
    /// election adds `O(log² n)` parallel time.
    Unordered,
    /// `ImprovedAlgorithm` (Theorem 2). Before any tournament, every
    /// opinion's subpopulation runs its own junta-driven phase clock on
    /// same-opinion interactions (Algorithm 5). The plurality's clock
    /// finishes first, and the phase-0 broadcast prunes every agent whose
    /// clock never ticked, w.h.p. exactly the insignificant opinions
    /// (`x_j ≤ x_max/c_s`). The surviving `O(n/x_max)` opinions then run
    /// the unordered tournaments, for `O(n/x_max·log n + log² n)` parallel
    /// time with `O(k·loglog n + log n)` states when
    /// `x_max > n^(1/2+ε)`. Off that regime, pruning may remove nothing
    /// or too much (measured in x09).
    Improved,
}

impl Algorithm {
    /// The label experiment tables print.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Simple => "simple",
            Algorithm::Unordered => "unordered",
            Algorithm::Improved => "improved",
        }
    }

    /// Whether challengers follow the opinions' numbering (no leader
    /// election).
    fn ordered(self) -> bool {
        self == Algorithm::Simple
    }
}

/// Interaction indices of notable global events, for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Milestones {
    /// First agent left the initialization phase (the paper's `t̂`).
    pub init_end: Option<u64>,
    /// Leader elected and initial defender selected (clocks released).
    pub le_done: Option<u64>,
    /// Leader declared the tournaments finished.
    pub fin: Option<u64>,
    /// First winner bit set (final broadcast started).
    pub first_winner: Option<u64>,
}

/// The tournament machine: all static configuration plus run milestones.
#[derive(Debug, Clone)]
pub struct Machine {
    algorithm: Algorithm,
    k: u16,
    tuning: Tuning,
    schedule: PhaseSchedule,
    clock: LeaderlessClock,
    init_threshold: u32,
    maj: CancelSplit,
    lottery: Lottery,
    sub_junta: FormJunta,
    sub_clock: JuntaClock,
    leader_wait: u32,
    /// Recorded global events.
    pub milestones: Milestones,
}

impl Machine {
    /// Build `algorithm` and its initial configuration for an opinion
    /// assignment: every agent a [`fresh_collector`](Self::fresh_collector)
    /// of its opinion, and under [`Algorithm::Simple`] opinion 1 the first
    /// defender. Construction draws no randomness.
    ///
    /// The paper's Theorem 1 assumes `k ≤ n/40`; the protocols run (with
    /// weaker guarantees, cf. Appendix C) for any `k < n`, so only room
    /// for the role split is required.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2k` or `n < 40`.
    pub fn start(
        algorithm: Algorithm,
        assignment: &OpinionAssignment,
        tuning: Tuning,
    ) -> (Self, Vec<Agent>) {
        let n = assignment.n();
        let k = assignment.k() as u16;
        assert!(n >= 40, "population too small to split into roles");
        assert!(n >= 2 * usize::from(k), "need n >= 2k");
        let machine = Self::new(algorithm, n, k, tuning);
        let states = assignment
            .opinions()
            .iter()
            .map(|&op| {
                let mut agent = machine.fresh_collector(op);
                // Lemma 3(3): opinion 1 starts as the first defender. The
                // paper sets the bit at each agent's first interaction; we
                // set it at time 0 (outcome-equivalent).
                if algorithm.ordered() && op == 1 {
                    if let Role::Collector(c) = &mut agent.role {
                        c.defender = true;
                    }
                }
                agent
            })
            .collect();
        (machine, states)
    }

    /// The machine for a population of `n` agents and `k` opinions.
    fn new(algorithm: Algorithm, n: usize, k: u16, tuning: Tuning) -> Self {
        assert!(n >= 4, "population too small for the role split");
        assert!(k >= 1);
        assert!(
            (2..=63).contains(&tuning.merge_cap),
            "merge cap must lie in 2..=63 (token and load fields are i8-sized)"
        );
        let ln = (n as f64).ln().max(1.0);
        let lengths: Vec<u32> = tuning
            .phase_factors
            .iter()
            .map(|f| ((f * ln).ceil() as u32).max(2))
            .collect();
        let schedule = PhaseSchedule::from_lengths(&lengths);
        let clock = LeaderlessClock::new(schedule.period());
        Self {
            algorithm,
            k,
            tuning,
            schedule,
            clock,
            init_threshold: (tuning.init_count_factor * ln).ceil() as u32,
            maj: CancelSplit::for_population_with_tail(
                n,
                tuning.match_window,
                tuning.match_tail_windows,
            ),
            lottery: Lottery::new(n, tuning.le_hour_len),
            sub_junta: FormJunta::new(
                FormJunta::for_subpopulation_of(n)
                    .max_level()
                    .max(tuning.junta_min_level),
            ),
            sub_clock: JuntaClock::new(tuning.junta_hour_len),
            leader_wait: (tuning.leader_wait_factor * ln).ceil() as u32,
            milestones: Milestones::default(),
        }
    }

    /// Initial phase for agents of this machine (−1, or −c for the
    /// improved init).
    pub fn initial_phase(&self) -> i8 {
        if self.algorithm == Algorithm::Improved {
            -(self.tuning.improved_init_hours as i8)
        } else {
            -1
        }
    }

    /// A fresh collector as it would enter the initial configuration of
    /// this machine: one token, initial phase, `le_done` preset under
    /// [`Algorithm::Simple`] (where no leader election runs). The state a
    /// fault-injected or rejoining agent adopts.
    pub fn fresh_collector(&self, opinion: u16) -> Agent {
        Agent::collector(opinion, self.initial_phase(), self.algorithm.ordered())
    }

    // ------------------------------------------------------------------
    // Initialization (Algorithms 1 & 3).
    // ------------------------------------------------------------------

    fn standard_init_step(&mut self, t: u64, a: &mut Agent, b: &mut Agent, rng: &mut SimRng) {
        // Algorithm 3 lines 7–8: the init phase ends by broadcast.
        if a.phase >= 0 || b.phase >= 0 {
            for x in [&mut *a, &mut *b] {
                if x.phase < 0 {
                    self.enter_phase0(x);
                }
            }
            return;
        }
        // Both in phase −1.
        if let (Role::Collector(ca), Role::Collector(cb)) = (&a.role, &b.role) {
            // Token merging: the responder absorbs, the initiator re-roles.
            if ca.opinion == cb.opinion && ca.tokens + cb.tokens <= self.tuning.merge_cap {
                let moved = ca.tokens;
                let (Role::Collector(ca), Role::Collector(cb)) = (&mut a.role, &mut b.role) else {
                    unreachable!()
                };
                cb.tokens += moved;
                ca.tokens = 0;
                a.role = self.random_worker_role(rng);
            }
            return;
        }
        // Algorithm 1 lines 1–4: init counting, initiator side only. With
        // `init_decrement_period = c > 1` this is the Appendix C variant:
        // the counter drops by one only every c-th collector meeting.
        let period = self.tuning.init_decrement_period.max(1);
        if let Role::Clock(cl) = &mut a.role {
            if matches!(b.role, Role::Collector(_)) {
                cl.sub += 1;
                if cl.sub >= period {
                    cl.sub = 0;
                    cl.g = cl.g.saturating_sub(1);
                }
            } else {
                cl.g += 1;
                if cl.g >= self.init_threshold {
                    self.milestones.init_end.get_or_insert(t);
                    self.enter_phase0(a);
                }
            }
        }
    }

    fn improved_init_step(&mut self, t: u64, a: &mut Agent, b: &mut Agent, rng: &mut SimRng) {
        // Algorithm 5 lines 8–11: phase-0 broadcast converts init agents;
        // those whose clock never ticked (phase still −c) or that hold no
        // tokens are pruned into worker roles.
        if a.phase >= 0 || b.phase >= 0 {
            for x in [&mut *a, &mut *b] {
                if x.phase < 0 {
                    self.improved_enter(x, rng);
                }
            }
            return;
        }
        // Both still initializing: everyone is a collector here.
        let (Role::Collector(ca), Role::Collector(cb)) = (&mut a.role, &mut b.role) else {
            unreachable!("improved init only holds collectors before phase 0")
        };
        if ca.opinion != cb.opinion {
            return; // not meaningful
        }
        // Junta race + per-opinion clock (initiator side).
        self.sub_junta.interact(&mut ca.junta, &cb.junta);
        let is_junta = self.sub_junta.is_junta(&ca.junta);
        let crossed = self.sub_clock.interact(is_junta, &mut ca.jc, cb.jc);
        // Token merging (the emptied agent stays a collector until the
        // broadcast — Algorithm 5 line 7).
        if ca.tokens + cb.tokens <= self.tuning.merge_cap {
            cb.tokens += ca.tokens;
            ca.tokens = 0;
        }
        if crossed > 0 {
            let target = (i64::from(a.phase) + crossed as i64).min(0) as i8;
            a.phase = target;
            if a.phase == 0 {
                self.milestones.init_end.get_or_insert(t);
                a.phase = -1; // improved_enter expects phase < 0
                self.improved_enter(a, rng);
            }
        }
    }

    /// Entry into the tournament from the improved init: prune or keep.
    fn improved_enter(&mut self, x: &mut Agent, rng: &mut SimRng) {
        let never_ticked = x.phase == self.initial_phase();
        let tokenless = matches!(&x.role, Role::Collector(c) if c.tokens == 0);
        if never_ticked || tokenless {
            x.role = self.random_worker_role(rng);
        }
        self.enter_phase0(x);
    }

    /// Uniform choice among clock/tracker/player (Algorithm 3 line 6).
    fn random_worker_role(&self, rng: &mut SimRng) -> Role {
        match rng.gen_range(0..3u8) {
            0 => Role::Clock(Clock { g: 0, sub: 0 }),
            1 => Role::Tracker(Tracker {
                tcnt: 1,
                slot_op: 0,
                slot_kind: SlotKind::Empty,
                lot: self.lottery.init_state(rng),
                leader_ctr: 0,
                def_picked: false,
            }),
            _ => Role::Player(Player::default()),
        }
    }

    /// Move an agent from the init phase into tournament phase 0, firing
    /// the phase-entry hooks. Clocks restart their counter at 0.
    fn enter_phase0(&mut self, x: &mut Agent) {
        if let Role::Clock(cl) = &mut x.role {
            cl.g = 0;
            cl.sub = 0;
        }
        x.phase = 0;
        self.on_enter_phase(x, 0);
    }

    // ------------------------------------------------------------------
    // Tournament phases (Algorithm 4 + Appendix B).
    // ------------------------------------------------------------------

    fn tournament_step(&mut self, t: u64, a: &mut Agent, b: &mut Agent, rng: &mut SimRng) {
        self.advance_clocks(a, b);
        self.propagate_phase(a, b);

        if a.phase == b.phase {
            match a.phase {
                0 => self.setup_phase(t, a, b, rng),
                2 => self.cancellation_phase(a, b),
                4 => self.lineup_phase(a, b),
                6 => self.match_phase(a, b),
                8 => self.conclusion_phase(a, b),
                _ => {}
            }
        }

        // Failure containment: defender bits on *two different opinions*
        // can only arise from a mixed match conclusion (a w.h.p.-excluded
        // event). Left alone the pair rides every later tournament together
        // and both reach the final broadcast. Letting the responder's bit
        // yield collapses the split back to a single defender within a few
        // parallel-time units. Suppressed during the conclusion/buffer
        // phases, where a *legitimate* transient split exists while the
        // defender bit migrates from the loser to the winner.
        if a.phase == b.phase && !matches!(a.phase, 8 | 9) {
            if let (Role::Collector(ca), Role::Collector(cb)) = (&a.role, &mut b.role) {
                if ca.defender && cb.defender && ca.opinion != cb.opinion {
                    cb.defender = false;
                }
            }
        }

        // §3.4: the ordered final broadcast triggers once `tcnt = k + 1`.
        if self.algorithm.ordered() {
            let final_tcnt = self.k + 1;
            let tournaments_over =
                |x: &Agent| matches!(&x.role, Role::Tracker(tr) if tr.tcnt == final_tcnt);
            let a_over = tournaments_over(a);
            let b_over = tournaments_over(b);
            for (over, y) in [(a_over, &mut *b), (b_over, &mut *a)] {
                if !over {
                    continue;
                }
                if let Role::Collector(c) = &mut y.role {
                    if c.defender && !c.winner {
                        c.winner = true;
                        self.milestones.first_winner.get_or_insert(t);
                    }
                }
            }
        }
    }

    /// Clock agents run the leaderless clock ([1]); the counter is gated on
    /// `le_done` (constant `true` under [`Algorithm::Simple`]) so the unordered
    /// variants can hold phase 0 until the leader has set up the first
    /// tournament.
    fn advance_clocks(&mut self, a: &mut Agent, b: &mut Agent) {
        if !(a.le_done && b.le_done) {
            return;
        }
        let (mut ga, mut gb) = match (&a.role, &b.role) {
            (Role::Clock(x), Role::Clock(y)) => (x.g, y.g),
            _ => return,
        };
        let adv = self.clock.interact(&mut ga, &mut gb);
        if let Role::Clock(x) = &mut a.role {
            x.g = ga;
        }
        if let Role::Clock(y) = &mut b.role {
            y.g = gb;
        }
        let (moved, g_new) = match adv {
            pp_clocks::Advanced::Initiator { to, .. } => (&mut *a, to),
            pp_clocks::Advanced::Responder { to, .. } => (&mut *b, to),
        };
        let new_phase = self.schedule.phase_of(g_new) as i8;
        if new_phase != moved.phase {
            moved.phase = new_phase;
            self.on_enter_phase(moved, new_phase);
        }
    }

    /// Algorithm 4 lines 22–23: non-clock agents adopt a circularly-ahead
    /// phase, stepping through every intermediate phase so entry hooks fire.
    fn propagate_phase(&mut self, a: &mut Agent, b: &mut Agent) {
        let pa = a.phase;
        let pb = b.phase;
        let step_to = |this: &mut Machine, x: &mut Agent, target: i8| {
            while x.phase != target {
                x.phase = (x.phase + 1) % 10;
                let p = x.phase;
                this.on_enter_phase(x, p);
            }
        };
        let ahead = |from: i8, to: i8| -> bool {
            let d = (i16::from(to) - i16::from(from)).rem_euclid(10);
            (1..=4).contains(&d)
        };
        if !matches!(a.role, Role::Clock(_)) && ahead(pa, pb) {
            step_to(self, a, pb);
        } else if !matches!(b.role, Role::Clock(_)) && ahead(pb, pa) {
            step_to(self, b, pa);
        }
    }

    /// Phase-entry hooks: reset per-phase scratch, advance trackers, reset
    /// players, initialise the match.
    fn on_enter_phase(&mut self, x: &mut Agent, phase: i8) {
        x.done_once = false;
        match phase {
            0 => match &mut x.role {
                Role::Tracker(tr) => {
                    if self.algorithm.ordered() {
                        tr.tcnt = (tr.tcnt + 1).min(self.k + 1);
                    } else {
                        tr.slot_op = 0;
                        tr.slot_kind = SlotKind::Empty;
                        tr.leader_ctr = 0;
                    }
                }
                Role::Player(pl) => {
                    *pl = Player::default();
                }
                Role::Collector(c) => {
                    c.challenger = false;
                    c.ell = 0;
                }
                Role::Clock(_) => {}
            },
            6 => {
                if let Role::Player(pl) = &mut x.role {
                    pl.maj = self.maj.init_state(pl.po);
                }
            }
            _ => {}
        }
    }

    /// Phase 0: challenger/defender determination plus `ℓ` initialization.
    fn setup_phase(&mut self, t: u64, a: &mut Agent, b: &mut Agent, rng: &mut SimRng) {
        if self.algorithm.ordered() {
            // Algorithm 4 lines 2–3 (both orientations).
            self.ordered_challenger_bit(a, b);
            self.ordered_challenger_bit(b, a);
        } else {
            self.unordered_setup(t, a, b, rng);
        }
        // Algorithm 4 lines 4–5, recomputed idempotently on every phase-0
        // interaction so late challenger bits still load their tokens.
        for x in [&mut *a, &mut *b] {
            if let Role::Collector(c) = &mut x.role {
                c.ell = if c.defender {
                    c.tokens as i8
                } else if c.challenger {
                    -(c.tokens as i8)
                } else {
                    0
                };
            }
        }
    }

    fn ordered_challenger_bit(&self, x: &mut Agent, y: &Agent) {
        if let (Role::Collector(c), Role::Tracker(tr)) = (&mut x.role, &y.role) {
            if c.opinion == tr.tcnt {
                c.challenger = true;
            }
        }
    }

    /// Appendix B: tracker lottery, candidate amplification, leader
    /// directives, collector bit setting.
    fn unordered_setup(&mut self, t: u64, a: &mut Agent, b: &mut Agent, rng: &mut SimRng) {
        // Leader lottery among trackers (self-freezing once done).
        if let (Role::Tracker(ta), Role::Tracker(tb)) = (&mut a.role, &mut b.role) {
            self.lottery.interact(&mut ta.lot, &mut tb.lot, rng);
        }

        // Candidate copying and directive relaying, both orientations.
        self.tracker_slot_update(a, b);
        self.tracker_slot_update(b, a);

        // Leader actions (either endpoint may be the leader).
        self.leader_actions(t, a, b);
        self.leader_actions(t, b, a);

        // Collectors read directives from trackers, both orientations.
        self.collector_reads_directive(a, b);
        self.collector_reads_directive(b, a);
    }

    fn tracker_slot_update(&self, x: &mut Agent, y: &Agent) {
        let Role::Tracker(tr) = &mut x.role else {
            return;
        };
        match &y.role {
            Role::Collector(c) if c.is_candidate() && tr.slot_kind == SlotKind::Empty => {
                tr.slot_op = c.opinion;
                tr.slot_kind = SlotKind::Cand;
            }
            Role::Tracker(other) if other.slot_kind > tr.slot_kind => {
                tr.slot_op = other.slot_op;
                tr.slot_kind = other.slot_kind;
            }
            _ => {}
        }
    }

    /// A challenger candidate visible on the partner: a candidate collector
    /// directly, or a tracker carrying a sampled candidate.
    fn candidate_on(y: &Agent) -> Option<u16> {
        match &y.role {
            Role::Collector(c) if c.is_candidate() => Some(c.opinion),
            Role::Tracker(tr) if tr.slot_kind == SlotKind::Cand => Some(tr.slot_op),
            _ => None,
        }
    }

    fn leader_actions(&mut self, t: u64, x: &mut Agent, y: &Agent) {
        let x_fin = x.fin;
        let x_le_done = x.le_done;
        let Role::Tracker(tr) = &mut x.role else {
            return;
        };
        if !tr.lot.leader {
            return;
        }
        if !tr.def_picked {
            // Select the initial defender (Appendix B: "the same procedure
            // to select the initial defender").
            if let Some(op) = Self::candidate_on(y) {
                tr.slot_op = op;
                tr.slot_kind = SlotKind::Def;
                tr.def_picked = true;
                tr.leader_ctr = 0;
            }
        } else if !x_le_done {
            // Wait for the defender directive to saturate the trackers,
            // then release the tournament clock.
            tr.leader_ctr += 1;
            if tr.leader_ctr >= self.leader_wait {
                tr.leader_ctr = 0; // fresh patience for challenger sampling
                x.le_done = true;
                self.milestones.le_done.get_or_insert(t);
            }
        } else if tr.slot_kind != SlotKind::Chal && !x_fin {
            // Sample this tournament's challenger; persistent failure to
            // find one means every opinion has played: finish.
            if let Some(op) = Self::candidate_on(y) {
                tr.slot_op = op;
                tr.slot_kind = SlotKind::Chal;
            } else {
                tr.leader_ctr += 1;
                if tr.leader_ctr >= self.leader_wait {
                    x.fin = true;
                    self.milestones.fin.get_or_insert(t);
                }
            }
        }
    }

    fn collector_reads_directive(&self, x: &mut Agent, y: &Agent) {
        let Role::Collector(c) = &mut x.role else {
            return;
        };
        let Role::Tracker(tr) = &y.role else { return };
        if c.played || tr.slot_op != c.opinion {
            return;
        }
        match tr.slot_kind {
            SlotKind::Chal => {
                c.challenger = true;
                c.played = true;
            }
            SlotKind::Def => {
                c.defender = true;
                c.played = true;
            }
            _ => {}
        }
    }

    /// Phase 2: Algorithm 4 lines 7–8 — discrete averaging over all
    /// collectors.
    fn cancellation_phase(&mut self, a: &mut Agent, b: &mut Agent) {
        if let (Role::Collector(ca), Role::Collector(cb)) = (&mut a.role, &mut b.role) {
            let (x, y) = balance(i64::from(ca.ell), i64::from(cb.ell));
            ca.ell = x as i8;
            cb.ell = y as i8;
        }
    }

    /// Phase 4: Algorithm 4 lines 10–12 — collectors recruit undecided
    /// players.
    fn lineup_phase(&mut self, a: &mut Agent, b: &mut Agent) {
        let recruit = |x: &mut Agent, y: &mut Agent| -> bool {
            if let (Role::Collector(c), Role::Player(pl)) = (&mut x.role, &mut y.role) {
                if pl.po == Verdict::Tie && c.ell != 0 {
                    pl.po = if c.ell > 0 { Verdict::A } else { Verdict::B };
                    c.ell -= c.ell.signum();
                    return true;
                }
            }
            false
        };
        if !recruit(a, b) {
            recruit(b, a);
        }
    }

    /// Phase 6: Algorithm 4 lines 14–15 — the exact majority among players.
    fn match_phase(&mut self, a: &mut Agent, b: &mut Agent) {
        if let (Role::Player(pa), Role::Player(pb)) = (&mut a.role, &mut b.role) {
            self.maj.interact(&mut pa.maj, &mut pb.maj);
        }
    }

    /// Phase 8: Algorithm 4 lines 17–21 — collectors adopt the verdict
    /// (exactly once per phase).
    fn conclusion_phase(&mut self, a: &mut Agent, b: &mut Agent) {
        let declare_thr = self.maj.declare_threshold();
        let conclude = |x: &mut Agent, y: &Agent| {
            if x.done_once {
                return;
            }
            let Role::Collector(c) = &mut x.role else {
                return;
            };
            let Role::Player(pl) = &y.role else { return };
            // Only players that finished the match carry a result; the
            // paper's phase lengths guarantee completion, so reading an
            // unfinished player would conflate "still computing" with the
            // genuine tie verdict.
            if pl.maj.t < declare_thr {
                return;
            }
            match pl.maj.out {
                Verdict::B => {
                    // The challenger won: it becomes the defender.
                    c.defender = c.challenger;
                    c.challenger = false;
                }
                Verdict::A | Verdict::Tie => {
                    // The defender retains (ties favour the defender).
                    c.challenger = false;
                }
            }
            x.done_once = true;
        };
        conclude(a, b);
        conclude(b, a);
    }

    /// §3.4: winners convert everyone they meet. If a failed tournament
    /// ever crowned *two* opinions (a w.h.p.-excluded event), the two
    /// winner epidemics compete: the initiator's opinion overwrites the
    /// responder's, so the population still collapses to a single (possibly
    /// wrong) answer instead of deadlocking — failures stay observable as
    /// wrong outputs rather than burned budgets.
    fn spread_winner(&mut self, a: &mut Agent, b: &mut Agent) {
        let winner_op = [&*a, &*b]
            .iter()
            .find_map(|x| x.as_collector().filter(|c| c.winner).map(|c| c.opinion))
            .expect("spread_winner called with a winner present");
        for x in [a, b] {
            if !x.is_winner() || x.as_collector().map(|c| c.opinion) != Some(winner_op) {
                let mut c = Collector::new(winner_op);
                c.tokens = 0;
                c.winner = true;
                c.played = true;
                x.role = Role::Collector(c);
            }
        }
    }
}

impl Protocol for Machine {
    type State = Agent;

    /// One interaction of the full protocol (`a` initiates).
    fn interact(&mut self, t: u64, a: &mut Agent, b: &mut Agent, rng: &mut SimRng) {
        // §3.4 final broadcast dominates everything.
        if a.is_winner() || b.is_winner() {
            self.spread_winner(a, b);
            return;
        }
        // Broadcast flags travel on every interaction.
        if a.le_done || b.le_done {
            a.le_done = true;
            b.le_done = true;
        }
        if a.fin || b.fin {
            a.fin = true;
            b.fin = true;
            // The final broadcast starts at the defenders.
            for x in [&mut *a, &mut *b] {
                if let Role::Collector(c) = &mut x.role {
                    if c.defender && !c.winner {
                        c.winner = true;
                        self.milestones.first_winner.get_or_insert(t);
                    }
                }
            }
        }

        if a.phase < 0 || b.phase < 0 {
            if self.algorithm == Algorithm::Improved {
                self.improved_init_step(t, a, b, rng);
            } else {
                self.standard_init_step(t, a, b, rng);
            }
            return;
        }
        self.tournament_step(t, a, b, rng);
    }

    /// All agents are winner-collectors of the same opinion.
    fn converged(&self, states: &[Agent]) -> Option<u32> {
        let mut opinion = None;
        for x in states {
            match x.as_collector() {
                Some(c) if c.winner => match opinion {
                    None => opinion = Some(c.opinion),
                    Some(op) if op == c.opinion => {}
                    Some(_) => return None,
                },
                _ => return None,
            }
        }
        opinion.map(u32::from)
    }

    /// Canonical census encoding. A collector's junta-clock counter enters
    /// only during the improved protocol's initialization (`phase < 0`),
    /// modulo the clock's `64·m` window
    /// ([`JuntaClock::encode_counter`](pp_clocks::JuntaClock::encode_counter)).
    fn encode(&self, x: &Agent) -> u64 {
        let shared = ((x.phase + 16) as u64)
            | u64::from(x.done_once) << 5
            | u64::from(x.le_done) << 6
            | u64::from(x.fin) << 7;
        let (tag, payload): (u64, u64) = match &x.role {
            Role::Collector(c) => {
                let bits = u64::from(c.defender)
                    | u64::from(c.challenger) << 1
                    | u64::from(c.winner) << 2
                    | u64::from(c.played) << 3;
                let mut p = u64::from(c.opinion)
                    | u64::from(c.tokens) << 16
                    | bits << 22
                    | ((i16::from(c.ell) + 64) as u64) << 26;
                if self.algorithm == Algorithm::Improved && x.phase < 0 {
                    let j = u64::from(c.junta.level) << 1 | u64::from(c.junta.active);
                    p |= j << 34 | self.sub_clock.encode_counter(c.jc) << 40;
                }
                (0, p)
            }
            Role::Clock(cl) => (1, u64::from(cl.g) | u64::from(cl.sub) << 24),
            Role::Tracker(tr) => {
                let p = if self.algorithm.ordered() {
                    u64::from(tr.tcnt)
                } else {
                    let lot = &tr.lot;
                    let flags = u64::from(lot.candidate)
                        | u64::from(lot.coin) << 1
                        | u64::from(lot.best_coin) << 2
                        | u64::from(lot.leader) << 3
                        | u64::from(lot.done) << 4;
                    let j = u64::from(lot.junta.level) << 1 | u64::from(lot.junta.active);
                    u64::from(tr.slot_op)
                        | (tr.slot_kind as u64) << 16
                        | flags << 18
                        | (lot.best_hour % 64) << 23
                        | j << 29
                        | (lot.p % 256) << 33
                        | u64::from(tr.leader_ctr.min(8191)) << 41
                };
                (2, p)
            }
            Role::Player(pl) => {
                let m = &pl.maj;
                let p = ((m.sign + 1) as u64)
                    | u64::from(m.level) << 2
                    | u64::from(m.out.code()) << 8
                    | u64::from(m.t) << 10
                    | u64::from(pl.po.code()) << 26;
                (3, p)
            }
        };
        shared | tag << 8 | payload << 10
    }

    /// Corruption and injection both produce a
    /// [`fresh_collector`](Machine::fresh_collector) — with a random or the
    /// given opinion respectively — modelling an agent that loses all
    /// protocol progress and restarts with a vote. Rejoin is handled by
    /// the engine (initial-state restore): `None`.
    fn fault_state(&self, replacement: &Replacement, rng: &mut SimRng) -> Option<Agent> {
        match *replacement {
            Replacement::Random => Some(self.fresh_collector(rng.gen_range(1..=self.k))),
            Replacement::Opinion(o) => u16::try_from(o)
                .ok()
                .filter(|op| (1..=self.k).contains(op))
                .map(|op| self.fresh_collector(op)),
            Replacement::Rejoin => None,
        }
    }

    fn opinion_of(&self, state: &Agent) -> Option<u32> {
        state.as_collector().map(|c| u32::from(c.opinion))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::{RunOptions, RunResult, RunStatus, Simulation};
    use pp_workloads::Counts;

    fn machine() -> Machine {
        Machine::new(Algorithm::Simple, 1000, 4, Tuning::default())
    }

    #[test]
    fn initial_phase_depends_on_init_style() {
        assert_eq!(machine().initial_phase(), -1);
        let m = Machine::new(Algorithm::Improved, 1000, 4, Tuning::default());
        assert_eq!(
            m.initial_phase(),
            -(Tuning::default().improved_init_hours as i8)
        );
    }

    #[test]
    fn phase_entry_resets_scratch_and_advances_tracker() {
        let mut m = machine();
        let mut x = Agent::collector(1, 0, true);
        x.role = Role::Tracker(Tracker {
            tcnt: 1,
            slot_op: 0,
            slot_kind: SlotKind::Empty,
            lot: {
                let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(1);
                Lottery::new(1000, 4).init_state(&mut rng)
            },
            leader_ctr: 0,
            def_picked: false,
        });
        x.done_once = true;
        m.on_enter_phase(&mut x, 0);
        assert!(!x.done_once);
        match &x.role {
            Role::Tracker(tr) => assert_eq!(tr.tcnt, 2),
            _ => unreachable!(),
        }
        // Saturates at k + 1.
        for _ in 0..10 {
            m.on_enter_phase(&mut x, 0);
        }
        match &x.role {
            Role::Tracker(tr) => assert_eq!(tr.tcnt, 5),
            _ => unreachable!(),
        }
    }

    #[test]
    fn winner_converts_partner() {
        let mut m = machine();
        let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(2);
        let mut w = Agent::collector(3, 5, true);
        if let Role::Collector(c) = &mut w.role {
            c.winner = true;
        }
        let mut other = Agent::collector(1, 5, true);
        m.interact(0, &mut w, &mut other, &mut rng);
        assert!(other.is_winner());
        assert_eq!(other.as_collector().expect("collector").opinion, 3);
    }

    #[test]
    fn converged_requires_unanimous_winners() {
        let m = machine();
        let mut w1 = Agent::collector(3, 5, true);
        if let Role::Collector(c) = &mut w1.role {
            c.winner = true;
        }
        let w2 = w1;
        assert_eq!(m.converged(&[w1, w2]), Some(3));
        let plain = Agent::collector(3, 5, true);
        assert_eq!(m.converged(&[w1, plain]), None);
        let mut w3 = Agent::collector(2, 5, true);
        if let Role::Collector(c) = &mut w3.role {
            c.winner = true;
        }
        assert_eq!(m.converged(&[w1, w3]), None);
    }

    #[test]
    fn merge_respects_cap_and_reroles_initiator() {
        let mut m = machine();
        let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(3);
        let mut a = Agent::collector(1, -1, true);
        let mut b = Agent::collector(1, -1, true);
        m.interact(0, &mut a, &mut b, &mut rng);
        assert_eq!(b.as_collector().expect("collector").tokens, 2);
        assert!(
            !matches!(a.role, Role::Collector(_)),
            "initiator must re-role"
        );
        // Over-cap pairs do not merge.
        let mut c = Agent::collector(2, -1, true);
        let mut d = Agent::collector(2, -1, true);
        if let Role::Collector(cc) = &mut c.role {
            cc.tokens = 6;
        }
        if let Role::Collector(dd) = &mut d.role {
            dd.tokens = 6;
        }
        m.interact(1, &mut c, &mut d, &mut rng);
        assert_eq!(c.as_collector().expect("collector").tokens, 6);
        assert_eq!(d.as_collector().expect("collector").tokens, 6);
    }

    #[test]
    fn different_opinions_do_not_merge() {
        let mut m = machine();
        let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(4);
        let mut a = Agent::collector(1, -1, true);
        let mut b = Agent::collector(2, -1, true);
        m.interact(0, &mut a, &mut b, &mut rng);
        assert_eq!(a.as_collector().expect("collector").tokens, 1);
        assert_eq!(b.as_collector().expect("collector").tokens, 1);
    }

    #[test]
    fn phase_propagation_steps_through_hooks() {
        let mut m = machine();
        let mut behind = Agent::collector(1, 8, true);
        if let Role::Collector(c) = &mut behind.role {
            c.ell = 7; // stale ℓ that must be cleared by the phase-0 hook
        }
        let mut ahead = Agent::collector(2, 1, true); // 8 → 9 → 0 → 1 is 3 ahead circularly
        m.propagate_phase(&mut behind, &mut ahead);
        assert_eq!(behind.phase, 1);
        assert_eq!(
            behind.as_collector().expect("collector").ell,
            0,
            "phase-0 hook must fire"
        );
    }

    #[test]
    fn encode_distinguishes_roles_and_phases() {
        let m = machine();
        let a = Agent::collector(1, -1, true);
        let b = Agent::collector(2, -1, true);
        let mut c = Agent::collector(1, 0, true);
        c.phase = 0;
        let set: std::collections::HashSet<u64> =
            [&a, &b, &c].iter().map(|x| m.encode(x)).collect();
        assert_eq!(set.len(), 3);
    }

    fn tracker_agent(tcnt: u16, phase: i8) -> Agent {
        let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(1);
        let mut x = Agent::collector(1, phase, true);
        x.role = Role::Tracker(Tracker {
            tcnt,
            slot_op: 0,
            slot_kind: SlotKind::Empty,
            lot: {
                let lottery = Lottery::new(1000, 4);
                lottery.init_state(&mut rng)
            },
            leader_ctr: 0,
            def_picked: false,
        });
        x
    }

    fn player_agent(phase: i8) -> Agent {
        let mut x = Agent::collector(1, phase, true);
        x.role = Role::Player(Player::default());
        x
    }

    #[test]
    fn ordered_setup_sets_challenger_from_tcnt() {
        let mut m = machine();
        let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(2);
        // Tracker at tcnt = 3 names opinion 3 the challenger; its collectors
        // load ℓ = −tokens in the same interaction.
        let mut c = Agent::collector(3, 0, true);
        if let Role::Collector(cc) = &mut c.role {
            cc.tokens = 4;
        }
        let mut t = tracker_agent(3, 0);
        m.interact(0, &mut c, &mut t, &mut rng);
        let cc = c.as_collector().expect("collector");
        assert!(cc.challenger);
        assert_eq!(cc.ell, -4);
        // A collector of a different opinion stays out and keeps ℓ = 0.
        let mut other = Agent::collector(2, 0, true);
        m.interact(1, &mut other, &mut t, &mut rng);
        let oc = other.as_collector().expect("collector");
        assert!(!oc.challenger);
        assert_eq!(oc.ell, 0);
    }

    #[test]
    fn cancellation_phase_averages_loads() {
        let mut m = machine();
        let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(3);
        let mut a = Agent::collector(1, 2, true);
        let mut b = Agent::collector(2, 2, true);
        if let Role::Collector(c) = &mut a.role {
            c.ell = 7;
        }
        if let Role::Collector(c) = &mut b.role {
            c.ell = -2;
        }
        m.interact(0, &mut a, &mut b, &mut rng);
        let (ea, eb) = (
            a.as_collector().expect("collector").ell,
            b.as_collector().expect("collector").ell,
        );
        assert_eq!(ea + eb, 5, "cancellation must preserve the load sum");
        assert!((eb - ea).abs() <= 1);
    }

    #[test]
    fn lineup_recruits_undecided_players() {
        let mut m = machine();
        let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(4);
        let mut c = Agent::collector(1, 4, true);
        if let Role::Collector(cc) = &mut c.role {
            cc.ell = -2;
        }
        let mut p = player_agent(4);
        m.interact(0, &mut c, &mut p, &mut rng);
        match &p.role {
            Role::Player(pl) => assert_eq!(pl.po, Verdict::B),
            _ => unreachable!(),
        }
        assert_eq!(c.as_collector().expect("collector").ell, -1);
        // A recruited player is not recruited twice.
        let mut p2 = player_agent(4);
        if let Role::Player(pl) = &mut p2.role {
            pl.po = Verdict::A;
        }
        m.interact(1, &mut c, &mut p2, &mut rng);
        assert_eq!(c.as_collector().expect("collector").ell, -1);
    }

    #[test]
    fn conclusion_transfers_defender_on_b_verdict_once() {
        let mut m = machine();
        let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(5);
        let thr = m.maj.declare_threshold();
        let mut chall = Agent::collector(2, 8, true);
        if let Role::Collector(c) = &mut chall.role {
            c.challenger = true;
        }
        let mut p = player_agent(8);
        if let Role::Player(pl) = &mut p.role {
            pl.maj.out = Verdict::B;
            pl.maj.t = thr;
        }
        m.interact(0, &mut chall, &mut p, &mut rng);
        let c = chall.as_collector().expect("collector");
        assert!(
            c.defender,
            "challenger collectors become defenders on a B verdict"
        );
        assert!(!c.challenger);
        assert!(chall.done_once);
        // The do-once guard: a later conflicting A verdict changes nothing.
        let mut p2 = player_agent(8);
        if let Role::Player(pl) = &mut p2.role {
            pl.maj.out = Verdict::A;
            pl.maj.t = thr;
        }
        m.interact(1, &mut chall, &mut p2, &mut rng);
        assert!(chall.as_collector().expect("collector").defender);
    }

    #[test]
    fn conclusion_ignores_unfinished_players() {
        let mut m = machine();
        let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(6);
        let mut chall = Agent::collector(2, 8, true);
        if let Role::Collector(c) = &mut chall.role {
            c.challenger = true;
        }
        // Player with a B sign but an unfinished schedule: no verdict yet.
        let mut p = player_agent(8);
        if let Role::Player(pl) = &mut p.role {
            pl.maj.out = Verdict::B;
            pl.maj.t = 1;
        }
        m.interact(0, &mut chall, &mut p, &mut rng);
        let c = chall.as_collector().expect("collector");
        assert!(!c.defender, "unfinished players must not conclude");
        assert!(c.challenger);
        assert!(!chall.done_once);
    }

    #[test]
    fn split_defenders_heal_outside_conclusion() {
        let mut m = machine();
        let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(7);
        let mut d1 = Agent::collector(1, 2, true);
        let mut d2 = Agent::collector(2, 2, true);
        for d in [&mut d1, &mut d2] {
            if let Role::Collector(c) = &mut d.role {
                c.defender = true;
            }
        }
        m.interact(0, &mut d1, &mut d2, &mut rng);
        let bits = u8::from(d1.as_collector().expect("c").defender)
            + u8::from(d2.as_collector().expect("c").defender);
        assert_eq!(
            bits, 1,
            "exactly one defender bit must survive the healing rule"
        );
        // In the conclusion phase the transient split is legitimate.
        let mut d3 = Agent::collector(1, 8, true);
        let mut d4 = Agent::collector(2, 8, true);
        for d in [&mut d3, &mut d4] {
            if let Role::Collector(c) = &mut d.role {
                c.defender = true;
            }
        }
        m.interact(1, &mut d3, &mut d4, &mut rng);
        assert!(d3.as_collector().expect("c").defender);
        assert!(d4.as_collector().expect("c").defender);
    }

    #[test]
    fn improved_entry_prunes_tokenless_and_unticked() {
        let mut m = Machine::new(Algorithm::Improved, 1000, 4, Tuning::default());
        let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(8);
        // An agent whose clock never ticked (phase −c) is re-rolled even
        // with tokens.
        let mut stuck = Agent::collector(1, m.initial_phase(), false);
        let mut herald = Agent::collector(2, 0, false);
        m.interact(0, &mut stuck, &mut herald, &mut rng);
        assert_eq!(stuck.phase, 0);
        assert!(
            !matches!(stuck.role, Role::Collector(_)),
            "unticked agent must be pruned"
        );
        // An agent that ticked and holds tokens stays a collector.
        let mut healthy = Agent::collector(1, m.initial_phase() + 2, false);
        m.interact(1, &mut healthy, &mut herald, &mut rng);
        assert_eq!(healthy.phase, 0);
        assert!(matches!(healthy.role, Role::Collector(_)));
    }

    #[test]
    fn appendix_c_decrement_period_slows_decrements() {
        let tuning = Tuning {
            init_decrement_period: 3,
            ..Tuning::default()
        };
        let mut m = Machine::new(Algorithm::Simple, 1000, 4, tuning);
        let mut rng = <SimRng as rand::SeedableRng>::seed_from_u64(9);
        let mut clock = Agent::collector(1, -1, true);
        clock.role = Role::Clock(Clock { g: 5, sub: 0 });
        let mut coll = Agent::collector(1, -1, true);
        // Three collector meetings = one decrement.
        for t in 0..3 {
            m.interact(t, &mut clock, &mut coll, &mut rng);
        }
        match &clock.role {
            Role::Clock(cl) => assert_eq!(cl.g, 4),
            _ => unreachable!(),
        }
    }

    // ------------------------------------------------------------------
    // End-to-end runs of the three algorithms.
    // ------------------------------------------------------------------

    /// Run `algorithm` with default tuning on `counts` for at most
    /// `budget` parallel time. Returns the finished simulation, its
    /// result and the planted plurality.
    fn run(
        algorithm: Algorithm,
        counts: &Counts,
        seed: u64,
        budget: f64,
    ) -> (Simulation<Machine>, RunResult, u32) {
        let assignment = counts.assignment();
        let (machine, states) = Machine::start(algorithm, &assignment, Tuning::default());
        let mut sim = Simulation::new(machine, states, seed);
        let r = sim.run(&RunOptions::with_parallel_time_budget(
            assignment.n(),
            budget,
        ));
        (sim, r, assignment.plurality())
    }

    fn assert_exact(algorithm: Algorithm, counts: Counts, seed: u64, budget: f64) {
        let (_, r, expected) = run(algorithm, &counts, seed, budget);
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(expected));
    }

    #[test]
    fn start_builds_each_algorithms_initial_configuration() {
        let assignment = Counts::from_supports(vec![30, 20, 10]).assignment();
        for algorithm in [Algorithm::Simple, Algorithm::Unordered, Algorithm::Improved] {
            let (m, states) = Machine::start(algorithm, &assignment, Tuning::default());
            assert_eq!(states.len(), 60);
            for (x, &op) in states.iter().zip(assignment.opinions()) {
                let mut want = m.fresh_collector(op);
                if let Role::Collector(c) = &mut want.role {
                    c.defender = algorithm == Algorithm::Simple && op == 1;
                }
                assert_eq!(*x, want, "{}", algorithm.name());
            }
        }
    }

    #[test]
    fn simple_two_opinions_bias_one() {
        // Odd n so a true bias of 1 is feasible with k = 2.
        assert_exact(Algorithm::Simple, Counts::bias_one(601, 2), 11, 100_000.0);
    }

    #[test]
    fn simple_four_opinions_bias_one() {
        assert_exact(Algorithm::Simple, Counts::bias_one(800, 4), 5, 300_000.0);
    }

    #[test]
    fn simple_plurality_not_first_opinion() {
        // Opinion 3 dominates: the defender bit must migrate through the
        // tournaments.
        let counts = Counts::from_supports(vec![100, 100, 260, 140]);
        assert_eq!(counts.assignment().plurality(), 3);
        assert_exact(Algorithm::Simple, counts, 9, 300_000.0);
    }

    #[test]
    fn simple_single_opinion_trivially_wins() {
        assert_exact(
            Algorithm::Simple,
            Counts::from_supports(vec![500]),
            3,
            100_000.0,
        );
    }

    #[test]
    fn simple_skimpy_tuning_fails_gracefully() {
        // Deliberately under-provisioned constants: the run may finish with
        // the wrong opinion or exhaust its budget, but it must not panic.
        let assignment = Counts::bias_one(400, 3).assignment();
        let (machine, states) = Machine::start(Algorithm::Simple, &assignment, Tuning::skimpy());
        let mut sim = Simulation::new(machine, states, 1);
        let _ = sim.run(&RunOptions::with_parallel_time_budget(
            assignment.n(),
            20_000.0,
        ));
    }

    #[test]
    fn simple_milestones_are_recorded() {
        let (sim, r, _) = run(Algorithm::Simple, &Counts::bias_one(601, 2), 2, 100_000.0);
        assert_eq!(r.status, RunStatus::Converged);
        let ms = sim.protocol().milestones;
        let init_end = ms.init_end.expect("init end recorded");
        let first_winner = ms.first_winner.expect("winner recorded");
        assert!(init_end < first_winner);
    }

    #[test]
    fn unordered_two_opinions_bias_one() {
        assert_exact(
            Algorithm::Unordered,
            Counts::bias_one(601, 2),
            21,
            400_000.0,
        );
    }

    #[test]
    fn unordered_three_opinions_plurality_in_the_middle() {
        let counts = Counts::from_supports(vec![150, 301, 149]);
        assert_eq!(counts.assignment().plurality(), 2);
        assert_exact(Algorithm::Unordered, counts, 8, 400_000.0);
    }

    #[test]
    fn unordered_milestones_order_is_sane() {
        let (sim, r, _) = run(
            Algorithm::Unordered,
            &Counts::bias_one(600, 3),
            4,
            500_000.0,
        );
        assert_eq!(r.status, RunStatus::Converged);
        let ms = sim.protocol().milestones;
        let init_end = ms.init_end.expect("init end");
        let le_done = ms.le_done.expect("leader + defender selection");
        let fin = ms.fin.expect("finish declaration");
        assert!(init_end < le_done, "leader election follows init");
        assert!(le_done < fin, "tournaments follow the leader release");
    }

    #[test]
    fn improved_dominant_plurality_with_many_small_opinions() {
        // x_max = 400 ≈ n^0.87, 8 tiny opinions: the Theorem 2 regime.
        assert_exact(
            Algorithm::Improved,
            Counts::one_large(1000, 9, 400),
            3,
            400_000.0,
        );
    }

    #[test]
    fn improved_two_large_one_small() {
        let counts = Counts::from_supports(vec![320, 300, 30]);
        assert_exact(Algorithm::Improved, counts, 13, 400_000.0);
    }

    #[test]
    fn improved_pruning_run_is_exact() {
        assert_exact(
            Algorithm::Improved,
            Counts::one_large(2000, 11, 800),
            7,
            400_000.0,
        );
    }

    #[test]
    fn improved_tokens_of_plurality_survive_the_init() {
        // Lemma 10(2): count plurality tokens among collectors the moment
        // all agents reached phase 0.
        let assignment = Counts::one_large(2000, 11, 800).assignment();
        let (machine, states) = Machine::start(Algorithm::Improved, &assignment, Tuning::default());
        let mut sim = Simulation::new(machine, states, 19);
        let mut plurality_tokens_at_start: Option<usize> = None;
        let _ = sim.run_observed(
            &RunOptions::with_parallel_time_budget(assignment.n(), 400_000.0),
            |_, states| {
                if plurality_tokens_at_start.is_none() && states.iter().all(|s| s.phase >= 0) {
                    let tokens: usize = states
                        .iter()
                        .filter_map(|s| match &s.role {
                            Role::Collector(c) if c.opinion == 1 => Some(usize::from(c.tokens)),
                            _ => None,
                        })
                        .sum();
                    plurality_tokens_at_start = Some(tokens);
                }
            },
        );
        assert_eq!(
            plurality_tokens_at_start.expect("init completed"),
            assignment.x_max(),
            "plurality tokens must be conserved through the pruning init"
        );
    }
}
