//! The multinomial-tally configuration-space engine.

use std::sync::Arc;

use rand::{Rng, SeedableRng};

use crate::batch::birthday::draw_batch_len;
use crate::batch::fenwick::Fenwick;
use crate::batch::lumped::{Change, ChangeTable};
use crate::batch::multinomial::{
    binomial, multinomial_into, multinomial_weighted_into, multinomial_wide_into,
};
use crate::batch::tally::{self, TallyCtx, TallyScratch};
use crate::batch::TableProtocol;
use crate::churn::ChurnProcess;
use crate::driver::{self, Clock, Engine};
use crate::fault::{
    resolve_forgery, strike_counts, AdversarySpec, ChurnTarget, FaultSpec, LieTarget,
    OpinionCensus, SchedulerSpec, SCHEDULER_RETRIES,
};
use crate::protocol::SimRng;
use crate::result::{ChurnSample, RunOptions, RunResult, RunStatus};
use crate::rng;

/// Floor on the multiplicity below which responders are always drawn one
/// by one through the Fenwick sampler. The full rule is adaptive: a
/// conditional-binomial split scans every occupied state
/// (`O(S_occupied)` binomials), so it only pays once the multiplicity
/// exceeds the occupied-state count — at USD-like `k = 64` a multiplicity
/// of 10 is far cheaper as ten `O(log S)` tree draws.
const SPLIT_FLOOR: u64 = 8;

/// How many infeasible (overdrawn) tallies to redraw before falling back
/// to per-pair application for the batch. Overdraw probability is
/// `O(ℓ²/n)` against a near-empty state, so two misses in a row are
/// already rare; the fallback is exact and unconditionally feasible.
const MAX_TALLY_RETRIES: u32 = 8;

/// How a simulation's batches were tallied. Process-local counts, like
/// [`BatchSimulation::batches`]: never checkpointed, zero after a
/// restore.
///
/// Every batch counts once in `lumped` or `inline`. Every count is a
/// function of the trajectory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TallyPaths {
    /// One multinomial over a deterministic table's count changes.
    pub lumped: u64,
    /// Split per initiator (every scheduled batch included).
    pub inline: u64,
    /// Applied pair by pair after `MAX_TALLY_RETRIES` (eight)
    /// infeasible tallies in a row.
    pub pairwise: u64,
    /// Infeasible tallies drawn again.
    pub redraws: u64,
}

/// Why [`BatchSimulation::admit`] refused agents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The state is outside the protocol's state space `0..states`.
    State { state: usize, states: usize },
    /// The grown population would not fit in `u64`.
    Overflow { n: u64, count: u64 },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::State { state, states } => {
                write!(f, "state {state} is outside 0..{states}")
            }
            Self::Overflow { n, count } => {
                write!(
                    f,
                    "admitting {count} agents to {n} overflows the population"
                )
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// One batch's lumped tally, laid out by
/// [`BatchSimulation::plan_lumped`] and drawn by
/// [`BatchSimulation::draw_lumped`].
#[derive(Debug, Default)]
struct LumpedPlan {
    /// Cells of the multinomial, each a transition: the null cell first,
    /// then every change with positive weight.
    cells: Vec<Change>,
    weights: Vec<u128>,
    /// `n²`, the weights' sum.
    total: u128,
    // Per-batch scratch.
    change_weights: Vec<u128>,
    drawn: Vec<(usize, u64)>,
}

/// A configuration-space simulation advancing in collision-free batches,
/// each applied as one multinomial tally: over a deterministic table's
/// count changes (the lumped tally) or over ordered state pairs, split per
/// initiator.
///
/// Per-interaction cost is sub-constant for long batches: a batch of `ℓ`
/// interactions costs one binomial draw per lumped cell, or `O(S)` draws
/// per initiator state on the split, each of `O(1)` expected cost whatever
/// `ℓ` is, plus `O(S)` to apply the batch's net change to the counts,
/// instead of `O(S)` per interaction when every pair is sampled and
/// applied one by one (see the [`crate::batch`] module docs for the
/// accounting and the rule between the two tallies).
#[derive(Debug)]
pub struct BatchSimulation<P: TableProtocol> {
    /// Shared by clones.
    protocol: Arc<P>,
    counts: Vec<u64>,
    /// Weighted sampler over `counts` for the split batches' `O(log S)`
    /// draws, rebuilt from `counts` at the start of each split batch. Its
    /// tally attempts read it frozen at the pre-batch configuration; the
    /// per-pair fallbacks update it with every live interaction. Stale
    /// between split batches, where nothing reads it.
    tree: Fenwick,
    n: u64,
    rng: SimRng,
    clock: Clock,
    /// Batches applied so far (a process-local throughput metric; not part
    /// of the checkpointed state).
    batches: u64,
    deterministic: bool,
    // Scratch buffers reused across batches.
    initiators: Vec<(usize, u64)>,
    responders: Vec<(usize, u64)>,
    delta: Vec<i64>,
    /// Gross participant count drawn from each state this batch (the
    /// collision-free feasibility bound: a batch cannot use more agents of
    /// a state than exist).
    usage: Vec<u64>,
    scheduler: Option<SchedulerSpec>,
    /// Adversary snapshot for the current batch: `(lie probability, what
    /// liars report)`. `None` when no adversary applies (also when the
    /// forged opinion has no state in this protocol's table: adversaries
    /// degrade, never panic).
    lie: Option<(f64, LieTarget)>,
    /// Retained only for *adaptive* adversaries, whose `lie` snapshot is
    /// re-aimed at the live census before every batch; static adversaries
    /// resolve once at install and are not stored.
    adversary: Option<AdversarySpec>,
    scheduler_saturated: bool,
    /// Kernel scratch, reused across batches.
    scratch: TallyScratch,
    /// A deterministic table's count changes, built on the first batch
    /// that may use them and shared by clones.
    changes: Option<Arc<ChangeTable>>,
    /// Until `changes` is built: a lower bound on their number, the cap
    /// at which the last build stopped (0 before any).
    changes_seen: u64,
    lumped: LumpedPlan,
    paths: TallyPaths,
}

impl<P: TableProtocol> Clone for BatchSimulation<P> {
    /// Clones share the protocol (`Arc`); scratch starts empty.
    fn clone(&self) -> Self {
        Self {
            protocol: Arc::clone(&self.protocol),
            counts: self.counts.clone(),
            tree: self.tree.clone(),
            n: self.n,
            rng: self.rng.clone(),
            clock: self.clock,
            batches: self.batches,
            deterministic: self.deterministic,
            initiators: self.initiators.clone(),
            responders: self.responders.clone(),
            delta: self.delta.clone(),
            usage: self.usage.clone(),
            scheduler: self.scheduler,
            lie: self.lie,
            adversary: self.adversary,
            scheduler_saturated: self.scheduler_saturated,
            scratch: TallyScratch::default(),
            changes: self.changes.clone(),
            changes_seen: self.changes_seen,
            lumped: LumpedPlan::default(),
            paths: self.paths,
        }
    }
}

impl<P: TableProtocol> BatchSimulation<P> {
    /// Create a simulation from per-state counts.
    ///
    /// # Panics
    ///
    /// Panics if the population has fewer than two agents or `counts` does
    /// not match the protocol's state space.
    pub fn new(protocol: P, counts: Vec<u64>, seed: u64) -> Self {
        assert_eq!(
            counts.len(),
            protocol.states(),
            "counts must cover the state space"
        );
        let n: u64 = counts.iter().sum();
        assert!(n >= 2, "population must contain at least two agents");
        let tree = Fenwick::from_weights(&counts);
        let states = counts.len();
        let deterministic = protocol.is_deterministic();
        Self {
            protocol: Arc::new(protocol),
            counts,
            tree,
            n,
            rng: SimRng::seed_from_u64(seed),
            clock: Clock::default(),
            batches: 0,
            deterministic,
            initiators: Vec::new(),
            responders: Vec::new(),
            delta: vec![0; states],
            usage: vec![0; states],
            scheduler: None,
            lie: None,
            adversary: None,
            scheduler_saturated: false,
            scratch: TallyScratch::default(),
            changes: None,
            changes_seen: 0,
            lumped: LumpedPlan::default(),
            paths: TallyPaths::default(),
        }
    }

    /// Does nothing: every batch runs on the calling thread. Remains only
    /// because perfbench still calls it.
    pub fn set_threads(&mut self, threads: usize) {
        let _ = threads;
    }

    /// Replace the uniform pair scheduler with an adversarial one. The
    /// uniform tally fast path is untouched when no scheduler is set, and
    /// [`SchedulerSpec::Uniform`] sets none.
    pub fn set_scheduler(&mut self, scheduler: SchedulerSpec) {
        self.scheduler = (scheduler != SchedulerSpec::Uniform).then_some(scheduler);
    }

    /// Install a Byzantine interaction adversary. The honest tally fast
    /// path (and its RNG stream) is untouched when none is set; a zero
    /// lying probability disables the adversary entirely, so `adaptive:0`
    /// stays RNG-identical to the clean run, and so does a fixed forged
    /// opinion with no state in the table.
    pub fn set_adversary(&mut self, adversary: AdversarySpec) {
        if adversary.lie_frac() > 0.0 {
            self.lie = self.aim(adversary);
            self.adversary = adversary.adaptive().then_some(adversary);
        }
    }

    /// The adversary's `(lie probability, lie target)` snapshot against
    /// the live census; `None` when the forgery has no state in the table.
    fn aim(&self, adversary: AdversarySpec) -> Option<(f64, LieTarget)> {
        resolve_forgery(&*self.protocol, adversary.forgery(&self.opinion_census()))
            .map(|t| (adversary.lie_frac(), t))
    }

    /// Re-aim an adaptive adversary's lie snapshot at the live census —
    /// `O(S)` once per batch, so the `n = 10⁸` throughput is untouched.
    /// Draws no randomness, preserving the replay contract; a no-op when
    /// no adaptive adversary is installed.
    fn refresh_lie(&mut self) {
        if let Some(adversary) = self.adversary {
            self.lie = self.aim(adversary);
        }
    }

    /// Current configuration.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Population size.
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Interactions simulated so far.
    pub fn interactions(&self) -> u64 {
        self.clock.interactions
    }

    /// Batches applied so far. A process-local metric (service dashboards,
    /// throughput accounting); it is *not* checkpointed state and restarts
    /// at zero on restore.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Which tally path each batch took so far. Process-local, like
    /// [`batches`](Self::batches).
    pub fn tally_paths(&self) -> TallyPaths {
        self.paths
    }

    /// Add `count` fresh agents in `state` to the live population — the
    /// ingest path of a long-running service. Uses the same clock-folding
    /// bookkeeping as churn joins, and draws no randomness, so the engine's
    /// RNG stream is exactly the stream of the ingest-free run.
    ///
    /// # Errors
    ///
    /// Leaves the simulation untouched and returns [`AdmitError`] if
    /// `state` is outside the protocol's state space or the population
    /// would overflow `u64`.
    pub fn admit(&mut self, state: usize, count: u64) -> Result<(), AdmitError> {
        let states = self.counts.len();
        if state >= states {
            return Err(AdmitError::State { state, states });
        }
        let overflow = AdmitError::Overflow { n: self.n, count };
        let n = self.n.checked_add(count).ok_or(overflow)?;
        if count == 0 {
            return Ok(());
        }
        self.clock.fold(self.n);
        // A state's count never exceeds the population, so this fits.
        self.counts[state] += count;
        self.n = n;
        Ok(())
    }

    /// Parallel time elapsed: interactions divided by the population size,
    /// folded over population changes (churn) so the clock stays
    /// continuous.
    pub fn parallel_time(&self) -> f64 {
        self.clock.parallel_time(self.n)
    }

    /// The raw RNG state, for checkpointing.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// The clock's checkpoint triple: `(interactions, interactions_base,
    /// time_base)`.
    pub fn clock_parts(&self) -> (u64, u64, f64) {
        self.clock.parts()
    }

    /// Restore RNG and clock from a checkpoint, making subsequent batches
    /// replay the checkpointed run's stream exactly.
    pub fn restore_clock(
        &mut self,
        interactions: u64,
        interactions_base: u64,
        time_base: f64,
        rng: [u64; 4],
    ) {
        self.clock = Clock::restored(interactions, interactions_base, time_base);
        self.rng = SimRng::from_state(rng);
    }

    /// Advance one collision-free batch; returns the number of interactions
    /// applied.
    pub fn step_batch(&mut self) -> u64 {
        self.advance(&RunOptions::default(), u64::MAX)
    }

    /// Sample a pair tally for `len` interactions from the pre-batch
    /// configuration and apply it. Infeasible tallies (a with-replacement
    /// draw overdrew a nearly-empty state) are redrawn; after
    /// [`MAX_TALLY_RETRIES`] misses the batch is applied pair by pair.
    ///
    /// A batch takes the lumped tally, which cannot be infeasible, when
    /// [`plan_lumped`](Self::plan_lumped) lays one out, and the
    /// per-initiator split otherwise; see the [`crate::batch`] module docs
    /// for the rule and its costs.
    fn apply_batch(&mut self, len: u64) {
        self.batches += 1;
        self.refresh_lie();
        // Every path below applies exactly `len` interactions.
        self.clock.interactions += len;
        let sched = self.scheduler;
        if sched.is_none() && self.plan_lumped(len) {
            self.draw_lumped(len);
            self.paths.lumped += 1;
            return;
        }
        self.paths.inline += 1;
        self.tree.rebuild(&self.counts);
        for _ in 0..MAX_TALLY_RETRIES {
            let feasible = match sched {
                None => self.try_tally(len),
                Some(sched) => self.try_tally_scheduled(len, sched),
            };
            if feasible {
                return;
            }
            self.paths.redraws += 1;
        }
        self.paths.pairwise += 1;
        match sched {
            None => self.apply_pairwise(len),
            Some(sched) => self.apply_pairwise_scheduled(len, sched),
        }
    }

    /// Whether this run's batches may be lumped: a deterministic table
    /// with no adversary installed (the caller rules out schedulers).
    fn lumpable(&self) -> bool {
        self.deterministic && self.lie.is_none() && self.adversary.is_none()
    }

    /// Lay out the lumped tally of a batch of `len` interactions, or
    /// return `false` when the batch takes the per-initiator split: the
    /// table is randomized, an adversary is installed, an occupied state
    /// holds fewer than `2ℓ` agents, or the changes and the null cell
    /// outnumber the interactions.
    ///
    /// A batch has `2ℓ` participants, so a state holding at least `2ℓ`
    /// agents can never be overdrawn. With every occupied state that
    /// large the per-initiator split never redraws, its law is the plain
    /// multinomial over ordered pairs, and merging its cells by count
    /// change gives exactly the lumped law.
    fn plan_lumped(&mut self, len: u64) -> bool {
        if !self.lumpable() {
            return false;
        }
        // The changes, or before the table exists a lower bound on them,
        // and the null cell already outnumber ℓ.
        let known = self
            .changes
            .as_ref()
            .map_or(self.changes_seen, |t| t.len() as u64);
        if known >= len || self.counts.iter().any(|&c| c > 0 && c < 2 * len) {
            return false;
        }
        if self.changes.is_none() {
            // At least double the last capped build, so batch lengths
            // hovering near the change count rebuild `O(log ℓ)` times.
            let cap = len.max(2 * self.changes_seen);
            match ChangeTable::build(&*self.protocol, cap as usize) {
                Some(table) => self.changes = Some(Arc::new(table)),
                None => {
                    self.changes_seen = cap;
                    return false;
                }
            }
        }
        let table = self.changes.as_deref().expect("built above");
        if table.len() as u64 >= len {
            return false;
        }

        let plan = &mut self.lumped;
        table.weights(&self.counts, self.n, &mut plan.change_weights);
        plan.total = u128::from(self.n) * u128::from(self.n);
        plan.cells.clear();
        plan.weights.clear();
        // The null cell: its transition nets to zero.
        plan.cells.push(Change::default());
        plan.weights
            .push(plan.total - plan.change_weights.iter().sum::<u128>());
        for (g, &w) in plan.change_weights.iter().enumerate() {
            if w > 0 {
                plan.cells.push(table.change(g));
                plan.weights.push(w);
            }
        }
        true
    }

    /// Draw the planned lumped tally and apply it: a single multinomial
    /// over the plan's cells, drawn on the main stream. No state can be
    /// overdrawn, so there is no usage to check.
    fn draw_lumped(&mut self, len: u64) {
        self.delta.fill(0);
        let plan = &mut self.lumped;
        plan.drawn.clear();
        multinomial_wide_into(
            &mut self.rng,
            len,
            &plan.weights,
            plan.total,
            &mut plan.drawn,
        );
        for &(i, m) in &plan.drawn {
            let c = plan.cells[i];
            let (a, b, a2, b2) = (c.a as usize, c.b as usize, c.a2 as usize, c.b2 as usize);
            let m = m as i64;
            self.delta[a] -= m;
            self.delta[b] -= m;
            self.delta[a2] += m;
            self.delta[b2] += m;
        }
        self.apply_delta();
    }

    /// Apply the attempt's `delta` if its `usage` fits: within a
    /// collision-free batch every participant is a distinct agent, so the
    /// gross usage of a state is bounded by its pre-batch count (which
    /// also keeps the net delta from going negative). Returns whether the
    /// tally was feasible; an infeasible one leaves the configuration
    /// untouched.
    fn commit(&mut self) -> bool {
        if self.counts.iter().zip(&self.usage).any(|(&c, &u)| u > c) {
            return false;
        }
        self.apply_delta();
        true
    }

    /// Add the attempt's `delta` to the counts.
    fn apply_delta(&mut self) {
        for (c, &d) in self.counts.iter_mut().zip(&self.delta) {
            *c = c.checked_add_signed(d).expect("feasible delta");
        }
    }

    /// One per-initiator tally attempt, returning whether it was feasible
    /// (an infeasible tally would use more agents of some state than
    /// exist; the with-replacement draw can overdraw a small state).
    ///
    /// The attempt is structured as a split tree: the root multinomial
    /// (drawn here, from the main stream) splits the batch across
    /// initiator states, and each initiator's subtree resolves on a
    /// counter-based substream keyed by `(key, subtree index)` (see
    /// [`crate::batch::tally`]). The main stream advances by the root draw
    /// plus one key word per attempt.
    fn try_tally(&mut self, len: u64) -> bool {
        self.delta.fill(0);
        self.usage.fill(0);

        // Root split: one multinomial over the configuration.
        self.initiators.clear();
        multinomial_into(
            &mut self.rng,
            len,
            &self.counts,
            self.n,
            &mut self.initiators,
        );

        // Multiplicities at or below this resolve responders one tree draw
        // at a time; above it, through a responder multinomial.
        let occupied = self.counts.iter().filter(|&&c| c > 0).count() as u64;
        let split_threshold = SPLIT_FLOOR.max(occupied);
        let key = self.rng.gen::<u64>();
        let ctx = TallyCtx {
            protocol: &*self.protocol,
            deterministic: self.deterministic,
            lie: self.lie,
            states: self.counts.len(),
        };
        for (subtree, &(a, multiplicity)) in self.initiators.iter().enumerate() {
            let mut rng = SimRng::seed_from_u64(rng::derive(key, subtree as u64));
            let cells = &mut self.scratch.cells;
            cells.clear();
            if multiplicity <= split_threshold {
                cells.extend((0..multiplicity).map(|_| (self.tree.sample(&mut rng), 1)));
            } else {
                multinomial_into(&mut rng, multiplicity, &self.counts, self.n, cells);
            }
            tally::fold_subtree(
                &ctx,
                &mut rng,
                a,
                &mut self.scratch,
                &mut self.delta,
                &mut self.usage,
            );
        }
        self.commit()
    }

    /// Exact per-pair application (the seed semantics): each interaction
    /// samples from the *live* configuration, so no overdraw is possible.
    /// Only used as the rare-tally fallback.
    fn apply_pairwise(&mut self, len: u64) {
        for _ in 0..len {
            let a = self.tree.sample(&mut self.rng);
            let mut b = self.tree.sample(&mut self.rng);
            // A single-agent state cannot interact with itself: redraw the
            // responder (another state is occupied since n ≥ 2).
            while b == a && self.counts[a] < 2 {
                b = self.tree.sample(&mut self.rng);
            }
            self.apply_live_interaction(a, b);
        }
    }

    /// Resolve one live interaction of the ordered pair `(a, b)` — the
    /// per-interaction Byzantine coin flips when an adversary is active,
    /// the plain transition otherwise — and apply it to the live counts.
    fn apply_live_interaction(&mut self, a: usize, b: usize) {
        let (a2, b2) = match self.lie {
            None => self.protocol.delta(a, b, &mut self.rng),
            Some((frac, forged)) => {
                let a_lies = self.rng.gen_bool(frac);
                let b_lies = self.rng.gen_bool(frac);
                match (a_lies, b_lies) {
                    (true, true) => (a, b),
                    (true, false) => {
                        let f = self.forged_state(forged);
                        let (_, b2) = self.protocol.delta(f, b, &mut self.rng);
                        (a, b2)
                    }
                    (false, true) => {
                        let f = self.forged_state(forged);
                        let (a2, _) = self.protocol.delta(a, f, &mut self.rng);
                        (a2, b)
                    }
                    (false, false) => self.protocol.delta(a, b, &mut self.rng),
                }
            }
        };
        if (a2, b2) == (a, b) {
            return;
        }
        for (s, d) in [(a, -1i64), (b, -1), (a2, 1), (b2, 1)] {
            self.counts[s] = self.counts[s].checked_add_signed(d).expect("live sample");
            self.tree.add(s, d);
        }
    }

    /// The forged state for one lie: fixed, a fair pick from a split
    /// pair, or uniform over the table.
    fn forged_state(&mut self, forged: LieTarget) -> usize {
        match forged {
            LieTarget::Fixed(f) => f,
            LieTarget::Pair(a, b) => {
                if self.rng.gen_bool(0.5) {
                    a
                } else {
                    b
                }
            }
            LieTarget::Random => self.rng.gen_range(0..self.counts.len()),
        }
    }

    /// One tally attempt under an adversarial scheduler: participation
    /// weights become `counts[s] · opinion_weight(opinion(s))`, drawn
    /// through real-valued multinomials, and the scheduler's assortativity
    /// share of the batch forces responders into the initiator's opinion
    /// class. Feasibility checking and application are shared with
    /// [`try_tally`](Self::try_tally).
    fn try_tally_scheduled(&mut self, len: u64, sched: SchedulerSpec) -> bool {
        self.delta.fill(0);
        self.usage.fill(0);

        let weights: Vec<f64> = self
            .counts
            .iter()
            .enumerate()
            .map(|(s, &c)| {
                c as f64
                    * sched
                        .opinion_weight(self.protocol.opinion(s))
                        .clamp(0.0, 1.0)
            })
            .collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            // Every occupied state was starved to weight zero; degrade to
            // the uniform tally rather than stall, and surface it.
            self.scheduler_saturated = true;
            return self.try_tally(len);
        }

        let assort = sched.assortativity().clamp(0.0, 1.0);
        let forced = if assort > 0.0 {
            binomial(&mut self.rng, len, assort)
        } else {
            0
        };

        let mut initiators = std::mem::take(&mut self.initiators);
        let mut responders = std::mem::take(&mut self.responders);

        // Free pairs: weighted initiators, weighted responders.
        initiators.clear();
        multinomial_weighted_into(
            &mut self.rng,
            len - forced,
            &weights,
            total,
            &mut initiators,
        );
        for &(a, multiplicity) in &initiators {
            responders.clear();
            multinomial_weighted_into(
                &mut self.rng,
                multiplicity,
                &weights,
                total,
                &mut responders,
            );
            for &(b, m) in &responders {
                tally::accumulate(
                    &TallyCtx {
                        protocol: &*self.protocol,
                        deterministic: self.deterministic,
                        lie: self.lie,
                        states: self.counts.len(),
                    },
                    &mut self.rng,
                    &mut self.delta,
                    &mut self.usage,
                    a,
                    b,
                    m,
                );
            }
        }

        // Forced like-with-like pairs: the responder is drawn from the
        // initiator's opinion class, by raw counts. An empty class (the
        // initiator is its sole member) degrades to a free draw.
        if forced > 0 {
            initiators.clear();
            multinomial_weighted_into(&mut self.rng, forced, &weights, total, &mut initiators);
            for &(a, multiplicity) in &initiators {
                let want = self.protocol.opinion(a);
                let class: Vec<f64> = self
                    .counts
                    .iter()
                    .enumerate()
                    .map(|(s, &c)| {
                        if self.protocol.opinion(s) == want {
                            c as f64
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let class_total: f64 = class.iter().sum();
                responders.clear();
                if class_total > 0.0 {
                    multinomial_weighted_into(
                        &mut self.rng,
                        multiplicity,
                        &class,
                        class_total,
                        &mut responders,
                    );
                } else {
                    multinomial_weighted_into(
                        &mut self.rng,
                        multiplicity,
                        &weights,
                        total,
                        &mut responders,
                    );
                }
                for &(b, m) in &responders {
                    tally::accumulate(
                        &TallyCtx {
                            protocol: &*self.protocol,
                            deterministic: self.deterministic,
                            lie: self.lie,
                            states: self.counts.len(),
                        },
                        &mut self.rng,
                        &mut self.delta,
                        &mut self.usage,
                        a,
                        b,
                        m,
                    );
                }
            }
        }

        initiators.clear();
        responders.clear();
        self.initiators = initiators;
        self.responders = responders;
        self.commit()
    }

    /// Weighted per-pair fallback for scheduled batches (the analogue of
    /// [`apply_pairwise`](Self::apply_pairwise)): every draw samples from
    /// the live weighted configuration, so no overdraw is possible.
    fn apply_pairwise_scheduled(&mut self, len: u64, sched: SchedulerSpec) {
        let assort = sched.assortativity().clamp(0.0, 1.0);
        for _ in 0..len {
            let a = self.sample_state_weighted(sched);
            let mut b = if assort > 0.0 && self.rng.gen_bool(assort) {
                let want = self.protocol.opinion(a);
                self.sample_state_in_class(want)
                    .unwrap_or_else(|| self.sample_state_weighted(sched))
            } else {
                self.sample_state_weighted(sched)
            };
            // A single-agent state cannot interact with itself: redraw the
            // responder, then take any other agent once the weights keep
            // landing on the initiator.
            let mut retries = 0;
            while b == a && self.counts[a] < 2 {
                b = if retries < SCHEDULER_RETRIES {
                    retries += 1;
                    self.sample_state_weighted(sched)
                } else {
                    self.sample_other_agent(a, sched)
                };
            }
            self.apply_live_interaction(a, b);
        }
    }

    /// A uniform draw among the agents other than the lone agent in state
    /// `a`: the scheduled fallback's responder after
    /// [`SCHEDULER_RETRIES`] weighted redraws landed on that agent. Marks
    /// the scheduler saturated when none of the others carries weight.
    fn sample_other_agent(&mut self, a: usize, sched: SchedulerSpec) -> usize {
        debug_assert_eq!(self.counts[a], 1);
        let weighted = (0..self.counts.len()).any(|s| {
            s != a && self.counts[s] > 0 && sched.opinion_weight(self.protocol.opinion(s)) > 0.0
        });
        if !weighted {
            self.scheduler_saturated = true;
        }
        let mut target = self.rng.gen_range(0..self.n - 1);
        for s in (0..self.counts.len()).filter(|&s| s != a) {
            if target < self.counts[s] {
                return s;
            }
            target -= self.counts[s];
        }
        unreachable!("the other agents' counts sum to n - 1")
    }

    /// One weighted state draw (linear scan over `counts · weight`); falls
    /// back to the uniform Fenwick draw if every weight is zero.
    fn sample_state_weighted(&mut self, sched: SchedulerSpec) -> usize {
        let total: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(s, &c)| {
                c as f64
                    * sched
                        .opinion_weight(self.protocol.opinion(s))
                        .clamp(0.0, 1.0)
            })
            .sum();
        if total <= 0.0 {
            self.scheduler_saturated = true;
            return self.tree.sample(&mut self.rng);
        }
        let mut target = self.rng.gen::<f64>() * total;
        let last = self
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .expect("population is non-empty");
        for s in 0..self.counts.len() {
            let w = self.counts[s] as f64
                * sched
                    .opinion_weight(self.protocol.opinion(s))
                    .clamp(0.0, 1.0);
            target -= w;
            if target < 0.0 && self.counts[s] > 0 {
                return s;
            }
        }
        last // float residue: land on the last occupied state
    }

    /// One draw from the opinion class `want`, by raw counts; `None` when
    /// the class is empty.
    fn sample_state_in_class(&mut self, want: Option<u32>) -> Option<usize> {
        let total: u64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(s, _)| self.protocol.opinion(s) == want)
            .map(|(_, &c)| c)
            .sum();
        if total == 0 {
            return None;
        }
        let mut target = self.rng.gen_range(0..total);
        for s in 0..self.counts.len() {
            if self.protocol.opinion(s) != want {
                continue;
            }
            if target < self.counts[s] {
                return Some(s);
            }
            target -= self.counts[s];
        }
        unreachable!("class counts sum to total")
    }

    /// Run until convergence or budget exhaustion. Convergence is checked
    /// between batches (a batch is `Θ(√n)` interactions, finer than the
    /// sequential engine's default `n`-interaction stride);
    /// `opts.check_every` is not used. The final batch is truncated to the
    /// interaction budget.
    pub fn run(&mut self, opts: &RunOptions) -> RunResult {
        driver::run(self, opts, |_| {})
    }

    /// Run under a list of faults: batches are split at each fault's
    /// parallel time (the batch straddling it is truncated to land exactly
    /// on it), and the strike is applied to the counts between batches —
    /// `O(S)` binomial thinning, so the `n = 10⁸` fast path stays fast.
    /// Recovery bookkeeping matches
    /// [`Simulation::run_faulted`](crate::Simulation::run_faulted); an
    /// empty list replays [`run`](Self::run) exactly.
    pub fn run_faulted(&mut self, opts: &RunOptions, faults: &[FaultSpec]) -> RunResult {
        driver::run_faulted(self, opts, faults)
    }

    /// Run under a steady-state churn process until `stop_at` parallel
    /// time: after every batch, `Poisson`-distributed joins (drawn from the
    /// `initial` distribution) and leaves (multinomial thinning of the live
    /// counts, never below two agents) are applied to the counts; a
    /// [`ChurnSample`](crate::ChurnSample) is recorded each
    /// time the clock crosses a multiple of the process's sampling period.
    ///
    /// Convergence does not stop a churned run; the status is
    /// [`RunStatus::Converged`](crate::RunStatus) iff the output predicate
    /// fires at `stop_at`, and the series carries the history. Batches are
    /// never truncated at `stop_at` (the run halts at the first batch
    /// boundary past it), which keeps checkpointed and uninterrupted runs
    /// on the same RNG trajectory.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty or does not cover the state space.
    pub fn run_churned(
        &mut self,
        opts: &RunOptions,
        churn: &ChurnProcess,
        initial: &[u64],
        stop_at: f64,
    ) -> RunResult {
        assert_eq!(
            initial.len(),
            self.counts.len(),
            "join distribution must cover the state space"
        );
        assert!(
            initial.iter().sum::<u64>() > 0,
            "churn needs a join distribution"
        );
        let mut next_mark = churn.next_mark(self.parallel_time());
        let mut series: Vec<ChurnSample> = Vec::new();
        while self.parallel_time() < stop_at && self.clock.interactions < opts.max_interactions {
            let len = self.advance(opts, opts.max_interactions - self.clock.interactions);
            self.apply_churn_events(churn, initial, len);
            let clock = self.parallel_time();
            if clock >= next_mark {
                let top = self
                    .opinion_census()
                    .tallies()
                    .iter()
                    .map(|&(_, c)| c)
                    .max()
                    .unwrap_or(0);
                series.push(ChurnSample {
                    t: clock,
                    population: self.n,
                    plurality_frac: top as f64 / self.n as f64,
                    output: self.output(),
                });
                next_mark = churn.next_mark(clock);
            }
        }
        let output = self.output();
        let status = if output.is_some() {
            RunStatus::Converged
        } else {
            RunStatus::Exhausted
        };
        let mut r = driver::finish(self, status, output);
        r.series = series;
        r
    }

    /// Poisson join/leave events covering a batch of `len` interactions,
    /// applied to the counts vector in `O(S)`. The clock folds before the
    /// population changes; leaves are per-cell capped so counts never go
    /// negative (the multinomial thinning samples with replacement).
    ///
    /// Uniform-target departures keep the exact RNG draw sequence from
    /// before targeting existed; targeted departures thin the
    /// census-chosen opinion class first (a class-masked multinomial) and
    /// any remainder falls back to the uniform thinning.
    fn apply_churn_events(&mut self, churn: &ChurnProcess, initial: &[u64], len: u64) {
        let (joins, leaves) = churn.draw_events(&mut self.rng, len);
        let leaves = leaves.min(self.n - 2);
        if joins == 0 && leaves == 0 {
            return;
        }
        self.clock.fold(self.n);
        let mut out = Vec::new();
        let mut remaining = leaves;
        if remaining > 0 && churn.target() != ChurnTarget::Uniform {
            let census = self.opinion_census();
            let want = match churn.target() {
                ChurnTarget::Uniform => None,
                ChurnTarget::Plurality => census.leader(),
                ChurnTarget::Minority => census.weakest(),
            };
            // An opinion-free census degrades to uniform departures.
            if let Some(want) = want {
                let class: Vec<u64> = self
                    .counts
                    .iter()
                    .enumerate()
                    .map(|(s, &c)| {
                        if self.protocol.opinion(s) == Some(want) {
                            c
                        } else {
                            0
                        }
                    })
                    .collect();
                let class_total: u64 = class.iter().sum();
                let k = remaining.min(class_total);
                if k > 0 {
                    multinomial_into(&mut self.rng, k, &class, class_total, &mut out);
                    for (s, c) in out.drain(..) {
                        let c = c.min(self.counts[s]);
                        self.counts[s] -= c;
                        self.n -= c;
                        remaining -= c;
                    }
                }
            }
        }
        if remaining > 0 {
            multinomial_into(&mut self.rng, remaining, &self.counts, self.n, &mut out);
            for (s, c) in out.drain(..) {
                let c = c.min(self.counts[s]);
                self.counts[s] -= c;
                self.n -= c;
            }
        }
        if joins > 0 {
            let initial_total = initial.iter().sum();
            multinomial_into(&mut self.rng, joins, initial, initial_total, &mut out);
            for (s, c) in out {
                self.counts[s] += c;
            }
            self.n += joins;
        }
    }

    /// The live opinion tally in `O(S)`, for adaptive forgeries, targeted
    /// churn and the churn series.
    fn opinion_census(&self) -> OpinionCensus {
        OpinionCensus::from_tallies(
            self.counts
                .iter()
                .enumerate()
                .filter_map(|(s, &c)| self.protocol.opinion(s).map(|op| (op, c))),
        )
    }
}

impl<P: TableProtocol> Engine for BatchSimulation<P> {
    type Config = [u64];

    fn clock(&self) -> &Clock {
        &self.clock
    }

    fn population(&self) -> u64 {
        self.n
    }

    fn config(&self) -> &[u64] {
        &self.counts
    }

    /// One collision-free batch, truncated to `cap` interactions.
    fn advance(&mut self, _opts: &RunOptions, cap: u64) -> u64 {
        let len = draw_batch_len(&mut self.rng, self.n).min(cap);
        self.apply_batch(len);
        len
    }

    fn output(&self) -> Option<u32> {
        self.protocol.output(&self.counts)
    }

    fn strike(&mut self, initial: &[u64], fault: FaultSpec) {
        strike_counts(
            &*self.protocol,
            &mut self.counts,
            initial,
            fault,
            &mut self.rng,
        );
    }

    fn scheduler_saturated(&self) -> bool {
        self.scheduler_saturated
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::result::RunStatus;
    use crate::test_support::chi_square_tail;

    /// One-way epidemic as a table protocol: state 1 infects state 0.
    pub(crate) struct Epi;
    impl TableProtocol for Epi {
        fn states(&self) -> usize {
            2
        }

        fn is_deterministic(&self) -> bool {
            true
        }
        fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
            if a == 1 || b == 1 {
                (1, 1)
            } else {
                (0, 0)
            }
        }
        fn output(&self, counts: &[u64]) -> Option<u32> {
            (counts[0] == 0).then_some(1)
        }
    }

    /// 3-state approximate majority (blank 0, A 1, B 2).
    pub(crate) struct Am3;
    impl TableProtocol for Am3 {
        fn states(&self) -> usize {
            3
        }

        fn is_deterministic(&self) -> bool {
            true
        }
        fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
            match (a, b) {
                (1, 2) | (2, 1) => (a, 0),
                (1, 0) => (1, 1),
                (2, 0) => (2, 2),
                _ => (a, b),
            }
        }
        fn output(&self, counts: &[u64]) -> Option<u32> {
            if counts[0] == 0 && counts[2] == 0 {
                Some(1)
            } else if counts[0] == 0 && counts[1] == 0 {
                Some(2)
            } else {
                None
            }
        }
    }

    /// USD on `k` opinions (state 0 undecided), as in `pp-baselines`.
    pub(crate) struct Usd(pub usize);
    impl TableProtocol for Usd {
        fn states(&self) -> usize {
            self.0 + 1
        }
        fn is_deterministic(&self) -> bool {
            true
        }
        fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
            match (a, b) {
                (0, 0) => (0, 0),
                (x, 0) => (x, x),
                (0, y) => (y, y),
                (x, y) if x != y => (x, 0),
                same => same,
            }
        }
        fn output(&self, _counts: &[u64]) -> Option<u32> {
            None
        }
        fn opinion(&self, s: usize) -> Option<u32> {
            (s >= 1).then_some(s as u32)
        }
        fn opinion_state(&self, opinion: u32) -> Option<usize> {
            (1..=self.0 as u32)
                .contains(&opinion)
                .then_some(opinion as usize)
        }
    }

    /// A randomized table: on an (A, B) clash the *pair* flips one fair
    /// coin and both adopt the winner — drifts nowhere, but exercises the
    /// per-interaction RNG path.
    struct CoinClash;
    impl TableProtocol for CoinClash {
        fn states(&self) -> usize {
            2
        }
        fn delta(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize) {
            use rand::Rng;
            if a != b {
                let w = usize::from(rng.gen::<bool>());
                (w, w)
            } else {
                (a, b)
            }
        }
        fn output(&self, counts: &[u64]) -> Option<u32> {
            counts
                .iter()
                .position(|&c| c == 0)
                .map(|loser| 1 - loser as u32)
        }
    }

    #[test]
    fn population_is_conserved() {
        let mut sim = BatchSimulation::new(Am3, vec![0, 600, 400], 3);
        for _ in 0..100 {
            sim.step_batch();
            assert_eq!(sim.counts().iter().sum::<u64>(), 1000);
        }
    }

    #[test]
    fn epidemic_completes_in_logarithmic_time() {
        let n = 1 << 16;
        let mut sim = BatchSimulation::new(Epi, vec![n - 1, 1], 9);
        let r = sim.run(&RunOptions::default());
        assert_eq!(r.status, RunStatus::Converged);
        let model = (n as f64).log2() + (n as f64).ln();
        assert!(
            (r.parallel_time - model).abs() < model,
            "epidemic time {} vs model {model}",
            r.parallel_time
        );
    }

    #[test]
    fn batch_matches_sequential_epidemic_distribution() {
        // Compare median completion times of the batched and sequential
        // engines on the same protocol: they must agree within ~15%.
        use crate::protocol::Protocol;
        use crate::sim::Simulation;

        struct SeqEpi;
        impl Protocol for SeqEpi {
            type State = u8;
            fn interact(&mut self, _t: u64, a: &mut u8, b: &mut u8, _rng: &mut SimRng) {
                let i = *a | *b;
                *a = i;
                *b = i;
            }
            fn converged(&self, states: &[u8]) -> Option<u32> {
                states.iter().all(|&s| s == 1).then_some(1)
            }
        }

        let n = 4096usize;
        let median = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v[v.len() / 2]
        };
        // The sequential engine checks convergence every 64 interactions so
        // its reported times are not quantised to whole parallel-time units
        // (the batched engine checks every Θ(√n)-interaction batch).
        let seq_opts = RunOptions {
            max_interactions: u64::MAX,
            check_every: 64,
        };
        let seq: Vec<f64> = (0..25)
            .map(|seed| {
                let mut states = vec![0u8; n];
                states[0] = 1;
                let mut sim = Simulation::new(SeqEpi, states, seed);
                sim.run(&seq_opts).parallel_time
            })
            .collect();
        let bat: Vec<f64> = (0..25)
            .map(|seed| {
                let mut sim = BatchSimulation::new(Epi, vec![n as u64 - 1, 1], 1000 + seed);
                sim.run(&RunOptions::default()).parallel_time
            })
            .collect();
        let (ms, mb) = (median(seq), median(bat));
        assert!(
            (ms - mb).abs() / ms < 0.15,
            "sequential {ms} vs batched {mb} diverge"
        );
    }

    #[test]
    fn batched_majority_picks_large_bias_winner() {
        let n = 1_000_000u64;
        let mut sim = BatchSimulation::new(Am3, vec![0, n * 3 / 5, n * 2 / 5], 11);
        let r = sim.run(&RunOptions {
            max_interactions: 200 * n,
            check_every: 0,
        });
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(1));
    }

    #[test]
    fn hundred_million_agents_converge_quickly() {
        // The point of the multinomial engine: n = 10⁸ is interactive.
        let n = 100_000_000u64;
        let mut sim = BatchSimulation::new(Am3, vec![0, n / 2 + n / 10, n / 2 - n / 10], 5);
        let r = sim.run(&RunOptions {
            max_interactions: 100 * n,
            check_every: 0,
        });
        assert_eq!(r.status, RunStatus::Converged);
        assert_eq!(r.output, Some(1));
        assert!(
            r.parallel_time < 15.0 * (n as f64).ln(),
            "time {}",
            r.parallel_time
        );
    }

    #[test]
    fn randomized_tables_converge_and_conserve() {
        let n = 10_000u64;
        let mut sim = BatchSimulation::new(CoinClash, vec![n / 2, n / 2], 13);
        let r = sim.run(&RunOptions {
            max_interactions: 20_000 * n,
            check_every: 0,
        });
        assert_eq!(r.status, RunStatus::Converged);
        assert!(r.output == Some(0) || r.output == Some(1));
        assert_eq!(sim.counts().iter().sum::<u64>(), n);
    }

    #[test]
    fn randomized_coin_is_fair_across_runs() {
        // At a 50/50 start the coin-clash walk is symmetric: either side
        // should win a healthy share of runs.
        let n = 2_000u64;
        let wins0 = (0..40)
            .filter(|&seed| {
                let mut sim = BatchSimulation::new(CoinClash, vec![n / 2, n / 2], seed);
                let r = sim.run(&RunOptions {
                    max_interactions: 100_000 * n,
                    check_every: 0,
                });
                r.output == Some(0)
            })
            .count();
        assert!((5..=35).contains(&wins0), "state 0 won {wins0}/40 runs");
    }

    #[test]
    fn budget_is_respected_and_batches_truncated() {
        let n = 100_000u64;
        let mut sim = BatchSimulation::new(Am3, vec![n, 0, 0], 2);
        let r = sim.run(&RunOptions {
            max_interactions: 1000,
            check_every: 0,
        });
        assert_eq!(r.status, RunStatus::Exhausted);
        assert_eq!(
            r.interactions, 1000,
            "final batch must truncate to the budget"
        );
    }

    #[test]
    fn overdraw_prone_configurations_stay_consistent() {
        // One agent of state 1 in a sea of state 0: every batch risks
        // overdrawing state 1, exercising the retry/fallback path.
        let mut sim = BatchSimulation::new(Swap, vec![999, 1], 7);
        for _ in 0..2000 {
            sim.step_batch();
            assert_eq!(sim.counts().iter().sum::<u64>(), 1000);
            assert_eq!(sim.counts()[1], 1, "swap conserves the single token");
        }
        let paths = sim.tally_paths();
        assert_eq!(paths.lumped, 0, "{paths:?}");
    }

    #[test]
    #[should_panic]
    fn mismatched_counts_rejected() {
        let _ = BatchSimulation::new(Epi, vec![1, 1, 1], 0);
    }

    #[test]
    fn admit_grows_the_population_without_touching_the_rng() {
        let mut sim = BatchSimulation::new(Am3, vec![0, 600, 400], 17);
        for _ in 0..10 {
            sim.step_batch();
        }
        let rng_before = sim.rng_state();
        let t_before = sim.parallel_time();
        sim.admit(2, 250).expect("state 2 exists");
        assert_eq!(sim.rng_state(), rng_before, "admit must draw no randomness");
        assert_eq!(sim.counts().iter().sum::<u64>(), 1250);
        assert_eq!(sim.n(), 1250);
        // The clock folds: parallel time is continuous across the admit.
        assert_eq!(sim.parallel_time(), t_before);
        // Admitting zero agents is a true no-op.
        let snap = sim.counts().to_vec();
        sim.admit(0, 0).expect("admitting nobody is fine");
        assert_eq!(sim.counts(), &snap[..]);
        // The admitted agents participate: the clock advances at the new
        // population's rate and counts keep summing to the grown total.
        sim.step_batch();
        assert_eq!(sim.counts().iter().sum::<u64>(), 1250);
        assert!(sim.parallel_time() > t_before);
    }

    #[test]
    fn admit_refuses_bad_states_and_overflow_untouched() {
        let mut sim = BatchSimulation::new(Am3, vec![0, 600, 400], 17);
        sim.step_batch();
        let before = (sim.counts().to_vec(), sim.n(), sim.parallel_time());
        assert_eq!(
            sim.admit(3, 1),
            Err(AdmitError::State {
                state: 3,
                states: 3
            })
        );
        assert_eq!(
            sim.admit(1, u64::MAX),
            Err(AdmitError::Overflow {
                n: 1000,
                count: u64::MAX
            })
        );
        assert_eq!(
            (sim.counts().to_vec(), sim.n(), sim.parallel_time()),
            before
        );
        // The largest admissible count still fits.
        sim.admit(1, u64::MAX - 1000).expect("fits exactly");
        assert_eq!(sim.counts().iter().sum::<u64>(), u64::MAX);
    }

    #[test]
    fn batches_counter_tracks_applied_batches() {
        let mut sim = BatchSimulation::new(Am3, vec![0, 600, 400], 17);
        assert_eq!(sim.batches(), 0);
        for _ in 0..5 {
            sim.step_batch();
        }
        assert_eq!(sim.batches(), 5);
    }

    #[test]
    fn ten_billion_agents_conserve_population() {
        // n = 10^10 exceeds u32 and any dense-agent representation; the
        // configuration-space engine must hold it in O(S) memory with no
        // intermediate overflow. Batch lengths run ≈ 62 670 here. The
        // first batch makes blanks, fewer than 2ℓ of them, so the next few
        // take the split; once the blanks hold 2ℓ agents the batches are
        // lumped, with weights (products of two counts) that exceed u64.
        let n = 10_000_000_000u64;
        let mut sim = BatchSimulation::new(Am3, vec![0, 5_500_000_000, 4_500_000_000], 71);
        for _ in 0..50 {
            sim.step_batch();
            assert_eq!(sim.counts().iter().sum::<u64>(), n);
        }
        let paths = sim.tally_paths();
        assert!(paths.lumped > 40 && paths.inline > 0, "{paths:?}");
        assert!(
            sim.interactions() > 1_000_000,
            "3-state clash makes progress"
        );
        // The majority dynamics pull mass toward opinion 1's blank state
        // path; verify both opinions still hold u32-overflowing counts.
        assert!(sim.counts()[1] > u32::MAX as u64);
        assert!(sim.counts()[2] > u32::MAX as u64);
    }

    /// The per-case false-failure rate of the law test; two cases keep
    /// the test's overall rate at 10⁻⁴.
    const LAW_ALPHA: f64 = 5e-5;

    /// Draw one batch of exactly `len` interactions from `base` on the
    /// lumped or the per-initiator path, and return the counts after it.
    fn forced_batch<P: TableProtocol>(
        base: &BatchSimulation<P>,
        seed: u64,
        len: u64,
        lumped: bool,
    ) -> Vec<u64> {
        let mut sim = base.clone();
        sim.rng = SimRng::seed_from_u64(seed);
        if lumped {
            assert!(sim.plan_lumped(len), "the case must qualify for lumping");
            sim.draw_lumped(len);
        } else {
            // Every state holds at least 2ℓ agents: no overdraw.
            assert!(sim.try_tally(len));
        }
        sim.counts
    }

    /// Two-sample chi-square homogeneity test of the one-batch outcome
    /// law, lumped against per-initiator, over `trials` batches each.
    /// Outcomes seen fewer than 20 times in both samples together are
    /// pooled into one cell.
    fn assert_same_batch_law<P: TableProtocol>(
        label: &str,
        protocol: P,
        counts: Vec<u64>,
        len: u64,
        trials: u64,
    ) {
        use std::collections::HashMap;
        let base = BatchSimulation::new(protocol, counts, 0);
        let mut seen: HashMap<Vec<u64>, [u64; 2]> = HashMap::new();
        for (side, lumped) in [true, false].into_iter().enumerate() {
            for t in 0..trials {
                let seed = crate::rng::derive(side as u64, t);
                seen.entry(forced_batch(&base, seed, len, lumped))
                    .or_default()[side] += 1;
            }
        }
        let mut cells: Vec<[u64; 2]> = Vec::new();
        let mut pooled = [0u64; 2];
        for &[x, y] in seen.values() {
            if x + y >= 20 {
                cells.push([x, y]);
            } else {
                pooled = [pooled[0] + x, pooled[1] + y];
            }
        }
        if pooled != [0, 0] {
            cells.push(pooled);
        }
        assert!(cells.len() >= 2, "{label}: the outcome is degenerate");
        // Equal sample sizes: each cell's expected share is half its
        // total on either side.
        let stat: f64 = cells
            .iter()
            .map(|&[x, y]| {
                let e = (x + y) as f64 / 2.0;
                ((x as f64 - e).powi(2) + (y as f64 - e).powi(2)) / e
            })
            .sum();
        let df = (cells.len() - 1) as f64;
        let p = chi_square_tail(df, stat);
        assert!(
            p > LAW_ALPHA,
            "{label}: lumped and per-initiator batch laws differ \
             (chi-square {stat:.1} on {df} df, p = {p:.2e})"
        );
    }

    #[test]
    fn lumped_tally_draws_the_per_initiator_law() {
        let trials = 20_000;
        // Every state holds at least 2ℓ = 16 agents.
        assert_same_batch_law("usd", Usd(3), vec![20, 40, 30, 25], 8, trials);
        // n = 10¹⁰: products of two counts exceed u64.
        assert_same_batch_law(
            "usd, n > 2^32",
            Usd(3),
            vec![1_000_000_000, 4_000_000_000, 3_000_000_000, 2_000_000_000],
            8,
            trials,
        );
    }

    /// The overdraw-prone swap table: every change is null.
    struct Swap;
    impl TableProtocol for Swap {
        fn states(&self) -> usize {
            2
        }
        fn is_deterministic(&self) -> bool {
            true
        }
        fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
            (b, a)
        }
        fn output(&self, _counts: &[u64]) -> Option<u32> {
            None
        }
    }

    #[test]
    fn batches_that_could_overdraw_or_outnumber_their_cells_take_the_split() {
        let plans =
            |counts: Vec<u64>, len: u64| BatchSimulation::new(Usd(3), counts, 0).plan_lumped(len);
        assert!(plans(vec![20, 40, 30, 25], 8));
        // State 0 holds one agent, below 2ℓ = 28: an overdraw is possible,
        // so the split draws the batch, redraws included.
        assert!(!plans(vec![1, 60, 45, 35], 14));
        // An empty state cannot be overdrawn.
        assert!(plans(vec![0, 60, 45, 35], 14));
        // Six changes and the null cell outnumber a batch of six.
        assert!(!plans(vec![20, 40, 30, 25], 6));
        // The single swap token can be overdrawn in every batch.
        let mut swap = BatchSimulation::new(Swap, vec![999, 1], 0);
        assert!(!swap.plan_lumped(200));
    }

    /// A table that counts its `delta` calls.
    struct Counted<P>(P, std::sync::atomic::AtomicU64);
    impl<P: TableProtocol> TableProtocol for Counted<P> {
        fn states(&self) -> usize {
            self.0.states()
        }
        fn is_deterministic(&self) -> bool {
            self.0.is_deterministic()
        }
        fn delta(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize) {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.delta(a, b, rng)
        }
        fn output(&self, counts: &[u64]) -> Option<u32> {
            self.0.output(counts)
        }
    }

    #[test]
    fn a_table_with_too_many_changes_is_never_built_in_full() {
        // 10⁴ changes over 5,001 states, two occupied, n = 5,000: every
        // batch (ℓ below ~300) has far more changes than interactions.
        // Each capped build stops within the first responder's walk, so
        // the whole run calls `delta` a few thousand times, where one
        // full build would call it 25 million times.
        let k = 5_000;
        let mut counts = vec![0u64; k + 1];
        counts[1] = 2_500;
        counts[2] = 2_500;
        let protocol = Counted(Usd(k), Default::default());
        let mut sim = BatchSimulation::new(protocol, counts, 3);
        for _ in 0..500 {
            sim.step_batch();
        }
        assert_eq!(sim.tally_paths().lumped, 0);
        let calls = sim.protocol().1.load(std::sync::atomic::Ordering::Relaxed);
        assert!(calls < 20_000, "{calls} calls of delta");
    }
}
