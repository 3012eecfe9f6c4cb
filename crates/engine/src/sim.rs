//! The sequential scheduler.

use rand::{Rng, SeedableRng};

use crate::census::Census;
use crate::churn::ChurnProcess;
use crate::driver::{self, Clock, Engine};
use crate::fault::{
    AdversarySpec, ChurnTarget, FaultSpec, Forgery, OpinionCensus, Replacement, SchedulerSpec,
    SCHEDULER_RETRIES, SCHEDULER_SATURATION_STREAK,
};
use crate::pair::{pair_mut, sample_pair};
use crate::protocol::{Protocol, SimRng};
use crate::result::{RunOptions, RunResult, RunStatus};

/// A single simulation instance: a protocol, a configuration (one state per
/// agent) and a scheduler RNG.
#[derive(Debug)]
pub struct Simulation<P: Protocol> {
    protocol: P,
    states: Vec<P::State>,
    rng: SimRng,
    clock: Clock,
    scheduler: Option<SchedulerSpec>,
    adversary: Option<AdversarySpec>,
    /// The adversary's current forgery, cached so the hot loop never
    /// recomputes it. Static adversaries set it once at install; adaptive
    /// ones are refreshed against the live census at every stride
    /// boundary (see [`refresh_forgery`](Self::refresh_forgery)).
    forgery: Forgery,
    /// Consecutive fully-exhausted scheduler rejection loops.
    starve_streak: u32,
    scheduler_saturated: bool,
}

impl<P: Protocol> Simulation<P> {
    /// Create a simulation over the given initial configuration.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two agents are supplied.
    pub fn new(protocol: P, states: Vec<P::State>, seed: u64) -> Self {
        assert!(
            states.len() >= 2,
            "population must contain at least two agents"
        );
        Self {
            protocol,
            states,
            rng: SimRng::seed_from_u64(seed),
            clock: Clock::default(),
            scheduler: None,
            adversary: None,
            forgery: Forgery::Random,
            starve_streak: 0,
            scheduler_saturated: false,
        }
    }

    /// Replace the uniform pair scheduler with an adversarial one. The
    /// uniform hot path is untouched when no scheduler is set, and
    /// [`SchedulerSpec::Uniform`] sets none.
    pub fn set_scheduler(&mut self, scheduler: SchedulerSpec) {
        self.scheduler = (scheduler != SchedulerSpec::Uniform).then_some(scheduler);
    }

    /// Install a Byzantine interaction adversary. The honest hot path is
    /// untouched (same RNG stream as [`run`](Self::run)) when none is set;
    /// a zero lying probability is treated as no adversary, so `byz:0`
    /// keeps RNG-identity on both engines.
    pub fn set_adversary(&mut self, adversary: AdversarySpec) {
        if adversary.lie_frac() > 0.0 {
            // A static forgery ignores the census, so this one call covers
            // both kinds; adaptive forgeries are then re-aimed at every
            // stride boundary.
            self.forgery = adversary.forgery(&self.opinion_census());
            self.adversary = Some(adversary);
        }
    }

    /// Number of agents.
    pub fn n(&self) -> usize {
        self.states.len()
    }

    /// Interactions executed so far.
    pub fn interactions(&self) -> u64 {
        self.clock.interactions
    }

    /// Parallel time: interactions divided by the population size, folded
    /// over population changes (churn) so the clock stays continuous.
    pub fn parallel_time(&self) -> f64 {
        self.clock.parallel_time(self.states.len() as u64)
    }

    /// The raw RNG state.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// The current configuration.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// The protocol instance (e.g. to read recorded milestones).
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Execute a single interaction, returning the chosen (initiator,
    /// responder) indices.
    #[inline]
    pub fn step(&mut self) -> (usize, usize) {
        let (i, j) = match self.scheduler {
            None => sample_pair(&mut self.rng, self.states.len()),
            Some(sched) => self.sample_pair_scheduled(sched),
        };
        match self.adversary {
            None => {
                let t = self.clock.interactions;
                let (a, b) = pair_mut(&mut self.states, i, j);
                self.protocol.interact(t, a, b, &mut self.rng);
            }
            Some(adv) => self.interact_byzantine(i, j, adv.lie_frac()),
        }
        self.clock.interactions += 1;
        (i, j)
    }

    /// One interaction under a Byzantine adversary: each participant
    /// independently lies with the adversary's probability. A liar shows a
    /// forged state to its partner and keeps its own state; the honest
    /// partner transitions against the forgery. Both lying makes the
    /// interaction a no-op (neither learns anything real). A protocol that
    /// cannot materialize the forgery (`fault_state` returns `None`)
    /// degrades that lie to honesty — adversaries degrade, never panic.
    fn interact_byzantine(&mut self, i: usize, j: usize, frac: f64) {
        let forgery = self.forgery;
        let lie = |protocol: &P, rng: &mut SimRng| -> Option<P::State> {
            rng.gen_bool(frac)
                .then(|| {
                    let forged = match forgery {
                        Forgery::Random => Replacement::Random,
                        Forgery::Opinion(op) => Replacement::Opinion(op),
                        // The polarizing forgery: each lie picks a side.
                        Forgery::Split(a, b) => {
                            Replacement::Opinion(if rng.gen_bool(0.5) { a } else { b })
                        }
                    };
                    protocol.fault_state(&forged, rng)
                })
                .flatten()
        };
        let a_forgery = lie(&self.protocol, &mut self.rng);
        let b_forgery = lie(&self.protocol, &mut self.rng);
        let t = self.clock.interactions;
        match (a_forgery, b_forgery) {
            (None, None) => {
                let (a, b) = pair_mut(&mut self.states, i, j);
                self.protocol.interact(t, a, b, &mut self.rng);
            }
            (Some(mut fake_a), None) => {
                // Initiator lies: only the responder's transition is real.
                self.protocol
                    .interact(t, &mut fake_a, &mut self.states[j], &mut self.rng);
            }
            (None, Some(mut fake_b)) => {
                self.protocol
                    .interact(t, &mut self.states[i], &mut fake_b, &mut self.rng);
            }
            (Some(_), Some(_)) => {}
        }
    }

    /// Re-aim an adaptive adversary's forgery at the live census. Called
    /// at every stride boundary — `O(n)` per `O(n)` interactions, so the
    /// hot loop is untouched. Draws no randomness, preserving the replay
    /// contract; a no-op for static adversaries.
    fn refresh_forgery(&mut self) {
        if let Some(adv) = self.adversary.filter(|a| a.adaptive()) {
            self.forgery = adv.forgery(&self.opinion_census());
        }
    }

    /// Biased pair draw: bounded rejection sampling against the
    /// scheduler's per-opinion participation weights, then (with the
    /// scheduler's assortativity probability) a bounded redraw forcing the
    /// responder to share the initiator's opinion. All retry loops cap at
    /// [`SCHEDULER_RETRIES`] and then accept whatever is in hand —
    /// adversarial weights degrade the bias, never livelock the engine.
    ///
    /// A weight-0 scheduler can veto *every* candidate (the starved
    /// opinion is the only one left). [`SCHEDULER_SATURATION_STREAK`]
    /// consecutive fully-exhausted retry loops flip the engine into
    /// saturated mode: pair selection degrades to uniform for the rest of
    /// the run and the result carries
    /// [`RunNote::SchedulerSaturated`].
    fn sample_pair_scheduled(&mut self, sched: SchedulerSpec) -> (usize, usize) {
        let n = self.states.len();
        if self.scheduler_saturated {
            return sample_pair(&mut self.rng, n);
        }
        let weight_of = |protocol: &P, state: &P::State| {
            sched
                .opinion_weight(protocol.opinion_of(state))
                .clamp(0.0, 1.0)
        };
        let (mut i, mut j) = sample_pair(&mut self.rng, n);
        let mut exhausted = true;
        for _ in 0..SCHEDULER_RETRIES {
            let w = weight_of(&self.protocol, &self.states[i]);
            if w >= 1.0 || (w > 0.0 && self.rng.gen_bool(w)) {
                exhausted = false;
                break;
            }
            (i, j) = sample_pair(&mut self.rng, n);
        }
        if exhausted {
            self.starve_streak += 1;
            if self.starve_streak >= SCHEDULER_SATURATION_STREAK {
                self.scheduler_saturated = true;
            }
        } else {
            self.starve_streak = 0;
        }
        let assort = sched.assortativity().clamp(0.0, 1.0);
        if assort > 0.0 && self.rng.gen_bool(assort) {
            // Like-with-like pairing: redraw the responder until it shares
            // the initiator's opinion (bounded).
            let want = self.protocol.opinion_of(&self.states[i]);
            for _ in 0..SCHEDULER_RETRIES {
                if j != i && self.protocol.opinion_of(&self.states[j]) == want {
                    break;
                }
                j = self.rng.gen_range(0..n);
            }
        } else {
            for _ in 0..SCHEDULER_RETRIES {
                let w = weight_of(&self.protocol, &self.states[j]);
                if w >= 1.0 || self.rng.gen_bool(w) {
                    break;
                }
                j = self.rng.gen_range(0..n);
            }
        }
        // The redraws above may have landed on the initiator; restore the
        // model's distinct-pair invariant unconditionally.
        while j == i {
            j = self.rng.gen_range(0..n);
        }
        (i, j)
    }

    /// Run until the protocol converges or the budget is exhausted.
    pub fn run(&mut self, opts: &RunOptions) -> RunResult {
        driver::run(self, opts, |_| {})
    }

    /// Like [`run`](Self::run), but additionally records every visited state
    /// (initial configuration plus both participants after each interaction)
    /// into `census`. Substantially slower; used by state-space experiments.
    pub fn run_with_census(&mut self, opts: &RunOptions, census: &mut Census) -> RunResult {
        for s in &self.states {
            census.record(self.protocol.encode(s));
        }
        loop {
            if let Some(output) = self.output() {
                return driver::finish(self, RunStatus::Converged, Some(output));
            }
            if self.clock.interactions >= opts.max_interactions {
                return driver::finish(self, RunStatus::Exhausted, None);
            }
            let steps = self
                .check_stride(opts)
                .min(opts.max_interactions - self.clock.interactions);
            self.refresh_forgery();
            for _ in 0..steps {
                let (i, j) = self.step();
                census.record(self.protocol.encode(&self.states[i]));
                census.record(self.protocol.encode(&self.states[j]));
            }
        }
    }

    /// Like [`run`](Self::run), with a sampling hook invoked before every
    /// convergence check; used to record time series.
    pub fn run_observed(
        &mut self,
        opts: &RunOptions,
        mut observe: impl FnMut(u64, &[P::State]),
    ) -> RunResult {
        driver::run(self, opts, |sim| {
            observe(sim.clock.interactions, &sim.states)
        })
    }

    /// Run under a list of faults: advance to each fault's parallel time,
    /// apply its strike to the live configuration, and keep running; after
    /// the last fault, run to convergence or budget as usual. Each strike
    /// opens a [`FaultRecord`](crate::FaultRecord) that is closed
    /// (recovery time + output) at the first convergence observed
    /// afterwards; a record still open when the next fault fires or the
    /// budget ends keeps a `NaN` recovery time.
    ///
    /// An empty list replays [`run`](Self::run) exactly — same RNG
    /// trajectory, same result.
    pub fn run_faulted(&mut self, opts: &RunOptions, faults: &[FaultSpec]) -> RunResult {
        driver::run_faulted(self, opts, faults)
    }

    /// Run under a steady-state churn process until `stop_at` parallel
    /// time: agents join (cloning a uniformly random state of `initial`)
    /// and leave at the process's Poisson rates, applied after every
    /// convergence-check stride, and a [`ChurnSample`](crate::ChurnSample)
    /// is recorded each time the clock crosses a multiple of the process's
    /// sampling period.
    ///
    /// Convergence does not stop a churned run — the point is measuring
    /// *how long* the run stays correct — so the result's status is
    /// [`RunStatus::Converged`] iff the predicate fires at `stop_at`, and
    /// the series carries the history. Strides are never truncated at
    /// `stop_at` (the run halts at the first stride boundary past it),
    /// which keeps checkpointed and uninterrupted runs on the same RNG
    /// trajectory.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty.
    pub fn run_churned(
        &mut self,
        opts: &RunOptions,
        churn: &ChurnProcess,
        initial: &[P::State],
        stop_at: f64,
    ) -> RunResult {
        assert!(!initial.is_empty(), "churn needs a join distribution");
        driver::run_churned(self, opts, churn, initial, stop_at)
    }

    /// Consume the simulation and return the protocol (for milestone
    /// extraction) together with the final configuration.
    pub fn into_parts(self) -> (P, Vec<P::State>) {
        (self.protocol, self.states)
    }

    /// The convergence-check stride: `converged` is an `O(n)` scan, so the
    /// hot loop must never rescan mid-stride. The default stride is the
    /// population size, which churn changes, so it is resolved per stride:
    /// a resumed run then picks the stride the uninterrupted run would have.
    fn check_stride(&self, opts: &RunOptions) -> u64 {
        if opts.check_every == 0 {
            self.n() as u64
        } else {
            opts.check_every
        }
    }

    /// Remove up to `leaves` agents from the opinion class the target
    /// selects (plurality leader / weakest minority), returning how many
    /// were actually removed. Victims are distinct members of the class,
    /// chosen by a partial Fisher–Yates shuffle over the member indices —
    /// one `O(n)` scan per stride, matching the census cost — and removed
    /// in descending index order so `swap_remove` never displaces a
    /// pending victim.
    fn remove_targeted(&mut self, target: ChurnTarget, leaves: u64) -> u64 {
        let census = self.opinion_census();
        let want = match target {
            ChurnTarget::Uniform => None,
            ChurnTarget::Plurality => census.leader(),
            ChurnTarget::Minority => census.weakest(),
        };
        // An opinion-free population degrades to uniform departures.
        let Some(want) = want else { return 0 };
        let mut members: Vec<usize> = (0..self.states.len())
            .filter(|&i| self.protocol.opinion_of(&self.states[i]) == Some(want))
            .collect();
        let k = (leaves as usize).min(members.len());
        for m in 0..k {
            let pick = self.rng.gen_range(m..members.len());
            members.swap(m, pick);
        }
        let mut victims = members;
        victims.truncate(k);
        victims.sort_unstable_by(|a, b| b.cmp(a));
        for v in victims {
            self.states.swap_remove(v);
        }
        k as u64
    }
}

impl<P: Protocol> Engine for Simulation<P> {
    type Config = [P::State];

    fn clock(&self) -> &Clock {
        &self.clock
    }

    fn population(&self) -> u64 {
        self.states.len() as u64
    }

    fn config(&self) -> &[P::State] {
        &self.states
    }

    /// One convergence-check stride of interactions, capped at `cap`.
    fn advance(&mut self, opts: &RunOptions, cap: u64) -> u64 {
        let steps = self.check_stride(opts).min(cap);
        self.refresh_forgery();
        for _ in 0..steps {
            self.step();
        }
        steps
    }

    fn output(&self) -> Option<u32> {
        self.protocol.converged(&self.states)
    }

    /// Apply one fault strike: every agent is hit independently with the
    /// fault's probability. [`Replacement::Rejoin`] restores the
    /// victim's initial state; the other kinds delegate to
    /// [`Protocol::fault_state`], and a protocol returning `None` leaves
    /// the victim untouched (faults degrade, never panic).
    fn strike(&mut self, initial: &[P::State], fault: FaultSpec) {
        let (frac, replacement) = fault.strike();
        if frac <= 0.0 {
            return;
        }
        let Self {
            protocol,
            states,
            rng,
            ..
        } = self;
        for (state, init) in states.iter_mut().zip(initial) {
            if !rng.gen_bool(frac) {
                continue;
            }
            match replacement {
                Replacement::Rejoin => *state = init.clone(),
                r => {
                    if let Some(s) = protocol.fault_state(&r, rng) {
                        *state = s;
                    }
                }
            }
        }
    }

    /// Poisson join/leave events covering a stride of `len` interactions.
    /// The clock folds before the population changes so parallel time
    /// stays continuous; leaves are capped to keep at least two agents.
    ///
    /// Uniform-target departures keep the exact RNG draw sequence from
    /// before targeting existed; targeted departures hit the census-chosen
    /// opinion class first and fall back to uniform removals once (or if)
    /// the class runs dry.
    fn apply_churn_events(&mut self, churn: &ChurnProcess, initial: &[P::State], len: u64) {
        let (joins, leaves) = churn.draw_events(&mut self.rng, len);
        let leaves = leaves.min(self.states.len() as u64 - 2);
        if joins == 0 && leaves == 0 {
            return;
        }
        self.clock.fold(self.states.len() as u64);
        let targeted = match churn.target() {
            ChurnTarget::Uniform => 0,
            target => self.remove_targeted(target, leaves),
        };
        for _ in 0..leaves - targeted {
            let victim = self.rng.gen_range(0..self.states.len());
            self.states.swap_remove(victim);
        }
        for _ in 0..joins {
            let donor = self.rng.gen_range(0..initial.len());
            self.states.push(initial[donor].clone());
        }
    }

    /// The live opinion tally, for adaptive forgeries and targeted churn.
    fn opinion_census(&self) -> OpinionCensus {
        let mut tally: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for s in &self.states {
            if let Some(op) = self.protocol.opinion_of(s) {
                *tally.entry(op).or_insert(0) += 1;
            }
        }
        OpinionCensus::from_tallies(tally)
    }

    fn scheduler_saturated(&self) -> bool {
        self.scheduler_saturated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts pair sums; converges when every agent saw at least one
    /// interaction (state > 0).
    struct Touch;
    impl Protocol for Touch {
        type State = u32;
        fn interact(&mut self, _t: u64, a: &mut u32, b: &mut u32, _rng: &mut SimRng) {
            *a += 1;
            *b += 1;
        }
        fn converged(&self, states: &[u32]) -> Option<u32> {
            states.iter().all(|&s| s > 0).then_some(0)
        }
        fn encode(&self, state: &u32) -> u64 {
            u64::from((*state).min(3))
        }
    }

    #[test]
    fn runs_until_everyone_touched() {
        let mut sim = Simulation::new(Touch, vec![0u32; 64], 1);
        let result = sim.run(&RunOptions::default());
        assert_eq!(result.status, RunStatus::Converged);
        // Coupon collector: needs at least n/2 interactions.
        assert!(result.interactions >= 32);
    }

    #[test]
    fn budget_is_respected() {
        let mut sim = Simulation::new(Touch, vec![0u32; 1000], 1);
        let result = sim.run(&RunOptions {
            max_interactions: 10,
            check_every: 0,
        });
        assert_eq!(result.status, RunStatus::Exhausted);
        assert_eq!(result.interactions, 10);
    }

    #[test]
    fn same_seed_same_trajectory() {
        let run = |seed| {
            let mut sim = Simulation::new(Touch, vec![0u32; 128], seed);
            sim.run(&RunOptions::default()).interactions
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn census_counts_distinct_states() {
        let mut sim = Simulation::new(Touch, vec![0u32; 32], 5);
        let mut census = Census::new();
        sim.run_with_census(&RunOptions::default(), &mut census);
        // Encodings are clamped to 0..=3.
        assert!(
            census.len() >= 2 && census.len() <= 4,
            "census = {}",
            census.len()
        );
    }

    #[test]
    fn interactions_counter_matches_steps() {
        let mut sim = Simulation::new(Touch, vec![0u32; 8], 2);
        for _ in 0..17 {
            sim.step();
        }
        assert_eq!(sim.interactions(), 17);
        assert!((sim.parallel_time() - 17.0 / 8.0).abs() < 1e-12);
    }
}
