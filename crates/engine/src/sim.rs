//! The sequential scheduler.

use rand::{Rng, SeedableRng};

use crate::census::Census;
use crate::driver::{self, Clock, Engine};
use crate::fault::{
    AdversarySpec, FaultSpec, Forgery, OpinionCensus, Replacement, SchedulerSpec,
    SCHEDULER_RETRIES, SCHEDULER_SATURATION_STREAK,
};
use crate::pair::{pair_mut, sample_pair};
use crate::protocol::{Protocol, SimRng, UNCLASSED};
use crate::result::{RunOptions, RunResult, RunStatus};

/// A single simulation instance: a protocol, a configuration (one state per
/// agent) and a scheduler RNG.
#[derive(Debug)]
pub struct Simulation<P: Protocol> {
    protocol: P,
    states: Vec<P::State>,
    /// One cached [`Protocol::class`] per agent when the protocol opts in
    /// ([`Protocol::CLASSED`]), else empty. Each entry is [`UNCLASSED`]
    /// or the class of the agent's current state: it starts `UNCLASSED`,
    /// is refreshed after every transition that may write the agent, and
    /// is reset when a fault strikes it.
    classes: Vec<u8>,
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
        // A memset: classing every agent here would cost more than the
        // pairs it saves, and an unclassed agent is classed by its first
        // transition.
        let classes = if P::CLASSED {
            vec![UNCLASSED; states.len()]
        } else {
            Vec::new()
        };
        Self {
            protocol,
            states,
            classes,
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

    /// Parallel time: interactions divided by the population size.
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
        if self.is_uniform() {
            return self.step_uniform();
        }
        let (i, j) = match self.scheduler {
            None => sample_pair(&mut self.rng, self.states.len()),
            Some(sched) => self.sample_pair_scheduled(sched),
        };
        match self.adversary {
            None => self.interact_honest(i, j),
            Some(adv) => self.interact_byzantine(i, j, adv.lie_frac()),
        }
        self.clock.interactions += 1;
        (i, j)
    }

    /// Whether the model is the plain uniform one: no scheduler and no
    /// adversary installed.
    fn is_uniform(&self) -> bool {
        self.scheduler.is_none() && self.adversary.is_none()
    }

    /// One interaction of the uniform model: a uniform pair and an honest
    /// transition. While [`is_uniform`](Self::is_uniform) holds, it is
    /// all that [`step`](Self::step) does and all that the stride loop of
    /// [`advance`](Engine::advance) runs.
    #[inline(always)]
    fn step_uniform(&mut self) -> (usize, usize) {
        let (i, j) = sample_pair(&mut self.rng, self.states.len());
        self.interact_honest(i, j);
        self.clock.interactions += 1;
        (i, j)
    }

    /// The protocol's transition of initiator `i` and responder `j`. A
    /// protocol that opts into classes skips a quiet pair on the two
    /// cached class bytes alone, without reading either agent, and
    /// re-classes both agents after a transition.
    #[inline(always)]
    fn interact_honest(&mut self, i: usize, j: usize) {
        if P::CLASSED {
            debug_assert!(
                self.class_is_fresh(i) && self.class_is_fresh(j),
                "a cached class is stale"
            );
            if self.protocol.quiet(self.classes[i], self.classes[j]) {
                return;
            }
        }
        let t = self.clock.interactions;
        let (a, b) = pair_mut(&mut self.states, i, j);
        self.protocol.interact(t, a, b, &mut self.rng);
        if P::CLASSED {
            self.classes[i] = self.protocol.class(a);
            self.classes[j] = self.protocol.class(b);
        }
    }

    /// Refresh agent `i`'s cached class after a transition that may have
    /// written it.
    fn reclass(&mut self, i: usize) {
        if P::CLASSED {
            self.classes[i] = self.protocol.class(&self.states[i]);
        }
    }

    /// Whether agent `i`'s cached class is [`UNCLASSED`] or the class of
    /// its state: the cache may be conservative but never stale.
    fn class_is_fresh(&self, i: usize) -> bool {
        let cached = self.classes[i];
        cached == UNCLASSED || cached == self.protocol.class(&self.states[i])
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
            (None, None) => self.interact_honest(i, j),
            (Some(mut fake_a), None) => {
                // Initiator lies: only the responder's transition is real.
                self.protocol
                    .interact(t, &mut fake_a, &mut self.states[j], &mut self.rng);
                self.reclass(j);
            }
            (None, Some(mut fake_b)) => {
                self.protocol
                    .interact(t, &mut self.states[i], &mut fake_b, &mut self.rng);
                self.reclass(i);
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
        let weight_of =
            |protocol: &P, state: &P::State| sched.opinion_weight(protocol.opinion_of(state));
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
        let assort = sched.assortativity();
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

    /// The convergence-check stride: `converged` is an `O(n)` scan, so the
    /// hot loop must never rescan mid-stride. The default stride is the
    /// population size.
    fn check_stride(&self, opts: &RunOptions) -> u64 {
        if opts.check_every == 0 {
            self.n() as u64
        } else {
            opts.check_every
        }
    }

    /// The live opinion tally, for adaptive forgeries.
    fn opinion_census(&self) -> OpinionCensus {
        let mut tally: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for s in &self.states {
            if let Some(op) = self.protocol.opinion_of(s) {
                *tally.entry(op).or_insert(0) += 1;
            }
        }
        OpinionCensus::from_tallies(tally)
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
    /// The uniform model runs the stride as one tight loop of
    /// [`step_uniform`](Simulation::step_uniform).
    fn advance(&mut self, opts: &RunOptions, cap: u64) -> u64 {
        let steps = self.check_stride(opts).min(cap);
        if self.is_uniform() {
            for _ in 0..steps {
                self.step_uniform();
            }
        } else {
            self.refresh_forgery();
            for _ in 0..steps {
                self.step();
            }
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
    /// the victim untouched (faults degrade, never panic). Each victim's
    /// cached class becomes [`UNCLASSED`].
    fn strike(&mut self, initial: &[P::State], fault: FaultSpec) {
        let (frac, replacement) = fault.strike();
        if frac <= 0.0 {
            return;
        }
        let Self {
            protocol,
            states,
            classes,
            rng,
            ..
        } = self;
        for (i, (state, init)) in states.iter_mut().zip(initial).enumerate() {
            if !rng.gen_bool(frac) {
                continue;
            }
            if P::CLASSED {
                classes[i] = UNCLASSED;
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

    /// A toy protocol that opts into classes, for the cache contract.
    /// Each agent holds one of four colours, which is its class; equal
    /// colours are quiet. Otherwise the initiator draws a word and paints
    /// the responder, takes its colour, or does nothing. Faults and
    /// forgeries produce colour 3, which no initial agent holds, so a
    /// struck agent and the real side of a one-sided lie change class.
    /// `SKIP = false` runs the same transitions with the skip off.
    #[derive(Debug, Default)]
    struct Paint<const SKIP: bool> {
        /// How often the engine called `interact`: instrumentation of
        /// the skip, not an output of the protocol.
        calls: u64,
    }

    impl<const SKIP: bool> Protocol for Paint<SKIP> {
        type State = u8;
        const CLASSED: bool = SKIP;
        fn interact(&mut self, _t: u64, a: &mut u8, b: &mut u8, rng: &mut SimRng) {
            self.calls += 1;
            if a == b {
                return;
            }
            match rng.gen_range(0..4) {
                0 => *b = *a,
                1 => *a = *b,
                _ => {}
            }
        }
        fn converged(&self, states: &[u8]) -> Option<u32> {
            let first = states[0];
            states.iter().all(|&s| s == first).then_some(first.into())
        }
        fn class(&self, state: &u8) -> u8 {
            *state
        }
        fn quiet(&self, a: u8, b: u8) -> bool {
            a == b && a != UNCLASSED
        }
        fn fault_state(&self, replacement: &Replacement, _rng: &mut SimRng) -> Option<u8> {
            (*replacement != Replacement::Rejoin).then_some(3)
        }
        fn opinion_of(&self, state: &u8) -> Option<u32> {
            Some((*state).into())
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum PaintMode {
        Clean,
        Scheduler(&'static str),
        Adversary(&'static str),
        Faults(&'static str),
    }

    /// One run of [`Paint`] in `mode`: its result and final states, RNG
    /// state and interaction count, then the `interact` calls.
    fn paint_run<const SKIP: bool>(mode: PaintMode) -> ((String, Vec<u8>, [u64; 4], u64), u64) {
        let states = (0..60).map(|i| i % 3).collect();
        let mut sim = Simulation::new(Paint::<SKIP>::default(), states, 3);
        let opts = RunOptions::with_parallel_time_budget(60, 200.0);
        let r = match mode {
            PaintMode::Clean => sim.run(&opts),
            PaintMode::Scheduler(spec) => {
                sim.set_scheduler(spec.parse().expect("scheduler parses"));
                sim.run(&opts)
            }
            PaintMode::Adversary(spec) => {
                sim.set_adversary(spec.parse().expect("adversary parses"));
                sim.run(&opts)
            }
            PaintMode::Faults(spec) => {
                sim.run_faulted(&opts, &FaultSpec::parse_list(spec).expect("faults parse"))
            }
        };
        let end = (
            format!("{r:?}"),
            sim.states().to_vec(),
            sim.rng_state(),
            sim.interactions(),
        );
        (end, sim.protocol().calls)
    }

    /// The class cache is conservative but never stale: a run that skips
    /// quiet pairs ends exactly as the same transitions run with the skip
    /// off, in every mode that writes an agent outside a plain transition
    /// (one-sided lies, strikes) or draws pairs another way, and it does
    /// skip pairs.
    #[test]
    fn quiet_skip_replays_the_unskipped_run() {
        let modes = [
            PaintMode::Clean,
            PaintMode::Scheduler("pairbias:0.3"),
            PaintMode::Scheduler("starve:1:0.5"),
            PaintMode::Adversary("byz:0.05"),
            PaintMode::Adversary("adaptive:0.05"),
            PaintMode::Faults("corrupt@20:0.2,churn@40:0.2,inject@60:0.2:1"),
        ];
        for mode in modes {
            let (skipped, skipped_calls) = paint_run::<true>(mode);
            let (full, full_calls) = paint_run::<false>(mode);
            assert_eq!(skipped, full, "{mode:?}: the skip moved the run");
            assert!(
                skipped_calls < full_calls,
                "{mode:?}: no pair skipped ({skipped_calls} of {full_calls} calls)"
            );
        }
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
