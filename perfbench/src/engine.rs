//! The batch-engine workloads, `majority-1e8` and `usd-k64`.
//!
//! A run constructs the engine a few times (`setup_s`), checks that a
//! fixed-seed prefix gives the same trajectory at 1 thread and at the
//! default thread count, then runs jobs back to back until the window
//! closes. A job is one seeded `BatchSimulation` driven by `step_batch`,
//! either to exact consensus or to a fixed interaction budget. Every
//! `step_batch` call is timed, and the rate and latency metrics are
//! medians over slices of `slice_batches` batches.
//!
//! The traced run first runs job 0 untraced as a reference, then runs the
//! jobs again while replaying every [`REPLAY_EVERY`]th batch's phases on
//! the live configuration with the engine's public primitives and an RNG
//! of its own. The replay never touches the simulation, so the traced
//! job 0 must end byte-identical to the reference.

use std::hint::black_box;
use std::time::Instant;

use pp_engine::batch::birthday::draw_batch_len;
use pp_engine::batch::multinomial::multinomial_into;
use pp_engine::rng::derive;
use pp_engine::{BatchSimulation, RunOptions, ShardedFenwick, SimRng, TableProtocol};
use rand::SeedableRng;

use crate::report::{mean, median, Report, Slices};
use crate::Ctx;

/// Replay one batch in this many in the traced run.
const REPLAY_EVERY: u64 = 32;

/// Each replayed phase that costs tens of nanoseconds runs this many
/// times per replay, so the clock's own cost does not dominate it.
const REPS: u32 = 8;

/// The engine resolves an initiator's responders one Fenwick draw at a
/// time when its multiplicity is at most `max(8, occupied states)`, and
/// through a responder multinomial above that. The floor is private to
/// the engine; the replay mirrors it.
const SPLIT_FLOOR: u64 = 8;

/// What a job must reach.
#[derive(Debug, Clone, Copy)]
pub enum Goal {
    /// Exact consensus on `expect` within `max_interactions`.
    Consensus { expect: u32, max_interactions: u64 },
    /// Exactly `interactions` interactions, without converging.
    Budget { interactions: u64 },
}

/// One batch-engine workload.
#[derive(Debug, Clone)]
pub struct Workload<P> {
    pub protocol: P,
    pub counts: Vec<u64>,
    pub goal: Goal,
    /// Batches in the thread-invariance prefix.
    pub gate_batches: u64,
    /// Batches per slice.
    pub slice_batches: usize,
}

/// How one job ended.
#[derive(Debug, PartialEq)]
struct End {
    counts: Vec<u64>,
    rng: [u64; 4],
    interactions: u64,
    output: Option<u32>,
}

/// One job's measurements.
struct JobOut {
    wall: f64,
    batches: u64,
    /// Summed `step_batch` time (µs).
    step_us: f64,
    end: End,
}

impl<P: TableProtocol + Clone> Workload<P> {
    fn n(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn sim(&self, seed: u64, threads: usize) -> BatchSimulation<P> {
        let mut sim = BatchSimulation::new(self.protocol.clone(), self.counts.clone(), seed);
        sim.set_threads(threads);
        sim
    }

    /// Run the workload for the window and fill `rep`.
    pub fn run(&self, ctx: &Ctx, rep: &mut Report) {
        let threads = ctx.threads;
        rep.note(format!(
            "engine: n = {}, states = {}, threads = {threads}, goal = {:?}",
            self.n(),
            self.counts.len(),
            self.goal
        ));

        // Set-up: construction plus the first batch, which spawns the
        // tally pool at threads > 1.
        let mut setups = Vec::new();
        for i in 0..ctx.setup_reps {
            let (protocol, counts) = (self.protocol.clone(), self.counts.clone());
            let t = Instant::now();
            let mut sim = BatchSimulation::new(protocol, counts, derive(ctx.seed, i));
            sim.set_threads(threads);
            sim.step_batch();
            setups.push(t.elapsed().as_secs_f64());
            drop(black_box(sim));
        }
        rep.set("setup_s", median(&setups));

        // Thread invariance on a fixed-seed prefix, timed per batch at
        // both thread counts (the same batches, since the trajectories
        // are identical).
        let (t1, e1) = self.prefix(derive(ctx.seed, 0), 1);
        let (tn, en) = self.prefix(derive(ctx.seed, 0), threads);
        rep.check(e1 == en, || {
            format!(
                "prefix of {} batches differs between 1 and {threads} threads",
                self.gate_batches
            )
        });

        let window = Instant::now();
        let mut replay = ctx
            .traced
            .then(|| Replay::new(derive(ctx.seed, u64::from(u32::MAX))));
        let reference = ctx
            .traced
            .then(|| self.job(derive(ctx.seed, 0), threads, &mut Slices::default(), None));
        let mut slices = Slices::default();
        let mut jobs: Vec<JobOut> = Vec::new();
        loop {
            let i = jobs.len() as u64;
            if i > 0 {
                let walls: Vec<f64> = jobs.iter().map(|j| j.wall).collect();
                let left = ctx.seconds - window.elapsed().as_secs_f64();
                if left < median(&walls) {
                    break;
                }
            }
            let out = self.job(derive(ctx.seed, i), threads, &mut slices, replay.as_mut());
            self.judge(&out.end, ctx, rep);
            jobs.push(out);
        }

        let walls: Vec<f64> = jobs.iter().map(|j| j.wall).collect();
        let interactions: u64 = jobs.iter().map(|j| j.end.interactions).sum();
        let batches: u64 = jobs.iter().map(|j| j.batches).sum();
        rep.note(format!(
            "jobs: {} in {:.2}s, {interactions} interactions, {batches} batches, {} slices, \
             walls {walls:.3?}",
            jobs.len(),
            walls.iter().sum::<f64>(),
            slices.len(),
        ));
        rep.set("sim_rate", slices.rate());
        rep.set("solve_s", median(&walls));
        rep.set("latency_p50_us", slices.p50());
        rep.set("latency_p95_us", slices.p95());

        let (Some(replay), Some(reference)) = (replay, reference) else {
            return;
        };
        rep.check(reference.end == jobs[0].end, || {
            "traced job 0 did not end byte-identical to the untraced one".to_string()
        });
        rep.set("trace.overhead", jobs[0].wall / reference.wall - 1.0);
        rep.set("batch.count", batches as f64 / jobs.len() as f64);
        rep.set("batch.len_mean", interactions as f64 / batches as f64);
        rep.set("batch.step_us_p50", slices.p50());
        rep.set("batch.step_us_p99", slices.p99());
        rep.set("batch.step_us_t1_p50", median(&t1));
        rep.set("batch.thread_speedup", median(&t1) / median(&tn));
        let step_us = jobs.iter().map(|j| j.step_us).sum::<f64>() / batches as f64;
        rep.set(
            "batch.replay_cover_t1",
            replay.phase_sum() / 1e3 / mean(&t1),
        );
        rep.set("batch.replay_cover_tn", replay.phase_sum() / 1e3 / step_us);
        replay.report(rep);
    }

    /// `gate_batches` batches from `seed`, each timed in microseconds.
    fn prefix(&self, seed: u64, threads: usize) -> (Vec<f64>, End) {
        let mut sim = self.sim(seed, threads);
        let mut times = Vec::with_capacity(self.gate_batches as usize);
        for _ in 0..self.gate_batches {
            let t = Instant::now();
            sim.step_batch();
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
        (times, end(&sim))
    }

    /// One job from `seed`, its batches cut into `slices`.
    fn job(
        &self,
        seed: u64,
        threads: usize,
        slices: &mut Slices,
        mut replay: Option<&mut Replay>,
    ) -> JobOut {
        let mut sim = self.sim(seed, threads);
        // The last few batches of a budget job go through `run`, which
        // truncates the final batch to land exactly on the budget. No
        // batch comes near this margin (lengths concentrate at √n).
        let margin = 16 * (self.n() as f64).sqrt() as u64;
        let mut lat = Vec::with_capacity(self.slice_batches);
        let mut step_us = 0.0;
        let t = Instant::now();
        let mut slice = (t, 0u64);
        let mut b = 0u64;
        loop {
            match self.goal {
                Goal::Consensus {
                    max_interactions, ..
                } => {
                    if sim.protocol().output(sim.counts()).is_some()
                        || sim.interactions() >= max_interactions
                    {
                        break;
                    }
                }
                Goal::Budget { interactions } => {
                    if interactions.saturating_sub(sim.interactions()) <= margin {
                        sim.run(&RunOptions {
                            max_interactions: interactions,
                            check_every: 0,
                        });
                        break;
                    }
                }
            }
            if let Some(r) = replay.as_deref_mut() {
                if b.is_multiple_of(REPLAY_EVERY) {
                    r.replay(sim.protocol(), sim.counts(), threads);
                }
            }
            let ts = Instant::now();
            sim.step_batch();
            let te = Instant::now();
            let us = (te - ts).as_secs_f64() * 1e6;
            lat.push(us);
            step_us += us;
            if lat.len() == self.slice_batches {
                let work = (sim.interactions() - slice.1) as f64;
                slices.close(&mut lat, work, (te - slice.0).as_secs_f64());
                slice = (te, sim.interactions());
            }
            b += 1;
        }
        JobOut {
            wall: t.elapsed().as_secs_f64(),
            batches: sim.batches(),
            step_us,
            end: end(&sim),
        }
    }

    /// The correctness gate for one job.
    fn judge(&self, end: &End, ctx: &Ctx, rep: &mut Report) {
        rep.attempted += 1;
        let population: u64 = end.counts.iter().sum();
        rep.check(population == self.n(), || {
            format!("population {population} is not the initial {}", self.n())
        });
        let ok = match self.goal {
            Goal::Consensus { expect, .. } => {
                let expect = if ctx.plant_wrong { expect + 1 } else { expect };
                end.output == Some(expect)
            }
            Goal::Budget { interactions } => {
                let want = interactions + u64::from(ctx.plant_wrong);
                end.interactions == want && end.output.is_none()
            }
        };
        if !ok {
            rep.failed += 1;
            rep.violation(format!(
                "job ended at {} interactions with output {:?}, not the expected answer",
                end.interactions, end.output
            ));
        }
    }
}

fn end<P: TableProtocol>(sim: &BatchSimulation<P>) -> End {
    End {
        counts: sim.counts().to_vec(),
        rng: sim.rng_state(),
        interactions: sim.interactions(),
        output: sim.protocol().output(sim.counts()),
    }
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Per-phase sums over every replayed batch.
#[derive(Debug, Default)]
struct Sums {
    replays: f64,
    occupied: f64,
    draw_ns: f64,
    root_ns: f64,
    responder_ns: f64,
    sample_ns: f64,
    samples: f64,
    add_ns: f64,
    adds: f64,
    rebuild_ns: f64,
    cells: f64,
    delta_ns: f64,
    null_mass: f64,
    mass: f64,
    output_ns: f64,
}

/// Replays one batch's phases with the engine's public primitives: the
/// batch-length draw, the root split over initiators, responder
/// resolution (multinomial or Fenwick draws, by the engine's rule), the
/// per-cell transitions, the Fenwick updates of a feasible tally, the
/// output predicate and a full census rebuild.
struct Replay {
    rng: SimRng,
    initiators: Vec<(usize, u64)>,
    responders: Vec<(usize, u64)>,
    cells: Vec<(usize, usize, u64)>,
    delta: Vec<i64>,
    usage: Vec<u64>,
    sums: Sums,
}

impl Replay {
    fn new(seed: u64) -> Self {
        Self {
            rng: SimRng::seed_from_u64(seed),
            initiators: Vec::new(),
            responders: Vec::new(),
            cells: Vec::new(),
            delta: Vec::new(),
            usage: Vec::new(),
            sums: Sums::default(),
        }
    }

    fn replay<P: TableProtocol>(&mut self, protocol: &P, counts: &[u64], threads: usize) {
        let reps = f64::from(REPS);
        let n: u64 = counts.iter().sum();
        let s = &mut self.sums;
        let rng = &mut self.rng;
        s.replays += 1.0;

        let t = Instant::now();
        let mut len = 0;
        for _ in 0..REPS {
            len = black_box(draw_batch_len(rng, black_box(n)));
        }
        s.draw_ns += ns(t) / reps;

        let t = Instant::now();
        for _ in 0..REPS {
            self.initiators.clear();
            multinomial_into(rng, len, black_box(counts), n, &mut self.initiators);
        }
        s.root_ns += ns(t) / reps;

        let occupied = counts.iter().filter(|&&c| c > 0).count() as u64;
        s.occupied += occupied as f64;
        let threshold = SPLIT_FLOOR.max(occupied);
        let mut tree = ShardedFenwick::from_weights(counts);
        self.cells.clear();
        for &(a, m) in &self.initiators {
            if m <= threshold {
                let t = Instant::now();
                for _ in 0..m {
                    self.cells.push((a, tree.sample(rng), 1));
                }
                s.sample_ns += ns(t);
                s.samples += m as f64;
            } else {
                let t = Instant::now();
                self.responders.clear();
                multinomial_into(rng, m, counts, n, &mut self.responders);
                s.responder_ns += ns(t);
                self.cells
                    .extend(self.responders.iter().map(|&(b, mb)| (a, b, mb)));
            }
        }
        s.cells += self.cells.len() as f64;
        s.mass += self.cells.iter().map(|c| c.2 as f64).sum::<f64>();

        // Deterministic tables evaluate each distinct pair once, the
        // others once per interaction, as the engine does.
        let deterministic = protocol.is_deterministic();
        let t = Instant::now();
        for r in 0..REPS {
            self.delta.clear();
            self.delta.resize(counts.len(), 0);
            self.usage.clear();
            self.usage.resize(counts.len(), 0);
            let mut null = 0u64;
            for &(a, b, m) in &self.cells {
                self.usage[a] += m;
                self.usage[b] += m;
                let (evals, per) = if deterministic { (1, m) } else { (m, 1) };
                for _ in 0..evals {
                    let (a2, b2) = protocol.delta(a, b, rng);
                    if (a2, b2) == (a, b) {
                        null += per;
                        continue;
                    }
                    let d = per as i64;
                    self.delta[a] -= d;
                    self.delta[b] -= d;
                    self.delta[a2] += d;
                    self.delta[b2] += d;
                }
            }
            if r == 0 {
                s.null_mass += null as f64;
            }
        }
        s.delta_ns += ns(t) / reps;

        // Only a feasible tally reaches the census; the engine redraws the
        // rest. Each update is applied and undone, so the tree still
        // mirrors `counts` for the rebuild below.
        let feasible = counts.iter().zip(&self.usage).all(|(&c, &u)| u <= c);
        let changed: Vec<(usize, i64)> = self
            .delta
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != 0)
            .map(|(st, &d)| (st, d))
            .collect();
        if feasible && !changed.is_empty() {
            let t = Instant::now();
            for _ in 0..REPS {
                for &(st, d) in &changed {
                    tree.add(st, d);
                }
                for &(st, d) in &changed {
                    tree.add(st, -d);
                }
            }
            s.add_ns += ns(t) / (2.0 * reps);
            s.adds += changed.len() as f64;
        }

        let t = Instant::now();
        for _ in 0..REPS {
            black_box(protocol.output(black_box(counts)));
        }
        s.output_ns += ns(t) / reps;

        let t = Instant::now();
        tree.rebuild(counts, threads);
        s.rebuild_ns += ns(t);
        black_box(&tree);
    }

    /// Mean replayed phase time per batch (ns): everything but the
    /// rebuild, which a batch does not do.
    fn phase_sum(&self) -> f64 {
        let s = &self.sums;
        (s.draw_ns + s.root_ns + s.responder_ns + s.sample_ns + s.delta_ns + s.add_ns + s.output_ns)
            / s.replays.max(1.0)
    }

    fn report(&self, rep: &mut Report) {
        let s = &self.sums;
        let per = |x: f64| x / s.replays.max(1.0);
        rep.note(format!("replayed batches: {}", s.replays));
        rep.set("batch.occupied_mean", per(s.occupied));
        rep.set("birthday.draw_ns", per(s.draw_ns));
        rep.set("multinomial.root_ns", per(s.root_ns));
        rep.set("multinomial.responder_ns", per(s.responder_ns));
        rep.set("fenwick.sample_ns", s.sample_ns / s.samples.max(1.0));
        rep.set("fenwick.samples_per_batch", per(s.samples));
        rep.set("fenwick.add_ns", s.add_ns / s.adds.max(1.0));
        rep.set("fenwick.adds_per_batch", per(s.adds));
        rep.set("fenwick.rebuild_us", per(s.rebuild_ns) / 1e3);
        rep.set("tally.cells_per_batch", per(s.cells));
        rep.set("tally.delta_ns", per(s.delta_ns));
        rep.set("tally.null_mass_frac", s.null_mass / s.mass.max(1.0));
        rep.set("output.ns", per(s.output_ns));
    }
}
