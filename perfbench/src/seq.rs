//! The `paper-improved` workload: the paper's `ImprovedAlgorithm` on the
//! sequential `Simulation`, the only engine it runs on.
//!
//! Trials run back to back until the window closes, each to exact
//! consensus within x01's budget of `4e3·k + 2e4` parallel time. A trial
//! goes through `Simulation::run_observed`, whose hook fires once per
//! convergence-check stride of `n` interactions; the time between two
//! hooks is one stride plus one `Protocol::converged` call. Each trial is
//! one slice for the rate and latency metrics.
//!
//! The traced run times `converged` from outside by calling it on the
//! live states through a second protocol instance built from the same
//! input (the predicate reads only the states), and subtracts it from the
//! stride times to get the cost per interaction.

use std::hint::black_box;
use std::time::Instant;

use plurality_core::{ImprovedAlgorithm, Tuning};
use pp_engine::rng::derive;
use pp_engine::{Protocol, RunOptions, RunStatus, Simulation};
use pp_workloads::Counts;

use crate::report::{mean, median, Report, Slices};
use crate::Ctx;

/// The workload's input and budget.
#[derive(Debug, Clone)]
pub struct Paper {
    pub counts: Counts,
    /// Parallel-time budget per trial.
    pub budget: f64,
}

/// One trial's measurements.
struct Trial {
    wall: f64,
    interactions: u64,
    checks: u64,
    /// Stride times (µs), hook to hook.
    strides: Vec<f64>,
    /// Outside-timed `converged` calls (ns); traced trials only.
    check_ns: Vec<f64>,
    end: (
        RunStatus,
        Option<u32>,
        [u64; 4],
        Vec<plurality_core::roles::Agent>,
    ),
}

impl Paper {
    /// Run the workload for the window and fill `rep`.
    pub fn run(&self, ctx: &Ctx, rep: &mut Report) {
        let assignment = self.counts.assignment();
        let n = assignment.n();
        rep.note(format!(
            "sequential: n = {n}, k = {}, supports = {:?}, budget = {} parallel time",
            assignment.k(),
            self.counts.supports(),
            self.budget
        ));

        let mut setups = Vec::new();
        for i in 0..ctx.setup_reps {
            let t = Instant::now();
            let (protocol, states) = ImprovedAlgorithm::new(&assignment, Tuning::default());
            let mut sim = Simulation::new(protocol, states, derive(ctx.seed, i));
            sim.step();
            setups.push(t.elapsed().as_secs_f64());
            drop(black_box(sim));
        }
        rep.set("setup_s", median(&setups));

        let window = Instant::now();
        let reference = ctx.traced.then(|| self.trial(derive(ctx.seed, 0), false));
        let mut trials: Vec<Trial> = Vec::new();
        loop {
            let i = trials.len() as u64;
            if i > 0 {
                let walls: Vec<f64> = trials.iter().map(|t| t.wall).collect();
                if ctx.seconds - window.elapsed().as_secs_f64() < median(&walls) {
                    break;
                }
            }
            let trial = self.trial(derive(ctx.seed, i), ctx.traced);
            rep.attempted += 1;
            let expect = assignment.plurality() + u32::from(ctx.plant_wrong);
            let (status, output, _, _) = &trial.end;
            if *status != RunStatus::Converged || *output != Some(expect) {
                rep.failed += 1;
                rep.violation(format!(
                    "trial {i} ended {status:?} with output {output:?}, expected Some({expect})"
                ));
            }
            trials.push(trial);
        }

        let walls: Vec<f64> = trials.iter().map(|t| t.wall).collect();
        let interactions: u64 = trials.iter().map(|t| t.interactions).sum();
        let strides: Vec<f64> = trials.iter().flat_map(|t| t.strides.clone()).collect();
        let mut slices = Slices::default();
        for t in &trials {
            slices.close(&mut t.strides.clone(), t.interactions as f64, t.wall);
        }
        rep.note(format!(
            "trials: {} in {:.2}s, {interactions} interactions, walls {walls:.3?}",
            trials.len(),
            walls.iter().sum::<f64>()
        ));
        rep.set("sim_rate", slices.rate());
        rep.set("solve_s", median(&walls));
        rep.set("latency_p50_us", slices.p50());
        rep.set("latency_p95_us", slices.p95());

        let Some(reference) = reference else {
            return;
        };
        rep.check(reference.end == trials[0].end, || {
            "traced trial 0 did not end byte-identical to the untraced one".to_string()
        });
        rep.set("trace.overhead", trials[0].wall / reference.wall - 1.0);
        let check_ns: Vec<f64> = trials.iter().flat_map(|t| t.check_ns.clone()).collect();
        let checks: u64 = trials.iter().map(|t| t.checks).sum();
        // Each stride holds one in-run `converged` call besides its steps.
        let step_ns = (strides.iter().sum::<f64>() * 1e3 - strides.len() as f64 * mean(&check_ns))
            / (strides.len() * n) as f64;
        rep.set("seq.step_ns", step_ns);
        rep.set("seq.check_us", median(&check_ns) / 1e3);
        rep.set("seq.checks", checks as f64 / trials.len() as f64);
        rep.set(
            "seq.check_share",
            checks as f64 * mean(&check_ns) / 1e9 / walls.iter().sum::<f64>(),
        );
    }

    fn trial(&self, seed: u64, traced: bool) -> Trial {
        let assignment = self.counts.assignment();
        let (protocol, states) = ImprovedAlgorithm::new(&assignment, Tuning::default());
        let checker = traced.then(|| ImprovedAlgorithm::new(&assignment, Tuning::default()).0);
        let mut sim = Simulation::new(protocol, states, seed);
        let opts = RunOptions::with_parallel_time_budget(assignment.n(), self.budget);
        let mut strides = Vec::new();
        let mut check_ns = Vec::new();
        let mut checks = 0u64;
        let mut last: Option<Instant> = None;
        let t = Instant::now();
        let r = sim.run_observed(&opts, |_, states| {
            let now = Instant::now();
            if let Some(prev) = last {
                strides.push((now - prev).as_secs_f64() * 1e6);
            }
            checks += 1;
            last = Some(match &checker {
                Some(c) => {
                    black_box(c.converged(black_box(states)));
                    let after = Instant::now();
                    check_ns.push((after - now).as_nanos() as f64);
                    after
                }
                None => now,
            });
        });
        let wall = t.elapsed().as_secs_f64();
        Trial {
            wall,
            interactions: r.interactions,
            checks,
            strides,
            check_ns,
            end: (r.status, r.output, sim.rng_state(), sim.states().to_vec()),
        }
    }
}
