//! Records engine throughput (interactions/sec) into `BENCH_engine.json`
//! — the committed snapshot behind the batched-engine numbers.
//!
//! Two grids, each point measured [`REPEATS`] times and reported as
//! median, min and max:
//!
//! * 3-state majority at `n ∈ {10⁴, 10⁶, 10⁸}` on both engines:
//!   `sequential` (per-agent `Simulation::step`) and `batch_multinomial`
//!   (`BatchSimulation`);
//! * USD with `k ∈ {2, 64, 1024}` opinions on `bias_one(n, k)` at
//!   `n ∈ {10⁴, 10⁶, 10⁸}` on `BatchSimulation`. These span the state
//!   count `S = k + 1`, which decides between the lumped and the
//!   per-initiator tally.
//!
//! Each rate drives a fresh configuration for a fixed interaction budget
//! below the convergence horizon, repeating until ≥ 0.5 s of wall clock
//! has been accumulated. For USD the JSON also records the set-up time
//! (construction plus the first batch, which builds the change table) at
//! `n = 10⁸`.
//!
//! A third block times the layer under every batch tally: nanoseconds per
//! `multinomial::binomial` draw at one `(n, p)` per sampler regime
//! (geometric skips, BINV, BTRS at `n·p ≈ 47` and `n·p = 3,000`) and one
//! past the memoised ln-factorials, again median, min and max of
//! [`REPEATS`].
//!
//! A fourth block rates the fault layer on 3-state majority at the same
//! three sizes, again median, min and max of [`REPEATS`]: a clean `run()`,
//! `run_faulted()` with an empty plan, `run_churned()` under symmetric
//! `churn:0.005` and under `churn:0.005:0.005:plurality`, and `run()`
//! against an `adaptive:0.05` adversary ([`FAULT_ROWS`]).
//!
//! Usage: `cargo run --release -p plurality-bench --bin bench_engine
//! [-- path/to/BENCH_engine.json]`

use std::hint::black_box;
use std::time::Instant;

use pp_baselines::UsdTable;
use pp_engine::batch::multinomial::binomial;
use pp_engine::{BatchSimulation, ChurnProcess, RunOptions, SimRng, Simulation, TableProtocol};
use pp_majority::ThreeState;
use pp_workloads::Counts;
use rand::SeedableRng;

/// Measurements per grid point.
const REPEATS: usize = 3;

const GRID: [(u64, &str); 3] = [(10_000, "1e4"), (1_000_000, "1e6"), (100_000_000, "1e8")];

/// `(n, p)` per binomial regime: geometric skips (`n ≤ 16`), BINV
/// (`n·p < 10`), BTRS at `n·p ≈ 47` and at `n·p = 3,000`, and BTRS past
/// the memoised ln-factorials (`k < 2¹⁵`).
const SAMPLER_GRID: [(u64, f64); 5] = [
    (12, 0.3),
    (60, 0.1),
    (6_000, 1.0 / 128.0),
    (6_000, 0.5),
    (40_000, 0.3),
];

/// The fault-layer rows, in JSON order.
const FAULT_ROWS: [&str; 5] = [
    "clean_run",
    "empty_plan",
    "active_churn",
    "adaptive_adversary",
    "targeted_churn",
];

/// Median, min and max of [`REPEATS`] measurements.
#[derive(Debug, Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut f: impl FnMut() -> f64) -> Self {
        let mut v: Vec<f64> = (0..REPEATS).map(|_| f()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite measurement"));
        Self {
            median: v[v.len() / 2],
            min: v[0],
            max: v[v.len() - 1],
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"median\": {:.0}, \"min\": {:.0}, \"max\": {:.0}}}",
            self.median, self.min, self.max
        )
    }

    fn json_ms(&self) -> String {
        format!(
            "{{\"median\": {:.3}, \"min\": {:.3}, \"max\": {:.3}}}",
            self.median * 1e3,
            self.min * 1e3,
            self.max * 1e3
        )
    }

    fn human(&self) -> String {
        format!(
            "{} [{}, {}]",
            human(self.median),
            human(self.min),
            human(self.max)
        )
    }
}

/// Repeat `run` — which simulates `target` interactions from a fresh
/// configuration and returns the seconds spent *stepping only* (setup such
/// as the per-agent state vector stays off the clock) — until half a
/// second of measured time accumulates; returns interactions per second.
fn rate(target: u64, mut run: impl FnMut() -> f64) -> f64 {
    // One warm-up (page-faults the allocations).
    run();
    let mut reps = 0u64;
    let mut secs = 0.0f64;
    while secs < 0.5 || reps < 2 {
        secs += run();
        reps += 1;
    }
    (reps * target) as f64 / secs
}

/// Interactions per second of `BatchSimulation` stepping `target`
/// interactions from `counts`.
fn batch_rate<P: TableProtocol + Clone>(protocol: &P, counts: &[u64], target: u64) -> f64 {
    rate(target, || {
        let mut sim = BatchSimulation::new(protocol.clone(), counts.to_vec(), 42);
        let t0 = Instant::now();
        while sim.interactions() < target {
            sim.step_batch();
        }
        t0.elapsed().as_secs_f64()
    })
}

/// Interactions per second of the fault-layer row named `row` (one of
/// [`FAULT_ROWS`]) on 3-state majority from a 60/40 start at `n`.
fn fault_rate(row: &str, n: u64) -> f64 {
    let target = (5 * n).min(1_000_000_000);
    let opts = RunOptions {
        max_interactions: target,
        check_every: 1_000_000,
    };
    let churn = |spec: &str| ChurnProcess::new(spec.parse().expect("churn spec"));
    let (symmetric, targeted) = (churn("churn:0.005"), churn("churn:0.005:0.005:plurality"));
    let init = vec![0u64, n * 3 / 5, n * 2 / 5];
    rate(target, || {
        let mut sim = BatchSimulation::new(ThreeState, init.clone(), 42);
        if row == "adaptive_adversary" {
            sim.set_adversary("adaptive:0.05".parse().expect("adversary spec"));
        }
        let t0 = Instant::now();
        match row {
            "empty_plan" => sim.run_faulted(&opts, &[]),
            "active_churn" => sim.run_churned(&opts, &symmetric, &init, f64::MAX),
            "targeted_churn" => sim.run_churned(&opts, &targeted, &init, f64::MAX),
            _ => sim.run(&opts),
        };
        t0.elapsed().as_secs_f64()
    })
}

/// Nanoseconds per `binomial(n, p)` draw over a million draws, after a
/// warm-up that also fills the ln-factorial table.
fn ns_per_draw(n: u64, p: f64) -> f64 {
    const DRAWS: u32 = 1_000_000;
    let mut rng = SimRng::seed_from_u64(42);
    let mut sum = 0u64;
    for _ in 0..DRAWS / 10 {
        sum = sum.wrapping_add(binomial(&mut rng, black_box(n), black_box(p)));
    }
    let t0 = Instant::now();
    for _ in 0..DRAWS {
        sum = sum.wrapping_add(binomial(&mut rng, black_box(n), black_box(p)));
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(sum);
    secs * 1e9 / f64::from(DRAWS)
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".into());
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let majority = |n: u64| vec![0u64, n * 3 / 5, n * 2 / 5];

    let mut rows: Vec<(&str, Vec<Spread>)> = Vec::new();
    let seq = GRID
        .iter()
        .map(|&(n, _)| {
            // Cap the budget: pre-convergence and bounded wall clock.
            let target = (5 * n).min(30_000_000);
            Spread::of(|| {
                rate(target, || {
                    let states =
                        ThreeState::initial_states((n * 3 / 5) as usize, (n * 2 / 5) as usize);
                    let mut sim = Simulation::new(ThreeState, states, 42);
                    let t0 = Instant::now();
                    for _ in 0..target {
                        sim.step();
                    }
                    t0.elapsed().as_secs_f64()
                })
            })
        })
        .collect();
    rows.push(("sequential", seq));
    let multinomial = GRID
        .iter()
        .map(|&(n, _)| {
            let target = (5 * n).min(1_000_000_000);
            Spread::of(|| batch_rate(&ThreeState, &majority(n), target))
        })
        .collect();
    rows.push(("batch_multinomial", multinomial));

    // USD over the state-count axis.
    let mut usd: Vec<(usize, Vec<Spread>)> = Vec::new();
    let mut usd_setup: Vec<(usize, Spread)> = Vec::new();
    for k in [2usize, 64, 1024] {
        let table = UsdTable::new(k);
        let rates = GRID
            .iter()
            .map(|&(n, _)| {
                let counts = table.initial_counts(Counts::bias_one(n as usize, k).supports());
                let target = (2 * n).min(20_000_000);
                Spread::of(|| batch_rate(&table, &counts, target))
            })
            .collect();
        usd.push((k, rates));
        let counts = table.initial_counts(Counts::bias_one(100_000_000, k).supports());
        let setup = Spread::of(|| {
            let t0 = Instant::now();
            let mut sim = BatchSimulation::new(table.clone(), counts.clone(), 42);
            sim.step_batch();
            t0.elapsed().as_secs_f64()
        });
        usd_setup.push((k, setup));
    }

    let sampler: Vec<Spread> = SAMPLER_GRID
        .iter()
        .map(|&(n, p)| Spread::of(|| ns_per_draw(n, p)))
        .collect();

    let fault: Vec<Vec<Spread>> = FAULT_ROWS
        .iter()
        .map(|row| {
            GRID.iter()
                .map(|&(n, _)| Spread::of(|| fault_rate(row, n)))
                .collect()
        })
        .collect();

    println!("interactions/sec, median [min, max] of {REPEATS} (nproc = {nproc})");
    println!("3-state majority (60/40 start):");
    for (name, rates) in &rows {
        let cells: Vec<String> = rates.iter().map(Spread::human).collect();
        println!("{name:>20} {}", cells.join("  "));
    }
    println!("USD on bias_one(n, k), budget min(2n, 2e7) interactions:");
    for (k, rates) in &usd {
        let cells: Vec<String> = rates.iter().map(Spread::human).collect();
        println!("{:>20} {}", format!("k={k}"), cells.join("  "));
    }
    for (k, setup) in &usd_setup {
        println!(
            "{:>20} {:.3} ms [{:.3}, {:.3}]",
            format!("setup k={k} n=1e8"),
            setup.median * 1e3,
            setup.min * 1e3,
            setup.max * 1e3
        );
    }

    println!("ns per binomial draw:");
    for (&(n, p), ns) in SAMPLER_GRID.iter().zip(&sampler) {
        println!(
            "{:>20} {:.0} [{:.0}, {:.0}]",
            format!("n={n} p={p:.4}"),
            ns.median,
            ns.min,
            ns.max
        );
    }

    println!("fault layer on 3-state majority (60/40 start), interactions/sec:");
    for (name, rates) in FAULT_ROWS.iter().zip(&fault) {
        let cells: Vec<String> = rates.iter().map(Spread::human).collect();
        println!("{name:>20} {}", cells.join("  "));
    }

    let grid_json = |rates: &[Spread]| -> String {
        let cells: Vec<String> = GRID
            .iter()
            .zip(rates)
            .map(|(&(_, label), r)| format!("\"{label}\": {}", r.json()))
            .collect();
        format!("{{{}}}", cells.join(", "))
    };
    let mut json = String::from("{\n");
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p plurality-bench --bin bench_engine\",\n",
    );
    json.push_str(&format!("  \"nproc\": {nproc},\n"));
    json.push_str(&format!(
        "  \"unit\": \"interactions/s, median/min/max of {REPEATS} repeats\",\n"
    ));
    json.push_str("  \"three_state_majority\": {\n");
    json.push_str("    \"configuration\": \"60/40 opinion split, pre-convergence budget\",\n");
    let rows_json: Vec<String> = rows
        .iter()
        .map(|(name, rates)| format!("    \"{name}\": {}", grid_json(rates)))
        .collect();
    json.push_str(&rows_json.join(",\n"));
    json.push_str("\n  },\n");
    json.push_str("  \"usd\": {\n");
    json.push_str(
        "    \"configuration\": \"bias_one(n, k), budget min(2n, 2e7) interactions, BatchSimulation\",\n",
    );
    for (k, rates) in &usd {
        json.push_str(&format!("    \"k{k}\": {},\n", grid_json(rates)));
    }
    let setup_cells: Vec<String> = usd_setup
        .iter()
        .map(|(k, s)| format!("\"k{k}\": {}", s.json_ms()))
        .collect();
    json.push_str(&format!(
        "    \"setup_ms_n1e8\": {{{}}}\n",
        setup_cells.join(", ")
    ));
    json.push_str("  },\n");
    json.push_str("  \"binomial\": {\n");
    json.push_str(&format!(
        "    \"unit\": \"ns per multinomial::binomial draw, median/min/max of {REPEATS} repeats\",\n"
    ));
    let sampler_cells: Vec<String> = SAMPLER_GRID
        .iter()
        .zip(&sampler)
        .map(|(&(n, p), ns)| format!("    \"n{n}_p{p}\": {}", ns.json()))
        .collect();
    json.push_str(&sampler_cells.join(",\n"));
    json.push_str("\n  },\n");
    json.push_str("  \"fault\": {\n");
    json.push_str(
        "    \"configuration\": \"3-state majority, 60/40 opinion split, pre-convergence budget, BatchSimulation; active_churn churn:0.005, adaptive_adversary adaptive:0.05, targeted_churn churn:0.005:0.005:plurality\",\n",
    );
    let fault_rows: Vec<String> = FAULT_ROWS
        .iter()
        .zip(&fault)
        .map(|(name, rates)| format!("    \"{name}\": {}", grid_json(rates)))
        .collect();
    json.push_str(&fault_rows.join(",\n"));
    json.push_str("\n  }\n}\n");
    std::fs::write(&path, json).expect("write BENCH_engine.json");
    eprintln!("wrote {path}");
}

fn human(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.1}M", x / 1e6)
    } else {
        format!("{:.0}K", x / 1e3)
    }
}
