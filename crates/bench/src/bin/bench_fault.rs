//! Records the fault layer's overhead on the multinomial batch engine
//! into `BENCH_fault.json` — the committed snapshot behind the
//! "robustness machinery is free when unused" acceptance claim.
//!
//! Five paths on 3-state majority at `n ∈ {10⁴, 10⁶, 10⁸}`:
//!
//! * `clean_run` — `run()`, no fault machinery at all,
//! * `empty_plan` — `run_faulted()` with an empty fault list; must be
//!   RNG-identical to `clean_run` (asserted per size, not just measured),
//! * `active_churn` — `run_churned()` under the default symmetric 0.005
//!   Poisson join/leave soak, sampling once per unit of parallel time,
//! * `adaptive_adversary` — `run()` with a live 5% census-driven
//!   runner-up-boosting lie stream (`adaptive:0.05`); a zero-fraction
//!   adaptive spec is asserted RNG-identical to `clean_run` per size,
//! * `targeted_churn` — the soak with departures aimed at the plurality
//!   class (`churn:0.005:0.005:plurality`); the uniform 4-field spelling
//!   is asserted RNG-identical to the legacy 2-field one per size.
//!
//! Each rate drives a fresh 60/40 configuration for a fixed interaction
//! budget well below the convergence horizon, repeating until ≥ 0.5 s of
//! wall clock has been accumulated.
//!
//! Usage: `cargo run --release -p plurality-bench --bin bench_fault
//! [-- path/to/BENCH_fault.json]`

use std::time::Instant;

use pp_engine::{AdversarySpec, BatchSimulation, ChurnProcess, ChurnSpec, RunOptions};
use pp_majority::ThreeState;

/// Repeat `run` (a fresh fixed-budget simulation returning the seconds it
/// spent) until half a second accumulates; returns interactions/sec.
fn rate(target: u64, mut run: impl FnMut() -> f64) -> f64 {
    run(); // warm-up
    let mut reps = 0u64;
    let mut secs = 0.0f64;
    while secs < 0.5 || reps < 2 {
        secs += run();
        reps += 1;
    }
    (reps * target) as f64 / secs
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fault.json".into());
    let grid: [u64; 3] = [10_000, 1_000_000, 100_000_000];
    let labels = ["1e4", "1e6", "1e8"];
    let counts = |n: u64| vec![0u64, n * 3 / 5, n * 2 / 5];
    let opts = |target: u64| RunOptions {
        max_interactions: target,
        check_every: 1_000_000,
    };

    // The load-bearing contracts first: an empty plan and a zero-fraction
    // adaptive adversary must not merely be as fast as `run()`, they must
    // consume the *identical* RNG stream — and the 2-field uniform churn
    // spelling must drive the exact draw sequence of the parsed one.
    let uniform_spec: ChurnSpec = "churn:0.005:0.005".parse().expect("churn spec");
    let churn = ChurnProcess::new(uniform_spec);
    let targeted = ChurnProcess::new("churn:0.005:0.005:plurality".parse().expect("churn spec"));
    for &n in &grid {
        let target = (5 * n).min(1_000_000_000);
        let mut clean = BatchSimulation::new(ThreeState, counts(n), 42);
        clean.run(&opts(target));
        let mut faulted = BatchSimulation::new(ThreeState, counts(n), 42);
        faulted.run_faulted(&opts(target), &[]);
        assert_eq!(clean.counts(), faulted.counts(), "n={n}: counts diverged");
        assert_eq!(
            clean.rng_state(),
            faulted.rng_state(),
            "n={n}: empty-plan run_faulted consumed a different RNG stream than run"
        );
        let mut adaptive0 = BatchSimulation::new(ThreeState, counts(n), 42);
        adaptive0.set_adversary("adaptive:0".parse().expect("adversary spec"));
        adaptive0.run(&opts(target));
        assert_eq!(
            clean.rng_state(),
            adaptive0.rng_state(),
            "n={n}: adaptive:0 consumed a different RNG stream than run"
        );
        let legacy = ChurnProcess::new(ChurnSpec {
            join: 0.005,
            leave: 0.005,
            ..ChurnSpec::default()
        });
        let init = counts(n);
        let mut a = BatchSimulation::new(ThreeState, init.clone(), 42);
        a.run_churned(&opts(target), &churn, &init, f64::MAX);
        let mut b = BatchSimulation::new(ThreeState, init.clone(), 42);
        b.run_churned(&opts(target), &legacy, &init, f64::MAX);
        assert_eq!(
            a.rng_state(),
            b.rng_state(),
            "n={n}: uniform-target churn diverged from the legacy spelling"
        );
    }
    println!("empty plan, adaptive:0 and uniform-target churn are RNG-identical at every size");

    let mut rows: Vec<(&str, Vec<f64>)> = Vec::new();
    for (name, which) in [
        ("clean_run", 0),
        ("empty_plan", 1),
        ("active_churn", 2),
        ("adaptive_adversary", 3),
        ("targeted_churn", 4),
    ] {
        let rates: Vec<f64> = grid
            .iter()
            .map(|&n| {
                let target = (5 * n).min(1_000_000_000);
                rate(target, || {
                    let init = counts(n);
                    let mut sim = BatchSimulation::new(ThreeState, init.clone(), 42);
                    let t0 = Instant::now();
                    match which {
                        0 => {
                            sim.run(&opts(target));
                        }
                        1 => {
                            sim.run_faulted(&opts(target), &[]);
                        }
                        2 => {
                            sim.run_churned(&opts(target), &churn, &init, f64::MAX);
                        }
                        3 => {
                            sim.set_adversary(
                                "adaptive:0.05"
                                    .parse::<AdversarySpec>()
                                    .expect("adversary spec"),
                            );
                            sim.run(&opts(target));
                        }
                        _ => {
                            sim.run_churned(&opts(target), &targeted, &init, f64::MAX);
                        }
                    }
                    t0.elapsed().as_secs_f64()
                })
            })
            .collect();
        rows.push((name, rates));
    }

    println!("interactions/sec on 3-state majority (60/40 start, batch engine):");
    println!(
        "{:>14} {:>12} {:>12} {:>12}",
        "path", "n=1e4", "n=1e6", "n=1e8"
    );
    for (name, rates) in &rows {
        println!(
            "{name:>14} {:>12} {:>12} {:>12}",
            human(rates[0]),
            human(rates[1]),
            human(rates[2])
        );
    }
    let overhead = rows[0].1[1] / rows[1].1[1];
    let churn_cost = rows[0].1[1] / rows[2].1[1];
    let adaptive_cost = rows[0].1[1] / rows[3].1[1];
    let targeted_cost = rows[0].1[1] / rows[4].1[1];
    println!("empty-plan overhead at n=1e6: {overhead:.2}x (acceptance bar: ~1x)");
    println!("active-churn slowdown at n=1e6: {churn_cost:.2}x");
    println!("adaptive-adversary slowdown at n=1e6: {adaptive_cost:.2}x");
    println!("targeted-churn slowdown at n=1e6: {targeted_cost:.2}x");

    let mut json = String::from("{\n");
    json.push_str("  \"protocol\": \"three_state_majority\",\n");
    json.push_str("  \"engine\": \"batch_multinomial\",\n");
    json.push_str("  \"configuration\": \"60/40 opinion split, pre-convergence budget\",\n");
    json.push_str("  \"churn\": \"churn:0.005 (symmetric Poisson join/leave)\",\n");
    json.push_str("  \"adversary\": \"adaptive:0.05 (census-driven runner-up boosting)\",\n");
    json.push_str("  \"targeted_churn\": \"churn:0.005:0.005:plurality\",\n");
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p plurality-bench --bin bench_fault\",\n",
    );
    json.push_str("  \"empty_plan_rng_identical\": true,\n");
    json.push_str("  \"adaptive_zero_frac_rng_identical\": true,\n");
    json.push_str("  \"uniform_target_churn_rng_identical\": true,\n");
    json.push_str("  \"interactions_per_sec\": {\n");
    for (r, (name, rates)) in rows.iter().enumerate() {
        json.push_str(&format!("    \"{name}\": {{"));
        for (i, label) in labels.iter().enumerate() {
            json.push_str(&format!("\"{label}\": {:.0}", rates[i]));
            if i + 1 < labels.len() {
                json.push_str(", ");
            }
        }
        json.push('}');
        if r + 1 < rows.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"empty_plan_overhead_n1e6\": {overhead:.2},\n  \"active_churn_slowdown_n1e6\": {churn_cost:.2},\n  \"adaptive_adversary_slowdown_n1e6\": {adaptive_cost:.2},\n  \"targeted_churn_slowdown_n1e6\": {targeted_cost:.2}\n"
    ));
    json.push_str("}\n");
    std::fs::write(&path, json).expect("write BENCH_fault.json");
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
