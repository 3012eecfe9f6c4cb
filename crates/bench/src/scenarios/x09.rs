//! X9 — Lemmas 9/10: the pruning phase of `ImprovedAlgorithm`.
//!
//! On one-large-many-small inputs we stop at the moment all agents reach
//! phase 0 and measure, per trial, what the lemmas predict there with
//! high probability:
//!
//! * whether the plurality kept every token, `T_max(t̂) = x_max`
//!   (Lemma 10(2));
//! * how many opinions still hold tokens, which should be close to
//!   `n/x_max` and far below k (Lemma 10(1));
//! * the smallest share of clock, tracker and player roles, which should
//!   be ≥ ~1/10 (Lemma 10(3));
//! * how many insignificant opinions (support ≤ x_max/4) still hold
//!   tokens, which Lemma 9 and Lemma 10's case analysis say should be
//!   none. At n = 2,000 some do: the `insig. leaks` column sums them over
//!   the trials.

use std::io;

use plurality_core::roles::Role;
use plurality_core::{Algorithm, Machine, Tuning};
use pp_engine::{RunOptions, Simulation};
use pp_stats::Table;
use pp_workloads::Counts;

use crate::scenario::{Ctx, Scenario};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x09",
    slug: "x09_pruning",
    about: "Lemmas 9/10: plurality tokens kept and insignificant opinions left after pruning",
    outputs: &["x09_pruning"],
    flags: &[],
    run,
};

#[derive(Debug, Clone)]
struct PruneStats {
    plurality_tokens: usize,
    surviving_opinions: usize,
    insignificant_with_tokens: usize,
    min_worker_frac: f64,
    t_hat: f64,
}

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let grid: Vec<(usize, usize, usize)> = if ctx.full() {
        vec![
            (2000, 11, 800),
            (4000, 21, 1600),
            (4000, 31, 1200),
            (8000, 41, 3200),
        ]
    } else {
        vec![(2000, 11, 800), (4000, 21, 1600)]
    };

    let mut table = Table::new(
        "X9: pruning invariants at t̂ (all agents in phase 0)",
        &[
            "n",
            "k",
            "x_max",
            "tokens kept",
            "surviving ops (med)",
            "n/x_max",
            "insig. leaks",
            "min worker frac",
            "median t̂",
        ],
    );

    for (i, &(n, k, x_max)) in grid.iter().enumerate() {
        let counts = Counts::one_large(n, k, x_max);
        let supports = counts.supports().to_vec();
        let results = ctx.run_trials(i as u64, |seed| {
            let assignment = counts.assignment();
            let (proto, states) =
                Machine::start(Algorithm::Improved, &assignment, Tuning::default());
            let mut sim = Simulation::new(proto, states, seed);
            let mut stats: Option<PruneStats> = None;
            let _ = sim.run_observed(
                &RunOptions::with_parallel_time_budget(n, 50_000.0),
                |t, states| {
                    if stats.is_some() || !states.iter().all(|s| s.phase >= 0) {
                        return;
                    }
                    let mut tokens_by_op = vec![0usize; supports.len()];
                    let mut workers = [0usize; 3];
                    for s in states {
                        match &s.role {
                            Role::Collector(c) => {
                                tokens_by_op[usize::from(c.opinion) - 1] += usize::from(c.tokens)
                            }
                            Role::Clock(_) => workers[0] += 1,
                            Role::Tracker(_) => workers[1] += 1,
                            Role::Player(_) => workers[2] += 1,
                        }
                    }
                    let surviving = tokens_by_op.iter().filter(|&&t| t > 0).count();
                    let insignificant_with_tokens = tokens_by_op
                        .iter()
                        .zip(&supports)
                        .filter(|&(&tok, &sup)| sup * 4 <= x_max && tok > 0)
                        .count();
                    stats = Some(PruneStats {
                        plurality_tokens: tokens_by_op[0],
                        surviving_opinions: surviving,
                        insignificant_with_tokens,
                        min_worker_frac: workers
                            .iter()
                            .map(|&w| w as f64 / states.len() as f64)
                            .fold(1.0, f64::min),
                        t_hat: t as f64 / n as f64,
                    });
                },
            );
            stats.expect("pruning init must finish within the budget")
        });

        let kept = results
            .iter()
            .filter(|r| r.plurality_tokens == x_max)
            .count();
        let mut surv: Vec<f64> = results
            .iter()
            .map(|r| r.surviving_opinions as f64)
            .collect();
        surv.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let leaks: usize = results.iter().map(|r| r.insignificant_with_tokens).sum();
        let min_frac = results
            .iter()
            .map(|r| r.min_worker_frac)
            .fold(1.0, f64::min);
        let mut t_hats: Vec<f64> = results.iter().map(|r| r.t_hat).collect();
        t_hats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        table.push(vec![
            n.to_string(),
            k.to_string(),
            x_max.to_string(),
            format!("{kept}/{}", results.len()),
            format!("{:.0}", surv[surv.len() / 2]),
            format!("{:.1}", n as f64 / x_max as f64),
            leaks.to_string(),
            format!("{min_frac:.3}"),
            format!("{:.0}", t_hats[t_hats.len() / 2]),
        ]);
        eprintln!(
            "  n={n} k={k} x_max={x_max}: kept {kept}/{}, surviving {:.0}",
            results.len(),
            surv[surv.len() / 2]
        );
    }

    ctx.emit("x09_pruning", &table)?;
    println!(
        "Read: `tokens kept` counts trials whose plurality kept every token; \
         surviving opinions should sit near n/x_max ≪ k; `insig. leaks` counts \
         insignificant opinions still holding tokens, summed over trials \
         (the lemmas expect 0 w.h.p.); worker roles should each be ≥ ~0.1·n."
    );
    Ok(())
}
