//! X7 — Lemma 3: the initialization phase.
//!
//! Claims measured: (1) the first `phase = 0` happens within
//! `O(n·(k + log n))` interactions, (2) at that moment every role holds at
//! least ~n/10 agents, (3) all opinion-1 collectors carry the defender bit.

use std::io;

use plurality_core::roles::Role;
use plurality_core::{Algorithm, Machine, Tuning};
use pp_engine::{RunOptions, Simulation};
use pp_stats::{Summary, Table};
use pp_workloads::Counts;

use crate::scenario::{Ctx, Scenario};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x07",
    slug: "x07_init",
    about: "Lemma 3: initialization ends in O(n(k + log n)) with balanced roles",
    outputs: &["x07_init"],
    flags: &[],
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let grid: Vec<(usize, usize)> = if ctx.full() {
        vec![
            (1000, 2),
            (2000, 2),
            (4000, 2),
            (8000, 2),
            (2000, 8),
            (2000, 32),
            (2000, 64),
        ]
    } else {
        vec![(1000, 2), (2000, 2), (2000, 8), (2000, 24)]
    };

    let mut table = Table::new(
        "X7: Lemma 3 — initialization end time and role balance",
        &[
            "n",
            "k",
            "median t̂/n",
            "t̂/(n(k+lnn))·n",
            "min role frac",
            "defender bits ok",
        ],
    );

    for (i, &(n, k)) in grid.iter().enumerate() {
        let counts = Counts::bias_one(n, k);
        let results = ctx.run_trials(i as u64, |seed| {
            let assignment = counts.assignment();
            let (proto, states) = Machine::start(Algorithm::Simple, &assignment, Tuning::default());
            let mut sim = Simulation::new(proto, states, seed);
            // Observe until the first agent reaches phase 0, then snapshot.
            let mut snapshot: Option<(f64, f64, bool)> = None;
            let _ = sim.run_observed(
                &RunOptions::with_parallel_time_budget(n, 3.0e3 * k as f64 + 2.0e4),
                |t, states| {
                    if snapshot.is_some() || !states.iter().any(|s| s.phase >= 0) {
                        return;
                    }
                    let mut roles = [0usize; 4];
                    let mut op1_total = 0usize;
                    let mut op1_defenders = 0usize;
                    for s in states {
                        match &s.role {
                            Role::Collector(c) => {
                                roles[0] += 1;
                                if c.opinion == 1 && c.tokens > 0 {
                                    op1_total += 1;
                                    op1_defenders += usize::from(c.defender);
                                }
                            }
                            Role::Clock(_) => roles[1] += 1,
                            Role::Tracker(_) => roles[2] += 1,
                            Role::Player(_) => roles[3] += 1,
                        }
                    }
                    let min_frac = roles
                        .iter()
                        .map(|&r| r as f64 / states.len() as f64)
                        .fold(1.0, f64::min);
                    snapshot = Some((t as f64 / n as f64, min_frac, op1_defenders == op1_total));
                },
            );
            snapshot.expect("init must end within the budget")
        });
        let t_hats: Vec<f64> = results.iter().map(|r| r.0).collect();
        let s = Summary::of(&t_hats);
        let min_frac = results.iter().map(|r| r.1).fold(1.0, f64::min);
        let all_defenders = results.iter().all(|r| r.2);
        table.push(vec![
            n.to_string(),
            k.to_string(),
            format!("{:.1}", s.median),
            format!("{:.2}", s.median / (k as f64 + (n as f64).ln())),
            format!("{min_frac:.3}"),
            all_defenders.to_string(),
        ]);
        eprintln!(
            "  n={n} k={k}: t̂={:.1}, min role frac {min_frac:.3}",
            s.median
        );
    }

    ctx.emit("x07_init", &table)?;
    println!(
        "Read: t̂/n grows like k + ln n (stable ratio column); every role holds ≥ ~0.1 of the \
         population (Lemma 3(2)); opinion-1 collectors all carry the defender bit (Lemma 3(3))."
    );
    Ok(())
}
