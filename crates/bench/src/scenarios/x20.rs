//! X20 — reconvergence scaling under repeated corruption.
//!
//! X18 measures recovery from a single transient strike; this scenario
//! asks how the recovery time *scales*. The adversary corrupts 20% of the
//! agents to uniformly random states three times per run — at parallel
//! times 50, 100 and 150, each strike well past the previous recovery at
//! these sizes — and the population size sweeps over two (four under
//! `--full`) orders of magnitude. The median recovery time per strike is
//! then regressed against `ln n`: self-stabilizing dynamics restarted
//! from a 20%-scrambled configuration should re-converge in `O(log n)`,
//! so the fit table's slope captures the constant and `r²` how well the
//! logarithm explains the growth.

use std::io;

use pp_engine::FaultSpec;
use pp_majority::ThreeState;
use pp_stats::{fit_affine, Table};
use pp_workloads::Counts;

use crate::arm;
use crate::scenario::{col, Ctx, GridPoint, PointRun, RunFlag, Scenario, Study};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x20",
    slug: "x20_repeated_corruption",
    about: "Reconvergence time vs n under repeated 20% corruption, with O(log n) fit",
    outputs: &["x20_repeated_corruption", "x20_fit"],
    flags: RunFlag::TABLE_TRIAL,
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let mut grid = vec![1_000usize, 10_000, 100_000];
    if ctx.full() {
        grid.extend([1_000_000, 10_000_000]);
    }
    // Three strikes per run; every fault record contributes a recovery
    // sample, so the medians below pool 3 × trials strikes per point.
    let strikes: Vec<FaultSpec> = [50.0, 100.0, 150.0]
        .into_iter()
        .map(|at| FaultSpec::Corrupt { at, frac: 0.2 })
        .collect();

    let runs = Study::new(
        "X20: reconvergence time vs n under repeated corruption",
        "x20_repeated_corruption",
    )
    .points(
        grid.into_iter()
            .map(|n| GridPoint::new(Counts::geometric(n, 2, 0.5), 2_000.0).faults(strikes.clone())),
    )
    .arm(arm::usd())
    .arm(arm::table("3-state", |c: &Counts| {
        (
            ThreeState,
            vec![0, c.support(1) as u64, c.support(2) as u64],
        )
    }))
    .cols(vec![
        col::arm("protocol"),
        col::n(),
        col::engine(),
        col::ok_frac(),
        col::median(1),
        col::recovery(1),
        col::survived(),
    ])
    .run(ctx)?;

    ctx.emit("x20_fit", &fit_table(&runs))?;
    println!(
        "Read: the per-strike recovery time grows with ln n at slope ≈ a and r² near 1 — \
         reconvergence from a 20%-scrambled configuration is logarithmic, like the clean runs."
    );
    Ok(())
}

/// Regress each arm's median recovery time against `ln n`.
fn fit_table(runs: &[PointRun]) -> Table {
    let mut table = Table::new(
        "X20-fit: median recovery time ~ a·ln n + b",
        &["protocol", "a", "b", "r2", "points"],
    );
    let mut arms: Vec<&str> = Vec::new();
    for r in runs {
        if !arms.contains(&r.arm.as_str()) {
            arms.push(&r.arm);
        }
    }
    for arm in arms {
        let (x, y): (Vec<f64>, Vec<f64>) = runs
            .iter()
            .filter(|r| r.arm == arm && r.median_recovery().is_finite())
            .map(|r| ((r.n() as f64).ln(), r.median_recovery()))
            .unzip();
        // A fit needs at least two recovered sizes; an arm that never
        // recovered still gets a row so its absence is visible.
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
