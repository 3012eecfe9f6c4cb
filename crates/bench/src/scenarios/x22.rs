//! X22 — steady-state churn soak with crash-safe checkpointing.
//!
//! A long single run of the 3-state majority on the batched engine while
//! agents continuously join (drawn from the initial workload) and leave
//! (uniformly at random) as a Poisson process — `--churn` overrides the
//! default symmetric 0.005 events per agent per unit of parallel time.
//! Once per unit of parallel time the run samples the population size,
//! the fraction of agents advocating the planted plurality, and whether
//! the convergence predicate currently fires; the series CSV is the soak
//! trajectory and the summary row condenses it to a mean plurality
//! fraction and a time-in-consensus fraction.
//!
//! The run is *crash-safe*: with `--checkpoint-every T` the engine writes
//! a versioned snapshot (`x22_t<T>.ckpt`, `x22_t<2T>.ckpt`, …) into the
//! output directory at every multiple of `T`, and `--resume FILE`
//! restores one byte-identically — RNG state, clock, counts and the
//! series prefix — so a resumed soak emits exactly the CSV the
//! uninterrupted run would have. The CI smoke test diffs the two.

use std::io;

use pp_engine::{
    rng, BatchSimulation, Checkpoint, ChurnProcess, ChurnSample, ChurnSpec, SegmentRunner,
};
use pp_majority::ThreeState;
use pp_stats::Table;

use crate::scenario::{col, Ctx, RunFlag, Scenario};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x22",
    slug: "x22_churn_soak",
    about: "Churn soak: population/plurality series under Poisson join/leave, checkpointable",
    outputs: &["x22_churn_series", "x22_churn_summary"],
    flags: &[RunFlag::Churn, RunFlag::CheckpointEvery, RunFlag::Resume],
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let n: u64 = if ctx.full() { 1_000_000 } else { 10_000 };
    let horizon = if ctx.full() { 600.0 } else { 200.0 };
    let spec = ctx.opts.churn.unwrap_or(ChurnSpec {
        join: 0.005,
        leave: 0.005,
        ..ChurnSpec::default()
    });
    let churn = ChurnProcess::new(spec);
    // 2:1 support over {blank, A, B} — joins re-draw from this forever,
    // so the soak keeps a plurality to track.
    let a = 2 * n / 3;
    let init = vec![0u64, a, n - a];
    let every = ctx.opts.checkpoint_every.unwrap_or(f64::INFINITY);

    let mut runner = match &ctx.opts.resume {
        Some(path) => {
            let ck = Checkpoint::read(path)?;
            if ctx.sink.verbose {
                eprintln!(
                    "  [x22] resumed from {} at parallel time {:.1} ({} samples)",
                    path.display(),
                    ck.time_base,
                    ck.series.len()
                );
            }
            SegmentRunner::from_checkpoint(&ck, ThreeState, churn)?
        }
        None => SegmentRunner::new(
            BatchSimulation::new(ThreeState, init.clone(), rng::derive(ctx.opts.seed, 2_200)),
            churn,
            init,
        ),
    };
    // `drive` cuts segments at absolute multiples of `every`, derived from
    // the live clock — a resumed run recomputes exactly the boundaries the
    // uninterrupted run used, so the stitched series is bit-identical.
    let out_dir = ctx.opts.out_dir.clone();
    let verbose = ctx.sink.verbose;
    runner.drive(horizon, every, |r, stop| {
        let path = out_dir.join(format!("x22_t{stop}.ckpt"));
        r.checkpoint().write(&path)?;
        if verbose {
            eprintln!("  [x22] checkpoint: {}", path.display());
        }
        Ok(())
    })?;

    ctx.emit_csv_only("x22_churn_series", &series_table(runner.series()))?;
    ctx.emit(
        "x22_churn_summary",
        &summary_table(n, horizon, spec, runner.series(), runner.sim()),
    )?;
    println!(
        "Read: under symmetric churn the population random-walks around n while the plurality \
         fraction stays pinned near its absorbing value — joins perturb, the dynamics re-absorb. \
         The time-in-consensus fraction is the sharper lens: the *exact* predicate only fires \
         when re-absorption outruns arrival, so it collapses to 0 once the join rate beats \
         O(log n) recovery — at the default rates the soak holds ~99% plurality support while \
         spending ~0% of its time in exact consensus."
    );
    Ok(())
}

fn series_table(series: &[ChurnSample]) -> Table {
    let mut t = Table::new(
        "X22: churn soak series",
        &["t", "population", "plurality_frac", "output"],
    );
    for s in series {
        t.push(vec![
            format!("{:.3}", s.t),
            s.population.to_string(),
            format!("{:.6}", s.plurality_frac),
            s.output.map_or_else(|| "-".to_string(), |o| o.to_string()),
        ]);
    }
    t
}

fn summary_table(
    n: u64,
    horizon: f64,
    spec: ChurnSpec,
    series: &[ChurnSample],
    sim: &BatchSimulation<ThreeState>,
) -> Table {
    let mut t = Table::new(
        "X22: churn soak summary",
        &[
            "n0",
            "horizon",
            "join",
            "leave",
            "samples",
            "final_pop",
            "mean_plurality_frac",
            "time_in_consensus",
        ],
    );
    let samples = series.len();
    let mean_frac = series.iter().map(|s| s.plurality_frac).sum::<f64>() / samples as f64;
    t.push(vec![
        n.to_string(),
        format!("{horizon}"),
        format!("{}", spec.join),
        format!("{}", spec.leave),
        samples.to_string(),
        sim.counts().iter().sum::<u64>().to_string(),
        format!("{mean_frac:.4}"),
        col::time_in_consensus(series),
    ]);
    t
}
