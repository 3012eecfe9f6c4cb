//! The registered experiment bodies (one module per scenario).
//!
//! Each module exposes a `SCENARIO` constant collected by
//! [`crate::registry`]. Grid-shaped experiments are declarative
//! [`Study`] definitions; observational
//! experiments (snapshot invariants, trajectories) drive simulations by
//! hand through [`Ctx`] and still get uniform CLI,
//! threading, seeding and manifest emission.

use std::io;

use crate::arm;
use crate::scenario::{col, Ctx, GridPoint, Study};
use pp_workloads::Workload;

pub mod x01;
pub mod x02;
pub mod x03;
pub mod x04;
pub mod x05;
pub mod x07;
pub mod x08;
pub mod x09;
pub mod x10;
pub mod x11;
pub mod x12;
pub mod x13;
pub mod x14;
pub mod x15;
pub mod x16;
pub mod x17;
pub mod x18;
pub mod x19;
pub mod x20;
pub mod x21;
pub mod x22;
pub mod x23;
pub mod x24;
pub mod x25;

/// The shared USD baseline arm for the scaling experiments (x01/x04):
/// undecided-state dynamics on the same bias-1 inputs, extended to
/// `n = 10⁸` under `--full`. One declarative study — the engine cap under
/// `--engine seq` is enforced by the arm itself.
pub(crate) fn usd_baseline(
    ctx: &mut Ctx,
    experiment: &str,
    csv: &str,
    mut grid: Vec<usize>,
    k: usize,
    stream_base: u64,
) -> io::Result<()> {
    if ctx.full() {
        grid.extend([1_000_000, 100_000_000]);
    }
    Study::new(
        format!(
            "{experiment}-baseline: USD on bias-1 inputs ({} engine)",
            ctx.opts.engine.name()
        ),
        csv,
    )
    .stream_base(stream_base)
    .skip_unconverged()
    .points(
        grid.into_iter()
            .map(|n| GridPoint::new(Workload::BiasOne { n, k }, 1.0e4)),
    )
    .arm(arm::usd())
    .cols(vec![
        col::n(),
        col::k(),
        col::engine(),
        col::ok_frac(),
        col::median(1),
        col::mean(1),
        col::ci95(1),
        col::derived("t/ln n", |r| {
            format!("{:.2}", r.median() / (r.n() as f64).ln())
        }),
    ])
    .run(ctx)
    .map(|_| ())
}
