//! X19 — the paper's protocols under adversarial execution.
//!
//! The paper's analysis assumes the uniform random scheduler. This
//! scenario stresses the exact-plurality protocols (simple and unordered)
//! on the sequential engine under three departures from that assumption:
//!
//! * `starve:1:0.25` — agents advocating the plurality opinion participate
//!   at a quarter of the uniform rate (an adversary throttling exactly the
//!   interactions the winner needs);
//! * `pairbias:0.5` — half of all pairings are forced like-with-like,
//!   starving the cross-opinion tournaments;
//! * `inject@2000:0.1` — mid-run injection of fresh runner-up supporters
//!   (10% of the population re-enters advocating opinion 2).
//!
//! The schedulers preserve the protocols' correctness argument (every pair
//! still interacts infinitely often, only the rates change), so the
//! interesting output is the slowdown and — for the injection row — whether
//! the tournament recovers its winner after the electorate shifts.

use std::io;

use plurality_core::Algorithm;
use pp_engine::{FaultSpec, SchedulerSpec};
use pp_workloads::Workload;

use crate::arm;
use crate::scenario::{col, Ctx, GridPoint, RunFlag, Scenario, Study};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x19",
    slug: "x19_adversarial_execution",
    about: "Simple/unordered under starving and pair-biased schedulers plus mid-run injection",
    outputs: &["x19_adversarial_execution"],
    flags: RunFlag::TRIAL,
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let n = if ctx.full() { 1001 } else { 401 };
    let workload = Workload::BiasOne { n, k: 3 };
    let budget = 500_000.0;

    let base = || GridPoint::new(workload.clone(), budget);
    let points = [
        base().tag("uniform"),
        base().tag("starve").scheduler(SchedulerSpec::Starve {
            opinion: 1,
            weight: 0.25,
        }),
        base()
            .tag("pairbias")
            .scheduler(SchedulerSpec::PairBias { assort: 0.5 }),
        base().tag("inject").faults(vec![FaultSpec::Inject {
            at: 2_000.0,
            frac: 0.1,
            opinion: 2,
        }]),
    ];

    Study::new(
        "X19: exact plurality under adversarial schedulers and injection",
        "x19_adversarial_execution",
    )
    .points(points)
    .arm(arm::protocol(Algorithm::Simple))
    .arm(arm::protocol(Algorithm::Unordered))
    .cols(vec![
        col::tag("regime"),
        col::arm("algo"),
        col::n(),
        col::ok_frac(),
        col::median(1),
        col::recovery(1),
        col::survived(),
    ])
    .run(ctx)?;

    println!(
        "Read: the biased schedulers slow the tournaments without breaking them (the \
         correctness argument only needs every pair to keep meeting), while mid-run \
         injection forces a genuine re-election — recovery is the time the tournament \
         needs to re-settle after the electorate shifts."
    );
    Ok(())
}
