//! X23 — survivable *adaptive* lying fraction, head-to-head with x21.
//!
//! X21's Byzantine liars pick their forgery once (the runner-up at time
//! zero) and never look again. An adaptive adversary re-reads the opinion
//! census every batch/stride and re-aims: `boost-runnerup` forges
//! whichever opinion is *currently* second (so the lie pressure follows
//! the race), `suppress-leader` forges the weakest non-leading opinion
//! (starving the front-runner of recruitment targets), and `split` forges
//! the top two opinions with a fair coin (maximizing sustained
//! disagreement). This scenario runs the x21 sweep four times — fixed
//! lies plus the three adaptive strategies — on the same grid, seeds and
//! protocols, so every row is directly comparable to its x21 counterpart:
//! at equal fraction, adaptive lies must be *no less* damaging than fixed
//! ones, and the gap is the price of adaptivity.
//!
//! The mechanism worth watching: a fixed runner-up forgery becomes
//! harmless the moment the runner-up's support dies out (the forged
//! opinion no longer maps to a live state and the adversary degrades to
//! honesty), while `boost-runnerup` re-aims at whatever still lives —
//! it keeps the exact predicate suppressed long after the fixed liar has
//! gone quiet.

use std::io;

use plurality_core::Algorithm;
use pp_engine::{AdaptiveStrategy, AdversarySpec};
use pp_majority::{four_state_counts, FourState, ThreeState};
use pp_workloads::Counts;

use crate::arm;
use crate::scenario::{col, Ctx, GridPoint, RunFlag, Scenario, Study};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x23",
    slug: "x23_adaptive_tolerance",
    about: "Survivable adaptive lying fraction vs x21's fixed lies, per strategy",
    outputs: &["x23_adaptive_tolerance"],
    flags: RunFlag::TABLE_TRIAL,
    run,
};

/// The adversary kinds swept side by side (sweep label, spec builder).
fn adversary(kind: &str, frac: f64) -> AdversarySpec {
    match kind {
        "fixed" => AdversarySpec::Byzantine {
            frac,
            opinion: Some(2),
        },
        "boost-runnerup" => AdversarySpec::Adaptive {
            frac,
            strategy: AdaptiveStrategy::BoostRunnerUp,
        },
        "suppress-leader" => AdversarySpec::Adaptive {
            frac,
            strategy: AdaptiveStrategy::SuppressLeader,
        },
        _ => AdversarySpec::Adaptive {
            frac,
            strategy: AdaptiveStrategy::Split,
        },
    }
}

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let n = if ctx.full() { 2_001 } else { 601 };
    let counts = Counts::geometric(n, 2, 0.5);
    // The x21 sweep, minus the honest baseline (x21 already pins it).
    let fracs = [0.002, 0.005, 0.01, 0.02, 0.05];
    let kinds = ["fixed", "boost-runnerup", "suppress-leader", "split"];

    Study::new(
        "X23: convergence and correctness vs adaptive lying fraction",
        "x23_adaptive_tolerance",
    )
    .points(kinds.into_iter().flat_map(|kind| {
        let counts = counts.clone();
        fracs.into_iter().map(move |frac| {
            GridPoint::new(counts.clone(), 2_000.0)
                .sweep(kind)
                .tag(format!("{frac}"))
                .adversary(adversary(kind, frac))
        })
    }))
    .arm(arm::usd())
    .arm(arm::table("3-state", |c: &Counts| {
        (
            ThreeState,
            vec![0, c.support(1) as u64, c.support(2) as u64],
        )
    }))
    .arm(arm::table("4-state", |c: &Counts| {
        (
            FourState,
            four_state_counts(c.support(1) as u64, c.support(2) as u64),
        )
    }))
    // The paper's tournament needs its usual Θ(log n · log n) headroom.
    .arm_with(arm::protocol(Algorithm::Simple), Some(500_000.0), None)
    .cols(vec![
        col::sweep(),
        col::tag("frac"),
        col::arm("protocol"),
        col::n(),
        col::engine(),
        col::ok_frac(),
        col::rate(2),
        col::median(1),
    ])
    .run(ctx)?;

    println!(
        "Read: compare each (frac, protocol) row against x21 — at equal fraction the adaptive \
         strategies are never gentler than the fixed runner-up forgery, and boost-runnerup is \
         the cruelest: a fixed lie falls silent once its target opinion dies out, while the \
         census-driven liar re-aims at whatever is still alive and keeps the exact predicate \
         suppressed. Split sustains two-sided disagreement instead, which mostly taxes the \
         protocols with exact absorption predicates."
    );
    Ok(())
}
