//! X21 — survivable Byzantine lying fraction per protocol.
//!
//! A Byzantine participant reports a forged opinion while keeping its own
//! state, so every lie perturbs an honest agent's transition. Against
//! protocols with *exact* output predicates this is brutal: the predicate
//! only fires when zero agents are perturbed at a check instant, which
//! stops happening once the expected number of concurrently-poisoned
//! agents (`∝ frac · n`) exceeds a handful. This scenario sweeps the
//! lying fraction with the forgery fixed to the runner-up opinion — the
//! worst-case direction — and reports, per protocol, the convergence and
//! correctness rates: the *survivable fraction* is the largest sweep value
//! at which a protocol still converges correctly in (almost) every trial.
//!
//! The interesting contrast: USD and the 3-state majority merely slow
//! down until lies outpace recruitment; the 4-state exact majority's
//! `#strong_A − #strong_B` token invariant is *not* preserved by forged
//! interactions, so it converges *wrong* rather than late; and the
//! paper's simple protocol is the most tolerant of the four — a forged
//! opinion materializes as a fresh initial-state agent, and meeting
//! fresh-looking stragglers is exactly what the tournament's counter
//! machinery is built to absorb.

use std::io;

use plurality_core::Algorithm;
use pp_engine::AdversarySpec;
use pp_majority::{four_state_counts, FourState, ThreeState};
use pp_workloads::{Counts, Workload};

use crate::arm;
use crate::scenario::{col, Ctx, GridPoint, RunFlag, Scenario, Study};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x21",
    slug: "x21_byzantine_tolerance",
    about: "Survivable Byzantine lying fraction (USD, 3-/4-state, simple)",
    outputs: &["x21_byzantine_tolerance"],
    flags: RunFlag::TABLE_TRIAL,
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let n = if ctx.full() { 2_001 } else { 601 };
    let workload = Workload::Geometric {
        n,
        k: 2,
        ratio: 0.5,
    };
    let fracs = [0.0, 0.002, 0.005, 0.01, 0.02, 0.05];

    Study::new(
        "X21: convergence and correctness vs Byzantine lying fraction",
        "x21_byzantine_tolerance",
    )
    .points(fracs.into_iter().map(|frac| {
        let p = GridPoint::new(workload.clone(), 2_000.0).tag(format!("{frac}"));
        if frac > 0.0 {
            // Liars forge the runner-up opinion — the direction that
            // fights the plurality hardest.
            p.adversary(AdversarySpec::Byzantine {
                frac,
                opinion: Some(2),
            })
        } else {
            p
        }
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
        "Read: each protocol's survivable fraction is the largest frac whose ok/correct rates \
         stay near 1. The 4-state exact majority breaks first — and converges *wrong*, its \
         token invariant does not survive forged interactions — the 3-state majority next, \
         then USD; the simple tournament outlasts them all, since forged opinions materialize \
         as fresh initial-state agents, which its counters already absorb."
    );
    Ok(())
}
