//! Property tests for the CLI/manifest spec grammars.
//!
//! Every fault-layer knob is a `Display`/`FromStr` pair — `--faults`,
//! `--scheduler`, `--adversary`, `--churn` and the run manifest all speak
//! the same spellings — so the printed form of any valid spec must parse
//! back to the identical value, and malformed spellings (fractions above
//! one, negative times, unknown kinds) must come back as `Err` usage
//! messages, never panics.

use exact_plurality::engine::{
    AdaptiveStrategy, AdversarySpec, Checkpoint, ChurnSpec, ChurnTarget, FaultSpec, SchedulerSpec,
};
use proptest::prelude::*;

/// Map an integer draw to a fraction in `[0, 1]` with a printable decimal.
fn frac(m: u32) -> f64 {
    f64::from(m) / 1000.0
}

proptest! {
    #[test]
    fn fault_specs_round_trip(
        kind in 0u8..3,
        at_m in 0u32..100_000,
        frac_m in 0u32..=1000,
        opinion in 0u32..10,
    ) {
        let at = f64::from(at_m) / 10.0;
        let frac = frac(frac_m);
        let spec = match kind {
            0 => FaultSpec::Corrupt { at, frac },
            1 => FaultSpec::Inject { at, frac, opinion },
            _ => FaultSpec::Churn { at, frac },
        };
        let printed = spec.to_string();
        prop_assert_eq!(printed.parse::<FaultSpec>(), Ok(spec));
        // The list grammar accepts what the scalar grammar accepts.
        prop_assert_eq!(FaultSpec::parse_list(&printed), Ok(vec![spec]));
    }

    #[test]
    fn scheduler_specs_round_trip(
        kind in 0u8..3,
        opinion in 0u32..10,
        weight_m in 1u32..=1000,
        assort_m in 0u32..=1000,
    ) {
        let spec = match kind {
            0 => SchedulerSpec::Uniform,
            1 => SchedulerSpec::PairBias { assort: frac(assort_m) },
            _ => SchedulerSpec::Starve { opinion, weight: frac(weight_m) },
        };
        let printed = spec.to_string();
        prop_assert_eq!(printed.parse::<SchedulerSpec>(), Ok(spec));
    }

    #[test]
    fn adversary_specs_round_trip(
        kind in 0u8..2,
        frac_m in 0u32..=1000,
        has_opinion in 0u8..2,
        opinion in 0u32..10,
        strategy in 0u8..3,
    ) {
        let spec = match kind {
            0 => AdversarySpec::Byzantine {
                frac: frac(frac_m),
                opinion: (has_opinion == 1).then_some(opinion),
            },
            _ => AdversarySpec::Adaptive {
                frac: frac(frac_m),
                strategy: match strategy {
                    0 => AdaptiveStrategy::BoostRunnerUp,
                    1 => AdaptiveStrategy::SuppressLeader,
                    _ => AdaptiveStrategy::Split,
                },
            },
        };
        let printed = spec.to_string();
        prop_assert_eq!(printed.parse::<AdversarySpec>(), Ok(spec));
    }

    #[test]
    fn churn_specs_round_trip(
        join_m in 0u32..=10_000,
        leave_m in 0u32..=10_000,
        target in 0u8..3,
    ) {
        let spec = ChurnSpec {
            join: frac(join_m),
            leave: frac(leave_m),
            target: match target {
                0 => ChurnTarget::Uniform,
                1 => ChurnTarget::Plurality,
                _ => ChurnTarget::Minority,
            },
        };
        let printed = spec.to_string();
        // `churn:R` folds the symmetric uniform case and targeted specs
        // always print all four fields — every spelling must parse back
        // to the same rates and target.
        prop_assert_eq!(printed.parse::<ChurnSpec>(), Ok(spec));
    }

    /// Corrupting any single byte of a serialized checkpoint (or cutting it
    /// short) must surface as `Err`, never a panic or abort — restore sits
    /// behind `--resume FILE` and eats whatever the filesystem hands it.
    #[test]
    fn mutated_checkpoints_never_panic(pos in 0usize..400, byte in 0u8..=255, cut in 0usize..400) {
        let good = demo_checkpoint_text();
        let mut bytes = good.clone().into_bytes();
        let i = pos % bytes.len();
        bytes[i] = byte;
        if let Ok(text) = String::from_utf8(bytes) {
            // A mutation may happen to stay valid (e.g. rewriting a count
            // digit); the contract is only "no panic", so just run it.
            let _ = Checkpoint::from_text(&text);
        }
        // Cut strictly inside the trimmed body so the `end` marker (or
        // earlier content) is always severed; cutting only the trailing
        // newline would leave a still-valid checkpoint.
        let truncated = &good[..cut % good.trim_end().len()];
        prop_assert!(Checkpoint::from_text(truncated).is_err());
    }
}

/// A small well-formed `ppckpt v1` body for mutation testing.
fn demo_checkpoint_text() -> String {
    let ck = Checkpoint {
        interactions: 12_345,
        interactions_base: 1_000,
        time_base: 1.25,
        rng: [1, 2, 3, u64::MAX],
        counts: vec![0, 600, 400],
        initial: vec![0, 600, 400],
        series: vec![exact_plurality::engine::ChurnSample {
            t: 2.5,
            population: 998,
            plurality_frac: 1.0,
            output: Some(1),
        }],
    };
    ck.to_text()
}

#[test]
fn malformed_specs_are_usage_errors_not_panics() {
    // Fractions above one, negative times/rates, unknown kinds, trailing
    // or missing fields: every one must yield Err, never a panic, and the
    // message must echo the offending input so the CLI error names it.
    let bad_faults = [
        "corrupt@50:1.5",
        "corrupt@-3:0.1",
        "corrupt@nan:0.1",
        "inject@50:0.1",
        "inject@50:0.1:2:9",
        "churn@50:-0.1",
        "meteor@9:0.1",
        "corrupt@50",
        "",
    ];
    for bad in bad_faults {
        assert!(bad.parse::<FaultSpec>().is_err(), "{bad:?} should fail");
    }
    assert!(FaultSpec::parse_list("corrupt@50:0.1,meteor@9:0.1").is_err());

    let bad_schedulers = [
        "starve:1:0",
        "starve:1:1.5",
        "pairbias:2",
        "chaotic",
        "uniform:1",
    ];
    for bad in bad_schedulers {
        assert!(bad.parse::<SchedulerSpec>().is_err(), "{bad:?} should fail");
    }

    let bad_adversaries = [
        "byz:1.5",
        "byz:-0.1",
        "byz",
        "byz:0.1:2:3",
        "byz:0.1:-2",
        "sybil:0.1",
        "adaptive",
        "adaptive:1.5",
        "adaptive:-0.1",
        "adaptive:0.1:warp",
        "adaptive:0.1:boost-runnerup:2",
    ];
    for bad in bad_adversaries {
        assert!(bad.parse::<AdversarySpec>().is_err(), "{bad:?} should fail");
    }

    let bad_churn = [
        "churn:-1",
        "churn:inf",
        "churn:0.1:-0.2",
        "churn",
        "drizzle:0.1",
        "churn:0.1:0.1:everyone",
        // `uniform` is the *absence* of a target — only the 2/3-part
        // spellings denote it, keeping Display∘FromStr canonical.
        "churn:0.1:0.1:uniform",
        "churn:0.1:0.1:plurality:9",
    ];
    for bad in bad_churn {
        assert!(bad.parse::<ChurnSpec>().is_err(), "{bad:?} should fail");
    }
}
