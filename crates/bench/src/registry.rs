//! The experiment registry: every scenario the `xp` driver can run.
//!
//! Scenarios register here by adding their `SCENARIO` constant to the
//! table behind [`scenarios()`]; `xp list`, `xp run` and `xp all` all read
//! this one table.

use std::io;
use std::path::PathBuf;

use crate::harness::ExpOpts;
use crate::scenario::{Ctx, RunFlag, Scenario};
use crate::scenarios;
use crate::sink::Sink;

/// All registered scenarios, in run order.
static SCENARIOS: [Scenario; 24] = [
    scenarios::x01::SCENARIO,
    scenarios::x02::SCENARIO,
    scenarios::x03::SCENARIO,
    scenarios::x04::SCENARIO,
    scenarios::x05::SCENARIO,
    scenarios::x07::SCENARIO,
    scenarios::x08::SCENARIO,
    scenarios::x09::SCENARIO,
    scenarios::x10::SCENARIO,
    scenarios::x11::SCENARIO,
    scenarios::x12::SCENARIO,
    scenarios::x13::SCENARIO,
    scenarios::x14::SCENARIO,
    scenarios::x15::SCENARIO,
    scenarios::x16::SCENARIO,
    scenarios::x17::SCENARIO,
    scenarios::x18::SCENARIO,
    scenarios::x19::SCENARIO,
    scenarios::x20::SCENARIO,
    scenarios::x21::SCENARIO,
    scenarios::x22::SCENARIO,
    scenarios::x23::SCENARIO,
    scenarios::x24::SCENARIO,
    scenarios::x25::SCENARIO,
];

/// The registered scenarios.
pub fn scenarios() -> &'static [Scenario] {
    &SCENARIOS
}

/// Look a scenario up by short name (`x01`) or slug
/// (`x01_simple_scaling`).
pub fn find(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name || s.slug == name)
}

/// One formatted line per scenario, as printed by `xp list`.
pub fn list_lines() -> Vec<String> {
    SCENARIOS
        .iter()
        .map(|s| format!("{:<5} {:<24} {}", s.name, s.slug, s.about))
        .collect()
}

/// The CLI names of the run flags `opts` sets that `scenario` does not
/// honor (see [`Scenario::flags`]).
pub fn refused_flags(scenario: &Scenario, opts: &ExpOpts) -> Vec<&'static str> {
    RunFlag::ALL
        .into_iter()
        .filter(|f| f.is_set(opts) && !scenario.flags.contains(f))
        .map(RunFlag::name)
        .collect()
}

/// Run one scenario end to end: execute the body, then write the run
/// manifest. Returns the manifest path.
///
/// # Errors
///
/// `InvalidInput`, before any trial runs or any file is written, if
/// `opts` sets a flag the scenario does not honor; otherwise propagates
/// I/O failures and output-schema mismatches.
pub fn run(scenario: &Scenario, opts: &ExpOpts) -> io::Result<PathBuf> {
    run_with(scenario, opts, true)
}

/// Like [`run`], but with console tables suppressed — for tests.
///
/// # Errors
///
/// Propagates I/O failures and output-schema mismatches.
pub fn run_quiet(scenario: &Scenario, opts: &ExpOpts) -> io::Result<PathBuf> {
    run_with(scenario, opts, false)
}

fn run_with(scenario: &Scenario, opts: &ExpOpts, verbose: bool) -> io::Result<PathBuf> {
    let refused = refused_flags(scenario, opts);
    if !refused.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} does not honor {}", scenario.name, refused.join(", ")),
        ));
    }
    let mut sink = Sink::new(scenario.name, opts);
    sink.verbose = verbose;
    sink.engine = scenario
        .flags
        .contains(&RunFlag::Engine)
        .then_some(opts.engine);
    {
        let mut ctx = Ctx {
            opts,
            sink: &mut sink,
        };
        (scenario.run)(&mut ctx)?;
    }
    sink.finish(scenario.outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Engine;

    #[test]
    fn registry_round_trip() {
        // The acceptance contract: 24 scenarios, unique names/slugs, each
        // findable under both handles, list output naming all of them.
        assert_eq!(scenarios().len(), 24);
        let mut names: Vec<&str> = scenarios().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 24, "duplicate scenario names");
        let lines = list_lines();
        for s in scenarios() {
            assert!(std::ptr::eq(find(s.name).expect("find by name"), s));
            assert!(std::ptr::eq(find(s.slug).expect("find by slug"), s));
            assert!(!s.outputs.is_empty(), "{} declares no outputs", s.name);
            assert!(!s.about.is_empty());
            assert!(
                lines
                    .iter()
                    .any(|l| l.contains(s.name) && l.contains(s.slug)),
                "{} missing from xp list",
                s.name
            );
        }
        assert!(find("x99").is_none());
    }

    #[test]
    fn flags_a_scenario_does_not_honor_are_refused() {
        let opts = ExpOpts {
            engine: Engine::Seq,
            faults: pp_engine::FaultSpec::parse_list("corrupt@5:0.5").expect("valid"),
            churn: Some("churn:0.05".parse().expect("valid")),
            ..ExpOpts::default()
        };
        let refused = |name| refused_flags(find(name).expect("registered"), &opts);
        assert_eq!(refused("x02"), ["--engine", "--faults", "--churn"]);
        assert_eq!(refused("x13"), ["--churn"]);
        assert_eq!(refused("x24"), ["--engine", "--faults"]);
        assert!(refused_flags(find("x07").expect("registered"), &ExpOpts::default()).is_empty());

        // `--engine` is taken by exactly the scenarios with a table arm;
        // `--engine batch`, the default, counts as unset everywhere.
        let takes_engine: Vec<&str> = scenarios()
            .iter()
            .filter(|s| s.flags.contains(&RunFlag::Engine))
            .map(|s| s.name)
            .collect();
        assert_eq!(
            takes_engine,
            ["x01", "x04", "x10", "x13", "x17", "x18", "x20", "x21", "x23", "x25"]
        );
        let batch = ExpOpts {
            engine: Engine::Batch,
            ..ExpOpts::default()
        };
        for s in scenarios() {
            assert!(refused_flags(s, &batch).is_empty(), "{}", s.name);
        }
    }

    #[test]
    fn slugs_match_legacy_binary_names() {
        // Every name the retired per-experiment binaries had must still
        // resolve, as `xp run <slug>`.
        for legacy in [
            "x01_simple_scaling",
            "x02_state_census",
            "x03_exactness",
            "x04_unordered_scaling",
            "x05_improved_speedup",
            "x07_init",
            "x08_clocks",
            "x09_pruning",
            "x10_majority",
            "x11_leader",
            "x12_dynamics",
            "x13_usd_comparison",
            "x14_ablations",
            "x15_large_k",
            "x16_trajectories",
        ] {
            assert!(find(legacy).is_some(), "legacy name {legacy} unresolvable");
        }
    }
}
