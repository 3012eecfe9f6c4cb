//! Toy-size runs of every workload. Each must print, as its last line,
//! every metric `BENCHMARK.json` names for its mode, with that metric's
//! unit and a finite value; and the correctness gate must trip when a
//! run is told to expect a wrong answer.

use std::path::{Path, PathBuf};
use std::process::Command;

use pp_serve::json::Json;

const WORKLOADS: [&str; 4] = ["majority-1e8", "usd-k64", "paper-improved", "ppd-mixed"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits one level below the repository root")
        .to_path_buf()
}

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s lists.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = bench.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one toy-size workload; returns whether it exited 0 and its result
/// line.
fn run(workload: &str, trace: &str, extra: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .args(extra)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .current_dir(repo_root())
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last)
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}):\n{stdout}"));
    (out.status.success(), result)
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(list);
        for workload in WORKLOADS {
            let (ok, result) = run(workload, trace, &[]);
            assert!(ok, "{workload} trace {trace} failed: {result:?}");
            let Json::Obj(fields) = &result else {
                panic!("{workload}: result is not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object")
            };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let declared: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, declared, "{workload} trace {trace}");
            for ((name, value), (_, unit)) in metrics.iter().zip(&want) {
                assert_eq!(
                    value.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{workload}: unit of {name}"
                );
                let v = value.get("value").and_then(Json::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
            }
        }
    }
}

#[test]
fn the_gate_trips_on_a_planted_wrong_expectation() {
    for workload in WORKLOADS {
        let (ok, result) = run(workload, "0", &["--plant-wrong"]);
        assert!(!ok, "{workload} exited 0 with a wrong expectation");
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(false),
            "{workload}"
        );
    }
}
