//! The repository benchmark. One command runs one named workload for a
//! fixed window, checks its outputs, and prints the end-to-end metrics
//! (or, with `--trace 1`, the per-layer metrics) as the last stdout line:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload majority-1e8 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `README.md` for why each was chosen and which layer
//! metric should move which end-to-end metric):
//!
//! * `majority-1e8` — 3-state majority at `n = 10⁸` with a planted lead of
//!   `⌈√(n ln n)⌉`, each trial to exact consensus on the batch engine;
//! * `usd-k64` — USD with 64 opinions at `n = 10⁸`, bias one, a fixed
//!   budget of 2 parallel-time units per run;
//! * `paper-improved` — the paper's `ImprovedAlgorithm` on the sequential
//!   engine, each trial to exact consensus;
//! * `ppd-mixed` — the `ppd` service on loopback under an open loop of
//!   queries, ingests and checkpoints. Not in `BENCHMARK.json`, which it
//!   is too unsteady for on a small host; the traced `majority-1e8` run
//!   measures its layers in a short session.
//!
//! `--smoke` shrinks every input to toy size; `--plant-wrong` makes the
//! correctness gate expect a wrong answer, so the run must fail. Both
//! exist for the package's own test.

mod engine;
mod ppd;
mod report;
mod seq;

use std::path::PathBuf;
use std::process::ExitCode;

use pp_baselines::UsdTable;
use pp_majority::ThreeState;
use pp_serve::json::escape;
use pp_workloads::Counts;

use report::Report;

const USAGE: &str = "usage: perfbench --workload <majority-1e8|usd-k64|paper-improved|ppd-mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--plant-wrong]";

/// Per-layer metric families the traced `majority-1e8` run takes from a
/// short `ppd-mixed` session on the service's own configuration.
const SERVICE_LAYERS: &[&str] = &[
    "segment.",
    "checkpoint.",
    "proto.",
    "service.",
    "server.",
    "stats.",
    "gen.",
];

/// What every workload reads from the command line and the host.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub traced: bool,
    /// The engine thread budget `xp` and `ppd` default to: all cores.
    pub threads: usize,
    /// How many times set-up is repeated for `setup_s`.
    pub setup_reps: u64,
    pub plant_wrong: bool,
    /// Scratch space for checkpoints, inside the build directory.
    pub tmp: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    plant_wrong: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut smoke, mut plant_wrong) = (false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be a u64")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            "--smoke" => smoke = true,
            "--plant-wrong" => plant_wrong = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        smoke,
        plant_wrong,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let tmp = PathBuf::from(target).join(format!(
        "perfbench-tmp/{}-{}",
        args.workload,
        std::process::id()
    ));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        threads: cores,
        setup_reps: if args.smoke { 3 } else { 50 },
        plant_wrong: args.plant_wrong,
        tmp,
    };
    let smoke = args.smoke;
    let mut rep = Report::default();
    let service = ppd::Ppd {
        n: if smoke { 10_000 } else { 1_000_000 },
        connections: cores.min(2),
        probe_segments: if smoke { 20 } else { 200 },
    };
    let service_ctx = Ctx {
        setup_reps: if smoke { 2 } else { 15 },
        ..ctx.clone()
    };
    let service_threads = ctx.threads + ppd::SERVER_WORKERS + service.connections;

    // Threads and connections the workload uses, and the offered load.
    let (threads, rate, connections) = match args.workload.as_str() {
        "majority-1e8" => {
            let n: u64 = if smoke { 100_000 } else { 100_000_000 };
            let lead = ((n as f64) * (n as f64).ln()).sqrt().ceil() as u64;
            let b = (n - lead) / 2;
            engine::Workload {
                protocol: ThreeState,
                counts: vec![0, n - b, b],
                goal: engine::Goal::Consensus {
                    expect: 1,
                    max_interactions: 1000 * n,
                },
                gate_batches: if smoke { 500 } else { 20_000 },
                slice_batches: if smoke { 256 } else { 16_384 },
            }
            .run(&ctx, &mut rep);
            if ctx.traced {
                // `ppd-mixed` is not steady enough on a small host to be a
                // benchmark workload, so its layers are measured here: a
                // short loaded session on the service's configuration,
                // which runs this same protocol at n = 10⁶.
                let session_ctx = Ctx {
                    seconds: if smoke { 1.0 } else { 6.0 },
                    ..service_ctx
                };
                let mut session = Report::default();
                run_service(&service, &session_ctx, &mut session);
                rep.absorb(session, SERVICE_LAYERS);
                (service_threads, ppd::RATE, service.connections)
            } else {
                (ctx.threads, 0.0, 0)
            }
        }
        "usd-k64" => {
            let n: usize = if smoke { 100_000 } else { 100_000_000 };
            let table = UsdTable::new(64);
            let counts = table.initial_counts(Counts::bias_one(n, 64).supports());
            engine::Workload {
                protocol: table,
                counts,
                goal: engine::Goal::Budget {
                    interactions: 2 * n as u64,
                },
                gate_batches: if smoke { 50 } else { 400 },
                slice_batches: if smoke { 64 } else { 1024 },
            }
            .run(&ctx, &mut rep);
            (ctx.threads, 0.0, 0)
        }
        "paper-improved" => {
            let (n, k, x_max) = if smoke {
                (1000, 4, 400)
            } else {
                (4000, 8, 1000)
            };
            seq::Paper {
                counts: Counts::one_large(n, k, x_max),
                budget: 4.0e3 * k as f64 + 2.0e4,
            }
            .run(&ctx, &mut rep);
            (1, 0.0, 0)
        }
        "ppd-mixed" => {
            run_service(&service, &service_ctx, &mut rep);
            (service_threads, ppd::RATE, service.connections)
        }
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "provenance: {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"smoke\": {smoke}, \"nproc\": {cores}, \"cpu\": {}, \"threads\": {threads}, \
         \"offered_rate_per_s\": {rate}, \"connections\": {connections}, \"git_rev\": {}, \
         \"source_digest\": {}, \"rustc\": {}}}",
        escape(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        escape(&cpu_model()),
        escape(env!("PERFBENCH_GIT_REV")),
        escape(env!("PERFBENCH_SOURCE_DIGEST")),
        escape(env!("PERFBENCH_RUSTC")),
    );
    print!("{}", rep.render(args.traced));
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run a `ppd-mixed` session with a scratch directory for its
/// checkpoints.
fn run_service(w: &ppd::Ppd, ctx: &Ctx, rep: &mut Report) {
    if let Err(e) = std::fs::create_dir_all(&ctx.tmp) {
        return rep.violation(format!("cannot create {}: {e}", ctx.tmp.display()));
    }
    w.run(ctx, rep);
    let _ = std::fs::remove_dir_all(&ctx.tmp);
}

/// The first CPU model name the kernel reports.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
