//! `ppd` — the plurality-consensus daemon.
//!
//! Hosts a live population on the batched engine and serves the
//! newline-delimited JSON protocol on plain TCP. See
//! `crates/serve/README.md` for the wire protocol and examples.
//!
//! ```text
//! ppd [--host H] [--port P] [--protocol majority3|majority4|usd:K]
//!     [--n N] [--init C0,C1,...] [--seed S] [--churn SPEC]
//!     [--segment T] [--sample-every T] [--series-cap K]
//!     [--checkpoint FILE] [--checkpoint-secs X] [--resume FILE]
//!     [--workers W] [--lockstep]
//! ```
//!
//! On startup the daemon prints exactly one line to stdout —
//! `ppd listening on ADDR` — and then serves until a `shutdown`
//! request (graceful: drain, final checkpoint, exit 0) or a kill
//! (crash-safe: `--resume` restores the last checkpoint
//! byte-identically).

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use pp_baselines::UsdTable;
use pp_engine::{ChurnSpec, TableProtocol};
use pp_majority::{FourState, ThreeState};
use pp_serve::{ServerHandle, Service, ServiceConfig};

struct Opts {
    host: String,
    port: u16,
    protocol: String,
    n: u64,
    init: Option<Vec<u64>>,
    workers: usize,
    cfg: ServiceConfig,
}

fn usage() -> &'static str {
    "usage: ppd [--host H] [--port P] [--protocol majority3|majority4|usd:K] [--n N]\n\
     \x20          [--init C0,C1,...] [--seed S] [--churn SPEC] [--segment T]\n\
     \x20          [--sample-every T] [--series-cap K] [--checkpoint FILE]\n\
     \x20          [--checkpoint-secs X] [--resume FILE] [--workers W]\n\
     \x20          [--lockstep]"
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        host: "127.0.0.1".to_string(),
        port: 7341,
        protocol: "majority3".to_string(),
        n: 100_000,
        init: None,
        workers: 4,
        cfg: ServiceConfig::default(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--host" => opts.host = value("--host")?,
            "--port" => {
                opts.port = value("--port")?
                    .parse()
                    .map_err(|_| "--port must be 0..65536".to_string())?;
            }
            "--protocol" => opts.protocol = value("--protocol")?,
            "--n" => {
                opts.n = value("--n")?
                    .parse()
                    .map_err(|_| "--n must be a positive integer".to_string())?;
            }
            "--init" => {
                let spec = value("--init")?;
                let counts: Result<Vec<u64>, _> =
                    spec.split(',').map(|c| c.trim().parse()).collect();
                opts.init =
                    Some(counts.map_err(|_| "--init must be comma-separated counts".to_string())?);
            }
            "--seed" => {
                opts.cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "--churn" => {
                let spec = value("--churn")?;
                let spec = if spec.starts_with("churn:") {
                    spec
                } else {
                    format!("churn:{spec}")
                };
                opts.cfg.churn = spec.parse::<ChurnSpec>()?;
            }
            "--segment" => {
                let t: f64 = value("--segment")?
                    .parse()
                    .map_err(|_| "--segment must be a number".to_string())?;
                if !t.is_finite() || t <= 0.0 {
                    return Err("--segment must be finite and positive".to_string());
                }
                opts.cfg.segment = t;
            }
            "--sample-every" => {
                let t: f64 = value("--sample-every")?
                    .parse()
                    .map_err(|_| "--sample-every must be a number".to_string())?;
                if !t.is_finite() || t <= 0.0 {
                    return Err("--sample-every must be finite and positive".to_string());
                }
                opts.cfg.sample_every = t;
            }
            "--series-cap" => {
                opts.cfg.series_cap = value("--series-cap")?
                    .parse()
                    .map_err(|_| "--series-cap must be an integer".to_string())?;
            }
            "--checkpoint" => {
                opts.cfg.checkpoint_path = Some(PathBuf::from(value("--checkpoint")?))
            }
            "--checkpoint-secs" => {
                let x: f64 = value("--checkpoint-secs")?
                    .parse()
                    .map_err(|_| "--checkpoint-secs must be a number".to_string())?;
                if !x.is_finite() || x <= 0.0 {
                    return Err("--checkpoint-secs must be finite and positive".to_string());
                }
                opts.cfg.checkpoint_secs = Some(x);
            }
            "--resume" => opts.cfg.resume = Some(PathBuf::from(value("--resume")?)),
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be a positive integer".to_string())?;
                if opts.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--lockstep" => opts.cfg.lockstep = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(opts)
}

/// A 2:1 split over the protocol's first two opinions (all weight on
/// the first when only one exists) — the default live population.
fn default_init<P: TableProtocol>(protocol: &P, n: u64) -> Result<Vec<u64>, String> {
    let mut init = vec![0u64; protocol.states()];
    let first = protocol
        .opinion_state(1)
        .ok_or("protocol has no opinion 1; pass --init explicitly")?;
    match protocol.opinion_state(2) {
        Some(second) => {
            init[first] = 2 * n / 3;
            init[second] = n - 2 * n / 3;
        }
        None => init[first] = n,
    }
    Ok(init)
}

fn run<P>(protocol: P, mut opts: Opts) -> io::Result<()>
where
    P: TableProtocol + Send + 'static,
{
    opts.cfg.initial = match opts.init.take() {
        Some(init) => {
            if init.len() != protocol.states() {
                return Err(io::Error::other(format!(
                    "--init has {} counts but protocol {} has {} states",
                    init.len(),
                    opts.protocol,
                    protocol.states()
                )));
            }
            init
        }
        None => default_init(&protocol, opts.n).map_err(io::Error::other)?,
    };
    if opts.cfg.resume.is_none() && opts.cfg.initial.iter().sum::<u64>() < 2 {
        return Err(io::Error::other("the population needs at least 2 agents"));
    }

    let service = Service::spawn(protocol, opts.cfg)?;
    let server = ServerHandle::bind(
        &format!("{}:{}", opts.host, opts.port),
        &service,
        opts.workers,
    )?;

    // The one line scripts scrape for the bound address (port 0 picks
    // a free one).
    println!("ppd listening on {}", server.addr());
    io::Write::flush(&mut io::stdout())?;

    server.join();
    service.join();
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.protocol.clone() {
        p if p == "majority3" => run(ThreeState, opts),
        p if p == "majority4" => run(FourState, opts),
        p => match p.strip_prefix("usd:").and_then(|k| k.parse::<u32>().ok()) {
            Some(k) if k >= 1 => run(UsdTable::new(k as usize), opts),
            _ => {
                eprintln!("unknown --protocol {p:?} (majority3, majority4, or usd:K)");
                return ExitCode::from(2);
            }
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ppd: {e}");
            ExitCode::FAILURE
        }
    }
}
