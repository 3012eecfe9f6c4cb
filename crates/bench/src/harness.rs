//! CLI options and trial execution for the experiment driver.
//!
//! The `xp` driver's flag grammar, parsed by [`parse_args`] into an
//! [`ExpOpts`] plus positional arguments. Parsing never panics: malformed
//! input yields a [`CliError`] which `xp` reports with the [`USAGE`] dump
//! and exit code 2.

use std::path::PathBuf;

use pp_engine::ensemble;
use pp_engine::{AdversarySpec, ChurnSpec, FaultSpec, SchedulerSpec};

/// Which simulation engine an experiment's table-protocol arms run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The sequential per-agent scheduler (`pp_engine::Simulation`), via
    /// `pp_engine::SeqTable` — the A/B reference, capped at moderate `n`.
    Seq,
    /// The batched configuration-space engine
    /// (`pp_engine::BatchSimulation`) — the default: it is the only way to
    /// reach the `n = 10⁸` grids.
    #[default]
    Batch,
}

impl Engine {
    /// Display label (matches the CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Seq => "seq",
            Engine::Batch => "batch",
        }
    }

    /// Parse the CLI spelling.
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "seq" => Ok(Engine::Seq),
            "batch" => Ok(Engine::Batch),
            other => Err(CliError(format!(
                "--engine must be 'seq' or 'batch', got '{other}'"
            ))),
        }
    }
}

/// A CLI parsing failure (unknown flag, missing or malformed value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage dump shared by every experiment binary.
pub const USAGE: &str = "\
Common experiment flags:
  --trials N                 trials per configuration (default 10)
  --seed S                   base seed; trial i derives its own stream
  --full                     run the larger (slower) grid
  --out DIR                  output directory for CSV + manifest (default results/)
  --threads T                worker threads for concurrent trials (default:
                             all cores); results are byte-identical at any T
  --engine {seq,batch}       engine for table-protocol arms (default batch)
  --faults SPEC[,SPEC..]     fault hooks, e.g. corrupt@50:0.1 inject@50:0.1:2
                             churn@50:0.05 (overrides scenario defaults)
  --scheduler SPEC           scheduler: uniform, starve:OP:W, pairbias:A
  --adversary SPEC           Byzantine liars: byz:FRAC, byz:FRAC:OPINION, or
                             census-driven adaptive:FRAC[:STRATEGY] with
                             STRATEGY one of boost-runnerup (default),
                             suppress-leader, split
  --churn SPEC               steady-state churn: churn:JOIN or churn:JOIN:LEAVE
                             (rates per agent per unit parallel time); add
                             :plurality or :minority to aim departures at the
                             leading/weakest opinion class
  --checkpoint-every T       write an engine checkpoint every T parallel time
                             (checkpoint-capable scenarios only)
  --resume FILE              resume a checkpoint-capable scenario from FILE
  --help                     print this help
A scenario that cannot honor --engine seq, --faults, --scheduler, --adversary,
--churn, --checkpoint-every or --resume refuses it by name before its first
trial.";

/// Options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// Trials per configuration.
    pub trials: usize,
    /// Base seed; trial `i` derives its own stream.
    pub seed: u64,
    /// Run the larger (slower) grid.
    pub full: bool,
    /// Output directory for CSV files and run manifests.
    pub out_dir: PathBuf,
    /// Worker threads for concurrent trials.
    pub threads: usize,
    /// Engine for table-protocol arms.
    pub engine: Engine,
    /// Fault hooks applied to every trial (overrides scenario defaults
    /// when non-empty).
    pub faults: Vec<FaultSpec>,
    /// Interaction scheduler override for every trial.
    pub scheduler: Option<SchedulerSpec>,
    /// Byzantine adversary override for every trial.
    pub adversary: Option<AdversarySpec>,
    /// Steady-state churn override (churn-capable scenarios only).
    pub churn: Option<ChurnSpec>,
    /// Parallel time between engine checkpoints (checkpoint-capable
    /// scenarios only).
    pub checkpoint_every: Option<f64>,
    /// Checkpoint file to resume from (checkpoint-capable scenarios only).
    pub resume: Option<PathBuf>,
}

impl Default for ExpOpts {
    fn default() -> Self {
        Self {
            trials: 10,
            seed: 0x000E_1AB0_7A7E,
            full: false,
            out_dir: PathBuf::from("results"),
            threads: ensemble::default_threads(),
            engine: Engine::default(),
            faults: Vec::new(),
            scheduler: None,
            adversary: None,
            churn: None,
            checkpoint_every: None,
            resume: None,
        }
    }
}

/// Parse an argument list into options plus positional (non-flag)
/// arguments, without touching the process environment — the unit-testable
/// core of every binary's CLI.
///
/// A `--help` anywhere yields `CliError("help")`, which callers special-
/// case to print usage and exit 0.
///
/// # Errors
///
/// Returns a [`CliError`] naming the offending flag or value.
pub fn parse_args<I>(args: I) -> Result<(ExpOpts, Vec<String>), CliError>
where
    I: IntoIterator<Item = String>,
{
    let mut opts = ExpOpts::default();
    let mut positional = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .ok_or_else(|| CliError(format!("{name} requires a value")))
        };
        fn parse_num<T: std::str::FromStr>(name: &str, v: String) -> Result<T, CliError> {
            v.parse()
                .map_err(|_| CliError(format!("{name} expects a number, got '{v}'")))
        }
        match arg.as_str() {
            "--help" | "-h" => return Err(CliError("help".into())),
            "--trials" => opts.trials = parse_num("--trials", take("--trials")?)?,
            "--seed" => opts.seed = parse_num("--seed", take("--seed")?)?,
            "--full" => opts.full = true,
            "--out" => opts.out_dir = PathBuf::from(take("--out")?),
            "--threads" => opts.threads = parse_num("--threads", take("--threads")?)?,
            "--engine" => opts.engine = Engine::parse(&take("--engine")?)?,
            "--faults" => {
                opts.faults = FaultSpec::parse_list(&take("--faults")?).map_err(CliError)?;
            }
            "--scheduler" => {
                opts.scheduler = Some(take("--scheduler")?.parse().map_err(CliError)?);
            }
            "--adversary" => {
                opts.adversary = Some(take("--adversary")?.parse().map_err(CliError)?);
            }
            "--churn" => {
                opts.churn = Some(take("--churn")?.parse().map_err(CliError)?);
            }
            "--checkpoint-every" => {
                let t: f64 = parse_num("--checkpoint-every", take("--checkpoint-every")?)?;
                if !t.is_finite() || t <= 0.0 {
                    return Err(CliError("--checkpoint-every must be positive".into()));
                }
                opts.checkpoint_every = Some(t);
            }
            "--resume" => opts.resume = Some(PathBuf::from(take("--resume")?)),
            other if other.starts_with('-') => {
                return Err(CliError(format!("unknown flag {other}")));
            }
            _ => positional.push(arg),
        }
    }
    if opts.trials == 0 {
        return Err(CliError("--trials must be at least 1".into()));
    }
    if opts.threads == 0 {
        return Err(CliError("--threads must be at least 1".into()));
    }
    Ok((opts, positional))
}

impl ExpOpts {
    /// Run `trials` independent trials in parallel; `f` receives the
    /// derived per-trial seed.
    pub fn run_trials<R: Send>(&self, stream: u64, f: impl Fn(u64) -> R + Sync) -> Vec<R> {
        let base = pp_engine::rng::derive(self.seed, stream);
        ensemble::run_trials(self.trials, self.threads, |i| {
            f(pp_engine::rng::derive(base, i as u64))
        })
    }

    /// CSV path for an experiment table.
    pub fn csv_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(format!("{name}.csv"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn defaults_are_sane() {
        let o = ExpOpts::default();
        assert!(o.trials > 0);
        assert!(o.threads >= 1);
        assert!(!o.full);
    }

    type OptsCheck = fn(&ExpOpts, &[String]) -> bool;

    #[test]
    fn parse_args_table() {
        // (argv, expected outcome)
        let ok_cases: &[(&[&str], OptsCheck)] = &[
            (&[], |o, p| o.trials == 10 && p.is_empty()),
            (&["--trials", "3"], |o, _| o.trials == 3),
            (&["--seed", "42", "--full"], |o, _| o.seed == 42 && o.full),
            (&["--engine", "seq"], |o, _| o.engine == Engine::Seq),
            (&["--engine", "batch"], |o, _| o.engine == Engine::Batch),
            (&["--out", "/tmp/x"], |o, _| {
                o.out_dir == std::path::Path::new("/tmp/x")
            }),
            (&["--faults", "corrupt@50:0.1,churn@80:0.05"], |o, _| {
                o.faults.len() == 2 && o.faults[0].to_string() == "corrupt@50:0.1"
            }),
            (&["--scheduler", "starve:1:0.5"], |o, _| {
                o.scheduler.map(|s| s.to_string()) == Some("starve:1:0.5".into())
            }),
            (&["--scheduler", "uniform"], |o, _| o.scheduler.is_some()),
            (&["--adversary", "byz:0.1"], |o, _| {
                o.adversary.map(|a| a.to_string()) == Some("byz:0.1".into())
            }),
            (&["--adversary", "byz:0.05:2"], |o, _| {
                o.adversary.map(|a| a.to_string()) == Some("byz:0.05:2".into())
            }),
            (&["--churn", "churn:0.01"], |o, _| {
                o.churn.map(|c| c.to_string()) == Some("churn:0.01".into())
            }),
            (&["--churn", "churn:0.02:0.01"], |o, _| {
                o.churn
                    == Some(ChurnSpec {
                        join: 0.02,
                        leave: 0.01,
                        ..ChurnSpec::default()
                    })
            }),
            (&["--adversary", "adaptive:0.1"], |o, _| {
                o.adversary.map(|a| a.to_string()) == Some("adaptive:0.1:boost-runnerup".into())
            }),
            (&["--adversary", "adaptive:0.05:split"], |o, _| {
                o.adversary.map(|a| a.to_string()) == Some("adaptive:0.05:split".into())
            }),
            (&["--churn", "churn:0.01:0.02:plurality"], |o, _| {
                o.churn.map(|c| c.to_string()) == Some("churn:0.01:0.02:plurality".into())
            }),
            (&["--churn", "churn:0:0.01:minority"], |o, _| {
                o.churn.map(|c| c.to_string()) == Some("churn:0:0.01:minority".into())
            }),
            (&["--checkpoint-every", "25"], |o, _| {
                o.checkpoint_every == Some(25.0)
            }),
            (&["--resume", "/tmp/x22.ckpt"], |o, _| {
                o.resume == Some(PathBuf::from("/tmp/x22.ckpt"))
            }),
            (&["run", "x01", "--trials", "2"], |o, p| {
                o.trials == 2 && p == ["run".to_string(), "x01".to_string()]
            }),
        ];
        for (args, check) in ok_cases {
            let (opts, positional) =
                parse_args(argv(args)).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert!(check(&opts, &positional), "{args:?}");
        }

        let err_cases: &[(&[&str], &str)] = &[
            (&["--trials"], "--trials requires a value"),
            (&["--trials", "abc"], "--trials expects a number, got 'abc'"),
            (&["--trials", "0"], "--trials must be at least 1"),
            (&["--threads", "0"], "--threads must be at least 1"),
            (&["--engine", "warp"], "'warp'"),
            (&["--engine", "pairwise"], "'pairwise'"),
            (&["--faults", "meteor@9"], "meteor@9"),
            (&["--scheduler", "chaotic"], "chaotic"),
            (&["--adversary", "byz:1.5"], "byz:1.5"),
            (&["--adversary", "sybil:0.1"], "sybil:0.1"),
            (&["--churn", "churn:-1"], "churn:-1"),
            (&["--churn", "drizzle:0.1"], "drizzle:0.1"),
            (&["--adversary", "adaptive:0.1:warp"], "adaptive:0.1:warp"),
            (
                &["--churn", "churn:0.1:0.1:everyone"],
                "churn:0.1:0.1:everyone",
            ),
            (&["--checkpoint-every", "0"], "must be positive"),
            (&["--checkpoint-every", "-3"], "must be positive"),
            (&["--resume"], "--resume requires a value"),
            (&["--bogus"], "unknown flag --bogus"),
            (&["--help"], "help"),
            (&["-h"], "help"),
        ];
        for (args, want) in err_cases {
            let err = parse_args(argv(args)).expect_err(&format!("{args:?} should fail"));
            assert!(err.0.contains(want), "{args:?}: got '{}'", err.0);
        }
    }

    #[test]
    fn trial_seeds_differ_across_streams() {
        let o = ExpOpts::default();
        let a = o.run_trials(1, |s| s);
        let b = o.run_trials(2, |s| s);
        assert_ne!(a, b);
        // Deterministic given the same stream.
        assert_eq!(a, o.run_trials(1, |s| s));
    }
}
