//! `xp` — the experiment driver.
//!
//! One binary for the whole evaluation matrix:
//!
//! ```text
//! xp list                        # registered scenarios
//! xp run x01 [x03 ...] [FLAGS]   # run scenarios by name or slug
//! xp all [--filter SUBSTR] [FLAGS]
//! xp help
//! ```
//!
//! Shared flags are the common experiment flags (`--trials`, `--seed`,
//! `--full`, `--out`, `--threads`, `--engine`). Every run writes its CSV
//! tables plus a `<scenario>_manifest.json` under the output directory.
//! A run flag a scenario does not honor (`--engine seq`, `--faults`,
//! `--churn`, …) is refused before anything runs: `xp run` exits 2, and
//! `xp all` skips that scenario with a note.

use plurality_bench::harness::{self, parse_args, CliError};
use plurality_bench::registry;

const XP_USAGE: &str = "\
xp — declarative experiment driver

USAGE:
  xp list                          list registered scenarios
  xp run <NAME>... [FLAGS]         run scenarios (by short name or slug)
  xp all [--filter SUBSTR] [FLAGS] run all scenarios, optionally filtered
  xp help                          print this help
";

fn main() {
    // `--filter` is xp-specific; extract it before the shared parser.
    let mut filter: Option<String> = None;
    let mut rest = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        if a == "--filter" {
            match raw.next() {
                Some(v) => filter = Some(v),
                None => fail("--filter requires a value"),
            }
        } else {
            rest.push(a);
        }
    }

    let (opts, positional) = match parse_args(rest) {
        Ok(parsed) => parsed,
        Err(CliError(e)) if e == "help" => {
            println!("{XP_USAGE}\n{}", harness::USAGE);
            return;
        }
        Err(e) => fail(&e.0),
    };

    let subcommand = positional.first().map(String::as_str);
    if filter.is_some() && subcommand != Some("all") {
        fail("--filter only applies to `xp all`");
    }
    match subcommand {
        Some("list") | Some("ls") => {
            if positional.len() > 1 {
                fail(&format!(
                    "unexpected argument '{}' (did you mean `xp run {}`?)",
                    positional[1], positional[1]
                ));
            }
            for line in registry::list_lines() {
                println!("{line}");
            }
        }
        Some("run") => {
            let names = &positional[1..];
            if names.is_empty() {
                fail("xp run needs at least one scenario name");
            }
            let scenarios: Vec<_> = names
                .iter()
                .map(|name| {
                    registry::find(name).unwrap_or_else(|| {
                        fail(&format!("unknown scenario '{name}' (see `xp list`)"))
                    })
                })
                .collect();
            for s in &scenarios {
                let refused = registry::refused_flags(s, &opts);
                if !refused.is_empty() {
                    fail(&format!("{} does not honor {}", s.name, refused.join(", ")));
                }
            }
            for s in scenarios {
                run_one(s, &opts);
            }
        }
        Some("all") => {
            if positional.len() > 1 {
                fail(&format!("unexpected argument '{}'", positional[1]));
            }
            let matches = |s: &plurality_bench::Scenario| {
                filter
                    .as_deref()
                    .is_none_or(|f| s.name.contains(f) || s.slug.contains(f) || s.about.contains(f))
            };
            let selected: Vec<_> = registry::scenarios()
                .iter()
                .filter(|s| matches(s))
                .collect();
            if selected.is_empty() {
                fail(&format!(
                    "--filter '{}' matches no scenario (see `xp list`)",
                    filter.as_deref().unwrap_or("")
                ));
            }
            for s in selected {
                let refused = registry::refused_flags(s, &opts);
                if refused.is_empty() {
                    run_one(s, &opts);
                } else {
                    eprintln!(
                        "note: skipping {}: it does not honor {}",
                        s.name,
                        refused.join(", ")
                    );
                }
            }
        }
        Some("help") => println!("{XP_USAGE}\n{}", harness::USAGE),
        Some(other) => fail(&format!("unknown subcommand '{other}'")),
        None => fail("missing subcommand"),
    }
}

fn run_one(s: &plurality_bench::Scenario, opts: &plurality_bench::ExpOpts) {
    println!("\n==== {} ({}) ====", s.name, s.slug);
    if let Err(e) = registry::run(s, opts) {
        eprintln!("error: {}: {e}", s.slug);
        std::process::exit(1);
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{XP_USAGE}\n{}", harness::USAGE);
    std::process::exit(2);
}
