//! Result emission: console tables, CSV files, and the JSON run manifest.
//!
//! Every scenario run goes through one [`Sink`]. Tables are printed and
//! written as CSV exactly as the legacy binaries did; in addition the sink
//! records each table's schema and, on [`Sink::finish`], writes a
//! `<scenario>_manifest.json` next to the CSVs capturing everything needed
//! to reproduce the run: scenario name, base seed, trial count, grid
//! flavour, engine, fault plan, scheduler, thread count, git revision,
//! wall time, and the emitted outputs with their column schemas and row
//! counts.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

use pp_serve::json::escape;
use pp_stats::Table;

use crate::harness::{Engine, ExpOpts};

/// One emitted table, as recorded in the manifest.
struct EmittedTable {
    csv: String,
    title: String,
    columns: Vec<String>,
    rows: usize,
}

/// Collects a scenario run's outputs and writes the run manifest.
pub struct Sink {
    scenario: String,
    opts: ExpOpts,
    started: Instant,
    emitted: Vec<EmittedTable>,
    /// Print tables to stdout (off in tests).
    pub verbose: bool,
    /// The engine the manifest records; `None`, written `null`, for a
    /// scenario that takes no `--engine`.
    pub(crate) engine: Option<Engine>,
}

impl Sink {
    /// A sink for one run of `scenario` under `opts`.
    pub fn new(scenario: &str, opts: &ExpOpts) -> Self {
        Self {
            scenario: scenario.to_string(),
            opts: opts.clone(),
            started: Instant::now(),
            emitted: Vec::new(),
            verbose: true,
            engine: Some(opts.engine),
        }
    }

    /// Print `table` and persist it as `<out>/<csv_name>.csv`, recording
    /// its schema for the manifest.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the CSV write.
    pub fn emit(&mut self, csv_name: &str, table: &Table) -> io::Result<()> {
        if self.verbose {
            table.print();
        }
        self.emit_csv_only(csv_name, table)
    }

    /// Persist and record a table without printing it — for time-series
    /// tables whose row count would flood the console.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the CSV write.
    pub fn emit_csv_only(&mut self, csv_name: &str, table: &Table) -> io::Result<()> {
        table.write_csv(self.opts.csv_path(csv_name))?;
        self.emitted.push(EmittedTable {
            csv: format!("{csv_name}.csv"),
            title: table.title().to_string(),
            columns: table.headers().to_vec(),
            rows: table.len(),
        });
        Ok(())
    }

    /// CSV basenames emitted so far (in order).
    pub fn emitted_names(&self) -> Vec<String> {
        self.emitted
            .iter()
            .map(|t| t.csv.trim_end_matches(".csv").to_string())
            .collect()
    }

    /// Write `<out>/<scenario>_manifest.json` and return its path.
    ///
    /// `declared` is the scenario's declared output schema (CSV basenames);
    /// a mismatch with what was actually emitted is an error — it means
    /// the scenario definition rotted.
    ///
    /// # Errors
    ///
    /// I/O errors from the write, or an output-schema mismatch.
    pub fn finish(self, declared: &[&str]) -> io::Result<PathBuf> {
        let emitted = self.emitted_names();
        if emitted != declared {
            return Err(io::Error::other(format!(
                "scenario '{}' declares outputs {declared:?} but emitted {emitted:?}",
                self.scenario
            )));
        }
        let path = self
            .opts
            .out_dir
            .join(format!("{}_manifest.json", self.scenario));
        fs::create_dir_all(&self.opts.out_dir)?;
        fs::write(&path, self.manifest_json())?;
        if self.verbose {
            eprintln!("  [{}] manifest: {}", self.scenario, path.display());
        }
        Ok(path)
    }

    fn manifest_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"scenario\": {},", escape(&self.scenario));
        let _ = writeln!(out, "  \"seed\": {},", self.opts.seed);
        let _ = writeln!(out, "  \"trials\": {},", self.opts.trials);
        let _ = writeln!(out, "  \"full\": {},", self.opts.full);
        let engine = self
            .engine
            .map_or_else(|| "null".to_string(), |e| escape(e.name()));
        let _ = writeln!(out, "  \"engine\": {engine},");
        let faults = self
            .opts
            .faults
            .iter()
            .map(|f| escape(&f.to_string()))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "  \"faults\": [{faults}],");
        let scheduler = self
            .opts
            .scheduler
            .map_or_else(|| "null".to_string(), |s| escape(&s.to_string()));
        let _ = writeln!(out, "  \"scheduler\": {scheduler},");
        let adversary = self
            .opts
            .adversary
            .map_or_else(|| "null".to_string(), |a| escape(&a.to_string()));
        let _ = writeln!(out, "  \"adversary\": {adversary},");
        let churn = self
            .opts
            .churn
            .map_or_else(|| "null".to_string(), |c| escape(&c.to_string()));
        let _ = writeln!(out, "  \"churn\": {churn},");
        let checkpoint_every = self
            .opts
            .checkpoint_every
            .map_or_else(|| "null".to_string(), |t| t.to_string());
        let _ = writeln!(out, "  \"checkpoint_every\": {checkpoint_every},");
        let resume = self
            .opts
            .resume
            .as_ref()
            .map_or_else(|| "null".to_string(), |p| escape(&p.display().to_string()));
        let _ = writeln!(out, "  \"resume\": {resume},");
        let _ = writeln!(out, "  \"threads\": {},", self.opts.threads);
        let _ = writeln!(
            out,
            "  \"out_dir\": {},",
            escape(&self.opts.out_dir.display().to_string())
        );
        let _ = writeln!(out, "  \"git_rev\": {},", escape(&git_rev()));
        let _ = writeln!(
            out,
            "  \"wall_s\": {:.3},",
            self.started.elapsed().as_secs_f64()
        );
        let _ = writeln!(out, "  \"outputs\": [");
        for (i, t) in self.emitted.iter().enumerate() {
            let cols = t
                .columns
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                out,
                "    {{\"csv\": {}, \"title\": {}, \"columns\": [{}], \"rows\": {}}}",
                escape(&t.csv),
                escape(&t.title),
                cols,
                t.rows
            );
            let _ = writeln!(out, "{}", if i + 1 < self.emitted.len() { "," } else { "" });
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

/// The current git revision, or "unknown" outside a repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_opts(tag: &str) -> ExpOpts {
        ExpOpts {
            out_dir: std::env::temp_dir()
                .join(format!("pp-sink-test-{tag}-{}", std::process::id())),
            ..ExpOpts::default()
        }
    }

    #[test]
    fn emits_csv_and_manifest_with_schema() {
        let opts = temp_opts("ok");
        let mut sink = Sink::new("x99", &opts);
        sink.verbose = false;
        let mut t = Table::new("demo", &["n", "time"]);
        t.push(vec!["10".into(), "1.5".into()]);
        sink.emit("x99_demo", &t).expect("emit");
        let manifest = sink.finish(&["x99_demo"]).expect("finish");
        let json = fs::read_to_string(&manifest).expect("read manifest");
        for needle in [
            "\"scenario\": \"x99\"",
            "\"seed\":",
            "\"git_rev\":",
            "\"wall_s\":",
            "\"faults\": []",
            "\"scheduler\": null",
            "\"adversary\": null",
            "\"churn\": null",
            "\"checkpoint_every\": null",
            "\"resume\": null",
            "\"csv\": \"x99_demo.csv\"",
            "\"columns\": [\"n\", \"time\"]",
            "\"rows\": 1",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert!(opts.csv_path("x99_demo").exists());
        fs::remove_dir_all(&opts.out_dir).ok();
    }

    #[test]
    fn manifest_round_trips_fault_and_scheduler_config() {
        use pp_engine::FaultSpec;
        let mut opts = temp_opts("faults");
        opts.faults = FaultSpec::parse_list("corrupt@50:0.1,inject@80:0.2:2").expect("valid specs");
        opts.scheduler = Some("starve:1:0.5".parse().expect("valid scheduler"));
        opts.adversary = Some("byz:0.05:2".parse().expect("valid adversary"));
        opts.churn = Some("churn:0.01:0.02".parse().expect("valid churn"));
        opts.checkpoint_every = Some(25.0);
        opts.resume = Some(PathBuf::from("/tmp/x22.ckpt"));
        let mut sink = Sink::new("x97", &opts);
        sink.verbose = false;
        let t = Table::new("demo", &["a"]);
        sink.emit("x97_t", &t).expect("emit");
        let manifest = sink.finish(&["x97_t"]).expect("finish");
        let json = fs::read_to_string(&manifest).expect("read manifest");
        // The recorded strings are exactly the CLI spellings, so a manifest
        // can be replayed by pasting them back into --faults/--scheduler.
        for needle in [
            "\"faults\": [\"corrupt@50:0.1\", \"inject@80:0.2:2\"]",
            "\"scheduler\": \"starve:1:0.5\"",
            "\"adversary\": \"byz:0.05:2\"",
            "\"churn\": \"churn:0.01:0.02\"",
            "\"checkpoint_every\": 25",
            "\"resume\": \"/tmp/x22.ckpt\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        for f in &opts.faults {
            let spec: FaultSpec = f.to_string().parse().expect("round-trip");
            assert_eq!(spec, *f);
        }
        fs::remove_dir_all(&opts.out_dir).ok();
    }

    #[test]
    fn output_schema_mismatch_is_an_error() {
        let opts = temp_opts("mismatch");
        let mut sink = Sink::new("x98", &opts);
        sink.verbose = false;
        let t = Table::new("demo", &["a"]);
        sink.emit("x98_only", &t).expect("emit");
        assert!(sink.finish(&["x98_only", "x98_missing"]).is_err());
        fs::remove_dir_all(&opts.out_dir).ok();
    }
}
