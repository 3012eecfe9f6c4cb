//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's contract with its caller and
//! must match `BENCHMARK.json` name for name and unit for unit (the smoke
//! test checks it). Every run emits every metric of its mode. A per-layer
//! metric of a layer the workload never calls reads 0: the layer did no
//! work on that workload.

use std::collections::BTreeMap;

use pp_serve::json::{escape, num};

/// Metrics a user of the system sees, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_rate", "interactions/s"),
    ("solve_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
];

/// Metrics of single layers, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Batch engine, timed per `step_batch` call.
    ("batch.count", "count"),
    ("batch.len_mean", "interactions"),
    ("batch.occupied_mean", "states"),
    ("batch.step_us_p50", "us"),
    ("batch.step_us_p99", "us"),
    ("batch.step_us_t1_p50", "us"),
    ("batch.thread_speedup", "ratio"),
    ("batch.replay_cover_t1", "ratio"),
    ("batch.replay_cover_tn", "ratio"),
    // Phase replay with the engine's public primitives.
    ("birthday.draw_ns", "ns"),
    ("multinomial.root_ns", "ns"),
    ("multinomial.responder_ns", "ns"),
    ("fenwick.sample_ns", "ns"),
    ("fenwick.samples_per_batch", "count"),
    ("fenwick.add_ns", "ns"),
    ("fenwick.adds_per_batch", "count"),
    ("fenwick.rebuild_us", "us"),
    ("tally.cells_per_batch", "count"),
    ("tally.delta_ns", "ns"),
    ("tally.null_mass_frac", "share"),
    ("output.ns", "ns"),
    // Sequential engine.
    ("seq.step_ns", "ns"),
    ("seq.check_us", "us"),
    ("seq.checks", "count"),
    ("seq.check_share", "share"),
    // Segment runner and checkpoints on ppd's configuration.
    ("segment.advance_us_p50", "us"),
    ("segment.advance_us_p99", "us"),
    ("segment.batches_per_segment", "count"),
    ("checkpoint.capture_us", "us"),
    ("checkpoint.encode_us", "us"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    // ppd front end and service.
    ("proto.parse_ns", "ns"),
    ("proto.encode_ns", "ns"),
    ("service.snapshot_ns", "ns"),
    ("service.ctl_ingest_us_p50", "us"),
    ("service.ctl_ingest_us_p99", "us"),
    ("server.query_us_p50", "us"),
    ("server.query_us_p99", "us"),
    ("server.ingest_us_p50", "us"),
    ("server.ingest_us_p99", "us"),
    ("server.residual_us_p50", "us"),
    ("server.residual_us_p99", "us"),
    ("stats.segments_per_s", "1/s"),
    ("stats.requests", "count"),
    ("stats.errors", "count"),
    // The load generator and the trace itself.
    ("gen.late_us_p99", "us"),
    ("trace.overhead", "share"),
];

/// What a run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted: trials, fixed-budget runs or requests.
    pub attempted: u64,
    /// Operations that failed: a wrong answer, an error reply, a timeout,
    /// a refused connection.
    pub failed: u64,
    /// Correctness-gate violations, one line each.
    violations: Vec<String>,
    /// Human-readable lines printed above the result line.
    notes: Vec<String>,
}

impl Report {
    /// Record a metric; the name must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the tables"
        );
        self.values.insert(name, value);
    }

    /// Record a failed correctness check.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Check `cond`; record `what` as a violation when it does not hold.
    pub fn check(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            self.violation(what());
        }
    }

    /// A free-form line for the human-readable part of the output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Take the metrics of `other` whose names start with one of
    /// `families`, and its verdict: its violations and failed requests
    /// become violations here.
    pub fn absorb(&mut self, other: Report, families: &[&str]) {
        for (name, value) in other.values {
            if families.iter().any(|f| name.starts_with(f)) {
                self.values.insert(name, value);
            }
        }
        if other.failed > 0 {
            self.violation(format!(
                "service session: {} of {} requests failed",
                other.failed, other.attempted
            ));
        }
        for v in other.violations {
            self.violation(format!("service session: {v}"));
        }
        for n in other.notes {
            self.note(format!("service session: {n}"));
        }
    }

    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The metric set of one mode, with layers this workload bypassed at
    /// 0, and every value checked finite.
    fn metrics(&mut self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut out = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => {
                    self.violation(format!("end-to-end metric {name} was not measured"));
                    0.0
                }
            };
            if !value.is_finite() {
                self.violation(format!("metric {name} is not finite: {value}"));
            }
            out.push((name, unit, if value.is_finite() { value } else { 0.0 }));
        }
        out
    }

    /// The human-readable metric lines, then the one-line JSON result.
    pub fn render(&mut self, traced: bool) -> String {
        let metrics = self.metrics(traced);
        let mut text = String::new();
        for line in &self.notes {
            text.push_str(line);
            text.push('\n');
        }
        for &(name, unit, value) in &metrics {
            let measured = if traced && !self.values.contains_key(name) {
                "  (layer not on this workload's path)"
            } else {
                ""
            };
            text.push_str(&format!(
                "metric {name:<28} {value:>16.6} {unit}{measured}\n"
            ));
        }
        for v in &self.violations {
            text.push_str(&format!("VIOLATION: {v}\n"));
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|&(name, unit, value)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    escape(name),
                    num(value),
                    escape(unit)
                )
            })
            .collect();
        text.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        ));
        text
    }
}

/// A run cut into slices of about equal work. Each rate and latency
/// percentile is computed per slice and reported as the median over
/// slices, so a burst of noise from the host that slows a few slices
/// does not move it.
#[derive(Debug, Default)]
pub struct Slices {
    rates: Vec<f64>,
    p50: Vec<f64>,
    p95: Vec<f64>,
    p99: Vec<f64>,
}

impl Slices {
    /// Close a slice that did `work` in `secs`, with the latencies in
    /// `lat` (which is cleared).
    pub fn close(&mut self, lat: &mut Vec<f64>, work: f64, secs: f64) {
        if lat.is_empty() || secs <= 0.0 {
            return;
        }
        self.rates.push(work / secs);
        self.p50.push(quantile(lat, 0.5));
        self.p95.push(quantile(lat, 0.95));
        self.p99.push(quantile(lat, 0.99));
        lat.clear();
    }

    /// How many slices closed.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Median work per second.
    pub fn rate(&self) -> f64 {
        median(&self.rates)
    }

    /// Median of the per-slice medians.
    pub fn p50(&self) -> f64 {
        median(&self.p50)
    }

    /// Median of the per-slice 95th percentiles.
    pub fn p95(&self) -> f64 {
        median(&self.p95)
    }

    /// Median of the per-slice 99th percentiles.
    pub fn p99(&self) -> f64 {
        median(&self.p99)
    }
}

/// The unit a metric is reported in, from the tables.
fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// The `q`-quantile of `xs` by nearest rank (`q` in `[0, 1]`); 0 when
/// `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The mean of `xs`; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
