//! Crash-safe checkpoint/restore for the batched engine.
//!
//! A [`Checkpoint`] captures everything a run needs to resume
//! byte-identically: the per-state counts, the raw RNG state, the folded
//! parallel clock, the initial distribution (churn rejoins draw from it)
//! and any [`ChurnSample`] series accumulated so far. Restoring rebuilds
//! the engine and replays the *exact* RNG trajectory the checkpointed run
//! would have taken — the engine's churned/faulted loops only cut at
//! natural batch boundaries, so a killed-and-resumed run produces the
//! same CSV as an uninterrupted one.
//!
//! The on-disk format is a versioned line-based text file (`ppckpt v1`).
//! Floats are serialized as their IEEE-754 bit patterns, never decimal, so
//! the clock and series survive the round trip bit-exactly. Its `engine`
//! line is always `engine batch` and its `states` line (per-agent states,
//! which the batched engine has none of) always `states 0`; a file with
//! any other value is refused.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::batch::{BatchSimulation, TableProtocol};
use crate::result::ChurnSample;

/// Format magic + version of the current writer.
const HEADER: &str = "ppckpt v1";

/// A point-in-time engine snapshot, restorable byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Interactions executed so far.
    pub interactions: u64,
    /// Interactions folded into `time_base`.
    pub interactions_base: u64,
    /// Parallel time accumulated before `interactions_base`.
    pub time_base: f64,
    /// Raw xoshiro256++ state.
    pub rng: [u64; 4],
    /// Per-state counts.
    pub counts: Vec<u64>,
    /// The run's initial distribution (churn joins draw from it).
    pub initial: Vec<u64>,
    /// Churn series accumulated up to the snapshot.
    pub series: Vec<ChurnSample>,
}

impl Checkpoint {
    /// Snapshot a batched engine mid-run.
    pub fn of_batch<P: TableProtocol>(
        sim: &BatchSimulation<P>,
        initial: &[u64],
        series: &[ChurnSample],
    ) -> Self {
        let (interactions, interactions_base, time_base) = sim.clock_parts();
        Self {
            interactions,
            interactions_base,
            time_base,
            rng: sim.rng_state(),
            counts: sim.counts().to_vec(),
            initial: initial.to_vec(),
            series: series.to_vec(),
        }
    }

    /// Check the snapshot against the protocol it is being restored into,
    /// so a mismatched or hand-corrupted file surfaces as an error instead
    /// of tripping an engine-constructor assertion.
    fn check_restore(&self, states: usize) -> io::Result<()> {
        let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        if self.counts.len() != states {
            return Err(bad(format!(
                "checkpoint has {} states, protocol has {states}",
                self.counts.len()
            )));
        }
        let n = self
            .counts
            .iter()
            .try_fold(0u64, |n, &c| n.checked_add(c))
            .ok_or_else(|| bad("checkpoint population overflows u64".to_string()))?;
        if n < 2 {
            return Err(bad(format!("checkpoint population {n} is below 2")));
        }
        Ok(())
    }

    /// Rebuild a batched engine at the snapshot.
    ///
    /// # Errors
    ///
    /// `InvalidData` if the snapshot disagrees with the protocol's state
    /// space or holds fewer than two agents.
    pub fn restore_batch<P: TableProtocol>(&self, protocol: P) -> io::Result<BatchSimulation<P>> {
        self.check_restore(protocol.states())?;
        let mut sim = BatchSimulation::new(protocol, self.counts.clone(), 0);
        sim.restore_clock(
            self.interactions,
            self.interactions_base,
            self.time_base,
            self.rng,
        );
        Ok(sim)
    }

    /// Serialize to the versioned text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(out, "engine batch");
        let _ = writeln!(out, "interactions {}", self.interactions);
        let _ = writeln!(out, "interactions_base {}", self.interactions_base);
        let _ = writeln!(out, "time_base_bits {}", self.time_base.to_bits());
        let _ = writeln!(
            out,
            "rng {} {} {} {}",
            self.rng[0], self.rng[1], self.rng[2], self.rng[3]
        );
        for (key, vals) in [("counts", &self.counts), ("initial", &self.initial)] {
            let _ = write!(out, "{key} {}", vals.len());
            for v in vals {
                let _ = write!(out, " {v}");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "states 0");
        let _ = writeln!(out, "series {}", self.series.len());
        for s in &self.series {
            let _ = writeln!(
                out,
                "sample {} {} {} {}",
                s.t.to_bits(),
                s.population,
                s.plurality_frac.to_bits(),
                s.output.map_or_else(|| "-".to_string(), |o| o.to_string()),
            );
        }
        let _ = writeln!(out, "end");
        out
    }

    /// Parse the versioned text format.
    ///
    /// # Errors
    ///
    /// `InvalidData` on any malformed or version-mismatched input, and on
    /// a snapshot of another engine (an `engine` line other than `batch`,
    /// or per-agent states).
    pub fn from_text(text: &str) -> io::Result<Self> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(bad("not a ppckpt v1 checkpoint"));
        }
        let mut field = |key: &str| -> io::Result<String> {
            let line = lines.next().ok_or_else(|| bad("truncated checkpoint"))?;
            line.strip_prefix(key)
                .and_then(|r| r.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| bad("field out of order"))
        };
        if field("engine")? != "batch" {
            return Err(bad("not a batch-engine checkpoint"));
        }
        let parse_u64 = |v: &str| v.parse::<u64>().map_err(|_| bad("malformed integer"));
        let interactions = parse_u64(&field("interactions")?)?;
        let interactions_base = parse_u64(&field("interactions_base")?)?;
        let time_base = f64::from_bits(parse_u64(&field("time_base_bits")?)?);
        let rng_words = field("rng")?;
        let mut rng = [0u64; 4];
        let mut it = rng_words.split_whitespace();
        for w in &mut rng {
            *w = parse_u64(it.next().ok_or_else(|| bad("short rng state"))?)?;
        }
        if it.next().is_some() {
            return Err(bad("long rng state"));
        }
        let vec_field = |raw: String| -> io::Result<Vec<u64>> {
            let mut it = raw.split_whitespace();
            let len = parse_u64(it.next().ok_or_else(|| bad("missing length"))?)? as usize;
            let vals: Vec<u64> = it.map(parse_u64).collect::<io::Result<_>>()?;
            if vals.len() != len {
                return Err(bad("length mismatch"));
            }
            Ok(vals)
        };
        let counts = vec_field(field("counts")?)?;
        let initial = vec_field(field("initial")?)?;
        if field("states")? != "0" {
            return Err(bad("per-agent states are not restorable"));
        }
        let series_len = parse_u64(&field("series")?)? as usize;
        // The length is untrusted input: pre-allocate only what the
        // remaining text could plausibly hold, so a corrupt header can't
        // request an absurd capacity. Growth past the hint is still exact.
        let mut series = Vec::with_capacity(series_len.min(text.len() / 8 + 1));
        for _ in 0..series_len {
            let line = lines.next().ok_or_else(|| bad("truncated series"))?;
            let rest = line
                .strip_prefix("sample ")
                .ok_or_else(|| bad("malformed sample"))?;
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let [t, population, frac, output] = parts.as_slice() else {
                return Err(bad("malformed sample"));
            };
            series.push(ChurnSample {
                t: f64::from_bits(parse_u64(t)?),
                population: parse_u64(population)?,
                plurality_frac: f64::from_bits(parse_u64(frac)?),
                output: if *output == "-" {
                    None
                } else {
                    Some(
                        output
                            .parse::<u32>()
                            .map_err(|_| bad("malformed sample output"))?,
                    )
                },
            });
        }
        if lines.next() != Some("end") {
            return Err(bad("missing end marker"));
        }
        Ok(Self {
            interactions,
            interactions_base,
            time_base,
            rng,
            counts,
            initial,
            series,
        })
    }

    /// Write the checkpoint to `path` atomically: the bytes go to a `.tmp`
    /// sibling first, are fsynced, and only then renamed over `path`. A
    /// crash at any instant therefore leaves either the previous complete
    /// checkpoint or the new complete one — a torn half-write is never
    /// observable at `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp_name);
        {
            use std::io::Write as _;
            let mut f = fs::File::create(&tmp)?;
            f.write_all(self.to_text().as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)
    }

    /// Read a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` for a malformed file.
    pub fn read(path: &Path) -> io::Result<Self> {
        Self::from_text(&fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SimRng;

    /// 3-state approximate majority (blank 0, A 1, B 2).
    struct Am3;
    impl TableProtocol for Am3 {
        fn states(&self) -> usize {
            3
        }
        fn is_deterministic(&self) -> bool {
            true
        }
        fn delta(&self, a: usize, b: usize, _rng: &mut SimRng) -> (usize, usize) {
            match (a, b) {
                (1, 2) | (2, 1) => (a, 0),
                (1, 0) => (1, 1),
                (2, 0) => (2, 2),
                _ => (a, b),
            }
        }
        fn output(&self, counts: &[u64]) -> Option<u32> {
            if counts[0] == 0 && counts[2] == 0 {
                Some(1)
            } else if counts[0] == 0 && counts[1] == 0 {
                Some(2)
            } else {
                None
            }
        }
        fn opinion(&self, s: usize) -> Option<u32> {
            (s > 0).then_some(s as u32)
        }
    }

    fn demo_checkpoint() -> Checkpoint {
        Checkpoint {
            interactions: 12_345,
            interactions_base: 1_000,
            time_base: 1.25,
            rng: [1, 2, 3, u64::MAX],
            counts: vec![0, 600, 400],
            initial: vec![0, 600, 400],
            series: vec![
                ChurnSample {
                    t: 2.0_f64.sqrt(),
                    population: 1000,
                    plurality_frac: 0.6,
                    output: None,
                },
                ChurnSample {
                    t: 2.5,
                    population: 998,
                    plurality_frac: 1.0,
                    output: Some(1),
                },
            ],
        }
    }

    #[test]
    fn text_round_trip_is_bit_exact() {
        let ck = demo_checkpoint();
        let back = Checkpoint::from_text(&ck.to_text()).expect("parse");
        assert_eq!(back, ck);
        assert_eq!(back.series[0].t.to_bits(), ck.series[0].t.to_bits());
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        for bad in [
            "",
            "ppckpt v2\n",
            "ppckpt v1\nengine warp\n",
            "ppckpt v1\nengine batch\ninteractions x\n",
            &demo_checkpoint().to_text().replace("end", ""),
            &demo_checkpoint().to_text().replace("rng 1 2 3", "rng 1 2"),
            &demo_checkpoint().to_text().replace("counts 3", "counts 4"),
        ] {
            assert!(Checkpoint::from_text(bad).is_err(), "{bad:?} should fail");
        }
        // `pairwise` names no engine, like any other unknown tag.
        let pairwise = demo_checkpoint()
            .to_text()
            .replace("engine batch", "engine pairwise");
        assert_eq!(
            Checkpoint::from_text(&pairwise).map_err(|e| e.kind()),
            Err(io::ErrorKind::InvalidData)
        );
    }

    #[test]
    fn sequential_snapshots_are_refused() {
        let text = demo_checkpoint().to_text();
        assert!(text.contains("\nengine batch\n") && text.contains("\nstates 0\n"));
        // A `seq` snapshot as the sequential engine once wrote it: its tag
        // and one state per agent.
        let agents = format!("states 1000{}", " 1".repeat(600) + &" 2".repeat(400));
        let seq = text
            .replace("engine batch", "engine seq")
            .replace("states 0", &agents);
        for bad in [
            seq.clone(),
            text.replace("engine batch", "engine seq"),
            text.replace("states 0", &agents),
        ] {
            assert_eq!(
                Checkpoint::from_text(&bad).map_err(|e| e.kind()),
                Err(io::ErrorKind::InvalidData)
            );
        }
    }

    #[test]
    fn mismatched_restores_are_errors_not_panics() {
        // State-space mismatch: counts longer than the protocol's table.
        let mut wide = demo_checkpoint();
        wide.counts = vec![0, 600, 400, 7];
        assert!(wide.restore_batch(Am3).is_err());

        // Degenerate population.
        let mut tiny = demo_checkpoint();
        tiny.counts = vec![0, 1, 0];
        assert!(tiny.restore_batch(Am3).is_err());

        // A population past u64 would wrap the engine's `n`.
        let mut huge = demo_checkpoint();
        huge.counts = vec![0, u64::MAX, 2];
        assert!(huge.restore_batch(Am3).is_err());
    }

    #[test]
    fn torn_writes_are_never_observed_by_read() {
        let dir = std::env::temp_dir().join(format!("ppckpt-torn-{}", std::process::id()));
        let path = dir.join("soak.ckpt");
        let v1 = demo_checkpoint();
        v1.write(&path).expect("write v1");
        // The atomic write leaves no temporary file behind.
        assert!(!dir.join("soak.ckpt.tmp").exists());

        // Simulate a crash mid-way through writing the *next* checkpoint:
        // the victim of a torn write is the .tmp sibling, never `path`.
        let mut v2 = v1.clone();
        v2.interactions = 99_999;
        let torn = &v2.to_text()[..v2.to_text().len() / 2];
        fs::write(dir.join("soak.ckpt.tmp"), torn).expect("plant torn tmp");
        let seen = Checkpoint::read(&path).expect("read after torn tmp");
        assert_eq!(seen, v1, "a torn write must never corrupt the live file");

        // And had the kill happened before any checkpoint completed, the
        // torn bytes themselves are rejected with a typed error, no panic.
        assert!(Checkpoint::from_text(torn).is_err());

        // A completed second write atomically replaces the first.
        v2.write(&path).expect("write v2");
        assert_eq!(Checkpoint::read(&path).expect("read v2"), v2);
        assert!(!dir.join("soak.ckpt.tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_restore_replays_the_exact_stream() {
        let mut sim = BatchSimulation::new(Am3, vec![0, 6_000, 4_000], 42);
        for _ in 0..20 {
            sim.step_batch();
        }
        let ck = Checkpoint::of_batch(&sim, &[0, 6_000, 4_000], &[]);
        let mut resumed = ck.restore_batch(Am3).expect("restore");
        assert_eq!(resumed.counts(), sim.counts());
        assert_eq!(resumed.interactions(), sim.interactions());
        for _ in 0..50 {
            sim.step_batch();
            resumed.step_batch();
            assert_eq!(resumed.counts(), sim.counts());
            assert_eq!(resumed.interactions(), sim.interactions());
        }
    }
}
