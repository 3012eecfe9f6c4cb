//! Resumable segment-stepping over a churned batch run.
//!
//! The checkpointable soak loop (scenario x22, the `ppd` service) always
//! has the same shape: advance a [`BatchSimulation`] under a
//! [`ChurnProcess`] in parallel-time segments, accumulate the
//! [`ChurnSample`] series across segments, snapshot at absolute
//! checkpoint boundaries, and — on resume — restore the engine *and* the
//! series prefix so the stitched run is byte-identical to an
//! uninterrupted one. [`SegmentRunner`] owns exactly that state, so
//! callers only decide *when* to cut a segment and what to do between
//! segments (write a checkpoint file, drain an ingest queue, answer
//! queries).
//!
//! Two entry points cover the two callers:
//!
//! * [`SegmentRunner::drive`] is the x22 soak loop verbatim — run to a
//!   horizon, cutting at absolute multiples of the checkpoint interval
//!   and invoking a boundary callback at each interior cut.
//! * [`SegmentRunner::advance_to`] is one segment — the `ppd` simulation
//!   thread calls it in small slices, interleaving ingest admissions and
//!   query snapshots between slices.
//!
//! Segment boundaries are derived from the live clock alone (absolute
//! multiples of the interval, never "current time + interval"), so a
//! resumed run recomputes exactly the boundaries the uninterrupted run
//! used — the invariant behind the byte-identical kill–resume contract.

use std::io;
use std::path::Path;

use crate::batch::{BatchSimulation, TableProtocol};
use crate::checkpoint::Checkpoint;
use crate::churn::ChurnProcess;
use crate::result::{ChurnSample, RunOptions, RunStatus};

/// A churned batch run advancing in resumable parallel-time segments.
#[derive(Debug, Clone)]
pub struct SegmentRunner<P: TableProtocol> {
    sim: BatchSimulation<P>,
    churn: ChurnProcess,
    initial: Vec<u64>,
    series: Vec<ChurnSample>,
    opts: RunOptions,
}

impl<P: TableProtocol> SegmentRunner<P> {
    /// A runner over a fresh simulation. `initial` is the distribution
    /// churn joins draw from (usually the starting configuration).
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not cover the protocol's state space or is
    /// all zero (`run_churned` needs a join distribution).
    pub fn new(sim: BatchSimulation<P>, churn: ChurnProcess, initial: Vec<u64>) -> Self {
        assert_eq!(
            initial.len(),
            sim.counts().len(),
            "join distribution must cover the state space"
        );
        assert!(
            initial.iter().sum::<u64>() > 0,
            "join distribution must be non-empty"
        );
        Self {
            sim,
            churn,
            initial,
            series: Vec::new(),
            opts: RunOptions {
                max_interactions: u64::MAX,
                check_every: 0,
            },
        }
    }

    /// Rebuild a runner at a snapshot: the engine restores byte-identically
    /// and the series prefix carries over, so subsequent segments stitch
    /// onto exactly the trajectory the checkpointed run would have taken.
    ///
    /// # Errors
    ///
    /// `InvalidData` if the snapshot is not a `batch` one or disagrees with
    /// the protocol's state space (see [`Checkpoint::restore_batch`]).
    pub fn from_checkpoint(ck: &Checkpoint, protocol: P, churn: ChurnProcess) -> io::Result<Self> {
        let sim = ck.restore_batch(protocol)?;
        Ok(Self {
            sim,
            churn,
            initial: ck.initial.clone(),
            series: ck.series.clone(),
            opts: RunOptions {
                max_interactions: u64::MAX,
                check_every: 0,
            },
        })
    }

    /// Read a checkpoint file and rebuild a runner at it.
    ///
    /// # Errors
    ///
    /// I/O errors from the read, `InvalidData` for a malformed or
    /// mismatched snapshot.
    pub fn resume(path: &Path, protocol: P, churn: ChurnProcess) -> io::Result<Self> {
        Self::from_checkpoint(&Checkpoint::read(path)?, protocol, churn)
    }

    /// Advance one segment: run churned until the parallel clock passes
    /// `stop`, folding the segment's samples into the accumulated series.
    /// Returns whether the output predicate fired at the segment's end.
    ///
    /// A `stop` at or before the current clock is a no-op (batches are
    /// never truncated mid-segment; see
    /// [`BatchSimulation::run_churned`]).
    pub fn advance_to(&mut self, stop: f64) -> RunStatus {
        let r = self
            .sim
            .run_churned(&self.opts, &self.churn, &self.initial, stop);
        self.series.extend(r.series);
        r.status
    }

    /// The soak loop: run to `horizon`, cutting segments at absolute
    /// multiples of `every` and calling `on_boundary(self, boundary)` at
    /// each interior cut — the hook writes `self.checkpoint()` wherever it
    /// wants it. An infinite `every` runs a single segment with no cuts;
    /// boundaries at or past the horizon get no callback.
    ///
    /// # Errors
    ///
    /// Propagates the callback's error, aborting the loop.
    pub fn drive(
        &mut self,
        horizon: f64,
        every: f64,
        mut on_boundary: impl FnMut(&Self, f64) -> io::Result<()>,
    ) -> io::Result<()> {
        while self.sim.parallel_time() < horizon {
            let clock = self.sim.parallel_time();
            let stop = if every.is_finite() {
                (((clock / every).floor() + 1.0) * every).min(horizon)
            } else {
                horizon
            };
            self.advance_to(stop);
            if every.is_finite() && stop < horizon {
                on_boundary(self, stop)?;
            }
        }
        Ok(())
    }

    /// Snapshot the run — engine state plus the accumulated series.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::of_batch(&self.sim, &self.initial, &self.series)
    }

    /// The underlying engine.
    pub fn sim(&self) -> &BatchSimulation<P> {
        &self.sim
    }

    /// Mutable access to the engine — the ingest path (`admit`) between
    /// segments.
    pub fn sim_mut(&mut self) -> &mut BatchSimulation<P> {
        &mut self.sim
    }

    /// Set the engine's worker budget (see
    /// [`BatchSimulation::set_threads`]). Purely a throughput knob: the
    /// driven run, its series, and its checkpoints are byte-identical at
    /// every value, so a service may resume a checkpoint with a different
    /// thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.sim.set_threads(threads);
    }

    /// The churn process driving the segments.
    pub fn churn(&self) -> &ChurnProcess {
        &self.churn
    }

    /// The join distribution.
    pub fn initial(&self) -> &[u64] {
        &self.initial
    }

    /// The accumulated sample series.
    pub fn series(&self) -> &[ChurnSample] {
        &self.series
    }

    /// The engine's parallel clock.
    pub fn parallel_time(&self) -> f64 {
        self.sim.parallel_time()
    }

    /// Drop the oldest samples so at most `cap` remain, returning how many
    /// were dropped. Long-running services call this to bound memory; note
    /// that checkpoints written afterwards carry only the retained tail.
    pub fn trim_series(&mut self, cap: usize) -> usize {
        if self.series.len() <= cap {
            return 0;
        }
        let drop = self.series.len() - cap;
        self.series.drain(..drop);
        drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ChurnSpec, ChurnTarget};
    use crate::result::RunOptions;

    /// 3-state approximate majority (blank 0, A 1, B 2).
    struct Am3;
    impl TableProtocol for Am3 {
        fn states(&self) -> usize {
            3
        }
        fn is_deterministic(&self) -> bool {
            true
        }
        fn delta(&self, a: usize, b: usize, _rng: &mut crate::SimRng) -> (usize, usize) {
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
        fn opinion_state(&self, opinion: u32) -> Option<usize> {
            matches!(opinion, 1 | 2).then_some(opinion as usize)
        }
    }

    fn churn() -> ChurnProcess {
        ChurnProcess::new(ChurnSpec {
            join: 0.005,
            leave: 0.005,
            target: ChurnTarget::Uniform,
        })
    }

    /// The runner's drive loop must replay the bespoke x22 loop exactly:
    /// same RNG trajectory, same series, same final configuration.
    #[test]
    fn drive_matches_the_bespoke_soak_loop() {
        let init = vec![0u64, 2_000, 1_000];
        let horizon = 60.0;
        let every = 25.0;
        let opts = RunOptions {
            max_interactions: u64::MAX,
            check_every: 0,
        };

        // Bespoke loop, as x22 wrote it before the extraction.
        let mut sim = BatchSimulation::new(Am3, init.clone(), 99);
        let p = churn();
        let mut series = Vec::new();
        while sim.parallel_time() < horizon {
            let clock = sim.parallel_time();
            let stop = (((clock / every).floor() + 1.0) * every).min(horizon);
            let r = sim.run_churned(&opts, &p, &init, stop);
            series.extend(r.series);
        }

        let mut runner =
            SegmentRunner::new(BatchSimulation::new(Am3, init.clone(), 99), churn(), init);
        let mut boundaries = Vec::new();
        runner
            .drive(horizon, every, |_, b| {
                boundaries.push(b);
                Ok(())
            })
            .expect("drive");
        assert_eq!(boundaries, vec![25.0, 50.0]);
        assert_eq!(runner.series(), &series[..]);
        assert_eq!(runner.sim().counts(), sim.counts());
        assert_eq!(runner.sim().rng_state(), sim.rng_state());
    }

    /// Resuming from a mid-drive checkpoint stitches onto the identical
    /// trajectory — the engine-level form of the CI kill–resume diff.
    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let init = vec![0u64, 2_000, 1_000];
        let horizon = 80.0;
        let every = 30.0;

        let mut full = SegmentRunner::new(
            BatchSimulation::new(Am3, init.clone(), 7),
            churn(),
            init.clone(),
        );
        let mut first_ck: Option<Checkpoint> = None;
        full.drive(horizon, every, |r, _| {
            if first_ck.is_none() {
                first_ck = Some(r.checkpoint());
            }
            Ok(())
        })
        .expect("drive");
        let ck = first_ck.expect("at least one boundary");

        // Round-trip the snapshot through its text form, like a file would.
        let ck = Checkpoint::from_text(&ck.to_text()).expect("parse");
        let mut resumed = SegmentRunner::from_checkpoint(&ck, Am3, churn()).expect("restore");
        resumed
            .drive(horizon, every, |_, _| Ok(()))
            .expect("drive resumed");

        assert_eq!(resumed.series(), full.series());
        assert_eq!(resumed.sim().counts(), full.sim().counts());
        assert_eq!(resumed.sim().rng_state(), full.sim().rng_state());
    }

    #[test]
    fn infinite_interval_runs_one_uncut_segment() {
        let init = vec![0u64, 700, 300];
        let mut runner =
            SegmentRunner::new(BatchSimulation::new(Am3, init.clone(), 3), churn(), init);
        let mut cuts = 0;
        runner
            .drive(40.0, f64::INFINITY, |_, _| {
                cuts += 1;
                Ok(())
            })
            .expect("drive");
        assert_eq!(cuts, 0);
        assert!(runner.parallel_time() >= 40.0);
    }

    #[test]
    fn trim_series_drops_the_oldest_samples() {
        let init = vec![0u64, 700, 300];
        let mut runner =
            SegmentRunner::new(BatchSimulation::new(Am3, init.clone(), 3), churn(), init);
        runner.advance_to(30.0);
        let full = runner.series().to_vec();
        assert!(full.len() >= 10, "soak should sample ≥ 10 marks");
        let dropped = runner.trim_series(5);
        assert_eq!(dropped, full.len() - 5);
        assert_eq!(runner.series(), &full[full.len() - 5..]);
        assert_eq!(runner.trim_series(5), 0);
    }

    #[test]
    fn ingest_between_segments_keeps_the_soak_consistent() {
        let init = vec![0u64, 700, 300];
        let mut runner =
            SegmentRunner::new(BatchSimulation::new(Am3, init.clone(), 11), churn(), init);
        runner.advance_to(10.0);
        let before = runner.sim().counts().iter().sum::<u64>();
        runner.sim_mut().admit(2, 400).expect("state 2 exists");
        assert_eq!(runner.sim().counts().iter().sum::<u64>(), before + 400);
        let t = runner.parallel_time();
        runner.advance_to(t + 10.0);
        assert!(runner.parallel_time() >= t + 10.0);
        // Samples keep arriving after the admit, with the grown population.
        assert!(runner.series().iter().any(|s| s.population >= before + 300));
    }
}
