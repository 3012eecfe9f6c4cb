//! The simulation half of `ppd`: one thread owns the live population.
//!
//! A [`Service`] spawns a dedicated thread holding a
//! [`SegmentRunner`] and splits the protocol's commands by what they
//! touch:
//!
//! * **Queries** (`census`, `plurality`, `status`) never reach this
//!   thread. After every segment — and after every mutation — the sim
//!   thread publishes an immutable [`Snapshot`] under an `RwLock`;
//!   worker threads answer queries straight from it. That is what lets
//!   the front end serve tens of thousands of queries per second while
//!   the engine sustains its full interaction rate: a query costs one
//!   read-lock and some formatting, never a round-trip into the
//!   simulation.
//! * **Mutations** (`ingest`, `checkpoint`, `step`, `shutdown`) are
//!   [`Ctl`] messages on an mpsc channel, each carrying a reply sender.
//!   The sim thread drains the channel between segments, applies the
//!   mutation, refreshes the snapshot, and *then* replies — so a
//!   client's `ingest` acknowledgment implies the next `census` on the
//!   same connection sees the admitted agents.
//!
//! Two pacing modes share the loop. **Free-run** (the default) advances
//! the engine continuously in parallel-time segments, draining control
//! messages at each boundary. **Lockstep** (`--lockstep`) parks the
//! engine and advances *only* on explicit `step` requests — the clock
//! belongs to the client, so the same seed and the same request trace
//! reproduce byte-identical responses (the service determinism test).
//!
//! Segment boundaries are absolute multiples of the segment length,
//! inherited from [`SegmentRunner`]: a daemon resumed from a checkpoint
//! recuts exactly the boundaries the killed daemon would have.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pp_engine::{BatchSimulation, ChurnProcess, ChurnSpec, SegmentRunner, TableProtocol};

use crate::proto::Response;
use crate::stats::ServiceStats;

/// How a [`Service`] hosts its population.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Starting configuration (per-state counts) — also the
    /// distribution churn joins draw from.
    pub initial: Vec<u64>,
    /// Engine seed (fresh starts only; resume restores the RNG).
    pub seed: u64,
    /// Steady-state churn rates (zero by default: ingest is the only
    /// population change).
    pub churn: ChurnSpec,
    /// Parallel time between series samples.
    pub sample_every: f64,
    /// Parallel time per simulation segment (the control-drain cadence).
    pub segment: f64,
    /// Retain at most this many series samples in memory.
    pub series_cap: usize,
    /// Advance only on explicit `step` requests.
    pub lockstep: bool,
    /// Where checkpoints land; `None` disables the `checkpoint` command
    /// and the timer.
    pub checkpoint_path: Option<PathBuf>,
    /// Wall-clock seconds between automatic checkpoints.
    pub checkpoint_secs: Option<f64>,
    /// Resume from this snapshot instead of a fresh start.
    pub resume: Option<PathBuf>,
    /// Ignored: the engine runs on the simulation thread. The field
    /// remains only because perfbench still sets it.
    pub threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            initial: Vec::new(),
            seed: 1,
            churn: ChurnSpec {
                join: 0.0,
                leave: 0.0,
                ..ChurnSpec::default()
            },
            sample_every: 1.0,
            segment: 1.0,
            series_cap: 100_000,
            lockstep: false,
            checkpoint_path: None,
            checkpoint_secs: None,
            resume: None,
            threads: 1,
        }
    }
}

/// An immutable view of the live population, published by the sim
/// thread after every segment and every mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Parallel time.
    pub t: f64,
    /// Total live population (including undecided agents).
    pub population: u64,
    /// Interactions simulated since this daemon started (resume resets
    /// the zero point).
    pub interactions: u64,
    /// `(opinion, headcount)` pairs, ascending by opinion.
    pub census: Vec<(u32, u64)>,
    /// The converged output if the exact predicate currently fires.
    pub output: Option<u32>,
    /// Fraction of sampled marks spent in exact consensus (NaN before
    /// the first sample).
    pub time_in_consensus: f64,
    /// Agents admitted via `ingest` since this daemon started.
    pub ingested: u64,
}

impl Snapshot {
    /// The plurality reading this snapshot supports: the most-supported
    /// opinion (smallest wins ties), its support fraction, and whether
    /// the exact predicate fires.
    pub fn plurality(&self) -> (Option<u32>, f64) {
        let best = self
            .census
            .iter()
            .filter(|&&(_, c)| c > 0)
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
        match best {
            Some(&(op, count)) => (Some(op), count as f64 / self.population as f64),
            None => (None, 0.0),
        }
    }
}

/// A mutation bound for the sim thread, carrying its reply sender.
#[derive(Debug)]
pub enum Ctl {
    /// Admit agents advocating an opinion.
    Ingest {
        /// The opinion; validated against the protocol's opinion set.
        opinion: u32,
        /// How many agents join.
        count: u64,
        /// Where the response goes.
        reply: Sender<Response>,
    },
    /// Write a checkpoint now.
    Checkpoint {
        /// Where the response goes.
        reply: Sender<Response>,
    },
    /// Advance the clock (lockstep's explicit step; allowed in free-run
    /// too, where it just runs extra time).
    Step {
        /// Parallel time to advance by.
        time: f64,
        /// Where the response goes.
        reply: Sender<Response>,
    },
    /// Final checkpoint, then stop the loop.
    Shutdown {
        /// Where the response goes.
        reply: Sender<Response>,
    },
}

/// Handle to a running simulation thread.
#[derive(Debug)]
pub struct Service {
    stats: Arc<ServiceStats>,
    snapshot: Arc<RwLock<Snapshot>>,
    ctl: Sender<Ctl>,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl Service {
    /// Start the simulation thread: fresh population from
    /// `cfg.initial`, or restored from `cfg.resume`.
    ///
    /// # Errors
    ///
    /// I/O and `InvalidData` errors from reading the resume snapshot.
    pub fn spawn<P>(protocol: P, cfg: ServiceConfig) -> io::Result<Service>
    where
        P: TableProtocol + Send + 'static,
    {
        let churn = ChurnProcess::new(cfg.churn).with_sample_every(cfg.sample_every);
        let runner = match &cfg.resume {
            Some(path) => SegmentRunner::resume(path, protocol, churn)?,
            None => SegmentRunner::new(
                BatchSimulation::new(protocol, cfg.initial.clone(), cfg.seed),
                churn,
                cfg.initial.clone(),
            ),
        };

        let stats = Arc::new(ServiceStats::new());
        let stop = Arc::new(AtomicBool::new(false));
        let (ctl_tx, ctl_rx) = mpsc::channel();

        let mut core = SimCore {
            interactions_base: runner.sim().interactions(),
            marks: runner.series().len() as u64,
            marks_in: runner
                .series()
                .iter()
                .filter(|s| s.output.is_some())
                .count() as u64,
            seen: runner.series().len(),
            runner,
            cfg,
            stats: Arc::clone(&stats),
            stop: Arc::clone(&stop),
            last_checkpoint: Instant::now(),
        };
        // Queries must have something to read before the first segment.
        let snapshot = Arc::new(RwLock::new(core.snapshot()));
        let published = Arc::clone(&snapshot);
        let join = std::thread::Builder::new()
            .name("ppd-sim".to_string())
            .spawn(move || core.run(ctl_rx, &published))
            .map_err(io::Error::other)?;

        Ok(Service {
            stats,
            snapshot,
            ctl: ctl_tx,
            stop,
            join: Some(join),
        })
    }

    /// The shared counters.
    pub fn stats(&self) -> Arc<ServiceStats> {
        Arc::clone(&self.stats)
    }

    /// The published population view.
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot.read().expect("snapshot lock").clone()
    }

    /// The shared snapshot cell (for the server's workers).
    pub fn snapshot_cell(&self) -> Arc<RwLock<Snapshot>> {
        Arc::clone(&self.snapshot)
    }

    /// A control sender for dispatching mutations.
    pub fn ctl(&self) -> Sender<Ctl> {
        self.ctl.clone()
    }

    /// The stop flag, raised by `shutdown`.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Wait for the simulation thread to exit (after `shutdown`).
    pub fn join(mut self) {
        // Drop our control sender first: a lockstep loop with no other
        // senders left then observes the disconnect and exits.
        let (dummy, _) = mpsc::channel();
        drop(std::mem::replace(&mut self.ctl, dummy));
        if let Some(h) = self.join.take() {
            let _ = h.join();
        }
    }
}

/// The sim thread's owned state.
struct SimCore<P: TableProtocol> {
    runner: SegmentRunner<P>,
    cfg: ServiceConfig,
    stats: Arc<ServiceStats>,
    stop: Arc<AtomicBool>,
    /// Interactions at spawn — metrics report the delta.
    interactions_base: u64,
    /// Series marks seen so far (for time-in-consensus).
    marks: u64,
    /// Marks with the exact predicate firing.
    marks_in: u64,
    /// Index into the retained series of the first unprocessed sample.
    seen: usize,
    last_checkpoint: Instant,
}

impl<P: TableProtocol> SimCore<P> {
    fn run(&mut self, ctl: Receiver<Ctl>, snapshot: &RwLock<Snapshot>) {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            if self.cfg.lockstep {
                // Parked: the clock only moves on `step`. Wake
                // periodically for the checkpoint timer.
                match ctl.recv_timeout(Duration::from_millis(100)) {
                    Ok(msg) => {
                        if !self.handle(msg, snapshot) {
                            break;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            } else {
                // Free-run: drain pending mutations, then advance one
                // segment.
                let mut done = false;
                while let Ok(msg) = ctl.try_recv() {
                    if !self.handle(msg, snapshot) {
                        done = true;
                        break;
                    }
                }
                if done {
                    break;
                }
                let clock = self.runner.parallel_time();
                let stop_at = ((clock / self.cfg.segment).floor() + 1.0) * self.cfg.segment;
                self.runner.advance_to(stop_at);
                self.after_segment(snapshot);
            }
            self.maybe_timer_checkpoint();
        }
    }

    /// Returns `false` when the loop should stop (shutdown).
    fn handle(&mut self, msg: Ctl, snapshot: &RwLock<Snapshot>) -> bool {
        match msg {
            Ctl::Ingest {
                opinion,
                count,
                reply,
            } => {
                let resp = match self.runner.sim().protocol().opinion_state(opinion) {
                    Some(state) => match self.runner.sim_mut().admit(state, count) {
                        Ok(()) => {
                            ServiceStats::bump(&self.stats.ingest_requests);
                            ServiceStats::add(&self.stats.ingested_agents, count);
                            self.publish(snapshot);
                            Response::Ingested {
                                opinion,
                                count,
                                population: self.runner.sim().counts().iter().sum(),
                            }
                        }
                        Err(e) => Response::Error {
                            error: format!("ingest refused: {e}"),
                        },
                    },
                    None => Response::Error {
                        error: format!("opinion {opinion} is not in this protocol's opinion set"),
                    },
                };
                let _ = reply.send(resp);
                true
            }
            Ctl::Checkpoint { reply } => {
                let resp = self.write_checkpoint();
                let _ = reply.send(resp);
                true
            }
            Ctl::Step { time, reply } => {
                let stop_at = self.runner.parallel_time() + time;
                self.runner.advance_to(stop_at);
                self.after_segment(snapshot);
                let _ = reply.send(Response::Stepped {
                    t: self.runner.parallel_time(),
                });
                true
            }
            Ctl::Shutdown { reply } => {
                if self.cfg.checkpoint_path.is_some() {
                    self.write_checkpoint();
                }
                self.publish(snapshot);
                // Raise the flag before acknowledging: when the client
                // sees the response, the server is already draining.
                self.stop.store(true, Ordering::SeqCst);
                let _ = reply.send(Response::ShutDown);
                false
            }
        }
    }

    /// Fold a finished segment into counters and the published view.
    fn after_segment(&mut self, snapshot: &RwLock<Snapshot>) {
        ServiceStats::bump(&self.stats.segments);
        self.stats.interactions.store(
            self.runner.sim().interactions() - self.interactions_base,
            Ordering::Relaxed,
        );
        self.stats
            .batches
            .store(self.runner.sim().batches(), Ordering::Relaxed);
        let series = self.runner.series();
        for s in &series[self.seen..] {
            self.marks += 1;
            if s.output.is_some() {
                self.marks_in += 1;
            }
        }
        self.seen = series.len();
        self.seen -= self.runner.trim_series(self.cfg.series_cap);
        self.publish(snapshot);
    }

    fn maybe_timer_checkpoint(&mut self) {
        let Some(secs) = self.cfg.checkpoint_secs else {
            return;
        };
        if self.cfg.checkpoint_path.is_some()
            && self.last_checkpoint.elapsed().as_secs_f64() >= secs
        {
            self.write_checkpoint();
        }
    }

    /// Write the configured checkpoint atomically, recording latency.
    fn write_checkpoint(&mut self) -> Response {
        let Some(path) = self.cfg.checkpoint_path.clone() else {
            return Response::Error {
                error: "no checkpoint path configured (start ppd with --checkpoint)".to_string(),
            };
        };
        let started = Instant::now();
        let resp = match self.runner.checkpoint().write(&path) {
            Ok(()) => {
                ServiceStats::bump(&self.stats.checkpoints);
                ServiceStats::add(
                    &self.stats.checkpoint_ns,
                    started.elapsed().as_nanos() as u64,
                );
                Response::Checkpointed {
                    path: path.display().to_string(),
                    t: self.runner.parallel_time(),
                }
            }
            Err(e) => Response::Error {
                error: format!("checkpoint write failed: {e}"),
            },
        };
        self.last_checkpoint = Instant::now();
        resp
    }

    fn publish(&self, snapshot: &RwLock<Snapshot>) {
        let snap = self.snapshot();
        *snapshot.write().expect("snapshot lock") = snap;
    }

    /// Build the current population view.
    fn snapshot(&self) -> Snapshot {
        let sim = self.runner.sim();
        let counts = sim.counts();
        let mut census: Vec<(u32, u64)> = Vec::new();
        for (state, &count) in counts.iter().enumerate() {
            if let Some(op) = sim.protocol().opinion(state) {
                match census.binary_search_by_key(&op, |&(o, _)| o) {
                    Ok(i) => census[i].1 += count,
                    Err(i) => census.insert(i, (op, count)),
                }
            }
        }
        Snapshot {
            t: sim.parallel_time(),
            population: counts.iter().sum(),
            interactions: sim.interactions() - self.interactions_base,
            census,
            output: sim.protocol().output(counts),
            time_in_consensus: if self.marks == 0 {
                f64::NAN
            } else {
                self.marks_in as f64 / self.marks as f64
            },
            ingested: self.stats.ingested_agents.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_majority::ThreeState;

    fn config(n: u64) -> ServiceConfig {
        let a = 2 * n / 3;
        ServiceConfig {
            initial: vec![0, a, n - a],
            seed: 42,
            lockstep: true,
            ..ServiceConfig::default()
        }
    }

    fn send(svc: &Service, msg: impl FnOnce(Sender<Response>) -> Ctl) -> Response {
        let (tx, rx) = mpsc::channel();
        svc.ctl().send(msg(tx)).expect("sim thread alive");
        rx.recv_timeout(Duration::from_secs(10)).expect("reply")
    }

    #[test]
    fn lockstep_service_steps_ingests_and_shuts_down() {
        let svc = Service::spawn(ThreeState, config(3_000)).expect("spawn");
        let s0 = svc.snapshot();
        assert_eq!(s0.population, 3_000);
        assert_eq!(s0.t, 0.0);
        assert_eq!(s0.census, vec![(1, 2_000), (2, 1_000)]);

        let r = send(&svc, |reply| Ctl::Step { time: 5.0, reply });
        let Response::Stepped { t } = r else {
            panic!("want stepped, got {r:?}")
        };
        assert!(t >= 5.0);
        assert!(svc.snapshot().interactions > 0);

        let r = send(&svc, |reply| Ctl::Ingest {
            opinion: 2,
            count: 500,
            reply,
        });
        assert_eq!(
            r,
            Response::Ingested {
                opinion: 2,
                count: 500,
                population: 3_500
            }
        );
        let snap = svc.snapshot();
        assert_eq!(snap.population, 3_500);
        assert_eq!(snap.ingested, 500);

        let r = send(&svc, |reply| Ctl::Ingest {
            opinion: 9,
            count: 1,
            reply,
        });
        assert!(matches!(r, Response::Error { .. }), "bad opinion: {r:?}");

        let r = send(&svc, |reply| Ctl::Shutdown { reply });
        assert_eq!(r, Response::ShutDown);
        assert!(svc.stop_flag().load(Ordering::SeqCst));
        svc.join();
    }

    #[test]
    fn same_seed_same_trace_gives_identical_snapshots() {
        let run = || {
            let svc = Service::spawn(ThreeState, config(2_000)).expect("spawn");
            send(&svc, |reply| Ctl::Step { time: 3.0, reply });
            send(&svc, |reply| Ctl::Ingest {
                opinion: 1,
                count: 123,
                reply,
            });
            send(&svc, |reply| Ctl::Step { time: 4.0, reply });
            let snap = svc.snapshot();
            send(&svc, |reply| Ctl::Shutdown { reply });
            svc.join();
            snap
        };
        let (a, b) = (run(), run());
        assert_eq!(a.t.to_bits(), b.t.to_bits());
        assert_eq!(a.census, b.census);
        assert_eq!(a.interactions, b.interactions);
    }

    #[test]
    fn checkpoint_without_a_path_is_a_typed_error() {
        let svc = Service::spawn(ThreeState, config(1_000)).expect("spawn");
        let r = send(&svc, |reply| Ctl::Checkpoint { reply });
        assert!(matches!(r, Response::Error { .. }), "{r:?}");
        send(&svc, |reply| Ctl::Shutdown { reply });
        svc.join();
    }

    #[test]
    fn checkpoint_round_trips_through_the_service() {
        let dir = std::env::temp_dir().join(format!("ppd-svc-{}", std::process::id()));
        let path = dir.join("live.ckpt");
        let mut cfg = config(2_000);
        cfg.checkpoint_path = Some(path.clone());
        let svc = Service::spawn(ThreeState, cfg.clone()).expect("spawn");
        send(&svc, |reply| Ctl::Step { time: 6.0, reply });
        let r = send(&svc, |reply| Ctl::Checkpoint { reply });
        let Response::Checkpointed { t, .. } = r else {
            panic!("want checkpointed, got {r:?}")
        };
        let snap = svc.snapshot();
        send(&svc, |reply| Ctl::Shutdown { reply });
        svc.join();

        // A resumed service starts exactly where the checkpoint was cut.
        let mut cfg2 = cfg;
        cfg2.resume = Some(path);
        let svc2 = Service::spawn(ThreeState, cfg2).expect("resume");
        let snap2 = svc2.snapshot();
        assert_eq!(snap2.t.to_bits(), t.to_bits());
        assert_eq!(snap2.census, snap.census);
        send(&svc2, |reply| Ctl::Shutdown { reply });
        svc2.join();
        let _ = std::fs::remove_dir_all(dir);
    }
}
