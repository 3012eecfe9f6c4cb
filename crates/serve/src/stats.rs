//! Lock-free service counters behind the `metrics` endpoint.
//!
//! One [`ServiceStats`] is shared by the worker threads (request and
//! error counts), the simulation thread (interactions, batches,
//! segments, checkpoint latencies) and the ingest path. All counters
//! are relaxed atomics: the metrics endpoint reads a statistical
//! snapshot, not a linearizable one, and the hot paths (a counter bump
//! per request, a store per segment) must stay free of locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::proto::Metrics;

/// Shared counters; see the module docs for who writes what.
#[derive(Debug)]
pub struct ServiceStats {
    started: Instant,
    /// Request lines processed (including ones answered with errors).
    pub requests: AtomicU64,
    /// Request lines answered with an error response.
    pub errors: AtomicU64,
    /// `ingest` requests applied.
    pub ingest_requests: AtomicU64,
    /// Agents admitted via `ingest`.
    pub ingested_agents: AtomicU64,
    /// Interactions simulated since start (published by the sim thread).
    pub interactions: AtomicU64,
    /// Engine batches applied (published by the sim thread).
    pub batches: AtomicU64,
    /// Simulation segments stepped.
    pub segments: AtomicU64,
    /// Checkpoints written.
    pub checkpoints: AtomicU64,
    /// Total nanoseconds spent writing checkpoints.
    pub checkpoint_ns: AtomicU64,
}

impl Default for ServiceStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceStats {
    /// Fresh counters with the uptime clock starting now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            ingest_requests: AtomicU64::new(0),
            ingested_agents: AtomicU64::new(0),
            interactions: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            segments: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_ns: AtomicU64::new(0),
        }
    }

    /// Bump a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot the counters into a [`Metrics`] response body.
    pub fn metrics(&self) -> Metrics {
        let uptime_s = self.started.elapsed().as_secs_f64();
        let ingested = self.ingested_agents.load(Ordering::Relaxed);
        let interactions = self.interactions.load(Ordering::Relaxed);
        let checkpoints = self.checkpoints.load(Ordering::Relaxed);
        let ckpt_ns = self.checkpoint_ns.load(Ordering::Relaxed);
        Metrics {
            uptime_s,
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            ingest_requests: self.ingest_requests.load(Ordering::Relaxed),
            ingested_agents: ingested,
            ingest_rate: ingested as f64 / uptime_s,
            interactions,
            interactions_rate: interactions as f64 / uptime_s,
            batches: self.batches.load(Ordering::Relaxed),
            segments: self.segments.load(Ordering::Relaxed),
            checkpoints,
            checkpoint_mean_ms: if checkpoints == 0 {
                f64::NAN
            } else {
                ckpt_ns as f64 / checkpoints as f64 / 1e6
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_reports_counts_and_rates() {
        let s = ServiceStats::new();
        ServiceStats::bump(&s.requests);
        ServiceStats::bump(&s.requests);
        ServiceStats::bump(&s.errors);
        ServiceStats::add(&s.ingested_agents, 500);
        ServiceStats::bump(&s.ingest_requests);
        s.interactions.store(1_000_000, Ordering::Relaxed);
        let m = s.metrics();
        assert_eq!(m.requests, 2);
        assert_eq!(m.errors, 1);
        assert_eq!(m.ingested_agents, 500);
        assert_eq!(m.interactions, 1_000_000);
        assert!(m.uptime_s >= 0.0);
        assert!(m.ingest_rate > 0.0);
        assert!(m.checkpoint_mean_ms.is_nan(), "no checkpoints yet");
    }

    #[test]
    fn checkpoint_latency_averages_over_writes() {
        let s = ServiceStats::new();
        ServiceStats::bump(&s.checkpoints);
        ServiceStats::add(&s.checkpoint_ns, 2_000_000);
        ServiceStats::bump(&s.checkpoints);
        ServiceStats::add(&s.checkpoint_ns, 4_000_000);
        let m = s.metrics();
        assert_eq!(m.checkpoints, 2);
        assert!((m.checkpoint_mean_ms - 3.0).abs() < 1e-9);
    }
}
