//! `ppd` — a long-running plurality-consensus service.
//!
//! Every experiment in this workspace so far is a *batch*: configure a
//! population, run to a horizon, emit CSVs. This crate turns the
//! batched engine into a *service*: a daemon hosting a live population
//! that external clients feed (`ingest`), query (`census`,
//! `plurality`, `status`, `metrics`) and snapshot (`checkpoint`) over
//! a newline-delimited JSON protocol on plain TCP — while the
//! simulation keeps absorbing the stream into consensus in the
//! background.
//!
//! The layering, bottom up:
//!
//! * [`json`] — a dependency-free JSON reader (the workspace has no
//!   serde) that keeps integer literals exact,
//! * [`proto`] — the wire protocol: request/response types and their
//!   one-line spellings, total in both directions,
//! * [`stats`] — the relaxed-atomic counters behind `metrics`,
//! * [`service`] — the simulation thread: a
//!   [`SegmentRunner`](pp_engine::SegmentRunner) advanced in segments,
//!   a published [`Snapshot`] for queries, a control
//!   channel for mutations, crash-safe checkpoints on a wall-clock
//!   timer,
//! * [`server`] — the `std::net` front end: acceptor thread, worker
//!   pool, graceful drain.
//!
//! The two binaries are thin shells: `ppd` wires a protocol choice and
//! CLI flags into a [`service::Service`] plus a
//! [`server::ServerHandle`]; `ppc` is a one-shot line client for
//! scripts and CI.
//!
//! The contract inherited from the checkpoint layer holds end to end:
//! kill the daemon at any instant and `ppd --resume` restores the
//! population byte-identically from the last checkpoint — snapshots
//! are written atomically (tmp + fsync + rename), so a torn write is
//! never observable.

pub mod json;
pub mod proto;
pub mod server;
pub mod service;
pub mod stats;

pub use proto::{Metrics, ProtoError, Request, Response};
pub use server::ServerHandle;
pub use service::{Ctl, Service, ServiceConfig, Snapshot};
pub use stats::ServiceStats;
