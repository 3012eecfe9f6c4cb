//! The `ppd-mixed` workload: an in-process `Service` behind a
//! `ServerHandle` on loopback, under an open loop of mixed requests.
//!
//! The run first starts and stops the service a few times, timing
//! construction plus bind (`setup_s`) and the time from there to the
//! first exact-consensus snapshot (`solve_s`). A fresh service then takes
//! the load: each connection sends on a fixed schedule whether or not
//! earlier replies have come back, and every request is timed from the
//! moment it was due, so a stall also delays the requests queued behind
//! it. The engine's rate under load comes from `ServiceStats`, read once
//! a second. Rates and latency percentiles are medians over one-second
//! slices of the window; the latency metrics cover the queries, and the
//! ingest latency goes to the traced run's per-layer metrics.
//!
//! The traced run adds, before the service starts, a `SegmentRunner` on
//! the same configuration and seed (per-segment times, checked
//! byte-identical against an untimed twin) and the checkpoint layer on
//! its state; and, after the load window, `Ctl::Ingest` round trips
//! without TCP and the per-call costs of parsing, snapshotting and
//! encoding.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pp_engine::rng::derive;
use pp_engine::{BatchSimulation, ChurnProcess, SegmentRunner, ShardedFenwick, SimRng};
use pp_majority::ThreeState;
use pp_serve::{Ctl, Request, Response, ServerHandle, Service, ServiceConfig, ServiceStats};
use rand::{Rng, SeedableRng};

use crate::report::{mean, median, quantile, Report, Slices};
use crate::Ctx;

/// A request not answered this long after it was due has timed out.
const TIMEOUT: Duration = Duration::from_secs(2);

/// Connection-handling threads in the server: `ppd`'s default.
pub const SERVER_WORKERS: usize = 4;

/// Series samples the service retains (`ppd --series-cap`); bounds the
/// checkpoint at about 60 KB.
const SERIES_CAP: usize = 1000;

/// Requests per second over all connections, checkpoints excluded.
pub const RATE: f64 = 2000.0;

/// Agents per `ingest`.
const INGEST_COUNT: u64 = 10;

/// Share of requests that are `ingest`; the rest are queries.
const INGEST_SHARE: f64 = 0.1;

/// The workload's shape.
#[derive(Debug, Clone)]
pub struct Ppd {
    pub n: u64,
    pub connections: usize,
    /// Segments the traced run's segment-runner probe advances.
    pub probe_segments: u32,
}

/// What a request is, for checking its reply and grouping its latency.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Query(usize),
    Ingest,
    Checkpoint,
}

/// The query mix, split evenly.
const QUERIES: [Request; 4] = [
    Request::Census,
    Request::Status,
    Request::Plurality,
    Request::Metrics,
];

/// One scheduled request.
struct Planned {
    due: Duration,
    kind: Kind,
    line: String,
}

/// One answered request.
struct Sample {
    kind: Kind,
    /// When it was due, from the start of the window.
    due: Duration,
    latency_us: f64,
}

/// What one connection saw.
#[derive(Default)]
struct ConnOut {
    samples: Vec<Sample>,
    late_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    acked_agents: u64,
    problems: Vec<String>,
}

impl Ppd {
    fn initial(&self) -> Vec<u64> {
        let a = 2 * self.n / 3;
        vec![0, a, self.n - a]
    }

    /// Run the workload for the window and fill `rep`.
    pub fn run(&self, ctx: &Ctx, rep: &mut Report) {
        let started = Instant::now();
        let ckpt = ctx.tmp.join("ppd.ckpt");
        rep.note(format!(
            "ppd: majority3, n = {}, engine threads = {}, server workers = {SERVER_WORKERS}, \
             open loop of {} connections at {} requests/s plus 1 checkpoint/s",
            self.n, ctx.threads, self.connections, RATE
        ));
        if ctx.traced {
            self.probe_engine_layers(ctx, rep);
        }

        // Each fresh daemon gets its own seed, so `solve_s` reads over
        // several trajectories rather than one.
        let mut setups = Vec::new();
        let mut solves = Vec::new();
        for i in 0..ctx.setup_reps {
            let (svc, server, setup) = match self.start(derive(ctx.seed, 1000 + i), ctx, &ckpt) {
                Ok(up) => up,
                Err(e) => return rep.violation(format!("service did not start: {e}")),
            };
            setups.push(setup);
            let t = Instant::now();
            while svc.snapshot().output.is_none() && t.elapsed() < Duration::from_secs(30) {
                std::thread::sleep(Duration::from_micros(250));
            }
            solves.push(t.elapsed().as_secs_f64());
            let output = svc.snapshot().output;
            rep.check(output == Some(1), || {
                format!("fresh service reached {output:?}, not opinion 1")
            });
            stop(svc, server);
        }

        let (svc, server, setup) = match self.start(derive(ctx.seed, 0), ctx, &ckpt) {
            Ok(up) => up,
            Err(e) => return rep.violation(format!("service did not start: {e}")),
        };
        setups.push(setup);
        rep.set("setup_s", median(&setups));
        rep.set("solve_s", median(&solves));

        let stats = svc.stats();
        let window = ((ctx.seconds - started.elapsed().as_secs_f64()) * 0.9)
            .floor()
            .max(1.0);
        let s0 = stats.segments.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let (outs, rates) = self.load(server.addr(), ctx.seed, window, &stats);
        let elapsed = t0.elapsed().as_secs_f64();
        let s1 = stats.segments.load(Ordering::Relaxed);
        rep.set("sim_rate", median(&rates));

        let mut acked = 0;
        let mut per_second: Vec<Vec<f64>> = vec![Vec::new(); window as usize];
        let (mut queries, mut ingests, mut late) = (Vec::new(), Vec::new(), Vec::new());
        for out in outs {
            rep.attempted += out.attempted;
            rep.failed += out.failed;
            acked += out.acked_agents;
            late.extend(out.late_us);
            for p in out.problems {
                rep.violation(p);
            }
            for s in out.samples {
                match s.kind {
                    Kind::Query(_) => {
                        per_second[s.due.as_secs() as usize].push(s.latency_us);
                        queries.push(s.latency_us)
                    }
                    Kind::Ingest => ingests.push(s.latency_us),
                    Kind::Checkpoint => {}
                }
            }
        }
        rep.note(format!(
            "load: {} requests in {elapsed:.2}s, {} failed, {acked} agents ingested; \
             query p50/p99 {:.1}/{:.1} us, ingest p50/p99 {:.1}/{:.1} us, \
             generator late p99 {:.1} us",
            rep.attempted,
            rep.failed,
            quantile(&queries, 0.5),
            quantile(&queries, 0.99),
            quantile(&ingests, 0.5),
            quantile(&ingests, 0.99),
            quantile(&late, 0.99)
        ));
        let mut slices = Slices::default();
        for mut lat in per_second {
            let n = lat.len() as f64;
            slices.close(&mut lat, n, 1.0);
        }
        rep.set("latency_p50_us", slices.p50());
        rep.set("latency_p95_us", slices.p95());

        if ctx.traced {
            rep.set("server.query_us_p50", quantile(&queries, 0.5));
            rep.set("server.query_us_p99", quantile(&queries, 0.99));
            rep.set("server.ingest_us_p50", quantile(&ingests, 0.5));
            rep.set("server.ingest_us_p99", quantile(&ingests, 0.99));
            rep.set("gen.late_us_p99", quantile(&late, 0.99));
            rep.set("stats.segments_per_s", (s1 - s0) as f64 / elapsed);
            rep.set(
                "stats.requests",
                stats.requests.load(Ordering::Relaxed) as f64,
            );
            rep.set("stats.errors", stats.errors.load(Ordering::Relaxed) as f64);
            acked += self.probe_service(&svc, rep, &queries);
        }

        // The final census must hold the initial population plus every
        // acknowledged ingest, and the shutdown reply must parse too.
        let expect = self.n + acked + u64::from(ctx.plant_wrong);
        match final_census(server.addr()) {
            Ok(population) => rep.check(population == expect, || {
                format!("final population {population}, expected {expect}")
            }),
            Err(e) => rep.violation(format!("final census failed: {e}")),
        }
        server.wake();
        server.join();
        svc.join();
    }

    /// Spawn the service and bind the front end; returns the time both
    /// took.
    fn start(&self, seed: u64, ctx: &Ctx, ckpt: &Path) -> io::Result<(Service, ServerHandle, f64)> {
        let cfg = ServiceConfig {
            initial: self.initial(),
            seed,
            checkpoint_path: Some(ckpt.to_path_buf()),
            threads: ctx.threads,
            // The default cap (100,000 samples at ~3,000 samples/s) lets
            // every checkpoint grow for the first half-minute of uptime, so
            // the window would never see a steady state.
            series_cap: SERIES_CAP,
            ..ServiceConfig::default()
        };
        let t = Instant::now();
        let svc = Service::spawn(ThreeState, cfg)?;
        let server = ServerHandle::bind("127.0.0.1:0", &svc, SERVER_WORKERS)?;
        Ok((svc, server, t.elapsed().as_secs_f64()))
    }

    /// The schedule of one connection: its share of the mix, evenly
    /// spaced and offset from the other connections, plus (on connection
    /// 0) one checkpoint per second.
    fn plan(&self, seed: u64, conn: usize, window: f64) -> Vec<Planned> {
        let mut rng = SimRng::seed_from_u64(derive(seed, 100 + conn as u64));
        let period = self.connections as f64 / RATE;
        let offset = period * conn as f64 / self.connections as f64;
        let count = (window / period) as u64;
        let mut plan: Vec<Planned> = (0..count)
            .map(|i| {
                let due = Duration::from_secs_f64(offset + i as f64 * period);
                let (kind, req) = if rng.gen::<f64>() < INGEST_SHARE {
                    let req = Request::Ingest {
                        opinion: 1 + rng.gen_range(0..2u32),
                        count: INGEST_COUNT,
                    };
                    (Kind::Ingest, req)
                } else {
                    let q = rng.gen_range(0..QUERIES.len());
                    (Kind::Query(q), QUERIES[q].clone())
                };
                Planned {
                    due,
                    kind,
                    line: req.to_json(),
                }
            })
            .collect();
        if conn == 0 {
            for s in 0..(window as u64) {
                plan.push(Planned {
                    due: Duration::from_millis(1000 * s + 500),
                    kind: Kind::Checkpoint,
                    line: Request::Checkpoint.to_json(),
                });
            }
            plan.sort_by_key(|p| p.due);
        }
        plan
    }

    /// Drive every connection for `window` seconds, one thread each,
    /// while this thread reads the engine's interaction count once a
    /// second. Returns what each connection saw and the per-second
    /// engine rates.
    fn load(
        &self,
        addr: SocketAddr,
        seed: u64,
        window: f64,
        stats: &ServiceStats,
    ) -> (Vec<ConnOut>, Vec<f64>) {
        let plans: Vec<Vec<Planned>> = (0..self.connections)
            .map(|c| self.plan(seed, c, window))
            .collect();
        let start = Instant::now() + Duration::from_millis(20);
        std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .map(|plan| scope.spawn(move || drive(addr, start, plan)))
                .collect();
            let mut rates = Vec::new();
            let mut last = (Instant::now(), stats.interactions.load(Ordering::Relaxed));
            while !handles.iter().all(|h| h.is_finished()) {
                std::thread::sleep(Duration::from_millis(50));
                let now = Instant::now();
                if now - last.0 >= Duration::from_secs(1) {
                    let i = stats.interactions.load(Ordering::Relaxed);
                    rates.push((i - last.1) as f64 / (now - last.0).as_secs_f64());
                    last = (now, i);
                }
            }
            let outs = handles
                .into_iter()
                .map(|h| h.join().expect("load connection thread panicked"))
                .collect();
            (outs, rates)
        })
    }

    /// Segment runner and checkpoint layers on the service's
    /// configuration, before the service exists.
    fn probe_engine_layers(&self, ctx: &Ctx, rep: &mut Report) {
        let runner = || {
            let cfg = ServiceConfig::default();
            let initial = self.initial();
            let sim = BatchSimulation::new(ThreeState, initial.clone(), derive(ctx.seed, 0));
            let churn = ChurnProcess::new(cfg.churn).with_sample_every(cfg.sample_every);
            let mut r = SegmentRunner::new(sim, churn, initial);
            r.set_threads(ctx.threads);
            r
        };
        let mut plain = runner();
        let t = Instant::now();
        for k in 1..=self.probe_segments {
            plain.advance_to(f64::from(k));
        }
        let plain_wall = t.elapsed().as_secs_f64();

        let mut traced = runner();
        let (mut advance, mut batches) = (Vec::new(), Vec::new());
        let t = Instant::now();
        for k in 1..=self.probe_segments {
            let b = traced.sim().batches();
            let ts = Instant::now();
            traced.advance_to(f64::from(k));
            advance.push(ts.elapsed().as_secs_f64() * 1e6);
            batches.push((traced.sim().batches() - b) as f64);
        }
        rep.set(
            "trace.overhead",
            t.elapsed().as_secs_f64() / plain_wall - 1.0,
        );
        rep.check(
            plain.checkpoint().to_text() == traced.checkpoint().to_text(),
            || "traced segment runner did not end byte-identical to the untraced one".to_string(),
        );
        rep.set("segment.advance_us_p50", quantile(&advance, 0.5));
        rep.set("segment.advance_us_p99", quantile(&advance, 0.99));
        rep.set("segment.batches_per_segment", mean(&batches));

        let (mut capture, mut encode, mut write) = (Vec::new(), Vec::new(), Vec::new());
        let path = ctx.tmp.join("probe.ckpt");
        for _ in 0..20 {
            let t = Instant::now();
            let ck = traced.checkpoint();
            capture.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let text = black_box(ck.to_text());
            encode.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            if let Err(e) = ck.write(&path) {
                return rep.violation(format!("checkpoint write failed: {e}"));
            }
            write.push(t.elapsed().as_secs_f64() * 1e3);
            rep.set("checkpoint.bytes", text.len() as f64);
        }
        rep.set("checkpoint.capture_us", median(&capture));
        rep.set("checkpoint.encode_us", median(&encode));
        rep.set("checkpoint.write_ms", median(&write));

        // `admit` rebuilds the census tree at the engine's thread count.
        let counts = traced.sim().counts().to_vec();
        let mut tree = ShardedFenwick::from_weights(&counts);
        let mut rebuild = Vec::new();
        for _ in 0..200 {
            let t = Instant::now();
            tree.rebuild(black_box(&counts), ctx.threads);
            rebuild.push(t.elapsed().as_secs_f64() * 1e6);
        }
        rep.set("fenwick.rebuild_us", median(&rebuild));
    }

    /// Service-side costs after the load window, on the live service:
    /// `Ctl::Ingest` round trips without TCP, snapshots, and the wire
    /// codec. Returns the agents the ingests added.
    fn probe_service(&self, svc: &Service, rep: &mut Report, queries: &[f64]) -> u64 {
        let mut ctl = Vec::new();
        let mut acked = 0;
        for _ in 0..200 {
            let (tx, rx) = mpsc::channel();
            let t = Instant::now();
            let sent = svc.ctl().send(Ctl::Ingest {
                opinion: 1,
                count: INGEST_COUNT,
                reply: tx,
            });
            match (sent, rx.recv_timeout(TIMEOUT)) {
                (Ok(()), Ok(Response::Ingested { count, .. })) => {
                    ctl.push(t.elapsed().as_secs_f64() * 1e6);
                    acked += count;
                }
                (_, r) => rep.violation(format!("ctl ingest failed: {r:?}")),
            }
        }
        rep.set("service.ctl_ingest_us_p50", quantile(&ctl, 0.5));
        rep.set("service.ctl_ingest_us_p99", quantile(&ctl, 0.99));

        let reps = 2000u32;
        let t = Instant::now();
        for _ in 0..reps {
            black_box(svc.snapshot());
        }
        let snapshot_ns = t.elapsed().as_nanos() as f64 / f64::from(reps);
        rep.set("service.snapshot_ns", snapshot_ns);

        let lines: Vec<String> = QUERIES.iter().map(Request::to_json).collect();
        let t = Instant::now();
        for _ in 0..reps {
            for line in &lines {
                let _ = black_box(Request::parse(black_box(line)));
            }
        }
        let parse_ns = t.elapsed().as_nanos() as f64 / f64::from(reps) / lines.len() as f64;
        rep.set("proto.parse_ns", parse_ns);

        // The four query replies, built from a snapshot as the server
        // builds them.
        let snap = svc.snapshot();
        let (opinion, frac) = snap.plurality();
        let replies = [
            Response::Census {
                t: snap.t,
                population: snap.population,
                census: snap.census.clone(),
            },
            Response::Status {
                t: snap.t,
                population: snap.population,
                interactions: snap.interactions,
                consensus: snap.output.is_some(),
                output: snap.output,
                time_in_consensus: snap.time_in_consensus,
                ingested: snap.ingested,
            },
            Response::Plurality {
                t: snap.t,
                opinion,
                frac,
                exact: snap.output.is_some(),
            },
            Response::Metrics(svc.stats().metrics()),
        ];
        let t = Instant::now();
        for _ in 0..reps {
            for r in &replies {
                black_box(r.to_json());
            }
        }
        let encode_ns = t.elapsed().as_nanos() as f64 / f64::from(reps) / replies.len() as f64;
        rep.set("proto.encode_ns", encode_ns);

        // What a query spends outside the three timed calls: socket I/O,
        // worker hand-off and waiting behind earlier requests.
        let inside_us = (parse_ns + snapshot_ns + encode_ns) / 1e3;
        let residual: Vec<f64> = queries.iter().map(|q| q - inside_us).collect();
        rep.set("server.residual_us_p50", quantile(&residual, 0.5));
        rep.set("server.residual_us_p99", quantile(&residual, 0.99));
        acked
    }
}

/// Stop a service that no client is connected to.
fn stop(svc: Service, server: ServerHandle) {
    let (tx, rx) = mpsc::channel();
    if svc.ctl().send(Ctl::Shutdown { reply: tx }).is_ok() {
        let _ = rx.recv_timeout(Duration::from_secs(30));
    }
    server.wake();
    server.join();
    svc.join();
}

/// Read the census over a fresh connection, then shut the daemon down
/// over the same connection. Returns the census population.
fn final_census(addr: SocketAddr) -> io::Result<u64> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut ask = |req: Request| -> io::Result<Response> {
        writeln!(writer, "{}", req.to_json())?;
        writer.flush()?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        Response::parse(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))
    };
    let population = match ask(Request::Census)? {
        Response::Census { population, .. } => population,
        other => return Err(io::Error::other(format!("census answered {other:?}"))),
    };
    match ask(Request::Shutdown)? {
        Response::ShutDown => Ok(population),
        other => Err(io::Error::other(format!("shutdown answered {other:?}"))),
    }
}

/// Whether `resp` is the right kind of reply to a request of `kind`.
fn answers(kind: Kind, resp: &Response) -> bool {
    matches!(
        (kind, resp),
        (Kind::Query(0), Response::Census { .. })
            | (Kind::Query(1), Response::Status { .. })
            | (Kind::Query(2), Response::Plurality { .. })
            | (Kind::Query(3), Response::Metrics(_))
            | (Kind::Ingest, Response::Ingested { .. })
            | (Kind::Checkpoint, Response::Checkpointed { .. })
    )
}

/// One connection of the open loop: send each request when it is due,
/// whatever is still in flight, and read replies as they come.
fn drive(addr: SocketAddr, start: Instant, plan: &[Planned]) -> ConnOut {
    let mut out = ConnOut {
        attempted: plan.len() as u64,
        ..ConnOut::default()
    };
    let (mut reader, mut writer) = match TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_write_timeout(Some(TIMEOUT))?;
        Ok((s.try_clone()?, s))
    }) {
        Ok(pair) => pair,
        Err(e) => {
            out.failed = out.attempted;
            out.problems.push(format!("connection failed: {e}"));
            return out;
        }
    };
    let mut next = 0;
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut answered = 0u64;
    let broken: Option<String> = 'conn: loop {
        let now = Instant::now();
        while next < plan.len() && start + plan[next].due <= now {
            let sent = Instant::now();
            out.late_us
                .push((sent - (start + plan[next].due)).as_secs_f64() * 1e6);
            let line = format!("{}\n", plan[next].line);
            if let Err(e) = writer.write_all(line.as_bytes()) {
                break 'conn Some(format!("write failed: {e}"));
            }
            inflight.push_back(next);
            next += 1;
        }
        if next == plan.len() && inflight.is_empty() {
            break None;
        }
        if let Some(&oldest) = inflight.front() {
            if now.saturating_duration_since(start + plan[oldest].due) > TIMEOUT {
                break Some(format!("request {oldest} timed out"));
            }
        }
        let wait = if next < plan.len() {
            (start + plan[next].due).saturating_duration_since(now)
        } else {
            Duration::from_millis(50)
        };
        if inflight.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        if let Err(e) = reader.set_read_timeout(Some(wait.max(Duration::from_micros(20)))) {
            break Some(format!("set read timeout: {e}"));
        }
        match reader.read(&mut chunk) {
            Ok(0) => break Some("server closed the connection".to_string()),
            Ok(k) => {
                let arrived = Instant::now();
                pending.extend_from_slice(&chunk[..k]);
                while let Some(end) = pending.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = pending.drain(..=end).collect();
                    let Some(i) = inflight.pop_front() else {
                        break 'conn Some("reply without a request".to_string());
                    };
                    let p = &plan[i];
                    let text = String::from_utf8_lossy(&line);
                    match Response::parse(&text) {
                        Ok(resp) if answers(p.kind, &resp) => {
                            answered += 1;
                            if let Response::Ingested { count, .. } = resp {
                                out.acked_agents += count;
                            }
                            out.samples.push(Sample {
                                kind: p.kind,
                                due: p.due,
                                latency_us: (arrived - (start + p.due)).as_secs_f64() * 1e6,
                            });
                        }
                        Ok(resp) => {
                            out.failed += 1;
                            out.problems.push(format!("{} answered {resp:?}", p.line));
                        }
                        Err(e) => {
                            out.failed += 1;
                            out.problems.push(format!("unparsable reply {text:?}: {e}"));
                        }
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => break Some(format!("read failed: {e}")),
        }
    };
    if let Some(why) = broken {
        // Timed out, refused mid-run or unsent: all count as failed.
        let unanswered = out.attempted - answered - out.failed;
        out.failed += unanswered;
        out.problems
            .push(format!("{why}; {unanswered} requests unanswered"));
    }
    out
}
