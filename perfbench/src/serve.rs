//! `serve-steady` and `serve-burst`: traffic through the sharded
//! `kcv_serve::BandwidthService`, checked afterwards against sequential
//! `SlidingWindowSelector` replays.
//!
//! * `serve-steady` is an open loop: one generator thread sends
//!   Poisson-timed arrivals (`send`) to a fixed number of live sessions; a
//!   session ends after a fixed number of arrivals, and a second thread
//!   then closes it (the read: it returns the final bandwidth) and opens
//!   the session that will later replace its successor.
//! * `serve-burst` is a closed loop: one thread replays a recorded log as
//!   fast as `send_blocking` admits it, round-robin across the streams, in
//!   rounds of a fixed size; streams close only at `shutdown`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use kcv_bench::alloc_track;
use kcv_core::cv::{CvOptimum, SlidingWindowSelector};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_core::util::SplitMix64;
use kcv_data::{Dgp, PaperDgp};
use kcv_obs::Snapshot;
use kcv_serve::{
    merge_snapshots, BandwidthService, ServeConfig, ServeError, StreamId, StreamOutcome,
};

use crate::report::{Outcome, TailNote};
use crate::stats::{median, nanos_to_ms, quantile, Summary};
use crate::trace::{self, Tracer};
use crate::{sub_seed, Run};

/// The service and stream configuration both serving workloads share.
#[derive(Debug, Clone)]
pub struct ServeShape {
    /// Worker shards.
    pub shards: usize,
    /// Sliding-window capacity `W` of every stream.
    pub window: usize,
    /// Re-selection cadence `C` in arrivals.
    pub cadence: usize,
    /// Points of the log bandwidth grid over `[1e-3, 0.3]`.
    pub k: usize,
    /// Concurrent streams (sessions).
    pub streams: usize,
}

impl ServeShape {
    /// 2 shards, W = 512, C = 32, k = 64, 16 streams.
    pub fn benchmark() -> Self {
        ServeShape {
            shards: 2,
            window: 512,
            cadence: 32,
            k: 64,
            streams: 16,
        }
    }

    /// A small shape for tests.
    pub fn smoke() -> Self {
        ServeShape {
            shards: 2,
            window: 64,
            cadence: 8,
            k: 12,
            streams: 4,
        }
    }

    /// The bandwidth grid every stream scores over: log-spaced on the
    /// paper DGP's unit regressor domain.
    pub fn grid(&self) -> BandwidthGrid {
        BandwidthGrid::log(1e-3, 0.3, self.k).expect("fixed log grid is valid")
    }

    /// `ServeConfig::new` defaults (conflation on, queue depth 1 024).
    pub fn config(&self) -> ServeConfig {
        ServeConfig::new(self.shards, self.window, self.cadence)
    }

    fn service(&self) -> Result<BandwidthService<Epanechnikov>, ServeError> {
        BandwidthService::new(Epanechnikov, self.grid(), self.config())
    }
}

/// Sizes of `serve-steady`.
#[derive(Debug, Clone)]
pub struct SteadyConfig {
    /// Service and stream configuration.
    pub shape: ServeShape,
    /// Offered Poisson arrival rate, arrivals per second, fixed: about a
    /// third of the shards' capacity without conflation (2 shards × 32
    /// arrivals per ~10 ms reselect). At half capacity, hypervisor steal on
    /// a shared 2-vCPU host pushes the shards towards saturation, and
    /// queueing then multiplies a 1.5× slowdown into 3× arrival tails.
    pub rate_aps: f64,
    /// Arrivals after which a session ends and is closed.
    pub session_len: usize,
    /// Set-ups per run (the median is reported).
    pub setups: usize,
    /// Arrivals per stream in each set-up's warm-up replay.
    pub warmup_per_stream: usize,
    /// Tail quantile of arrival latency.
    pub arrival_tail_q: f64,
    /// Tail quantile of close latency.
    pub close_tail_q: f64,
    /// Closed sessions replayed with per-call spans in the traced run.
    pub traced_replays: usize,
    /// A run whose generator ran later than this at its median, or
    /// delivered less than 99% of the offered rate, fell behind and is
    /// invalid. Its tail is host jitter, not falling behind: a sleeping
    /// thread on the benchmark's 2-vCPU host oversleeps by about 4 ms at
    /// p99 even when the host is idle, and by more under hypervisor steal.
    pub max_late_p50_ms: f64,
}

impl SteadyConfig {
    /// The benchmark's configuration.
    pub fn benchmark() -> Self {
        SteadyConfig {
            shape: ServeShape::benchmark(),
            rate_aps: 2_000.0,
            session_len: 1_024,
            setups: 5,
            warmup_per_stream: 512,
            arrival_tail_q: 0.99,
            close_tail_q: 0.75,
            traced_replays: 4,
            max_late_p50_ms: 1.0,
        }
    }

    /// A seconds-long configuration for tests.
    pub fn smoke() -> Self {
        SteadyConfig {
            shape: ServeShape::smoke(),
            rate_aps: 2_000.0,
            session_len: 64,
            setups: 1,
            warmup_per_stream: 32,
            arrival_tail_q: 0.9,
            close_tail_q: 0.5,
            traced_replays: 2,
            max_late_p50_ms: 50.0,
        }
    }
}

/// Sizes of `serve-burst`.
#[derive(Debug, Clone)]
pub struct BurstConfig {
    /// Service and stream configuration.
    pub shape: ServeShape,
    /// Arrivals per stream in one round of the replayed log.
    pub per_stream: usize,
    /// Set-ups per run (the median is reported).
    pub setups: usize,
    /// Arrivals per stream in each set-up's warm-up replay.
    pub warmup_per_stream: usize,
    /// Tail quantile of arrival latency within a round.
    pub tail_q: f64,
    /// Tail quantile of the per-round `shutdown` time.
    pub shutdown_tail_q: f64,
    /// Fewest rounds a run measures.
    pub min_rounds: usize,
    /// The traced run records a span for one send in this many.
    pub send_span_every: usize,
    /// Streams replayed with per-call spans in the traced run.
    pub traced_replays: usize,
}

impl BurstConfig {
    /// The benchmark's configuration.
    pub fn benchmark() -> Self {
        BurstConfig {
            shape: ServeShape::benchmark(),
            per_stream: 1_024,
            setups: 5,
            warmup_per_stream: 512,
            tail_q: 0.999,
            shutdown_tail_q: 0.7,
            min_rounds: 34,
            send_span_every: 64,
            traced_replays: 2,
        }
    }

    /// A seconds-long configuration for tests.
    pub fn smoke() -> Self {
        BurstConfig {
            shape: ServeShape::smoke(),
            per_stream: 256,
            setups: 1,
            warmup_per_stream: 32,
            tail_q: 0.9,
            shutdown_tail_q: 0.5,
            min_rounds: 2,
            send_span_every: 4,
            traced_replays: 1,
        }
    }
}

/// One stream's arrival sequence.
struct Stream {
    id: StreamId,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Stream {
    fn generate(seed: u64, tag: u64, id: StreamId, len: usize) -> Self {
        let s = PaperDgp.sample(len, sub_seed(seed, tag, id));
        Stream { id, x: s.x, y: s.y }
    }
}

/// Set-up, timed: generate a warm-up log, start a service, open the
/// streams, replay the log, shut down. Returns seconds.
fn setup_once(
    shape: &ServeShape,
    seed: u64,
    rep: usize,
    per_stream: usize,
    out: &mut Outcome,
) -> f64 {
    let t = Instant::now();
    let streams: Vec<Stream> = (0..shape.streams as u64)
        .map(|id| Stream::generate(seed, 40 + rep as u64, id, per_stream))
        .collect();
    match shape.service() {
        Ok(service) => {
            let opened = streams.iter().all(|s| service.open(s.id).is_ok());
            for i in 0..per_stream {
                for s in &streams {
                    let _ = service.send_blocking(s.id, s.x[i], s.y[i]);
                }
            }
            let report = service.shutdown();
            out.check(opened && report.streams.len() == streams.len(), || {
                "set-up replay lost a stream".into()
            });
        }
        Err(e) => out.check(false, || format!("service start failed: {e}")),
    }
    t.elapsed().as_secs_f64()
}

/// The final optimum of a sequential replay of `x`/`y` through a fresh
/// selector, with the service's close semantics. With a tracer on, each
/// `push_deferred` and cadence-due `reselect_now` gets a span under one
/// replay span; otherwise only the final re-selection runs.
fn replay(
    shape: &ServeShape,
    x: &[f64],
    y: &[f64],
    tracer: Option<(&Tracer, u64)>,
) -> Option<CvOptimum> {
    let mut sel =
        SlidingWindowSelector::new(Epanechnikov, shape.grid(), shape.window, shape.cadence)
            .expect("benchmark window and cadence are valid");
    match tracer {
        Some((t, request)) => {
            let root = t.span("incremental.replay", request, None);
            for (&xi, &yi) in x.iter().zip(y) {
                let due = {
                    let _s = t.span("incremental.push", request, root.id());
                    sel.push_deferred(xi, yi)
                };
                if due == Ok(true) {
                    let _s = t.span("incremental.reselect", request, root.id());
                    let _ = sel.reselect_now();
                }
            }
            let _s = t.span("incremental.reselect", request, root.id());
            final_optimum(&mut sel)
        }
        None => {
            for (&xi, &yi) in x.iter().zip(y) {
                let _ = sel.push_deferred(xi, yi);
            }
            final_optimum(&mut sel)
        }
    }
}

fn final_optimum(sel: &mut SlidingWindowSelector<Epanechnikov>) -> Option<CvOptimum> {
    if sel.len() >= 2 {
        sel.reselect_now().ok().or_else(|| sel.current())
    } else {
        sel.current()
    }
}

/// Compares a served stream's final bandwidth with its replay, bit for bit.
fn check_stream(
    out: &mut Outcome,
    id: StreamId,
    served: &StreamOutcome,
    replayed: Option<CvOptimum>,
) {
    let a = served.final_optimum.map(|o| o.bandwidth.to_bits());
    let b = replayed.map(|o| o.bandwidth.to_bits());
    out.check(a == b, || {
        format!("stream {id}: served bandwidth {a:?} differs from replay {b:?}")
    });
    out.failed += served.rejected;
}

/// Reselects the cadence fired (a stream's reselects minus its final one)
/// and the cadence boundaries its arrivals crossed.
fn cadence_counts(shape: &ServeShape, o: &StreamOutcome) -> (u64, u64) {
    let final_one = u64::from(o.final_optimum.is_some() && o.arrivals >= 2);
    (
        o.reselects.saturating_sub(final_one),
        o.arrivals / shape.cadence as u64,
    )
}

/// Service-level per-layer metrics shared by both serving workloads.
struct ServiceTotals {
    metrics: Snapshot,
    /// Service wall time the busy fractions divide by, nanoseconds.
    wall_ns: f64,
    cadence_reselects: u64,
    boundaries: u64,
}

fn serve_layers(out: &mut Outcome, shape: &ServeShape, t: &ServiceTotals, send_tail_q: f64) {
    let spans = out.spans.clone();
    let selfs = trace::self_times(&spans);
    let us = |name: &str| -> Vec<f64> {
        trace::durations(&spans, name)
            .iter()
            .map(|&ns| ns as f64 * 1e-3)
            .collect()
    };
    let send = Summary::of(&mut us("serve.send"), send_tail_q);
    out.layer("serve.send_us_p50", "us", send.p50);
    out.layer("serve.send_us_tail", "us", send.tail);
    out.tails.push(TailNote {
        metric: "serve.send_us_tail",
        percentile: send_tail_q * 100.0,
        samples: send.samples,
    });
    out.layer("serve.open_us", "us", median(&mut us("serve.open")));
    let busy = t.wall_ns * shape.shards as f64;
    out.layer(
        "serve.busy_frac",
        "ratio",
        t.metrics.phase_nanos("serve.batch") as f64 / busy,
    );
    out.layer(
        "serve.reselect_busy_frac",
        "ratio",
        t.metrics.phase_nanos("serve.reselect") as f64 / busy,
    );
    for (metric, counter) in [
        ("serve.requests_served", "requests_served"),
        ("serve.coalesced_arrivals", "coalesced_arrivals"),
        ("serve.queue_high_water", "queue_high_water"),
        ("serve.shed_requests", "shed_requests"),
    ] {
        out.layer(metric, "count", t.metrics.counter(counter) as f64);
    }
    out.layer(
        "serve.reselects_per_boundary",
        "ratio",
        if t.boundaries == 0 {
            0.0
        } else {
            t.cadence_reselects as f64 / t.boundaries as f64
        },
    );
    out.layer(
        "incremental.tree_updates",
        "count",
        t.metrics.counter("tree_updates") as f64,
    );
    out.layer(
        "incremental.reselects",
        "count",
        t.metrics.counter("reselects") as f64,
    );
    let push = median(&mut us("incremental.push"));
    let reselect_ms = median(&mut us("incremental.reselect")) * 1e-3;
    out.layer("incremental.push_us", "us", push);
    out.layer("incremental.reselect_ms", "ms", reselect_ms);
    out.layer(
        "incremental.ns_per_cell",
        "ns",
        reselect_ms * 1e6 / (shape.window * shape.k) as f64,
    );
    out.layer(
        "trace.coverage_frac",
        "ratio",
        trace::child_coverage(&spans, &selfs),
    );
}

// ---------------------------------------------------------------------------
// serve-steady

/// One planned session of the steady workload.
struct Session {
    stream: Stream,
    slot: usize,
    /// Arrivals the session receives before it is closed.
    len: usize,
    /// Arrivals the plan actually sends it (less than `len` for sessions
    /// still live when the run ends).
    planned: usize,
}

/// One planned arrival.
struct Planned {
    due_ns: u64,
    session: usize,
    pos: usize,
}

/// The steady workload's traffic, drawn from the seed: Poisson arrival
/// times at the fixed rate, a uniformly chosen live session per arrival.
/// Session `g` of slot `s` has id `s + streams·g`; first-generation
/// sessions are shortened in steps so that closes spread out over time.
struct SteadyPlan {
    sessions: Vec<Session>,
    /// Session indices of each slot, generation order.
    by_slot: Vec<Vec<usize>>,
    arrivals: Vec<Planned>,
}

impl SteadyPlan {
    fn new(cfg: &SteadyConfig, seed: u64, total: usize) -> Self {
        let streams = cfg.shape.streams;
        let mut plan = SteadyPlan {
            sessions: Vec::new(),
            by_slot: vec![Vec::new(); streams],
            arrivals: Vec::new(),
        };
        for slot in 0..streams {
            let first = (cfg.session_len * (slot + 1) / streams).max(2);
            plan.add_session(cfg, seed, slot, first);
            plan.add_session(cfg, seed, slot, cfg.session_len);
        }
        let mut current: Vec<usize> = plan.by_slot.iter().map(|s| s[0]).collect();
        let mut rng = SplitMix64::new(sub_seed(seed, 20, 0));
        let mut t = 0.0f64;
        plan.arrivals.reserve_exact(total);
        for _ in 0..total {
            t += -(1.0 - rng.next_f64()).ln() / cfg.rate_aps;
            let slot = (rng.next_u64() % streams as u64) as usize;
            let session = current[slot];
            let pos = plan.sessions[session].planned;
            plan.sessions[session].planned += 1;
            plan.arrivals.push(Planned {
                due_ns: (t * 1e9) as u64,
                session,
                pos,
            });
            if pos + 1 == plan.sessions[session].len {
                let next = plan.by_slot[slot]
                    .iter()
                    .position(|&i| i == session)
                    .expect("listed")
                    + 1;
                current[slot] = plan.by_slot[slot][next];
                // Keep one opened-ahead successor per slot.
                plan.add_session(cfg, seed, slot, cfg.session_len);
            }
        }
        plan
    }

    fn add_session(&mut self, cfg: &SteadyConfig, seed: u64, slot: usize, len: usize) {
        let generation = self.by_slot[slot].len();
        let id = (slot + cfg.shape.streams * generation) as StreamId;
        self.by_slot[slot].push(self.sessions.len());
        self.sessions.push(Session {
            stream: Stream::generate(seed, 21, id, len),
            slot,
            len,
            planned: 0,
        });
    }

    /// The session opened after `session` closes: two generations on.
    fn successor_to_open(&self, session: usize) -> Option<usize> {
        let list = &self.by_slot[self.sessions[session].slot];
        let at = list.iter().position(|&i| i == session)?;
        list.get(at + 2).copied()
    }
}

/// What the closer thread measured.
#[derive(Default)]
struct Closer {
    close_ns: Vec<u64>,
    closed: Vec<(usize, Result<StreamOutcome, ServeError>)>,
    open_failures: u64,
    opens: u64,
}

/// Runs `serve-steady`. `Err` when the generator fell behind its schedule
/// by more than the configured bound: such a run is invalid, not a result.
pub fn run_steady(cfg: &SteadyConfig, run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = Tracer::new(run.traced);
    let shape = &cfg.shape;

    let mut setups: Vec<f64> = (0..cfg.setups.max(1))
        .map(|r| setup_once(shape, run.seed, r, cfg.warmup_per_stream, &mut out))
        .collect();
    let total = (cfg.rate_aps * run.seconds).round().max(1.0) as usize;
    let plan = SteadyPlan::new(cfg, run.seed, total);

    alloc_track::reset_peak();
    let base = alloc_track::current_bytes();
    let service = shape
        .service()
        .map_err(|e| format!("service start failed: {e}"))?;
    let opened: Vec<AtomicBool> = plan
        .sessions
        .iter()
        .map(|_| AtomicBool::new(false))
        .collect();
    for list in &plan.by_slot {
        for &i in list.iter().take(2) {
            let id = plan.sessions[i].stream.id;
            let _s = tracer.span("serve.open", id, None);
            out.attempted += 1;
            match service.open(id) {
                Ok(()) => opened[i].store(true, Ordering::Release),
                Err(_) => out.failed += 1,
            }
        }
    }

    let start = Instant::now() + Duration::from_millis(5);
    let mut late_ns: Vec<u64> = Vec::with_capacity(plan.arrivals.len());
    let mut send_failures = 0u64;
    let mut last_sent = start;
    let (tx, rx) = mpsc::channel::<usize>();
    let closer = std::thread::scope(|scope| {
        let closer = scope.spawn(|| {
            let mut c = Closer::default();
            for session in rx {
                let id = plan.sessions[session].stream.id;
                let t = Instant::now();
                let result = {
                    let _s = tracer.span("serve.close", id, None);
                    service.close(id).map(|r| r.outcome)
                };
                c.close_ns.push(t.elapsed().as_nanos() as u64);
                c.closed.push((session, result));
                if let Some(next) = plan.successor_to_open(session) {
                    let id = plan.sessions[next].stream.id;
                    let _s = tracer.span("serve.open", id, None);
                    c.opens += 1;
                    match service.open(id) {
                        Ok(()) => opened[next].store(true, Ordering::Release),
                        Err(_) => c.open_failures += 1,
                    }
                }
            }
            c
        });

        for a in &plan.arrivals {
            let due = start + Duration::from_nanos(a.due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            while !opened[a.session].load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(50));
            }
            let s = &plan.sessions[a.session];
            let sent_at = Instant::now();
            late_ns.push(sent_at.saturating_duration_since(due).as_nanos() as u64);
            let result = {
                let _s = tracer.span("serve.send", s.stream.id, None);
                service.send(s.stream.id, s.stream.x[a.pos], s.stream.y[a.pos])
            };
            if result.is_err() {
                send_failures += 1;
            }
            last_sent = sent_at;
            if a.pos + 1 == s.len {
                tx.send(a.session).expect("closer outlives the generator");
            }
        }
        drop(tx);
        closer.join().expect("closer thread panicked")
    });
    let report = service.shutdown();
    let wall = start.elapsed();
    let heap_mb = alloc_track::peak_bytes().saturating_sub(base) as f64 * 1e-6;

    out.attempted += plan.arrivals.len() as u64 + closer.closed.len() as u64 + closer.opens;
    out.failed += send_failures + closer.open_failures + report.unknown_arrivals;

    // Generator honesty: a schedule run late measures the generator, not
    // the service.
    let mut late = nanos_to_ms(&late_ns);
    let late_sum = Summary::of(&mut late, 0.99);
    let late_p90 = quantile(&mut late, 0.9);
    out.notes.push(("generator_late_p50_ms", late_sum.p50));
    out.notes.push(("generator_late_p90_ms", late_p90));
    out.notes.push(("generator_late_p99_ms", late_sum.tail));
    let last_due = plan.arrivals.last().map_or(1.0, |a| a.due_ns as f64 * 1e-9);
    let offered = plan.arrivals.len() as f64 / last_due;
    let sending = last_sent
        .saturating_duration_since(start)
        .as_secs_f64()
        .max(last_due);
    let achieved = plan.arrivals.len() as f64 / sending;
    if late_sum.p50 > cfg.max_late_p50_ms || achieved < 0.99 * offered {
        return Err(format!(
            "generator fell behind: {:.3} ms late at p50 (bound {} ms), \
             {achieved:.0} of {offered:.0} arrivals/s: run invalid",
            late_sum.p50, cfg.max_late_p50_ms
        ));
    }

    // Correctness: every session's final bandwidth against a sequential
    // replay of exactly the arrivals it was sent.
    let (mut cadence_reselects, mut boundaries, mut applied) = (0u64, 0u64, 0u64);
    let mut traced_left = if run.traced { cfg.traced_replays } else { 0 };
    let mut outcomes: Vec<(usize, StreamOutcome)> = Vec::new();
    for (session, result) in closer.closed {
        match result {
            Ok(o) => outcomes.push((session, o)),
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("close of session {session} failed: {e}"));
            }
        }
    }
    let closed_count = outcomes.len();
    for r in report.streams {
        if let Some(i) = plan.sessions.iter().position(|s| s.stream.id == r.stream) {
            outcomes.push((i, r.outcome));
        }
    }
    for (i, (session, o)) in outcomes.iter().enumerate() {
        let s = &plan.sessions[*session];
        let (x, y) = (&s.stream.x[..s.planned], &s.stream.y[..s.planned]);
        // Traced replays time full-length sessions, whose windows filled.
        let traced = i < closed_count && s.len == cfg.session_len && traced_left > 0;
        traced_left -= usize::from(traced);
        let replayed = replay(shape, x, y, traced.then_some((&tracer, s.stream.id)));
        check_stream(&mut out, s.stream.id, o, replayed);
        let (c, b) = cadence_counts(shape, o);
        cadence_reselects += c;
        boundaries += b;
        applied += o.arrivals;
    }
    out.check(
        applied + send_failures == plan.arrivals.len() as u64,
        || format!("{applied} arrivals applied of {} sent", plan.arrivals.len()),
    );

    let mut arrival = nanos_to_ms(&report.latencies_nanos);
    let mut close = nanos_to_ms(&closer.close_ns);
    out.e2e("setup_s", "s", median(&mut setups));
    out.e2e("peak_heap_mb", "MB", heap_mb);
    // The read is the primary call. The arrival median is reported per
    // layer only: it flips between the worker's wake-up latency and waiting
    // behind a reselect as host speed moves the busy share across 50%.
    out.primary(Summary::of(&mut close, cfg.close_tail_q));
    out.secondary(Summary::of(&mut arrival, cfg.arrival_tail_q));
    out.e2e(
        "throughput_per_s",
        "1/s",
        applied as f64 / wall.as_secs_f64(),
    );

    if run.traced {
        out.spans = tracer.take();
        let totals = ServiceTotals {
            metrics: report.metrics,
            wall_ns: wall.as_nanos() as f64,
            cadence_reselects,
            boundaries,
        };
        serve_layers(&mut out, shape, &totals, cfg.arrival_tail_q);
        out.layer("gen.offered_aps", "1/s", offered);
        out.layer("gen.achieved_aps", "1/s", achieved);
        out.layer("gen.late_p50_ms", "ms", late_sum.p50);
        out.layer("gen.late_tail_ms", "ms", late_sum.tail);
        out.tails.push(TailNote {
            metric: "gen.late_tail_ms",
            percentile: 99.0,
            samples: late_sum.samples,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// serve-burst

/// Runs `serve-burst`: rounds of a fixed-size replayed log until
/// `run.seconds` of round time has been measured.
pub fn run_burst(cfg: &BurstConfig, run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new(run.traced);
    let shape = &cfg.shape;
    let mut setups: Vec<f64> = (0..cfg.setups.max(1))
        .map(|r| setup_once(shape, run.seed, r, cfg.warmup_per_stream, &mut out))
        .collect();

    let per_round = shape.streams * cfg.per_stream;
    let mut shutdown_ms = Vec::new();
    let (mut round_p50s, mut round_tails) = (Vec::new(), Vec::new());
    let mut throughputs = Vec::new();
    let mut heaps = Vec::new();
    let mut snapshots: Vec<Snapshot> = Vec::new();
    let (mut cadence_reselects, mut boundaries) = (0u64, 0u64);
    let mut measured = Duration::ZERO;
    let mut traced_left = if run.traced { cfg.traced_replays } else { 0 };
    let mut sends = 0u64;
    let budget = Duration::from_secs_f64(run.seconds);

    let mut round = 0u64;
    while measured < budget || (round as usize) < cfg.min_rounds {
        // Every round reuses ids 0..streams, so the shard split is the
        // same in every round; the data differ per round.
        let streams: Vec<Stream> = (0..shape.streams as u64)
            .map(|id| Stream::generate(run.seed, 30 + round, id, cfg.per_stream))
            .collect();
        alloc_track::reset_peak();
        let base = alloc_track::current_bytes();
        let service = match shape.service() {
            Ok(s) => s,
            Err(e) => {
                out.check(false, || format!("service start failed: {e}"));
                break;
            }
        };
        for s in &streams {
            let _span = tracer.span("serve.open", s.id, None);
            out.attempted += 1;
            if service.open(s.id).is_err() {
                out.failed += 1;
            }
        }
        let t0 = Instant::now();
        for i in 0..cfg.per_stream {
            for s in &streams {
                let _span = if sends.is_multiple_of(cfg.send_span_every as u64) {
                    Some(tracer.span("serve.send", s.id, None))
                } else {
                    None
                };
                if service.send_blocking(s.id, s.x[i], s.y[i]).is_err() {
                    out.failed += 1;
                }
                sends += 1;
            }
        }
        let t1 = Instant::now();
        let report = {
            let _span = tracer.span("serve.shutdown", round, None);
            service.shutdown()
        };
        let round_time = t0.elapsed();
        shutdown_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        heaps.push(alloc_track::peak_bytes().saturating_sub(base) as f64 * 1e-6);
        measured += round_time;
        out.attempted += per_round as u64;
        out.failed += report.unknown_arrivals;

        let mut applied = 0u64;
        for r in &report.streams {
            let Some(s) = streams.iter().find(|s| s.id == r.stream) else {
                continue;
            };
            let traced = traced_left > 0;
            traced_left -= usize::from(traced);
            let replayed = replay(shape, &s.x, &s.y, traced.then_some((&tracer, s.id)));
            check_stream(&mut out, s.id, &r.outcome, replayed);
            let (c, b) = cadence_counts(shape, &r.outcome);
            cadence_reselects += c;
            boundaries += b;
            applied += r.outcome.arrivals;
        }
        out.check(
            report.streams.len() == streams.len() && applied == per_round as u64,
            || format!("round {round}: {applied} of {per_round} arrivals applied"),
        );
        throughputs.push(applied as f64 / round_time.as_secs_f64());
        let round_latency = Summary::of(&mut nanos_to_ms(&report.latencies_nanos), cfg.tail_q);
        round_p50s.push(round_latency.p50);
        round_tails.push(round_latency.tail);
        snapshots.push(report.metrics);
        round += 1;
    }

    out.e2e("setup_s", "s", median(&mut setups));
    out.e2e("peak_heap_mb", "MB", median(&mut heaps));
    // As on serve-steady, the read is the primary call and the arrival
    // median is reported per layer only: where a round's median arrival
    // sits in the batch cycle of the two shared-producer queues moves it
    // by half from run to run. Arrival latency is summarised per round,
    // then the median round, so a round that hypervisor steal slowed
    // moves it little.
    out.primary(Summary::of(&mut shutdown_ms, cfg.shutdown_tail_q));
    out.secondary(Summary {
        p50: median(&mut round_p50s),
        tail: median(&mut round_tails),
        tail_q: cfg.tail_q,
        samples: per_round,
    });
    out.e2e("throughput_per_s", "1/s", median(&mut throughputs));

    if run.traced {
        out.spans = tracer.take();
        let totals = ServiceTotals {
            metrics: merge_snapshots(&snapshots),
            wall_ns: measured.as_nanos() as f64,
            cadence_reselects,
            boundaries,
        };
        // Send spans are sampled, so their tail stops at p99.
        serve_layers(&mut out, shape, &totals, 0.99);
        out.layer(
            "gen.achieved_aps",
            "1/s",
            sends as f64 / measured.as_secs_f64(),
        );
    }
    out
}
