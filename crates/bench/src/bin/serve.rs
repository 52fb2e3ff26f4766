//! Sharded multi-stream serving benchmark: `kcv_serve::BandwidthService`
//! vs one global lock around a stream map.
//!
//! Replays `--streams` concurrent paper-DGP arrival streams (default 256,
//! each a distinct rotation of one `--arrivals`-long sample, default 10⁴)
//! through an `--shards`-shard [`BandwidthService`] (default 8) and then
//! through the [`GlobalLockService`] baseline on the identical per-stream
//! sequences. Both runs are driven by the same producer-thread pool, so
//! the baseline's lock convoy is measured, not assumed.
//!
//! What separates the two on a machine of any core count is re-selection
//! **conflation**: producers outpace a shard worker whenever a
//! re-selection runs, so arrivals pool in the bounded queues and each
//! drained burst crosses many cadence boundaries — funding *one*
//! `reselect()` where the baseline, re-selecting synchronously under its
//! lock at every boundary, pays one per boundary. On a multi-core host
//! the shards additionally run in parallel; the speedup floor below is
//! set so the check also holds on a single core, where conflation is the
//! whole effect.
//!
//! Outputs:
//!
//! * `results/serve.csv` — one row with the full measurement (CI uploads
//!   this);
//! * stdout — the rendered table (throughput, p50/p99 enqueue-to-select
//!   latency, re-selection counts) plus the perf-gate-18 acceptance
//!   checks: ≥ 4× throughput over the global lock, per-stream final
//!   bandwidths bit-identical to the baseline's, nothing shed, and — on
//!   a `--features metrics` build — zero kernel evaluations service-wide
//!   with coalescing observed.
//!
//! The whole comparison runs [`GATE_PAIRS`] times, each a sharded run then
//! a baseline run. The throughput check takes the median of the pairs'
//! speedups and prints every pair's, since a single pair's ratio swings
//! with host load; the table and CSV report the median pair. The other
//! checks must hold in every pair.
//!
//! Exits non-zero if any check fails.
//!
//! Usage: `cargo run --release -p kcv-bench --bin serve --
//! [--streams 256] [--arrivals 10000] [--shards 8] [--window 256]
//! [--cadence 250] [--k 64] [--producers 4] [--seed 42]`

use kcv_bench::table::{arg_parse, fmt_seconds, render, write_csv};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_data::{Dgp, PaperDgp};
use kcv_serve::{
    BandwidthService, GlobalLockService, ServeConfig, ServiceReport, StreamId, StreamOutcome,
};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Gate 18's wall-clock floor: the sharded service must beat the
/// global-lock baseline by at least this factor.
const SPEEDUP_FLOOR: f64 = 4.0;

/// Sharded/global-lock pairs whose median speedup the floor applies to.
const GATE_PAIRS: usize = 3;

/// The replayed traffic: `streams` rotations of one sample, sent by
/// `producers` threads.
struct Traffic<'a> {
    x: &'a [f64],
    y: &'a [f64],
    streams: usize,
    arrivals: usize,
    producers: usize,
}

impl Traffic<'_> {
    /// The arrival fed to stream `s` at position `i`: the shared sample
    /// rotated by `41·s`, so every stream carries a distinct sequence while
    /// both services still see identical per-stream inputs.
    fn arrival(&self, s: usize, i: usize) -> (f64, f64) {
        let j = (i + 41 * s) % self.x.len();
        (self.x[j], self.y[j])
    }

    /// Sends every arrival through `send` from the producer threads.
    ///
    /// Producer p owns streams p, p+producers, p+2·producers, … so each
    /// stream's arrival order is preserved end to end. Each stream is
    /// replayed in one pass — the firehose shape: the producer outruns
    /// the shard worker, the queue holds thousands of one stream's
    /// arrivals, and every drain hands the worker a burst crossing many
    /// cadence boundaries to conflate.
    fn replay(&self, send: impl Fn(StreamId, f64, f64) + Sync) {
        std::thread::scope(|scope| {
            for p in 0..self.producers {
                let send = &send;
                scope.spawn(move || {
                    for id in (p..self.streams).step_by(self.producers) {
                        for i in 0..self.arrivals {
                            let (xi, yi) = self.arrival(id, i);
                            send(id as StreamId, xi, yi);
                        }
                    }
                });
            }
        });
    }
}

/// One sharded run and one global-lock run on the same traffic.
struct Pair {
    report: ServiceReport,
    wall_seconds: f64,
    lock_outcomes: Vec<(StreamId, StreamOutcome)>,
    lock_wall_seconds: f64,
}

impl Pair {
    /// Runs the sharded service, then the baseline, each timed from the
    /// first send to the end of its shutdown (the queues drained and every
    /// stream closed); `Err` describes a construction or open failure.
    fn run(
        traffic: &Traffic<'_>,
        grid: &BandwidthGrid,
        config: &ServeConfig,
    ) -> Result<Self, String> {
        let service = BandwidthService::new(Epanechnikov, grid.clone(), config.clone())
            .map_err(|e| format!("service construction failed: {e}"))?;
        for id in 0..traffic.streams {
            service
                .open(id as StreamId)
                .map_err(|e| format!("open({id}) failed: {e}"))?;
        }
        let start = Instant::now();
        traffic.replay(|id, xi, yi| {
            service
                .send_blocking(id, xi, yi)
                .expect("blocking send only fails at shutdown");
        });
        let report = service.shutdown();
        let wall_seconds = start.elapsed().as_secs_f64();

        let lock = GlobalLockService::new(Epanechnikov, grid.clone(), config.clone())
            .map_err(|e| format!("baseline construction failed: {e}"))?;
        for id in 0..traffic.streams {
            lock.open(id as StreamId)
                .map_err(|e| format!("baseline open({id}) failed: {e}"))?;
        }
        let start = Instant::now();
        traffic.replay(|id, xi, yi| {
            lock.send(id, xi, yi)
                .expect("stream is open and finite data never errors");
        });
        let lock_outcomes = lock.shutdown();
        let lock_wall_seconds = start.elapsed().as_secs_f64();
        Ok(Self {
            report,
            wall_seconds,
            lock_outcomes,
            lock_wall_seconds,
        })
    }

    fn speedup(&self) -> f64 {
        self.lock_wall_seconds / self.wall_seconds
    }

    /// Streams, in id order, whose id or final bandwidth differs from the
    /// baseline's.
    fn diverged(&self) -> usize {
        let mut diverged = 0;
        for (served, (oid, expected)) in self.report.streams.iter().zip(&self.lock_outcomes) {
            let a = served.outcome.final_optimum.map(|o| o.bandwidth.to_bits());
            let b = expected.final_optimum.map(|o| o.bandwidth.to_bits());
            if served.stream != *oid || a != b {
                diverged += 1;
            }
        }
        diverged
    }
}

/// Nanosecond latency percentile over a sorted sample.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let streams = arg_parse(&args, "--streams", 256usize).max(1);
    let arrivals = arg_parse(&args, "--arrivals", 10_000usize).max(2);
    let shards = arg_parse(&args, "--shards", 8usize).max(1);
    let window = arg_parse(&args, "--window", 256usize).max(2);
    let cadence = arg_parse(&args, "--cadence", 250usize).max(1);
    let k = arg_parse(&args, "--k", 64usize).max(2);
    let producers = arg_parse(&args, "--producers", 4usize).max(1).min(streams);
    let seed = arg_parse(&args, "--seed", 42u64);

    eprintln!("serve: sampling {arrivals} paper-DGP arrivals (seed {seed})…");
    let s = PaperDgp.sample(arrivals, seed);
    let (lo, hi) =
        s.x.iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
    let domain = hi - lo;
    let grid = match BandwidthGrid::log(domain * 1e-3, domain * 0.3, k) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("serve: log grid failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Queues deep enough that a drained burst spans many cadence
    // boundaries (a Request is ~48 bytes, so 8,192 per shard is still
    // only ~3 MB of buffer service-wide): conflation quality is bounded
    // by burst depth, and burst depth by queue capacity.
    let config = ServeConfig {
        queue_capacity: 8192,
        ..ServeConfig::new(shards, window, cadence)
    };
    let traffic = Traffic {
        x: &s.x,
        y: &s.y,
        streams,
        arrivals,
        producers,
    };

    let mut pairs = Vec::with_capacity(GATE_PAIRS);
    for pair in 1..=GATE_PAIRS {
        eprintln!(
            "serve: pair {pair}/{GATE_PAIRS}: replaying {streams} streams x {arrivals} \
             arrivals through {shards} shards, then the global lock ({producers} producers)…"
        );
        match Pair::run(&traffic, &grid, &config) {
            Ok(p) => pairs.push(p),
            Err(e) => {
                eprintln!("serve: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut speedups: Vec<f64> = pairs.iter().map(Pair::speedup).collect();
    speedups.sort_by(f64::total_cmp);
    let speedup = speedups[GATE_PAIRS / 2];
    let mid = pairs
        .iter()
        .find(|p| p.speedup() == speedup)
        .expect("the median is one of the pairs' speedups");

    // ---- measurements (the median pair) ----------------------------------
    let report = &mid.report;
    let (wall_seconds, lock_wall_seconds) = (mid.wall_seconds, mid.lock_wall_seconds);
    let total_arrivals = (streams * arrivals) as f64;
    let throughput = total_arrivals / wall_seconds;
    let lock_throughput = total_arrivals / lock_wall_seconds;
    let mut latencies = report.latencies_nanos.clone();
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let reselects: u64 = report.streams.iter().map(|r| r.outcome.reselects).sum();
    let lock_reselects: u64 = mid.lock_outcomes.iter().map(|(_, o)| o.reselects).sum();
    let coalesced = report.metrics.counter("coalesced_arrivals");
    let high_water = report.metrics.counter("queue_high_water");
    let shed = report.metrics.counter("shed_requests");
    let kernel_evals = report.metrics.counter("kernel_evals");
    let headers: Vec<String> = [
        "service",
        "wall",
        "arrivals/s",
        "p50 lat",
        "p99 lat",
        "reselects",
    ]
    .iter()
    .map(|h| h.to_string())
    .collect();
    let t_rows = vec![
        vec![
            format!("sharded ({shards})"),
            fmt_seconds(wall_seconds),
            format!("{throughput:.0}"),
            format!("{:.1} us", p50 as f64 / 1e3),
            format!("{:.1} us", p99 as f64 / 1e3),
            reselects.to_string(),
        ],
        vec![
            "global lock".to_string(),
            fmt_seconds(lock_wall_seconds),
            format!("{lock_throughput:.0}"),
            "-".to_string(),
            "-".to_string(),
            lock_reselects.to_string(),
        ],
    ];
    println!(
        "SHARDED SERVING (S = {streams}, A = {arrivals}, W = {window}, \
         C = {cadence}, k = {k})\n{}",
        render(&headers, &t_rows)
    );
    if kcv_obs::enabled() {
        println!(
            "serve: shard counters — coalesced_arrivals {coalesced}, \
             queue_high_water {high_water}, shed_requests {shed}, \
             kernel_evals {kernel_evals}"
        );
    }

    if let Err(e) = write_csv(
        Path::new("results/serve.csv"),
        &[
            "streams",
            "arrivals_per_stream",
            "shards",
            "window",
            "cadence",
            "wall_seconds",
            "throughput",
            "lock_wall_seconds",
            "lock_throughput",
            "speedup",
            "p50_latency_us",
            "p99_latency_us",
            "reselects",
            "lock_reselects",
            "coalesced_arrivals",
            "queue_high_water",
        ],
        &[vec![
            streams as f64,
            arrivals as f64,
            shards as f64,
            window as f64,
            cadence as f64,
            wall_seconds,
            throughput,
            lock_wall_seconds,
            lock_throughput,
            speedup,
            p50 as f64 / 1e3,
            p99 as f64 / 1e3,
            reselects as f64,
            lock_reselects as f64,
            coalesced as f64,
            high_water as f64,
        ]],
    ) {
        eprintln!("serve: cannot write results/serve.csv: {e}");
        return ExitCode::FAILURE;
    }

    // ---- acceptance checks (gate 18's criteria at bench scale) -----------
    let mut ok = true;

    let ratios: Vec<String> = pairs
        .iter()
        .map(|p| format!("{:.1}x", p.speedup()))
        .collect();
    let pass = speedup >= SPEEDUP_FLOOR;
    println!(
        "serve: {} — median {speedup:.1}x vs the global lock over {GATE_PAIRS} pairs \
         ({}; floor {SPEEDUP_FLOOR}x)",
        if pass { "PASS" } else { "FAIL" },
        ratios.join(", "),
    );
    ok &= pass;

    for (i, pair) in pairs.iter().enumerate() {
        let tag = format!("pair {}/{GATE_PAIRS}", i + 1);
        let streams = pair.report.streams.len();
        let diverged = pair.diverged();
        let identical = diverged == 0 && streams == pair.lock_outcomes.len();
        println!(
            "serve: {} — {tag}: {} of {streams} per-stream final bandwidths bit-identical to \
             sequential replay",
            if identical { "PASS" } else { "FAIL" },
            streams - diverged,
        );
        ok &= identical;

        let shed = pair.report.metrics.counter("shed_requests");
        let unknown = pair.report.unknown_arrivals;
        let lossless = shed == 0 && unknown == 0;
        println!(
            "serve: {} — {tag}: lossless delivery (shed {shed}, unknown {unknown})",
            if lossless { "PASS" } else { "FAIL" },
        );
        ok &= lossless;

        if kcv_obs::enabled() {
            let kernel_evals = pair.report.metrics.counter("kernel_evals");
            let coalesced = pair.report.metrics.counter("coalesced_arrivals");
            let engine = kernel_evals == 0 && coalesced > 0;
            println!(
                "serve: {} — {tag}: zero kernel evals service-wide ({kernel_evals}) with \
                 bursts coalesced ({coalesced})",
                if engine { "PASS" } else { "FAIL" },
            );
            ok &= engine;
        }
    }
    if !kcv_obs::enabled() {
        println!("serve: info — counters disabled; rebuild with --features metrics to check them");
    }

    if ok {
        println!("serve: all checks hold; wrote results/serve.csv");
        ExitCode::SUCCESS
    } else {
        println!("serve: acceptance check(s) failed");
        ExitCode::FAILURE
    }
}
