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
//! Exits non-zero if any check fails.
//!
//! Usage: `cargo run --release -p kcv-bench --bin serve --
//! [--streams 256] [--arrivals 10000] [--shards 8] [--window 256]
//! [--cadence 250] [--k 64] [--producers 4] [--seed 42]`

use kcv_bench::table::{arg_parse, fmt_seconds, render, write_csv};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_data::{Dgp, PaperDgp};
use kcv_serve::{BandwidthService, GlobalLockService, ServeConfig, StreamId};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Gate 18's wall-clock floor: the sharded service must beat the
/// global-lock baseline by at least this factor.
const SPEEDUP_FLOOR: f64 = 4.0;

/// The arrival fed to stream `s` at position `i`: the shared sample
/// rotated by `41·s`, so every stream carries a distinct sequence while
/// both services still see identical per-stream inputs.
fn arrival(x: &[f64], y: &[f64], s: usize, i: usize) -> (f64, f64) {
    let j = (i + 41 * s) % x.len();
    (x[j], y[j])
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
    let (lo, hi) = s
        .x
        .iter()
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

    // ---- sharded service run --------------------------------------------
    eprintln!(
        "serve: replaying {streams} streams x {arrivals} arrivals through \
         {shards} shards ({producers} producers)…"
    );
    let service = match BandwidthService::new(Epanechnikov, grid.clone(), config.clone()) {
        Ok(svc) => svc,
        Err(e) => {
            eprintln!("serve: service construction failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for id in 0..streams {
        if let Err(e) = service.open(id as StreamId) {
            eprintln!("serve: open({id}) failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let start = Instant::now();
    std::thread::scope(|scope| {
        // Producer p owns streams p, p+producers, p+2·producers, … so each
        // stream's arrival order is preserved end to end. Each stream is
        // replayed in one pass — the firehose shape: the producer outruns
        // the shard worker, the queue holds thousands of one stream's
        // arrivals, and every drain hands the worker a burst crossing many
        // cadence boundaries to conflate.
        for p in 0..producers {
            let service = &service;
            let (x, y) = (&s.x, &s.y);
            scope.spawn(move || {
                for id in (p..streams).step_by(producers) {
                    for i in 0..arrivals {
                        let (xi, yi) = arrival(x, y, id, i);
                        service
                            .send_blocking(id as StreamId, xi, yi)
                            .expect("blocking send only fails at shutdown");
                    }
                }
            });
        }
    });
    let report = service.shutdown();
    let wall_seconds = start.elapsed().as_secs_f64();

    // ---- global-lock baseline -------------------------------------------
    eprintln!("serve: global-lock baseline on the identical traffic…");
    let lock = match GlobalLockService::new(Epanechnikov, grid, config) {
        Ok(svc) => svc,
        Err(e) => {
            eprintln!("serve: baseline construction failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for id in 0..streams {
        if let Err(e) = lock.open(id as StreamId) {
            eprintln!("serve: baseline open({id}) failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let lock_start = Instant::now();
    std::thread::scope(|scope| {
        for p in 0..producers {
            let lock = &lock;
            let (x, y) = (&s.x, &s.y);
            scope.spawn(move || {
                for id in (p..streams).step_by(producers) {
                    for i in 0..arrivals {
                        let (xi, yi) = arrival(x, y, id, i);
                        lock.send(id as StreamId, xi, yi)
                            .expect("stream is open and finite data never errors");
                    }
                }
            });
        }
    });
    let lock_outcomes = lock.shutdown();
    let lock_wall_seconds = lock_start.elapsed().as_secs_f64();

    // ---- measurements ----------------------------------------------------
    let total_arrivals = (streams * arrivals) as f64;
    let throughput = total_arrivals / wall_seconds;
    let lock_throughput = total_arrivals / lock_wall_seconds;
    let speedup = lock_wall_seconds / wall_seconds;
    let mut latencies = report.latencies_nanos.clone();
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let reselects: u64 = report.streams.iter().map(|r| r.outcome.reselects).sum();
    let lock_reselects: u64 = lock_outcomes.iter().map(|(_, o)| o.reselects).sum();
    let coalesced = report.metrics.counter("coalesced_arrivals");
    let high_water = report.metrics.counter("queue_high_water");
    let shed = report.metrics.counter("shed_requests");
    let kernel_evals = report.metrics.counter("kernel_evals");

    let headers: Vec<String> = ["service", "wall", "arrivals/s", "p50 lat", "p99 lat", "reselects"]
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

    let pass = speedup >= SPEEDUP_FLOOR;
    println!(
        "serve: {} — {speedup:.1}x vs the global lock (floor {SPEEDUP_FLOOR}x)",
        if pass { "PASS" } else { "FAIL" },
    );
    ok &= pass;

    let mut diverged = 0usize;
    for (served, (oid, expected)) in report.streams.iter().zip(&lock_outcomes) {
        let a = served.outcome.final_optimum.map(|o| o.bandwidth.to_bits());
        let b = expected.final_optimum.map(|o| o.bandwidth.to_bits());
        if served.stream != *oid || a != b {
            diverged += 1;
        }
    }
    let identical = diverged == 0 && report.streams.len() == lock_outcomes.len();
    println!(
        "serve: {} — {} of {} per-stream final bandwidths bit-identical to \
         sequential replay",
        if identical { "PASS" } else { "FAIL" },
        report.streams.len() - diverged,
        report.streams.len(),
    );
    ok &= identical;

    let lossless = shed == 0 && report.unknown_arrivals == 0;
    println!(
        "serve: {} — lossless delivery (shed {shed}, unknown {})",
        if lossless { "PASS" } else { "FAIL" },
        report.unknown_arrivals,
    );
    ok &= lossless;

    if kcv_obs::enabled() {
        let engine = kernel_evals == 0 && coalesced > 0;
        println!(
            "serve: {} — zero kernel evals service-wide ({kernel_evals}) with \
             bursts coalesced ({coalesced})",
            if engine { "PASS" } else { "FAIL" },
        );
        ok &= engine;
    } else {
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
