//! `oneshot`: closed loop, one caller. Each request draws a fresh paper-DGP
//! sample, selects its bandwidth with the CPU prefix-moment grid search,
//! then with the windowed GPU program on the simulated Tesla S10, and
//! checks that the two agree.

use std::time::{Duration, Instant};

use kcv_bench::alloc_track;
use kcv_core::cv::{cv_profile_prefix, CvProfile};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_core::select::{BandwidthSelector, GridSpec, NaiveGridSearch, SortedGridSearch};
use kcv_data::{Dgp, PaperDgp};
use kcv_gpu::{select_bandwidth_gpu_windowed, GpuConfig, WindowedRun};
use kcv_obs::{Counter, Recorder, Snapshot};

use crate::report::Outcome;
use crate::stats::{median, samples_for_tail, Summary};
use crate::trace::{self, Tracer};
use crate::{sub_seed, Run};

/// Relative CV-score tolerance between the pair-f32 windowed GPU program
/// and the f64 CPU profile for kernels of degree ≤ 2 (Epanechnikov), as
/// documented and tested in `crates/gpu/tests/windowed_agreement.rs`.
pub const PAIR_F32_REL_TOL: f64 = 2e-3;

/// Sizes of the `oneshot` workload.
#[derive(Debug, Clone)]
pub struct OneshotConfig {
    /// Observations per request.
    pub n: usize,
    /// Paper-default grid size.
    pub k: usize,
    /// Size of the held-out sample checked against the naive oracle.
    pub check_n: usize,
    /// Set-ups per run (the median is reported).
    pub setups: usize,
    /// Tail quantile reported for both selection latencies.
    pub tail_q: f64,
}

impl OneshotConfig {
    /// The benchmark's configuration: n = 20 000, k = 100.
    pub fn benchmark() -> Self {
        OneshotConfig {
            n: 20_000,
            k: 100,
            check_n: 400,
            setups: 5,
            tail_q: 0.7,
        }
    }

    /// A seconds-long configuration for tests.
    pub fn smoke() -> Self {
        OneshotConfig {
            n: 1_000,
            k: 20,
            check_n: 120,
            setups: 1,
            tail_q: 0.5,
        }
    }
}

/// What one request measured.
struct Request {
    cpu_ms: f64,
    gpu_ms: f64,
    heap_bytes: u64,
    gpu: WindowedRun,
    /// Traced run only: recorder snapshots of the CPU and GPU calls.
    cpu_obs: Snapshot,
    gpu_obs: Snapshot,
}

/// Runs `oneshot` for `run.seconds` (and at least enough requests to
/// support the tail percentile).
pub fn run(cfg: &OneshotConfig, run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new(run.traced);
    let config = GpuConfig::default();

    // Correctness at set-up: the prefix engine must pick the naive oracle's
    // bandwidth, bit for bit, on a held-out sample.
    let held = PaperDgp.sample(cfg.check_n, sub_seed(run.seed, 1, 0));
    let naive =
        NaiveGridSearch::new(Epanechnikov, GridSpec::PaperDefault(cfg.k)).select(&held.x, &held.y);
    let prefix = SortedGridSearch::prefix(Epanechnikov, GridSpec::PaperDefault(cfg.k))
        .select(&held.x, &held.y);
    match (naive, prefix) {
        (Ok(a), Ok(b)) => out.check(a.bandwidth.to_bits() == b.bandwidth.to_bits(), || {
            format!(
                "held-out: prefix picked {} but naive picked {}",
                b.bandwidth, a.bandwidth
            )
        }),
        (a, b) => out.check(false, || {
            format!("held-out selection failed: {:?} / {:?}", a.err(), b.err())
        }),
    }

    let mut setups = Vec::new();
    for i in 0..cfg.setups.max(1) {
        let t = Instant::now();
        let s = PaperDgp.sample(cfg.n, sub_seed(run.seed, 2, i as u64));
        let warm = SortedGridSearch::prefix(Epanechnikov, GridSpec::PaperDefault(cfg.k))
            .select(&s.x, &s.y);
        let grid = BandwidthGrid::paper_default(&s.x, cfg.k);
        let gpu = grid.map(|g| select_bandwidth_gpu_windowed(&s.x, &s.y, &g, &config));
        out.check(warm.is_ok() && matches!(gpu, Ok(Ok(_))), || {
            "warm-up selection failed".into()
        });
        setups.push(t.elapsed().as_secs_f64());
    }

    let min_requests = samples_for_tail(cfg.tail_q);
    let mut requests: Vec<Request> = Vec::new();
    let budget = Duration::from_secs_f64(run.seconds);
    let start = Instant::now();
    let mut index = 0u64;
    while start.elapsed() < budget || requests.len() < min_requests {
        let s = PaperDgp.sample(cfg.n, sub_seed(run.seed, 3, index));
        out.attempted += 1;
        match request(cfg, &config, &tracer, index, &s.x, &s.y) {
            Ok((req, cpu_profile, cpu_index)) => {
                check_agreement(&mut out, index, &cpu_profile, cpu_index, &req.gpu);
                requests.push(req);
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("request {index}: {e}"));
            }
        }
        index += 1;
        if requests.is_empty() && index >= 3 {
            break; // every request fails: report, do not spin
        }
    }
    let mut cpu: Vec<f64> = requests.iter().map(|r| r.cpu_ms).collect();
    let cpu_total_ms: f64 = cpu.iter().sum();
    let mut device: Vec<f64> = requests
        .iter()
        .map(|r| r.gpu.report.total_simulated_seconds * 1e3)
        .collect();
    let mut heap: Vec<f64> = requests
        .iter()
        .map(|r| r.heap_bytes as f64 * 1e-6)
        .collect();
    out.e2e("setup_s", "s", median(&mut setups));
    out.e2e("peak_heap_mb", "MB", median(&mut heap));
    out.primary(Summary::of(&mut cpu, cfg.tail_q));
    // The GPU program's time is its simulated device time, the paper's
    // Table II quantity. The simulator's own host time runs on both vCPUs
    // and swings with hypervisor steal, so it is a per-layer cost
    // (`gpu.host_ms`).
    out.secondary(Summary::of(&mut device, cfg.tail_q));
    out.e2e(
        "throughput_per_s",
        "1/s",
        requests.len() as f64 * 1e3 / cpu_total_ms,
    );

    if run.traced {
        out.spans = tracer.take();
        layer_metrics(&mut out, cfg, &requests);
    }
    out
}

/// One request: CPU selection, then the windowed GPU program, on one sample.
/// Returns the measurements with the CPU profile and its chosen index.
fn request(
    cfg: &OneshotConfig,
    config: &GpuConfig,
    tracer: &Tracer,
    index: u64,
    x: &[f64],
    y: &[f64],
) -> Result<(Request, CvProfile, usize), String> {
    alloc_track::reset_peak();
    let base = alloc_track::current_bytes();
    let root = tracer.span("request", index, None);
    let cpu_rec = Recorder::new();
    let (profile, cpu_index, grid, cpu_ms) = if tracer.enabled() {
        // The traced run calls the selector's three stages separately so
        // each gets its own span.
        let t0 = Instant::now();
        let grid = {
            let _s = tracer.span("grid.resolve", index, root.id());
            BandwidthGrid::paper_default(x, cfg.k).map_err(|e| e.to_string())?
        };
        let profile = {
            let _s = tracer.span("prefix.profile", index, root.id());
            let _scope = cpu_rec.install();
            cv_profile_prefix(x, y, &grid, &Epanechnikov).map_err(|e| e.to_string())?
        };
        let opt = {
            let _s = tracer.span("select.argmin", index, root.id());
            profile
                .argmin_with_min_included(1)
                .map_err(|e| e.to_string())?
        };
        (profile, opt.index, grid, ms_since(t0))
    } else {
        let t0 = Instant::now();
        let sel = SortedGridSearch::prefix(Epanechnikov, GridSpec::PaperDefault(cfg.k))
            .select(x, y)
            .map_err(|e| e.to_string())?;
        let cpu_ms = ms_since(t0);
        let profile = sel.profile.ok_or("grid search returned no profile")?;
        let at = profile
            .bandwidths
            .iter()
            .position(|h| h.to_bits() == sel.bandwidth.to_bits());
        let cpu_index = at.ok_or("selected bandwidth is not on the grid")?;
        let grid =
            BandwidthGrid::from_values(profile.bandwidths.clone()).map_err(|e| e.to_string())?;
        (profile, cpu_index, grid, cpu_ms)
    };

    let gpu_rec = Recorder::new();
    let t1 = Instant::now();
    let gpu = {
        let _s = tracer.span("gpu.windowed", index, root.id());
        let _scope = gpu_rec.install();
        select_bandwidth_gpu_windowed(x, y, &grid, config).map_err(|e| e.to_string())?
    };
    let gpu_ms = ms_since(t1);
    drop(root);
    let heap_bytes = alloc_track::peak_bytes().saturating_sub(base);
    let req = Request {
        cpu_ms,
        gpu_ms,
        heap_bytes,
        gpu,
        cpu_obs: cpu_rec.snapshot(),
        gpu_obs: gpu_rec.snapshot(),
    };
    Ok((req, profile, cpu_index))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// CPU and GPU must pick the same grid index; where they differ, the CPU
/// profile must rate both picks within the pair-f32 tolerance.
fn check_agreement(
    out: &mut Outcome,
    index: u64,
    cpu: &CvProfile,
    cpu_index: usize,
    gpu: &WindowedRun,
) {
    let gpu_index = cpu
        .bandwidths
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            (*a - gpu.bandwidth)
                .abs()
                .total_cmp(&(*b - gpu.bandwidth).abs())
        })
        .map_or(usize::MAX, |(i, _)| i);
    if gpu_index == cpu_index {
        return;
    }
    let (a, b) = (
        cpu.scores[cpu_index],
        cpu.scores.get(gpu_index).copied().unwrap_or(f64::NAN),
    );
    out.check((a - b).abs() <= PAIR_F32_REL_TOL * a.abs().max(b.abs()).max(1e-6), || {
        format!("request {index}: CPU index {cpu_index} (score {a}) vs GPU index {gpu_index} (score {b})")
    });
}

fn layer_metrics(out: &mut Outcome, cfg: &OneshotConfig, requests: &[Request]) {
    let spans = out.spans.clone();
    let selfs = trace::self_times(&spans);
    let med_us = |name: &str| {
        let mut v: Vec<f64> = trace::durations(&spans, name)
            .iter()
            .map(|&ns| ns as f64 * 1e-3)
            .collect();
        median(&mut v)
    };
    let med = |f: &dyn Fn(&Request) -> f64| {
        let mut v: Vec<f64> = requests.iter().map(f).collect();
        median(&mut v)
    };
    let phase_ms = |s: &Snapshot, name: &str| s.phase_nanos(name) as f64 * 1e-6;
    let profile_us = med_us("prefix.profile");

    out.layer("grid.resolve_us", "us", med_us("grid.resolve"));
    out.layer("select.argmin_us", "us", med_us("select.argmin"));
    out.layer("prefix.profile_ms", "ms", profile_us * 1e-3);
    out.layer(
        "prefix.argsort_ms",
        "ms",
        med(&|r| phase_ms(&r.cpu_obs, "cv.argsort")),
    );
    out.layer(
        "prefix.table_ms",
        "ms",
        med(&|r| phase_ms(&r.cpu_obs, "cv.prefix")),
    );
    out.layer(
        "prefix.window_ms",
        "ms",
        med(&|r| phase_ms(&r.cpu_obs, "cv.window")),
    );
    out.layer(
        "prefix.window_queries",
        "count",
        med(&|r| r.cpu_obs.counter("window_queries") as f64),
    );
    out.layer(
        "prefix.kernel_evals",
        "count",
        med(&|r| r.cpu_obs.counter("kernel_evals") as f64),
    );
    out.layer(
        "prefix.ns_per_cell",
        "ns",
        profile_us * 1e3 / (cfg.n * cfg.k) as f64,
    );

    out.layer(
        "gpu.launch_ms",
        "ms",
        med(&|r| phase_ms(&r.gpu_obs, "gpu.launch")),
    );
    out.layer(
        "gpu.reduce_ms",
        "ms",
        med(&|r| phase_ms(&r.gpu_obs, "gpu.reduce")),
    );
    out.layer(
        "gpu_sim.kernel_ms",
        "ms",
        med(&|r| r.gpu.report.main_kernel.simulated_seconds * 1e3),
    );
    out.layer(
        "gpu_sim.reduce_ms",
        "ms",
        med(&|r| r.gpu.report.reduction_seconds * 1e3),
    );
    out.layer(
        "gpu_sim.transfer_ms",
        "ms",
        med(&|r| r.gpu.report.transfer_seconds * 1e3),
    );
    out.layer("gpu.host_ms", "ms", med(&|r| r.gpu_ms));
    out.layer(
        "gpu_sim.mem_transactions",
        "count",
        med(&|r| r.gpu_obs.counter(Counter::MemTransactions.name()) as f64),
    );
    out.layer(
        "gpu_sim.cycles",
        "count",
        med(&|r| r.gpu_obs.counter(Counter::GpuSimCycles.name()) as f64),
    );
    out.layer(
        "gpu_sim.binary_search_probes",
        "count",
        med(&|r| r.gpu_obs.counter(Counter::BinarySearchProbes.name()) as f64),
    );
    out.layer(
        "gpu_sim.device_bytes_peak",
        "bytes",
        med(&|r| r.gpu.report.device_bytes_peak as f64),
    );
    out.layer(
        "gpu_sim.h2d_bytes",
        "bytes",
        med(&|r| r.gpu.report.h2d_bytes as f64),
    );
    out.layer(
        "trace.coverage_frac",
        "ratio",
        trace::child_coverage(&spans, &selfs),
    );
}
