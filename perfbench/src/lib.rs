//! # kcv-perfbench — the repository benchmark
//!
//! Three workloads drive the workspace's public entry points and time them
//! from outside:
//!
//! | workload | shape | exercises |
//! |---|---|---|
//! | `oneshot` | closed loop, 1 caller | `SortedGridSearch::prefix(..).select`, then `select_bandwidth_gpu_windowed`, per fresh n = 20 000 sample |
//! | `serve-steady` | open loop, Poisson arrivals at a fixed rate | `BandwidthService::send` into 16 sessions, `close` as the read |
//! | `serve-burst` | closed loop, 1 caller | `BandwidthService::send_blocking` replaying a log round-robin over 16 streams |
//!
//! `BENCHMARK.json` lists oneshot and serve-burst; serve-steady runs the
//! same way but carries no bounds (see [`Workload::bounded`]).
//!
//! Every run checks its outputs (see each workload module) and reports
//! the [`END_TO_END`] metrics; the traced run (built with the `metrics`
//! feature) reports the [`PER_LAYER`] metrics from spans recorded around
//! each call ([`trace`]) and from the existing `kcv-obs` recorders.
//! `perfbench/README.md` explains how to run and read it.

#![warn(missing_docs)]

pub mod oneshot;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use oneshot::OneshotConfig;
use report::Outcome;
use serve::{BurstConfig, SteadyConfig};

/// The parameters of one run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
}

/// Derives an independent seed for input stream `tag`, item `index`.
pub fn sub_seed(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z =
        seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One workload: its name and the reason it exists.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the benchmark runs it (one line).
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so its end-to-end metrics carry bounds.
    /// serve-steady is not: its open loop turns hypervisor steal on a shared
    /// 2-vCPU host into queueing, and its latencies spread past any bound.
    pub bounded: bool,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "oneshot",
        why: "The paper's use case: one caller, fresh n=20000 samples sharing no work; prefix sweep and GPU simulator do the work, serve and incremental none",
        bounded: true,
    },
    Workload {
        name: "serve-steady",
        why: "Live per-user streams: open-loop Poisson arrivals at 2000/s into 16 sessions with closes as reads; reselect dominates and writes run beside reads",
        bounded: false,
    },
    Workload {
        name: "serve-burst",
        why: "Backfill of a recorded log: closed loop as fast as send_blocking admits; queue, tree updates and conflation dominate and most reselects are skipped",
        bounded: true,
    },
];

/// A reported metric and what it is for.
pub struct MetricSpec {
    /// Name in the result JSON and `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// The layer (module) it measures, or `end-to-end`.
    pub layer: &'static str,
    /// What it measures on each workload, or which end-to-end metric it
    /// should move, on which workload, and where it should stay unchanged.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        layer: "end-to-end",
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        layer,
        what,
    }
}

/// End-to-end metrics, reported by every workload with tracing off. Each
/// workload fills the roles with its own calls (see `what`): the primary
/// call is the one the workload is about, the secondary call the other one.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", "lower", 0.25, "median of the run's set-ups: sample generation, service start, opens, warm-up"),
    e2e(
        "peak_heap_mb",
        "MB",
        "lower",
        0.1,
        "host heap peak above the pre-measurement level: oneshot per request (median), serve-steady over the run, serve-burst per round (median)",
    ),
    e2e(
        "primary_p50_ms",
        "ms",
        "lower",
        0.25,
        "oneshot: wall time of the prefix select; serve-steady: caller time inside close(), the read; serve-burst: caller time inside shutdown() per round, the read (drain and final reselects)",
    ),
    e2e("primary_tail_ms", "ms", "lower", 0.25, "the same at the workload's tail percentile (see the run's info line)"),
    e2e(
        "secondary_tail_ms",
        "ms",
        "lower",
        0.25,
        "tail of oneshot: simulated device time of the windowed GPU call (report.total_simulated_seconds, the paper's Table II quantity); serve-*: arrival latency from send until applied, including any reselect it fired (serve-burst: per round, then the median round)",
    ),
    e2e(
        "throughput_per_s",
        "1/s",
        "higher",
        0.25,
        "oneshot: CPU selections per second of selection time; serve-steady: arrivals applied per second; serve-burst: median per round of arrivals applied per second",
    ),
];

/// Per-layer metrics, reported by the traced run of every workload; a
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [MetricSpec; 43] = [
    layer("secondary_p50_ms", "ms", "lower", "end-to-end", "median of the secondary call (see secondary_tail_ms); unbounded because the arrival median of both serve workloads shifts between regimes (wake-up latency or reselect wait; position in the batch cycle) from run to run"),
    layer("grid.resolve_us", "us", "lower", "grid", "primary_* (small share) on oneshot; unchanged on serve-*"),
    layer("select.argmin_us", "us", "lower", "select::grid_search", "primary_* (small share) on oneshot; unchanged on serve-*"),
    layer("prefix.profile_ms", "ms", "lower", "cv::prefix", "primary_* on oneshot; unchanged on serve-*"),
    layer("prefix.argsort_ms", "ms", "lower", "cv::prefix", "primary_* on oneshot (cv.argsort phase); unchanged on serve-*"),
    layer("prefix.table_ms", "ms", "lower", "cv::prefix", "primary_* on oneshot (cv.prefix phase); unchanged on serve-*"),
    layer("prefix.window_ms", "ms", "lower", "cv::prefix", "primary_* on oneshot (cv.window phase); unchanged on serve-*"),
    layer("prefix.window_queries", "count", "lower", "cv::prefix", "primary_* on oneshot (n*k per request); unchanged on serve-*"),
    layer("prefix.kernel_evals", "count", "lower", "cv::prefix", "must stay 0 on oneshot"),
    layer("prefix.ns_per_cell", "ns", "lower", "cv::prefix", "primary_* on oneshot (profile / (n*k)); unchanged on serve-*"),
    layer("gpu.launch_ms", "ms", "lower", "kcv-gpu::windowed", "gpu.launch phase (host CPU time, nests in other phases): gpu.host_ms on oneshot; unchanged on serve-* and primary_*"),
    layer("gpu.reduce_ms", "ms", "lower", "kcv-gpu::windowed", "gpu.reduce phase (host CPU time, nests in other phases): gpu.host_ms on oneshot; unchanged on serve-* and primary_*"),
    layer("gpu_sim.kernel_ms", "ms", "lower", "kcv-gpu-sim", "secondary_* on oneshot (simulated); unchanged on serve-*"),
    layer("gpu_sim.reduce_ms", "ms", "lower", "kcv-gpu-sim", "secondary_* on oneshot (simulated); unchanged on serve-*"),
    layer("gpu_sim.transfer_ms", "ms", "lower", "kcv-gpu-sim", "secondary_* on oneshot (simulated); unchanged on serve-*"),
    layer("gpu.host_ms", "ms", "lower", "kcv-gpu::windowed", "host wall time of the windowed GPU call, the simulator's own cost, on oneshot; unchanged on serve-*"),
    layer("gpu_sim.mem_transactions", "count", "lower", "kcv-gpu-sim", "secondary_* on oneshot (simulated); unchanged on serve-*"),
    layer("gpu_sim.cycles", "count", "lower", "kcv-gpu-sim", "secondary_* on oneshot (simulated); unchanged on serve-*"),
    layer("gpu_sim.binary_search_probes", "count", "lower", "kcv-gpu-sim", "secondary_* on oneshot (simulated); unchanged on serve-*"),
    layer("gpu_sim.device_bytes_peak", "bytes", "lower", "kcv-gpu-sim", "device memory on oneshot; unchanged on serve-*"),
    layer("gpu_sim.h2d_bytes", "bytes", "lower", "kcv-gpu-sim", "gpu_sim.transfer_ms on oneshot; unchanged on serve-*"),
    layer("incremental.push_us", "us", "lower", "cv::incremental", "throughput_per_s on serve-burst; unchanged on oneshot"),
    layer("incremental.reselect_ms", "ms", "lower", "cv::incremental", "primary_* (the read) and secondary_tail_ms (the write) on serve-steady; little on serve-burst; unchanged on oneshot"),
    layer("incremental.ns_per_cell", "ns", "lower", "cv::incremental", "as incremental.reselect_ms (reselect / (W*k)); should track prefix.ns_per_cell"),
    layer("incremental.tree_updates", "count", "lower", "cv::incremental", "throughput_per_s on serve-burst; unchanged on oneshot"),
    layer("incremental.reselects", "count", "lower", "cv::incremental", "primary_tail_ms on serve-steady, throughput_per_s on serve-burst; unchanged on oneshot"),
    layer("serve.send_us_p50", "us", "lower", "kcv-serve::service", "throughput_per_s on serve-burst (includes backpressure wait); unchanged on oneshot"),
    layer("serve.send_us_tail", "us", "lower", "kcv-serve::service", "throughput_per_s on serve-burst; unchanged on oneshot"),
    layer("serve.open_us", "us", "lower", "kcv-serve::service", "setup_s on serve-*; unchanged on oneshot"),
    layer("serve.busy_frac", "ratio", "lower", "kcv-serve::service", "serve.batch phase / (wall x shards), shutdown closes excluded: secondary_tail_ms on serve-steady (arrival latency rises with it); throughput_per_s on serve-burst"),
    layer("serve.reselect_busy_frac", "ratio", "lower", "kcv-serve::service", "serve.reselect phase / (wall x shards), final close reselects included: primary_* and secondary_tail_ms on serve-steady; throughput_per_s on serve-burst"),
    layer("serve.requests_served", "count", "higher", "kcv-serve::queue", "throughput_per_s on serve-burst; unchanged on oneshot"),
    layer("serve.coalesced_arrivals", "count", "higher", "kcv-serve::service", "throughput_per_s on serve-burst; unchanged on oneshot"),
    layer("serve.queue_high_water", "count", "lower", "kcv-serve::queue", "secondary_tail_ms on serve-burst; unchanged on oneshot"),
    layer("serve.shed_requests", "count", "lower", "kcv-serve::queue", "must stay 0 on serve-steady (sheds count as failures)"),
    layer("serve.reselects_per_boundary", "ratio", "lower", "kcv-serve::service", "throughput_per_s on serve-burst (conflation); secondary_tail_ms on serve-steady"),
    layer("gen.offered_aps", "1/s", "higher", "load generator", "the fixed offered rate on serve-steady; 0 on closed loops"),
    layer("gen.achieved_aps", "1/s", "higher", "load generator", "validity of secondary_tail_ms on serve-steady; the replay rate on serve-burst"),
    layer("gen.late_p50_ms", "ms", "lower", "load generator", "validity of secondary_tail_ms on serve-steady"),
    layer("gen.late_tail_ms", "ms", "lower", "load generator", "validity of secondary_tail_ms on serve-steady (p99, reported; a run more than 1 ms late at p50 is invalid)"),
    layer("trace.overhead_frac", "ratio", "lower", "tracing", "traced / untraced reference metric - 1, every workload"),
    layer("trace.coverage_frac", "ratio", "higher", "tracing", "share of request-span time covered by child layer spans (oneshot: must be >= 0.9)"),
    layer("failed_frac", "ratio", "lower", "end-to-end", "failed / attempted operations; 0 on every workload"),
];

/// The end-to-end metric a workload's `trace.overhead_frac` compares
/// between the traced and the untraced run.
pub fn overhead_reference(workload: &str) -> &'static str {
    if workload == "serve-burst" {
        "throughput_per_s"
    } else {
        "primary_p50_ms"
    }
}

/// Runs a workload at benchmark size, or at test size with `smoke`.
/// `Err` for an unknown workload or an invalid run.
pub fn run_workload(name: &str, run: &Run, smoke: bool) -> Result<Outcome, String> {
    let mut out = match (name, smoke) {
        ("oneshot", false) => oneshot::run(&OneshotConfig::benchmark(), run),
        ("oneshot", true) => oneshot::run(&OneshotConfig::smoke(), run),
        ("serve-steady", false) => serve::run_steady(&SteadyConfig::benchmark(), run)?,
        ("serve-steady", true) => serve::run_steady(&SteadyConfig::smoke(), run)?,
        ("serve-burst", false) => serve::run_burst(&BurstConfig::benchmark(), run),
        ("serve-burst", true) => serve::run_burst(&BurstConfig::smoke(), run),
        (other, _) => return Err(format!("unknown workload {other:?}")),
    };
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.layer("failed_frac", "ratio", failed_frac);
    Ok(out)
}

/// Orders a traced outcome's per-layer metrics as [`PER_LAYER`] lists them
/// and adds every metric the workload did not measure as 0, so each run
/// reports the full list.
pub fn complete_per_layer(out: &mut Outcome) {
    out.per_layer = PER_LAYER
        .iter()
        .map(|spec| {
            let value = out
                .per_layer
                .iter()
                .find(|m| m.name == spec.name)
                .map_or(0.0, |m| m.value);
            report::Metric {
                name: spec.name,
                unit: spec.unit,
                value,
            }
        })
        .collect();
}

/// The benchmark's record of itself as JSON: every workload with its
/// configuration, seed argument, loop shape and reason, and every metric
/// with unit, direction, bound, layer and the end-to-end metric it moves.
/// `perfbench/workloads.json` holds this output.
pub fn describe() -> String {
    let o = OneshotConfig::benchmark();
    let st = SteadyConfig::benchmark();
    let b = BurstConfig::benchmark();
    let shape = |s: &serve::ServeShape| {
        format!(
            "\"shards\":{},\"window\":{},\"cadence\":{},\"grid\":\"log [1e-3, 0.3] k={}\",\"streams\":{},\"conflate\":true,\"queue_capacity\":1024",
            s.shards, s.window, s.cadence, s.k, s.streams
        )
    };
    let configs = [
        format!(
            "\"loop\":\"closed\",\"clients\":1,\"config\":{{\"dgp\":\"paper\",\"n\":{},\"grid\":\"paper default k={}\",\"kernel\":\"epanechnikov\",\"gpu\":\"windowed, GpuConfig::default (Tesla S10)\",\"held_out_check_n\":{},\"setups\":{},\"tail_percentile\":{}}}",
            o.n, o.k, o.check_n, o.setups, o.tail_q * 100.0
        ),
        format!(
            "\"loop\":\"open\",\"rate_aps\":{},\"load_threads\":2,\"config\":{{{},\"session_len\":{},\"setups\":{},\"arrival_tail_percentile\":{},\"close_tail_percentile\":{},\"max_generator_late_p50_ms\":{}}}",
            st.rate_aps, shape(&st.shape), st.session_len, st.setups, st.arrival_tail_q * 100.0, st.close_tail_q * 100.0, st.max_late_p50_ms
        ),
        format!(
            "\"loop\":\"closed\",\"clients\":1,\"config\":{{{},\"arrivals_per_stream_per_round\":{},\"min_rounds\":{},\"setups\":{},\"arrival_tail_percentile\":{},\"shutdown_tail_percentile\":{}}}",
            shape(&b.shape), b.per_stream, b.min_rounds, b.setups, b.tail_q * 100.0, b.shutdown_tail_q * 100.0
        ),
    ];
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .zip(configs)
        .map(|(w, c)| {
            format!(
                "    {{\"name\":\"{}\",\"in_benchmark_json\":{},\"seed_arg\":\"--seed <n>\",{c},\"why\":\"{}\"}}",
                w.name, w.bounded, w.why
            )
        })
        .collect();
    let metric = |m: &MetricSpec| {
        let bound = m.bound.map_or(String::new(), |b| format!("\"bound\":{b},"));
        format!(
            "    {{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",{bound}\"layer\":\"{}\",\"what\":\"{}\"}}",
            m.name, m.unit, m.better, m.layer, m.what
        )
    };
    format!(
        "{{\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        END_TO_END.iter().map(metric).collect::<Vec<_>>().join(",\n"),
        PER_LAYER.iter().map(metric).collect::<Vec<_>>().join(",\n"),
    )
}
