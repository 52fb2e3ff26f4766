//! Versioned machine-readable performance report (`BENCH_report.json`).
//!
//! One report captures, at a single `(n, k)` configuration, every CV
//! strategy's wall time together with the op-counters and phase timers the
//! observability layer collected during that strategy's run (kernel
//! evaluations, sort comparisons, compact-support skips, simulated memory
//! transactions, …). Counters are live only when the workspace is built
//! with `--features metrics`; without it the `obs` objects in the JSON are
//! empty and `metrics_enabled` is `false`, so downstream tooling can tell
//! "zero because cheap" from "zero because disabled".
//!
//! Every strategy is measured under its own [`kcv_obs::Recorder`], so the
//! snapshots are per-run deltas by construction — immune to any other
//! instrumented code running concurrently in the process.
//!
//! `perf_gate` is the one binary that writes `results/BENCH_report.json`,
//! and it evaluates its gates on the [`PerfReport`] itself, not on the
//! text: the JSON is for people and CI artifacts.
//!
//! ## Schema (version 14)
//!
//! * `version`, `metrics_enabled` and `config` (`n`, `k`, `seed`,
//!   `kernel`).
//! * `strategies`: one object per [`STRATEGIES`] entry, in that order,
//!   with the fields of [`StrategyPerf`]. `simulated_seconds` and
//!   `device_bytes_peak` are `null` on CPU strategies, `bagged`
//!   ([`BaggedInfo`]) on all but `bagged`, and `multi` ([`MultiInfo`]) on
//!   all but the two `multi-*` strategies, whose scalar `bandwidth` is
//!   dimension 1's component. `select_costs` ([`SelectCosts`]: the run's
//!   minor page faults and heap allocations) is `null` on all but
//!   `prefix`. `obs` is that run's counter and phase
//!   snapshot. Phase times are `cpu_seconds`: same-name scopes on
//!   different rayon workers sum, so a parallel phase (the bagged
//!   `cv.bag`) can exceed the strategy's `wall_seconds`. Compare
//!   strategies by `wall_seconds` only.
//! * `streaming` ([`StreamingInfo`]): a sliding-window replay of the
//!   sample against the sampled recompute-from-scratch baseline.
//! * `serving` ([`ServingInfo`]): the sample replayed as concurrent
//!   streams through the sharded service and the global-lock baseline.
//!
//! Bandwidths and scores are written with 12 decimals, seconds with 9.
//! The gates that assert bit identity compare `f64::to_bits` on the
//! struct fields, so the rounding of the text cannot hide a one-ulp drift.
//!
//! ```json
//! {
//!   "version": 14,
//!   "metrics_enabled": true,
//!   "config": {"n": 2000, "k": 100, "seed": 42, "kernel": "epanechnikov"},
//!   "strategies": [
//!     {
//!       "name": "naive",
//!       "bandwidth": 0.019970000000,
//!       "score": 0.032100000000,
//!       "wall_seconds": 0.512000000,
//!       "simulated_seconds": null,
//!       "device_bytes_peak": null,
//!       "bagged": null,
//!       "multi": null,
//!       "select_costs": null,
//!       "obs": {
//!         "counters": {"kernel_evals": 399800000, "sort_comparisons": 0, ...},
//!         "phases": {"cv.naive": {"calls": 1, "cpu_seconds": 0.511000000}, ...}
//!       }
//!     },
//!     {
//!       "name": "prefix",
//!       ...
//!       "select_costs": {"minor_faults": 10, "heap_allocations": 31},
//!       ...
//!     },
//!     {
//!       "name": "bagged",
//!       ...
//!       "bagged": {"bags": 10, "bag_size": 500, "combiner": "mean",
//!                  "workers": 8, "host_bytes_peak": 392704},
//!       ...
//!     },
//!     {
//!       "name": "multi-fast",
//!       ...
//!       "multi": {"dims": 2, "grid_points": 100,
//!                 "bandwidths": [0.104000000000, 0.088000000000]},
//!       ...
//!     }
//!   ],
//!   "streaming": {
//!     "arrivals": 2000, "window": 500, "cadence": 64,
//!     "inserts": 2000, "removes": 1500, "reselects": 32,
//!     "tree_updates": 16000, "kernel_evals": 0,
//!     "final_bandwidth": 0.052341000000,
//!     "recompute_bandwidth": 0.052341000000,
//!     "wall_seconds": 0.011000000, "recompute_wall_seconds": 0.420000000
//!   },
//!   "serving": {
//!     "streams": 8, "arrivals_per_stream": 2000, "shards": 4,
//!     "window": 256, "cadence": 50,
//!     "requests_served": 16008, "coalesced_arrivals": 15200,
//!     "queue_high_water": 812, "shed_requests": 0,
//!     "reselects": 24, "lock_reselects": 328, "kernel_evals": 0,
//!     "wall_seconds": 0.081000000, "lock_wall_seconds": 0.840000000,
//!     "final_bandwidths": [0.052341000000, ...],
//!     "lock_final_bandwidths": [0.052341000000, ...]
//!   }
//! }
//! ```

use kcv_core::cv::{cv_profile_naive, cv_profile_prefix, cv_profile_sorted, cv_profile_sorted_par};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_core::select::bagged::{bag_workers, BaggedSelector};
use kcv_core::select::{BandwidthSelector, GridSpec};
use kcv_gpu::{select_bandwidth_gpu, select_bandwidth_gpu_windowed, GpuConfig};
use kcv_obs::Snapshot;
use std::time::Instant;

/// Current `BENCH_report.json` schema version. Bump on any breaking change
/// to the JSON layout and describe the change in EXPERIMENTS.md.
///
/// - 2: phase timers serialise as `cpu_seconds` (was `seconds`).
/// - 3: added the `gpu-windowed` strategy and `device_bytes_peak`.
/// - 4: added the `bagged` strategy and the top-level `scaling` array.
/// - 5: added the `multi-naive`/`multi-fast` strategies and `multi`.
/// - 6: added the `streaming` object and the `scope_enters` counter.
/// - 7: added the `serving` object.
/// - 8: dropped the `merged`/`merged-par` strategies.
/// - 9: added `to_bits` hex `*_bits` fields beside compared bandwidths.
/// - 10: dropped the `objective_evals` counter.
/// - 11: dropped the `scaling` array and the `*_bits` fields.
/// - 12: dropped the `prefix-par` strategy (`prefix` splits its grid
///   across cores itself).
/// - 13: added the `transfer_segments` counter; `mem_transactions` no
///   longer counts host↔device copy segments.
/// - 14: added `select_costs` (minor page faults and heap allocations of
///   the run) to the `prefix` strategy.
pub const REPORT_VERSION: u32 = 14;

/// The strategies a report covers, in emission order.
pub const STRATEGIES: [&str; 9] = [
    "naive",
    "sorted",
    "parallel",
    "prefix",
    "gpu-sim",
    "gpu-windowed",
    "bagged",
    "multi-naive",
    "multi-fast",
];

/// The `(n, k, seed)` point a report was measured at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportConfig {
    /// Sample size.
    pub n: usize,
    /// Bandwidth-grid size.
    pub k: usize,
    /// DGP seed.
    pub seed: u64,
}

/// The bagged strategy's extra dimensions (schema v4): the subsampling
/// configuration and the *measured* host-memory peak the bagged-memory perf
/// gate checks against `workers ×` one bag's documented footprint bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaggedInfo {
    /// Number of bags `B` (Barreiro-Ures et al.'s `N`).
    pub bags: usize,
    /// Subsample size `r` per bag.
    pub bag_size: usize,
    /// Aggregation rule label (`"mean"` / `"median"`).
    pub combiner: &'static str,
    /// Rayon workers the bags were chunked over — the maximum number of
    /// bags whose data is live simultaneously.
    pub workers: u64,
    /// Measured host-heap high-water delta of the run, from the crate's
    /// counting allocator ([`crate::alloc_track`]). Only meaningful when
    /// nothing else allocates concurrently (true in the `perf_gate` main;
    /// not under `cargo test`).
    pub host_bytes_peak: u64,
}

/// The multivariate strategies' extra dimensions (schema v5): the grid
/// shape and the full per-dimension bandwidth vector that the scalar
/// `bandwidth` field (dimension 1's component) cannot carry. Perf gate 12
/// compares `multi-naive`'s and `multi-fast`'s `bandwidths` bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiInfo {
    /// Number of regressor dimensions `d`.
    pub dims: usize,
    /// Total bandwidth-lattice points searched (`side^d`).
    pub grid_points: usize,
    /// The selected per-dimension bandwidth vector.
    pub bandwidths: Vec<f64>,
}

/// The streaming replay's settings and measurements (schema v6): one
/// sliding-window pass of the report's paper-DGP sample through the
/// streaming window, next to the sampled-and-extrapolated
/// recompute-from-scratch baseline (see the module-level schema notes for
/// the sampling policy).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingInfo {
    /// Observations replayed through the sliding window (the report's `n`).
    pub arrivals: usize,
    /// Window capacity `W` (`max(n/4, 64)`, capped at `n`).
    pub window: usize,
    /// Re-selection cadence in arrivals.
    pub cadence: usize,
    /// `insert` operations applied to the window (= arrivals).
    pub inserts: u64,
    /// `remove` operations applied (evictions: `arrivals − window` once the
    /// window fills).
    pub removes: u64,
    /// Completed re-selections (cadence-triggered plus the forced final
    /// one), from the `reselects` counter.
    pub reselects: u64,
    /// Moment-table rows the re-selections wrote (one per window
    /// observation per re-selection), from the `tree_updates` counter. Perf gate 14
    /// holds this under `(inserts+removes)·⌈log₂ window⌉·(deg+3)`.
    pub tree_updates: u64,
    /// Kernel evaluations spent by the whole replay — pinned to zero by
    /// perf gate 14.
    pub kernel_evals: u64,
    /// The bandwidth selected by the forced final `reselect` on the full
    /// window.
    pub final_bandwidth: f64,
    /// The bandwidth a fresh prefix run selects on the identical final
    /// window — perf gate 15 pins it equal to
    /// [`StreamingInfo::final_bandwidth`].
    pub recompute_bandwidth: f64,
    /// Wall-clock seconds for the whole replay (pushes + re-selections).
    pub wall_seconds: f64,
    /// Extrapolated wall-clock seconds of the recompute-at-every-arrival
    /// prefix baseline (sampled at the re-selection points; perf gate 15
    /// requires ≥ 10× [`StreamingInfo::wall_seconds`]).
    pub recompute_wall_seconds: f64,
}

/// The sharded serving measurement (schema v7): the report's sample
/// replayed as concurrent streams through `kcv_serve::BandwidthService`
/// next to the single-global-lock baseline on the identical per-stream
/// sequences. Perf gate 18 compares the two `final_bandwidths` arrays bit
/// for bit and requires `lock_wall_seconds ≥ 4 × wall_seconds` at gate
/// scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingInfo {
    /// Concurrent arrival streams replayed.
    pub streams: usize,
    /// Arrivals per stream (the report's `n`; each stream is a rotation
    /// of the sample so sequences differ across streams).
    pub arrivals_per_stream: usize,
    /// Worker shards the streams hash across.
    pub shards: usize,
    /// Sliding-window capacity `W` of every stream's selector.
    pub window: usize,
    /// Re-selection cadence in arrivals.
    pub cadence: usize,
    /// Requests drained by shard workers (opens + arrivals), from the
    /// merged `requests_served` counter (zero without metrics).
    pub requests_served: u64,
    /// Arrivals absorbed into an already-started burst, from the merged
    /// `coalesced_arrivals` counter (zero without metrics).
    pub coalesced_arrivals: u64,
    /// Deepest single shard queue observed, from the `queue_high_water`
    /// counter (max across shards; zero without metrics).
    pub queue_high_water: u64,
    /// Requests shed by full queues — zero here by construction (the
    /// replay uses the blocking send for lossless delivery).
    pub shed_requests: u64,
    /// Service-side re-selections summed over the per-stream outcomes
    /// (counted by the workers themselves, so live without metrics); a
    /// close that reuses an unchanged window's optimum adds none.
    pub reselects: u64,
    /// Baseline re-selections summed over its per-stream outcomes — one
    /// per cadence boundary per stream, plus each close.
    pub lock_reselects: u64,
    /// Kernel evaluations across the whole service run, from the merged
    /// shard counters — pinned to zero by perf gate 17.
    pub kernel_evals: u64,
    /// Wall-clock seconds for the sharded service replay (enqueue through
    /// shutdown drain).
    pub wall_seconds: f64,
    /// Wall-clock seconds for the global-lock baseline on the identical
    /// per-stream sequences.
    pub lock_wall_seconds: f64,
    /// Per-stream final bandwidths in stream-id order (service).
    pub final_bandwidths: Vec<f64>,
    /// Per-stream final bandwidths in stream-id order (baseline) — perf
    /// gate 18 pins the two arrays equal bit for bit.
    pub lock_final_bandwidths: Vec<f64>,
}

/// What one select costs the process besides its cells (schema v14): the
/// minor page faults and heap allocation calls counted across the run.
/// Both are process-wide counts, so they hold only what the run did when
/// nothing else runs (true in the `perf_gate` main). They show what an
/// earlier run left behind: a select after a call that freed a large heap
/// faults its pages in again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectCosts {
    /// Minor page faults (`minflt` of `/proc/self/stat`; 0 where that file
    /// cannot be read).
    pub minor_faults: u64,
    /// Heap allocation calls, from the crate's counting allocator
    /// ([`crate::alloc_track::allocations`]).
    pub heap_allocations: u64,
}

impl SelectCosts {
    /// The counts now, to difference against a later [`SelectCosts::now`].
    pub fn now() -> Self {
        Self {
            minor_faults: minor_faults(),
            heap_allocations: crate::alloc_track::allocations(),
        }
    }

    /// The counts since `before`.
    pub fn since(before: Self) -> Self {
        let now = Self::now();
        Self {
            minor_faults: now.minor_faults.saturating_sub(before.minor_faults),
            heap_allocations: now.heap_allocations.saturating_sub(before.heap_allocations),
        }
    }
}

/// The process's minor page faults so far: field 10 (`minflt`) of
/// `/proc/self/stat`, or 0 where the file cannot be read or parsed.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) is parenthesised and may hold spaces, so
    // count from the last `)`: state is field 3, minflt field 10.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// One strategy's measurement: selection outcome, wall time, and the
/// observability snapshot delta for exactly that run.
#[derive(Debug, Clone)]
pub struct StrategyPerf {
    /// Strategy name (one of [`STRATEGIES`]).
    pub name: &'static str,
    /// Selected bandwidth.
    pub bandwidth: f64,
    /// CV score at the selected bandwidth.
    pub score: f64,
    /// Host wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// Simulated device seconds (device strategies only).
    pub simulated_seconds: Option<f64>,
    /// Peak simulated device memory in bytes (device strategies only).
    /// The windowed-memory perf gate pins `gpu-windowed`'s value to the
    /// O(n·(deg+2) + k) formula.
    pub device_bytes_peak: Option<u64>,
    /// Bagged-run dimensions (the `bagged` strategy only).
    pub bagged: Option<BaggedInfo>,
    /// Multivariate-run dimensions (the `multi-*` strategies only).
    pub multi: Option<MultiInfo>,
    /// Page faults and heap allocations of the run (the `prefix` strategy
    /// only).
    pub select_costs: Option<SelectCosts>,
    /// Counters and phase timers recorded during the run.
    pub obs: Snapshot,
}

/// A full report: configuration plus one [`StrategyPerf`] per strategy.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Measurement point.
    pub config: ReportConfig,
    /// Per-strategy results, in [`STRATEGIES`] order.
    pub strategies: Vec<StrategyPerf>,
    /// The streaming replay measurement (always collected by
    /// [`collect_report`]; `None` only in hand-built reports).
    pub streaming: Option<StreamingInfo>,
    /// The sharded serving measurement (always collected by
    /// [`collect_report`]; `None` only in hand-built reports).
    pub serving: Option<ServingInfo>,
}

impl PerfReport {
    /// Serialises the report as schema-version-[`REPORT_VERSION`] JSON.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"version\":{REPORT_VERSION},\"metrics_enabled\":{},\
             \"config\":{{\"n\":{},\"k\":{},\"seed\":{},\"kernel\":\"epanechnikov\"}},\
             \"strategies\":[",
            kcv_obs::enabled(),
            self.config.n,
            self.config.k,
            self.config.seed,
        );
        for (i, s) in self.strategies.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let sim = s
                .simulated_seconds
                .map_or("null".to_string(), |v| format!("{v:.9}"));
            let peak = s
                .device_bytes_peak
                .map_or("null".to_string(), |v| v.to_string());
            let bagged = s.bagged.map_or("null".to_string(), |b| {
                format!(
                    "{{\"bags\":{},\"bag_size\":{},\"combiner\":\"{}\",\
                     \"workers\":{},\"host_bytes_peak\":{}}}",
                    b.bags, b.bag_size, b.combiner, b.workers, b.host_bytes_peak,
                )
            });
            let multi = s.multi.as_ref().map_or("null".to_string(), |m| {
                format!(
                    "{{\"dims\":{},\"grid_points\":{},\"bandwidths\":[{}]}}",
                    m.dims,
                    m.grid_points,
                    decimals(&m.bandwidths),
                )
            });
            let costs = s.select_costs.map_or("null".to_string(), |c| {
                format!(
                    "{{\"minor_faults\":{},\"heap_allocations\":{}}}",
                    c.minor_faults, c.heap_allocations,
                )
            });
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"bandwidth\":{:.12},\"score\":{:.12},\
                 \"wall_seconds\":{:.9},\"simulated_seconds\":{sim},\
                 \"device_bytes_peak\":{peak},\"bagged\":{bagged},\
                 \"multi\":{multi},\"select_costs\":{costs},\"obs\":{}}}",
                s.name,
                s.bandwidth,
                s.score,
                s.wall_seconds,
                s.obs.to_json(),
            ));
        }
        out.push_str("],\"streaming\":");
        match &self.streaming {
            None => out.push_str("null"),
            Some(st) => out.push_str(&format!(
                "{{\"arrivals\":{},\"window\":{},\"cadence\":{},\"inserts\":{},\
                 \"removes\":{},\"reselects\":{},\"tree_updates\":{},\
                 \"kernel_evals\":{},\"final_bandwidth\":{:.12},\
                 \"recompute_bandwidth\":{:.12},\"wall_seconds\":{:.9},\
                 \"recompute_wall_seconds\":{:.9}}}",
                st.arrivals,
                st.window,
                st.cadence,
                st.inserts,
                st.removes,
                st.reselects,
                st.tree_updates,
                st.kernel_evals,
                st.final_bandwidth,
                st.recompute_bandwidth,
                st.wall_seconds,
                st.recompute_wall_seconds,
            )),
        }
        out.push_str(",\"serving\":");
        match &self.serving {
            None => out.push_str("null"),
            Some(sv) => out.push_str(&format!(
                "{{\"streams\":{},\"arrivals_per_stream\":{},\"shards\":{},\
                     \"window\":{},\"cadence\":{},\"requests_served\":{},\
                     \"coalesced_arrivals\":{},\"queue_high_water\":{},\
                     \"shed_requests\":{},\"reselects\":{},\"lock_reselects\":{},\
                     \"kernel_evals\":{},\"wall_seconds\":{:.9},\
                     \"lock_wall_seconds\":{:.9},\"final_bandwidths\":[{}],\
                     \"lock_final_bandwidths\":[{}]}}",
                sv.streams,
                sv.arrivals_per_stream,
                sv.shards,
                sv.window,
                sv.cadence,
                sv.requests_served,
                sv.coalesced_arrivals,
                sv.queue_high_water,
                sv.shed_requests,
                sv.reselects,
                sv.lock_reselects,
                sv.kernel_evals,
                sv.wall_seconds,
                sv.lock_wall_seconds,
                decimals(&sv.final_bandwidths),
                decimals(&sv.lock_final_bandwidths),
            )),
        }
        out.push('}');
        out
    }
}

/// Comma-separated 12-decimal bandwidths, the body of a JSON array.
fn decimals(values: &[f64]) -> String {
    let text: Vec<String> = values.iter().map(|v| format!("{v:.12}")).collect();
    text.join(",")
}

/// Replays the report's sample as a stream through the sliding window and
/// measures it against the sampled recompute-from-scratch prefix baseline
/// (schema v6 `streaming` object).
///
/// The window is `max(n/4, 64)` (capped at `n`) and the re-selection
/// cadence is 64 arrivals: one re-selection *is* a fresh prefix profile of
/// the window, so the amortised win over the recompute-every-arrival
/// policy grows linearly in the cadence — comfortably past perf gate 15's
/// 10× at cadence 64.
fn measure_streaming(x: &[f64], y: &[f64], k: usize) -> Result<StreamingInfo, String> {
    use kcv_core::cv::SlidingWindowSelector;
    let n = x.len();
    let window = (n / 4).max(64).min(n);
    let cadence = 64usize;
    // The same log-spaced grid policy as the scaling study's full-data
    // runs: the optimum lives on a log scale, and the paper-default
    // *linear* grid would clamp it at the `domain/k` floor for large
    // windows (the PR 7 measurement the scaling binary documents).
    let (lo, hi) = x
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
    let domain = hi - lo;
    let grid = BandwidthGrid::log(domain * 1e-3, domain * 0.3, k).map_err(|e| e.to_string())?;

    let recorder = kcv_obs::Recorder::new();
    let scope = recorder.install();
    let mut sel = SlidingWindowSelector::new(Epanechnikov, grid.clone(), window, cadence)
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    for (&xi, &yi) in x.iter().zip(y) {
        sel.push(xi, yi).map_err(|e| e.to_string())?;
    }
    // Force a final re-selection so the final-bandwidth comparison below
    // runs on the identical window regardless of where the cadence landed.
    let final_opt = sel.reselect_now().map_err(|e| e.to_string())?;
    let wall_seconds = start.elapsed().as_secs_f64();
    drop(scope);
    let snap = recorder.snapshot();

    // Recompute-from-scratch baseline, sampled at the replay's own
    // re-selection points (every `cadence` arrivals, plus the final
    // window) and extrapolated to the per-arrival policy's cost.
    let mut points: Vec<usize> = (1..=n).filter(|&t| t % cadence == 0).collect();
    if points.last() != Some(&n) {
        points.push(n);
    }
    let mut last = None;
    let rc_start = Instant::now();
    for &t in &points {
        let w = window.min(t);
        let p = cv_profile_prefix(&x[t - w..t], &y[t - w..t], &grid, &Epanechnikov)
            .map_err(|e| e.to_string())?;
        last = Some(p.argmin().map_err(|e| e.to_string())?);
    }
    let sampled_seconds = rc_start.elapsed().as_secs_f64();
    let recompute_wall_seconds = sampled_seconds / points.len() as f64 * n as f64;
    let recompute = last.expect("at least the final window was recomputed");

    Ok(StreamingInfo {
        arrivals: n,
        window,
        cadence,
        inserts: n as u64,
        removes: (n - window) as u64,
        reselects: snap.counter("reselects"),
        tree_updates: snap.counter("tree_updates"),
        kernel_evals: snap.counter("kernel_evals"),
        final_bandwidth: final_opt.bandwidth,
        recompute_bandwidth: recompute.bandwidth,
        wall_seconds,
        recompute_wall_seconds,
    })
}

/// Replays the report's sample as concurrent arrival streams through the
/// sharded bandwidth service and through the single-global-lock baseline
/// on the identical per-stream sequences (schema v7 `serving` object).
///
/// Stream `s` replays the sample rotated by `37·s` positions, so every
/// stream carries a distinct sequence while both services still see
/// identical per-stream inputs. Arrivals are enqueued in per-stream chunks
/// of `8 × cadence` through the blocking send, the traffic shape that lets
/// a shard worker drain whole bursts: with conflation on, a burst crossing
/// several cadence boundaries funds **one** re-selection where the
/// baseline — re-selecting under its lock at every boundary — pays one per
/// boundary. That conflation is the entire wall-time gap perf gate 18
/// measures; the final bandwidths still agree bit-for-bit because both
/// services run the same final re-selection over the same surviving
/// window at close.
fn measure_serving(x: &[f64], y: &[f64]) -> Result<ServingInfo, String> {
    use kcv_serve::{BandwidthService, GlobalLockService, ServeConfig, StreamId};

    let n = x.len();
    let streams = 8usize;
    let shards = 4usize;
    let window = n.min(256);
    let cadence = 50usize;
    let k = 100usize.min(window * 2);
    let (lo, hi) = x
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
    let domain = hi - lo;
    let grid = BandwidthGrid::log(domain * 1e-3, domain * 0.3, k).map_err(|e| e.to_string())?;
    let config = ServeConfig {
        queue_capacity: 2048,
        ..ServeConfig::new(shards, window, cadence)
    };
    let chunk = 8 * cadence;
    let arrival = |s: usize, i: usize| {
        let j = (i + 37 * s) % n;
        (x[j], y[j])
    };

    let service = BandwidthService::new(Epanechnikov, grid.clone(), config.clone())
        .map_err(|e| e.to_string())?;
    for s in 0..streams {
        service.open(s as StreamId).map_err(|e| e.to_string())?;
    }
    let start = Instant::now();
    for chunk_start in (0..n).step_by(chunk) {
        for s in 0..streams {
            for i in chunk_start..(chunk_start + chunk).min(n) {
                let (xi, yi) = arrival(s, i);
                service
                    .send_blocking(s as StreamId, xi, yi)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    let report = service.shutdown();
    let wall_seconds = start.elapsed().as_secs_f64();

    let lock = GlobalLockService::new(Epanechnikov, grid, config).map_err(|e| e.to_string())?;
    for s in 0..streams {
        lock.open(s as StreamId).map_err(|e| e.to_string())?;
    }
    let lock_start = Instant::now();
    for chunk_start in (0..n).step_by(chunk) {
        for s in 0..streams {
            for i in chunk_start..(chunk_start + chunk).min(n) {
                let (xi, yi) = arrival(s, i);
                lock.send(s as StreamId, xi, yi)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    let lock_outcomes = lock.shutdown();
    let lock_wall_seconds = lock_start.elapsed().as_secs_f64();

    // Both shutdowns return streams in id order.
    let final_bandwidths: Vec<f64> = report
        .streams
        .iter()
        .map(|r| r.outcome.final_optimum.map_or(f64::NAN, |o| o.bandwidth))
        .collect();
    let lock_final_bandwidths: Vec<f64> = lock_outcomes
        .iter()
        .map(|(_, o)| o.final_optimum.map_or(f64::NAN, |o| o.bandwidth))
        .collect();
    let reselects: u64 = report.streams.iter().map(|r| r.outcome.reselects).sum();
    let lock_reselects: u64 = lock_outcomes.iter().map(|(_, o)| o.reselects).sum();

    Ok(ServingInfo {
        streams,
        arrivals_per_stream: n,
        shards,
        window,
        cadence,
        requests_served: report.metrics.counter("requests_served"),
        coalesced_arrivals: report.metrics.counter("coalesced_arrivals"),
        queue_high_water: report.metrics.counter("queue_high_water"),
        shed_requests: report.metrics.counter("shed_requests"),
        reselects,
        lock_reselects,
        kernel_evals: report.metrics.counter("kernel_evals"),
        wall_seconds,
        lock_wall_seconds,
        final_bandwidths,
        lock_final_bandwidths,
    })
}

/// Runs every strategy in [`STRATEGIES`] at one `(n, k)` point on the paper
/// DGP and collects a [`PerfReport`].
///
/// Each strategy runs under its own freshly installed [`kcv_obs::Recorder`],
/// so every snapshot is exactly that strategy's delta even if other
/// instrumented code executes concurrently elsewhere in the process.
pub fn collect_report(config: ReportConfig) -> Result<PerfReport, String> {
    let s = {
        use kcv_data::Dgp;
        kcv_data::PaperDgp.sample(config.n, config.seed)
    };
    let grid = BandwidthGrid::paper_default(&s.x, config.k).map_err(|e| e.to_string())?;

    let mut strategies = Vec::with_capacity(STRATEGIES.len());
    for name in STRATEGIES {
        let recorder = kcv_obs::Recorder::new();
        let scope = recorder.install();
        let mut bagged_info = None;
        let mut multi_info = None;
        let mut select_costs = None;
        let start = Instant::now();
        let (bandwidth, score, simulated_seconds, device_bytes_peak) = match name {
            "naive" => {
                let p = cv_profile_naive(&s.x, &s.y, &grid, &Epanechnikov)
                    .map_err(|e| e.to_string())?;
                let o = p.argmin().map_err(|e| e.to_string())?;
                (o.bandwidth, o.score, None, None)
            }
            "sorted" => {
                let p = cv_profile_sorted(&s.x, &s.y, &grid, &Epanechnikov)
                    .map_err(|e| e.to_string())?;
                let o = p.argmin().map_err(|e| e.to_string())?;
                (o.bandwidth, o.score, None, None)
            }
            "parallel" => {
                let p = cv_profile_sorted_par(&s.x, &s.y, &grid, &Epanechnikov)
                    .map_err(|e| e.to_string())?;
                let o = p.argmin().map_err(|e| e.to_string())?;
                (o.bandwidth, o.score, None, None)
            }
            "prefix" => {
                let before = SelectCosts::now();
                let p = cv_profile_prefix(&s.x, &s.y, &grid, &Epanechnikov)
                    .map_err(|e| e.to_string())?;
                let o = p.argmin().map_err(|e| e.to_string())?;
                select_costs = Some(SelectCosts::since(before));
                (o.bandwidth, o.score, None, None)
            }
            "gpu-sim" => {
                let run = select_bandwidth_gpu(&s.x, &s.y, &grid, &GpuConfig::default())
                    .map_err(|e| e.to_string())?;
                (
                    run.bandwidth,
                    run.score,
                    Some(run.report.total_simulated_seconds),
                    Some(run.report.device_bytes_peak as u64),
                )
            }
            "gpu-windowed" => {
                let run = select_bandwidth_gpu_windowed(&s.x, &s.y, &grid, &GpuConfig::default())
                    .map_err(|e| e.to_string())?;
                (
                    run.bandwidth,
                    run.score,
                    Some(run.report.total_simulated_seconds),
                    Some(run.report.device_bytes_peak as u64),
                )
            }
            "bagged" => {
                // Small-report defaults: enough bags to exercise the
                // machinery without dominating the gate's runtime. The
                // scaling binary uses the ISSUE's (B = 25, r = 2,000).
                let bags = 10;
                let bag_size = config.n.min(500);
                let selector = BaggedSelector::new(
                    Epanechnikov,
                    GridSpec::PaperDefault(config.k),
                    bags,
                    bag_size,
                )
                .with_seed(config.seed);
                crate::alloc_track::reset_peak();
                let baseline = crate::alloc_track::current_bytes();
                let sel = selector.select(&s.x, &s.y).map_err(|e| e.to_string())?;
                let host_bytes_peak = crate::alloc_track::peak_bytes().saturating_sub(baseline);
                bagged_info = Some(BaggedInfo {
                    bags,
                    bag_size,
                    combiner: "mean",
                    workers: bag_workers(bags),
                    host_bytes_peak,
                });
                (sel.bandwidth, sel.score, None, None)
            }
            "multi-naive" | "multi-fast" => {
                // Both multivariate strategies run on the shared derived
                // d = 2 dataset and the identical √k-per-side lattice, so
                // the perf gate's ≥ 10× wall-ratio and bandwidth-identity
                // checks compare like with like.
                let (columns, y2) = crate::programs::multi_dataset(&s.x, &s.y);
                let side = crate::programs::multi_grid_side(config.k);
                let grids = crate::programs::multi_grids(&columns, side)?;
                let sel = if name == "multi-naive" {
                    kcv_core::multi::select_full_grid_naive(&columns, &y2, &Epanechnikov, &grids)
                } else {
                    kcv_core::multi::select_full_grid(&columns, &y2, &Epanechnikov, &grids)
                }
                .map_err(|e| e.to_string())?;
                multi_info = Some(MultiInfo {
                    dims: columns.len(),
                    grid_points: side * side,
                    bandwidths: sel.bandwidths.clone(),
                });
                (sel.bandwidths[0], sel.score, None, None)
            }
            other => return Err(format!("unknown strategy {other}")),
        };
        let wall_seconds = start.elapsed().as_secs_f64();
        drop(scope);
        strategies.push(StrategyPerf {
            name,
            bandwidth,
            score,
            wall_seconds,
            simulated_seconds,
            device_bytes_peak,
            bagged: bagged_info,
            multi: multi_info,
            select_costs,
            obs: recorder.snapshot(),
        });
    }
    let streaming = Some(measure_streaming(&s.x, &s.y, config.k)?);
    let serving = Some(measure_serving(&s.x, &s.y)?);
    Ok(PerfReport {
        config,
        strategies,
        streaming,
        serving,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_all_strategies_and_serialises() {
        let report = collect_report(ReportConfig {
            n: 120,
            k: 10,
            seed: 5,
        })
        .unwrap();
        assert_eq!(report.strategies.len(), STRATEGIES.len());
        for (s, name) in report.strategies.iter().zip(STRATEGIES) {
            assert_eq!(s.name, name);
            assert!(s.bandwidth > 0.0);
            assert!(s.wall_seconds >= 0.0);
        }
        let classic = &report.strategies[4];
        assert_eq!(classic.name, "gpu-sim");
        assert!(classic.simulated_seconds.unwrap() > 0.0);
        let windowed = &report.strategies[5];
        assert_eq!(windowed.name, "gpu-windowed");
        assert!(windowed.simulated_seconds.unwrap() > 0.0);
        // The windowed program's whole point: a fraction of the classic
        // footprint at the same (n, k).
        assert!(windowed.device_bytes_peak.unwrap() < classic.device_bytes_peak.unwrap() / 2);
        let bagged = report
            .strategies
            .iter()
            .find(|s| s.name == "bagged")
            .unwrap();
        let info = bagged.bagged.unwrap();
        assert_eq!(info.bags, 10);
        // n = 120 < 500: bags fall back to the full sample.
        assert_eq!(info.bag_size, 120);
        assert_eq!(info.combiner, "mean");
        assert!(info.workers >= 1);
        // Peak is measured under a concurrent test harness, so only
        // presence and plausibility are asserted here (see alloc_track).
        assert!(info.host_bytes_peak > 0);
        assert!(
            report
                .strategies
                .iter()
                .filter(|s| s.bagged.is_some())
                .count()
                == 1
        );

        // The two multivariate entries share the d = 2 lattice and select
        // the identical bandwidth vector (fast == naive oracle).
        let mnaive = report
            .strategies
            .iter()
            .find(|s| s.name == "multi-naive")
            .unwrap();
        let mfast = report
            .strategies
            .iter()
            .find(|s| s.name == "multi-fast")
            .unwrap();
        let (ni, fi) = (
            mnaive.multi.as_ref().unwrap(),
            mfast.multi.as_ref().unwrap(),
        );
        assert_eq!(ni.dims, 2);
        // k = 10 → side 3 → 9 lattice points.
        assert_eq!(ni.grid_points, 9);
        assert_eq!(ni, fi);
        assert_eq!(mnaive.bandwidth, ni.bandwidths[0]);
        assert!(
            report
                .strategies
                .iter()
                .filter(|s| s.multi.is_some())
                .count()
                == 2
        );

        // The streaming replay: n = 120 arrivals into a window of
        // max(n/4, 64) = 64, so 56 evictions, and the final window
        // selection lands on the same grid value as the fresh prefix
        // recompute over the identical final window.
        let st = report.streaming.as_ref().unwrap();
        assert_eq!(st.arrivals, 120);
        assert_eq!(st.window, 64);
        assert_eq!(st.cadence, 64);
        assert_eq!(st.inserts, 120);
        assert_eq!(st.removes, 56);
        assert!(st.wall_seconds >= 0.0);
        assert!(st.recompute_wall_seconds > 0.0);
        assert_eq!(
            st.final_bandwidth.to_bits(),
            st.recompute_bandwidth.to_bits()
        );

        // The serving replay: 8 streams of all n = 120 arrivals through 4
        // shards and through the global-lock baseline. Whatever the
        // machine's timing did to burst shapes, the per-stream final
        // bandwidths must agree bit-for-bit (speedup is asserted only at
        // gate scale, by perf gate 18 — not here).
        let sv = report.serving.as_ref().unwrap();
        assert_eq!(sv.streams, 8);
        assert_eq!(sv.arrivals_per_stream, 120);
        assert_eq!(sv.shards, 4);
        assert_eq!(sv.window, 120);
        assert_eq!(sv.cadence, 50);
        assert_eq!(sv.shed_requests, 0, "blocking sends never shed");
        assert!(
            sv.reselects >= 8,
            "at least each stream's close re-selection"
        );
        assert!(sv.lock_reselects >= sv.reselects);
        assert!(sv.wall_seconds > 0.0);
        assert!(sv.lock_wall_seconds > 0.0);
        assert_eq!(sv.final_bandwidths.len(), 8);
        let bits = |v: &[f64]| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sv.final_bandwidths), bits(&sv.lock_final_bandwidths));

        let json = report.to_json();
        assert!(json.starts_with(&format!("{{\"version\":{REPORT_VERSION},")));
        for name in STRATEGIES {
            assert!(json.contains(&format!("\"name\":\"{name}\"")), "{json}");
        }
        assert!(json.contains("\"simulated_seconds\":null"));
        assert!(json.contains("\"device_bytes_peak\":null"));
        assert!(json.contains("\"bagged\":null"));
        assert!(json.contains("\"bagged\":{\"bags\":10,"));
        assert!(json.contains("\"multi\":null"));
        assert!(json.contains("\"multi\":{\"dims\":2,\"grid_points\":9,\"bandwidths\":["));
        assert!(json.contains(
            "],\"streaming\":{\"arrivals\":120,\"window\":64,\"cadence\":64,\
             \"inserts\":120,\"removes\":56,"
        ));
        assert!(json.contains(",\"serving\":{\"streams\":8,\"arrivals_per_stream\":120,"));
        assert!(
            json.ends_with("]}}"),
            "serving's bandwidth arrays close the report"
        );
    }

    /// The v14 layout, byte for byte: every key, its order, each `null`
    /// form and each number format.
    const PINNED_V14: &str = "{\"version\":14,\"metrics_enabled\":METRICS,\
        \"config\":{\"n\":1000,\"k\":50,\"seed\":7,\"kernel\":\"epanechnikov\"},\
        \"strategies\":[\
        {\"name\":\"prefix\",\"bandwidth\":0.125000000000,\"score\":0.500000000000,\
        \"wall_seconds\":0.250000000,\"simulated_seconds\":null,\"device_bytes_peak\":null,\
        \"bagged\":null,\"multi\":null,\
        \"select_costs\":{\"minor_faults\":12,\"heap_allocations\":40},\
        \"obs\":{\"counters\":{\"kernel_evals\":0,\"window_queries\":50000},\"phases\":{\"cv.window\":{\"calls\":1,\
        \"cpu_seconds\":0.001500000}}}},\
        {\"name\":\"gpu-windowed\",\"bandwidth\":0.125000000000,\"score\":0.500000000000,\
        \"wall_seconds\":0.500000000,\"simulated_seconds\":0.042100000,\
        \"device_bytes_peak\":58048,\"bagged\":null,\"multi\":null,\
        \"select_costs\":null,\"obs\":{\"counters\":{},\"phases\":{}}},\
        {\"name\":\"bagged\",\"bandwidth\":0.118000000000,\"score\":0.510000000000,\
        \"wall_seconds\":0.030000000,\"simulated_seconds\":null,\"device_bytes_peak\":null,\
        \"bagged\":{\"bags\":25,\"bag_size\":2000,\"combiner\":\"median\",\"workers\":8,\
        \"host_bytes_peak\":4300800},\"multi\":null,\"select_costs\":null,\
        \"obs\":{\"counters\":{},\"phases\":{}}},\
        {\"name\":\"multi-fast\",\"bandwidth\":0.104000000000,\"score\":0.490000000000,\
        \"wall_seconds\":0.010000000,\"simulated_seconds\":null,\"device_bytes_peak\":null,\
        \"bagged\":null,\"multi\":{\"dims\":2,\"grid_points\":100,\
        \"bandwidths\":[0.104000000000,0.088000000000]},\"select_costs\":null,\
        \"obs\":{\"counters\":{},\"phases\":{}}}],\
        \"streaming\":{\"arrivals\":2000,\"window\":500,\"cadence\":64,\"inserts\":2000,\
        \"removes\":1500,\"reselects\":32,\"tree_updates\":104000,\"kernel_evals\":0,\
        \"final_bandwidth\":0.052341000000,\"recompute_bandwidth\":0.052341000000,\
        \"wall_seconds\":0.011000000,\"recompute_wall_seconds\":0.420000000},\
        \"serving\":{\"streams\":8,\"arrivals_per_stream\":2000,\"shards\":4,\"window\":256,\
        \"cadence\":50,\"requests_served\":16008,\"coalesced_arrivals\":15200,\
        \"queue_high_water\":812,\"shed_requests\":0,\"reselects\":24,\"lock_reselects\":328,\
        \"kernel_evals\":0,\"wall_seconds\":0.081000000,\"lock_wall_seconds\":0.840000000,\
        \"final_bandwidths\":[0.052000000000,0.053000000000],\
        \"lock_final_bandwidths\":[0.054000000000,0.055000000000]}}";

    #[test]
    fn report_json_is_the_pinned_v14_layout() {
        let prefix = StrategyPerf {
            name: "prefix",
            bandwidth: 0.125,
            score: 0.5,
            wall_seconds: 0.25,
            simulated_seconds: None,
            device_bytes_peak: None,
            bagged: None,
            multi: None,
            select_costs: Some(SelectCosts {
                minor_faults: 12,
                heap_allocations: 40,
            }),
            obs: Snapshot {
                counters: vec![("kernel_evals", 0), ("window_queries", 50_000)],
                phases: vec![kcv_obs::PhaseStat {
                    name: "cv.window".into(),
                    calls: 1,
                    nanos: 1_500_000,
                }],
            },
        };
        let quiet = StrategyPerf {
            select_costs: None,
            obs: Snapshot::default(),
            ..prefix.clone()
        };
        let mut report = PerfReport {
            config: ReportConfig {
                n: 1_000,
                k: 50,
                seed: 7,
            },
            strategies: vec![
                prefix,
                StrategyPerf {
                    name: "gpu-windowed",
                    wall_seconds: 0.5,
                    simulated_seconds: Some(0.0421),
                    device_bytes_peak: Some(58_048),
                    ..quiet.clone()
                },
                StrategyPerf {
                    name: "bagged",
                    bandwidth: 0.118,
                    score: 0.51,
                    wall_seconds: 0.03,
                    bagged: Some(BaggedInfo {
                        bags: 25,
                        bag_size: 2_000,
                        combiner: "median",
                        workers: 8,
                        host_bytes_peak: 4_300_800,
                    }),
                    ..quiet.clone()
                },
                StrategyPerf {
                    name: "multi-fast",
                    bandwidth: 0.104,
                    score: 0.49,
                    wall_seconds: 0.01,
                    multi: Some(MultiInfo {
                        dims: 2,
                        grid_points: 100,
                        bandwidths: vec![0.104, 0.088],
                    }),
                    ..quiet
                },
            ],
            streaming: Some(StreamingInfo {
                arrivals: 2_000,
                window: 500,
                cadence: 64,
                inserts: 2_000,
                removes: 1_500,
                reselects: 32,
                tree_updates: 104_000,
                kernel_evals: 0,
                final_bandwidth: 0.052341,
                recompute_bandwidth: 0.052341,
                wall_seconds: 0.011,
                recompute_wall_seconds: 0.42,
            }),
            serving: Some(ServingInfo {
                streams: 8,
                arrivals_per_stream: 2_000,
                shards: 4,
                window: 256,
                cadence: 50,
                requests_served: 16_008,
                coalesced_arrivals: 15_200,
                queue_high_water: 812,
                shed_requests: 0,
                reselects: 24,
                lock_reselects: 328,
                kernel_evals: 0,
                wall_seconds: 0.081,
                lock_wall_seconds: 0.84,
                final_bandwidths: vec![0.052, 0.053],
                lock_final_bandwidths: vec![0.054, 0.055],
            }),
        };
        let pinned = PINNED_V14.replace("METRICS", &kcv_obs::enabled().to_string());
        assert_eq!(report.to_json(), pinned);

        report.streaming = None;
        report.serving = None;
        let json = report.to_json();
        assert!(
            json.ends_with("}}}],\"streaming\":null,\"serving\":null}"),
            "{json}"
        );
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn report_records_strategy_counters() {
        // No serialization needed: collect_report measures each strategy
        // under its own recorder, so concurrent tests cannot pollute it.
        // n·k = 66 000 cells: above the prefix engine's split threshold,
        // so `prefix` (and each bag, were it not already on a worker)
        // splits its grid across cores.
        let n = 60u64;
        let k = 1_100u64;
        let report = collect_report(ReportConfig {
            n: n as usize,
            k: k as usize,
            seed: 1,
        })
        .unwrap();
        let by_name = |name: &str| {
            report
                .strategies
                .iter()
                .find(|s| s.name == name)
                .unwrap()
                .obs
                .clone()
        };
        // Naive evaluates the kernel for every (i, l≠i, h) triple.
        assert_eq!(by_name("naive").counter("kernel_evals"), k * n * (n - 1));
        // The sweep absorbs each neighbour at most once per observation.
        let sorted = by_name("sorted");
        assert!(sorted.counter("kernel_evals") <= n * (n - 1));
        assert!(sorted.counter("sort_comparisons") > 0);
        // The prefix sweep answers every (obs, bandwidth) cell with exactly
        // one window query and touches no neighbours at all.
        let prefix = by_name("prefix");
        assert_eq!(prefix.counter("window_queries"), n * k);
        assert_eq!(prefix.counter("kernel_evals"), 0);
        // Only prefix counts what its select costs besides cells; it
        // allocates at least its argsort and tables.
        for s in &report.strategies {
            let costs = s.select_costs;
            match s.name {
                "prefix" => assert!(costs.is_some_and(|c| c.heap_allocations > 0)),
                _ => assert_eq!(costs, None, "{}", s.name),
            }
        }
        // The gpu-sim path reports simulated memory traffic.
        assert!(by_name("gpu-sim").counter("mem_transactions") > 0);
        // The windowed device program answers each (obs, bandwidth) cell
        // with one window query resolved by binary-search probes, and its
        // total simulated traffic stays within the per-cell O(log n) gate
        // bound (the same formula perf_gate enforces).
        let windowed = by_name("gpu-windowed");
        assert_eq!(windowed.counter("window_queries"), n * k);
        assert!(windowed.counter("binary_search_probes") > 0);
        // The bagged run (B = 10, r = min(n, 500) = n here) does exactly
        // B × one bag's prefix work — and records one bags_run per bag.
        // Each bag enters the scope once on its worker and sweeps its
        // whole grid there: no nested split.
        let bagged = by_name("bagged");
        assert_eq!(bagged.counter("bags_run"), 10);
        assert_eq!(bagged.counter("window_queries"), 10 * n * k);
        assert_eq!(bagged.counter("kernel_evals"), 0);
        assert_eq!(bagged.counter("scope_enters"), 10);
        // The multivariate pair share a k = 1 100 → 33×33 = 1 089-point
        // d = 2 lattice. The naive oracle walks neighbours (kernel evals >
        // 0); the fast engine answers every (obs, grid-point) cell from its
        // dimension sweeps — d window queries per cell, one dim-sweep per
        // (grid point, dimension), and zero kernel evaluations.
        let (g, d) = (33 * 33u64, 2u64);
        let mnaive = by_name("multi-naive");
        assert!(mnaive.counter("kernel_evals") > 0);
        assert_eq!(mnaive.counter("dim_sweeps"), 0);
        let mfast = by_name("multi-fast");
        assert_eq!(mfast.counter("kernel_evals"), 0);
        assert_eq!(mfast.counter("dim_sweeps"), g * d);
        assert_eq!(mfast.counter("window_queries"), g * n * d);
        let log2n = (64 - (n - 1).leading_zeros()) as u64;
        assert!(
            windowed.counter("mem_transactions") <= n * k * (2 * log2n + 24 * 3),
            "windowed traffic {} exceeds the per-cell bound",
            windowed.counter("mem_transactions")
        );
        // The parallel sorted sweep enters the kcv_obs scope once per
        // worker chunk and the naive and prefix profiles once per bandwidth
        // block — at most one per available worker — while the sequential
        // sweep never touches it. Per-item attribution is unchanged: the
        // parallel sweep still records exactly the sequential sweep's
        // kernel evaluations.
        let workers = std::thread::available_parallelism().map_or(1, |w| w.get()) as u64;
        assert_eq!(by_name("sorted").counter("scope_enters"), 0);
        for par in ["parallel", "naive", "prefix"] {
            let enters = by_name(par).counter("scope_enters");
            assert!(
                (1..=workers.min(n)).contains(&enters),
                "{par}: {enters} scope entries for {workers} workers"
            );
        }
        assert_eq!(
            by_name("parallel").counter("kernel_evals"),
            sorted.counter("kernel_evals")
        );
        // The simulated programs enter the scope once per main-kernel block
        // and never per simulated thread or per reduction barrier.
        let config = GpuConfig::default();
        let tpb = config
            .threads_per_block
            .min(config.spec.max_threads_per_block) as u64;
        for gpu in ["gpu-sim", "gpu-windowed"] {
            let enters = by_name(gpu).counter("scope_enters");
            assert!(
                enters <= n.div_ceil(tpb),
                "{gpu}: {enters} scope entries for {} blocks",
                n.div_ceil(tpb)
            );
        }
        // Schema v6 streaming replay, measured under its own recorder:
        // with n = 60 < the 64-observation window floor the window covers
        // the whole stream (no evictions), the 64-arrival cadence never
        // fires before the forced final pass, and the window
        // answers the grid with zero kernel evaluations inside the
        // gate-14 table-row budget.
        let st = report.streaming.as_ref().unwrap();
        assert_eq!(st.window, 60);
        assert_eq!(st.removes, 0);
        assert_eq!(st.reselects, 1);
        assert_eq!(st.kernel_evals, 0);
        let log2w = (64 - (st.window as u64 - 1).leading_zeros()) as u64;
        assert!(
            st.tree_updates <= (st.inserts + st.removes) * log2w * 5,
            "tree_updates {} exceeds the update budget",
            st.tree_updates
        );
        assert_eq!(
            st.final_bandwidth.to_bits(),
            st.recompute_bandwidth.to_bits()
        );
        // Schema v7 serving replay, measured from the shard workers' own
        // merged recorders: every drained request is counted (8 opens +
        // 8 × 60 arrivals; shutdown closes bypass the queues), the
        // blocking sends shed nothing, the queues were actually observed,
        // and the whole service answered from its sliding windows
        // without a single kernel evaluation. Burst shapes (and so
        // `coalesced_arrivals`) are timing-dependent — asserted at gate
        // scale by perf gate 17, not here.
        let sv = report.serving.as_ref().unwrap();
        assert_eq!(sv.requests_served, 8 * (n + 1));
        assert_eq!(sv.shed_requests, 0);
        assert!(sv.queue_high_water >= 1);
        assert_eq!(sv.kernel_evals, 0);
        let bits = |v: &[f64]| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sv.final_bandwidths), bits(&sv.lock_final_bandwidths));
    }
}
