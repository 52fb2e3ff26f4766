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
//! ## Schema (version 9)
//!
//! Version 2 renamed the per-phase `seconds` field to `cpu_seconds`:
//! overlapping same-name phase scopes on different rayon workers sum to CPU
//! time, which legitimately exceeds wall-clock (see the `kcv-obs`
//! *Phase-timer semantics* rustdoc). Version 3 added the `gpu-windowed`
//! strategy (the O(n)-memory device program) and the per-strategy
//! `device_bytes_peak` field (`null` for CPU strategies) that the
//! windowed-memory perf gate reads. Version 4 adds:
//!
//! * the `bagged` strategy entry, whose nested `bagged` object (`null` on
//!   every other strategy) records `bags` (their `N`), `bag_size` (their
//!   `r`), the `combiner`, the rayon `workers` the bags were chunked over,
//!   and `host_bytes_peak` — the *measured* host-heap high-water delta of
//!   the run from the crate's counting allocator (see `alloc_track`), which
//!   the bagged-memory perf gate divides by `workers`;
//! * the top-level `scaling` array (empty unless written by the `scaling`
//!   binary) with one row per past-the-paper sample size;
//! * an explicit restatement of the version-2 rule because the bagged run
//!   is the first *multi-bag parallel* strategy in the report: the
//!   `cv.bag` phase's `cpu_seconds` is the **sum over bags on all
//!   workers**, so it exceeds the strategy's `wall_seconds` whenever bags
//!   actually overlapped — that is the parallelism working, not a timer
//!   bug. Tooling comparing strategies must use `wall_seconds`; phase
//!   `cpu_seconds` only ever compares against other phase `cpu_seconds`.
//!
//! Version 5 adds the two multivariate strategies, measured over the
//! shared `d = 2` dataset of [`crate::programs::multi_dataset`] on a
//! `⌊√k⌋ × ⌊√k⌋` full bandwidth lattice:
//!
//! * `multi-naive` — `kcv_core::multi::select_full_grid_naive`, the
//!   product-kernel oracle that evaluates `Π_j K(·)` for every
//!   `(i, l ≠ i, h)` triple;
//! * `multi-fast` — `kcv_core::multi::select_full_grid`, the
//!   dimension-recursive fast-sum-updating engine (zero kernel
//!   evaluations; window queries and `dim_sweeps` counters instead);
//! * the per-strategy nested `multi` object (`null` on every univariate
//!   strategy) recording `dims`, `grid_points`, and the full per-dimension
//!   `bandwidths` array — the scalar `bandwidth` field on those entries is
//!   dimension 1's component, kept so every entry stays shape-compatible.
//!   The multivariate perf gates read `multi` to pin the fast engine's
//!   zero-eval and window-query contracts and its ≥ 10× wall-time win
//!   over `multi-naive` at gate scale.
//!
//! Version 6 adds the streaming replay and the chunk-hook observability:
//!
//! * the top-level `streaming` object (after `scaling`): a sliding-window
//!   replay of the report's own paper-DGP sample through
//!   `kcv_core::cv::SlidingWindowSelector` (window `max(n/4, 64)`,
//!   re-selection cadence 64 arrivals, the same `k`-point **log-spaced**
//!   grid the scaling study's full runs use). `wall_seconds` is the whole
//!   replay including every cadence-triggered re-selection plus one forced
//!   final `reselect`; `recompute_wall_seconds` is the extrapolated cost of
//!   the recompute-from-scratch policy (a fresh prefix profile on the live
//!   window at *every* arrival) — timing all `n` recomputes would dwarf
//!   the report, so the baseline is **sampled at the replay's re-selection
//!   points and the final window** and scaled to per-arrival cost. The
//!   streaming perf gates pin `kernel_evals == 0`, the
//!   `tree_updates ≤ (inserts+removes)·⌈log₂ window⌉·(deg+3)` budget, the
//!   ≥ 10× wall-time win over the recompute baseline, and
//!   `final_bandwidth == recompute_bandwidth` (serialised form);
//! * the `scope_enters` counter in every `obs.counters` object: recorder
//!   scope re-entries inside worker closures. The vendored rayon's
//!   `fold_with_setup` chunk hook makes each parallel strategy pay one
//!   entry per worker *chunk* (at most `available_parallelism`) instead of
//!   one per observation, so a parallel strategy's count is now orders of
//!   magnitude below its observation count while its sequential twin stays
//!   at zero — the per-chunk-vs-per-observation delta is directly visible
//!   in the report, with the per-item counter attribution (`kernel_evals`,
//!   `window_queries`, …) unchanged.
//!
//! Version 7 adds the top-level `serving` object (after `streaming`): the
//! sharded multi-stream service measurement. The report's paper-DGP sample
//! is replayed as several concurrent arrival streams (each stream a
//! rotation of the sample, so the per-stream sequences differ) through
//! `kcv_serve::BandwidthService` — bounded per-shard queues, burst
//! coalescing, one conflated re-selection per boundary-crossing burst —
//! and, identically, through the single-global-lock baseline
//! (`kcv_serve::GlobalLockService`) that re-selects at **every** cadence
//! boundary under the lock. The object records both wall times, the
//! service-side outcome counters (`reselects` vs `lock_reselects`, counted
//! from the per-stream outcomes, so they are live without `--features
//! metrics`), the merged shard obs counters (`requests_served`,
//! `coalesced_arrivals`, `queue_high_water` — max across shards —
//! `shed_requests`, `kernel_evals`; zero without metrics), and the two
//! per-stream `final_bandwidths` arrays in stream-id order. Perf gates
//! 16–18 (numbered 20–22 before version 8) pin the object's presence,
//! the zero-kernel-eval / coalescing-observed contract, and the ≥ 4×
//! throughput win at bit-identical serialised final bandwidths.
//!
//! Version 8 drops the `merged` and `merged-par` strategy entries: the
//! merge-sweep was dominated on every measured axis by the prefix-moment
//! sweep and was deleted, together with the four perf gates that read
//! those entries (the remaining gates are renumbered 1–18).
//!
//! Version 9 writes every bandwidth a bit-identity gate compares twice:
//! as the `{:.12}` decimal, for readers, and as its `f64::to_bits` in
//! 16-digit hex, for the gates. The hex fields sit beside their decimals:
//! `multi.bandwidths_bits`, the streaming `final_bandwidth_bits` and
//! `recompute_bandwidth_bits`, and the serving `final_bandwidths_bits` and
//! `lock_final_bandwidths_bits`. Gates 12, 15 and 18 compare the hex, so
//! two bandwidths that agree to 12 decimals but differ in the last bit
//! fail.
//!
//! ```json
//! {
//!   "version": 9,
//!   "metrics_enabled": true,
//!   "config": {"n": 1000, "k": 50, "seed": 42, "kernel": "epanechnikov"},
//!   "strategies": [
//!     {
//!       "name": "naive",
//!       "bandwidth": 0.104,
//!       "score": 0.0321,
//!       "wall_seconds": 0.0124,
//!       "simulated_seconds": null,
//!       "device_bytes_peak": null,
//!       "bagged": null,
//!       "multi": null,
//!       "obs": {
//!         "counters": {"kernel_evals": 49950000, "sort_comparisons": 0, ...},
//!         "phases": {"cv.naive": {"calls": 1, "cpu_seconds": 0.0123}, ...}
//!       }
//!     },
//!     {
//!       "name": "bagged",
//!       "bandwidth": 0.102,
//!       ...
//!       "bagged": {"bags": 10, "bag_size": 500, "combiner": "mean",
//!                   "workers": 8, "host_bytes_peak": 392704},
//!       "obs": {...}
//!     },
//!     {
//!       "name": "multi-fast",
//!       "bandwidth": 0.104,
//!       ...
//!       "multi": {"dims": 2, "grid_points": 49,
//!                  "bandwidths": [0.104, 0.088],
//!                  "bandwidths_bits": ["3fba9fbe76c8b439", "3fb6872b020c49ba"]},
//!       "obs": {...}
//!     }
//!   ],
//!   "scaling": [
//!     {"n": 10000000, "bags": 25, "bag_size": 2000, "combiner": "mean",
//!      "bagged_wall_seconds": 0.021, "bagged_host_bytes_peak": 81920000,
//!      "bagged_bandwidth": 0.0021, "full_wall_seconds": null,
//!      "full_host_bytes_peak": null, "full_bandwidth": null,
//!      "full_score": null, "bagged_regret": null}
//!   ],
//!   "streaming": {
//!     "arrivals": 2000, "window": 500, "cadence": 64,
//!     "inserts": 2000, "removes": 1500, "reselects": 32,
//!     "tree_updates": 104000, "kernel_evals": 0,
//!     "final_bandwidth": 0.052341, "final_bandwidth_bits": "3faacc70867ad8e4",
//!     "recompute_bandwidth": 0.052341,
//!     "recompute_bandwidth_bits": "3faacc70867ad8e4",
//!     "wall_seconds": 0.011, "recompute_wall_seconds": 0.420
//!   },
//!   "serving": {
//!     "streams": 8, "arrivals_per_stream": 2000, "shards": 4,
//!     "window": 256, "cadence": 50,
//!     "requests_served": 16008, "coalesced_arrivals": 15200,
//!     "queue_high_water": 812, "shed_requests": 0,
//!     "reselects": 24, "lock_reselects": 328, "kernel_evals": 0,
//!     "wall_seconds": 0.081, "lock_wall_seconds": 0.840,
//!     "final_bandwidths": [0.052341, ...],
//!     "final_bandwidths_bits": ["3faacc70867ad8e4", ...],
//!     "lock_final_bandwidths": [0.052341, ...],
//!     "lock_final_bandwidths_bits": ["3faacc70867ad8e4", ...]
//!   }
//! }
//! ```

use kcv_core::cv::{
    cv_profile_naive, cv_profile_prefix, cv_profile_prefix_par, cv_profile_sorted,
    cv_profile_sorted_par,
};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_core::select::bagged::{bag_workers, BaggedSelector};
use kcv_core::select::{BandwidthSelector, GridSpec};
use kcv_gpu::{select_bandwidth_gpu, select_bandwidth_gpu_windowed, GpuConfig};
use kcv_obs::Snapshot;
use std::time::Instant;

/// Current `BENCH_report.json` schema version. Bump on any breaking change
/// to the JSON layout and describe the change in EXPERIMENTS.md.
/// Version 2: phase timers serialise as `cpu_seconds` (was `seconds`).
/// Version 3: added the `gpu-windowed` strategy and the per-strategy
/// `device_bytes_peak` field.
/// Version 4: added the `bagged` strategy (nested `bags`/`bag_size`/
/// `combiner`/`workers`/`host_bytes_peak` object) and the top-level
/// `scaling` array; documented that multi-bag parallel phase `cpu_seconds`
/// legitimately exceeds `wall_seconds` (the module-level schema notes).
/// Version 5: added the `multi-naive`/`multi-fast` strategies (the `d = 2`
/// full-grid selectors) and the per-strategy nested `multi` object
/// (`dims`/`grid_points`/`bandwidths`, `null` on univariate strategies).
/// Version 6: added the top-level `streaming` object (the sliding-window
/// replay the streaming perf gates read) and the `scope_enters` counter
/// (the chunk-hook scope-entry delta; see the module-level schema notes).
/// Version 7: added the top-level `serving` object (the sharded
/// multi-stream service vs global-lock baseline measurement perf gates
/// 16–18 read; see the module-level schema notes).
/// Version 8: dropped the `merged`/`merged-par` strategies (the deleted
/// merge-sweep).
/// Version 9: every bandwidth a bit-identity gate compares is also written
/// as `to_bits` hex (`*_bits` fields beside the decimals).
pub const REPORT_VERSION: u32 = 9;

/// The strategies a report covers, in emission order.
pub const STRATEGIES: [&str; 10] = [
    "naive",
    "sorted",
    "parallel",
    "prefix",
    "prefix-par",
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
    /// nothing else allocates concurrently (true in the `perf_gate` and
    /// `scaling` mains; not under `cargo test`).
    pub host_bytes_peak: u64,
}

/// The multivariate strategies' extra dimensions (schema v5): the grid
/// shape and the full per-dimension bandwidth vector that the scalar
/// `bandwidth` field (dimension 1's component) cannot carry. The
/// multivariate perf gates compare `multi-naive`'s and `multi-fast`'s
/// serialised `bandwidths` arrays for bit identity.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiInfo {
    /// Number of regressor dimensions `d`.
    pub dims: usize,
    /// Total bandwidth-lattice points searched (`side^d`).
    pub grid_points: usize,
    /// The selected per-dimension bandwidth vector.
    pub bandwidths: Vec<f64>,
}

/// One row of the past-the-paper scaling study (schema v4, written by the
/// `scaling` binary). The `full_*` fields are `None` where the full-data
/// prefix run was skipped as infeasible.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRow {
    /// Sample size.
    pub n: usize,
    /// Bags `B` in the bagged run.
    pub bags: usize,
    /// Subsample size `r` per bag.
    pub bag_size: usize,
    /// Aggregation rule label.
    pub combiner: &'static str,
    /// Bagged selection wall time.
    pub bagged_wall_seconds: f64,
    /// Bagged selection measured host-heap peak delta (bytes).
    pub bagged_host_bytes_peak: u64,
    /// The bagged (combined, rescaled) bandwidth.
    pub bagged_bandwidth: f64,
    /// Full-data prefix wall time, where feasible.
    pub full_wall_seconds: Option<f64>,
    /// Full-data prefix measured host-heap peak delta (bytes).
    pub full_host_bytes_peak: Option<u64>,
    /// Full-data prefix bandwidth.
    pub full_bandwidth: Option<f64>,
    /// Full-data CV score at [`ScalingRow::full_bandwidth`] (the grid
    /// minimum).
    pub full_score: Option<f64>,
    /// Relative full-data CV regret of the bagged bandwidth:
    /// `(CV_n(h_bag) − CV_n(h_full)) / CV_n(h_full)`. This is the study's
    /// quality metric — the CV valley is so flat at these `n` that
    /// bandwidth ratios sit inside the CV minimizer's own `O(n^{−1/10})`
    /// noise, while the regret says directly how much objective the bagged
    /// answer gives up.
    pub bagged_regret: Option<f64>,
}

/// The streaming replay's settings and measurements (schema v6): one
/// sliding-window pass of the report's paper-DGP sample through the
/// incremental Fenwick engine, next to the sampled-and-extrapolated
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
    /// `insert` operations applied to the moment tree (= arrivals).
    pub inserts: u64,
    /// `remove` operations applied (evictions: `arrivals − window` once the
    /// window fills).
    pub removes: u64,
    /// Completed `reselect()` passes (cadence-triggered plus the forced
    /// final one), from the `reselects` counter.
    pub reselects: u64,
    /// Fenwick node visits, from the `tree_updates` counter. Perf gate 14
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
/// sequences. Perf gate 18 compares the serialised `final_bandwidths`
/// arrays for bit identity and requires `lock_wall_seconds ≥ 4 ×
/// wall_seconds` at gate scale.
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
    /// (counted by the workers themselves, so live without metrics).
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
    /// gate 18 pins the serialised arrays equal.
    pub lock_final_bandwidths: Vec<f64>,
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
    /// Past-the-paper scaling rows; empty except in reports written by the
    /// `scaling` binary.
    pub scaling: Vec<ScalingRow>,
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
                let bw: Vec<String> =
                    m.bandwidths.iter().map(|b| format!("{b:.12}")).collect();
                format!(
                    "{{\"dims\":{},\"grid_points\":{},\"bandwidths\":[{}],\
                     \"bandwidths_bits\":[{}]}}",
                    m.dims,
                    m.grid_points,
                    bw.join(","),
                    bits_hex(&m.bandwidths),
                )
            });
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"bandwidth\":{:.12},\"score\":{:.12},\
                 \"wall_seconds\":{:.9},\"simulated_seconds\":{sim},\
                 \"device_bytes_peak\":{peak},\"bagged\":{bagged},\
                 \"multi\":{multi},\"obs\":{}}}",
                s.name,
                s.bandwidth,
                s.score,
                s.wall_seconds,
                s.obs.to_json(),
            ));
        }
        out.push_str("],\"scaling\":[");
        for (i, r) in self.scaling.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let fw = r
                .full_wall_seconds
                .map_or("null".to_string(), |v| format!("{v:.9}"));
            let fp = r
                .full_host_bytes_peak
                .map_or("null".to_string(), |v| v.to_string());
            let fb = r
                .full_bandwidth
                .map_or("null".to_string(), |v| format!("{v:.12}"));
            let fs = r
                .full_score
                .map_or("null".to_string(), |v| format!("{v:.12}"));
            let rg = r
                .bagged_regret
                .map_or("null".to_string(), |v| format!("{v:.12}"));
            out.push_str(&format!(
                "{{\"n\":{},\"bags\":{},\"bag_size\":{},\"combiner\":\"{}\",\
                 \"bagged_wall_seconds\":{:.9},\"bagged_host_bytes_peak\":{},\
                 \"bagged_bandwidth\":{:.12},\"full_wall_seconds\":{fw},\
                 \"full_host_bytes_peak\":{fp},\"full_bandwidth\":{fb},\
                 \"full_score\":{fs},\"bagged_regret\":{rg}}}",
                r.n,
                r.bags,
                r.bag_size,
                r.combiner,
                r.bagged_wall_seconds,
                r.bagged_host_bytes_peak,
                r.bagged_bandwidth,
            ));
        }
        out.push_str("],\"streaming\":");
        match &self.streaming {
            None => out.push_str("null"),
            Some(st) => out.push_str(&format!(
                "{{\"arrivals\":{},\"window\":{},\"cadence\":{},\"inserts\":{},\
                 \"removes\":{},\"reselects\":{},\"tree_updates\":{},\
                 \"kernel_evals\":{},\"final_bandwidth\":{:.12},\
                 \"final_bandwidth_bits\":{},\"recompute_bandwidth\":{:.12},\
                 \"recompute_bandwidth_bits\":{},\"wall_seconds\":{:.9},\
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
                bits_hex(&[st.final_bandwidth]),
                st.recompute_bandwidth,
                bits_hex(&[st.recompute_bandwidth]),
                st.wall_seconds,
                st.recompute_wall_seconds,
            )),
        }
        out.push_str(",\"serving\":");
        match &self.serving {
            None => out.push_str("null"),
            Some(sv) => {
                let fb: Vec<String> =
                    sv.final_bandwidths.iter().map(|b| format!("{b:.12}")).collect();
                let lb: Vec<String> =
                    sv.lock_final_bandwidths.iter().map(|b| format!("{b:.12}")).collect();
                out.push_str(&format!(
                    "{{\"streams\":{},\"arrivals_per_stream\":{},\"shards\":{},\
                     \"window\":{},\"cadence\":{},\"requests_served\":{},\
                     \"coalesced_arrivals\":{},\"queue_high_water\":{},\
                     \"shed_requests\":{},\"reselects\":{},\"lock_reselects\":{},\
                     \"kernel_evals\":{},\"wall_seconds\":{:.9},\
                     \"lock_wall_seconds\":{:.9},\"final_bandwidths\":[{}],\
                     \"final_bandwidths_bits\":[{}],\"lock_final_bandwidths\":[{}],\
                     \"lock_final_bandwidths_bits\":[{}]}}",
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
                    fb.join(","),
                    bits_hex(&sv.final_bandwidths),
                    lb.join(","),
                    bits_hex(&sv.lock_final_bandwidths),
                ));
            }
        }
        out.push('}');
        out
    }
}

/// Comma-separated `to_bits` hex strings (`"3fa9…"`) of `values`: the
/// exact form the bit-identity gates compare, beside the rounded decimals.
fn bits_hex(values: &[f64]) -> String {
    let hex: Vec<String> = values.iter().map(|v| format!("\"{:016x}\"", v.to_bits())).collect();
    hex.join(",")
}

/// Replays the report's sample as a stream through the sliding-window
/// incremental engine and measures it against the sampled
/// recompute-from-scratch prefix baseline (schema v6 `streaming` object).
///
/// The window is `max(n/4, 64)` (capped at `n`) and the re-selection
/// cadence is 64 arrivals: one incremental `reselect` costs about one
/// fresh prefix profile on the same window (both run the same cell kernel;
/// the reselect reads its flat table from the Fenwick tree in
/// `O(W·log W)` where the fresh run sorts), so the amortised win over the
/// recompute-every-arrival policy grows roughly linearly in the cadence —
/// comfortably past perf gate 15's 10× at cadence 64.
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
    let grid =
        BandwidthGrid::log(domain * 1e-3, domain * 0.3, k).map_err(|e| e.to_string())?;

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
    let grid =
        BandwidthGrid::log(domain * 1e-3, domain * 0.3, k).map_err(|e| e.to_string())?;
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

    let lock = GlobalLockService::new(Epanechnikov, grid, config)
        .map_err(|e| e.to_string())?;
    for s in 0..streams {
        lock.open(s as StreamId).map_err(|e| e.to_string())?;
    }
    let lock_start = Instant::now();
    for chunk_start in (0..n).step_by(chunk) {
        for s in 0..streams {
            for i in chunk_start..(chunk_start + chunk).min(n) {
                let (xi, yi) = arrival(s, i);
                lock.send(s as StreamId, xi, yi).map_err(|e| e.to_string())?;
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
                let p = cv_profile_prefix(&s.x, &s.y, &grid, &Epanechnikov)
                    .map_err(|e| e.to_string())?;
                let o = p.argmin().map_err(|e| e.to_string())?;
                (o.bandwidth, o.score, None, None)
            }
            "prefix-par" => {
                let p = cv_profile_prefix_par(&s.x, &s.y, &grid, &Epanechnikov)
                    .map_err(|e| e.to_string())?;
                let o = p.argmin().map_err(|e| e.to_string())?;
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
                let run =
                    select_bandwidth_gpu_windowed(&s.x, &s.y, &grid, &GpuConfig::default())
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
                let host_bytes_peak =
                    crate::alloc_track::peak_bytes().saturating_sub(baseline);
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
                    kcv_core::multi::select_full_grid_naive(
                        &columns,
                        &y2,
                        &Epanechnikov,
                        &grids,
                    )
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
            obs: recorder.snapshot(),
        });
    }
    let streaming = Some(measure_streaming(&s.x, &s.y, config.k)?);
    let serving = Some(measure_serving(&s.x, &s.y)?);
    Ok(PerfReport { config, strategies, scaling: Vec::new(), streaming, serving })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_all_strategies_and_serialises() {
        let report = collect_report(ReportConfig { n: 120, k: 10, seed: 5 }).unwrap();
        assert_eq!(report.strategies.len(), STRATEGIES.len());
        for (s, name) in report.strategies.iter().zip(STRATEGIES) {
            assert_eq!(s.name, name);
            assert!(s.bandwidth > 0.0);
            assert!(s.wall_seconds >= 0.0);
        }
        let classic = &report.strategies[5];
        assert_eq!(classic.name, "gpu-sim");
        assert!(classic.simulated_seconds.unwrap() > 0.0);
        let windowed = &report.strategies[6];
        assert_eq!(windowed.name, "gpu-windowed");
        assert!(windowed.simulated_seconds.unwrap() > 0.0);
        // The windowed program's whole point: a fraction of the classic
        // footprint at the same (n, k).
        assert!(windowed.device_bytes_peak.unwrap() < classic.device_bytes_peak.unwrap() / 2);
        let bagged = report.strategies.iter().find(|s| s.name == "bagged").unwrap();
        let info = bagged.bagged.unwrap();
        assert_eq!(info.bags, 10);
        // n = 120 < 500: bags fall back to the full sample.
        assert_eq!(info.bag_size, 120);
        assert_eq!(info.combiner, "mean");
        assert!(info.workers >= 1);
        // Peak is measured under a concurrent test harness, so only
        // presence and plausibility are asserted here (see alloc_track).
        assert!(info.host_bytes_peak > 0);
        assert!(report.strategies.iter().filter(|s| s.bagged.is_some()).count() == 1);

        // The two multivariate entries share the d = 2 lattice and select
        // the identical bandwidth vector (fast == naive oracle).
        let mnaive = report.strategies.iter().find(|s| s.name == "multi-naive").unwrap();
        let mfast = report.strategies.iter().find(|s| s.name == "multi-fast").unwrap();
        let (ni, fi) = (mnaive.multi.as_ref().unwrap(), mfast.multi.as_ref().unwrap());
        assert_eq!(ni.dims, 2);
        // k = 10 → side 3 → 9 lattice points.
        assert_eq!(ni.grid_points, 9);
        assert_eq!(ni, fi);
        assert_eq!(mnaive.bandwidth, ni.bandwidths[0]);
        assert!(report.strategies.iter().filter(|s| s.multi.is_some()).count() == 2);

        // The streaming replay: n = 120 arrivals into a window of
        // max(n/4, 64) = 64, so 56 evictions, and the final incremental
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
        assert_eq!(st.final_bandwidth.to_bits(), st.recompute_bandwidth.to_bits());

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
        assert!(sv.reselects >= 8, "at least each stream's close re-selection");
        assert!(sv.lock_reselects >= sv.reselects);
        assert!(sv.wall_seconds > 0.0);
        assert!(sv.lock_wall_seconds > 0.0);
        assert_eq!(sv.final_bandwidths.len(), 8);
        let bits = |v: &[f64]| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sv.final_bandwidths), bits(&sv.lock_final_bandwidths));

        let json = report.to_json();
        assert!(json.starts_with("{\"version\":9,"));
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
            ",\"scaling\":[],\"streaming\":{\"arrivals\":120,\"window\":64,\"cadence\":64,\
             \"inserts\":120,\"removes\":56,"
        ));
        assert!(json.contains(",\"serving\":{\"streams\":8,\"arrivals_per_stream\":120,"));
        assert!(json.ends_with("]}}"), "serving's bandwidth arrays close the report");
    }

    /// Schema v6 round-trip: every field written by `to_json` must be
    /// readable back through the shared `json` helpers, so a future version
    /// bump that drops or renames a field fails here instead of silently
    /// producing reports the gate half-reads (ISSUE 7's bugfix satellite).
    #[test]
    fn report_json_round_trips_through_the_shared_readers() {
        use crate::json::{f64_field, str_field, strategy_slice, u64_field};

        let obs = Snapshot::default();
        let report = PerfReport {
            config: ReportConfig { n: 1_000, k: 50, seed: 7 },
            strategies: vec![
                StrategyPerf {
                    name: "prefix",
                    bandwidth: 0.125,
                    score: 0.5,
                    wall_seconds: 0.25,
                    simulated_seconds: None,
                    device_bytes_peak: None,
                    bagged: None,
                    multi: None,
                    obs: obs.clone(),
                },
                StrategyPerf {
                    name: "bagged",
                    bandwidth: 0.118,
                    score: 0.51,
                    wall_seconds: 0.03,
                    simulated_seconds: None,
                    device_bytes_peak: None,
                    bagged: Some(BaggedInfo {
                        bags: 25,
                        bag_size: 2_000,
                        combiner: "median",
                        workers: 8,
                        host_bytes_peak: 4_300_800,
                    }),
                    multi: None,
                    obs: obs.clone(),
                },
                StrategyPerf {
                    name: "multi-fast",
                    bandwidth: 0.104,
                    score: 0.49,
                    wall_seconds: 0.01,
                    simulated_seconds: None,
                    device_bytes_peak: None,
                    bagged: None,
                    multi: Some(MultiInfo {
                        dims: 2,
                        grid_points: 100,
                        bandwidths: vec![0.104, 0.088],
                    }),
                    obs,
                },
            ],
            scaling: vec![
                ScalingRow {
                    n: 10_000_000,
                    bags: 25,
                    bag_size: 2_000,
                    combiner: "mean",
                    bagged_wall_seconds: 0.5,
                    bagged_host_bytes_peak: 81_920_000,
                    bagged_bandwidth: 0.0021,
                    full_wall_seconds: None,
                    full_host_bytes_peak: None,
                    full_bandwidth: None,
                    full_score: None,
                    bagged_regret: None,
                },
                ScalingRow {
                    n: 100_000,
                    bags: 25,
                    bag_size: 2_000,
                    combiner: "mean",
                    bagged_wall_seconds: 0.4,
                    bagged_host_bytes_peak: 1_024,
                    bagged_bandwidth: 0.0084,
                    full_wall_seconds: Some(12.5),
                    full_host_bytes_peak: Some(2_400_000),
                    full_bandwidth: Some(0.0086),
                    full_score: Some(0.020833),
                    bagged_regret: Some(0.000019),
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
                final_bandwidths: vec![0.052341, 0.052341],
                lock_final_bandwidths: vec![0.052341, 0.052341],
            }),
        };
        let json = report.to_json();

        assert_eq!(u64_field(&json, "version"), Some(u64::from(REPORT_VERSION)));
        assert_eq!(u64_field(&json, "n"), Some(1_000));

        let prefix = strategy_slice(&json, "prefix").unwrap();
        assert_eq!(f64_field(prefix, "bandwidth"), Some(0.125));
        assert!(prefix.contains("\"bagged\":null"));

        let bagged = strategy_slice(&json, "bagged").unwrap();
        assert_eq!(u64_field(bagged, "bags"), Some(25));
        assert_eq!(u64_field(bagged, "bag_size"), Some(2_000));
        assert_eq!(str_field(bagged, "combiner"), Some("median"));
        assert_eq!(u64_field(bagged, "workers"), Some(8));
        assert_eq!(u64_field(bagged, "host_bytes_peak"), Some(4_300_800));
        assert!(bagged.contains("\"multi\":null"));

        let mfast = strategy_slice(&json, "multi-fast").unwrap();
        assert_eq!(u64_field(mfast, "dims"), Some(2));
        assert_eq!(u64_field(mfast, "grid_points"), Some(100));
        assert_eq!(
            crate::json::array_field(mfast, "bandwidths"),
            Some("[0.104000000000,0.088000000000]")
        );
        assert_eq!(
            crate::json::array_field(mfast, "bandwidths_bits"),
            Some(format!("[\"{:016x}\",\"{:016x}\"]", 0.104f64.to_bits(), 0.088f64.to_bits())
                .as_str())
        );
        assert!(mfast.contains("\"bagged\":null"));

        // Bound the scaling slice at the streaming object so the row
        // lookups below cannot leak into it.
        let scaling_start = json.find("\"scaling\":[").unwrap();
        let streaming_start = json.find("\"streaming\":").unwrap();
        let scaling = &json[scaling_start..streaming_start];
        let second_row = &scaling[scaling.rfind('{').unwrap()..];
        assert_eq!(u64_field(scaling, "n"), Some(10_000_000));
        assert_eq!(f64_field(scaling, "bagged_bandwidth"), Some(0.0021));
        assert!(scaling.contains("\"full_wall_seconds\":null"));
        assert_eq!(u64_field(second_row, "n"), Some(100_000));
        assert_eq!(f64_field(second_row, "full_wall_seconds"), Some(12.5));
        assert_eq!(u64_field(second_row, "full_host_bytes_peak"), Some(2_400_000));
        assert_eq!(f64_field(second_row, "full_bandwidth"), Some(0.0086));
        assert_eq!(f64_field(second_row, "full_score"), Some(0.020833));
        assert_eq!(f64_field(second_row, "bagged_regret"), Some(0.000019));
        assert!(scaling.contains("\"full_score\":null"));
        assert!(scaling.contains("\"bagged_regret\":null"));

        // Bound the streaming slice at the serving object the same way —
        // the two share field names (`window`, `cadence`, `reselects`,
        // `kernel_evals`, `wall_seconds`), so an unbounded slice would
        // read across the boundary.
        let serving_start = json.find("\"serving\":").unwrap();
        let streaming = &json[streaming_start..serving_start];
        assert_eq!(u64_field(streaming, "arrivals"), Some(2_000));
        assert_eq!(u64_field(streaming, "window"), Some(500));
        assert_eq!(u64_field(streaming, "cadence"), Some(64));
        assert_eq!(u64_field(streaming, "inserts"), Some(2_000));
        assert_eq!(u64_field(streaming, "removes"), Some(1_500));
        assert_eq!(u64_field(streaming, "reselects"), Some(32));
        assert_eq!(u64_field(streaming, "tree_updates"), Some(104_000));
        assert_eq!(u64_field(streaming, "kernel_evals"), Some(0));
        assert_eq!(f64_field(streaming, "final_bandwidth"), Some(0.052341));
        assert_eq!(f64_field(streaming, "recompute_bandwidth"), Some(0.052341));
        let bits = format!("{:016x}", 0.052341f64.to_bits());
        assert_eq!(str_field(streaming, "final_bandwidth_bits"), Some(bits.as_str()));
        assert_eq!(str_field(streaming, "recompute_bandwidth_bits"), Some(bits.as_str()));
        assert_eq!(f64_field(streaming, "wall_seconds"), Some(0.011));
        assert_eq!(f64_field(streaming, "recompute_wall_seconds"), Some(0.42));

        let serving = &json[serving_start..];
        assert_eq!(u64_field(serving, "streams"), Some(8));
        assert_eq!(u64_field(serving, "arrivals_per_stream"), Some(2_000));
        assert_eq!(u64_field(serving, "shards"), Some(4));
        assert_eq!(u64_field(serving, "window"), Some(256));
        assert_eq!(u64_field(serving, "cadence"), Some(50));
        assert_eq!(u64_field(serving, "requests_served"), Some(16_008));
        assert_eq!(u64_field(serving, "coalesced_arrivals"), Some(15_200));
        assert_eq!(u64_field(serving, "queue_high_water"), Some(812));
        assert_eq!(u64_field(serving, "shed_requests"), Some(0));
        assert_eq!(u64_field(serving, "reselects"), Some(24));
        assert_eq!(u64_field(serving, "lock_reselects"), Some(328));
        assert_eq!(u64_field(serving, "kernel_evals"), Some(0));
        assert_eq!(f64_field(serving, "wall_seconds"), Some(0.081));
        assert_eq!(f64_field(serving, "lock_wall_seconds"), Some(0.84));
        // Gate 18 compares these serialised slices verbatim.
        assert_eq!(
            crate::json::array_field(serving, "final_bandwidths"),
            Some("[0.052341000000,0.052341000000]")
        );
        assert_eq!(
            crate::json::array_field(serving, "final_bandwidths"),
            crate::json::array_field(serving, "lock_final_bandwidths"),
        );
        assert_eq!(
            crate::json::array_field(serving, "final_bandwidths_bits"),
            Some(format!("[\"{bits}\",\"{bits}\"]").as_str())
        );
        assert_eq!(
            crate::json::array_field(serving, "final_bandwidths_bits"),
            crate::json::array_field(serving, "lock_final_bandwidths_bits"),
        );
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn report_records_strategy_counters() {
        // No serialization needed: collect_report measures each strategy
        // under its own recorder, so concurrent tests cannot pollute it.
        let n = 60u64;
        let k = 8u64;
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
        let prefix_par = by_name("prefix-par");
        assert_eq!(prefix_par.counter("window_queries"), n * k);
        assert_eq!(prefix_par.counter("kernel_evals"), 0);
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
        let bagged = by_name("bagged");
        assert_eq!(bagged.counter("bags_run"), 10);
        assert_eq!(bagged.counter("window_queries"), 10 * n * k);
        assert_eq!(bagged.counter("kernel_evals"), 0);
        // The multivariate pair share a k = 8 → 2×2 = 4-point d = 2
        // lattice. The naive oracle walks neighbours (kernel evals > 0);
        // the fast engine answers every (obs, grid-point) cell from its
        // dimension sweeps — d window queries per cell, one dim-sweep per
        // (grid point, dimension), and zero kernel evaluations.
        let (g, d) = (4u64, 2u64);
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
        // The rayon chunk hook enters the kcv_obs scope once per worker
        // chunk — at most one per available worker — while the sequential
        // twins never touch it. Per-item attribution is unchanged: the
        // parallel sweep still records exactly the sequential sweep's
        // kernel evaluations.
        let workers = std::thread::available_parallelism().map_or(1, |w| w.get()) as u64;
        for seq in ["naive", "sorted", "prefix"] {
            assert_eq!(by_name(seq).counter("scope_enters"), 0, "{seq}");
        }
        for par in ["parallel", "prefix-par"] {
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
        // Schema v6 streaming replay, measured under its own recorder:
        // with n = 60 < the 64-observation window floor the window covers
        // the whole stream (no evictions), the 64-arrival cadence never
        // fires before the forced final pass, and the incremental engine
        // answers the grid with zero kernel evaluations inside the
        // gate-14 tree-update budget.
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
        assert_eq!(st.final_bandwidth.to_bits(), st.recompute_bandwidth.to_bits());
        // Schema v7 serving replay, measured from the shard workers' own
        // merged recorders: every drained request is counted (8 opens +
        // 8 × 60 arrivals; shutdown closes bypass the queues), the
        // blocking sends shed nothing, the queues were actually observed,
        // and the whole service answered from the incremental engine
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
