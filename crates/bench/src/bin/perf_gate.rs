//! Counter-based performance gate, and the one writer of
//! `results/BENCH_report.json`.
//!
//! Collects a fresh per-strategy report at a small fixed `(n, k)` point,
//! writes its JSON to the report path for CI, and asserts the engines'
//! complexity contracts on the collected [`PerfReport`] itself, as a single
//! named gate table:
//!
//! 1. `prefix` answers every (obs, bandwidth) cell with one window query —
//!    a monotone cursor step, seeded by bisection at each bandwidth block's
//!    first observation, and no step at all for an edge pinned at either
//!    end of the sample — counted once per cell, pinned or not, so the
//!    count is `n · k`, well inside the `n · k · ceil(log2 n)` bound (a
//!    per-neighbour scan has no business here);
//! 2. `prefix` evaluates the kernel **zero** times — every score comes
//!    from prefix-sum differencing, never a neighbour visit;
//! 3. `prefix` actually ran its window machinery (queries > 0);
//! 4. `prefix` (split across cores into interleaved bandwidth blocks at
//!    gate scale, with pinned edges' sides hoisted per observation)
//!    selects the same bandwidth as the sorted sweep, bit for bit
//!    (`f64::to_bits`);
//! 5. `gpu-windowed` device-memory peak stays `O(n)` — hard ceiling
//!    `16 · n · (deg + 2)` bytes (64n at the default quadratic kernel).
//!    The classic pipeline's two `n×n` matrices sit at `8n²` and blow
//!    through this ceiling by the hundreds at gate scale, so any regression
//!    that sneaks a dense matrix back into the windowed program fails loud;
//! 6. `gpu-windowed` simulated memory transactions stay
//!    `O(k · log n)` per observation — ceiling
//!    `n · k · (2·ceil(log2 n) + 24·(deg + 1))`: two edge searches plus a
//!    constant number of prefix-table touches per cell (the kernel reads
//!    its two self rows once per thread and one row per edge move). A
//!    per-neighbour scan (the classic running-sum loop) is `Θ(n)` per cell
//!    and fails.
//! 7. `bagged` total work stays ≤ `B ×` one bag's bound — window queries
//!    at most `bags · bag_size · k` and **zero** kernel evals (prefix
//!    engine), with `bags`/`bag_size` read from the report itself. The
//!    ceiling has no `n` term at fixed `(B, r)`: a bagged run that
//!    quietly sweeps the full sample per bag fails by orders of
//!    magnitude;
//! 8. `bagged` measured host-heap peak stays ≤ `workers ×` one bag's
//!    documented footprint bound (`kcv_core::select::bagged::
//!    bag_footprint_bound_bytes`) — each rayon worker holds at most one
//!    bag's subsample and tables at a time, so keeping every bag's data
//!    alive at once (or materialising anything `O(n)` per bag) fails.
//! 9. the report text written for CI begins with schema version
//!    [`REPORT_VERSION`] — the one gate that reads the text, so a writer
//!    that falls out of step with the schema fails here;
//! 10. `multi-fast` evaluates the kernel **zero** times while its
//!     dimension sweeps actually ran (`dim_sweeps > 0`) — every product
//!     weight comes from prefix-moment differencing over the per-dimension
//!     Fenwick/prefix tables, never a neighbour visit;
//! 11. `multi-fast` window queries stay within
//!     `grid_points · n · d · ceil(log2 n)` — the d-per-cell binary-search
//!     budget; a per-neighbour product scan is `Θ(n)` per cell and fails;
//! 12. at `n ≥ 2,000` `multi-fast` beats `multi-naive` by ≥ 10× wall time
//!     while selecting the bit-identical bandwidth **vector** (every
//!     component's `to_bits` compares equal);
//! 13. the `streaming` measurement is present — the two
//!     replay gates below read it, so a writer that stops measuring the
//!     streaming engine must fail here, not pass by absence;
//! 14. the streaming replay never evaluates the kernel and the moment-table
//!     rows its re-selections write (the `tree_updates` counter, one per
//!     window observation per re-selection) stay within `(inserts +
//!     removes) · ceil(log2 W) · (deg + 3)` — every re-selection is the
//!     prefix sweep over the window, one compensated prefix pass and the
//!     cell sweep, never a neighbour visit, and re-selecting on (nearly)
//!     every arrival would exceed the budget;
//! 15. the streaming replay beats the per-arrival recompute-from-scratch
//!     policy by ≥ 10× wall time while selecting the identical bandwidth
//!     on the final window (the `to_bits` values compare equal);
//! 16. the `serving` measurement is present — the two
//!     service gates below read it, so a writer that stops measuring the
//!     sharded service must fail here, not pass by absence;
//! 17. the sharded service answers every stream from its sliding window
//!     — **zero** kernel evaluations service-wide — while its
//!     workers actually drained requests and coalesced bursts
//!     (`requests_served > 0`, `coalesced_arrivals > 0`): a service that
//!     quietly re-selects per arrival (nothing to coalesce) or recomputes
//!     profiles from scratch (kernel evals) fails;
//! 18. at `n ≥ 2,000` the sharded service beats the single-global-lock
//!     baseline by ≥ 4× wall time on the identical per-stream traffic
//!     while every per-stream final bandwidth's `to_bits` compares equal —
//!     the conflated re-selections must cost throughput
//!     nothing in selection quality.
//!
//! Exits non-zero if any gate fails, printing each gate's verdict and then
//! naming the failures, so `make verify` and CI fail if a regression
//! reintroduces per-observation sorting or per-neighbour scanning. The
//! identity gates (4, 12, 15, 18) print the `to_bits` they compared in hex.
//! Requires a `--features metrics` build (the gate refuses to pass when
//! counters are compiled out).
//!
//! Usage: `cargo run -p kcv-bench --features metrics --bin perf_gate --
//! [--n N] [--k K] [--out results/BENCH_report.json]`

use kcv_bench::report::{collect_report, PerfReport, ReportConfig, StrategyPerf, REPORT_VERSION};
use kcv_bench::table::{arg_parse, arg_value};
use kcv_core::select::bagged::bag_footprint_bound_bytes;
use kcv_obs::Counter;
use std::path::Path;
use std::process::ExitCode;

/// One gate's verdict: `ok == None` means skipped (with the reason in
/// `detail`), otherwise pass/fail plus the numbers behind it.
struct Gate {
    name: &'static str,
    ok: Option<bool>,
    detail: String,
}

impl Gate {
    fn pass_if(name: &'static str, ok: bool, detail: String) -> Gate {
        Gate {
            name,
            ok: Some(ok),
            detail,
        }
    }

    fn skip(name: &'static str, detail: String) -> Gate {
        Gate {
            name,
            ok: None,
            detail,
        }
    }
}

/// True when `a` and `b` hold the same values bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter()
        .map(|v| v.to_bits())
        .eq(b.iter().map(|v| v.to_bits()))
}

/// `f64::to_bits` of each value in 16-digit hex, the evidence the identity
/// gates print.
fn hex(values: &[f64]) -> String {
    let bits: Vec<String> = values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect();
    bits.join(",")
}

/// Evaluates every gate against `report`. `json` is the text written for
/// CI, read only by gate 9; `metrics` says whether counters were compiled
/// in. Pure over its inputs so the table is unit-testable without a
/// metrics build or a filesystem.
fn evaluate_gates(report: &PerfReport, json: &str, metrics: bool) -> Vec<Gate> {
    let mut gates = Vec::new();
    if !metrics {
        gates.push(Gate::pass_if(
            "metrics enabled in report",
            false,
            "counters disabled; run with `cargo run -p kcv-bench --features metrics \
             --bin perf_gate`"
                .into(),
        ));
        return gates;
    }

    let strategy = |name: &str| report.strategies.iter().find(|s| s.name == name);
    let (sorted, prefix, windowed, bagged, multi_naive, multi_fast) = match (
        strategy("sorted"),
        strategy("prefix"),
        strategy("gpu-windowed"),
        strategy("bagged"),
        strategy("multi-naive"),
        strategy("multi-fast"),
    ) {
        (Some(s), Some(p), Some(w), Some(b), Some(mn), Some(mf)) => (s, p, w, b, mn, mf),
        _ => {
            gates.push(Gate::pass_if(
                "report lists sorted/prefix/gpu-windowed/bagged/\
                     multi-naive/multi-fast strategies",
                false,
                "at least one strategy entry is missing from the report".into(),
            ));
            return gates;
        }
    };
    let version = format!("{{\"version\":{REPORT_VERSION},");
    let head: String = json.chars().take(version.len()).collect();
    gates.push(Gate::pass_if(
        "report schema version matches the gate's",
        json.starts_with(&version),
        format!("{head:?} == {version:?}"),
    ));
    let ReportConfig { n, k, .. } = report.config;
    let field = |s: &StrategyPerf, counter: Counter| s.obs.counter(counter.name());
    let log2n = (n as f64).log2().ceil() as u64;

    // --- prefix-moment contract -----------------------------------------
    let query_ceiling = (n * k) as u64 * log2n;
    let prefix_queries = field(prefix, Counter::WindowQueries);
    gates.push(Gate::pass_if(
        "prefix window queries stay within n*k*ceil(log2 n)",
        prefix_queries <= query_ceiling,
        format!("{prefix_queries} <= {query_ceiling}"),
    ));

    let pe = field(prefix, Counter::KernelEvals);
    gates.push(Gate::pass_if(
        "prefix sweeps never evaluate the kernel",
        pe == 0,
        format!("prefix {pe} == 0"),
    ));

    gates.push(Gate::pass_if(
        "prefix window machinery actually ran",
        prefix_queries > 0,
        format!("{prefix_queries} > 0"),
    ));

    let (sb, pb) = (sorted.bandwidth, prefix.bandwidth);
    gates.push(Gate::pass_if(
        "prefix strategies select the sorted sweep's bandwidth",
        same_bits(&[pb], &[sb]),
        format!("prefix {} == sorted {}", hex(&[pb]), hex(&[sb])),
    ));

    // --- windowed GPU memory contract ------------------------------------
    // The default config runs the quadratic Epanechnikov kernel, so
    // deg = 2: peak ceiling 16·n·(deg+2) = 64n bytes, and the per-cell
    // traffic budget is 2·ceil(log2 n) probe reads + 24·(deg+1) table /
    // assembly transactions. A thread reads its two self rows, 8·(deg+1)
    // words, once, and per cell only the 4·(deg+1)-word row of an edge
    // that moved, so the kernel spends well under this budget. Both
    // ceilings deliberately carry NO n² term: the classic pipeline's 8n²
    // residual matrices cannot hide under them.
    let deg = 2u64;
    let peak_ceiling = 16 * n as u64 * (deg + 2);
    let windowed_peak = windowed.device_bytes_peak.unwrap_or(0);
    gates.push(Gate::pass_if(
        "windowed peak device bytes stay O(n), no n^2 term",
        windowed_peak > 0 && windowed_peak <= peak_ceiling,
        format!("0 < {windowed_peak} <= 16*n*(deg+2) = {peak_ceiling}"),
    ));

    let txn_ceiling = (n * k) as u64 * (2 * log2n + 24 * (deg + 1));
    let windowed_txns = field(windowed, Counter::MemTransactions);
    gates.push(Gate::pass_if(
        "windowed mem transactions stay O(k log n) per observation",
        windowed_txns > 0 && windowed_txns <= txn_ceiling,
        format!("0 < {windowed_txns} <= n*k*(2*ceil(log2 n) + 24*(deg+1)) = {txn_ceiling}"),
    ));

    // --- bagged contracts ------------------------------------------------
    // Both ceilings are functions of (bags, bag_size, k, workers) read
    // from the report itself — deliberately independent of n, which is
    // the bagged selector's entire value proposition.
    let info = bagged.bagged;
    let bags = info.map_or(0, |b| b.bags as u64);
    let bag_size = info.map_or(0, |b| b.bag_size as u64);
    let work_ceiling = bags * bag_size * k as u64;
    let bagged_queries = field(bagged, Counter::WindowQueries);
    let bagged_evals = field(bagged, Counter::KernelEvals);
    gates.push(Gate::pass_if(
        "bagged work stays within B x one bag's bound, no n term",
        bags > 0
            && bag_size > 0
            && bagged_evals == 0
            && bagged_queries > 0
            && bagged_queries <= work_ceiling,
        format!("0 < {bagged_queries} <= B*r*k = {work_ceiling}, kernel_evals {bagged_evals} == 0"),
    ));

    let workers = info.map_or(0, |b| b.workers);
    let bagged_peak = info.map_or(0, |b| b.host_bytes_peak);
    let mem_ceiling = workers * bag_footprint_bound_bytes(bag_size as usize, k);
    gates.push(Gate::pass_if(
        "bagged peak memory stays within workers x one bag's footprint",
        workers > 0 && bagged_peak > 0 && bagged_peak <= mem_ceiling,
        format!("0 < {bagged_peak} <= workers({workers}) * bag_bound = {mem_ceiling}"),
    ));

    // --- multivariate fast-sum-updating contracts -------------------------
    // The d = 2 full-grid selector: every product weight must come from
    // the dimension-recursive prefix-moment tables, never a kernel call.
    let mf_evals = field(multi_fast, Counter::KernelEvals);
    let mf_sweeps = field(multi_fast, Counter::DimSweeps);
    gates.push(Gate::pass_if(
        "multi-fast never evaluates the kernel",
        mf_evals == 0 && mf_sweeps > 0,
        format!("kernel_evals {mf_evals} == 0, dim_sweeps {mf_sweeps} > 0"),
    ));

    let dims = multi_fast.multi.as_ref().map_or(0, |m| m.dims as u64);
    let grid_points = multi_fast
        .multi
        .as_ref()
        .map_or(0, |m| m.grid_points as u64);
    let mf_queries = field(multi_fast, Counter::WindowQueries);
    let mf_ceiling = grid_points * n as u64 * dims * log2n;
    gates.push(Gate::pass_if(
        "multi-fast window queries stay within g*n*d*ceil(log2 n)",
        dims > 0 && grid_points > 0 && mf_queries > 0 && mf_queries <= mf_ceiling,
        format!("0 < {mf_queries} <= g({grid_points})*n*d({dims})*ceil(log2 n) = {mf_ceiling}"),
    ));

    if n >= 2_000 {
        let (nw, fw) = (multi_naive.wall_seconds, multi_fast.wall_seconds);
        let ratio = if fw > 0.0 { nw / fw } else { 0.0 };
        let [nv_bw, mf_bw] =
            [multi_naive, multi_fast].map(|s| s.multi.as_ref().map(|m| m.bandwidths.as_slice()));
        let identical = matches!((nv_bw, mf_bw), (Some(a), Some(b)) if same_bits(a, b));
        let show = |bw: Option<&[f64]>| bw.map_or("none".to_string(), |b| format!("[{}]", hex(b)));
        gates.push(Gate::pass_if(
            "multi-fast beats multi-naive >= 10x on the identical optimum",
            ratio >= 10.0 && identical,
            format!(
                "wall ratio {ratio:.1} >= 10, bandwidths {} == {}",
                show(nv_bw),
                show(mf_bw)
            ),
        ));
    } else {
        gates.push(Gate::skip(
            "multi-fast beats multi-naive >= 10x on the identical optimum",
            format!("ratio asserted only at n >= 2,000 (n = {n})"),
        ));
    }

    // --- streaming sliding-window contracts --------------------------------
    let Some(st) = &report.streaming else {
        gates.push(Gate::pass_if(
            "report carries the schema-v6 streaming object",
            false,
            "no streaming object in the report".into(),
        ));
        return gates;
    };
    gates.push(Gate::pass_if(
        "report carries the schema-v6 streaming object",
        true,
        "streaming replay measured".into(),
    ));

    let (updates, st_evals, reselects) = (st.tree_updates, st.kernel_evals, st.reselects);
    let log2w = (st.window.max(2) as f64).log2().ceil() as u64;
    let update_ceiling = (st.inserts + st.removes) * log2w * (deg + 3);
    gates.push(Gate::pass_if(
        "streaming replay: zero kernel evals, table rows within the update budget",
        st_evals == 0 && reselects > 0 && updates > 0 && updates <= update_ceiling,
        format!(
            "kernel_evals {st_evals} == 0, reselects {reselects} > 0, \
             0 < tree_updates {updates} <= (ins+rem)*ceil(log2 W)*(deg+3) = {update_ceiling}"
        ),
    ));

    let st_ratio = st.recompute_wall_seconds / st.wall_seconds;
    let (fb, rb) = (st.final_bandwidth, st.recompute_bandwidth);
    gates.push(Gate::pass_if(
        "streaming replay beats per-arrival recompute >= 10x, identical bandwidth",
        st_ratio >= 10.0 && same_bits(&[fb], &[rb]),
        format!(
            "wall ratio {st_ratio:.1} >= 10, final {} == recompute {}",
            hex(&[fb]),
            hex(&[rb])
        ),
    ));

    // --- sharded serving contracts ---------------------------------------
    let Some(sv) = &report.serving else {
        gates.push(Gate::pass_if(
            "report carries the schema-v7 serving object",
            false,
            "no serving object in the report".into(),
        ));
        return gates;
    };
    gates.push(Gate::pass_if(
        "report carries the schema-v7 serving object",
        true,
        "sharded service measured".into(),
    ));

    let (sv_evals, sv_served, sv_coalesced) =
        (sv.kernel_evals, sv.requests_served, sv.coalesced_arrivals);
    gates.push(Gate::pass_if(
        "serving: zero kernel evals service-wide, bursts coalesced",
        sv_evals == 0 && sv_served > 0 && sv_coalesced > 0,
        format!(
            "kernel_evals {sv_evals} == 0, requests_served {sv_served} > 0, \
             coalesced_arrivals {sv_coalesced} > 0"
        ),
    ));

    if n >= 2_000 {
        let sv_ratio = if sv.wall_seconds > 0.0 {
            sv.lock_wall_seconds / sv.wall_seconds
        } else {
            0.0
        };
        let (sv_bw, lk_bw) = (&sv.final_bandwidths, &sv.lock_final_bandwidths);
        gates.push(Gate::pass_if(
            "sharded service beats the global lock >= 4x at identical bandwidths",
            sv_ratio >= 4.0 && same_bits(sv_bw, lk_bw),
            format!(
                "wall ratio {sv_ratio:.1} >= 4, bandwidths [{}] == [{}]",
                hex(sv_bw),
                hex(lk_bw)
            ),
        ));
    } else {
        gates.push(Gate::skip(
            "sharded service beats the global lock >= 4x at identical bandwidths",
            format!("ratio asserted only at n >= 2,000 (n = {n})"),
        ));
    }

    gates
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n = arg_parse(&args, "--n", 2_000usize);
    let k = arg_parse(&args, "--k", 100usize);
    let out = arg_value(&args, "--out").unwrap_or_else(|| "results/BENCH_report.json".into());

    eprintln!("perf gate: collecting BENCH report at n = {n}, k = {k}…");
    let report = match collect_report(ReportConfig { n, k, seed: 42 }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf gate: report collection failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = report.to_json();
    let path = Path::new(&out);
    if let Some(dir) = path.parent() {
        if std::fs::create_dir_all(dir).is_err() {
            eprintln!("perf gate: cannot create {}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if std::fs::write(path, &json).is_err() {
        eprintln!("perf gate: cannot write {}", path.display());
        return ExitCode::FAILURE;
    }

    let gates = evaluate_gates(&report, &json, kcv_obs::enabled());
    let width = gates.iter().map(|g| g.name.len()).max().unwrap_or(0);
    for g in &gates {
        let verdict = match g.ok {
            Some(true) => "PASS",
            Some(false) => "FAIL",
            None => "skip",
        };
        println!("perf gate: {verdict} — {:width$} ({})", g.name, g.detail);
    }
    let failures: Vec<&Gate> = gates.iter().filter(|g| g.ok == Some(false)).collect();
    if failures.is_empty() {
        println!(
            "perf gate: all invariants hold (n = {n}, k = {k}, report: {})",
            path.display()
        );
        ExitCode::SUCCESS
    } else {
        println!("perf gate: {} invariant(s) violated:", failures.len());
        for g in &failures {
            println!("perf gate:   - {} ({})", g.name, g.detail);
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcv_bench::report::{BaggedInfo, MultiInfo, ServingInfo, StreamingInfo};
    use kcv_obs::Snapshot;
    use Counter::{BagsRun, DimSweeps, KernelEvals, MemTransactions, WindowQueries};

    fn entry(name: &'static str, bandwidth: f64, counters: &[(Counter, u64)]) -> StrategyPerf {
        StrategyPerf {
            name,
            bandwidth,
            score: 0.5,
            wall_seconds: 0.1,
            simulated_seconds: None,
            device_bytes_peak: None,
            bagged: None,
            multi: None,
            select_costs: None,
            obs: Snapshot {
                counters: counters.iter().map(|&(c, v)| (c.name(), v)).collect(),
                phases: Vec::new(),
            },
        }
    }

    /// A report every gate passes at n = 2,000, k = 100: ceil(log2 2000) =
    /// 11, so the window-query ceiling is 2,200,000, the windowed peak
    /// ceiling 128,000 bytes and the transaction ceiling 18,800,000.
    /// Bagged (B = 10, r = 500): work ceiling 500,000 queries; memory
    /// ceiling 8 × (256·500 + 64·100 + 65,536) = 1,599,488 bytes.
    /// Multi-fast (g = 100, d = 2): query ceiling 100·2,000·2·11 =
    /// 4,400,000; wall ratio 1.5/0.05 = 30×. Streaming (W = 500): update
    /// ceiling (2,000 + 1,500)·9·5 = 157,500; wall ratio 0.42/0.011 = 38×.
    /// Serving: wall ratio 0.84/0.081 = 10.4×, identical bandwidth arrays.
    fn fixture() -> PerfReport {
        let multi = |name, wall_seconds, counters: &[(Counter, u64)]| StrategyPerf {
            wall_seconds,
            multi: Some(MultiInfo {
                dims: 2,
                grid_points: 100,
                bandwidths: vec![0.125, 0.25],
            }),
            ..entry(name, 0.125, counters)
        };
        PerfReport {
            config: ReportConfig {
                n: 2_000,
                k: 100,
                seed: 42,
            },
            strategies: vec![
                entry("sorted", 0.125, &[(KernelEvals, 90)]),
                entry(
                    "prefix",
                    0.125,
                    &[(KernelEvals, 0), (WindowQueries, 200_000)],
                ),
                StrategyPerf {
                    device_bytes_peak: Some(58_048),
                    ..entry(
                        "gpu-windowed",
                        0.125,
                        &[(WindowQueries, 200_000), (MemTransactions, 5_600_000)],
                    )
                },
                StrategyPerf {
                    bagged: Some(BaggedInfo {
                        bags: 10,
                        bag_size: 500,
                        combiner: "mean",
                        workers: 8,
                        host_bytes_peak: 900_000,
                    }),
                    ..entry(
                        "bagged",
                        0.12,
                        &[(KernelEvals, 0), (WindowQueries, 500_000), (BagsRun, 10)],
                    )
                },
                multi("multi-naive", 1.5, &[(KernelEvals, 790_000_000)]),
                multi(
                    "multi-fast",
                    0.05,
                    &[(KernelEvals, 0), (DimSweeps, 200), (WindowQueries, 400_000)],
                ),
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
                lock_final_bandwidths: vec![0.052, 0.053],
            }),
        }
    }

    fn strategy<'a>(report: &'a mut PerfReport, name: &str) -> &'a mut StrategyPerf {
        report
            .strategies
            .iter_mut()
            .find(|s| s.name == name)
            .unwrap()
    }

    fn set(report: &mut PerfReport, name: &str, counter: Counter, value: u64) {
        let counters = &mut strategy(report, name).obs.counters;
        counters.retain(|&(c, _)| c != counter.name());
        counters.push((counter.name(), value));
    }

    fn gates(report: &PerfReport) -> Vec<Gate> {
        evaluate_gates(report, &report.to_json(), true)
    }

    fn fails(gates: &[Gate]) -> Vec<&'static str> {
        gates
            .iter()
            .filter(|g| g.ok == Some(false))
            .map(|g| g.name)
            .collect()
    }

    /// The gates `mutate` makes fail on the conforming fixture.
    fn fails_after(mutate: impl FnOnce(&mut PerfReport)) -> Vec<&'static str> {
        let mut report = fixture();
        mutate(&mut report);
        fails(&gates(&report))
    }

    #[test]
    fn all_gates_pass_on_a_conforming_report() {
        let gates = gates(&fixture());
        assert_eq!(gates.len(), 18);
        assert!(
            gates.iter().all(|g| g.ok == Some(true)),
            "{:?}",
            fails(&gates)
        );
    }

    #[test]
    fn kernel_eval_gate_catches_a_scanning_prefix() {
        let failed = fails_after(|r| set(r, "prefix", KernelEvals, 7));
        assert_eq!(failed, vec!["prefix sweeps never evaluate the kernel"]);
    }

    #[test]
    fn window_query_gate_catches_a_per_probe_count() {
        // A count above n·k·ceil(log2 n) means queries are being charged per
        // binary-search probe (or per neighbour), not per cell.
        let failed = fails_after(|r| set(r, "prefix", WindowQueries, 2_200_001));
        assert_eq!(
            failed,
            vec!["prefix window queries stay within n*k*ceil(log2 n)"]
        );
    }

    #[test]
    fn prefix_gate_refuses_zero_queries() {
        // A prefix entry that never ran its window machinery must not pass
        // the query ceiling by vacuity.
        let failed = fails_after(|r| set(r, "prefix", WindowQueries, 0));
        assert_eq!(failed, vec!["prefix window machinery actually ran"]);
    }

    #[test]
    fn bandwidth_gate_catches_a_prefix_disagreement() {
        let failed = fails_after(|r| strategy(r, "prefix").bandwidth = 0.25);
        assert_eq!(
            failed,
            vec!["prefix strategies select the sorted sweep's bandwidth"]
        );
    }

    #[test]
    fn windowed_peak_gate_catches_a_dense_matrix_allocation() {
        // 8n² bytes at n = 2,000 is 32 MB — a windowed program that quietly
        // reallocated the classic n×n residual matrices lands here, five
        // hundred times over the 64n = 128,000-byte ceiling.
        let failed =
            fails_after(|r| strategy(r, "gpu-windowed").device_bytes_peak = Some(32_000_000));
        assert_eq!(
            failed,
            vec!["windowed peak device bytes stay O(n), no n^2 term"]
        );
    }

    #[test]
    fn windowed_traffic_gate_catches_a_per_neighbour_scan() {
        // A per-neighbour running-sum loop reads Θ(n) cells per (obs, h)
        // pair: n·k·n = 4·10⁸ transactions at gate scale, far above the
        // n·k·(2·ceil(log2 n) + 72) = 18,800,000 ceiling.
        let failed = fails_after(|r| set(r, "gpu-windowed", MemTransactions, 400_000_000));
        assert_eq!(
            failed,
            vec!["windowed mem transactions stay O(k log n) per observation"]
        );
    }

    #[test]
    fn windowed_gates_refuse_zero_counts() {
        // A report produced without actually running the windowed program
        // (no peak, no traffic) must not pass by vacuity.
        let failed = fails_after(|r| {
            strategy(r, "gpu-windowed").device_bytes_peak = None;
            set(r, "gpu-windowed", MemTransactions, 0);
        });
        assert_eq!(
            failed,
            vec![
                "windowed peak device bytes stay O(n), no n^2 term",
                "windowed mem transactions stay O(k log n) per observation"
            ]
        );
    }

    #[test]
    fn bagged_work_gate_catches_a_full_sample_sweep() {
        // A bagged run that sweeps all n observations per bag does
        // B·n·k = 10·2,000·100 = 2,000,000 queries, four times the
        // B·r·k = 500,000 ceiling.
        let failed = fails_after(|r| set(r, "bagged", WindowQueries, 2_000_000));
        assert_eq!(
            failed,
            vec!["bagged work stays within B x one bag's bound, no n term"]
        );
    }

    #[test]
    fn bagged_work_gate_catches_a_kernel_evaluating_engine() {
        let failed = fails_after(|r| set(r, "bagged", KernelEvals, 7));
        assert_eq!(
            failed,
            vec!["bagged work stays within B x one bag's bound, no n term"]
        );
    }

    #[test]
    fn bagged_memory_gate_catches_all_bags_held_alive() {
        // Keeping all 10 bags' data live (or anything O(n)-sized) blows
        // through the 8-worker × 199,936-byte = 1,599,488 ceiling.
        let failed = fails_after(|r| {
            strategy(r, "bagged")
                .bagged
                .as_mut()
                .unwrap()
                .host_bytes_peak = 100_000_000
        });
        assert_eq!(
            failed,
            vec!["bagged peak memory stays within workers x one bag's footprint"]
        );
    }

    #[test]
    fn bagged_gates_refuse_zero_counts() {
        // A report whose bagged entry never ran (no queries, no peak) must
        // not pass by vacuity, nor one that lost its bag dimensions.
        let expected = vec![
            "bagged work stays within B x one bag's bound, no n term",
            "bagged peak memory stays within workers x one bag's footprint",
        ];
        let failed = fails_after(|r| {
            set(r, "bagged", WindowQueries, 0);
            strategy(r, "bagged")
                .bagged
                .as_mut()
                .unwrap()
                .host_bytes_peak = 0;
        });
        assert_eq!(failed, expected);
        assert_eq!(
            fails_after(|r| strategy(r, "bagged").bagged = None),
            expected
        );
    }

    #[test]
    fn version_gate_catches_a_stale_writer() {
        let report = fixture();
        let stale = report.to_json().replacen(
            &format!("{{\"version\":{REPORT_VERSION},"),
            &format!("{{\"version\":{},", REPORT_VERSION - 1),
            1,
        );
        let gates = evaluate_gates(&report, &stale, true);
        assert_eq!(
            fails(&gates),
            vec!["report schema version matches the gate's"]
        );
    }

    #[test]
    fn multi_kernel_eval_gate_catches_a_product_evaluating_engine() {
        let failed = fails_after(|r| set(r, "multi-fast", KernelEvals, 7));
        assert_eq!(failed, vec!["multi-fast never evaluates the kernel"]);
    }

    #[test]
    fn multi_window_gate_catches_a_per_neighbour_product_scan() {
        // One over the g·n·d·ceil(log2 n) = 100·2,000·2·11 = 4,400,000
        // ceiling: queries charged per neighbour, not per cell.
        let failed = fails_after(|r| set(r, "multi-fast", WindowQueries, 4_400_001));
        assert_eq!(
            failed,
            vec!["multi-fast window queries stay within g*n*d*ceil(log2 n)"]
        );
    }

    #[test]
    fn multi_speedup_gate_catches_a_slow_fast_path() {
        // Ratio 1.5/1.0 = 1.5× is far under the required 10×.
        let failed = fails_after(|r| strategy(r, "multi-fast").wall_seconds = 1.0);
        assert_eq!(
            failed,
            vec!["multi-fast beats multi-naive >= 10x on the identical optimum"]
        );
    }

    #[test]
    fn multi_speedup_gate_catches_a_bandwidth_vector_mismatch() {
        // Any componentwise drift between the two vectors must fail, even
        // when the scalar dimension-1 `bandwidth` fields still agree.
        let failed = fails_after(|r| {
            strategy(r, "multi-naive")
                .multi
                .as_mut()
                .unwrap()
                .bandwidths[1] = 0.26
        });
        assert_eq!(
            failed,
            vec!["multi-fast beats multi-naive >= 10x on the identical optimum"]
        );
    }

    #[test]
    fn multi_speedup_gate_skips_below_two_thousand() {
        let mut report = fixture();
        report.config.n = 1_000;
        let gates = gates(&report);
        let gate = gates.iter().find(|g| g.name.contains(">= 10x")).unwrap();
        assert_eq!(gate.ok, None);
    }

    #[test]
    fn multi_gates_refuse_zero_counts() {
        // A report whose multi-fast entry never ran (no sweeps, no
        // queries) must not pass by vacuity.
        let failed = fails_after(|r| {
            set(r, "multi-fast", DimSweeps, 0);
            set(r, "multi-fast", WindowQueries, 0);
        });
        assert_eq!(
            failed,
            vec![
                "multi-fast never evaluates the kernel",
                "multi-fast window queries stay within g*n*d*ceil(log2 n)"
            ]
        );
    }

    #[test]
    fn streaming_gate_catches_a_missing_object() {
        // A writer that stops measuring the replay must fail gate 13
        // explicitly, not let gates 14–15 pass by absence.
        let failed = fails_after(|r| r.streaming = None);
        assert_eq!(
            failed,
            vec!["report carries the schema-v6 streaming object"]
        );
    }

    #[test]
    fn streaming_update_gate_catches_a_kernel_evaluating_replay() {
        let failed = fails_after(|r| r.streaming.as_mut().unwrap().kernel_evals = 7);
        assert_eq!(
            failed,
            vec!["streaming replay: zero kernel evals, table rows within the update budget"]
        );
    }

    #[test]
    fn streaming_update_gate_catches_an_over_budget_tree() {
        // One table pass per arrival (or per-moment counting) lands far
        // above the (ins+rem)·ceil(log2 W)·(deg+3) = 157,500 ceiling.
        let failed = fails_after(|r| r.streaming.as_mut().unwrap().tree_updates = 1_000_000);
        assert_eq!(
            failed,
            vec!["streaming replay: zero kernel evals, table rows within the update budget"]
        );
    }

    #[test]
    fn streaming_speedup_gate_catches_a_slow_replay() {
        // Ratio 0.42/0.2 = 2.1× is far under the required 10×.
        let failed = fails_after(|r| r.streaming.as_mut().unwrap().wall_seconds = 0.2);
        assert_eq!(
            failed,
            vec!["streaming replay beats per-arrival recompute >= 10x, identical bandwidth"]
        );
    }

    #[test]
    fn streaming_speedup_gate_catches_a_bandwidth_divergence() {
        let failed = fails_after(|r| r.streaming.as_mut().unwrap().recompute_bandwidth = 0.053);
        assert_eq!(
            failed,
            vec!["streaming replay beats per-arrival recompute >= 10x, identical bandwidth"]
        );
    }

    #[test]
    fn serving_gate_catches_a_missing_object() {
        // A writer that stops measuring the sharded service must fail gate
        // 16 explicitly, not let gates 17–18 pass by absence.
        let failed = fails_after(|r| r.serving = None);
        assert_eq!(failed, vec!["report carries the schema-v7 serving object"]);
    }

    #[test]
    fn serving_gate_catches_a_kernel_evaluating_service() {
        let failed = fails_after(|r| r.serving.as_mut().unwrap().kernel_evals = 7);
        assert_eq!(
            failed,
            vec!["serving: zero kernel evals service-wide, bursts coalesced"]
        );
    }

    #[test]
    fn serving_gate_refuses_an_uncoalesced_run() {
        // A worker that re-selects per arrival never merges a burst:
        // coalesced_arrivals == 0 must not pass by vacuity.
        let failed = fails_after(|r| r.serving.as_mut().unwrap().coalesced_arrivals = 0);
        assert_eq!(
            failed,
            vec!["serving: zero kernel evals service-wide, bursts coalesced"]
        );
    }

    #[test]
    fn serving_speedup_gate_catches_a_slow_service() {
        // Ratio 0.84/0.5 = 1.7× is far under the required 4×.
        let failed = fails_after(|r| r.serving.as_mut().unwrap().wall_seconds = 0.5);
        assert_eq!(
            failed,
            vec!["sharded service beats the global lock >= 4x at identical bandwidths"]
        );
    }

    #[test]
    fn serving_speedup_gate_catches_a_bandwidth_divergence() {
        // Conflation must not change any stream's final selection: one
        // component drifting in the baseline's array fails the identity.
        let failed = fails_after(|r| r.serving.as_mut().unwrap().lock_final_bandwidths[1] = 0.054);
        assert_eq!(
            failed,
            vec!["sharded service beats the global lock >= 4x at identical bandwidths"]
        );
    }

    #[test]
    fn identity_gates_compare_bits_not_rounded_decimals() {
        // A value and its successor float print identically at 12 decimals
        // but differ in the last bit: each bit-identity gate must catch a
        // one-ulp drift the report's decimals hide.
        fn next(v: &mut f64) {
            *v = f64::from_bits(v.to_bits() + 1);
        }
        fn check(gate: &str, mutate: fn(&mut PerfReport)) {
            let mut report = fixture();
            mutate(&mut report);
            assert_eq!(
                report.to_json(),
                fixture().to_json(),
                "{gate}: decimals differ"
            );
            assert_eq!(fails(&gates(&report)), vec![gate]);
        }
        check(
            "prefix strategies select the sorted sweep's bandwidth",
            |r| next(&mut strategy(r, "prefix").bandwidth),
        );
        check(
            "streaming replay beats per-arrival recompute >= 10x, identical bandwidth",
            |r| next(&mut r.streaming.as_mut().unwrap().recompute_bandwidth),
        );
        check(
            "sharded service beats the global lock >= 4x at identical bandwidths",
            |r| next(&mut r.serving.as_mut().unwrap().lock_final_bandwidths[0]),
        );
        check(
            "multi-fast beats multi-naive >= 10x on the identical optimum",
            |r| next(&mut strategy(r, "multi-fast").multi.as_mut().unwrap().bandwidths[1]),
        );
    }

    #[test]
    fn serving_speedup_gate_skips_below_two_thousand() {
        let mut report = fixture();
        report.config.n = 1_000;
        let gates = gates(&report);
        let gate = gates.iter().find(|g| g.name.contains(">= 4x")).unwrap();
        assert_eq!(gate.ok, None);
        assert_eq!(fails(&gates), Vec::<&str>::new());
    }

    #[test]
    fn disabled_metrics_fail_the_gate() {
        let report = fixture();
        let gates = evaluate_gates(&report, &report.to_json(), false);
        assert_eq!(gates.len(), 1);
        assert_eq!(gates[0].ok, Some(false));
    }

    #[test]
    fn missing_strategy_entries_fail_the_gate() {
        let mut report = fixture();
        report.strategies.retain(|s| s.name != "prefix");
        let gates = gates(&report);
        assert_eq!(gates.len(), 1);
        assert_eq!(gates[0].ok, Some(false));
    }
}
