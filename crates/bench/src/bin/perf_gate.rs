//! Counter-based performance gate over `results/BENCH_report.json`.
//!
//! Collects a fresh per-strategy report at a small fixed `(n, k)` point,
//! writes it to the report path, then re-reads the file ONCE and asserts the
//! engines' complexity contracts from the JSON itself, as a single named
//! gate table:
//!
//! 1. `prefix` answers every (obs, bandwidth) cell with one window query —
//!    a monotone cursor step, seeded by bisection at each fold chunk's
//!    first observation — counted once per cell, so the count is `n · k`,
//!    well inside the `n · k · ceil(log2 n)` bound (a per-neighbour scan
//!    has no business here);
//! 2. `prefix` and `prefix-par` evaluate the kernel **zero** times — every
//!    score comes from prefix-sum differencing, never a neighbour visit;
//! 3. `prefix` actually ran its window machinery (queries > 0);
//! 4. `prefix` and `prefix-par` select the same bandwidth as the sorted
//!    sweep;
//! 5. `gpu-windowed` device-memory peak stays `O(n)` — hard ceiling
//!    `16 · n · (deg + 2)` bytes (64n at the default quadratic kernel).
//!    The classic pipeline's two `n×n` matrices sit at `8n²` and blow
//!    through this ceiling by the hundreds at gate scale, so any regression
//!    that sneaks a dense matrix back into the windowed program fails loud;
//! 6. `gpu-windowed` simulated memory transactions stay
//!    `O(k · log n)` per observation — ceiling
//!    `n · k · (2·ceil(log2 n) + 24·(deg + 1))`: two binary searches plus a
//!    constant number of prefix-table touches per cell. A per-neighbour
//!    scan (the classic running-sum loop) is `Θ(n)` per cell and fails.
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
//! 9. the report's schema version is exactly [`REPORT_VERSION`] — the
//!    multivariate gates below read the v5 `multi` object, so a stale
//!    writer must fail here, not half-pass on missing fields;
//! 10. `multi-fast` evaluates the kernel **zero** times while its
//!     dimension sweeps actually ran (`dim_sweeps > 0`) — every product
//!     weight comes from prefix-moment differencing over the per-dimension
//!     Fenwick/prefix tables, never a neighbour visit;
//! 11. `multi-fast` window queries stay within
//!     `grid_points · n · d · ceil(log2 n)` — the d-per-cell binary-search
//!     budget; a per-neighbour product scan is `Θ(n)` per cell and fails;
//! 12. at `n ≥ 2,000` `multi-fast` beats `multi-naive` by ≥ 10× wall time
//!     while selecting the bit-identical bandwidth **vector** (the
//!     `to_bits` hex arrays `bandwidths_bits` compare equal);
//! 13. the schema-v6 top-level `streaming` object is present — the two
//!     replay gates below read it, so a writer that stops measuring the
//!     streaming engine must fail here, not pass by absence;
//! 14. the streaming replay never evaluates the kernel and the moment-table
//!     rows its re-selections write (the `tree_updates` counter, one per
//!     key-pool slot per re-selection) stay within `(inserts + removes) ·
//!     ceil(log2 W) · (deg + 3)` — every re-selection is answered from one
//!     compensated prefix pass over the key pool, never a neighbour visit,
//!     and re-selecting on (nearly) every arrival would exceed the budget;
//! 15. the streaming replay beats the per-arrival recompute-from-scratch
//!     policy by ≥ 10× wall time while selecting the identical bandwidth
//!     on the final window (the `to_bits` hex values compare equal);
//! 16. the schema-v7 top-level `serving` object is present — the two
//!     service gates below read it, so a writer that stops measuring the
//!     sharded service must fail here, not pass by absence;
//! 17. the sharded service answers every stream from the incremental
//!     engine — **zero** kernel evaluations service-wide — while its
//!     workers actually drained requests and coalesced bursts
//!     (`requests_served > 0`, `coalesced_arrivals > 0`): a service that
//!     quietly re-selects per arrival (nothing to coalesce) or recomputes
//!     profiles from scratch (kernel evals) fails;
//! 18. at `n ≥ 2,000` the sharded service beats the single-global-lock
//!     baseline by ≥ 4× wall time on the identical per-stream traffic
//!     while the per-stream `to_bits` hex arrays (`final_bandwidths_bits`)
//!     compare equal — the conflated re-selections must cost throughput
//!     nothing in selection quality.
//!
//! Exits non-zero if any gate fails, printing each gate's verdict and then
//! naming the failures, so `make verify` and CI fail if a regression
//! reintroduces per-observation sorting or per-neighbour scanning. Requires
//! a `--features metrics` build (the gate refuses to pass on a report with
//! counters disabled).
//!
//! Usage: `cargo run -p kcv-bench --features metrics --bin perf_gate --
//! [--n N] [--k K] [--out results/BENCH_report.json]`

use kcv_bench::json::{array_field, f64_field, str_field, strategy_slice, u64_field};
use kcv_bench::report::{collect_report, ReportConfig, REPORT_VERSION};
use kcv_bench::table::{arg_parse, arg_value};
use kcv_core::select::bagged::bag_footprint_bound_bytes;
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
        Gate { name, ok: Some(ok), detail }
    }

    fn skip(name: &'static str, detail: String) -> Gate {
        Gate { name, ok: None, detail }
    }
}

/// Evaluates every gate against a report JSON string measured at `(n, k)`.
/// Pure over its inputs so the table is unit-testable without a metrics
/// build or a filesystem.
fn evaluate_gates(json: &str, n: usize, k: usize) -> Vec<Gate> {
    let mut gates = Vec::new();
    if !json.contains("\"metrics_enabled\":true") {
        gates.push(Gate::pass_if(
            "metrics enabled in report",
            false,
            "counters disabled; run with `cargo run -p kcv-bench --features metrics \
             --bin perf_gate`"
                .into(),
        ));
        return gates;
    }

    let (sorted, prefix, prefix_par, windowed, bagged, multi_naive, multi_fast) =
        match (
            strategy_slice(json, "sorted"),
            strategy_slice(json, "prefix"),
            strategy_slice(json, "prefix-par"),
            strategy_slice(json, "gpu-windowed"),
            strategy_slice(json, "bagged"),
            strategy_slice(json, "multi-naive"),
            strategy_slice(json, "multi-fast"),
        ) {
            (Some(s), Some(p), Some(pp), Some(w), Some(b), Some(mn), Some(mf)) => {
                (s, p, pp, w, b, mn, mf)
            }
            _ => {
                gates.push(Gate::pass_if(
                    "report lists sorted/prefix/prefix-par/gpu-windowed/bagged/\
                     multi-naive/multi-fast strategies",
                    false,
                    "at least one strategy entry is missing from the report".into(),
                ));
                return gates;
            }
        };
    gates.push(Gate::pass_if(
        "report schema version matches the gate's",
        u64_field(json, "version") == Some(u64::from(REPORT_VERSION)),
        format!("{:?} == Some({REPORT_VERSION})", u64_field(json, "version")),
    ));
    let field = |slice: &str, key: &str| u64_field(slice, key).unwrap_or(0);
    let log2n = (n as f64).log2().ceil() as u64;

    let sb = f64_field(sorted, "bandwidth");

    // --- prefix-moment contract -----------------------------------------
    let query_ceiling = (n * k) as u64 * log2n;
    let prefix_queries = field(prefix, "window_queries");
    gates.push(Gate::pass_if(
        "prefix window queries stay within n*k*ceil(log2 n)",
        prefix_queries <= query_ceiling,
        format!("{prefix_queries} <= {query_ceiling}"),
    ));

    let (pe, ppe) = (field(prefix, "kernel_evals"), field(prefix_par, "kernel_evals"));
    gates.push(Gate::pass_if(
        "prefix sweeps never evaluate the kernel",
        pe == 0 && ppe == 0,
        format!("prefix {pe} == 0, prefix-par {ppe} == 0"),
    ));

    gates.push(Gate::pass_if(
        "prefix window machinery actually ran",
        prefix_queries > 0,
        format!("{prefix_queries} > 0"),
    ));

    let pb = f64_field(prefix, "bandwidth");
    let ppb = f64_field(prefix_par, "bandwidth");
    gates.push(Gate::pass_if(
        "prefix strategies select the sorted sweep's bandwidth",
        sb.is_some() && pb == sb && ppb == sb,
        format!("prefix {pb:?}, prefix-par {ppb:?} == sorted {sb:?}"),
    ));

    // --- windowed GPU memory contract ------------------------------------
    // The default config runs the quadratic Epanechnikov kernel, so
    // deg = 2: peak ceiling 16·n·(deg+2) = 64n bytes, and the per-cell
    // traffic budget is 2·ceil(log2 n) probe reads + 24·(deg+1) table /
    // assembly transactions. Both ceilings deliberately carry NO n² term:
    // the classic pipeline's 8n² residual matrices cannot hide under them.
    let deg = 2u64;
    let peak_ceiling = 16 * n as u64 * (deg + 2);
    let windowed_peak = field(windowed, "device_bytes_peak");
    gates.push(Gate::pass_if(
        "windowed peak device bytes stay O(n), no n^2 term",
        windowed_peak > 0 && windowed_peak <= peak_ceiling,
        format!("0 < {windowed_peak} <= 16*n*(deg+2) = {peak_ceiling}"),
    ));

    let txn_ceiling = (n * k) as u64 * (2 * log2n + 24 * (deg + 1));
    let windowed_txns = field(windowed, "mem_transactions");
    gates.push(Gate::pass_if(
        "windowed mem transactions stay O(k log n) per observation",
        windowed_txns > 0 && windowed_txns <= txn_ceiling,
        format!("0 < {windowed_txns} <= n*k*(2*ceil(log2 n) + 24*(deg+1)) = {txn_ceiling}"),
    ));

    // --- bagged contracts ------------------------------------------------
    // Both ceilings are functions of (bags, bag_size, k, workers) read
    // from the report itself — deliberately independent of n, which is
    // the bagged selector's entire value proposition.
    let bags = field(bagged, "bags");
    let bag_size = field(bagged, "bag_size");
    let work_ceiling = bags * bag_size * k as u64;
    let bagged_queries = field(bagged, "window_queries");
    let bagged_evals = field(bagged, "kernel_evals");
    gates.push(Gate::pass_if(
        "bagged work stays within B x one bag's bound, no n term",
        bags > 0
            && bag_size > 0
            && bagged_evals == 0
            && bagged_queries > 0
            && bagged_queries <= work_ceiling,
        format!(
            "0 < {bagged_queries} <= B*r*k = {work_ceiling}, kernel_evals {bagged_evals} == 0"
        ),
    ));

    let workers = field(bagged, "workers");
    let bagged_peak = field(bagged, "host_bytes_peak");
    let mem_ceiling = workers * bag_footprint_bound_bytes(bag_size as usize, k);
    gates.push(Gate::pass_if(
        "bagged peak memory stays within workers x one bag's footprint",
        workers > 0 && bagged_peak > 0 && bagged_peak <= mem_ceiling,
        format!("0 < {bagged_peak} <= workers({workers}) * bag_bound = {mem_ceiling}"),
    ));

    // --- multivariate fast-sum-updating contracts -------------------------
    // The d = 2 full-grid selector: every product weight must come from
    // the dimension-recursive prefix-moment tables, never a kernel call.
    let mf_evals = field(multi_fast, "kernel_evals");
    let mf_sweeps = field(multi_fast, "dim_sweeps");
    gates.push(Gate::pass_if(
        "multi-fast never evaluates the kernel",
        mf_evals == 0 && mf_sweeps > 0,
        format!("kernel_evals {mf_evals} == 0, dim_sweeps {mf_sweeps} > 0"),
    ));

    let dims = field(multi_fast, "dims");
    let grid_points = field(multi_fast, "grid_points");
    let mf_queries = field(multi_fast, "window_queries");
    let mf_ceiling = grid_points * n as u64 * dims * log2n;
    gates.push(Gate::pass_if(
        "multi-fast window queries stay within g*n*d*ceil(log2 n)",
        dims > 0 && grid_points > 0 && mf_queries > 0 && mf_queries <= mf_ceiling,
        format!(
            "0 < {mf_queries} <= g({grid_points})*n*d({dims})*ceil(log2 n) = {mf_ceiling}"
        ),
    ));

    let nv_bw = array_field(multi_naive, "bandwidths_bits");
    let mf_bw = array_field(multi_fast, "bandwidths_bits");
    if n >= 2_000 {
        let ratio = match (
            f64_field(multi_naive, "wall_seconds"),
            f64_field(multi_fast, "wall_seconds"),
        ) {
            (Some(nw), Some(fw)) if fw > 0.0 => nw / fw,
            _ => 0.0,
        };
        gates.push(Gate::pass_if(
            "multi-fast beats multi-naive >= 10x on the identical optimum",
            ratio >= 10.0 && nv_bw.is_some() && nv_bw == mf_bw,
            format!("wall ratio {ratio:.1} >= 10, bandwidths {nv_bw:?} == {mf_bw:?}"),
        ));
    } else {
        gates.push(Gate::skip(
            "multi-fast beats multi-naive >= 10x on the identical optimum",
            format!("ratio asserted only at n >= 2,000 (n = {n})"),
        ));
    }

    // --- streaming incremental-engine contracts ---------------------------
    // The replay measurements live in the schema-v6 top-level `streaming`
    // object. Since v7 it is no longer the report's final entry — the
    // `serving` object follows it and shares field names (`window`,
    // `cadence`, `reselects`, `kernel_evals`, `wall_seconds`), so the
    // slice must stop at the `serving` key, not the end of the document.
    let streaming = match json.find("\"streaming\":{") {
        Some(i) => {
            let end = json[i..].find("\"serving\":").map_or(json.len(), |j| i + j);
            &json[i..end]
        }
        None => {
            gates.push(Gate::pass_if(
                "report carries the schema-v6 streaming object",
                false,
                "no streaming object in the report".into(),
            ));
            return gates;
        }
    };
    gates.push(Gate::pass_if(
        "report carries the schema-v6 streaming object",
        true,
        "streaming replay measured".into(),
    ));

    let st = |key: &str| u64_field(streaming, key).unwrap_or(0);
    let window = st("window");
    let updates = st("tree_updates");
    let st_evals = st("kernel_evals");
    let reselects = st("reselects");
    let log2w = (window.max(2) as f64).log2().ceil() as u64;
    let update_ceiling = (st("inserts") + st("removes")) * log2w * (deg + 3);
    gates.push(Gate::pass_if(
        "streaming replay: zero kernel evals, table rows within the update budget",
        st_evals == 0 && reselects > 0 && updates > 0 && updates <= update_ceiling,
        format!(
            "kernel_evals {st_evals} == 0, reselects {reselects} > 0, \
             0 < tree_updates {updates} <= (ins+rem)*ceil(log2 W)*(deg+3) = {update_ceiling}"
        ),
    ));

    let st_wall = f64_field(streaming, "wall_seconds").unwrap_or(f64::NAN);
    let st_recompute = f64_field(streaming, "recompute_wall_seconds").unwrap_or(f64::NAN);
    let st_ratio = st_recompute / st_wall;
    let fb = str_field(streaming, "final_bandwidth_bits");
    let rb = str_field(streaming, "recompute_bandwidth_bits");
    gates.push(Gate::pass_if(
        "streaming replay beats per-arrival recompute >= 10x, identical bandwidth",
        st_ratio >= 10.0 && fb.is_some() && fb == rb,
        format!("wall ratio {st_ratio:.1} >= 10, final {fb:?} == recompute {rb:?}"),
    ));

    // --- sharded serving contracts ---------------------------------------
    // The service measurements live in the schema-v7 top-level `serving`
    // object, the report's final entry.
    let serving = match json.find("\"serving\":{") {
        Some(i) => &json[i..],
        None => {
            gates.push(Gate::pass_if(
                "report carries the schema-v7 serving object",
                false,
                "no serving object in the report".into(),
            ));
            return gates;
        }
    };
    gates.push(Gate::pass_if(
        "report carries the schema-v7 serving object",
        true,
        "sharded service measured".into(),
    ));

    let sv = |key: &str| u64_field(serving, key).unwrap_or(0);
    let sv_evals = sv("kernel_evals");
    let sv_served = sv("requests_served");
    let sv_coalesced = sv("coalesced_arrivals");
    gates.push(Gate::pass_if(
        "serving: zero kernel evals service-wide, bursts coalesced",
        sv_evals == 0 && sv_served > 0 && sv_coalesced > 0,
        format!(
            "kernel_evals {sv_evals} == 0, requests_served {sv_served} > 0, \
             coalesced_arrivals {sv_coalesced} > 0"
        ),
    ));

    let sv_bw = array_field(serving, "final_bandwidths_bits");
    let lk_bw = array_field(serving, "lock_final_bandwidths_bits");
    if n >= 2_000 {
        let sv_ratio = match (
            f64_field(serving, "lock_wall_seconds"),
            f64_field(serving, "wall_seconds"),
        ) {
            (Some(lw), Some(sw)) if sw > 0.0 => lw / sw,
            _ => 0.0,
        };
        gates.push(Gate::pass_if(
            "sharded service beats the global lock >= 4x at identical bandwidths",
            sv_ratio >= 4.0 && sv_bw.is_some() && sv_bw == lk_bw,
            format!("wall ratio {sv_ratio:.1} >= 4, bandwidths {sv_bw:?} == {lk_bw:?}"),
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
    let path = Path::new(&out);
    if let Some(dir) = path.parent() {
        if std::fs::create_dir_all(dir).is_err() {
            eprintln!("perf gate: cannot create {}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if std::fs::write(path, report.to_json()).is_err() {
        eprintln!("perf gate: cannot write {}", path.display());
        return ExitCode::FAILURE;
    }
    // Assert from the file, not the in-memory report: the gate's contract is
    // over what downstream tooling will actually read. One read serves every
    // gate.
    let json = match std::fs::read_to_string(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perf gate: cannot read back {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };

    let gates = evaluate_gates(&json, n, k);
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
        println!("perf gate: all invariants hold (n = {n}, k = {k}, report: {})", path.display());
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

    const SAMPLE: &str = "{\"version\":9,\"metrics_enabled\":true,\"strategies\":[\
        {\"name\":\"sorted\",\"bandwidth\":0.125000,\"obs\":{\"counters\":{\
        \"kernel_evals\":90,\"sort_comparisons\":400000}}},\
        {\"name\":\"prefix\",\"bandwidth\":0.125000,\"obs\":{\"counters\":{\
        \"kernel_evals\":0,\"window_queries\":200000}}},\
        {\"name\":\"prefix-par\",\"bandwidth\":0.125000,\"obs\":{\"counters\":{\
        \"kernel_evals\":0,\"window_queries\":200000}}},\
        {\"name\":\"gpu-windowed\",\"bandwidth\":0.125000,\
        \"device_bytes_peak\":58048,\"obs\":{\"counters\":{\
        \"window_queries\":200000,\"mem_transactions\":5600000}}},\
        {\"name\":\"bagged\",\"bandwidth\":0.120000,\
        \"bagged\":{\"bags\":10,\"bag_size\":500,\"combiner\":\"mean\",\
        \"workers\":8,\"host_bytes_peak\":900000},\"obs\":{\"counters\":{\
        \"kernel_evals\":0,\"window_queries\":500000,\"bags_run\":10}}},\
        {\"name\":\"multi-naive\",\"bandwidth\":0.125000,\
        \"wall_seconds\":1.500000000,\"multi\":{\"dims\":2,\"grid_points\":100,\
        \"bandwidths\":[0.125000,0.250000],\
        \"bandwidths_bits\":[\"3fc0000000000000\",\"3fd0000000000000\"]},\
        \"obs\":{\"counters\":{\"kernel_evals\":790000000,\"window_queries\":0}}},\
        {\"name\":\"multi-fast\",\"bandwidth\":0.125000,\
        \"wall_seconds\":0.050000000,\"multi\":{\"dims\":2,\"grid_points\":100,\
        \"bandwidths\":[0.125000,0.250000],\
        \"bandwidths_bits\":[\"3fc0000000000000\",\"3fd0000000000000\"]},\
        \"obs\":{\"counters\":{\"kernel_evals\":0,\"dim_sweeps\":200,\"window_queries\":400000}}}],\
        \"streaming\":{\"arrivals\":2000,\"window\":500,\"cadence\":64,\
        \"inserts\":2000,\"removes\":1500,\"reselects\":32,\
        \"tree_updates\":104000,\"kernel_evals\":0,\
        \"final_bandwidth\":0.052341000000,\"final_bandwidth_bits\":\"3faacc70867ad8e4\",\
        \"recompute_bandwidth\":0.052341000000,\
        \"recompute_bandwidth_bits\":\"3faacc70867ad8e4\",\
        \"wall_seconds\":0.011000000,\"recompute_wall_seconds\":0.420000000},\
        \"serving\":{\"streams\":8,\"arrivals_per_stream\":2000,\"shards\":4,\
        \"window\":256,\"cadence\":50,\"requests_served\":16008,\
        \"coalesced_arrivals\":15200,\"queue_high_water\":812,\
        \"shed_requests\":0,\"reselects\":24,\"lock_reselects\":328,\
        \"kernel_evals\":0,\"wall_seconds\":0.081000000,\
        \"lock_wall_seconds\":0.840000000,\
        \"final_bandwidths\":[0.052000000000,0.053000000000],\
        \"final_bandwidths_bits\":[\"3faa9fbe76c8b439\",\"3fab22d0e5604189\"],\
        \"lock_final_bandwidths\":[0.052000000000,0.053000000000],\
        \"lock_final_bandwidths_bits\":[\"3faa9fbe76c8b439\",\"3fab22d0e5604189\"]}}";

    #[test]
    fn strategy_slice_isolates_one_entry() {
        let sorted = strategy_slice(SAMPLE, "sorted").unwrap();
        assert!(sorted.contains("\"sort_comparisons\":400000"));
        assert!(!sorted.contains("\"window_queries\""));
        let prefix = strategy_slice(SAMPLE, "prefix").unwrap();
        assert_eq!(u64_field(prefix, "window_queries"), Some(200_000));
        assert!(strategy_slice(SAMPLE, "gpu-sim").is_none());
    }

    #[test]
    fn strategy_slice_distinguishes_prefix_from_prefix_par() {
        // The needle carries the closing quote, so "prefix" cannot match the
        // "prefix-par" entry; emission order makes the plain entry first.
        let prefix = strategy_slice(SAMPLE, "prefix").unwrap();
        assert!(prefix.contains("\"window_queries\":200000"));
        assert!(!prefix.contains("prefix-par"));
        assert!(strategy_slice(SAMPLE, "prefix-par").is_some());
    }

    #[test]
    fn field_parsers_read_numbers() {
        let sorted = strategy_slice(SAMPLE, "sorted").unwrap();
        assert_eq!(u64_field(sorted, "kernel_evals"), Some(90));
        assert_eq!(f64_field(sorted, "bandwidth"), Some(0.125));
        assert_eq!(u64_field(sorted, "missing"), None);
    }

    #[test]
    fn all_gates_pass_on_a_conforming_report() {
        // n = 2,000, k = 100: ceil(log2 2000) = 11, so the window-query
        // ceiling is 2,200,000, the windowed peak ceiling 128,000 bytes and
        // the transaction ceiling 18,800,000.
        // Bagged (B = 10, r = 500): work ceiling 500,000 queries; memory
        // ceiling 8 × (256·500 + 64·100 + 65,536) = 1,599,488 bytes.
        // Multi-fast (g = 100, d = 2): query ceiling 100·2,000·2·11 =
        // 4,400,000; wall ratio 1.5/0.05 = 30×. Streaming (W = 500):
        // update ceiling (2,000 + 1,500)·9·5 = 157,500; wall ratio
        // 0.42/0.011 = 38×. Serving: wall ratio 0.84/0.081 = 10.4×,
        // identical bandwidth arrays.
        let gates = evaluate_gates(SAMPLE, 2_000, 100);
        assert_eq!(gates.len(), 18);
        assert!(gates.iter().all(|g| g.ok == Some(true)), "{:?}", fails(&gates));
    }

    #[test]
    fn kernel_eval_gate_catches_a_scanning_prefix() {
        let bad = SAMPLE.replace(
            "{\"name\":\"prefix\",\"bandwidth\":0.125000,\"obs\":{\"counters\":{\
             \"kernel_evals\":0",
            "{\"name\":\"prefix\",\"bandwidth\":0.125000,\"obs\":{\"counters\":{\
             \"kernel_evals\":7",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["prefix sweeps never evaluate the kernel"]);
    }

    #[test]
    fn window_query_gate_catches_a_per_probe_count() {
        // A count above n·k·ceil(log2 n) means queries are being charged per
        // binary-search probe (or per neighbour), not per cell.
        let bad = SAMPLE.replace("\"window_queries\":200000", "\"window_queries\":2200001");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert!(fails(&gates)
            .contains(&"prefix window queries stay within n*k*ceil(log2 n)"));
    }

    #[test]
    fn bandwidth_gate_catches_a_prefix_disagreement() {
        let bad = SAMPLE.replacen(
            "{\"name\":\"prefix\",\"bandwidth\":0.125000",
            "{\"name\":\"prefix\",\"bandwidth\":0.250000",
            1,
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["prefix strategies select the sorted sweep's bandwidth"]);
    }

    #[test]
    fn windowed_peak_gate_catches_a_dense_matrix_allocation() {
        // 8n² bytes at n = 2,000 is 32 MB — a windowed program that quietly
        // reallocated the classic n×n residual matrices lands here, five
        // hundred times over the 64n = 128,000-byte ceiling.
        let bad = SAMPLE.replace("\"device_bytes_peak\":58048", "\"device_bytes_peak\":32000000");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["windowed peak device bytes stay O(n), no n^2 term"]);
    }

    #[test]
    fn windowed_traffic_gate_catches_a_per_neighbour_scan() {
        // A per-neighbour running-sum loop reads Θ(n) cells per (obs, h)
        // pair: n·k·n = 4·10⁸ transactions at gate scale, far above the
        // n·k·(2·ceil(log2 n) + 72) = 18,800,000 ceiling.
        let bad = SAMPLE.replace("\"mem_transactions\":5600000", "\"mem_transactions\":400000000");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["windowed mem transactions stay O(k log n) per observation"]
        );
    }

    #[test]
    fn windowed_gates_refuse_zero_counts() {
        // A report produced without actually running the windowed program
        // (peak 0, no traffic) must not pass by vacuity.
        let bad = SAMPLE
            .replace("\"device_bytes_peak\":58048", "\"device_bytes_peak\":0")
            .replace("\"mem_transactions\":5600000", "\"mem_transactions\":0");
        let gates = evaluate_gates(&bad, 2_000, 100);
        let failed = fails(&gates);
        assert!(failed.contains(&"windowed peak device bytes stay O(n), no n^2 term"));
        assert!(failed.contains(&"windowed mem transactions stay O(k log n) per observation"));
    }

    #[test]
    fn bagged_work_gate_catches_a_full_sample_sweep() {
        // A bagged run that sweeps all n observations per bag does
        // B·n·k = 10·2,000·100 = 2,000,000 queries, four times the
        // B·r·k = 500,000 ceiling.
        let bad = SAMPLE.replace("\"window_queries\":500000", "\"window_queries\":2000000");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["bagged work stays within B x one bag's bound, no n term"]);
    }

    #[test]
    fn bagged_work_gate_catches_a_kernel_evaluating_engine() {
        let bad = SAMPLE.replace(
            "\"kernel_evals\":0,\"window_queries\":500000",
            "\"kernel_evals\":7,\"window_queries\":500000",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["bagged work stays within B x one bag's bound, no n term"]);
    }

    #[test]
    fn bagged_memory_gate_catches_all_bags_held_alive() {
        // Keeping all 10 bags' data live (or anything O(n)-sized) blows
        // through the 8-worker × 199,936-byte = 1,599,488 ceiling.
        let bad = SAMPLE.replace("\"host_bytes_peak\":900000", "\"host_bytes_peak\":100000000");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["bagged peak memory stays within workers x one bag's footprint"]
        );
    }

    #[test]
    fn bagged_gates_refuse_zero_counts() {
        // A report whose bagged entry never ran (no queries, no peak) must
        // not pass by vacuity.
        let bad = SAMPLE
            .replace("\"window_queries\":500000", "\"window_queries\":0")
            .replace("\"host_bytes_peak\":900000", "\"host_bytes_peak\":0");
        let gates = evaluate_gates(&bad, 2_000, 100);
        let failed = fails(&gates);
        assert!(failed.contains(&"bagged work stays within B x one bag's bound, no n term"));
        assert!(failed.contains(&"bagged peak memory stays within workers x one bag's footprint"));
    }

    #[test]
    fn version_gate_catches_a_stale_writer() {
        let bad = SAMPLE.replace("\"version\":9", "\"version\":8");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["report schema version matches the gate's"]);
    }

    #[test]
    fn multi_kernel_eval_gate_catches_a_product_evaluating_engine() {
        let bad = SAMPLE.replace(
            "\"kernel_evals\":0,\"dim_sweeps\":200",
            "\"kernel_evals\":7,\"dim_sweeps\":200",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["multi-fast never evaluates the kernel"]);
    }

    #[test]
    fn multi_window_gate_catches_a_per_neighbour_product_scan() {
        // One over the g·n·d·ceil(log2 n) = 100·2,000·2·11 = 4,400,000
        // ceiling: queries charged per neighbour, not per cell.
        let bad = SAMPLE.replace("\"window_queries\":400000", "\"window_queries\":4400001");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["multi-fast window queries stay within g*n*d*ceil(log2 n)"]
        );
    }

    #[test]
    fn multi_speedup_gate_catches_a_slow_fast_path() {
        // Ratio 1.5/1.0 = 1.5× is far under the required 10×.
        let bad =
            SAMPLE.replace("\"wall_seconds\":0.050000000", "\"wall_seconds\":1.000000000");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["multi-fast beats multi-naive >= 10x on the identical optimum"]
        );
    }

    #[test]
    fn multi_speedup_gate_catches_a_bandwidth_vector_mismatch() {
        // First occurrence is multi-naive's vector: any componentwise
        // drift between the serialised arrays must fail, even when the
        // scalar dimension-1 `bandwidth` fields still agree.
        let bad = SAMPLE.replacen("\"3fd0000000000000\"]", "\"3fd0a3d70a3d70a4\"]", 1);
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["multi-fast beats multi-naive >= 10x on the identical optimum"]
        );
    }

    #[test]
    fn multi_speedup_gate_skips_below_two_thousand() {
        let gates = evaluate_gates(SAMPLE, 1_000, 100);
        let gate = gates.iter().find(|g| g.name.contains(">= 10x")).unwrap();
        assert_eq!(gate.ok, None);
    }

    #[test]
    fn multi_gates_refuse_zero_counts() {
        // A report whose multi-fast entry never ran (no sweeps, no
        // queries) must not pass by vacuity.
        let bad = SAMPLE.replace(
            "\"kernel_evals\":0,\"dim_sweeps\":200,\"window_queries\":400000",
            "\"kernel_evals\":0,\"dim_sweeps\":0,\"window_queries\":0",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        let failed = fails(&gates);
        assert!(failed.contains(&"multi-fast never evaluates the kernel"));
        assert!(failed.contains(&"multi-fast window queries stay within g*n*d*ceil(log2 n)"));
    }

    #[test]
    fn streaming_gate_catches_a_missing_object() {
        // A writer that stops measuring the replay (pre-v6 tail) must fail
        // gate 13 explicitly, not let gates 14–15 pass by absence.
        let end = SAMPLE.find(",\"streaming\":{").unwrap();
        let bad = format!("{}}}", &SAMPLE[..end]);
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["report carries the schema-v6 streaming object"]);
    }

    #[test]
    fn streaming_update_gate_catches_a_kernel_evaluating_replay() {
        let bad = SAMPLE.replace(
            "\"kernel_evals\":0,\"final_bandwidth\"",
            "\"kernel_evals\":7,\"final_bandwidth\"",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["streaming replay: zero kernel evals, table rows within the update budget"]
        );
    }

    #[test]
    fn streaming_update_gate_catches_an_over_budget_tree() {
        // One table pass per arrival (or per-moment counting) lands far
        // above the (ins+rem)·ceil(log2 W)·(deg+3) = 157,500 ceiling.
        let bad = SAMPLE.replace("\"tree_updates\":104000", "\"tree_updates\":1000000");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["streaming replay: zero kernel evals, table rows within the update budget"]
        );
    }

    #[test]
    fn streaming_speedup_gate_catches_a_slow_replay() {
        // Ratio 0.42/0.2 = 2.1× is far under the required 10×.
        let bad =
            SAMPLE.replace("\"wall_seconds\":0.011000000", "\"wall_seconds\":0.200000000");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["streaming replay beats per-arrival recompute >= 10x, identical bandwidth"]
        );
    }

    #[test]
    fn streaming_speedup_gate_catches_a_bandwidth_divergence() {
        let bad = SAMPLE.replace(
            "\"recompute_bandwidth_bits\":\"3faacc70867ad8e4\"",
            "\"recompute_bandwidth_bits\":\"3fab22af5771001d\"",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["streaming replay beats per-arrival recompute >= 10x, identical bandwidth"]
        );
    }

    #[test]
    fn serving_gate_catches_a_missing_object() {
        // A writer that stops measuring the sharded service (v6 tail) must
        // fail gate 16 explicitly, not let gates 17–18 pass by absence.
        let end = SAMPLE.find(",\"serving\":{").unwrap();
        let bad = format!("{}}}", &SAMPLE[..end]);
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["report carries the schema-v7 serving object"]);
    }

    #[test]
    fn serving_gate_catches_a_kernel_evaluating_service() {
        let bad = SAMPLE.replace(
            "\"kernel_evals\":0,\"wall_seconds\":0.081000000",
            "\"kernel_evals\":7,\"wall_seconds\":0.081000000",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["serving: zero kernel evals service-wide, bursts coalesced"]
        );
    }

    #[test]
    fn serving_gate_refuses_an_uncoalesced_run() {
        // A worker that re-selects per arrival never merges a burst:
        // coalesced_arrivals == 0 must not pass by vacuity.
        let bad =
            SAMPLE.replace("\"coalesced_arrivals\":15200", "\"coalesced_arrivals\":0");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["serving: zero kernel evals service-wide, bursts coalesced"]
        );
    }

    #[test]
    fn serving_speedup_gate_catches_a_slow_service() {
        // Ratio 0.84/0.5 = 1.7× is far under the required 4×.
        let bad =
            SAMPLE.replace("\"wall_seconds\":0.081000000", "\"wall_seconds\":0.500000000");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["sharded service beats the global lock >= 4x at identical bandwidths"]
        );
    }

    #[test]
    fn serving_speedup_gate_catches_a_bandwidth_divergence() {
        // Conflation must not change any stream's final selection: one
        // component drifting in the baseline's array fails the identity.
        let bad = SAMPLE.replace(
            "\"lock_final_bandwidths_bits\":[\"3faa9fbe76c8b439\",\"3fab22d0e5604189\"]",
            "\"lock_final_bandwidths_bits\":[\"3faa9fbe76c8b439\",\"3faba5e353f7ced9\"]",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["sharded service beats the global lock >= 4x at identical bandwidths"]
        );
    }

    #[test]
    fn identity_gates_compare_bits_not_rounded_decimals() {
        // 0.052341 and its successor float print identically at 12
        // decimals (0.052341000000) but differ in the last bit: each
        // bit-identity gate must catch a one-ulp drift its decimals hide.
        let ulp = |v: f64| format!("{:016x}", v.to_bits() + 1);
        let next = f64::from_bits(0.052341f64.to_bits() + 1);
        assert_eq!(format!("{next:.12}"), format!("{:.12}", 0.052341));
        let cases = [
            (
                "\"recompute_bandwidth_bits\":\"3faacc70867ad8e4\"".to_string(),
                format!("\"recompute_bandwidth_bits\":\"{}\"", ulp(0.052341)),
                "streaming replay beats per-arrival recompute >= 10x, identical bandwidth",
            ),
            (
                "\"lock_final_bandwidths_bits\":[\"3faa9fbe76c8b439\"".to_string(),
                format!("\"lock_final_bandwidths_bits\":[\"{}\"", ulp(0.052)),
                "sharded service beats the global lock >= 4x at identical bandwidths",
            ),
            (
                "[\"3fc0000000000000\",\"3fd0000000000000\"]".to_string(),
                format!("[\"3fc0000000000000\",\"{}\"]", ulp(0.25)),
                "multi-fast beats multi-naive >= 10x on the identical optimum",
            ),
        ];
        for (from, to, gate) in cases {
            let bad = SAMPLE.replacen(&from, &to, 1);
            assert_ne!(bad, SAMPLE, "{from} not in the sample");
            assert_eq!(fails(&evaluate_gates(&bad, 2_000, 100)), vec![gate]);
        }
    }

    #[test]
    fn serving_speedup_gate_skips_below_two_thousand() {
        let gates = evaluate_gates(SAMPLE, 1_000, 100);
        let gate = gates.iter().find(|g| g.name.contains(">= 4x")).unwrap();
        assert_eq!(gate.ok, None);
        assert_eq!(fails(&gates), Vec::<&str>::new());
    }

    #[test]
    fn streaming_slice_stops_at_the_serving_boundary() {
        // The two objects share field names; corrupting serving's
        // `kernel_evals` must trip the serving gate, never the streaming
        // one (which would prove the streaming slice leaked across).
        let bad = SAMPLE.replace(
            "\"kernel_evals\":0,\"wall_seconds\":0.081000000",
            "\"kernel_evals\":9,\"wall_seconds\":0.081000000",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        let failed = fails(&gates);
        assert!(!failed
            .contains(&"streaming replay: zero kernel evals, table rows within the update budget"));
        assert!(failed.contains(&"serving: zero kernel evals service-wide, bursts coalesced"));
    }

    #[test]
    fn disabled_metrics_fail_the_gate() {
        let off = SAMPLE.replace("\"metrics_enabled\":true", "\"metrics_enabled\":false");
        let gates = evaluate_gates(&off, 2_000, 100);
        assert_eq!(gates.len(), 1);
        assert_eq!(gates[0].ok, Some(false));
    }

    #[test]
    fn missing_strategy_entries_fail_the_gate() {
        let truncated = SAMPLE.replace("{\"name\":\"prefix-par\"", "{\"name\":\"other\"");
        let gates = evaluate_gates(&truncated, 2_000, 100);
        assert_eq!(gates.len(), 1);
        assert_eq!(gates[0].ok, Some(false));
    }

    fn fails(gates: &[Gate]) -> Vec<&'static str> {
        gates.iter().filter(|g| g.ok == Some(false)).map(|g| g.name).collect()
    }
}
