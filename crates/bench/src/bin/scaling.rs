//! Past-the-paper scaling study: bagged CV selection at n = 10⁵, 10⁶, 10⁷.
//!
//! The paper's evaluation stops at n = 20,000 (the device memory wall);
//! PR 6's windowed pipeline broke the wall but still sweeps all n
//! observations. This binary produces the repo's first numbers past that
//! ceiling: for each sample size it runs the bagged selector (default
//! B = 25 bags of r = 2,000, prefix engine, mean combiner — the ISSUE 7
//! configuration) and, where feasible (n ≤ `--full-max-n`, default 10⁶),
//! the full-data prefix strategy for comparison, measuring wall time, the
//! counting allocator's host-heap peak delta, and the selected bandwidth.
//!
//! ## Why every run uses a log-spaced grid
//!
//! The CV-optimal bandwidth shrinks like `n^{−1/5}`, so it lives on a log
//! scale; the paper-default *linear* grid (`domain/k` steps up from a
//! `domain/k` floor) either clamps the full-data argmin at its own floor
//! (measured: exactly 0.010000 at both 10⁵ and 10⁶ with k = 100 — the
//! bagged answer correctly rescales *below* the floor) or quantises it to
//! a step as coarse as the optimum itself. Both the full runs and the
//! bagged selector's in-bag search therefore sweep a k-point log grid
//! spanning `domain·[10⁻³, 0.3]` (the bags share the full sample's
//! domain), which keeps the optimum interior at every study size — a
//! regression test below pins the unclamped n = 10⁶ minimizer.
//!
//! ## The documented tolerance (acceptance check 2)
//!
//! The full-data CV valley at these sizes is extremely flat — at n = 10⁶
//! the score changes only in the 6th decimal across a 10× bandwidth range,
//! and the full-data argmin itself moves between 0.0036 and 0.0045 across
//! DGP seeds (the CV minimizer's relative noise is `O(n^{−1/10})`, ≈ 0.25
//! at 10⁶). Bandwidth-ratio comparisons tighter than that noise would be
//! gating on sampling accidents, so the tolerance is two-part:
//!
//! 1. the bagged bandwidth lies within a factor of 2 of the full-data
//!    argmin (catches gross rescaling failures; measured ratios ≤ 1.3), and
//! 2. the bagged bandwidth's *full-data CV regret*
//!    `(CV_n(h_bag) − CV_n(h_full)) / CV_n(h_full)` stays below 0.1%
//!    (measured ≈ 2·10⁻⁵) — the metric CV actually optimises.
//!
//! Outputs:
//!
//! * `results/scaling.csv` — the raw table (CI uploads this artifact);
//! * stdout — the rendered table plus the two acceptance checks:
//!   1. the bagged selection at the *largest* n finishes in under the
//!      full-data prefix time at n = 10⁵ (the ISSUE 7 criterion), and
//!   2. the two-part tolerance above at every n where the full run
//!      happened.
//!
//! Exits non-zero if either check fails.
//!
//! Usage: `cargo run --release -p kcv-bench --bin scaling --
//! [--max-n 10000000] [--full-max-n 1000000] [--bags 25] [--bag-size 2000]
//! [--k 100]`

use kcv_bench::alloc_track;
use kcv_bench::table::{arg_parse, fmt_seconds, render, write_csv};
use kcv_core::prelude::*;
use kcv_data::{Dgp, PaperDgp};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// The study's sample sizes: one, ten, and a hundred times 10⁵.
const SIZES: [usize; 3] = [100_000, 1_000_000, 10_000_000];

/// Part 1 of the documented tolerance: the bagged bandwidth must lie
/// within this factor of the full-data argmin (measured ratios ≤ 1.3; the
/// CV minimizer's own seed-to-seed spread at n = 10⁶ is ±13%).
const BANDWIDTH_FACTOR: f64 = 2.0;

/// Part 2: the bagged bandwidth's relative full-data CV regret bound
/// (measured ≈ 2·10⁻⁵ — the valley is flat, which is exactly why part 1
/// cannot be much tighter than the minimizer's own noise).
const REGRET_TOLERANCE: f64 = 1e-3;

/// One row of the study, one `results/scaling.csv` line. The `full_*`
/// fields are `None` where the full-data prefix run was skipped.
struct ScalingRow {
    n: usize,
    bags: usize,
    bag_size: usize,
    bagged_wall_seconds: f64,
    /// Measured host-heap peak delta (bytes).
    bagged_host_bytes_peak: u64,
    bagged_bandwidth: f64,
    full_wall_seconds: Option<f64>,
    full_host_bytes_peak: Option<u64>,
    full_bandwidth: Option<f64>,
    /// Full-data CV score at `full_bandwidth`, the grid minimum.
    full_score: Option<f64>,
    /// `(CV_n(h_bag) − CV_n(h_full)) / CV_n(h_full)`, the study's quality
    /// metric (see the module docs).
    bagged_regret: Option<f64>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_n = arg_parse(&args, "--max-n", 10_000_000usize);
    let full_max_n = arg_parse(&args, "--full-max-n", 1_000_000usize);
    let bags = arg_parse(&args, "--bags", 25usize);
    let bag_size = arg_parse(&args, "--bag-size", 2_000usize);
    let k = arg_parse(&args, "--k", 100usize);

    let mut rows: Vec<ScalingRow> = Vec::new();
    for n in SIZES.into_iter().filter(|&n| n <= max_n) {
        eprintln!("scaling: n = {n}: sampling paper DGP…");
        let s = PaperDgp.sample(n, 42);

        // One k-point log grid over the full sample's domain, shared by the
        // bagged in-bag search and the full-data run: the optimum h ~
        // n^{−1/5} lives on a log scale (see the module docs for the
        // measured linear-grid floor clamp this replaces). Bag subsamples
        // deliberately inherit the full sample's domain so every bag
        // searches the same candidates.
        let (lo, hi) =
            s.x.iter()
                .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let domain = hi - lo;
        let grid = match BandwidthGrid::log(domain * 1e-3, domain * 0.3, k) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("scaling: log grid failed at n = {n}: {e}");
                return ExitCode::FAILURE;
            }
        };

        eprintln!("scaling: n = {n}: bagged selection (B = {bags}, r = {bag_size})…");
        let selector = BaggedSelector::new(
            Epanechnikov,
            GridSpec::Explicit(grid.clone()),
            bags,
            bag_size,
        )
        .with_seed(42);
        alloc_track::reset_peak();
        let baseline = alloc_track::current_bytes();
        let start = Instant::now();
        let bagged = match selector.select_bagged(&s.x, &s.y) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("scaling: bagged selection failed at n = {n}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let bagged_wall_seconds = start.elapsed().as_secs_f64();
        let bagged_host_bytes_peak = alloc_track::peak_bytes().saturating_sub(baseline);

        let full = if n <= full_max_n {
            let (grid_min, grid_max) = (grid.min(), grid.max());
            eprintln!("scaling: n = {n}: full-data prefix selection (log grid, k = {k})…");
            alloc_track::reset_peak();
            let baseline = alloc_track::current_bytes();
            let start = Instant::now();
            match SortedGridSearch::prefix(Epanechnikov, GridSpec::Explicit(grid))
                .select(&s.x, &s.y)
            {
                Ok(sel) => {
                    if sel.bandwidth <= grid_min || sel.bandwidth >= grid_max {
                        eprintln!(
                            "scaling: WARNING — full-data argmin {:.6} sits on the grid \
                             edge [{grid_min:.6}, {grid_max:.6}]; widen the sweep",
                            sel.bandwidth
                        );
                    }
                    Some((
                        start.elapsed().as_secs_f64(),
                        alloc_track::peak_bytes().saturating_sub(baseline),
                        sel.bandwidth,
                        sel.score,
                    ))
                }
                Err(e) => {
                    eprintln!("scaling: full-data selection failed at n = {n}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            eprintln!(
                "scaling: n = {n}: full-data prefix run skipped (> --full-max-n {full_max_n})"
            );
            None
        };

        // The study's quality metric: the full-data CV score at the bagged
        // bandwidth (one O(n) prefix pass), against the full-data minimum.
        let bagged_regret = match full {
            Some((_, _, _, full_score)) => {
                let one = match BandwidthGrid::from_values(vec![bagged.bandwidth]) {
                    Ok(g) => g,
                    Err(e) => {
                        eprintln!("scaling: regret grid failed at n = {n}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match kcv_core::cv::cv_profile_prefix(&s.x, &s.y, &one, &Epanechnikov) {
                    Ok(p) => Some((p.scores[0] - full_score) / full_score),
                    Err(e) => {
                        eprintln!("scaling: regret evaluation failed at n = {n}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => None,
        };

        rows.push(ScalingRow {
            n,
            bags,
            bag_size,
            bagged_wall_seconds,
            bagged_host_bytes_peak,
            bagged_bandwidth: bagged.bandwidth,
            full_wall_seconds: full.map(|f| f.0),
            full_host_bytes_peak: full.map(|f| f.1),
            full_bandwidth: full.map(|f| f.2),
            full_score: full.map(|f| f.3),
            bagged_regret,
        });
    }
    if rows.is_empty() {
        eprintln!("scaling: --max-n {max_n} excludes every study size {SIZES:?}");
        return ExitCode::FAILURE;
    }

    // ---- artifacts ------------------------------------------------------
    let csv_rows: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n as f64,
                r.bags as f64,
                r.bag_size as f64,
                r.bagged_wall_seconds,
                r.bagged_host_bytes_peak as f64,
                r.bagged_bandwidth,
                r.full_wall_seconds.unwrap_or(f64::NAN),
                r.full_host_bytes_peak.map_or(f64::NAN, |v| v as f64),
                r.full_bandwidth.unwrap_or(f64::NAN),
                r.full_score.unwrap_or(f64::NAN),
                r.bagged_regret.unwrap_or(f64::NAN),
            ]
        })
        .collect();
    if let Err(e) = write_csv(
        Path::new("results/scaling.csv"),
        &[
            "n",
            "bags",
            "bag_size",
            "bagged_wall_seconds",
            "bagged_host_bytes_peak",
            "bagged_bandwidth",
            "full_wall_seconds",
            "full_host_bytes_peak",
            "full_bandwidth",
            "full_score",
            "bagged_regret",
        ],
        &csv_rows,
    ) {
        eprintln!("scaling: cannot write results/scaling.csv: {e}");
        return ExitCode::FAILURE;
    }

    // ---- table ----------------------------------------------------------
    let headers: Vec<String> = [
        "n",
        "bagged wall",
        "bagged peak B",
        "bagged h",
        "full wall",
        "full peak B",
        "full h",
        "regret",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let t_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                fmt_seconds(r.bagged_wall_seconds),
                r.bagged_host_bytes_peak.to_string(),
                format!("{:.6}", r.bagged_bandwidth),
                r.full_wall_seconds.map_or("-".into(), fmt_seconds),
                r.full_host_bytes_peak.map_or("-".into(), |v| v.to_string()),
                r.full_bandwidth.map_or("-".into(), |v| format!("{v:.6}")),
                r.bagged_regret.map_or("-".into(), |v| format!("{v:.2e}")),
            ]
        })
        .collect();
    println!(
        "SCALING PAST THE PAPER (B = {bags}, r = {bag_size}, k = {k}, prefix engine)\n{}",
        render(&headers, &t_rows)
    );

    // ---- acceptance checks ----------------------------------------------
    let mut ok = true;

    let largest = rows.last().unwrap();
    match rows
        .iter()
        .find(|r| r.n == 100_000)
        .and_then(|r| r.full_wall_seconds)
    {
        Some(full_1e5) if rows.len() > 1 => {
            let pass = largest.bagged_wall_seconds < full_1e5;
            println!(
                "scaling: {} — bagged at n = {} took {:.3}s vs full-data prefix at n = 100,000: {:.3}s",
                if pass { "PASS" } else { "FAIL" },
                largest.n,
                largest.bagged_wall_seconds,
                full_1e5,
            );
            ok &= pass;
        }
        _ => println!(
            "scaling: skip — speed check needs the n = 100,000 full run and a larger bagged run"
        ),
    }

    for r in &rows {
        if let Some(full_h) = r.full_bandwidth {
            let ratio = r.bagged_bandwidth / full_h;
            let band_ok = ratio > 1.0 / BANDWIDTH_FACTOR && ratio < BANDWIDTH_FACTOR;
            let regret = r.bagged_regret.unwrap_or(f64::NAN);
            let regret_ok = regret < REGRET_TOLERANCE;
            let pass = band_ok && regret_ok;
            println!(
                "scaling: {} — n = {}: bagged h = {:.6} vs full h = {:.6} \
                 (ratio {ratio:.3} vs factor {BANDWIDTH_FACTOR}; full-data CV regret \
                 {regret:.2e} vs tolerance {REGRET_TOLERANCE:.0e})",
                if pass { "PASS" } else { "FAIL" },
                r.n,
                r.bagged_bandwidth,
                full_h,
            );
            ok &= pass;
        }
    }

    if ok {
        println!("scaling: all checks hold; wrote results/scaling.csv");
        ExitCode::SUCCESS
    } else {
        println!("scaling: acceptance check(s) failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ISSUE 9 regression for the grid-default fix: at n = 10⁶ the study's
    /// log grid must leave the full-data CV minimizer *interior*, strictly
    /// below the linear paper-default grid's `domain/k` floor — the floor
    /// the PR 7 measurement showed the linear grid clamping to (exactly
    /// 0.010000 at k = 100). A smaller k keeps the test affordable; the
    /// log spacing is identical.
    #[test]
    fn log_grid_leaves_the_million_point_minimizer_unclamped() {
        let s = PaperDgp.sample(1_000_000, 42);
        let (lo, hi) =
            s.x.iter()
                .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let domain = hi - lo;
        let grid = BandwidthGrid::log(domain * 1e-3, domain * 0.3, 10).unwrap();
        let (grid_min, grid_max) = (grid.min(), grid.max());
        let profile = kcv_core::cv::cv_profile_prefix(&s.x, &s.y, &grid, &Epanechnikov).unwrap();
        let opt = profile.argmin().unwrap();
        assert!(
            opt.bandwidth > grid_min && opt.bandwidth < grid_max,
            "argmin {} clamped to a grid edge [{grid_min}, {grid_max}]",
            opt.bandwidth
        );
        assert!(
            opt.bandwidth < domain / 100.0,
            "argmin {} is not below the linear k = 100 floor {}",
            opt.bandwidth,
            domain / 100.0
        );
    }
}
