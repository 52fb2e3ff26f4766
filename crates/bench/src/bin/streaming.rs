//! Streaming replay benchmark: the sliding-window incremental engine vs
//! recompute-from-scratch.
//!
//! Replays `--arrivals` paper-DGP observations (default 10⁵) into a
//! `--window`-capacity [`SlidingWindowSelector`] (default 10⁴, oldest
//! evicted first) and re-selects the bandwidth every `cadence` arrivals
//! over a k-point log grid, for a sweep of cadences around the
//! `--cadence` headline. Every row is compared against the same policy a
//! batch-only codebase would have to run: a fresh `cv_profile_prefix`
//! profile over the current window at *every arrival*.
//!
//! ## The baseline is sampled, not fully run
//!
//! Recomputing 10⁵ prefix profiles of 10⁴ observations each would take
//! hours, so the baseline is measured at `--baseline-samples` (default
//! 40) evenly spaced arrival indices and extrapolated linearly to the
//! per-arrival total — prefix-profile cost depends only on the window
//! size, which is constant once the window fills, so the extrapolation
//! is faithful and is logged (never silently assumed). Because the
//! stream is contiguous, the slice `x[t−w..t]` holds exactly the
//! multiset the window would hold at arrival `t`.
//!
//! The amortisation curve this produces is the engine's pitch: one
//! incremental re-selection costs about one fresh prefix profile on the
//! same window (both run the same cell kernel over a table built in one
//! compensated pass; the re-selection skips the sort), so the speedup
//! over per-arrival recompute grows roughly linearly in the cadence.
//!
//! Outputs:
//!
//! * `results/streaming.csv` — one row per cadence (CI uploads this);
//! * stdout — the rendered table plus the perf-gate-15 check: at every
//!   cadence ≥ 64 the replay must beat per-arrival recompute by ≥ 10×
//!   and select bit-identically on the final window.
//!
//! Exits non-zero if the check fails.
//!
//! Usage: `cargo run --release -p kcv-bench --bin streaming --
//! [--arrivals 100000] [--window 10000] [--k 25] [--cadence 500]
//! [--seed 42] [--baseline-samples 40]`

use kcv_bench::table::{arg_parse, fmt_seconds, render, write_csv};
use kcv_core::cv::{cv_profile_prefix, SlidingWindowSelector};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_data::{Dgp, PaperDgp};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Gate 15's wall-clock floor: the replay must beat per-arrival
/// recompute by at least this factor at every swept cadence ≥ 64.
const SPEEDUP_FLOOR: f64 = 10.0;

/// One swept cadence's measurements.
struct CadenceRow {
    cadence: usize,
    reselects: usize,
    wall_seconds: f64,
    final_bandwidth: f64,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arrivals = arg_parse(&args, "--arrivals", 100_000usize);
    let window = arg_parse(&args, "--window", 10_000usize)
        .max(2)
        .min(arrivals);
    let k = arg_parse(&args, "--k", 25usize);
    let headline = arg_parse(&args, "--cadence", 500usize).max(1);
    let seed = arg_parse(&args, "--seed", 42u64);
    let baseline_samples = arg_parse(&args, "--baseline-samples", 40usize).max(2);

    eprintln!("streaming: sampling {arrivals} paper-DGP arrivals (seed {seed})…");
    let s = PaperDgp.sample(arrivals, seed);

    let (lo, hi) =
        s.x.iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
    let domain = hi - lo;
    // Log-spaced grid, as everywhere the window is large: a linear
    // paper-default grid would clamp the optimum at its `domain/k` floor.
    let grid = match BandwidthGrid::log(domain * 1e-3, domain * 0.3, k) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("streaming: log grid failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // ---- sampled recompute-from-scratch baseline ------------------------
    // Sampling starts once the window has filled: below that, tiny windows
    // can have no valid bandwidth at all, and the profile cost is still
    // ramping. Charging the ramp-up arrivals (< first, at most window/
    // arrivals of the stream) at the full-window rate overstates the
    // baseline by at most that fraction — logged here, never hidden.
    let first = window.min(arrivals);
    let mut points: Vec<usize> = (0..baseline_samples)
        .map(|i| first + (arrivals - first) * i / (baseline_samples - 1))
        .collect();
    points.dedup();
    eprintln!(
        "streaming: baseline — fresh prefix profile at {} sampled arrivals in \
         [{first}, {arrivals}], extrapolated ×{arrivals} to the per-arrival \
         policy (window cost is constant once the window fills; the {first} \
         ramp-up arrivals are charged at the full-window rate, an overestimate \
         of at most {:.0}%)…",
        points.len(),
        100.0 * first as f64 / arrivals as f64,
    );
    let mut recompute_bandwidth = f64::NAN;
    let start = Instant::now();
    for &t in &points {
        let w = window.min(t);
        let profile = match cv_profile_prefix(&s.x[t - w..t], &s.y[t - w..t], &grid, &Epanechnikov)
        {
            Ok(p) => p,
            Err(e) => {
                eprintln!("streaming: baseline profile failed at arrival {t}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match profile.argmin() {
            Ok(opt) => recompute_bandwidth = opt.bandwidth,
            Err(e) => {
                eprintln!("streaming: baseline argmin failed at arrival {t}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let recompute_wall_seconds =
        start.elapsed().as_secs_f64() / points.len() as f64 * arrivals as f64;

    // ---- cadence sweep ---------------------------------------------------
    let mut cadences: Vec<usize> = [headline / 2, headline, headline * 2, headline * 4].into();
    cadences.retain(|&c| c >= 1);
    cadences.sort_unstable();
    cadences.dedup();

    let mut rows: Vec<CadenceRow> = Vec::new();
    for &cadence in &cadences {
        eprintln!("streaming: replay at cadence {cadence}…");
        let mut sel = match SlidingWindowSelector::new(Epanechnikov, grid.clone(), window, cadence)
        {
            Ok(sel) => sel,
            Err(e) => {
                eprintln!("streaming: bad window/cadence configuration: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut reselects = 0usize;
        let start = Instant::now();
        for (&xi, &yi) in s.x.iter().zip(&s.y) {
            match sel.push(xi, yi) {
                Ok(opt) => reselects += usize::from(opt.is_some()),
                Err(e) => {
                    eprintln!("streaming: push failed at cadence {cadence}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        // Force a final pass so every cadence is compared on the identical
        // final window.
        let final_opt = match sel.reselect_now() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("streaming: final reselect failed at cadence {cadence}: {e}");
                return ExitCode::FAILURE;
            }
        };
        reselects += 1;
        rows.push(CadenceRow {
            cadence,
            reselects,
            wall_seconds: start.elapsed().as_secs_f64(),
            final_bandwidth: final_opt.bandwidth,
        });
    }

    // ---- artifacts -------------------------------------------------------
    let csv_rows: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cadence as f64,
                r.reselects as f64,
                r.wall_seconds,
                recompute_wall_seconds,
                recompute_wall_seconds / r.wall_seconds,
                r.final_bandwidth,
                recompute_bandwidth,
            ]
        })
        .collect();
    if let Err(e) = write_csv(
        Path::new("results/streaming.csv"),
        &[
            "cadence",
            "reselects",
            "wall_seconds",
            "recompute_wall_seconds",
            "speedup",
            "final_bandwidth",
            "recompute_bandwidth",
        ],
        &csv_rows,
    ) {
        eprintln!("streaming: cannot write results/streaming.csv: {e}");
        return ExitCode::FAILURE;
    }

    // ---- table -----------------------------------------------------------
    let headers: Vec<String> = [
        "cadence",
        "reselects",
        "wall",
        "recompute wall",
        "speedup",
        "final h",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let t_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cadence.to_string(),
                r.reselects.to_string(),
                fmt_seconds(r.wall_seconds),
                fmt_seconds(recompute_wall_seconds),
                format!("{:.1}x", recompute_wall_seconds / r.wall_seconds),
                format!("{:.6}", r.final_bandwidth),
            ]
        })
        .collect();
    println!(
        "STREAMING REPLAY (A = {arrivals}, W = {window}, k = {k}, log grid, \
         baseline sampled at {} points)\n{}",
        points.len(),
        render(&headers, &t_rows)
    );

    // ---- acceptance check (gate 15's criterion, across the sweep) --------
    let mut ok = true;
    for r in &rows {
        if r.cadence < 64 {
            println!(
                "streaming: info — cadence {} below the 64-arrival gate threshold, not gated",
                r.cadence
            );
            continue;
        }
        let speedup = recompute_wall_seconds / r.wall_seconds;
        let identical = r.final_bandwidth.to_bits() == recompute_bandwidth.to_bits();
        let pass = speedup >= SPEEDUP_FLOOR && identical;
        println!(
            "streaming: {} — cadence {}: {speedup:.1}x vs per-arrival recompute \
             (floor {SPEEDUP_FLOOR}x); final h = {:.6} vs recompute h = {:.6} ({})",
            if pass { "PASS" } else { "FAIL" },
            r.cadence,
            r.final_bandwidth,
            recompute_bandwidth,
            if identical {
                "bit-identical"
            } else {
                "DIVERGED"
            },
        );
        ok &= pass;
    }

    if ok {
        println!("streaming: all checks hold; wrote results/streaming.csv");
        ExitCode::SUCCESS
    } else {
        println!("streaming: acceptance check(s) failed");
        ExitCode::FAILURE
    }
}
