//! Quickstart: generate the paper's synthetic data, select the optimal
//! bandwidth with the fast sorted grid search, fit the regression, and
//! compare against the alternatives (numerical optimisation, rule of
//! thumb, simulated GPU).
//!
//! Run with: `cargo run --release --example quickstart`

use kernelcv::core::diagnostics::{diagnostics, oracle_mse};
use kernelcv::core::select::{Rule, RuleOfThumbSelector};
use kernelcv::prelude::*;

fn main() {
    // The paper's DGP: X ~ U(0,1), Y = 0.5X + 10X² + u, u ~ U(0, 0.5).
    let n = 1_000;
    let sample = PaperDgp.sample(n, 2024);
    println!("Generated {n} observations from the paper's DGP.\n");

    // 1. The paper's method: sorted grid search over 50 bandwidths.
    let grid_selection = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(50))
        .select(&sample.x, &sample.y)
        .expect("grid search");
    println!(
        "sorted grid search : h = {:.4}  (CV = {:.5}, {} evaluations)",
        grid_selection.bandwidth, grid_selection.score, grid_selection.evaluations
    );

    // 2. The baseline: np-style numerical optimisation of the same objective.
    let options = NpRegBwOptions {
        nmulti: 3,
        ..Default::default()
    };
    let numeric = npregbw(&sample.x, &sample.y, options).expect("npregbw");
    println!(
        "numerical optimiser: h = {:.4}  (CV = {:.5}, {} evaluations)",
        numeric.bw, numeric.fval, numeric.evaluations
    );

    // 3. The shortcut practitioners use instead: Silverman's rule.
    let rot = RuleOfThumbSelector::new(Epanechnikov, Rule::Silverman)
        .select(&sample.x, &sample.y)
        .expect("rule of thumb");
    println!(
        "Silverman's rule   : h = {:.4}  (never evaluates the objective)",
        rot.bandwidth
    );

    // 4. The paper's GPU program on the simulated Tesla S10.
    let grid = BandwidthGrid::paper_default(&sample.x, 50).expect("grid");
    let gpu = select_bandwidth_gpu(&sample.x, &sample.y, &grid, &GpuConfig::default())
        .expect("gpu pipeline");
    println!(
        "simulated GPU      : h = {:.4}  (simulated device time {:.4}s, peak device mem {} MiB)\n",
        gpu.bandwidth,
        gpu.report.total_simulated_seconds,
        gpu.report.device_bytes_peak >> 20
    );

    // Fit at the selected bandwidth and inspect quality.
    let fit = NadarayaWatson::new(&sample.x, &sample.y, Epanechnikov, grid_selection.bandwidth)
        .expect("fit");
    let d = diagnostics(&fit, &sample.y);
    println!(
        "fit at h = {:.4}: R² = {:.4}, LOO-MSE = {:.5}",
        fit.bandwidth(),
        d.r_squared,
        d.loo_mse
    );

    // Oracle check against the known truth E[Y|X=x] = 0.5x + 10x² + 0.25.
    let points: Vec<f64> = (5..=95).map(|i| i as f64 / 100.0).collect();
    let mse_cv = oracle_mse(&fit, &points, |v| PaperDgp.truth(v));
    let wide = NadarayaWatson::new(&sample.x, &sample.y, Epanechnikov, 1.0).expect("fit");
    let mse_wide = oracle_mse(&wide, &points, |v| PaperDgp.truth(v));
    println!(
        "oracle MSE: CV-selected h → {mse_cv:.5}; domain-wide h = 1.0 → {mse_wide:.5} \
         ({}× worse)\n",
        (mse_wide / mse_cv).round()
    );

    // A small ASCII rendering of the fitted curve.
    println!("fitted curve ĝ(x) (· = estimate, T = truth):");
    let curve = FittedCurve::evaluate(&fit, 0.05, 0.95, 31).expect("curve");
    let y_max = 11.0;
    for (p, est) in curve.points.iter().zip(&curve.estimates) {
        let g = est.unwrap_or(f64::NAN);
        let t = PaperDgp.truth(*p);
        let mut row = vec![' '; 62];
        let pos = |v: f64| ((v / y_max) * 60.0).clamp(0.0, 61.0) as usize;
        row[pos(t)] = 'T';
        if g.is_finite() {
            row[pos(g)] = '\u{b7}';
        }
        println!("x={p:.2} |{}", row.iter().collect::<String>());
    }
}
