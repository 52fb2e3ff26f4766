//! An applied-econometrics scenario of the kind the paper's introduction
//! motivates: estimating an Engel curve — the household food budget share
//! as a function of log total expenditure — without assuming a functional
//! form, with a cross-validated bandwidth.
//!
//! The data are synthetic (a Working–Leser curve with heteroskedastic
//! noise), since real household surveys are not shipped with the repo.
//!
//! Run with: `cargo run --release --example engel_curve`

use kernelcv::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A smooth Engel curve: the food budget share declines from ~0.54 for the
/// poorest households to ~0.12 for the richest, flattening at both ends —
/// the shape household-survey nonparametrics reliably find.
fn engel_truth(log_exp: f64) -> f64 {
    0.1 + 0.5 / (1.0 + (1.2 * (log_exp - 6.2)).exp())
}

fn main() {
    // Simulate a household expenditure survey.
    let n = 2_000;
    let mut rng = StdRng::seed_from_u64(1857);
    let mut log_exp = Vec::with_capacity(n);
    let mut food_share = Vec::with_capacity(n);
    for _ in 0..n {
        // Log-expenditure roughly N(6.5, 0.8²), truncated to [4.5, 9].
        let z = {
            let u1: f64 = rng.random::<f64>().max(1e-12);
            let u2: f64 = rng.random();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let le = (6.5 + 0.8 * z).clamp(4.5, 9.0);
        // Budget shares are noisier for poorer households.
        let noise_sd = 0.05 * (1.0 + (7.0 - le).max(0.0));
        let z2 = {
            let u1: f64 = rng.random::<f64>().max(1e-12);
            let u2: f64 = rng.random();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let share = (engel_truth(le) + noise_sd * z2).clamp(0.01, 0.95);
        log_exp.push(le);
        food_share.push(share);
    }

    println!("Engel curve estimation on {n} simulated households\n");

    // Bandwidth via the fast sorted grid search (parallel sweep).
    let selection = SortedGridSearch::parallel(Epanechnikov, GridSpec::PaperDefault(200))
        .with_min_included(n)
        .select(&log_exp, &food_share)
        .expect("bandwidth selection");
    println!(
        "cross-validated bandwidth: h = {:.4} (CV = {:.6}, grid of {} candidates)",
        selection.bandwidth, selection.score, selection.evaluations
    );

    // Compare with what the np-style numerical optimiser would return.
    let np_bw = npregbw(&log_exp, &food_share, NpRegBwOptions::default()).expect("npregbw");
    println!(
        "np-style optimiser       : h = {:.4} (fval = {:.6})\n",
        np_bw.bw, np_bw.fval
    );

    // Fit at the selected bandwidth and compare with the true curve.
    let fit =
        NadarayaWatson::new(&log_exp, &food_share, Epanechnikov, selection.bandwidth).expect("fit");
    println!("log-expenditure   food share ĝ(x)   truth");
    for p in (0..=8).map(|i| 5.25 + i as f64 * 0.375) {
        if let Some(g) = fit.predict(p) {
            println!("{p:>15.2}   {g:>15.4}   {:.4}", engel_truth(p));
        }
    }
    println!();

    // Economics sanity check: food share declines with income (Engel's law).
    let poor = fit.predict(5.0).expect("estimate at 5.0");
    let rich = fit.predict(8.5).expect("estimate at 8.5");
    println!(
        "Engel's law check: ĝ(log-exp = 5.0) = {poor:.3} > ĝ(log-exp = 8.5) = {rich:.3}: {}",
        if poor > rich { "holds" } else { "VIOLATED" }
    );
}
