//! Multivariate kernel regression: per-dimension bandwidths over a full
//! grid ("an evenly-spaced grid or matrix in multivariate contexts", §I)
//! compared with the scalar-multiplier shortcut. Both selectors run on the
//! fast-sum-updating engine (`multi::fast`) — zero kernel evaluations for
//! the d = 2 Epanechnikov grid below.
//!
//! Run with: `cargo run --release --example multivariate`

use kernelcv::core::multi::{select_full_grid, select_multiplier_grid, MultiNadarayaWatson};
use kernelcv::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // A surface that is flat in x1 and strongly curved in x2 — the case
    // where per-dimension ("anisotropic") bandwidths pay off.
    let n = 500;
    let mut rng = StdRng::seed_from_u64(77);
    let x1: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
    let x2: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
    let truth = |a: f64, b: f64| 0.3 * a + (8.0 * b).sin();
    let y: Vec<f64> = x1
        .iter()
        .zip(&x2)
        .map(|(&a, &b)| {
            let u1: f64 = rng.random::<f64>().max(1e-12);
            let u2: f64 = rng.random();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            truth(a, b) + 0.15 * z
        })
        .collect();
    let columns = vec![x1, x2];

    println!("surface: g(x1, x2) = 0.3·x1 + sin(8·x2), n = {n}\n");

    // Full 10×10 bandwidth grid (the §I "matrix").
    let grid: Vec<f64> = (1..=10).map(|i| i as f64 * 0.035).collect();
    let full = select_full_grid(&columns, &y, &Epanechnikov, &[grid.clone(), grid.clone()])
        .expect("full grid");
    println!(
        "full-grid search     : h = ({:.3}, {:.3}), CV = {:.5}",
        full.bandwidths[0], full.bandwidths[1], full.score
    );

    // Scalar-multiplier shortcut (isotropic rescale of the Silverman base).
    let multipliers: Vec<f64> = (1..=16).map(|i| i as f64 * 0.25).collect();
    let scalar =
        select_multiplier_grid(&columns, &y, &Epanechnikov, &multipliers).expect("multiplier grid");
    println!(
        "multiplier shortcut  : h = ({:.3}, {:.3}), CV = {:.5}\n",
        scalar.bandwidths[0], scalar.bandwidths[1], scalar.score
    );

    println!(
        "anisotropy: the full grid smooths the flat dimension {}× wider than\n\
         the oscillating one (h1/h2 = {:.2}); the scalar shortcut is forced to\n\
         a common scale and pays CV {:+.1}%.\n",
        (full.bandwidths[0] / full.bandwidths[1]).round(),
        full.bandwidths[0] / full.bandwidths[1],
        (scalar.score / full.score - 1.0) * 100.0
    );

    // Fit at the full-grid optimum and probe the surface.
    let fit =
        MultiNadarayaWatson::new(&columns, &y, Epanechnikov, full.bandwidths.clone()).expect("fit");
    println!("probe points (estimate vs truth):");
    for &(a, b) in &[(0.25, 0.25), (0.5, 0.5), (0.75, 0.2), (0.2, 0.8)] {
        let g = fit.predict(&[a, b]).expect("dims").unwrap_or(f64::NAN);
        println!("  g({a:.2}, {b:.2}) = {g:>7.3}   truth {:.3}", truth(a, b));
    }
}
