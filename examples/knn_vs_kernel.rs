//! k-NN vs fixed-bandwidth kernel regression — the design contrast the
//! paper's §II draws against Creel & Zubair's GPU implementation: k-NN
//! adapts its window to local density (and never degenerates), fixed
//! bandwidths weight by distance. Both tuning problems are solved here with
//! the same incremental-sums idea: the sorted bandwidth sweep for the
//! kernel, prefix means for k-NN.
//!
//! Run with: `cargo run --release --example knn_vs_kernel`

use kernelcv::core::diagnostics::oracle_mse;
use kernelcv::core::estimate::{knn_cv_profile, KnnRegression};
use kernelcv::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // Non-uniform design: x clusters densely near 0.2 and sparsely above
    // 0.6 — exactly where the fixed bandwidth struggles and k-NN adapts.
    let n = 800;
    let mut rng = StdRng::seed_from_u64(2718);
    let truth = |v: f64| (6.0 * v).sin() + 2.0 * v;
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let v = if i % 4 == 0 {
            0.6 + 0.4 * rng.random::<f64>() // sparse tail
        } else {
            0.4 * (rng.random::<f64>() + rng.random::<f64>()) / 2.0 + 0.05 // dense cluster
        };
        let z = {
            let u1: f64 = rng.random::<f64>().max(1e-12);
            let u2: f64 = rng.random();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        x.push(v);
        y.push(truth(v) + 0.2 * z);
    }

    println!("non-uniform design, n = {n}: dense cluster near 0.2, sparse tail past 0.6\n");

    // Tune the kernel bandwidth by the paper's sorted grid search.
    let kernel_sel = SortedGridSearch::parallel(Epanechnikov, GridSpec::PaperDefault(200))
        .with_min_included(n)
        .select(&x, &y)
        .expect("kernel bandwidth");
    println!(
        "fixed-bandwidth kernel: h = {:.4} (CV = {:.5})",
        kernel_sel.bandwidth, kernel_sel.score
    );

    // Tune k by the k-NN prefix-sum CV profile.
    let knn_profile = knn_cv_profile(&x, &y, 200).expect("knn profile");
    let (k_opt, knn_cv) = knn_profile.argmin().expect("knn argmin");
    println!("k-nearest neighbours  : k = {k_opt} (CV = {knn_cv:.5})\n");

    // Compare against the truth in the dense and sparse regions.
    let kernel_fit = NadarayaWatson::new(&x, &y, Epanechnikov, kernel_sel.bandwidth).expect("fit");
    let knn_fit = KnnRegression::new(&x, &y, k_opt).expect("knn");
    let dense: Vec<f64> = (10..=40).map(|i| i as f64 / 100.0).collect();
    let sparse: Vec<f64> = (65..=95).map(|i| i as f64 / 100.0).collect();
    let knn_mse = |points: &[f64]| {
        points
            .iter()
            .map(|&p| {
                let e = knn_fit.predict(p) - truth(p);
                e * e
            })
            .sum::<f64>()
            / points.len() as f64
    };
    println!("oracle MSE by region:");
    println!(
        "  dense  [0.10, 0.40]: kernel {:.5}   knn {:.5}",
        oracle_mse(&kernel_fit, &dense, truth),
        knn_mse(&dense)
    );
    println!(
        "  sparse [0.65, 0.95]: kernel {:.5}   knn {:.5}",
        oracle_mse(&kernel_fit, &sparse, truth),
        knn_mse(&sparse)
    );
    println!(
        "\nCV comparison: the better leave-one-out score on this design is {}\n\
         (kernel {:.5} vs knn {knn_cv:.5}); both tunings came from one sort per\n\
         observation plus incremental sums — the paper's trick in two guises.",
        if kernel_sel.score < knn_cv {
            "the kernel's"
        } else {
            "k-NN's"
        },
        kernel_sel.score
    );
}
