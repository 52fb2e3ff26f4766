//! §IV-C replication: "the sequential C code and the CUDA code were checked
//! against each other to ensure that they produced identical results under
//! many different sets of inputs", and the R programs "produced optimal
//! bandwidths in similar ranges".

use kernelcv::core::cv::{cv_profile_naive, cv_profile_sorted, cv_profile_sorted_par};
use kernelcv::prelude::*;

fn assert_close(a: f64, b: f64, rel: f64, ctx: &str) {
    let diff = (a - b).abs();
    assert!(
        diff <= rel * a.abs().max(b.abs()).max(1e-12),
        "{ctx}: {a} vs {b}"
    );
}

#[test]
fn sequential_and_gpu_programs_agree_on_many_inputs() {
    for seed in 0..8u64 {
        let n = 100 + (seed as usize) * 40;
        let sample = PaperDgp.sample(n, seed);
        let grid = BandwidthGrid::paper_default(&sample.x, 50).unwrap();
        let cpu = cv_profile_sorted(&sample.x, &sample.y, &grid, &Epanechnikov).unwrap();
        let gpu = select_bandwidth_gpu(&sample.x, &sample.y, &grid, &GpuConfig::default()).unwrap();
        for m in 0..grid.len() {
            assert_close(
                gpu.scores[m] as f64,
                cpu.scores[m],
                2e-3,
                &format!("seed {seed}, h index {m}"),
            );
        }
        let cpu_opt = cpu.argmin().unwrap();
        assert!(
            (gpu.bandwidth - cpu_opt.bandwidth).abs() <= grid.step() + 1e-9,
            "seed {seed}: gpu {} vs cpu {}",
            gpu.bandwidth,
            cpu_opt.bandwidth
        );
    }
}

#[test]
fn all_cv_strategies_produce_identical_profiles() {
    let sample = PaperDgp.sample(250, 99);
    let grid = BandwidthGrid::paper_default(&sample.x, 40).unwrap();
    let naive = cv_profile_naive(&sample.x, &sample.y, &grid, &Epanechnikov).unwrap();
    let sorted = cv_profile_sorted(&sample.x, &sample.y, &grid, &Epanechnikov).unwrap();
    let parallel = cv_profile_sorted_par(&sample.x, &sample.y, &grid, &Epanechnikov).unwrap();
    for m in 0..grid.len() {
        assert_close(naive.scores[m], sorted.scores[m], 1e-9, "naive vs sorted");
        assert_close(
            sorted.scores[m],
            parallel.scores[m],
            1e-12,
            "sorted vs parallel",
        );
        assert_eq!(naive.included[m], sorted.included[m]);
        assert_eq!(sorted.included[m], parallel.included[m]);
    }
}

#[test]
fn np_optimiser_lands_in_the_same_range_as_the_grid_programs() {
    // The paper's check is qualitative ("similar ranges"); we quantify it.
    for seed in 0..4u64 {
        let sample = PaperDgp.sample(300, 50 + seed);
        let grid_sel = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(100))
            .select(&sample.x, &sample.y)
            .unwrap();
        let np_sel = npregbw(&sample.x, &sample.y, NpRegBwOptions::default()).unwrap();
        assert!(
            (grid_sel.bandwidth - np_sel.bw).abs() < 0.1,
            "seed {seed}: grid {} vs np {}",
            grid_sel.bandwidth,
            np_sel.bw
        );
        // A dense grid's optimum can never be materially worse than what
        // the numerical optimiser found (the 100-point grid above can be,
        // because its step near the small optimum is coarse).
        let dense = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(2000))
            .select(&sample.x, &sample.y)
            .unwrap();
        assert!(
            dense.score <= np_sel.fval * 1.01 + 1e-9,
            "seed {seed}: dense grid {} vs optimiser {}",
            dense.score,
            np_sel.fval
        );
    }
}

#[test]
fn grid_search_is_immune_to_restart_seeds_unlike_the_optimiser() {
    let sample = PaperDgp.sample(120, 1234);
    let a = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(50))
        .select(&sample.x, &sample.y)
        .unwrap();
    let b = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(50))
        .select(&sample.x, &sample.y)
        .unwrap();
    assert_eq!(
        a.bandwidth, b.bandwidth,
        "grid search must be deterministic"
    );

    // The numerical optimiser's answer can move with the seed (the paper's
    // instability claim); it must never *beat* the dense grid by much while
    // doing so.
    let fine = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(1000))
        .select(&sample.x, &sample.y)
        .unwrap();
    for seed in [1u64, 2, 3, 4, 5] {
        let np_sel = npregbw(
            &sample.x,
            &sample.y,
            NpRegBwOptions {
                nmulti: 1,
                seed,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            fine.score <= np_sel.fval + 1e-6,
            "seed {seed}: dense grid should be ≥ optimiser"
        );
    }
}

#[test]
fn gpu_and_cpu_agree_on_non_uniform_designs() {
    // Clustered x values, wide y range: stress the f32 port.
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..60 {
        let base = if i % 3 == 0 { 0.1 } else { 0.8 };
        x.push(base + (i as f64) * 1e-3);
        y.push((i as f64).sin() * 5.0 + 10.0);
    }
    let grid = BandwidthGrid::linear(0.01, 1.0, 30).unwrap();
    let cpu = cv_profile_sorted(&x, &y, &grid, &Epanechnikov).unwrap();
    let gpu = select_bandwidth_gpu(&x, &y, &grid, &GpuConfig::default()).unwrap();
    for m in 0..grid.len() {
        assert_close(
            gpu.scores[m] as f64,
            cpu.scores[m],
            5e-3,
            &format!("h index {m}"),
        );
    }
}
