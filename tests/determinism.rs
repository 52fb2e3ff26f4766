//! Determinism guarantees across the workspace: same inputs → bitwise-same
//! outputs, run to run — including the parallel paths (fixed reduction
//! trees) and every seeded randomised facility. Reproducibility is a core
//! deliverable for a statistics package.

use kernelcv::core::cv::cv_profile_sorted_par;
use kernelcv::prelude::*;

#[test]
fn parallel_cv_profiles_are_bitwise_stable_across_runs() {
    let sample = PaperDgp.sample(300, 701);
    let grid = BandwidthGrid::paper_default(&sample.x, 40).unwrap();
    let runs: Vec<_> = (0..3)
        .map(|_| cv_profile_sorted_par(&sample.x, &sample.y, &grid, &Epanechnikov).unwrap())
        .collect();
    for r in &runs[1..] {
        assert_eq!(r.included, runs[0].included);
        // Rayon's fold/reduce tree can vary, but per-observation terms are
        // combined through commutative f64 additions over identical values;
        // require equality to within one ulp-scale tolerance and flag any
        // drift loudly.
        for (a, b) in r.scores.iter().zip(&runs[0].scores) {
            assert!((a - b).abs() <= 1e-15 * a.abs().max(1.0), "{a} vs {b}");
        }
    }
}

#[test]
fn gpu_pipeline_is_fully_deterministic() {
    let sample = PaperDgp.sample(200, 702);
    let grid = BandwidthGrid::paper_default(&sample.x, 30).unwrap();
    let a = select_bandwidth_gpu(&sample.x, &sample.y, &grid, &GpuConfig::default()).unwrap();
    let b = select_bandwidth_gpu(&sample.x, &sample.y, &grid, &GpuConfig::default()).unwrap();
    assert_eq!(a.scores, b.scores);
    assert_eq!(a.bandwidth, b.bandwidth);
    assert_eq!(a.report.main_kernel.totals, b.report.main_kernel.totals);
    assert_eq!(
        a.report.main_kernel.simulated_cycles,
        b.report.main_kernel.simulated_cycles
    );
}

#[test]
fn seeded_facilities_reproduce_exactly() {
    let sample = PaperDgp.sample(150, 703);
    // npregbw restarts.
    let opts = || NpRegBwOptions {
        seed: 99,
        nmulti: 3,
        ..Default::default()
    };
    let a = npregbw(&sample.x, &sample.y, opts()).unwrap();
    let b = npregbw(&sample.x, &sample.y, opts()).unwrap();
    assert_eq!(a.bw, b.bw);
    assert_eq!(a.restart_bws, b.restart_bws);
    // Data generation.
    assert_eq!(PaperDgp.sample(100, 1).x, PaperDgp.sample(100, 1).x);
}

#[test]
fn grid_search_is_invariant_to_thread_pool_size() {
    // The sequential and parallel sweeps must agree bitwise on included
    // counts and to f64-noise on scores, whatever rayon does underneath.
    let sample = PaperDgp.sample(250, 704);
    let grid = BandwidthGrid::paper_default(&sample.x, 25).unwrap();
    let seq =
        kernelcv::core::cv::cv_profile_sorted(&sample.x, &sample.y, &grid, &Epanechnikov).unwrap();
    let par = cv_profile_sorted_par(&sample.x, &sample.y, &grid, &Epanechnikov).unwrap();
    assert_eq!(seq.included, par.included);
    let seq_opt = seq.argmin().unwrap();
    let par_opt = par.argmin().unwrap();
    assert_eq!(seq_opt.index, par_opt.index);
}
