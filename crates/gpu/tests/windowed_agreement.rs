//! Cross-implementation agreement: the windowed GPU program against the
//! `f64` CPU prefix-moment reference (`cv_profile_prefix`), across every
//! polynomial kernel the device supports, plus the exact boundary-tie
//! lattice from `crates/core/tests/boundary_ties.rs`.
//!
//! Tolerances, and why they are what they are: the windowed device program
//! runs in f32 (compensated-pair tables, f32 assembly), the CPU reference
//! in f64. Quantising `x`, `y`, and the bandwidths to f32 alone perturbs a
//! squared-residual score at the ~1e-6 relative level, and the per-cell
//! recombination amplifies the window-moment rounding error by `h^{−j}` at
//! monomial degree `j` — so score agreement is asserted at a degree-scaled
//! relative tolerance (2e-3 up to quadratic; 5e-2 for cubic/quartic, whose
//! `h^{−4}` factor reaches ~10⁵ at the smallest paper-default bandwidths
//! and costs the pair scheme ~4 digits), never exactly. Beyond degree 4
//! that amplification defeats the pair-f32 scheme outright: triweight's
//! `h^{−6}` factor reaches ~3·10⁷ there, turning the ~2⁻²⁴ pair residual
//! into an O(1)
//! score error — so the program gives those kernels true-f64 tables, chosen
//! from the kernel degree (at the same 8 device bytes per entry). Argmins of two
//! different-precision programs may legitimately flip between near-tied
//! neighbouring grid points, so bandwidth agreement is asserted within one
//! grid step, and the *quality* of the selection is pinned separately: the
//! CPU profile's score at the GPU's chosen bandwidth must be within the
//! same tolerance of the CPU minimum.

use kcv_core::cv::cv_profile_prefix;
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::{polynomial_kernels, Epanechnikov, Triweight, Uniform};
use kcv_data::{Dgp, PaperDgp};
use kcv_gpu::{select_bandwidth_gpu_windowed_kernel, GpuConfig, GpuKernel};
use proptest::prelude::*;

/// Per-degree relative score tolerance (see the module docs): pair-f32
/// tables hold through degree 4; degree 5+ runs on true-f64 tables, where
/// only the f32 input quantisation remains.
fn mode_for_degree(deg: usize) -> f64 {
    match deg {
        0..=2 => 2e-3,
        3..=4 => 5e-2,
        _ => 1e-4,
    }
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn prop_windowed_gpu_agrees_with_cpu_prefix_for_every_kernel(
        seed in 0u64..10_000,
        n in 30usize..120,
        k in 3usize..20,
    ) {
        let s = PaperDgp.sample(n, seed);
        let grid = BandwidthGrid::paper_default(&s.x, k).unwrap();
        let step = grid.step();
        for kernel in polynomial_kernels() {
            let deg = kernel.coeffs().len() - 1;
            let tol = mode_for_degree(deg);
            let config = GpuConfig::default();
            let cpu = cv_profile_prefix(&s.x, &s.y, &grid, &*kernel).unwrap();
            let cpu_opt = cpu.argmin().unwrap();
            let gpu = select_bandwidth_gpu_windowed_kernel(
                &s.x, &s.y, &grid, &config, &GpuKernel::from_core(&*kernel),
            )
            .unwrap();

            // One grid step of slack for near-tied minima, plus the f32
            // quantisation of the reported bandwidth itself (~h·2⁻²³).
            prop_assert!(
                (gpu.bandwidth - cpu_opt.bandwidth).abs() <= step + 1e-6,
                "kernel {} (deg {deg}): windowed selected {} vs CPU {} (step {step})",
                kernel.name(), gpu.bandwidth, cpu_opt.bandwidth
            );
            prop_assert!(
                rel_close(gpu.score, cpu_opt.score, tol),
                "kernel {} (deg {deg}): min score {} vs CPU {}",
                kernel.name(), gpu.score, cpu_opt.score
            );
            // The GPU's pick must be near-optimal on the f64 profile, not
            // just nearby on the grid. The device reports the f32-quantised
            // bandwidth, so map it back to the nearest f64 grid point.
            let gpu_idx = grid
                .values()
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    (*a - gpu.bandwidth).abs().total_cmp(&(*b - gpu.bandwidth).abs())
                })
                .map(|(i, _)| i)
                .unwrap();
            prop_assert!(
                cpu.scores[gpu_idx] <= cpu_opt.score + tol * cpu_opt.score.abs().max(1e-6),
                "kernel {} (deg {deg}): CPU rates the GPU pick {} vs its own min {}",
                kernel.name(), cpu.scores[gpu_idx], cpu_opt.score
            );
        }
    }

    #[test]
    fn prop_f64_table_mode_tracks_the_cpu_reference_tighter(
        seed in 0u64..10_000,
        n in 30usize..100,
        k in 3usize..15,
    ) {
        // Triweight (degree 6) runs on true-f64 tables with f64 assembly,
        // so the only remaining error is the f32 quantisation of the inputs
        // and bandwidths: 1e-4 relative holds at every grid point, an order
        // tighter than the pair mode's quadratic-kernel bound.
        let s = PaperDgp.sample(n, seed);
        let grid = BandwidthGrid::paper_default(&s.x, k).unwrap();
        let config = GpuConfig::default();
        let cpu = cv_profile_prefix(&s.x, &s.y, &grid, &Triweight).unwrap();
        let gpu = select_bandwidth_gpu_windowed_kernel(
            &s.x, &s.y, &grid, &config, &GpuKernel::from_core(&Triweight),
        )
        .unwrap();
        for (m, (&ours, &theirs)) in gpu.scores.iter().zip(&cpu.scores).enumerate() {
            prop_assert!(
                rel_close(f64::from(ours), theirs, 1e-4),
                "h={}: f64-mode windowed {ours} vs CPU {theirs}",
                grid.values()[m]
            );
        }
    }
}

/// The exact boundary-tie lattice of `crates/core/tests/boundary_ties.rs`:
/// spacing 0.25 on a power-of-two grid, so `d/h` and every prefix moment
/// are exact binary fractions in f32 as well as f64, and a support-boundary
/// tie (`|x_i − x_l| == h·r` exactly) is real rather than float noise.
fn lattice() -> (Vec<f64>, Vec<f64>) {
    (
        vec![0.0, 0.25, 0.5, 0.75, 1.0],
        vec![1.0, 2.0, -1.0, 0.5, 3.0],
    )
}

#[test]
fn windowed_gpu_classifies_boundary_ties_like_the_cpu_strategies() {
    let (x, y) = lattice();
    let config = GpuConfig::default();
    let grid = BandwidthGrid::from_values(vec![0.25, 0.5]).unwrap();

    // Uniform: weight 0.5 > 0 exactly on the boundary — the tied
    // neighbours are real contributors, and the device predicate
    // (d·inv_h ≤ r on exact binary fractions) must include them. Scores
    // match the CPU up to f32/f64 division rounding (e.g. Σy/3), so the
    // comparison is 1e-6-relative, not bitwise.
    let cpu = cv_profile_prefix(&x, &y, &grid, &Uniform).unwrap();
    let gpu = select_bandwidth_gpu_windowed_kernel(
        &x,
        &y,
        &grid,
        &config,
        &GpuKernel::from_core(&Uniform),
    )
    .unwrap();
    assert_eq!(cpu.included, vec![5, 5]);
    for (m, (&ours, &theirs)) in gpu.scores.iter().zip(&cpu.scores).enumerate() {
        assert!(
            rel_close(f64::from(ours), theirs, 1e-6),
            "uniform h={}: windowed {ours} vs CPU {theirs}",
            grid.values()[m]
        );
    }

    // Epanechnikov: weight exactly 0 on the boundary. At h = 0.25 every
    // in-support neighbour is a boundary tie, all denominators collapse to
    // exactly 0.0 (the lattice keeps the f32 arithmetic exact), and the
    // device must exclude everyone — its score is exactly 0.0, like every
    // CPU strategy's.
    let cpu = cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
    let gpu = select_bandwidth_gpu_windowed_kernel(
        &x,
        &y,
        &grid,
        &config,
        &GpuKernel::from_core(&Epanechnikov),
    )
    .unwrap();
    assert_eq!(cpu.included, vec![0, 5]);
    assert_eq!(cpu.scores[0], 0.0);
    assert_eq!(
        gpu.scores[0], 0.0,
        "a strict or perturbed predicate leaks boundary weight"
    );
    assert!(
        rel_close(f64::from(gpu.scores[1]), cpu.scores[1], 1e-6),
        "epanechnikov h=0.5: windowed {} vs CPU {}",
        gpu.scores[1],
        cpu.scores[1]
    );
}

#[test]
fn windowed_gpu_agrees_at_radius_spanning_bandwidths() {
    // h = 0.125: adjacent pairs sit at d/h = 2, outside the radius — nobody
    // has a neighbour and both bandwidths' scores are exactly 0.0. h = 1.0:
    // everything is in support. The degenerate extremes must classify
    // identically on the device too.
    let (x, y) = lattice();
    let config = GpuConfig::default();
    let grid = BandwidthGrid::from_values(vec![0.125, 1.0]).unwrap();
    for (core_kernel, device_kernel) in [
        (
            cv_profile_prefix(&x, &y, &grid, &Uniform).unwrap(),
            GpuKernel::from_core(&Uniform),
        ),
        (
            cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap(),
            GpuKernel::from_core(&Epanechnikov),
        ),
    ] {
        let gpu =
            select_bandwidth_gpu_windowed_kernel(&x, &y, &grid, &config, &device_kernel).unwrap();
        assert_eq!(core_kernel.included[0], 0);
        assert_eq!(core_kernel.included[1], 5);
        assert_eq!(
            gpu.scores[0], 0.0,
            "{}: empty support must score 0",
            device_kernel.name
        );
        assert!(
            rel_close(f64::from(gpu.scores[1]), core_kernel.scores[1], 1e-6),
            "{} h=1.0: windowed {} vs CPU {}",
            device_kernel.name,
            gpu.scores[1],
            core_kernel.scores[1]
        );
    }
}
