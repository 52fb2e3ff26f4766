//! Hostile input through all four public selection functions: each returns
//! `Err` and never panics.

use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_gpu::{
    select_bandwidth_gpu, select_bandwidth_gpu_kernel, select_bandwidth_gpu_windowed,
    select_bandwidth_gpu_windowed_kernel, GpuConfig, GpuError, GpuKernel,
};
use kcv_gpu_sim::SimError;

/// Runs every public selection function on one input; returns the selected
/// bandwidths or errors, in a fixed order.
fn all_four(x: &[f64], y: &[f64], grid: &BandwidthGrid) -> Vec<Result<f64, GpuError>> {
    all_four_with(x, y, grid, &GpuConfig::default())
}

/// [`all_four`] under the configuration `c`.
fn all_four_with(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    c: &GpuConfig,
) -> Vec<Result<f64, GpuError>> {
    let k = GpuKernel::from_core(&Epanechnikov);
    vec![
        select_bandwidth_gpu(x, y, grid, c).map(|r| r.bandwidth),
        select_bandwidth_gpu_kernel(x, y, grid, c, &k).map(|r| r.bandwidth),
        select_bandwidth_gpu_windowed(x, y, grid, c).map(|r| r.bandwidth),
        select_bandwidth_gpu_windowed_kernel(x, y, grid, c, &k).map(|r| r.bandwidth),
    ]
}

fn assert_all_err(x: &[f64], y: &[f64], grid: &BandwidthGrid, want: &GpuError) {
    for (i, result) in all_four(x, y, grid).into_iter().enumerate() {
        assert_eq!(result.as_ref(), Err(want), "function {i}");
    }
}

#[test]
fn values_outside_f32_range_are_rejected_by_name_and_index() {
    // 1e300 narrows to f32 infinity; before the check the classic program
    // scored [0, 0, 0.667, 0.667, 0.667] and the windowed one all zeros.
    let grid = BandwidthGrid::linear(0.1, 1.0, 5).unwrap();
    let want = GpuError::NotF32 {
        array: "x",
        index: 2,
        value: 1e300,
    };
    assert_all_err(&[1e-300, 0.5, 1e300], &[1.0, 2.0, 3.0], &grid, &want);
    let want = GpuError::NotF32 {
        array: "y",
        index: 0,
        value: -1e39,
    };
    assert_all_err(&[0.0, 0.5, 1.0], &[-1e39, 2.0, 3.0], &grid, &want);
    assert!(want.to_string().contains("y[0]"), "{want}");

    let x = [0.0, 0.5, 1.0];
    let y = [1.0, 2.0, 3.0];
    // A bandwidth that underflows to zero, and one that overflows.
    let grid = BandwidthGrid::from_values(vec![1e-50, 0.5]).unwrap();
    let want = GpuError::NotF32 {
        array: "bandwidths",
        index: 0,
        value: 1e-50,
    };
    assert_all_err(&x, &y, &grid, &want);
    let grid = BandwidthGrid::from_values(vec![0.5, 1e39]).unwrap();
    let want = GpuError::NotF32 {
        array: "bandwidths",
        index: 1,
        value: 1e39,
    };
    assert_all_err(&x, &y, &grid, &want);
}

#[test]
fn non_finite_and_short_samples_are_rejected() {
    let grid = BandwidthGrid::linear(0.1, 1.0, 5).unwrap();
    let cases: [(&[f64], &[f64]); 6] = [
        (&[0.0, f64::NAN, 1.0], &[1.0, 2.0, 3.0]),
        (&[0.0, 0.5, f64::INFINITY], &[1.0, 2.0, 3.0]),
        (&[0.0, 0.5, 1.0], &[f64::NEG_INFINITY, 2.0, 3.0]),
        (&[0.5], &[1.0]),
        (&[], &[]),
        (&[0.0, 0.5, 1.0], &[1.0, 2.0]),
    ];
    for (x, y) in cases {
        for (i, result) in all_four(x, y, &grid).into_iter().enumerate() {
            assert!(
                matches!(result, Err(GpuError::Core(_))),
                "function {i} on x = {x:?}, y = {y:?}: {result:?}"
            );
        }
    }
}

#[test]
fn zero_block_sizes_are_rejected_by_every_program() {
    let x: Vec<f64> = (0..50).map(|i| f64::from(i) / 49.0).collect();
    let y: Vec<f64> = x.iter().map(|&v| v * v).collect();
    let grid = BandwidthGrid::paper_default(&x, 8).unwrap();
    // A zero main-kernel block: the windowed program sized its block
    // partials with ⌈n/0⌉ and panicked; every program now returns the
    // classic program's launch error.
    let zero_block = GpuConfig::default().with_threads_per_block(0);
    let want = GpuError::Sim(SimError::InvalidLaunch("block has zero threads".into()));
    for (i, result) in all_four_with(&x, &y, &grid, &zero_block)
        .into_iter()
        .enumerate()
    {
        assert_eq!(result.as_ref(), Err(&want), "function {i}");
    }
}
