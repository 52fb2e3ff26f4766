//! The paper's resource-ceiling claims, exercised through the public API.

use kernelcv::gpu::{required_device_bytes, GpuError};
use kernelcv::gpu_sim::{ConstantMemory, DeviceSpec, MemoryPool, SimError};
use kernelcv::prelude::*;

#[test]
fn constant_memory_caps_the_grid_at_2048_bandwidths() {
    let sample = PaperDgp.sample(50, 1);
    let ok_grid = BandwidthGrid::linear(0.001, 1.0, 2_048).unwrap();
    assert!(select_bandwidth_gpu(&sample.x, &sample.y, &ok_grid, &GpuConfig::default()).is_ok());
    let bad_grid = BandwidthGrid::linear(0.001, 1.0, 2_049).unwrap();
    let err =
        select_bandwidth_gpu(&sample.x, &sample.y, &bad_grid, &GpuConfig::default()).unwrap_err();
    assert_eq!(
        err,
        GpuError::TooManyBandwidths {
            requested: 2_049,
            max: 2_048
        }
    );
}

#[test]
fn memory_requirement_formula_matches_a_dry_run() {
    // The dry-run pool check and the closed-form requirement must agree on
    // where the 4 GB wall falls.
    let spec = DeviceSpec::tesla_s10();
    let f = std::mem::size_of::<f32>();
    for n in [10_000usize, 20_000, 23_000, 24_000, 30_000] {
        let k = 50;
        let plan = vec![
            n * f,
            n * f,
            n * n * f,
            n * n * f,
            n * k * f,
            n * k * f,
            n * k * f,
            k * f,
        ];
        let pool = MemoryPool::for_device(&spec);
        let dry = pool.check_fit(&plan).is_ok();
        let formula = required_device_bytes(n, k) <= spec.global_mem_bytes;
        assert_eq!(dry, formula, "disagreement at n = {n}");
    }
    // And the wall is where the paper's scaling argument puts it: past
    // n = 20,000 (between 23k and 24k for this allocation set).
    assert!(required_device_bytes(20_000, 50) <= spec.global_mem_bytes);
    assert!(required_device_bytes(24_000, 50) > spec.global_mem_bytes);
}

#[test]
fn oversized_run_fails_with_out_of_memory() {
    // Scale the device down so the failure reproduces cheaply.
    let mut config = GpuConfig::default();
    config.spec.global_mem_bytes = 4 << 20; // 4 MiB "device"
    let sample = PaperDgp.sample(800, 2); // needs 2·800²·4 ≈ 5.1 MiB
    let grid = BandwidthGrid::paper_default(&sample.x, 20).unwrap();
    match select_bandwidth_gpu(&sample.x, &sample.y, &grid, &config) {
        Err(GpuError::Sim(SimError::OutOfMemory { capacity, .. })) => {
            assert_eq!(capacity, 4 << 20);
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
    // Halving n brings it back under the ceiling.
    let small = PaperDgp.sample(400, 2);
    let grid = BandwidthGrid::paper_default(&small.x, 20).unwrap();
    assert!(select_bandwidth_gpu(&small.x, &small.y, &grid, &config).is_ok());
}

#[test]
fn bigger_device_raises_both_ceilings() {
    let bigger = GpuConfig {
        spec: DeviceSpec {
            global_mem_bytes: 24 << 30,
            constant_cache_bytes: 64 * 1024,
            ..DeviceSpec::tesla_s10()
        },
        ..GpuConfig::default()
    };
    assert!(bigger.spec.global_mem_bytes > DeviceSpec::tesla_s10().global_mem_bytes);
    assert!(bigger.spec.max_constant_f32() > 2_048);
    let sample = PaperDgp.sample(100, 3);
    let grid = BandwidthGrid::linear(0.001, 1.0, 4_096).unwrap();
    // 4,096 bandwidths fit in the 64 KB constant cache.
    assert!(select_bandwidth_gpu(&sample.x, &sample.y, &grid, &bigger).is_ok());
}

#[test]
fn constant_memory_is_byte_accurate() {
    let spec = DeviceSpec::tesla_s10();
    // 2048 f32 = 8192 B exactly.
    assert!(ConstantMemory::new(&spec, &vec![0.0f32; 2_048]).is_ok());
    // 1024 f64 = 8192 B too.
    assert!(ConstantMemory::new(&spec, &vec![0.0f64; 1_024]).is_ok());
    assert!(ConstantMemory::new(&spec, &vec![0.0f64; 1_025]).is_err());
}

#[test]
fn simulated_time_scales_with_sample_size() {
    // Device time should grow super-linearly in n (n threads × n-element
    // rows), reproducing the shape of the paper's Table I GPU column.
    let time_at = |n: usize| {
        let sample = PaperDgp.sample(n, 4);
        let grid = BandwidthGrid::paper_default(&sample.x, 50).unwrap();
        select_bandwidth_gpu(&sample.x, &sample.y, &grid, &GpuConfig::default())
            .unwrap()
            .report
            .total_simulated_seconds
    };
    let t500 = time_at(500);
    let t2000 = time_at(2_000);
    assert!(
        t2000 > 4.0 * t500,
        "4× the data should cost ≥ 4× device time: {t500} → {t2000}"
    );
}

#[test]
fn bandwidth_count_is_nearly_free_on_the_gpu() {
    // Table II panel B: k = 5 → 2000 moves the run time by only a few
    // percent. Check the simulated times.
    let sample = PaperDgp.sample(2_048, 5);
    let time_with_k = |k: usize| {
        let grid = BandwidthGrid::paper_default(&sample.x, k).unwrap();
        select_bandwidth_gpu(&sample.x, &sample.y, &grid, &GpuConfig::default())
            .unwrap()
            .report
            .total_simulated_seconds
    };
    let t5 = time_with_k(5);
    let t2000 = time_with_k(2_000);
    assert!(
        t2000 < t5 * 1.6,
        "k should be nearly free on the sorted GPU path: k=5 → {t5}, k=2000 → {t2000}"
    );
}
