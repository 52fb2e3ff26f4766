//! End-to-end error-path coverage: every public entry point should reject
//! malformed input with the *right* error, never panic, and leave
//! reusable state behind.

use kernelcv::core::Error;
use kernelcv::gpu::GpuError;
use kernelcv::gpu_sim::SimError;
use kernelcv::prelude::*;

fn tiny() -> (Vec<f64>, Vec<f64>) {
    (vec![0.1, 0.9], vec![1.0, 2.0])
}

#[test]
fn length_mismatch_is_reported_everywhere() {
    let x = vec![1.0, 2.0, 3.0];
    let y = vec![1.0, 2.0];
    assert!(matches!(
        NadarayaWatson::new(&x, &y, Epanechnikov, 0.5).unwrap_err(),
        Error::LengthMismatch { x_len: 3, y_len: 2 }
    ));
    assert!(matches!(
        kernelcv::core::cv::cv_profile_sorted(
            &x,
            &y,
            &BandwidthGrid::from_values(vec![0.5]).unwrap(),
            &Epanechnikov
        )
        .unwrap_err(),
        Error::LengthMismatch { .. }
    ));
    assert!(npregbw(&x, &y, NpRegBwOptions::default()).is_err());
    let grid = BandwidthGrid::from_values(vec![0.5]).unwrap();
    assert!(matches!(
        select_bandwidth_gpu(&x, &y, &grid, &GpuConfig::default()).unwrap_err(),
        GpuError::Core(Error::LengthMismatch { .. })
    ));
}

#[test]
fn non_finite_data_is_caught_before_any_work() {
    let x = vec![0.1, f64::NAN, 0.9];
    let y = vec![1.0, 2.0, 3.0];
    assert!(matches!(
        SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(10))
            .select(&x, &y)
            .unwrap_err(),
        Error::NonFiniteData {
            which: "x",
            index: 1
        }
    ));
    let y_bad = vec![1.0, f64::INFINITY];
    let (x2, _) = tiny();
    assert!(matches!(
        NadarayaWatson::new(&x2, &y_bad, Epanechnikov, 0.5).unwrap_err(),
        Error::NonFiniteData {
            which: "y",
            index: 1
        }
    ));
}

#[test]
fn invalid_bandwidths_and_grids() {
    let (x, y) = tiny();
    for h in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        assert!(matches!(
            NadarayaWatson::new(&x, &y, Epanechnikov, h).unwrap_err(),
            Error::InvalidBandwidth(_)
        ));
    }
    assert!(matches!(
        BandwidthGrid::from_values(vec![0.5, 0.5]).unwrap_err(),
        Error::InvalidGrid(_)
    ));
    assert!(matches!(
        BandwidthGrid::linear(0.5, 0.1, 5).unwrap_err(),
        Error::InvalidGrid(_)
    ));
}

#[test]
fn degenerate_domain_flows_through_selectors() {
    let x = vec![3.0; 20];
    let y: Vec<f64> = (0..20).map(|i| i as f64).collect();
    assert!(matches!(
        BandwidthGrid::paper_default(&x, 10).unwrap_err(),
        Error::DegenerateDomain
    ));
    assert!(npregbw(&x, &y, NpRegBwOptions::default()).is_err());
    assert!(kernelcv::core::select::select_bandwidth(&x, &y).is_err());
}

#[test]
fn gpu_resource_errors_carry_details() {
    let (x, y) = tiny();
    let too_fine = BandwidthGrid::linear(1e-6, 1.0, 3_000).unwrap();
    match select_bandwidth_gpu(&x, &y, &too_fine, &GpuConfig::default()) {
        Err(GpuError::TooManyBandwidths {
            requested: 3_000,
            max: 2_048,
        }) => {}
        other => panic!("unexpected: {other:?}"),
    }
    let mut starved = GpuConfig::default();
    starved.spec.global_mem_bytes = 16; // comically small device
    let grid = BandwidthGrid::from_values(vec![0.5]).unwrap();
    match select_bandwidth_gpu(&x, &y, &grid, &starved) {
        Err(GpuError::Sim(SimError::OutOfMemory { capacity: 16, .. })) => {}
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn error_messages_are_human_readable() {
    let messages = [
        Error::SampleTooSmall { n: 1, required: 2 }.to_string(),
        Error::NoValidBandwidth.to_string(),
        Error::DegenerateDomain.to_string(),
        GpuError::TooManyBandwidths {
            requested: 9,
            max: 8,
        }
        .to_string(),
        SimError::SharedMemoryRace {
            index: 3,
            threads: (0, 1),
        }
        .to_string(),
    ];
    for m in messages {
        assert!(m.len() > 15, "terse message: {m}");
        assert!(!m.contains("Error"), "debug-ish message: {m}");
    }
}

#[test]
fn failed_runs_leave_no_device_memory_behind() {
    use kernelcv::gpu_sim::MemoryPool;
    let pool = MemoryPool::new(1_000);
    for _ in 0..50 {
        let _ok = pool.alloc::<u8>(600).unwrap();
        assert!(pool.alloc::<u8>(600).is_err());
    }
    assert_eq!(pool.used(), 0, "leak after repeated failure cycles");
}
