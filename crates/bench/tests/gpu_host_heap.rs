//! The simulated GPU's host heap stays a small multiple of the device
//! memory it simulates.
//!
//! The windowed program's device buffers are host memory too, so its host
//! heap peak can never be below its `device_bytes_peak`. What comes on top
//! is the simulator's own bookkeeping and the host-side tables: the f64
//! master prefix tables (as large as the device tables), the sorted f32
//! sample, and one cycle count per simulated thread. Per-thread counter
//! records, a host copy of the tables in the device layout, or per-phase
//! buffers in the reductions push the ratio past the bound.
//!
//! This file holds a single test: the counting allocator of `kcv-bench`
//! (its `#[global_allocator]`) is process-wide, so no other test may
//! allocate while it measures.

use kcv_bench::alloc_track;
use kcv_core::grid::BandwidthGrid;
use kcv_data::{Dgp, PaperDgp};
use kcv_gpu::{select_bandwidth_gpu_windowed, GpuConfig};

#[test]
fn windowed_host_heap_is_at_most_two_and_a_half_device_peaks() {
    // The benchmark's one-shot size: about 1.1 MB of device memory, and
    // the fixed per-worker bookkeeping is a small part of the heap.
    let n = 20_000;
    let sample = PaperDgp.sample(n, 11);
    let grid = BandwidthGrid::paper_default(&sample.x, 100).expect("grid");
    let config = GpuConfig::default();
    alloc_track::reset_peak();
    let baseline = alloc_track::current_bytes();
    let run = select_bandwidth_gpu_windowed(&sample.x, &sample.y, &grid, &config).expect("run");
    let host = alloc_track::peak_bytes().saturating_sub(baseline);
    let device = run.report.device_bytes_peak as u64;
    assert!(host >= device, "host {host} B below device {device} B");
    assert!(
        2 * host <= 5 * device,
        "host heap peak {host} B is {:.2}× the device peak {device} B (bound 2.5×)",
        host as f64 / device as f64
    );
}
