//! # kcv-gpu — the paper's CUDA program on the simulated device
//!
//! A structure-faithful port of the CUDA optimal-bandwidth program of
//! Rohlfs & Zahran (IPPS 2017) onto the `kcv-gpu-sim` SPMD simulator:
//!
//! * the §IV-A allocation pattern — two `n×n` f32 matrices (distances and
//!   responses, one row per thread), the `n×k` sum matrices, and the
//!   bandwidth array in constant memory (≤ 2 048 values / 8 KB cache);
//! * the §IV-B sequence of operations — per-thread fill + iterative
//!   quicksort, ascending-bandwidth running sums, leave-one-out exclusion
//!   of the thread's own observation, the index switch to bandwidth-major
//!   layout, `k` Harris summation reductions, and a final min-with-payload
//!   reduction that leaves the optimal bandwidth in shared memory;
//! * single-precision arithmetic throughout, as the paper requires for
//!   early-device compatibility.
//!
//! The selected bandwidth is validated against the `f64` CPU reference in
//! `kcv-core` (see this crate's tests and the workspace integration tests),
//! mirroring the paper's §IV-C methodology of checking the sequential C and
//! CUDA programs against each other.
//!
//! Alongside the faithful port, [`select_bandwidth_gpu_windowed`] runs the
//! *windowed* program (module [`windowed`]' docs): the prefix-moment
//! strategy on the device, needing only `O(n·(deg+2) + k)` bytes instead of
//! the `O(n²)` matrices — it selects the same bandwidth while running far
//! past the paper's n ≈ 23 000 four-gigabyte wall. Its prefix tables are
//! compensated f32 pairs through kernel degree 4 and true f64 from degree 5
//! on, chosen from the kernel degree alone.
//!
//! Both programs run on one simulated device through one driver (allocate,
//! launch, reduce per bandwidth, read the sums back, minimum, account), as
//! the paper's program runs on one Tesla S10. Values the f32 device cannot
//! hold are rejected with [`GpuError::NotF32`].
//!
//! ```
//! use kcv_core::grid::BandwidthGrid;
//! use kcv_gpu::{select_bandwidth_gpu, GpuConfig};
//!
//! let x: Vec<f64> = (0..100).map(|i| i as f64 / 99.0).collect();
//! let y: Vec<f64> = x.iter().map(|&v| 0.5 * v + 10.0 * v * v).collect();
//! let grid = BandwidthGrid::paper_default(&x, 25).unwrap();
//! let run = select_bandwidth_gpu(&x, &y, &grid, &GpuConfig::default()).unwrap();
//! assert!(run.bandwidth > 0.0 && run.bandwidth <= 1.0);
//! // Cost accounting comes with every run.
//! assert!(run.report.total_simulated_seconds > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod device_search;
mod driver;
mod error;
mod gpu_kernel_type;
mod kernel;
mod pipeline;
pub mod windowed;

pub use config::GpuConfig;
pub use driver::{GpuRun, PipelineReport};
pub use error::{GpuError, Result};
pub use gpu_kernel_type::{GpuKernel, MAX_DEVICE_DEGREE};
pub use pipeline::{required_device_bytes, select_bandwidth_gpu, select_bandwidth_gpu_kernel};
pub use windowed::{
    required_device_bytes_windowed, select_bandwidth_gpu_windowed,
    select_bandwidth_gpu_windowed_kernel, WindowedReport, WindowedRun,
};
