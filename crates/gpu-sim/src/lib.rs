//! # kcv-gpu-sim — a software SPMD GPU simulator
//!
//! The paper runs its bandwidth search as a CUDA program on a Tesla S10.
//! Rust GPU compute support is immature, so this crate substitutes a
//! *simulated* device that preserves the properties the paper's results
//! hinge on:
//!
//! * **the programming model** — grids of blocks of threads; independent
//!   SPMD kernels launched block by block ([`launch::launch_blocks`]: each
//!   block owns one workspace, such as its group of per-thread rows or a
//!   block accumulator) and barrier-synchronised cooperative blocks
//!   ([`cooperative::CooperativeBlock`]) with `__syncthreads`-style phases
//!   (plus intra-phase race *detection*);
//! * **the resource ceilings** — a capacity-enforcing global-memory pool
//!   (the paper's n ≤ 20 000 wall on 4 GB) and the 8 KB constant-cache
//!   working set (the ≤ 2 048-bandwidth grid limit);
//! * **the execution economics** — instrumented device code reports
//!   operation counts per thread; a warp-lockstep, SM-scheduled cost model
//!   converts them into simulated cycles/seconds. On the host, a launch's
//!   blocks run in parallel on rayon workers, one block per item, while a
//!   cooperative block (a reduction's barrier phases) runs its threads in
//!   thread order on the calling thread.
//!
//! The simulator's own host cost is kept small, since every simulated
//! statistic is a function of the per-thread operation counts alone: a
//! launch keeps one cycle count per thread and one counter total per
//! block ([`launch`]), a barrier phase allocates nothing ([`cooperative`]),
//! and a block kernel may step a warp's threads together
//! ([`launch::launch_block_kernel`]).
//!
//! The building blocks the paper's program needs are included: Harris-style
//! sum and min-with-payload reductions ([`reduce`]) and the per-thread
//! iterative quicksort ([`device_sort`]). The actual port of the paper's
//! program lives in the `kcv-gpu` crate.
//!
//! ```
//! use kcv_gpu_sim::{launch_blocks, CostModel, DeviceSpec, LaunchConfig};
//!
//! // Square 1000 numbers, one simulated GPU thread each, in blocks of 512
//! // threads, and get the warp-lockstep cost report.
//! let spec = DeviceSpec::tesla_s10();
//! let cost = CostModel::default();
//! let (squares, report) = launch_blocks(
//!     &spec,
//!     &cost,
//!     LaunchConfig::new(1000, 512),
//!     vec![(); 2], // no per-block workspace: one unit per block
//!     |tid, _, counters| {
//!         counters.flop(1);
//!         (tid * tid) as u64
//!     },
//! ).unwrap();
//! assert_eq!(squares[31], 961);
//! assert_eq!(report.totals.flops, 1000);
//! assert!(report.simulated_seconds > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cooperative;
pub mod cost;
pub mod device;
pub mod device_sort;
pub mod error;
pub mod launch;
pub mod memory;
pub mod reduce;

pub use cooperative::{CooperativeBlock, SharedWrites};
pub use cost::{CostModel, LaunchReport, ThreadCounters};
pub use device::DeviceSpec;
pub use device_sort::device_sort_with_aux;
pub use error::{Result, SimError};
pub use launch::{launch_block_kernel, launch_blocks, LaunchConfig};
pub use memory::{ConstantMemory, DeviceBuffer, MemoryPool};
pub use reduce::{min_payload_reduction, sum_reduction, sum_reduction_strided};
