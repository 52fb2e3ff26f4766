//! # kcv-gpu-sim — a software SPMD GPU simulator
//!
//! The paper runs its bandwidth search as a CUDA program on a Tesla S10.
//! Rust GPU compute support is immature, so this crate substitutes a
//! *simulated* device that preserves the properties the paper's results
//! hinge on:
//!
//! * **the programming model** — grids of blocks of threads; independent
//!   SPMD kernels ([`launch::launch_independent_map`], or block by block
//!   with a per-block accumulator: [`launch::launch_blocks`]) and
//!   barrier-synchronised cooperative blocks
//!   ([`cooperative::CooperativeBlock`]) with `__syncthreads`-style phases
//!   (plus intra-phase race *detection*);
//! * **the resource ceilings** — a capacity-enforcing global-memory pool
//!   (the paper's n ≤ 20 000 wall on 4 GB) and the 8 KB constant-cache
//!   working set (the ≤ 2 048-bandwidth grid limit);
//! * **the execution economics** — instrumented device code reports
//!   operation counts per thread; a warp-lockstep, SM-scheduled cost model
//!   converts them into simulated cycles/seconds, while rayon executes the
//!   threads truly in parallel on host cores.
//!
//! The building blocks the paper's program needs are included: Harris-style
//! sum and min-with-payload reductions ([`reduce`]) and the per-thread
//! iterative quicksort ([`device_sort`]). The actual port of the paper's
//! program lives in the `kcv-gpu` crate.
//!
//! ```
//! use kcv_gpu_sim::{launch_independent_map, CostModel, DeviceSpec, LaunchConfig};
//!
//! // Square 1000 numbers, one simulated GPU thread each, and get the
//! // warp-lockstep cost report.
//! let spec = DeviceSpec::tesla_s10();
//! let cost = CostModel::default();
//! let (squares, report) = launch_independent_map(
//!     &spec,
//!     &cost,
//!     LaunchConfig::new(1000, 512),
//!     vec![(); 1000], // no per-thread workspace
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
pub mod device_search;
pub mod device_sort;
pub mod error;
pub mod launch;
pub mod memory;
pub mod reduce;

pub use cooperative::{CooperativeBlock, SharedWrites};
pub use cost::{CostModel, LaunchReport, ThreadCounters};
pub use device::DeviceSpec;
pub use device_search::SupportWindow;
pub use device_sort::device_sort_with_aux;
pub use error::{Result, SimError};
pub use launch::{launch_blocks, launch_independent_map, LaunchConfig};
pub use memory::{ConstantMemory, DeviceBuffer, MemoryPool};
pub use reduce::{min_payload_reduction, sum_reduction, sum_reduction_strided};
