//! # kcv-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | artefact | binary |
//! |---|---|
//! | Figure 1 (run times by program and sample size, log-x) | `figure1` |
//! | Table I (same data, tabulated) | `table1` |
//! | Table II panels A, B and W (run time vs bandwidth count) | `table2` |
//! | §IV-A/§V memory-wall and constant-cache limits | `memory_limit` |
//! | past-the-paper bagged scaling study (n = 10⁵..10⁷) | `scaling` |
//! | everything above, written to `results/` | `experiments` |
//!
//! Criterion ablation benches live under `benches/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc_track;
pub mod chart;
pub mod json;
pub mod programs;
pub mod report;
pub mod sweep;
pub mod table;

pub use programs::{run_program, Program, ProgramResult};
pub use report::{collect_report, PerfReport, ReportConfig};

/// Every `kcv-bench` binary and test runs under the counting allocator so
/// host-memory peaks in `BENCH_report.json` are measured, not modelled.
#[global_allocator]
static ALLOC: alloc_track::CountingAllocator = alloc_track::CountingAllocator;
