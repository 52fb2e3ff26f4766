//! Shared parameter sweeps used by the `figure1`, `table1`, and `table2`
//! binaries.

use crate::programs::{run_program_median, Program};
use kcv_data::{Dgp, PaperDgp};

/// The paper's Table I sample sizes.
pub const TABLE1_SIZES: [usize; 8] = [50, 100, 500, 1_000, 2_000, 5_000, 10_000, 20_000];

/// The paper's Table II bandwidth counts.
pub const TABLE2_BANDWIDTHS: [usize; 7] = [5, 10, 50, 100, 500, 1_000, 2_000];

/// The paper's Table II sample sizes.
pub const TABLE2_SIZES: [usize; 7] = [50, 100, 500, 1_000, 5_000, 10_000, 20_000];

/// The paper's Table I reference numbers (seconds), for side-by-side
/// reporting: `(n, racine_hayfield, multicore_r, sequential_c, cuda_gpu)`.
pub const PAPER_TABLE1: [(usize, f64, f64, f64, f64); 7] = [
    (50, 0.04, 1.16, 0.00, 0.09),
    (100, 0.05, 1.43, 0.01, 0.09),
    (500, 0.38, 1.46, 0.07, 0.15),
    (1_000, 1.12, 1.49, 0.27, 0.24),
    (2_000, 16.71, 13.59, 4.89, 1.83),
    (10_000, 68.69, 32.08, 19.24, 7.10),
    (20_000, 232.51, 124.70, 80.92, 32.49),
];

/// One measured cell of the Figure-1 / Table-I sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Sample size.
    pub n: usize,
    /// Program measured.
    pub program: Program,
    /// Median wall-clock seconds.
    pub wall_seconds: f64,
    /// Simulated device seconds (GPU program only).
    pub simulated_seconds: Option<f64>,
    /// Selected bandwidth.
    pub bandwidth: f64,
}

/// Runs the Figure-1/Table-I sweep: all programs (the paper's four plus
/// the beyond-the-paper univariate three, and the `d = 2` "Multi fast"
/// full-grid selector chained after them) over the
/// paper's sample sizes up to `max_n`, `k` grid bandwidths, `reps`
/// repetitions, `nmulti` optimiser restarts. Sizes are generated from the
/// paper DGP with a fixed seed per `n`.
pub fn figure1_sweep(max_n: usize, k: usize, reps: usize, nmulti: usize) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for &n in TABLE1_SIZES.iter().filter(|&&n| n <= max_n) {
        let sample = PaperDgp.sample(n, 1_000 + n as u64);
        for program in Program::all().into_iter().chain([Program::MultiFast]) {
            match run_program_median(program, &sample.x, &sample.y, k.min(n), nmulti, reps) {
                Ok(r) => rows.push(SweepRow {
                    n,
                    program,
                    wall_seconds: r.wall_seconds,
                    simulated_seconds: r.simulated_seconds,
                    bandwidth: r.bandwidth,
                }),
                Err(e) => eprintln!("  {} at n={n}: {e}", program.label()),
            }
        }
    }
    rows
}

/// One measured cell of the Table-II sweep.
#[derive(Debug, Clone)]
pub struct Table2Cell {
    /// Sample size.
    pub n: usize,
    /// Bandwidth-grid size.
    pub k: usize,
    /// Median wall-clock seconds.
    pub wall_seconds: f64,
    /// Simulated device seconds (panel B only).
    pub simulated_seconds: Option<f64>,
}

/// Runs one Table-II panel: `program` (SequentialC for panel A, CudaGpu for
/// panel B) over the paper's `(k, n)` lattice with `k ≤ n` and `n ≤ max_n`.
pub fn table2_sweep(program: Program, max_n: usize, reps: usize) -> Vec<Table2Cell> {
    let mut cells = Vec::new();
    for &n in TABLE2_SIZES.iter().filter(|&&n| n <= max_n) {
        let sample = PaperDgp.sample(n, 2_000 + n as u64);
        for &k in TABLE2_BANDWIDTHS.iter().filter(|&&k| k <= n) {
            match run_program_median(program, &sample.x, &sample.y, k, 1, reps) {
                Ok(r) => cells.push(Table2Cell {
                    n,
                    k,
                    wall_seconds: r.wall_seconds,
                    simulated_seconds: r.simulated_seconds,
                }),
                Err(e) => eprintln!("  {} at n={n} k={k}: {e}", program.label()),
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_figure1_sweep_produces_all_cells() {
        let rows = figure1_sweep(100, 10, 1, 1);
        // 2 sizes × (7 univariate programs + the chained Multi fast run).
        assert_eq!(rows.len(), 16);
        assert!(rows.iter().all(|r| r.wall_seconds >= 0.0));
        assert_eq!(rows.iter().filter(|r| r.program == Program::MultiFast).count(), 2);
        assert!(rows
            .iter()
            .filter(|r| r.program == Program::CudaGpu || r.program == Program::WindowedGpu)
            .all(|r| r.simulated_seconds.is_some()));
    }

    #[test]
    fn table2_respects_k_leq_n() {
        let cells = table2_sweep(Program::SequentialC, 100, 1);
        // n = 50: k ∈ {5,10,50}; n = 100: k ∈ {5,10,50,100}.
        assert_eq!(cells.len(), 7);
        assert!(cells.iter().all(|c| c.k <= c.n));
    }
}
