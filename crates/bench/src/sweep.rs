//! Shared parameter sweeps used by the `figure1`, `table1`, `table2` and
//! `experiments` binaries, and the builders that turn a sweep into Table I
//! rows, Table II panels and Figure 1 series, so every binary writes the
//! same layout.

use crate::chart::Series;
use crate::programs::{run_program_median, Program};
use crate::table::{fmt_seconds, render, write_csv};
use kcv_data::{Dgp, PaperDgp};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

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
    /// Observations with a defined leave-one-out fit at the selected
    /// bandwidth (numerical programs only).
    pub included: Option<usize>,
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
                    included: r.included,
                }),
                Err(e) => eprintln!("  {} at n={n}: {e}", program.label()),
            }
        }
    }
    rows
}

/// Table I's columns: the CSV header and the display header of each.
const TABLE1_COLUMNS: [(&str, &str); 10] = [
    ("n", "n"),
    ("racine_hayfield", "Racine & Hayfield"),
    ("racine_hayfield_included", "R&H included / n"),
    ("multicore_r", "Multicore R"),
    ("sequential_c", "Sequential C"),
    ("prefix_c", "Prefix C"),
    ("cuda_wall", "CUDA wall"),
    ("cuda_simulated", "CUDA simulated"),
    ("bagged", "Bagged"),
    ("multi_fast", "Multi fast"),
];

/// Builds Table I from a Figure-1 sweep: one row per measured `n` with
/// each program's median wall seconds, the share of observations Program
/// 1's optimum includes and the GPU program's simulated seconds. Writes
/// the rows as CSV to `csv_path` and returns the measured table followed by
/// the paper's, rendered in the same columns.
pub fn table1(rows: &[SweepRow], csv_path: &Path) -> io::Result<String> {
    let measured = table1_rows(rows);
    write_csv(csv_path, &TABLE1_COLUMNS.map(|(csv, _)| csv), &measured)?;
    eprintln!("wrote {}", csv_path.display());
    let nan = f64::NAN;
    let paper: Vec<Vec<f64>> = PAPER_TABLE1
        .iter()
        .map(|&(n, a, b, c, d)| vec![n as f64, a, nan, b, c, nan, d, nan, nan, nan])
        .collect();
    Ok(format!(
        "TABLE I (measured) — RUN TIMES BY PROGRAM AND SAMPLE SIZE (seconds; \
         `R&H included / n` is the share of observations Program 1's optimum \
         includes)\n\n{}\n\
         TABLE I (paper, for comparison)\n\n{}",
        render_table1(&measured),
        render_table1(&paper)
    ))
}

/// Table I's rows in [`TABLE1_COLUMNS`] order, `NaN` where a program did
/// not run.
fn table1_rows(rows: &[SweepRow]) -> Vec<Vec<f64>> {
    let mut sizes: Vec<usize> = rows.iter().map(|r| r.n).collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
        .into_iter()
        .map(|n| {
            let get = |p| rows.iter().find(|r| r.n == n && r.program == p);
            let wall = |p| get(p).map_or(f64::NAN, |r| r.wall_seconds);
            let sim = get(Program::CudaGpu).and_then(|r| r.simulated_seconds);
            let included = get(Program::RacineHayfield).and_then(|r| r.included);
            vec![
                n as f64,
                wall(Program::RacineHayfield),
                included.map_or(f64::NAN, |c| c as f64 / n as f64),
                wall(Program::MulticoreR),
                wall(Program::SequentialC),
                wall(Program::PrefixC),
                wall(Program::CudaGpu),
                sim.unwrap_or(f64::NAN),
                wall(Program::Bagged),
                wall(Program::MultiFast),
            ]
        })
        .collect()
}

/// Renders Table I rows as an ASCII table, `-` for a missing cell.
fn render_table1(rows: &[Vec<f64>]) -> String {
    let headers: Vec<String> = TABLE1_COLUMNS.iter().map(|(_, h)| h.to_string()).collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let mut cells = vec![row[0].to_string()];
            cells.extend(row[1..].iter().map(|&v| {
                if v.is_nan() {
                    "-".into()
                } else {
                    fmt_seconds(v)
                }
            }));
            cells
        })
        .collect();
    render(&headers, &cells)
}

/// Figure 1's series: every program's wall time (the paper's four, the
/// beyond-the-paper univariate three and "Multi fast") plus the two GPU
/// programs' simulated device time.
pub fn figure1_series(rows: &[SweepRow]) -> Vec<Series> {
    let points = |program: Program, value: &dyn Fn(&SweepRow) -> Option<f64>| {
        rows.iter()
            .filter(|r| r.program == program)
            .filter_map(|r| value(r).map(|s| (r.n as f64, s.max(1e-4))))
            .collect()
    };
    let wall = [
        ('r', Program::RacineHayfield),
        ('m', Program::MulticoreR),
        ('s', Program::SequentialC),
        ('p', Program::PrefixC),
        ('g', Program::CudaGpu),
        ('w', Program::WindowedGpu),
        ('b', Program::Bagged),
        ('f', Program::MultiFast),
    ]
    .map(|(mark, program)| Series {
        label: format!("{} (wall)", program.label()),
        mark,
        points: points(program, &|r| Some(r.wall_seconds)),
    });
    let simulated =
        [('G', Program::CudaGpu), ('W', Program::WindowedGpu)].map(|(mark, program)| Series {
            label: format!("{} (simulated device time)", program.label()),
            mark,
            points: points(program, &|r| r.simulated_seconds),
        });
    wall.into_iter().chain(simulated).collect()
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

/// Renders one Table-II panel from its cells: one row per bandwidth count,
/// one column per sample size `n ≤ max_n`, holding the simulated device
/// seconds when `simulated` and the wall seconds otherwise. Returns the
/// ASCII table and the CSV rows.
fn table2_panel(cells: &[Table2Cell], max_n: usize, simulated: bool) -> (String, Vec<Vec<f64>>) {
    let sizes: Vec<usize> = TABLE2_SIZES
        .iter()
        .copied()
        .filter(|&n| n <= max_n)
        .collect();
    let mut headers: Vec<String> = vec!["Bandwidths".into()];
    headers.extend(sizes.iter().map(|n| n.to_string()));
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &k in &TABLE2_BANDWIDTHS {
        let mut row = vec![k.to_string()];
        let mut csv_row = vec![k as f64];
        for &n in &sizes {
            let cell = cells.iter().find(|c| c.n == n && c.k == k);
            let value = cell.map(|c| {
                if simulated {
                    c.simulated_seconds.unwrap_or(f64::NAN)
                } else {
                    c.wall_seconds
                }
            });
            row.push(value.map_or("".into(), fmt_seconds));
            csv_row.push(value.unwrap_or(f64::NAN));
        }
        rows.push(row);
        csv.push(csv_row);
    }
    (render(&headers, &rows), csv)
}

/// Runs the Table-II panels `which` names (`a`, `b`, `w`, or `both` for
/// all three) over `n ≤ max_n`, writes each table's CSV under `results/`
/// and returns the rendered tables. Panel B is written twice: simulated
/// device seconds and the host wall seconds of the simulation.
pub fn table2(which: &str, max_n: usize, reps: usize) -> io::Result<String> {
    let mut csv_headers: Vec<String> = vec!["bandwidths".into()];
    csv_headers.extend(
        TABLE2_SIZES
            .iter()
            .filter(|&&n| n <= max_n)
            .map(|n| format!("n{n}")),
    );
    let csv_headers: Vec<&str> = csv_headers.iter().map(String::as_str).collect();
    let run = |panel: &str, program: Program| {
        (which == panel || which == "both").then(|| {
            eprintln!(
                "Table II panel {panel} ({}), n ≤ {max_n}, {reps} reps",
                program.label()
            );
            table2_sweep(program, max_n, reps)
        })
    };
    let mut text = String::new();
    let mut emit = |cells: &[Table2Cell], simulated: bool, path: &str, title: &str| {
        let (table, csv) = table2_panel(cells, max_n, simulated);
        let _ = writeln!(text, "TABLE II — {title}\n\n{table}");
        write_csv(Path::new(path), &csv_headers, &csv).map(|()| eprintln!("wrote {path}"))
    };
    if let Some(cells) = run("a", Program::SequentialC) {
        emit(
            &cells,
            false,
            "results/table2a.csv",
            "PANEL A: SEQUENTIAL PROGRAM (wall seconds)",
        )?;
    }
    if let Some(cells) = run("b", Program::CudaGpu) {
        let title = "PANEL B: GPU PROGRAM (simulated Tesla-S10 seconds)";
        emit(&cells, true, "results/table2b_simulated.csv", title)?;
        let title = "PANEL B': GPU PROGRAM (host wall seconds for the simulation)";
        emit(&cells, false, "results/table2b_wall.csv", title)?;
    }
    if let Some(cells) = run("w", Program::WindowedGpu) {
        let title = "PANEL W: WINDOWED GPU PROGRAM (simulated Tesla-S10 seconds, \
                     O(n·(deg+2)+k) device bytes)";
        emit(&cells, true, "results/table2w_simulated.csv", title)?;
    }
    Ok(text)
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
        assert_eq!(
            rows.iter()
                .filter(|r| r.program == Program::MultiFast)
                .count(),
            2
        );
        assert!(rows
            .iter()
            .filter(|r| r.program == Program::CudaGpu || r.program == Program::WindowedGpu)
            .all(|r| r.simulated_seconds.is_some()));
        // One Table I row per size, every column measured.
        let table = table1_rows(&rows);
        assert_eq!(table.len(), 2);
        assert!(table.iter().all(|r| r.len() == TABLE1_COLUMNS.len()));
        assert!(table.iter().flatten().all(|v| !v.is_nan()));
        // Program 1's included share is its own count over n.
        for row in &table {
            let r = rows
                .iter()
                .find(|r| r.n as f64 == row[0] && r.program == Program::RacineHayfield)
                .unwrap();
            assert_eq!(row[2], r.included.unwrap() as f64 / row[0]);
            assert!(row[2] > 0.0 && row[2] <= 1.0);
        }
        assert!(render_table1(&table).contains("R&H included / n"));
        // Eight wall series and the two GPU programs' simulated series.
        let series = figure1_series(&rows);
        assert_eq!(series.len(), 10);
        assert!(series.iter().all(|s| s.points.len() == 2));
    }

    #[test]
    fn table2_respects_k_leq_n() {
        let cells = table2_sweep(Program::SequentialC, 100, 1);
        // n = 50: k ∈ {5,10,50}; n = 100: k ∈ {5,10,50,100}.
        assert_eq!(cells.len(), 7);
        assert!(cells.iter().all(|c| c.k <= c.n));
        // One panel row per bandwidth count: k, then one column per n.
        let (_, csv) = table2_panel(&cells, 100, false);
        assert_eq!(csv.len(), TABLE2_BANDWIDTHS.len());
        assert!(csv.iter().all(|r| r.len() == 3));
    }
}
