//! Reproduces **Table I — run times by program and sample size**.
//!
//! Usage: `cargo run -p kcv-bench --release --bin table1 -- [--max-n N]
//! [--reps R] [--k K] [--nmulti M] [--out results/table1.csv]`
//!
//! Defaults keep the run tractable on a laptop (`--max-n 5000`); pass
//! `--max-n 20000 --reps 5` for the paper's full protocol.

use kcv_bench::sweep::{figure1_sweep, table1};
use kcv_bench::table::{arg_parse, arg_value};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_n = arg_parse(&args, "--max-n", 5_000usize);
    let reps = arg_parse(&args, "--reps", 3usize);
    let k = arg_parse(&args, "--k", 50usize);
    let nmulti = arg_parse(&args, "--nmulti", 2usize);
    let out = arg_value(&args, "--out").unwrap_or_else(|| "results/table1.csv".into());

    eprintln!(
        "Table I sweep: n ≤ {max_n}, k = {k}, {reps} reps, nmulti = {nmulti} \
         (wall-clock; GPU column also reports simulated Tesla-S10 seconds)"
    );
    let rows = figure1_sweep(max_n, k, reps, nmulti);
    println!(
        "\n{}",
        table1(&rows, &PathBuf::from(out)).expect("write CSV")
    );
}
