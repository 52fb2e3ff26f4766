//! Reproduces **Table II — run times by number of bandwidths calculated**:
//! panel A (sequential sorted grid search), panel B (the GPU program), and
//! panel W (beyond the paper: the O(n)-memory windowed GPU program).
//!
//! Usage: `cargo run -p kcv-bench --release --bin table2 -- [--panel
//! a|b|w|both] [--max-n N] [--reps R]`

use kcv_bench::sweep::table2;
use kcv_bench::table::{arg_parse, arg_value};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = arg_value(&args, "--panel").unwrap_or_else(|| "both".into());
    let max_n = arg_parse(&args, "--max-n", 5_000usize);
    let reps = arg_parse(&args, "--reps", 1usize);
    println!("{}", table2(&which, max_n, reps).expect("write CSV"));
}
