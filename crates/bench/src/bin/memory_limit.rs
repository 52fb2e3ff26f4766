//! Reproduces the paper's two resource-ceiling claims, then breaks the
//! first one with the windowed program:
//!
//! 1. §V: the GPU program "cannot run at sample sizes greater than 20,000,
//!    because the memory requirements become prohibitive" — the two n×n
//!    f32 matrices (plus the n×k intermediates) exhaust the Tesla's 4 GB.
//!    With this port's allocation set the wall falls between n = 23,000 and
//!    n = 24,000; the paper's extra intermediates put theirs at 20,000.
//! 2. §IV-A: "no more than 2,048 bandwidth values can be considered" —
//!    the 8 KB constant-cache working set.
//! 3. Beyond the paper: the windowed program's O(n·(deg+2) + k) footprint
//!    never approaches the ceiling — this binary *runs* it (not a dry-run
//!    check) at every size the classic program refuses, up to n = 100,000
//!    on the same 4 GB device, and verifies the selected bandwidth against
//!    the f64 CPU prefix-moment reference at each size. Beside each measured
//!    device peak it prints the run's host heap peak (the counting
//!    allocator of `kcv-bench`), which includes the simulated device.
//!
//! It exits non-zero unless all three hold: n = 23,000 fits and n = 24,000
//! does not; k = 2,048 bandwidths fit and 2,049 are rejected; every
//! windowed row ran and agrees with the CPU reference.
//!
//! Usage: `cargo run -p kcv-bench --release --bin memory_limit -- [--allocate]
//! [--max-windowed-n N]` (by default the classic capacity check is a dry
//! run; `--allocate` performs the real simulated-device allocations, which
//! back onto host RAM. `--max-windowed-n` caps the windowed demonstration,
//! default 100,000.)

use kcv_bench::alloc_track;
use kcv_bench::table::{arg_flag, arg_parse, render};
use kcv_core::cv::cv_profile_prefix;
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_data::{Dgp, PaperDgp};
use kcv_gpu::{required_device_bytes, select_bandwidth_gpu_windowed, GpuConfig};
use kcv_gpu_sim::{ConstantMemory, DeviceSpec, MemoryPool};

fn allocation_plan(n: usize, k: usize) -> Vec<usize> {
    let f = std::mem::size_of::<f32>();
    vec![
        n * f,     // x
        n * f,     // y
        n * n * f, // |X_i − X_j| matrix
        n * n * f, // Y matrix
        n * k * f, // numerator sums
        n * k * f, // denominator sums
        n * k * f, // squared residuals (bandwidth-major, the §IV-B index switch)
        k * f,     // CV scores
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let allocate = arg_flag(&args, "--allocate");
    let max_windowed_n = arg_parse(&args, "--max-windowed-n", 100_000usize);
    let spec = DeviceSpec::tesla_s10();
    let k = 50usize;
    // Every claim this run did not reproduce, printed before the exit.
    let mut failures: Vec<String> = Vec::new();

    println!(
        "Device: {} ({} B global memory, {} B constant cache)\n",
        spec.name, spec.global_mem_bytes, spec.constant_cache_bytes
    );

    let headers: Vec<String> = vec![
        "n".into(),
        "required bytes (k=50)".into(),
        "fits 4 GB?".into(),
        if allocate {
            "real allocation".into()
        } else {
            "dry-run check".into()
        },
    ];
    let mut rows = Vec::new();
    for n in [
        1_000usize, 5_000, 10_000, 20_000, 23_000, 24_000, 25_000, 30_000,
    ] {
        let required = required_device_bytes(n, k);
        let fits = required <= spec.global_mem_bytes;
        let pool = MemoryPool::for_device(&spec);
        let attempt = if allocate {
            (|| -> kcv_gpu_sim::Result<()> {
                let mut held = Vec::new();
                for bytes in allocation_plan(n, k) {
                    held.push(pool.alloc::<u8>(bytes)?);
                }
                Ok(())
            })()
        } else {
            pool.check_fit(&allocation_plan(n, k))
        };
        let outcome = match &attempt {
            Ok(()) if allocate => "allocated OK".to_string(),
            Ok(()) => "fits".to_string(),
            Err(e) => format!("FAILED: {e}"),
        };
        match (n, attempt.is_ok()) {
            (23_000, false) => failures.push("n = 23,000 does not fit".into()),
            (24_000, true) => failures.push("n = 24,000 fits".into()),
            _ => {}
        }
        rows.push(vec![
            n.to_string(),
            required.to_string(),
            if fits { "yes" } else { "NO" }.to_string(),
            outcome,
        ]);
    }
    println!("{}", render(&headers, &rows));
    println!("Paper claim : the CUDA program runs at n = 20,000 and cannot allocate beyond it.");
    if failures.is_empty() {
        println!(
            "Measured    : this port's allocation set crosses the 4 GB ceiling between\n\
                           n = 23,000 and n = 24,000 (the paper's additional intermediate\n\
                           objects account for its earlier wall); the dominating term is\n\
                           the same two n×n f32 matrices the paper names.\n"
        );
    } else {
        println!("Measured    : NOT reproduced ({}).\n", failures.join("; "));
    }
    let wall_failures = failures.len();

    println!(
        "Constant-memory ceiling ({} B cache working set):",
        spec.constant_cache_bytes
    );
    for k in [2_000usize, 2_048, 2_049, 4_096] {
        let values = vec![0.0f32; k];
        let fits = match ConstantMemory::new(&spec, &values) {
            Ok(_) => {
                println!("  k = {k}: fits");
                true
            }
            Err(e) => {
                println!("  k = {k}: REJECTED ({e})");
                false
            }
        };
        match (k, fits) {
            (2_048, false) => failures.push("k = 2,048 is rejected".into()),
            (2_049, true) => failures.push("k = 2,049 fits".into()),
            _ => {}
        }
    }
    let verdict = if failures.len() == wall_failures {
        "Reproduced."
    } else {
        "NOT reproduced."
    };
    println!("Paper claim : no more than 2,048 bandwidth values can be considered. {verdict}");

    // --- beyond the wall: the windowed program, actually executed --------
    println!(
        "\nWindowed program on the same 4 GB device (REAL runs, k = {k}, not\n\
         dry-run checks — each row executes the full simulated pipeline and\n\
         compares the selected bandwidth against the f64 CPU prefix-moment\n\
         reference):\n"
    );
    let headers: Vec<String> = vec![
        "n".into(),
        "classic bytes".into(),
        "windowed peak (measured)".into(),
        "host heap peak".into(),
        "bandwidth".into(),
        "vs CPU f64 reference".into(),
    ];
    let mut rows = Vec::new();
    let config = GpuConfig::default();
    for n in [
        1_000usize, 5_000, 10_000, 20_000, 23_000, 24_000, 25_000, 30_000, 50_000, 100_000,
    ] {
        if n > max_windowed_n {
            continue;
        }
        let sample = PaperDgp.sample(n, 3_000 + n as u64);
        let grid = BandwidthGrid::paper_default(&sample.x, k).expect("grid");
        let step = grid.step();
        // The simulator's device buffers are host memory too: the host heap
        // peak is the device peak plus the host-side tables and the
        // simulator's bookkeeping.
        alloc_track::reset_peak();
        let baseline = alloc_track::current_bytes();
        let result = select_bandwidth_gpu_windowed(&sample.x, &sample.y, &grid, &config);
        let host_peak = alloc_track::peak_bytes().saturating_sub(baseline);
        let row = match result {
            Ok(run) => {
                let reference = cv_profile_prefix(&sample.x, &sample.y, &grid, &Epanechnikov)
                    .expect("CPU reference")
                    .argmin()
                    .expect("argmin")
                    .bandwidth;
                let agrees = (run.bandwidth - reference).abs() <= step + 1e-9;
                if !agrees {
                    failures.push(format!("windowed n = {n} disagrees with the CPU reference"));
                }
                vec![
                    n.to_string(),
                    required_device_bytes(n, k).to_string(),
                    run.report.device_bytes_peak.to_string(),
                    host_peak.to_string(),
                    format!("{:.6}", run.bandwidth),
                    if agrees {
                        "agrees (within one grid step)".to_string()
                    } else {
                        format!("DISAGREES (CPU selected {reference:.6})")
                    },
                ]
            }
            Err(e) => {
                failures.push(format!("windowed n = {n} failed: {e}"));
                vec![
                    n.to_string(),
                    required_device_bytes(n, k).to_string(),
                    format!("FAILED: {e}"),
                    host_peak.to_string(),
                    String::new(),
                    String::new(),
                ]
            }
        };
        rows.push(row);
    }
    println!("{}", render(&headers, &rows));
    if !failures.is_empty() {
        eprintln!("\nmemory_limit: NOT reproduced:");
        for failure in &failures {
            eprintln!("  - {failure}");
        }
        std::process::exit(1);
    }
    let largest = rows.last().map_or("none", |row| row[0].as_str());
    println!(
        "The classic program's requirement crosses 4 GB between n = 23,000 and\n\
         n = 24,000; the windowed program's measured peak stays linear in n\n\
         (O(n·(deg+2) + k) bytes) and completes every size up to n = {largest} on\n\
         the same device while selecting the same bandwidth as the f64 CPU\n\
         reference.\n\nmemory_limit: all three claims reproduced"
    );
}
