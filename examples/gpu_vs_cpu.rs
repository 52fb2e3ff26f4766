//! Walks through the paper's GPU program on the simulated Tesla S10 and
//! validates it against the f64 CPU reference, printing the cost-model
//! accounting (the simulator's analogue of a CUDA profiler run).
//!
//! Run with: `cargo run --release --example gpu_vs_cpu -- [n] [k]`

use kernelcv::core::cv::cv_profile_sorted;
use kernelcv::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2_000);
    let k: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(50);

    let sample = PaperDgp.sample(n, 77);
    let grid = BandwidthGrid::paper_default(&sample.x, k).expect("grid");

    println!(
        "n = {n}, k = {k} bandwidths on [{:.4}, {:.4}]\n",
        grid.min(),
        grid.max()
    );

    // CPU reference (f64, sequential sorted sweep — the paper's Program 3).
    let t0 = std::time::Instant::now();
    let cpu = cv_profile_sorted(&sample.x, &sample.y, &grid, &Epanechnikov).expect("cpu");
    let cpu_seconds = t0.elapsed().as_secs_f64();
    let cpu_opt = cpu.argmin().expect("cpu argmin");

    // GPU program (f32, simulated Tesla S10 — the paper's Program 4).
    let gpu =
        select_bandwidth_gpu(&sample.x, &sample.y, &grid, &GpuConfig::default()).expect("gpu");
    let r = &gpu.report;

    println!("results");
    println!(
        "  CPU (f64) optimum : h = {:.5}, CV = {:.6} ({cpu_seconds:.3}s wall)",
        cpu_opt.bandwidth, cpu_opt.score
    );
    println!(
        "  GPU (f32) optimum : h = {:.5}, CV = {:.6}",
        gpu.bandwidth, gpu.score
    );
    let max_rel = cpu
        .scores
        .iter()
        .zip(&gpu.scores)
        .map(|(&c, &g)| ((g as f64 - c) / c.abs().max(1e-12)).abs())
        .fold(0.0f64, f64::max)
        * 100.0;
    println!("  max f32-vs-f64 CV-score deviation over the grid: {max_rel:.4}%\n");

    println!(
        "simulated-device accounting ({} @ {:.1} GHz)",
        GpuConfig::default().spec.name,
        GpuConfig::default().spec.clock_hz / 1e9
    );
    println!(
        "  peak device memory : {:>12} bytes ({} MiB)",
        r.device_bytes_peak,
        r.device_bytes_peak >> 20
    );
    println!("  host→device        : {:>12} bytes", r.h2d_bytes);
    println!("  device→host        : {:>12} bytes", r.d2h_bytes);
    let m = &r.main_kernel;
    println!(
        "  main kernel        : {} threads × {} per block",
        m.threads, m.threads_per_block
    );
    println!("      flops          : {:>14}", m.totals.flops);
    println!(
        "      global accesses: {:>14}",
        m.totals.global_reads + m.totals.global_writes
    );
    println!("      constant reads : {:>14}", m.totals.constant_reads);
    println!("      simulated time : {:.6}s", m.simulated_seconds);
    println!(
        "  reductions         : {:.6}s ({} barrier syncs)",
        r.reduction_seconds, r.reduction_totals.syncs
    );
    println!("  transfers          : {:.6}s", r.transfer_seconds);
    println!("  TOTAL simulated    : {:.6}s", r.total_simulated_seconds);
    println!(
        "  host wall clock    : {:.3}s (simulation cost on this machine)\n",
        r.host_seconds
    );

    // Ablation of the paper's §IV-B index switch: same answer, higher cost.
    let ablated = GpuConfig {
        obs_major_residuals: true,
        ..GpuConfig::default()
    };
    let no_switch = select_bandwidth_gpu(&sample.x, &sample.y, &grid, &ablated).expect("gpu");
    println!(
        "index-switch ablation: without the bandwidth-major residual layout the\n\
         simulated time rises from {:.4}s to {:.4}s ({:+.1}%)\n",
        r.total_simulated_seconds,
        no_switch.report.total_simulated_seconds,
        (no_switch.report.total_simulated_seconds / r.total_simulated_seconds - 1.0) * 100.0
    );

    println!(
        "interpretation: on the modelled 240-core device this run takes {:.4}s;\n\
         the sequential CPU sweep took {cpu_seconds:.4}s on this host. The paper's\n\
         Table I reports the analogous contrast as 80.92s vs 32.49s at n = 20,000.",
        r.total_simulated_seconds
    );
}
