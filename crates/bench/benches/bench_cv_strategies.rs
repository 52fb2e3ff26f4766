//! Ablation: the paper's central complexity claim. The naive grid search is
//! `O(k·n²)`; the sorted sweep is `O(n² log n)` (k nearly free); the
//! prefix-moment sweep drops the per-observation sort and the per-neighbour
//! scan, answering each (obs, bandwidth) cell from global prefix sums in
//! `O(deg²)` amortised; `sorted_par` divides the per-observation work across
//! cores, and the prefix sweep splits its grid across cores by itself from
//! 65 536 cells (see `bench_parallel` for the sizes where that pays). The
//! `prefix_by_kernel` group times the prefix sweep once per shipped
//! kernel, and `incremental_by_kernel` one incremental re-selection per
//! kernel at the serving shape, so every kernel width the shared cell
//! kernel is compiled for is measured in both engines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kcv_core::cv::{
    cv_profile_naive, cv_profile_prefix, cv_profile_sorted, cv_profile_sorted_par,
    IncrementalSelector,
};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::{
    Epanechnikov, EpanechnikovConvolution, PolynomialKernel, Quartic, Triangular, Triweight,
    Uniform,
};
use kcv_data::{Dgp, PaperDgp};
use kcv_gpu::{select_bandwidth_gpu, select_bandwidth_gpu_windowed, GpuConfig};
use std::hint::black_box;

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("cv_strategies");
    group.sample_size(10);
    for &n in &[200usize, 500, 1_000, 2_000] {
        let s = PaperDgp.sample(n, 42);
        let grid = BandwidthGrid::paper_default(&s.x, 50).unwrap();
        // The naive search is O(k·n²): keep it off the largest size so the
        // suite stays fast while the sorted-vs-prefix contrast at n = 2,000
        // is measured.
        if n <= 1_000 {
            group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
                b.iter(|| cv_profile_naive(black_box(&s.x), &s.y, &grid, &Epanechnikov).unwrap())
            });
        }
        group.bench_with_input(BenchmarkId::new("sorted", n), &n, |b, _| {
            b.iter(|| cv_profile_sorted(black_box(&s.x), &s.y, &grid, &Epanechnikov).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("sorted_par", n), &n, |b, _| {
            b.iter(|| cv_profile_sorted_par(black_box(&s.x), &s.y, &grid, &Epanechnikov).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("prefix", n), &n, |b, _| {
            b.iter(|| cv_profile_prefix(black_box(&s.x), &s.y, &grid, &Epanechnikov).unwrap())
        });
    }
    group.finish();

    // k-scaling at fixed n: naive grows linearly in k, sorted barely moves
    // (the Table II contrast).
    let mut group = c.benchmark_group("cv_k_scaling");
    group.sample_size(10);
    let s = PaperDgp.sample(500, 43);
    for &k in &[5usize, 50, 500] {
        let grid = BandwidthGrid::paper_default(&s.x, k).unwrap();
        group.bench_with_input(BenchmarkId::new("naive", k), &k, |b, _| {
            b.iter(|| cv_profile_naive(black_box(&s.x), &s.y, &grid, &Epanechnikov).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("sorted", k), &k, |b, _| {
            b.iter(|| cv_profile_sorted(black_box(&s.x), &s.y, &grid, &Epanechnikov).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("prefix", k), &k, |b, _| {
            b.iter(|| cv_profile_prefix(black_box(&s.x), &s.y, &grid, &Epanechnikov).unwrap())
        });
    }
    group.finish();

    // One prefix profile per shipped kernel (degrees 0, 1, 2, 4, 6 and the
    // degree-5 convolution) at the benchmark's one-shot size: each kernel
    // runs a different width instantiation of the cell kernel, and the
    // even ones (all but triangular and the convolution) its one-Horner
    // form.
    let kernels: [&dyn PolynomialKernel; 6] = [
        &Uniform,
        &Triangular,
        &Epanechnikov,
        &Quartic,
        &Triweight,
        &EpanechnikovConvolution,
    ];
    let mut group = c.benchmark_group("prefix_by_kernel");
    group.sample_size(10);
    let s = PaperDgp.sample(20_000, 45);
    let grid = BandwidthGrid::paper_default(&s.x, 100).unwrap();
    for kernel in kernels {
        group.bench_function(kernel.name(), |b| {
            b.iter(|| cv_profile_prefix(black_box(&s.x), &s.y, &grid, kernel).unwrap())
        });
    }
    group.finish();

    // One incremental re-selection per kernel at the serving shape: a
    // 512-observation window over the log grid k = 64 that `kcv-serve`
    // streams re-select on.
    let mut group = c.benchmark_group("incremental_by_kernel");
    group.sample_size(50);
    let s = PaperDgp.sample(512, 46);
    let grid = BandwidthGrid::log(1e-3, 0.3, 64).unwrap();
    for kernel in kernels {
        let mut sel = IncrementalSelector::new(kernel, grid.clone());
        for (&xi, &yi) in s.x.iter().zip(&s.y) {
            sel.insert(xi, yi).unwrap();
        }
        group.bench_function(kernel.name(), |b| {
            b.iter(|| black_box(sel.reselect().unwrap()))
        });
    }
    group.finish();

    // Simulated-GPU programs: the classic O(n²)-memory port vs the windowed
    // O(n·(deg+2)+k) program. Host wall time here measures the simulator,
    // not a device — the interesting axis is that windowed's host cost stays
    // proportional to n·k cells while classic pays for the n×n matrix fill.
    let mut group = c.benchmark_group("gpu_programs");
    group.sample_size(10);
    let config = GpuConfig::default();
    for &n in &[500usize, 2_000] {
        let s = PaperDgp.sample(n, 44);
        let grid = BandwidthGrid::paper_default(&s.x, 50).unwrap();
        group.bench_with_input(BenchmarkId::new("classic", n), &n, |b, _| {
            b.iter(|| select_bandwidth_gpu(black_box(&s.x), &s.y, &grid, &config).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("windowed", n), &n, |b, _| {
            b.iter(|| select_bandwidth_gpu_windowed(black_box(&s.x), &s.y, &grid, &config).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
