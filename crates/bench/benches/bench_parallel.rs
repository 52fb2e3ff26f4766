//! Does splitting a profile across cores pay? The paper's sorted sweep at
//! n = 2·10⁴, sequential vs folded by observation chunks across cores, and
//! the production prefix-moment sweep at n ∈ {2·10⁴, 2·10⁵}, all at the
//! paper-default k = 100. The prefix sweep picks its block count itself
//! (one contiguous bandwidth block per core from 65 536 cells, with a
//! bit-identical profile), so it has no sequential twin here; its
//! sequential-vs-split table comes from the `split_crossover_table` test
//! in `kcv_core::cv::prefix` (see EXPERIMENTS.md SPLIT).
//!
//! Run with `cargo bench --offline -p kcv-bench --bench bench_parallel`
//! (a few minutes: the sorted sweep is `O(n² log n)`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kcv_core::cv::{cv_profile_prefix, cv_profile_sorted, cv_profile_sorted_par};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_data::{Dgp, PaperDgp};
use std::hint::black_box;

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_cv");
    group.sample_size(5);
    for &n in &[20_000usize, 200_000] {
        let s = PaperDgp.sample(n, 42);
        let grid = BandwidthGrid::paper_default(&s.x, 100).unwrap();
        group.bench_with_input(BenchmarkId::new("prefix", n), &n, |b, _| {
            b.iter(|| cv_profile_prefix(black_box(&s.x), &s.y, &grid, &Epanechnikov).unwrap())
        });
    }
    group.sample_size(3);
    let s = PaperDgp.sample(20_000, 42);
    let grid = BandwidthGrid::paper_default(&s.x, 100).unwrap();
    group.bench_function("sorted/20000", |b| {
        b.iter(|| cv_profile_sorted(black_box(&s.x), &s.y, &grid, &Epanechnikov).unwrap())
    });
    group.bench_function("sorted_par/20000", |b| {
        b.iter(|| cv_profile_sorted_par(black_box(&s.x), &s.y, &grid, &Epanechnikov).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
