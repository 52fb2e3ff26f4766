//! Ablation: grid search vs numerical optimisation vs rule of thumb —
//! the selector-level view of Table I's Program 1 vs Program 3 contrast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kcv_core::kernels::Epanechnikov;
use kcv_core::select::{BandwidthSelector, GridSpec, Rule, RuleOfThumbSelector, SortedGridSearch};
use kcv_data::{Dgp, PaperDgp};
use kcv_np::{npregbw, NpRegBwOptions};
use std::hint::black_box;

fn bench_selectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("selectors");
    group.sample_size(10);
    for &n in &[200usize, 1_000] {
        let s = PaperDgp.sample(n, 44);
        let grid = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(50));
        group.bench_with_input(BenchmarkId::new("sorted_grid_50", n), &n, |b, _| {
            b.iter(|| grid.select(black_box(&s.x), &s.y).unwrap().bandwidth)
        });
        group.bench_with_input(BenchmarkId::new("numeric_nm2", n), &n, |b, _| {
            b.iter(|| {
                let options = NpRegBwOptions {
                    nmulti: 2,
                    ..Default::default()
                };
                npregbw(black_box(&s.x), &s.y, options).unwrap().bw
            })
        });
        let rot = RuleOfThumbSelector::new(Epanechnikov, Rule::Silverman);
        group.bench_with_input(BenchmarkId::new("rule_of_thumb", n), &n, |b, _| {
            b.iter(|| rot.select(black_box(&s.x), &s.y).unwrap().bandwidth)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_selectors);
criterion_main!(benches);
