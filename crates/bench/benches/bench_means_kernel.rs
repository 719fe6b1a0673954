//! Criterion benches of the A2SGD kernels themselves: the split-means
//! pass, the fused residual+restore pass, and the two together — the O(n)
//! passes that constitute A2SGD's entire per-iteration compute.
//!
//! The passes run in place on one buffer per size, so no row times a copy
//! of its input. `fused` and `full_round` restore with the local means,
//! which leaves the gradient as it was up to rounding; the kernels are
//! branch-free, so the few values that rounding moves do not change the
//! timing.

use a2sgd::mean2::{residual_restore_in_place, split_means};
use a2sgd_bench::synthetic_gradient;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_means(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2sgd_kernels");
    group.sample_size(10);
    for &n in &[65_536usize, 1_048_576, 16_777_216] {
        let mut g = synthetic_gradient(n, n as u64);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("split_means", n), &g, |b, g| {
            b.iter(|| std::hint::black_box(split_means(g)))
        });
        let m = split_means(&g);
        group.bench_function(&format!("fused/{n}"), |b| {
            b.iter(|| {
                residual_restore_in_place(&mut g, &m, m.mu_pos, m.mu_neg);
                std::hint::black_box(g[0])
            })
        });
        group.bench_function(&format!("full_round/{n}"), |b| {
            b.iter(|| {
                let m = split_means(&g);
                residual_restore_in_place(&mut g, &m, m.mu_pos, m.mu_neg);
                std::hint::black_box(g[0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_means);
criterion_main!(benches);
