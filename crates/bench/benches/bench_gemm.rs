//! Criterion bench behind the kernel-perf ledger (`BENCH_kernels.json`):
//! the packed register-tiled [`Gemm`] core versus the legacy row-parallel
//! triple loops it replaced, measured single-threaded (every group runs
//! inside a width-1 `ThreadPool::install`) so the speedup is kernel shape,
//! not core count.
//!
//! Three groups:
//! * `gemm_st` — square 128/256/512 products; the 512³ packed-vs-legacy
//!   ratio is the ISSUE-10 acceptance number (≥ 3×).
//! * `gemm_layers` — the real workspace shapes: FNN-3's first layer, the
//!   VGG entry/middle im2col products, and an LSTM-PTB gate block.
//! * `gemm_prepacked` — the weight-stationary path (`pack_a`/`pack_b` once,
//!   `run_packed` per item) that conv reuses across batch images and the
//!   LSTM across timesteps.
//! * `gemm_fork` — the `gemm::PAR_FLOPS` sweep, the one group run at width 2:
//!   each shape forked across MC-row stripes against the calling thread
//!   alone, including FNN-3's `fc` weight-gradient products.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mini_tensor::gemm::Gemm;
use mini_tensor::matmul::legacy;
use mini_tensor::rng::SeedRng;

fn operands(g: &Gemm, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut rng = SeedRng::new(seed);
    let a = rng.randn_tensor(&[g.a_len()], 1.0).into_vec();
    let b = rng.randn_tensor(&[g.b_len()], 1.0).into_vec();
    let c = vec![0.0f32; g.c_len()];
    (a, b, c)
}

/// Runs the legacy kernel matching the descriptor's transpose combo.
fn run_legacy(g: &Gemm, a: &[f32], b: &[f32], c: &mut [f32]) {
    match (g.trans_a, g.trans_b) {
        (false, false) => legacy::matmul_rowpar(a, b, c, g.m, g.k, g.n),
        (false, true) => legacy::matmul_bt_rowpar(a, b, c, g.m, g.k, g.n),
        (true, false) => legacy::matmul_at_rowpar(a, b, c, g.k, g.m, g.n),
        (true, true) => unreachable!("no legacy tt kernel"),
    }
}

fn bench_square(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_st");
    group.sample_size(10);
    for s in [128usize, 256, 512] {
        let g = Gemm::nn(s, s, s);
        let (a, b, mut cbuf) = operands(&g, s as u64);
        group.bench_with_input(BenchmarkId::new("legacy", s), &s, |bch, _| {
            bch.iter(|| {
                run_legacy(&g, &a, &b, &mut cbuf);
                std::hint::black_box(cbuf[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("packed", s), &s, |bch, _| {
            bch.iter(|| {
                g.run_st(&a, &b, &mut cbuf);
                std::hint::black_box(cbuf[0])
            })
        });
    }
    group.finish();
}

/// The workspace's real hot shapes: (label, descriptor).
fn layer_shapes() -> Vec<(&'static str, Gemm)> {
    vec![
        // FNN-3 paper fc1 forward at batch 32: x[32,784] · W[206,784]ᵀ.
        ("fnn3_fc1", Gemm::nt(32, 784, 206)),
        // VGG entry conv as im2col: W[64, 3·3·3] · col[27, 32·32].
        ("vgg_conv1", Gemm::nn(64, 27, 1024)),
        // VGG middle conv: W[128, 128·3·3] · col[1152, 16·16].
        ("vgg_convm", Gemm::nn(128, 1152, 256)),
        // LSTM-PTB gate block: x[20, 650] · w_ih[2600, 650]ᵀ.
        ("lstm_gates", Gemm::nt(20, 650, 2600)),
    ]
}

fn bench_layers(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_layers");
    group.sample_size(10);
    for (label, g) in layer_shapes() {
        let (a, b, mut cbuf) = operands(&g, 17);
        group.bench_with_input(BenchmarkId::new("legacy", label), &g, |bch, g| {
            bch.iter(|| {
                run_legacy(g, &a, &b, &mut cbuf);
                std::hint::black_box(cbuf[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("packed", label), &g, |bch, g| {
            bch.iter(|| {
                g.run_st(&a, &b, &mut cbuf);
                std::hint::black_box(cbuf[0])
            })
        });
    }
    group.finish();
}

fn bench_prepacked(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_prepacked");
    group.sample_size(10);
    // Weight-stationary conv product: A = filter matrix, packed once for
    // the whole batch; B = per-image im2col columns.
    let g = Gemm::nn(128, 1152, 256);
    let (a, b, mut cbuf) = operands(&g, 23);
    group.bench_function("vgg_convm/pack_each", |bch| {
        bch.iter(|| {
            g.run_st(&a, &b, &mut cbuf);
            std::hint::black_box(cbuf[0])
        })
    });
    let pa = g.pack_a(&a);
    let mut pb = g.pack_b(&b);
    group.bench_function("vgg_convm/weights_prepacked", |bch| {
        bch.iter(|| {
            g.pack_b_into(&b, &mut pb);
            g.run_packed(&pa, &pb, &mut cbuf, false);
            std::hint::black_box(cbuf[0])
        })
    });
    group.finish();
}

/// Products around `gemm::PAR_FLOPS`, smallest `m·k·n` first.
fn fork_shapes() -> Vec<(&'static str, Gemm)> {
    vec![
        // FNN-3 weight gradients at 16 samples per rank: dW = dYᵀ · X.
        ("fnn3_fc2_dw", Gemm::tn(150, 16, 206)),
        ("fnn3_fc1_dw", Gemm::tn(206, 16, 784)),
        ("fnn3_fc1_dw_b32", Gemm::tn(206, 32, 784)),
        ("fnn3_fc1_dw_b64", Gemm::tn(206, 64, 784)),
        ("square_256", Gemm::nn(256, 256, 256)),
        // LSTM-PTB input-weight gradient: 4h × batch × embedding.
        ("lstm_dwi", Gemm::tn(2600, 20, 650)),
    ]
}

fn bench_fork(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_fork");
    group.sample_size(30);
    for (label, g) in fork_shapes() {
        let (a, b, mut cbuf) = operands(&g, 31);
        group.bench_with_input(BenchmarkId::new("forked", label), &g, |bch, g| {
            bch.iter(|| {
                g.run_packed(&g.pack_a(&a), &g.pack_b(&b), &mut cbuf, true);
                std::hint::black_box(cbuf[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("calling_thread", label), &g, |bch, g| {
            bch.iter(|| {
                g.run_st(&a, &b, &mut cbuf);
                std::hint::black_box(cbuf[0])
            })
        });
    }
    group.finish();
}

fn with_width(width: usize, c: &mut Criterion, groups: &[fn(&mut Criterion)]) {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
    pool.install(|| groups.iter().for_each(|group| group(c)));
}

fn all_groups(c: &mut Criterion) {
    with_width(1, c, &[bench_square, bench_layers, bench_prepacked]);
    with_width(2, c, &[bench_fork]);
}

criterion_group!(benches, all_groups);
criterion_main!(benches);
