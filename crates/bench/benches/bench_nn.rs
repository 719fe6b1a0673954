//! Criterion bench of the `mini-nn` step pieces recorded in
//! `BENCH_kernels.json` (`nn_step`): one optimizer update on a built model,
//! and one backward pass with and without the input gradient. Every row
//! runs single-threaded (inside a width-1 `ThreadPool::install`) at 16
//! samples per batch, the benchmark workloads' per-rank shape.
//!
//! * `optimizer/sgd_fnn3` — `Sgd::step` (momentum 0.9, weight decay 1e-4)
//!   on paper-size FNN-3 (199,210 parameters).
//! * `optimizer/lars_vgg16` — `Lars::step` (momentum 0.9, weight decay
//!   5e-4, trust 1e-2) on the scaled VGG-16.
//! * `backward/fnn3_backward` — `Module::backward` on paper-size FNN-3,
//!   which also computes the gradient with respect to the input images.
//! * `backward/fnn3_backward_params` — `Module::backward_params`, the
//!   trainer's call: the same parameter gradients, no input gradient.

use criterion::{criterion_group, criterion_main, Criterion};
use mini_nn::hook::NullHook;
use mini_nn::models::{ModelKind, Preset};
use mini_nn::module::{Mode, Module};
use mini_nn::optim::{Lars, Sgd};
use mini_tensor::rng::SeedRng;

const BATCH: usize = 16;

/// A built model whose parameter gradients hold small Gaussian values.
fn model_with_grads(kind: ModelKind, preset: Preset) -> Box<dyn Module> {
    let mut m = kind.build(preset, 1);
    let mut rng = SeedRng::new(2);
    m.visit_params(&mut |p| {
        for g in p.grad.as_mut_slice() {
            *g = 1e-3 * rng.randn();
        }
    });
    m
}

fn bench_optimizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer");
    group.sample_size(50);
    let mut fnn = model_with_grads(ModelKind::Fnn3, Preset::Paper);
    let mut sgd = Sgd::new(0.9, 1e-4);
    group.bench_function("sgd_fnn3", |b| b.iter(|| sgd.step(fnn.as_mut(), 1e-4)));
    let mut vgg = model_with_grads(ModelKind::Vgg16, Preset::Scaled);
    let mut lars = Lars::new(0.9, 5e-4, 1e-2);
    group.bench_function("lars_vgg16", |b| b.iter(|| lars.step(vgg.as_mut(), 1e-4)));
    group.finish();
}

fn bench_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("backward");
    group.sample_size(50);
    let mut rng = SeedRng::new(3);
    let x = rng.randn_tensor(&[BATCH, 1, 28, 28], 1.0);
    let dout = rng.randn_tensor(&[BATCH, 10], 1.0);
    // Backward only reads the activations cached by one forward pass, so
    // every sample repeats the same pass; gradients keep accumulating.
    let mut fnn = ModelKind::Fnn3.build(Preset::Paper, 1);
    let _ = fnn.forward(&x, Mode::Train);
    group.bench_function("fnn3_backward", |b| b.iter(|| fnn.backward(&dout)));
    group.bench_function("fnn3_backward_params", |b| {
        b.iter(|| fnn.backward_params(&dout, &mut NullHook))
    });
    group.finish();
}

fn all_groups(c: &mut Criterion) {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    pool.install(|| {
        bench_optimizer(c);
        bench_backward(c);
    });
}

criterion_group!(benches, all_groups);
criterion_main!(benches);
