//! The traced step driver: the trainer's per-step public calls, made in
//! the trainer's order on the trainer's config and seed, with a span
//! recorded around each call from outside the program.
//!
//! It reproduces `a2sgd::trainer::train` for the configurations the
//! benchmark runs (flat topology, every-step sync, one bucket, no hooks),
//! so its per-epoch losses must equal `train()`'s bit for bit; the
//! benchmark checks that before it reports a single per-layer number.

use a2sgd::trainer::{OptKind, TrainConfig};
use cluster_comm::CommHandle;
use mini_nn::flat::{flatten_grads, param_count, scatter_grads};
use mini_nn::loss::softmax_cross_entropy;
use mini_nn::module::{Mode, Module, ModuleExt};
use mini_nn::optim::{Lars, Sgd};
use mini_tensor::Tensor;
use std::time::Instant;
use synthdata::{BatchIter, Dataset, Shard, SyntheticImages};

/// The spans of one step, in call order.
pub const PHASES: [&str; 7] = [
    "synthdata.batch",
    "nn.forward",
    "nn.backward",
    "nn.flatten_grads",
    "sync.sync_bucketed",
    "nn.scatter_grads",
    "nn.optimizer",
];
/// Index of the synchronizer call in [`PHASES`].
pub const SYNC: usize = 4;

/// One step of one rank: its own span, the spans of the calls inside it
/// (nanoseconds on the run's shared clock), and the synchronizer's and
/// communicator's own counters for the step.
#[derive(Debug, Clone, Default)]
pub struct StepRec {
    pub start: u64,
    pub end: u64,
    pub phases: [(u64, u64); 7],
    pub compress_s: f64,
    pub exchange_s: f64,
    pub wire_bytes: u64,
    pub messages: u64,
}

impl StepRec {
    pub fn step_ns(&self) -> u64 {
        self.end - self.start
    }

    pub fn phase_ns(&self, i: usize) -> u64 {
        self.phases[i].1 - self.phases[i].0
    }

    /// Step time the call spans do not cover: the trainer loop's own glue.
    pub fn unattributed_ns(&self) -> i64 {
        self.step_ns() as i64 - (0..PHASES.len()).map(|i| self.phase_ns(i) as i64).sum::<i64>()
    }

    /// True when every span lies inside the step and after the previous one.
    pub fn spans_nest(&self) -> bool {
        let mut t = self.start;
        for &(a, b) in &self.phases {
            if a < t || b < a {
                return false;
            }
            t = b;
        }
        t <= self.end
    }
}

/// What one rank of a driven run produced.
pub struct RankRun {
    pub rank: usize,
    pub params: usize,
    pub steps: Vec<StepRec>,
    pub epoch_losses: Vec<f64>,
}

enum Optimizer {
    Sgd(Sgd),
    Lars(Lars),
}

impl Optimizer {
    fn new(kind: OptKind) -> Self {
        match kind {
            OptKind::Sgd { momentum, weight_decay } => {
                Optimizer::Sgd(Sgd::new(momentum, weight_decay))
            }
            OptKind::Lars { momentum, weight_decay, trust } => {
                Optimizer::Lars(Lars::new(momentum, weight_decay, trust))
            }
        }
    }

    fn step(&mut self, model: &mut dyn Module, lr: f32) {
        match self {
            Optimizer::Sgd(o) => o.step(model, lr),
            Optimizer::Lars(o) => o.step(model, lr),
        }
    }
}

fn now(clock: Instant) -> u64 {
    clock.elapsed().as_nanos() as u64
}

/// Runs `f` and returns its value with its span on `clock`.
fn span<T>(clock: Instant, f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let a = now(clock);
    let v = f();
    (v, (a, now(clock)))
}

/// The trainer's batch assembly for the sample indices `idxs`.
fn batch(data: &SyntheticImages, idxs: &[usize]) -> (Tensor, Vec<usize>) {
    let (first, _) = data.sample(idxs[0]);
    let per = first.numel();
    let mut dims = vec![idxs.len()];
    dims.extend_from_slice(first.shape().dims());
    let mut x = vec![0.0f32; idxs.len() * per];
    let mut labels = Vec::with_capacity(idxs.len());
    for (bi, &i) in idxs.iter().enumerate() {
        let (xi, yi) = data.sample(i);
        x[bi * per..(bi + 1) * per].copy_from_slice(xi.as_slice());
        labels.push(yi);
    }
    (Tensor::from_vec(x, &dims[..]), labels)
}

/// The trainer's end-of-epoch evaluation on rank 0 (held-out split). It
/// changes no training state; it is run so the driven run does the same
/// work as `train()` between steps.
fn evaluate(cfg: &TrainConfig, model: &mut dyn Module, data: &SyntheticImages) -> usize {
    let shard = Shard::range(cfg.train_size, cfg.train_size + cfg.eval_size);
    let mut correct = 0;
    for (x, y) in BatchIter::new(data, &shard, cfg.batch_per_worker.min(cfg.eval_size)) {
        let logits = model.forward(&x, Mode::Eval);
        correct += softmax_cross_entropy(&logits, &y).correct;
    }
    correct
}

/// Drives one rank through `cfg`'s training run (or its first `max_steps`
/// steps), recording every step's spans on `clock`.
pub fn drive(
    cfg: &TrainConfig,
    data: &SyntheticImages,
    comm: &mut CommHandle,
    clock: Instant,
    max_steps: Option<usize>,
) -> RankRun {
    let rank = comm.rank();
    // The trainer's constructors and seed derivations.
    let mut model = cfg.model.build(cfg.preset, cfg.seed);
    let n = param_count(model.as_mut());
    let mut sync = cfg.algo.build(n, cfg.seed ^ 0x5EED, rank);
    let mut opt = Optimizer::new(cfg.opt);
    let whole = 0..n;
    let bounds = std::slice::from_ref(&whole);
    let iters_per_epoch =
        Shard::new(cfg.train_size, rank, cfg.workers).len() / cfg.batch_per_worker;
    let max_steps = max_steps.unwrap_or(usize::MAX);

    let mut flat = Vec::with_capacity(n);
    let mut steps = Vec::new();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    'epochs: for epoch in 0..cfg.epochs {
        let shard = Shard::new_permuted(
            cfg.train_size,
            rank,
            cfg.workers,
            cfg.seed ^ 0xB00C ^ (epoch as u64).wrapping_mul(0x9E37_79B9),
        );
        let mut loss_sum = 0.0f64;
        for it in 0..iters_per_epoch {
            if steps.len() == max_steps {
                break 'epochs;
            }
            let mut rec = StepRec { start: now(clock), ..StepRec::default() };
            let lo = it * cfg.batch_per_worker;
            let idxs = &shard.indices()[lo..lo + cfg.batch_per_worker];
            let ((x, targets), s) = span(clock, || batch(data, idxs));
            rec.phases[0] = s;
            let (out, s) = span(clock, || {
                model.zero_grad();
                let logits = model.forward(&x, Mode::Train);
                softmax_cross_entropy(&logits, &targets)
            });
            rec.phases[1] = s;
            loss_sum += out.loss as f64;
            let epoch_frac = epoch as f32 + it as f32 / iters_per_epoch as f32;
            rec.phases[2] = span(clock, || model.backward(&out.dlogits)).1;
            rec.phases[3] = span(clock, || flatten_grads(model.as_mut(), &mut flat)).1;
            let before = comm.stats();
            let (stats, s) = span(clock, || sync.sync_bucketed(&mut flat, bounds, comm));
            rec.phases[SYNC] = s;
            let after = comm.stats();
            rec.compress_s = stats.compress_seconds;
            rec.exchange_s = stats.exchange_seconds;
            rec.wire_bytes = after.wire_bytes - before.wire_bytes;
            rec.messages = after.messages - before.messages;
            rec.phases[5] = span(clock, || scatter_grads(model.as_mut(), &flat)).1;
            rec.phases[6] = span(clock, || opt.step(model.as_mut(), cfg.lr.lr_at(epoch_frac))).1;
            rec.end = now(clock);
            steps.push(rec);
        }
        epoch_losses.push(loss_sum / iters_per_epoch as f64);
        if rank == 0 {
            std::hint::black_box(evaluate(cfg, model.as_mut(), data));
        }
    }
    RankRun { rank, params: n, steps, epoch_losses }
}
