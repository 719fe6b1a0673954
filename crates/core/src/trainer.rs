//! Synchronous data-parallel distributed training over the simulated
//! cluster — the pipeline behind the paper's Figures 3–8 and Table 2.
//!
//! Every worker thread owns a model replica (identical seed ⇒ identical
//! init, the moral equivalent of an initial broadcast), a disjoint data
//! shard, a private optimizer, and a [`gradcomp::GradientSynchronizer`].
//! Per iteration: forward/backward → flatten gradient → synchronize →
//! scatter → optimizer step. Compute time is measured, communication time
//! is modeled (see `cluster-comm`), and both accumulate on the simulated
//! clock.

use crate::metrics;
use crate::overlap::{HookLayout, HookedStep};
use crate::registry::AlgoKind;
use a2sgd_sched::{SchedKind, SyncDecision, SyncObservation};
use cluster_comm::{run_cluster, CommBackend, CommHandle, NetworkProfile};
use mini_nn::flat::{flatten_grads, flatten_params, load_params, param_count, scatter_grads};
use mini_nn::hook::NullHook;
use mini_nn::loss::softmax_cross_entropy;
use mini_nn::models::{LstmLm, LstmLmConfig, ModelKind, Preset};
use mini_nn::module::{Mode, Module, ModuleExt};
use mini_nn::optim::{Lars, Sgd};
use mini_nn::schedule::LrSchedule;
use mini_tensor::stats::Histogram;
use mini_tensor::Tensor;
use std::sync::Arc;
use std::time::Instant;
use synthdata::{BatchIter, Dataset, MarkovText, Shard, SyntheticImages, VisionSpec};

/// Optimizer selection (Table 1's "LR Policy" column: LARS is used for the
/// VGG-16 large-batch run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptKind {
    /// Momentum SGD with weight decay.
    Sgd {
        /// Momentum coefficient.
        momentum: f32,
        /// L2 weight decay.
        weight_decay: f32,
    },
    /// Layer-wise adaptive rate scaling.
    Lars {
        /// Momentum coefficient.
        momentum: f32,
        /// L2 weight decay.
        weight_decay: f32,
        /// Trust coefficient.
        trust: f32,
    },
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

    fn velocity_lanes(&self) -> &[Vec<f32>] {
        match self {
            Optimizer::Sgd(o) => o.velocity_lanes(),
            Optimizer::Lars(o) => o.velocity_lanes(),
        }
    }
}

/// Communicator topology the gradient synchronization runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// One flat communicator over all workers — every algorithm exchanges
    /// across the whole world directly.
    #[default]
    Flat,
    /// The paper's two-level cluster shape: workers are partitioned into
    /// groups of `group_size` (rank `r` in group `r / group_size`), each
    /// group runs an exact dense allreduce on its cheap intra plane, the
    /// group leaders run [`TrainConfig::algo`] across groups, and the
    /// result is broadcast back within each group
    /// ([`gradcomp::HierarchicalSynchronizer`]). With A2SGD inside, the
    /// inter-group traffic is the O(1) packet per leader.
    Hier {
        /// Ranks per group; must divide `workers`. `1` degenerates to the
        /// flat algorithm bit-for-bit (every rank is a leader).
        group_size: usize,
    },
}

/// Full experiment description.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Which of the four evaluation models.
    pub model: ModelKind,
    /// Paper-scale or CI-scale model widths.
    pub preset: Preset,
    /// Gradient-synchronization algorithm.
    pub algo: AlgoKind,
    /// Number of data-parallel workers.
    pub workers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Per-worker mini-batch size (paper: global batch 128).
    pub batch_per_worker: usize,
    /// Training-set size (images / sequences).
    pub train_size: usize,
    /// Held-out evaluation-set size.
    pub eval_size: usize,
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// Optimizer.
    pub opt: OptKind,
    /// Master seed (model init, data synthesis, stochastic compressors).
    pub seed: u64,
    /// Communication data plane. [`CommBackend::InProc`] (the default)
    /// spawns thread ranks in this process with modeled time;
    /// [`CommBackend::Tcp`] makes *this process* one rank of a TCP
    /// cluster, joining the `A2SGD_RANK`/`A2SGD_WORLD`/`A2SGD_MASTER_ADDR`
    /// rendezvous with measured traffic and wall time.
    pub backend: CommBackend,
    /// Bucket size cap (bytes) for the pipelined gradient exchange:
    /// `Some(cap)` cuts the flat gradient at layer boundaries into
    /// ≤`cap`-byte buckets whose exchanges overlap the remaining
    /// encode/decode compute; `None` (the default everywhere the paper's
    /// numbers are regenerated) keeps the whole model as one bucket.
    /// Results are bit-identical either way — bucket boundaries derive
    /// from the parameter layout only, and every synchronizer's
    /// cross-bucket statistics stay global — so this knob trades latency,
    /// never semantics. Note the wire cost of bucketing is honest: each
    /// sub-byte-packed bucket pads to whole bytes and re-ships its scale
    /// word, and the A2SGD family (whose packet is already O(1)) ignores
    /// bucketing entirely.
    pub bucket_bytes: Option<usize>,
    /// Overlap bucket synchronization with the backward pass itself (the
    /// DDP hook shape): when `true`, a [`crate::overlap::HookedStep`]
    /// rides [`mini_nn::module::Module::backward_params`] and submits each
    /// bucket to the sync session the moment its last layer's gradient
    /// lands — the output layer's bucket is on the wire (streaming
    /// synchronizers) or staged (global-statistics synchronizers) while
    /// earlier layers are still backpropagating, and the flat gradient is
    /// double-buffered across iterations so step *t+1*'s hook writes never
    /// alias step *t*'s scatter source. Results are **bit-identical**
    /// either way, for every synchronizer, bucket cap, world size and
    /// backend (CI-enforced); this knob only moves exchange time under
    /// backward compute (reported as `avg_overlap_seconds`). Default
    /// `false`: the paper's regenerated numbers keep the single-shot
    /// reference path.
    pub overlap_backward: bool,
    /// Communicator topology: [`Topology::Flat`] (the default) runs
    /// `algo` across the whole world; [`Topology::Hier`] wraps it in the
    /// two-level dense-intra / algo-inter hierarchy. Does not yet compose
    /// with `overlap_backward`.
    pub topology: Topology,
    /// Sync schedule: *when* to communicate, orthogonal to `algo`'s *how*.
    /// [`SchedKind::EveryStep`] (the default) keeps the classic trainer
    /// byte-for-byte. Periodic schedules skip the synchronizer entirely on
    /// `Local` steps (0 wire bits, traced as a `sched/local` instant) and
    /// on the `Sync` step closing an H-step window apply the local
    /// optimizer step first, then average **parameters** as the
    /// pseudo-gradient `Δ = w_anchor − w` through the configured
    /// synchronizer/topology path — exact model averaging under dense, the
    /// O(1) two-means packet (plus a local residual) under A2SGD. A `Sync`
    /// closing a degenerate window (zero local steps — every step of
    /// `fixed1`, or a post-local warmup) takes the classic gradient path,
    /// which is why `fixed1` is bit-identical to `every`. Does not yet
    /// compose with `overlap_backward`.
    pub schedule: SchedKind,
    /// Modeled network (in-proc backend only; TCP measures instead).
    pub profile: NetworkProfile,
    /// Iterations at which worker 0 records a gradient histogram
    /// (Figure 1); empty to disable.
    pub grad_hist_iters: Vec<usize>,
    /// Checkpoint cadence: `Some(k)` has worker 0 snapshot the full
    /// training state (parameters, optimizer velocity, seed, step) every
    /// `k` iterations into the directory named by the `A2SGD_CKPT_DIR`
    /// environment variable (see [`crate::checkpoint::Checkpoint`]); when
    /// that variable is unset, the cadence is a no-op. `None` (the
    /// default) never checkpoints. State is bit-identical across ranks
    /// after each synchronized step, so the single rank-0 copy is a
    /// consistent global snapshot.
    pub checkpoint_every: Option<usize>,
    /// Span-trace output directory: `Some(dir)` records every rank's
    /// transport/collective/session/trainer spans into
    /// `dir/trace-<pid>.jsonl` (merge with `a2sgd_trace::merge_dir` or the
    /// `trace_report` binary into one Chrome trace). `None` (the default)
    /// falls back to the `A2SGD_TRACE=<dir>` environment — which is also
    /// how forked TCP rank processes inherit the setting — and records
    /// nothing when that is unset.
    pub trace: Option<std::path::PathBuf>,
}

impl TrainConfig {
    /// The algorithm label as the figures print it: the bare registry name
    /// under [`Topology::Flat`], `hier(dense, <name>)` under
    /// [`Topology::Hier`], the whole thing wrapped as
    /// `sched(<schedule>, <inner>)` when a non-degenerate sync schedule is
    /// configured.
    pub fn algo_label(&self) -> String {
        let inner = match self.topology {
            Topology::Flat => self.algo.name().to_string(),
            Topology::Hier { .. } => format!("hier(dense, {})", self.algo.name()),
        };
        if self.schedule.is_every_step() {
            inner
        } else {
            format!("sched({}, {inner})", self.schedule.label())
        }
    }
}

/// Per-epoch observables.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch index (1-based).
    pub epoch: usize,
    /// Mean training loss across iterations (worker 0).
    pub train_loss: f64,
    /// Evaluation metric: top-1 % for classifiers, perplexity for the LM.
    pub metric: f64,
    /// Cumulative simulated seconds at epoch end.
    pub sim_seconds: f64,
}

/// Everything a training run produces.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Configuration echo (model/algo/workers) for table labels.
    pub label: String,
    /// Per-epoch curve.
    pub epochs: Vec<EpochStats>,
    /// Final evaluation metric.
    pub final_metric: f64,
    /// Total simulated wall time.
    pub total_sim_seconds: f64,
    /// Average simulated time per iteration.
    pub avg_iter_seconds: f64,
    /// Iterations executed (per worker).
    pub iters: usize,
    /// Of `iters`, the steps on which the synchronizer actually ran
    /// (equals `iters` under [`SchedKind::EveryStep`]).
    pub sync_steps: usize,
    /// Of `iters`, the communication-free local-SGD steps a periodic
    /// schedule skipped the synchronizer on (0 under
    /// [`SchedKind::EveryStep`]).
    pub local_steps: usize,
    /// Logical wire bits per iteration per worker. With a periodic
    /// schedule this is averaged over **all** steps — local steps
    /// contribute 0 — so it is directly the effective bits/step the
    /// (period × compressor) grid compares.
    pub wire_bits_per_iter: u64,
    /// Of `wire_bits_per_iter`, the bits on the hierarchical *intra-group*
    /// plane (0 under [`Topology::Flat`]).
    pub intra_wire_bits_per_iter: u64,
    /// Of `wire_bits_per_iter`, the bits on the hierarchical *inter-group*
    /// plane — with A2SGD inside, exactly the O(1) packet on leaders and 0
    /// on members (0 under [`Topology::Flat`]).
    pub inter_wire_bits_per_iter: u64,
    /// Total physical bytes this rank's *flat world* communicator moved
    /// over the whole run — payloads plus frame headers. On the TCP
    /// backend this is measured socket traffic; in-proc it counts mailbox
    /// bytes. (Hierarchical sub-communicators account separately, via the
    /// intra/inter wire-bit splits.)
    pub measured_wire_bytes: u64,
    /// Of `measured_wire_bytes`, the bytes moved *inside* per-step
    /// synchronization calls (gradient or pseudo-gradient exchanges plus
    /// any schedule bookkeeping collectives) — i.e. excluding the
    /// run-constant tail traffic (final Algorithm-1 re-average, metric
    /// broadcast), so periodic-vs-every-step wire reductions compare the
    /// traffic the schedule actually governs.
    pub measured_sync_wire_bytes: u64,
    /// Total frames the flat world communicator put on the wire over the
    /// whole run (collective payload frames plus barrier control frames).
    pub messages: u64,
    /// Of `measured_wire_bytes`, the framing overhead beyond payload
    /// bytes — frame headers and empty control frames (0 in-proc, where a
    /// send is a bare memcpy).
    pub framing_bytes: u64,
    /// Mean compression (encode/decode compute) time per iteration
    /// (worker 0).
    pub avg_compress_seconds: f64,
    /// Mean measured wall time inside collective calls per iteration
    /// (worker 0) — the communication half of the sync cost, separable
    /// from `avg_compress_seconds` in the figure/table outputs.
    pub avg_exchange_seconds: f64,
    /// Mean exchange time per iteration hidden under backward compute
    /// (worker 0): wall time streamed buckets spent in flight before the
    /// post-backward drain. Non-zero only with
    /// [`TrainConfig::overlap_backward`] and a streaming synchronizer.
    pub avg_overlap_seconds: f64,
    /// Simulated throughput in samples/second (global).
    pub throughput: f64,
    /// Max replica parameter divergence before the final sync — evidence
    /// of A2SGD's local-residual drift (≈ 0 for dense).
    pub replica_divergence: f64,
    /// Gradient histograms captured at requested iterations (worker 0).
    pub grad_histograms: Vec<(usize, Histogram)>,
}

/// Per-worker scratch returned from rank threads.
struct WorkerOut {
    epochs: Vec<EpochStats>,
    sim_seconds: f64,
    iters: usize,
    sync_steps: usize,
    local_steps: usize,
    sync_wire_bytes: u64,
    wire_bits_total: u64,
    intra_wire_bits_total: u64,
    inter_wire_bits_total: u64,
    wire_bytes_measured: u64,
    messages: u64,
    bytes_sent: u64,
    compress_seconds_total: f64,
    exchange_seconds_total: f64,
    overlap_seconds_total: f64,
    divergence: f64,
    histograms: Vec<(usize, Histogram)>,
}

/// Builds the run's datasets: the first `train_size` indices are the
/// training split, the next `eval_size` the held-out split. Both share the
/// class templates (different noise/jitter per index). Construction is a
/// pure function of the config, which is what lets every TCP rank process
/// rebuild identical data without any exchange.
fn build_datasets(cfg: &TrainConfig) -> (Option<Arc<SyntheticImages>>, Option<Arc<MarkovText>>) {
    let vision: Option<Arc<SyntheticImages>> = (!cfg.model.is_language_model()).then(|| {
        let spec = match cfg.model {
            ModelKind::Fnn3 => VisionSpec::mnist_like(),
            _ => VisionSpec::cifar_like(),
        };
        Arc::new(SyntheticImages::new(spec, cfg.train_size + cfg.eval_size, cfg.seed ^ 0xDA7A))
    });
    let lm: Option<Arc<MarkovText>> = cfg.model.is_language_model().then(|| {
        let lmc = LstmLmConfig::preset(cfg.preset);
        let seq = 16;
        let tokens = (cfg.train_size + cfg.eval_size + 1) * seq + 1;
        Arc::new(MarkovText::new(lmc.vocab, 4, tokens, seq, cfg.seed ^ 0x1A7A))
    });
    (vision, lm)
}

fn build_report(cfg: &TrainConfig, w0: &WorkerOut, divergence: f64) -> TrainReport {
    let total_samples = w0.iters * cfg.batch_per_worker * cfg.workers;
    let per_iter = |total: u64| if w0.iters > 0 { total / w0.iters as u64 } else { 0 };
    TrainReport {
        label: format!("{}/{}/P{}", cfg.model.name(), cfg.algo_label(), cfg.workers),
        epochs: w0.epochs.clone(),
        final_metric: w0.epochs.last().map(|e| e.metric).unwrap_or(f64::NAN),
        total_sim_seconds: w0.sim_seconds,
        avg_iter_seconds: if w0.iters > 0 { w0.sim_seconds / w0.iters as f64 } else { 0.0 },
        iters: w0.iters,
        sync_steps: w0.sync_steps,
        local_steps: w0.local_steps,
        wire_bits_per_iter: per_iter(w0.wire_bits_total),
        intra_wire_bits_per_iter: per_iter(w0.intra_wire_bits_total),
        inter_wire_bits_per_iter: per_iter(w0.inter_wire_bits_total),
        measured_wire_bytes: w0.wire_bytes_measured,
        measured_sync_wire_bytes: w0.sync_wire_bytes,
        messages: w0.messages,
        framing_bytes: w0.wire_bytes_measured.saturating_sub(w0.bytes_sent),
        avg_compress_seconds: if w0.iters > 0 {
            w0.compress_seconds_total / w0.iters as f64
        } else {
            0.0
        },
        avg_exchange_seconds: if w0.iters > 0 {
            w0.exchange_seconds_total / w0.iters as f64
        } else {
            0.0
        },
        avg_overlap_seconds: if w0.iters > 0 {
            w0.overlap_seconds_total / w0.iters as f64
        } else {
            0.0
        },
        throughput: metrics::throughput(total_samples, w0.sim_seconds),
        replica_divergence: divergence,
        grad_histograms: w0.histograms.clone(),
    }
}

/// Runs the experiment.
///
/// On the in-proc backend this spawns `cfg.workers` thread ranks and
/// returns worker 0's report. On the TCP backend the calling process is
/// one rank of an externally-launched cluster (see
/// `cluster_comm::run_multiprocess`). Either way the report's shared
/// scalars agree on every rank: `replica_divergence` is allreduced (max)
/// and rank 0's evaluation metrics are broadcast before the workers
/// return, so a TCP rank no longer reports rank-local numbers
/// (`train_loss` remains each rank's own shard loss).
pub fn train(cfg: &TrainConfig) -> TrainReport {
    assert!(cfg.workers >= 1 && cfg.epochs >= 1 && cfg.batch_per_worker >= 1);
    let cfg = cfg.clone();
    let (vision, lm) = build_datasets(&cfg);

    // Tracing lifecycle: explicit config wins, the A2SGD_TRACE environment
    // (inherited by forked TCP rank processes) is the fallback. Each
    // process writes its own `trace-<pid>.jsonl` at the end of the run.
    let tracing = match &cfg.trace {
        Some(dir) => {
            a2sgd_trace::enable(dir);
            true
        }
        None => a2sgd_trace::init_from_env(),
    };

    let report = match cfg.backend {
        CommBackend::InProc => {
            let cfgr = &cfg;
            let outs = run_cluster(cfg.workers, cfg.profile, move |comm| {
                run_worker(cfgr, comm, vision.as_deref(), lm.as_deref())
            });
            let divergence = outs.iter().map(|o| o.divergence).fold(0.0f64, f64::max);
            build_report(&cfg, &outs[0], divergence)
        }
        CommBackend::Tcp => {
            let mut comm = CommHandle::tcp_from_env()
                .unwrap_or_else(|e| panic!("TCP backend needs the rendezvous env: {e}"));
            assert_eq!(
                comm.world(),
                cfg.workers,
                "A2SGD_WORLD disagrees with TrainConfig::workers"
            );
            let out = run_worker(&cfg, &mut comm, vision.as_deref(), lm.as_deref());
            build_report(&cfg, &out, out.divergence)
        }
    };
    if tracing {
        a2sgd_trace::flush_process_file();
        a2sgd_trace::disable();
    }
    report
}

fn run_worker(
    cfg: &TrainConfig,
    comm: &mut cluster_comm::CommHandle,
    vision: Option<&SyntheticImages>,
    lm: Option<&MarkovText>,
) -> WorkerOut {
    let rank = comm.rank();
    if a2sgd_trace::enabled() {
        a2sgd_trace::set_thread_rank(rank);
        // Announce the world plane, then drop a clock-alignment instant
        // right after a barrier: every rank's "sync_point" lands at the
        // same real moment, which is what the merger shifts process
        // clocks by.
        comm.set_plane("world");
        comm.barrier();
        a2sgd_trace::mark_sync_point();
    }
    let mut model = build_model(cfg);
    let n = param_count(model.as_mut());
    let mut sync = cfg.algo.build(n, cfg.seed ^ 0x5EED, rank);
    if let Topology::Hier { group_size } = cfg.topology {
        assert!(
            group_size >= 1 && cfg.workers % group_size == 0,
            "group_size {group_size} must divide workers {}",
            cfg.workers
        );
        assert!(
            !cfg.overlap_backward,
            "hierarchical topology does not yet compose with overlap_backward"
        );
        let topo = cluster_comm::HierarchicalComm::from_flat(comm, group_size);
        sync = Box::new(gradcomp::HierarchicalSynchronizer::new(sync, topo));
    }
    let mut opt = Optimizer::new(cfg.opt);

    // Sync schedule: decisions are a pure function of state that evolves
    // identically on every rank (see `a2sgd-sched`'s determinism contract),
    // so ranks agree on which steps communicate — the collectives below
    // would deadlock otherwise.
    let mut schedule = cfg.schedule.build();
    let scheduled = !schedule.is_every_step();
    if scheduled {
        assert!(!cfg.overlap_backward, "sync schedules do not yet compose with overlap_backward");
    }
    // Parameter anchor for pseudo-gradient windows: the globally-agreed
    // parameters as of the last sync (identical init across ranks plays
    // the role of the initial broadcast). Empty when unscheduled.
    let mut anchor: Vec<f32> = Vec::new();
    if scheduled {
        flatten_params(model.as_mut(), &mut anchor);
    }

    // The deterministic size-capped bucketizer: boundaries are a pure
    // function of the parameter layout (layer-boundary-aligned), so every
    // rank on every backend pipelines identical buckets — and the result
    // is bit-identical to the whole-model exchange.
    let bounds: Vec<std::ops::Range<usize>> = match cfg.bucket_bytes {
        Some(cap) => gradcomp::bucket_bounds(&mini_nn::flat::param_sizes(model.as_mut()), cap),
        None => vec![0..n; 1],
    };
    // Hooked mode: the name → offset → bucket map the per-layer
    // gradient-ready callbacks drive the session through.
    let hook_layout =
        cfg.overlap_backward.then(|| HookLayout::of(model.as_mut(), cfg.bucket_bytes));

    // Double-buffered flat gradient: hooked step *t* writes into buffer
    // t % 2 while buffer (t+1) % 2 still holds the previous step's
    // synchronized gradient, so hook writes never alias the buffer a
    // late-draining consumer could still be reading. (Today `finish` runs
    // before the optimizer step — bit-identity demands it — so this is
    // the WAR-hazard removal that makes a future tail-drain-into-next-
    // forward overlap possible, not a semantics change.)
    let mut flats = [Vec::with_capacity(n), Vec::with_capacity(n)];
    let mut epochs = Vec::with_capacity(cfg.epochs);
    let mut iters_done = 0usize;
    let mut sync_steps = 0usize;
    let mut local_steps = 0usize;
    let mut sync_wire_bytes = 0u64;
    let mut wire_bits_total = 0u64;
    let mut intra_wire_bits_total = 0u64;
    let mut inter_wire_bits_total = 0u64;
    let mut compress_total = 0.0f64;
    let mut exchange_total = 0.0f64;
    let mut overlap_total = 0.0f64;
    let mut histograms: Vec<(usize, Histogram)> = Vec::new();

    let (train_len, iters_per_epoch) = match (vision, lm) {
        (Some(_), _) => {
            let shard = Shard::new(cfg.train_size, rank, cfg.workers);
            (cfg.train_size, shard.len() / cfg.batch_per_worker)
        }
        (_, Some(m)) => {
            let usable = m.num_examples().min(cfg.train_size);
            let shard = Shard::new(usable, rank, cfg.workers);
            (usable, shard.len() / cfg.batch_per_worker)
        }
        _ => unreachable!("one dataset must exist"),
    };
    assert!(iters_per_epoch > 0, "shard too small for batch size");

    for epoch in 0..cfg.epochs {
        // DistributedSampler semantics: fresh global permutation per epoch,
        // interleaved across ranks (see `Shard::new_permuted`).
        let shard = Shard::new_permuted(
            train_len,
            rank,
            cfg.workers,
            cfg.seed ^ 0xB00C ^ (epoch as u64).wrapping_mul(0x9E37_79B9),
        );
        let mut loss_sum = 0.0f64;

        for it in 0..iters_per_epoch {
            let global_iter = epoch * iters_per_epoch + it;
            let t0 = Instant::now();

            // ---- batch ------------------------------------------------
            let (x, targets): (Tensor, Vec<usize>) = if let Some(d) = vision {
                let lo = it * cfg.batch_per_worker;
                let idxs = &shard.indices()[lo..lo + cfg.batch_per_worker];
                let (first, _) = d.sample(idxs[0]);
                let per = first.numel();
                let mut dims = vec![cfg.batch_per_worker];
                dims.extend_from_slice(first.shape().dims());
                let mut data = vec![0.0f32; cfg.batch_per_worker * per];
                let mut labels = Vec::with_capacity(cfg.batch_per_worker);
                for (bi, &i) in idxs.iter().enumerate() {
                    let (xi, yi) = d.sample(i);
                    data[bi * per..(bi + 1) * per].copy_from_slice(xi.as_slice());
                    labels.push(yi);
                }
                (Tensor::from_vec(data, &dims[..]), labels)
            } else {
                let m = lm.unwrap();
                let lo = it * cfg.batch_per_worker;
                let idxs: Vec<usize> = shard.indices()[lo..lo + cfg.batch_per_worker].to_vec();
                m.lm_batch(&idxs)
            };

            // ---- forward / backward (+ hooked sync) --------------------
            let fwd_ns = a2sgd_trace::now_ns();
            model.zero_grad();
            let logits = model.forward(&x, Mode::Train);
            let lo = softmax_cross_entropy(&logits, &targets);
            if a2sgd_trace::enabled() {
                a2sgd_trace::closed_span("phase/forward", fwd_ns, a2sgd_trace::Args::None);
            }
            loss_sum += lo.loss as f64;
            let want_hist = rank == 0 && cfg.grad_hist_iters.contains(&global_iter);
            let epoch_frac = epoch as f32 + it as f32 / iters_per_epoch as f32;
            // Schedule bookkeeping: which kind of step this was, whether
            // the pseudo-gradient path already applied the optimizer
            // update, and the world bytes attributable to this step's
            // synchronization (0 on local steps — nothing flies).
            let mut was_local = false;
            let mut step_applied = false;
            let step_bytes_before = comm.stats().wire_bytes;
            let flat = &mut flats[global_iter % 2];
            let stats = if let Some(layout) = &hook_layout {
                // The session opens before backward; each bucket is
                // submitted — streaming synchronizers put it straight on
                // the wire — the moment its last layer's gradient lands,
                // while earlier layers are still backpropagating. `finish`
                // drains the tail after backward returns.
                let mut step = HookedStep::begin(layout, sync.as_mut(), flat, comm);
                let bwd_ns = a2sgd_trace::now_ns();
                model.backward_params(&lo.dlogits, &mut step);
                if a2sgd_trace::enabled() {
                    a2sgd_trace::closed_span("phase/backward", bwd_ns, a2sgd_trace::Args::None);
                }
                step.advance_compute(t0.elapsed().as_secs_f64());
                if want_hist {
                    histograms.push((global_iter, grad_histogram(step.local_grad())));
                }
                let ex_ns = a2sgd_trace::now_ns();
                let stats = step.finish();
                if a2sgd_trace::enabled() {
                    a2sgd_trace::closed_span("phase/exchange", ex_ns, a2sgd_trace::Args::None);
                }
                stats
            } else {
                let bwd_ns = a2sgd_trace::now_ns();
                model.backward_params(&lo.dlogits, &mut NullHook);
                flatten_grads(model.as_mut(), flat);
                if a2sgd_trace::enabled() {
                    a2sgd_trace::closed_span("phase/backward", bwd_ns, a2sgd_trace::Args::None);
                }
                comm.advance_compute(t0.elapsed().as_secs_f64());
                if want_hist {
                    histograms.push((global_iter, grad_histogram(flat)));
                }
                let decision = if scheduled {
                    schedule.decide(global_iter as u64)
                } else {
                    SyncDecision::Sync
                };
                let stats = match decision {
                    SyncDecision::Local => {
                        // Local-SGD step: the synchronizer is skipped
                        // entirely — the local gradient drives the local
                        // optimizer and nothing crosses the wire.
                        was_local = true;
                        if a2sgd_trace::enabled() {
                            a2sgd_trace::instant("sched/local", a2sgd_trace::Args::None);
                        }
                        gradcomp::SyncStats::default()
                    }
                    SyncDecision::Sync => {
                        let window_len = schedule.local_in_window() + 1;
                        let want_disp = scheduled && schedule.wants_dispersion();
                        // `drift` backs the explicit dispersion fallback:
                        // this rank's (‖v − v̂‖², ‖v̂‖²) around the sync.
                        let (mut stats, drift) = if !scheduled || window_len == 1 {
                            // Degenerate window (and the whole unscheduled
                            // trainer): classic gradient averaging — bucket
                            // i's exchange is in flight while bucket i+1
                            // encodes inside `sync_bucketed`.
                            let pre = want_disp.then(|| flat.clone());
                            let ex_ns = a2sgd_trace::now_ns();
                            let stats = sync.sync_bucketed(flat, &bounds, comm);
                            if a2sgd_trace::enabled() {
                                a2sgd_trace::closed_span(
                                    "phase/exchange",
                                    ex_ns,
                                    a2sgd_trace::Args::None,
                                );
                            }
                            (stats, pre.map(|p| drift_sums(&p, flat)))
                        } else {
                            // Window-closing sync: apply this step's local
                            // update first, then average *parameters* as
                            // the pseudo-gradient Δ = w_anchor − w through
                            // the very same synchronizer — exact model
                            // averaging under dense, the O(1) two-means
                            // packet (plus a local residual) under A2SGD.
                            scatter_grads(model.as_mut(), flat);
                            let opt_ns = a2sgd_trace::now_ns();
                            let t1 = Instant::now();
                            opt.step(model.as_mut(), cfg.lr.lr_at(epoch_frac));
                            if a2sgd_trace::enabled() {
                                a2sgd_trace::closed_span(
                                    "phase/optimizer",
                                    opt_ns,
                                    a2sgd_trace::Args::None,
                                );
                            }
                            comm.advance_compute(t1.elapsed().as_secs_f64());
                            step_applied = true;
                            flatten_params(model.as_mut(), flat);
                            for (d, a) in flat.iter_mut().zip(&anchor) {
                                *d = a - *d;
                            }
                            let pre = want_disp.then(|| flat.clone());
                            let ex_ns = a2sgd_trace::now_ns();
                            let stats = sync.sync_bucketed(flat, &bounds, comm);
                            if a2sgd_trace::enabled() {
                                a2sgd_trace::closed_span(
                                    "phase/exchange",
                                    ex_ns,
                                    a2sgd_trace::Args::None,
                                );
                            }
                            let drift = pre.map(|p| drift_sums(&p, flat));
                            // w ← w_anchor − Δ̄; the new parameters become
                            // the next window's anchor.
                            for (w, a) in flat.iter_mut().zip(&anchor) {
                                *w = a - *w;
                            }
                            load_params(model.as_mut(), flat);
                            anchor.copy_from_slice(flat);
                            (stats, drift)
                        };
                        if want_disp {
                            let dispersion = match stats.dispersion {
                                // Free: the exchange already carried a
                                // rank-agreed statistic (A2SGD's gathered
                                // two-means packets).
                                Some(d) => d,
                                // Fallback: one 128-bit drift allgather,
                                // billed honestly into the accounting.
                                None => {
                                    stats.wire_bits += 128;
                                    gathered_dispersion(drift.unwrap_or((0.0, 0.0)), comm)
                                }
                            };
                            schedule.observe_sync(&SyncObservation { dispersion, window_len });
                        }
                        if scheduled && a2sgd_trace::enabled() {
                            a2sgd_trace::instant("sched/sync", a2sgd_trace::Args::None);
                        }
                        stats
                    }
                };
                if scheduled {
                    schedule.record(decision);
                }
                stats
            };
            wire_bits_total += stats.wire_bits;
            intra_wire_bits_total += stats.intra_wire_bits;
            inter_wire_bits_total += stats.inter_wire_bits;
            compress_total += stats.compress_seconds;
            exchange_total += stats.exchange_seconds;
            overlap_total += stats.overlap_seconds;
            sync_wire_bytes += comm.stats().wire_bytes - step_bytes_before;
            if was_local {
                local_steps += 1;
            } else {
                sync_steps += 1;
            }
            if !step_applied {
                scatter_grads(model.as_mut(), flat);
                let opt_ns = a2sgd_trace::now_ns();
                let t1 = Instant::now();
                opt.step(model.as_mut(), cfg.lr.lr_at(epoch_frac));
                if a2sgd_trace::enabled() {
                    a2sgd_trace::closed_span("phase/optimizer", opt_ns, a2sgd_trace::Args::None);
                }
                comm.advance_compute(t1.elapsed().as_secs_f64());
                // A degenerate-window sync under a schedule (post-local
                // warmup, `fixed1`) still refreshes the anchor: the next
                // window measures Δ from the just-synchronized state.
                if scheduled && !was_local {
                    flatten_params(model.as_mut(), &mut anchor);
                }
            }
            iters_done += 1;

            // ---- checkpoint (rank 0, off the simulated clock) ----------
            if let Some(every) = cfg.checkpoint_every {
                if rank == 0 && every > 0 && iters_done % every == 0 {
                    if let Ok(dir) = std::env::var(crate::checkpoint::ENV_CKPT_DIR) {
                        let dir = std::path::Path::new(&dir);
                        let mut params = Vec::with_capacity(n);
                        flatten_params(model.as_mut(), &mut params);
                        let sched = scheduled.then(|| {
                            let s = schedule.state();
                            crate::checkpoint::SchedCheckpoint {
                                local_in_window: s.local_in_window,
                                current_h: s.current_h,
                                ref_dispersion: s.ref_dispersion,
                                anchor: anchor.clone(),
                            }
                        });
                        let ckpt = crate::checkpoint::Checkpoint {
                            step: iters_done as u64,
                            seed: cfg.seed,
                            params,
                            velocity: opt.velocity_lanes().to_vec(),
                            sched,
                        };
                        let _ = std::fs::create_dir_all(dir);
                        let path = dir.join(crate::checkpoint::Checkpoint::file_name(ckpt.step));
                        ckpt.write(&path).unwrap_or_else(|e| panic!("checkpoint: {e}"));
                        if a2sgd_trace::enabled() {
                            a2sgd_trace::instant(
                                "checkpoint/written",
                                a2sgd_trace::Args::Value(ckpt.step as f64),
                            );
                        }
                    }
                }
            }
        }

        // ---- evaluation (worker 0, off the simulated clock) -------------
        let metric = if rank == 0 { evaluate(cfg, model.as_mut(), vision, lm) } else { 0.0 };
        epochs.push(EpochStats {
            epoch: epoch + 1,
            train_loss: loss_sum / iters_per_epoch as f64,
            metric,
            sim_seconds: comm.clock(),
        });
    }

    // ---- Algorithm 1 lines 9–10: final re-synchronization ----------------
    let flat = &mut flats[0];
    flatten_params(model.as_mut(), flat);
    let local = flat.clone();
    comm.allreduce_avg(flat);
    let mut div = 0.0f64;
    for (a, b) in local.iter().zip(flat.iter()) {
        div = div.max((a - b).abs() as f64);
    }
    load_params(model.as_mut(), flat);

    // ---- cross-rank report agreement -------------------------------------
    // The report scalars must agree on every rank (on TCP each rank is its
    // own process and would otherwise return rank-local numbers): the
    // divergence is maxed across ranks, and rank 0's per-epoch evaluation
    // metrics — only rank 0 evaluates — are broadcast to everyone. Both
    // travel as f64 bit patterns in the lossless u64 wire lane.
    let div = comm
        .allgather(&[div.to_bits()])
        .iter()
        .map(|v| f64::from_bits(v[0]))
        .fold(0.0f64, f64::max);
    let mut metric_bits: Vec<u64> = epochs.iter().map(|e| e.metric.to_bits()).collect();
    comm.broadcast(0, &mut metric_bits);
    for (e, &m) in epochs.iter_mut().zip(&metric_bits) {
        e.metric = f64::from_bits(m);
    }

    // ---- audit instants: the communicators' own accounting, embedded in
    // the trace so `trace_report` can cross-check span algebra against it.
    if a2sgd_trace::enabled() {
        let s = comm.stats();
        let val = |name: &'static str, v: f64| {
            a2sgd_trace::instant(name, a2sgd_trace::Args::Value(v));
        };
        val("audit/wire_bytes/world", s.wire_bytes as f64);
        val("audit/messages/world", s.messages as f64);
        val("audit/bytes_sent/world", s.bytes_sent as f64);
        if let Some((intra, inter)) = sync.plane_traffic() {
            val("audit/wire_bytes/intra", intra.wire_bytes as f64);
            val("audit/messages/intra", intra.messages as f64);
            val("audit/bytes_sent/intra", intra.bytes_sent as f64);
            if let Some(inter) = inter {
                val("audit/wire_bytes/inter", inter.wire_bytes as f64);
                val("audit/messages/inter", inter.messages as f64);
                val("audit/bytes_sent/inter", inter.bytes_sent as f64);
            }
        }
        val("audit/overlap_seconds", overlap_total);
        val("audit/exchange_seconds", exchange_total);
        val("audit/overlap_enabled", if cfg.overlap_backward { 1.0 } else { 0.0 });
        if scheduled {
            // The schedule's own ledger: `trace_report` checks these
            // against the per-step sched/local + sched/sync instants and
            // requires local + sync == total.
            val("audit/sched/local_steps", local_steps as f64);
            val("audit/sched/sync_steps", sync_steps as f64);
            val("audit/sched/total_steps", iters_done as f64);
        }
        a2sgd_trace::metrics::counter_add("iters", iters_done as u64);
        a2sgd_trace::metrics::gauge_set(
            "wire_bits_per_iter",
            if iters_done > 0 { wire_bits_total as f64 / iters_done as f64 } else { 0.0 },
        );
        a2sgd_trace::metrics::hist_record(
            "overlap_seconds_per_iter",
            if iters_done > 0 { overlap_total / iters_done as f64 } else { 0.0 },
        );
    }

    WorkerOut {
        epochs,
        sim_seconds: comm.clock(),
        iters: iters_done,
        sync_steps,
        local_steps,
        sync_wire_bytes,
        wire_bits_total,
        intra_wire_bits_total,
        inter_wire_bits_total,
        wire_bytes_measured: comm.stats().wire_bytes,
        messages: comm.stats().messages,
        bytes_sent: comm.stats().bytes_sent,
        compress_seconds_total: compress_total,
        exchange_seconds_total: exchange_total,
        overlap_seconds_total: overlap_total,
        divergence: div,
        histograms,
    }
}

/// Local drift statistics for the explicit dispersion fallback: the
/// squared distance between this rank's pre-sync vector and the
/// synchronized result, plus the result's squared norm.
fn drift_sums(pre: &[f32], post: &[f32]) -> (f64, f64) {
    let mut drift = 0.0f64;
    let mut norm = 0.0f64;
    for (a, b) in pre.iter().zip(post) {
        let d = (*a as f64) - (*b as f64);
        drift += d * d;
        let p = *b as f64;
        norm += p * p;
    }
    (drift, norm)
}

/// The rank-agreed dispersion from an allgather of per-rank drift sums —
/// `Σ‖vᵢ − v̂ᵢ‖² / (Σ‖v̂ᵢ‖² + ε)` — accumulated in rank order in f64, so
/// every rank computes the bit-identical value (the adaptive schedule's
/// determinism requirement). Two u64 lanes per rank: 128 honest wire bits.
fn gathered_dispersion(local: (f64, f64), comm: &mut cluster_comm::CommHandle) -> f64 {
    let gathered = comm.allgather(&[local.0.to_bits(), local.1.to_bits()]);
    let mut drift = 0.0f64;
    let mut norm = 0.0f64;
    for v in &gathered {
        drift += f64::from_bits(v[0]);
        norm += f64::from_bits(v[1]);
    }
    drift / (norm + 1e-24)
}

/// Figure-1 capture: a ±3σ histogram of the local (pre-sync) gradient.
fn grad_histogram(flat: &[f32]) -> Histogram {
    let s = mini_tensor::stats::summary(flat);
    let range = (3.0 * s.std()).max(1e-6) as f32;
    let mut h = Histogram::new(-range, range, 41);
    h.add_all(flat);
    h
}

fn build_model(cfg: &TrainConfig) -> Box<dyn Module> {
    match cfg.model {
        ModelKind::LstmPtb => {
            let mut c = LstmLmConfig::preset(cfg.preset);
            if let Preset::Scaled = cfg.preset {
                // Keep the LM vocab in sync with the Markov source.
                c = LstmLmConfig::preset(Preset::Scaled);
            }
            Box::new(LstmLm::new(&c, cfg.seed))
        }
        k => k.build(cfg.preset, cfg.seed),
    }
}

fn evaluate(
    cfg: &TrainConfig,
    model: &mut dyn Module,
    vision: Option<&SyntheticImages>,
    lm: Option<&MarkovText>,
) -> f64 {
    if let Some(d) = vision {
        let shard = Shard::range(cfg.train_size, cfg.train_size + cfg.eval_size);
        let bi = BatchIter::new(d, &shard, cfg.batch_per_worker.min(cfg.eval_size));
        let mut correct = 0usize;
        let mut total = 0usize;
        for (x, y) in bi {
            let logits = model.forward(&x, Mode::Eval);
            let out = softmax_cross_entropy(&logits, &y);
            correct += out.correct;
            total += y.len();
        }
        metrics::top1_accuracy(correct, total) as f64
    } else {
        let m = lm.unwrap();
        // Evaluate on the held-out tail of the corpus.
        let start = cfg.train_size;
        let end = (start + cfg.eval_size).min(m.num_examples());
        let mut ce_sum = 0.0f64;
        let mut batches = 0usize;
        let b = cfg.batch_per_worker.min(end - start).max(1);
        let mut i = start;
        while i + b <= end {
            let idxs: Vec<usize> = (i..i + b).collect();
            let (x, targets) = m.lm_batch(&idxs);
            let logits = model.forward(&x, Mode::Eval);
            let out = softmax_cross_entropy(&logits, &targets);
            ce_sum += out.loss as f64;
            batches += 1;
            i += b;
        }
        metrics::perplexity(ce_sum / batches.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(algo: AlgoKind, workers: usize) -> TrainConfig {
        TrainConfig {
            model: ModelKind::Fnn3,
            preset: Preset::Scaled,
            algo,
            workers,
            epochs: 2,
            batch_per_worker: 16,
            train_size: 320,
            eval_size: 160,
            lr: LrSchedule::constant(0.01),
            opt: OptKind::Sgd { momentum: 0.9, weight_decay: 0.0 },
            seed: 42,
            backend: CommBackend::InProc,
            bucket_bytes: None,
            overlap_backward: false,
            topology: Topology::Flat,
            schedule: SchedKind::EveryStep,
            profile: NetworkProfile::infiniband_100g(),
            grad_hist_iters: vec![0, 5],
            checkpoint_every: None,
            trace: None,
        }
    }

    #[test]
    fn dense_training_learns_something() {
        let r = train(&tiny_cfg(AlgoKind::Dense, 2));
        assert_eq!(r.epochs.len(), 2);
        assert!(r.final_metric > 30.0, "accuracy {} too low", r.final_metric);
        assert!(r.epochs[1].train_loss < r.epochs[0].train_loss + 0.1);
        assert!(r.total_sim_seconds > 0.0);
        assert_eq!(r.grad_histograms.len(), 2);
    }

    #[test]
    fn a2sgd_training_learns_and_uses_64_bits() {
        let r = train(&tiny_cfg(AlgoKind::A2sgd, 2));
        assert!(r.final_metric > 30.0, "accuracy {} too low", r.final_metric);
        assert_eq!(r.wire_bits_per_iter, 64);
        // Replicas drifted (local residuals) but stayed bounded.
        assert!(r.replica_divergence > 0.0);
        assert!(r.replica_divergence < 1.0, "divergence {}", r.replica_divergence);
    }

    #[test]
    fn dense_replicas_do_not_diverge() {
        let r = train(&tiny_cfg(AlgoKind::Dense, 2));
        assert!(r.replica_divergence < 1e-5, "dense divergence {}", r.replica_divergence);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = train(&tiny_cfg(AlgoKind::A2sgd, 2));
        let b = train(&tiny_cfg(AlgoKind::A2sgd, 2));
        assert_eq!(a.final_metric, b.final_metric);
        let ea: Vec<f64> = a.epochs.iter().map(|e| e.train_loss).collect();
        let eb: Vec<f64> = b.epochs.iter().map(|e| e.train_loss).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn bucketed_training_is_bit_identical_to_whole_model() {
        // The bucket cap is a latency knob, not a semantics knob: the full
        // training trajectory — losses, metrics, divergence — must be
        // bit-identical with pipelined 4 KiB buckets.
        for algo in [AlgoKind::Dense, AlgoKind::A2sgd, AlgoKind::Qsgd(4)] {
            let whole = train(&tiny_cfg(algo, 2));
            let mut cfg = tiny_cfg(algo, 2);
            cfg.bucket_bytes = Some(4096);
            let bucketed = train(&cfg);
            assert_eq!(whole.final_metric, bucketed.final_metric, "{}", algo.name());
            assert_eq!(whole.replica_divergence, bucketed.replica_divergence, "{}", algo.name());
            let la: Vec<u64> = whole.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            let lb: Vec<u64> = bucketed.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            assert_eq!(la, lb, "{}", algo.name());
        }
        // Dense and A2SGD also keep identical wire accounting (no per-
        // bucket padding/scale overhead in their encodings).
        for algo in [AlgoKind::Dense, AlgoKind::A2sgd] {
            let whole = train(&tiny_cfg(algo, 2));
            let mut cfg = tiny_cfg(algo, 2);
            cfg.bucket_bytes = Some(4096);
            assert_eq!(whole.wire_bits_per_iter, train(&cfg).wire_bits_per_iter);
        }
    }

    #[test]
    fn hook_driven_training_is_bit_identical_to_single_shot() {
        // overlap_backward only moves exchange time under backward
        // compute; the training trajectory must be bit-identical for both
        // the streaming (Dense) and staged (A2SGD/QSGD) session paths,
        // with and without bucketing.
        for algo in [AlgoKind::Dense, AlgoKind::A2sgd, AlgoKind::Qsgd(4)] {
            for cap in [None, Some(4096)] {
                let reference = train(&tiny_cfg(algo, 2));
                let mut cfg = tiny_cfg(algo, 2);
                cfg.overlap_backward = true;
                cfg.bucket_bytes = cap;
                let hooked = train(&cfg);
                assert_eq!(reference.final_metric, hooked.final_metric, "{}", algo.name());
                assert_eq!(
                    reference.replica_divergence,
                    hooked.replica_divergence,
                    "{}",
                    algo.name()
                );
                let la: Vec<u64> =
                    reference.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
                let lb: Vec<u64> = hooked.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
                assert_eq!(la, lb, "{} cap {cap:?}", algo.name());
                assert_eq!(reference.grad_histograms.len(), hooked.grad_histograms.len());
            }
        }
    }

    #[test]
    fn report_splits_compress_and_exchange_time() {
        let r = train(&tiny_cfg(AlgoKind::TopK(0.01), 2));
        assert!(r.avg_compress_seconds > 0.0);
        // In-proc collectives run on the modeled clock; measured wall time
        // inside them is still accumulated and must be finite/non-negative.
        assert!(r.avg_exchange_seconds >= 0.0 && r.avg_exchange_seconds.is_finite());
    }

    #[test]
    fn hier_group_size_one_is_bit_identical_to_flat() {
        // Singleton groups make every rank a leader and the intra plane a
        // no-op: the hierarchical wrapper must reproduce the flat run
        // bit-for-bit, including the wire accounting (all bits inter).
        for algo in [AlgoKind::Dense, AlgoKind::A2sgd] {
            let flat = train(&tiny_cfg(algo, 2));
            let mut cfg = tiny_cfg(algo, 2);
            cfg.topology = Topology::Hier { group_size: 1 };
            let hier = train(&cfg);
            assert_eq!(flat.final_metric, hier.final_metric, "{}", algo.name());
            assert_eq!(flat.replica_divergence, hier.replica_divergence, "{}", algo.name());
            let la: Vec<u64> = flat.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            let lb: Vec<u64> = hier.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            assert_eq!(la, lb, "{}", algo.name());
            assert_eq!(flat.wire_bits_per_iter, hier.wire_bits_per_iter, "{}", algo.name());
            assert_eq!(hier.intra_wire_bits_per_iter, 0);
            assert_eq!(hier.inter_wire_bits_per_iter, hier.wire_bits_per_iter);
        }
    }

    #[test]
    fn hier_a2sgd_trains_with_o1_inter_traffic() {
        let mut cfg = tiny_cfg(AlgoKind::A2sgd, 4);
        cfg.topology = Topology::Hier { group_size: 2 };
        let r = train(&cfg);
        assert!(r.final_metric > 30.0, "accuracy {} too low", r.final_metric);
        // Worker 0 leads group 0: its inter-plane traffic is exactly the
        // O(1) A2SGD packet per iteration, independent of model size.
        assert_eq!(r.inter_wire_bits_per_iter, 64);
        assert!(r.intra_wire_bits_per_iter > 0, "dense intra plane must carry the gradient");
        assert_eq!(r.wire_bits_per_iter, r.intra_wire_bits_per_iter + r.inter_wire_bits_per_iter);
        assert!(r.label.contains("hier(dense, A2SGD)"), "label {}", r.label);
    }

    #[test]
    fn fixed1_schedule_is_bit_identical_to_every_step() {
        // Degenerate windows take the classic gradient path, so `fixed1`
        // must reproduce the unscheduled trainer bit-for-bit (the full
        // 11-algorithm matrix runs in tests/sched_parity.rs).
        for algo in [AlgoKind::Dense, AlgoKind::A2sgd] {
            let every = train(&tiny_cfg(algo, 2));
            let mut cfg = tiny_cfg(algo, 2);
            cfg.schedule = SchedKind::Fixed(1);
            let fixed1 = train(&cfg);
            assert_eq!(every.final_metric, fixed1.final_metric, "{}", algo.name());
            assert_eq!(every.replica_divergence, fixed1.replica_divergence, "{}", algo.name());
            let la: Vec<u64> = every.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            let lb: Vec<u64> = fixed1.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            assert_eq!(la, lb, "{}", algo.name());
            assert_eq!(every.wire_bits_per_iter, fixed1.wire_bits_per_iter, "{}", algo.name());
            assert_eq!(fixed1.sync_steps, fixed1.iters);
            assert_eq!(fixed1.local_steps, 0);
        }
    }

    #[test]
    fn fixed_period_skips_syncs_and_cuts_wire_bits() {
        let mut cfg = tiny_cfg(AlgoKind::A2sgd, 2);
        cfg.schedule = SchedKind::Fixed(4);
        let r = train(&cfg);
        assert_eq!(r.sync_steps + r.local_steps, r.iters);
        assert_eq!(r.sync_steps, r.iters / 4, "one sync per 4-step window");
        // Effective bits/step: the 64-bit packet amortized over the window.
        assert_eq!(r.wire_bits_per_iter, 64 * r.sync_steps as u64 / r.iters as u64);
        assert!(r.final_metric > 30.0, "accuracy {} too low", r.final_metric);
        assert!(r.label.contains("sched(fixed4, A2SGD)"), "label {}", r.label);
    }

    #[test]
    fn post_local_warmup_counts_windows_correctly() {
        let mut cfg = tiny_cfg(AlgoKind::Dense, 2);
        cfg.schedule = SchedKind::PostLocal { warmup: 5, h: 4 };
        let r = train(&cfg);
        // 5 warmup syncs, then 4-step windows over the remaining steps.
        let expect_syncs = 5 + (r.iters - 5) / 4;
        assert_eq!(r.sync_steps, expect_syncs);
        assert_eq!(r.sync_steps + r.local_steps, r.iters);
        assert!(r.final_metric > 30.0, "accuracy {} too low", r.final_metric);
    }

    #[test]
    fn adaptive_schedule_trains_on_both_dispersion_paths() {
        // A2SGD: free dispersion from the gathered two-means packets;
        // Dense: the explicit 128-bit drift allgather fallback. Both must
        // agree across ranks (the run would deadlock otherwise) and train.
        for algo in [AlgoKind::A2sgd, AlgoKind::Dense] {
            let mut cfg = tiny_cfg(algo, 2);
            cfg.schedule = SchedKind::Adaptive(2);
            let r = train(&cfg);
            assert_eq!(r.sync_steps + r.local_steps, r.iters, "{}", algo.name());
            assert!(r.local_steps > 0, "{} adaptive never went local", algo.name());
            assert!(r.final_metric > 30.0, "{} accuracy {}", algo.name(), r.final_metric);
        }
    }

    #[test]
    fn scheduled_hier_composes_with_o1_inter_traffic() {
        let mut cfg = tiny_cfg(AlgoKind::A2sgd, 4);
        cfg.topology = Topology::Hier { group_size: 2 };
        cfg.schedule = SchedKind::Fixed(4);
        let r = train(&cfg);
        assert!(r.final_metric > 30.0, "accuracy {} too low", r.final_metric);
        assert_eq!(r.sync_steps, r.iters / 4);
        // The O(1) inter-plane claim survives the composition: 64 bits per
        // sync, amortized over the window.
        assert_eq!(r.inter_wire_bits_per_iter, 64 * r.sync_steps as u64 / r.iters as u64);
        assert!(r.label.contains("sched(fixed4, hier(dense, A2SGD))"), "label {}", r.label);
    }

    #[test]
    fn scheduled_runs_are_deterministic() {
        for sched in [SchedKind::Fixed(4), SchedKind::Adaptive(2)] {
            let mut cfg = tiny_cfg(AlgoKind::A2sgd, 2);
            cfg.schedule = sched;
            let a = train(&cfg);
            let b = train(&cfg);
            assert_eq!(a.final_metric, b.final_metric);
            assert_eq!(a.sync_steps, b.sync_steps);
            let ea: Vec<u64> = a.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            let eb: Vec<u64> = b.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            assert_eq!(ea, eb);
        }
    }

    #[test]
    fn wire_accounting_matches_formula() {
        for algo in [AlgoKind::Dense, AlgoKind::A2sgd, AlgoKind::TopK(0.01)] {
            let r = train(&tiny_cfg(algo, 2));
            let mut m = ModelKind::Fnn3.build(Preset::Scaled, 42);
            let n = param_count(m.as_mut());
            let expect = algo.build(n, 0, 0).wire_bits_formula(n);
            assert_eq!(r.wire_bits_per_iter, expect, "{}", algo.name());
        }
    }
}
