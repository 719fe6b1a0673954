//! End-to-end training benchmark with a per-layer step waterfall.
//!
//! ```text
//! stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run derives [`SEEDS_PER_RUN`] training seeds from `--seed`. It times
//! the set-up constructors `train()` uses, then calls the public entry
//! point `a2sgd::trainer::train` (launching two loopback-TCP rank
//! processes for the TCP workload) round-robin over those seeds for
//! `--seconds`, tracing off, and checks each result. With `--trace 0` it
//! prints the end-to-end metrics. With `--trace 1` it then drives every
//! seed's run step by step through the trainer's public per-step calls,
//! spans recorded around each call from here (see [`driver`]), probes the
//! `mini-tensor` layer on its own, and prints the per-layer metrics. The
//! last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A check that fails or an operation that panics counts as a failed
//! operation and makes `correct` false (exit code 1).

mod driver;
mod probes;
mod stats;

use a2sgd::experiments::{paper_lr_policy, scaled_convergence_config};
use a2sgd::trainer::{train, TrainConfig, TrainReport};
use a2sgd::{AlgoKind, CommBackend};
use cluster_comm::{run_cluster, run_cluster_tcp_threads, run_multiprocess, CommHandle};
use driver::{drive, RankRun, PHASES, SYNC};
use mini_nn::flat::param_count;
use mini_nn::models::{ModelKind, Preset};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use synthdata::{SyntheticImages, VisionSpec};

/// Ranks in every workload: one per core of a 2-vCPU machine.
const WORKERS: usize = 2;
/// Samples per rank per step.
const BATCH: usize = 16;
/// Epochs per training run: the first warms the learning rate up, the
/// second decays it, and `final_loss` is the second's mean loss.
const EPOCHS: usize = 2;
/// Held-out samples rank 0 evaluates after each epoch.
const EVAL_SIZE: usize = 64;
/// Set-up repetitions per benchmark run (`setup_s` is their median).
const SETUP_REPS: usize = 25;
/// Training seeds per benchmark run. The last-epoch loss varies by about
/// 12-17% (quartile spread) from one seed to the next, because each seed
/// draws its own dataset; `final_loss` averages it over this many seeds.
const SEEDS_PER_RUN: usize = 16;
/// Steps of the one-rank driven run (`trainer.p1_step_ms`).
const P1_STEPS: usize = 40;
/// Where traced runs write their spans as Chrome trace-event JSON.
const TRACE_DIR: &str = ".bench_out";

/// One benchmark workload: a model, a synchronizer and a data plane.
struct Workload {
    name: &'static str,
    model: ModelKind,
    preset: Preset,
    algo: AlgoKind,
    tcp: bool,
    steps_per_epoch: usize,
    base_lr: f32,
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "a2sgd-fnn3-inproc",
        model: ModelKind::Fnn3,
        preset: Preset::Paper,
        algo: AlgoKind::A2sgd,
        tcp: false,
        steps_per_epoch: 120,
        base_lr: 0.0001,
    },
    Workload {
        name: "dense-fnn3-tcp",
        model: ModelKind::Fnn3,
        preset: Preset::Paper,
        algo: AlgoKind::Dense,
        tcp: true,
        steps_per_epoch: 120,
        base_lr: 0.0001,
    },
    Workload {
        name: "dense-vgg16-inproc",
        model: ModelKind::Vgg16,
        preset: Preset::Scaled,
        algo: AlgoKind::Dense,
        tcp: false,
        steps_per_epoch: 8,
        base_lr: 0.02,
    },
];

impl Workload {
    fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The training run this workload times: the repository's scaled
    /// convergence preset (optimizer, learning-rate policy) at this
    /// workload's model size, batch, length and base rate. The FNN-3 rate
    /// is a hundredth of the paper's so the last epoch is still descending
    /// (loss about 1.75 from 2.30): near convergence the loss is a few
    /// thousandths and its spread across seeds exceeds 40%.
    fn config(&self, seed: u64) -> TrainConfig {
        let mut cfg = scaled_convergence_config(self.model, self.algo, WORKERS, seed);
        cfg.preset = self.preset;
        cfg.epochs = EPOCHS;
        cfg.batch_per_worker = BATCH;
        cfg.train_size = WORKERS * BATCH * self.steps_per_epoch;
        cfg.eval_size = EVAL_SIZE;
        cfg.lr = paper_lr_policy(self.model, WORKERS, EPOCHS, self.base_lr);
        cfg.backend = if self.tcp { CommBackend::Tcp } else { CommBackend::InProc };
        cfg
    }

    /// Sync payload bytes per rank per step, before transport framing.
    fn payload_bytes(&self, params: usize) -> u64 {
        match self.algo {
            AlgoKind::A2sgd => 8,
            AlgoKind::Dense => 4 * params as u64,
            other => panic!("no payload rule for {other:?}"),
        }
    }
}

/// The trainer's dataset for `cfg` (same spec, size and seed derivation).
fn dataset(cfg: &TrainConfig) -> SyntheticImages {
    let spec = match cfg.model {
        ModelKind::Fnn3 => VisionSpec::mnist_like(),
        _ => VisionSpec::cifar_like(),
    };
    SyntheticImages::new(spec, cfg.train_size + cfg.eval_size, cfg.seed ^ 0xDA7A)
}

/// Peak resident set of this process in KiB.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

fn unix_ns() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).expect("clock after 1970").as_nanos() as u64
}

// ---- u64 <-> f32 lanes: rank processes return `Vec<f32>` result frames.

fn push_u64(out: &mut Vec<f32>, v: u64) {
    out.push(f32::from_bits((v >> 32) as u32));
    out.push(f32::from_bits(v as u32));
}

fn lane_u64(lanes: &[f32], i: usize) -> u64 {
    ((lanes[2 * i].to_bits() as u64) << 32) | lanes[2 * i + 1].to_bits() as u64
}

/// Rank 0's view of one training run, as `train()` reports it.
struct Summary {
    final_loss: f64,
    first_loss: f64,
    iters: u64,
    sync_wire_bytes: u64,
    messages: u64,
    framing_bytes: u64,
    divergence: f64,
}

impl Summary {
    fn of(r: &TrainReport) -> Self {
        Summary {
            final_loss: r.epochs.last().expect("at least one epoch").train_loss,
            first_loss: r.epochs[0].train_loss,
            iters: r.iters as u64,
            sync_wire_bytes: r.measured_sync_wire_bytes,
            messages: r.messages,
            framing_bytes: r.framing_bytes,
            divergence: r.replica_divergence,
        }
    }

    fn encode(&self, rss_kb: u64) -> Vec<f32> {
        let mut v = Vec::new();
        for x in [
            self.final_loss.to_bits(),
            self.first_loss.to_bits(),
            self.iters,
            self.sync_wire_bytes,
            self.messages,
            self.framing_bytes,
            self.divergence.to_bits(),
            rss_kb,
        ] {
            push_u64(&mut v, x);
        }
        v
    }

    fn decode(lanes: &[f32]) -> (Self, u64) {
        let s = Summary {
            final_loss: f64::from_bits(lane_u64(lanes, 0)),
            first_loss: f64::from_bits(lane_u64(lanes, 1)),
            iters: lane_u64(lanes, 2),
            sync_wire_bytes: lane_u64(lanes, 3),
            messages: lane_u64(lanes, 4),
            framing_bytes: lane_u64(lanes, 5),
            divergence: f64::from_bits(lane_u64(lanes, 6)),
        };
        (s, lane_u64(lanes, 7))
    }
}

/// One untraced training run, timed from outside.
struct Run {
    /// Index of the run's seed among the benchmark run's seeds.
    seed_idx: usize,
    wall_s: f64,
    summary: Summary,
    rss_mb: f64,
}

/// The training seeds of the benchmark run with seed `seed`.
fn run_seeds(seed: u64) -> Vec<u64> {
    (0..SEEDS_PER_RUN as u64)
        .map(|j| seed.wrapping_mul(SEEDS_PER_RUN as u64).wrapping_add(j))
        .collect()
}

/// Forks the workload's two rank processes over loopback TCP. Each
/// re-enters [`main`] as `child <kind> <workload> <seed>`, runs `rank` on
/// the config and exits inside the launcher, so in a rank process this
/// never returns.
fn launch(
    kind: &str,
    w: &Workload,
    seed: u64,
    rank: impl FnOnce(&TrainConfig) -> Vec<f32>,
) -> Vec<Vec<f32>> {
    let cfg = w.config(seed);
    let seed_arg = seed.to_string();
    run_multiprocess(WORKERS, &["child", kind, w.name, &seed_arg], move |_| rank(&cfg))
}

/// Rank processes that call `train()`.
fn launch_train(w: &Workload, seed: u64) -> Vec<Vec<f32>> {
    launch("train", w, seed, |cfg| Summary::of(&train(cfg)).encode(vm_hwm_kb()))
}

/// Rank processes that run `train()`'s set-up (dataset, TCP rendezvous,
/// model, synchronizer) and report when they finished.
fn launch_setup(w: &Workload, seed: u64) -> Vec<Vec<f32>> {
    launch("setup", w, seed, |cfg| {
        let data = dataset(cfg);
        let comm = CommHandle::tcp_from_env().expect("TCP rendezvous");
        let mut model = cfg.model.build(cfg.preset, cfg.seed);
        let n = param_count(model.as_mut());
        black_box((&data, cfg.algo.build(n, cfg.seed ^ 0x5EED, comm.rank())));
        let mut v = Vec::new();
        push_u64(&mut v, unix_ns());
        v
    })
}

/// Seconds before the first step can run.
fn setup_once(w: &Workload, seed: u64) -> f64 {
    if w.tcp {
        let t0 = unix_ns();
        let done = launch_setup(w, seed).iter().map(|l| lane_u64(l, 0)).max().expect("ranks");
        return done.saturating_sub(t0) as f64 / 1e9;
    }
    let cfg = w.config(seed);
    let t = Instant::now();
    let data = dataset(&cfg);
    for rank in 0..WORKERS {
        let mut model = cfg.model.build(cfg.preset, cfg.seed);
        let n = param_count(model.as_mut());
        black_box((&model, cfg.algo.build(n, cfg.seed ^ 0x5EED, rank)));
    }
    black_box(&data);
    t.elapsed().as_secs_f64()
}

/// One untraced `train()` call (or TCP launch), timed from outside.
fn train_once(w: &Workload, seeds: &[u64], seed_idx: usize) -> Run {
    let seed = seeds[seed_idx];
    let t = Instant::now();
    if w.tcp {
        let outs = launch_train(w, seed);
        let wall_s = t.elapsed().as_secs_f64();
        let (summary, _) = Summary::decode(&outs[0]);
        let rss_kb: u64 = outs.iter().map(|l| Summary::decode(l).1).sum();
        return Run { seed_idx, wall_s, summary, rss_mb: rss_kb as f64 / 1024.0 };
    }
    let rep = train(&w.config(seed));
    let wall_s = t.elapsed().as_secs_f64();
    Run { seed_idx, wall_s, summary: Summary::of(&rep), rss_mb: vm_hwm_kb() as f64 / 1024.0 }
}

/// Checks one training run's results; returns what failed.
fn check_run(w: &Workload, params: usize, s: &Summary, first: Option<&Summary>) -> Vec<String> {
    let mut errs = Vec::new();
    let payload = w.payload_bytes(params);
    if s.iters == 0 || !s.sync_wire_bytes.is_multiple_of(s.iters) {
        errs.push(format!(
            "{} sync bytes over {} steps is not a whole per-step",
            s.sync_wire_bytes, s.iters
        ));
    } else {
        let per = s.sync_wire_bytes / s.iters;
        if w.tcp {
            // Payload plus one 16-byte frame header per message.
            let extra = per.saturating_sub(payload);
            if per <= payload || !extra.is_multiple_of(16) || s.framing_bytes != 16 * s.messages {
                errs.push(format!(
                    "TCP sync bytes/step {per} is not {payload} plus 16-byte headers \
                     (framing {} over {} messages)",
                    s.framing_bytes, s.messages
                ));
            }
        } else if per != payload {
            errs.push(format!("sync bytes/step {per}, expected exactly {payload}"));
        }
    }
    if !(s.final_loss.is_finite() && s.final_loss < s.first_loss) {
        errs.push(format!(
            "final loss {} not finite and below first epoch's {}",
            s.final_loss, s.first_loss
        ));
    }
    if !s.divergence.is_finite() {
        errs.push(format!("replica divergence {} is not finite", s.divergence));
    }
    if let Some(f) = first {
        if s.final_loss.to_bits() != f.final_loss.to_bits() {
            errs.push(format!(
                "same seed, different final loss: {} vs {}",
                s.final_loss, f.final_loss
            ));
        }
    }
    errs
}

/// Operations attempted and failed in this benchmark run.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Ledger {
    /// Runs one operation; a panic counts it as failed.
    fn run<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(_) => {
                self.failed += 1;
                self.errors.push(format!("{what} panicked"));
                None
            }
        }
    }

    /// Records the failed checks of the operation just run.
    fn check(&mut self, what: &str, errs: Vec<String>) {
        if !errs.is_empty() {
            self.failed += 1;
            self.errors.extend(errs.into_iter().map(|e| format!("{what}: {e}")));
        }
    }
}

/// Checks a driven run against the untraced `train()` run of its seed.
fn check_driven(w: &Workload, params: usize, ranks: &[RankRun], want: &Summary) -> Vec<String> {
    let mut errs = Vec::new();
    let r0 = &ranks[0];
    // The same computation as train()'s: bit-identical epoch losses.
    let got = (r0.epoch_losses[0], *r0.epoch_losses.last().expect("an epoch"));
    if got.0.to_bits() != want.first_loss.to_bits() || got.1.to_bits() != want.final_loss.to_bits()
    {
        errs.push(format!(
            "driver epoch losses ({}, {}) differ from train()'s ({}, {})",
            got.0, got.1, want.first_loss, want.final_loss
        ));
    }
    if r0.steps.len() as u64 != want.iters || r0.params != params {
        errs.push(format!("driver ran {} steps over {} params", r0.steps.len(), r0.params));
    }
    let payload = w.payload_bytes(params);
    for s in ranks.iter().flat_map(|r| &r.steps) {
        if !s.spans_nest() {
            errs.push(format!("step spans do not nest inside the step: {s:?}"));
            break;
        }
        // The synchronizer's own timers run inside its call's span.
        let call_s = s.phase_ns(SYNC) as f64 / 1e9;
        if s.compress_s + s.exchange_s > call_s + 1e-6 {
            errs.push(format!(
                "compress {} s + exchange {} s exceed the sync call's {call_s} s",
                s.compress_s, s.exchange_s
            ));
            break;
        }
        let header = if w.tcp { 16 * s.messages } else { 0 };
        if s.wire_bytes != payload + header {
            errs.push(format!(
                "step moved {} B in {} messages, expected {payload} + {header}",
                s.wire_bytes, s.messages
            ));
            break;
        }
    }
    errs
}

type Metric = (&'static str, f64, &'static str);

/// Per-layer metrics: every seed's training run driven step by step
/// (rank 0's steps make the waterfall), plus the layer probes.
fn traced(
    w: &Workload,
    seed: u64,
    params: usize,
    runs: &[Run],
    untraced_steps_per_s: f64,
    led: &mut Ledger,
) -> Vec<Metric> {
    let seeds = run_seeds(seed);
    let mut driven: Vec<Vec<RankRun>> = Vec::new();
    let mut driven_steps_per_s = Vec::new();
    for (j, &seed) in seeds.iter().enumerate() {
        let Some(want) = runs.iter().find(|r| r.seed_idx == j) else { continue };
        let cfg = w.config(seed);
        let clock = Instant::now();
        let ranks = led.run("traced driver", || {
            let data = dataset(&cfg);
            let step = |comm: &mut CommHandle| drive(&cfg, &data, comm, clock, None);
            if w.tcp {
                run_cluster_tcp_threads(WORKERS, step)
            } else {
                run_cluster(WORKERS, cfg.profile, step)
            }
        });
        let wall_s = clock.elapsed().as_secs_f64();
        if let Some(ranks) = ranks {
            driven_steps_per_s.push(ranks[0].steps.len() as f64 / wall_s);
            led.check("traced driver", check_driven(w, params, &ranks, &want.summary));
            driven.push(ranks);
        }
    }
    if driven.is_empty() {
        return Vec::new();
    }
    write_trace(w, seed, &driven);

    let cfg = w.config(seeds[0]);
    let p1 = led.run("one-rank driver", || {
        let mut c1 = cfg.clone();
        c1.workers = 1;
        let data = dataset(&c1);
        let clock = Instant::now();
        run_cluster(1, cfg.profile, |comm| drive(&c1, &data, comm, clock, Some(P1_STEPS)))
    });
    let table = probes::layers(cfg.model, cfg.preset);
    let gemms = probes::step_gemms(&table, BATCH);
    let gemm_gflops = led.run("gemm probe", || probes::gemm_gflops(&gemms));
    if !probes::table_matches(cfg.model.build(cfg.preset, cfg.seed).as_mut(), &table) {
        led.check("gemm probe", vec!["layer table does not match the model's weights".into()]);
    }
    let gemm_peak = led.run("gemm peak probe", probes::gemm_peak_gflops);
    let input = dataset(&cfg).image_dims();
    let par_us = led.run("par probe", || probes::par_call_us(cfg.model, cfg.preset, BATCH, &input));

    let ms = |ns: f64| ns / 1e6;
    let steps: Vec<&driver::StepRec> = driven.iter().flat_map(|r| &r[0].steps).collect();
    let mean_phase = |i: usize| ms(stats::mean(steps.iter().map(|s| s.phase_ns(i) as f64)));
    let mut step_ms: Vec<f64> = steps.iter().map(|s| ms(s.step_ns() as f64)).collect();
    // Wait-for-slowest: last rank's entry into the sync call minus the first's.
    let mut skew_ms: Vec<f64> = driven
        .iter()
        .flat_map(|ranks| {
            (0..ranks[0].steps.len()).map(move |i| {
                let entries = ranks.iter().map(|r| r.steps[i].phases[SYNC].0);
                let (lo, hi) = entries.fold((u64::MAX, 0), |(lo, hi), t| (lo.min(t), hi.max(t)));
                ms((hi - lo) as f64)
            })
        })
        .collect();
    let compress_s = stats::mean(steps.iter().map(|s| s.compress_s));
    let per_step = |f: fn(&driver::StepRec) -> u64| {
        steps.iter().map(|s| f(s)).sum::<u64>() as f64 / steps.len() as f64
    };
    let p1_ms = p1.map(|r| {
        let mut t: Vec<f64> = r[0].steps.iter().map(|s| ms(s.step_ns() as f64)).collect();
        stats::median(&mut t)
    });

    let mut m: Vec<Metric> = vec![
        ("synthdata.batch_ms", mean_phase(0), "ms"),
        ("nn.forward_ms", mean_phase(1), "ms"),
        ("nn.backward_ms", mean_phase(2), "ms"),
        ("nn.grad_copy_ms", mean_phase(3) + mean_phase(5), "ms"),
        ("nn.optimizer_ms", mean_phase(6), "ms"),
        ("sync.call_ms", mean_phase(SYNC), "ms"),
        ("sync.compress_ms", compress_s * 1e3, "ms"),
        ("sync.compress_ns_per_param", compress_s * 1e9 / params as f64, "ns"),
        ("comm.exchange_ms", stats::mean(steps.iter().map(|s| s.exchange_s)) * 1e3, "ms"),
        ("comm.skew_ms", stats::median(&mut skew_ms), "ms"),
        ("comm.wire_bytes_per_step", per_step(|s| s.wire_bytes), "B"),
        ("comm.messages_per_step", per_step(|s| s.messages), "count"),
        ("trainer.step_ms_p50", stats::quantile(&mut step_ms, 0.5), "ms"),
        ("trainer.step_ms_p99", stats::quantile(&mut step_ms, 0.99), "ms"),
        ("trainer.step_samples", steps.len() as f64, "count"),
        (
            "trainer.unattributed_ms",
            ms(stats::mean(steps.iter().map(|s| s.unattributed_ns() as f64))),
            "ms",
        ),
        ("tensor.gemm_flops_per_step", probes::flops_per_step(&gemms), "flop"),
        (
            "trace.overhead_pct",
            (untraced_steps_per_s / stats::median(&mut driven_steps_per_s) - 1.0) * 100.0,
            "%",
        ),
    ];
    let probed = [
        ("trainer.p1_step_ms", p1_ms, "ms"),
        ("tensor.gemm_gflops", gemm_gflops, "GFLOP/s"),
        ("tensor.gemm_peak_gflops", gemm_peak, "GFLOP/s"),
        ("tensor.par_call_us", par_us, "us"),
    ];
    m.extend(probed.into_iter().filter_map(|(k, v, u)| Some((k, v?, u))));
    m
}

/// Writes the driven runs' spans as Chrome trace-event JSON under
/// [`TRACE_DIR`]: one process per seed, one track per rank.
fn write_trace(w: &Workload, seed: u64, driven: &[Vec<RankRun>]) {
    let mut ev = Vec::new();
    for (pid, ranks) in driven.iter().enumerate() {
        for r in ranks {
            for s in &r.steps {
                let spans = std::iter::once(("trainer.step", (s.start, s.end)))
                    .chain(PHASES.iter().copied().zip(s.phases.iter().copied()));
                for (name, (a, b)) in spans {
                    ev.push(format!(
                        r#"{{"name":"{name}","ph":"X","pid":{pid},"tid":{},"ts":{},"dur":{}}}"#,
                        r.rank,
                        a as f64 / 1e3,
                        (b - a) as f64 / 1e3
                    ));
                }
            }
        }
    }
    let path = format!("{TRACE_DIR}/{}-seed{seed}.trace.json", w.name);
    let body = format!("{{\"traceEvents\":[\n{}\n]}}\n", ev.join(",\n"));
    if let Err(e) = std::fs::create_dir_all(TRACE_DIR).and_then(|_| std::fs::write(&path, body)) {
        eprintln!("stepbench: could not write {path}: {e}");
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::named(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {names:?}")
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: want 0 or 1")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// A launched rank process re-enters here with `child <kind> <workload>
/// <seed>` and runs its rank inside the launcher, which exits the process.
fn child(argv: &[String]) -> ! {
    let w = argv.get(1).and_then(|n| Workload::named(n)).expect("child workload");
    let seed = argv.get(2).and_then(|s| s.parse().ok()).expect("child seed");
    match argv.first().map(String::as_str) {
        Some("train") => launch_train(w, seed),
        Some("setup") => launch_setup(w, seed),
        other => panic!("unknown child kind {other:?}"),
    };
    unreachable!("a rank process exits inside the launcher")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("child") {
        child(&argv[1..]);
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("stepbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let w = args.workload;
    let seeds = run_seeds(args.seed);
    let cfg = w.config(seeds[0]);
    let params = param_count(cfg.model.build(cfg.preset, cfg.seed).as_mut());
    let mut led = Ledger::default();

    let mut setup_s: Vec<f64> = (0..SETUP_REPS)
        .filter_map(|i| led.run("set-up", || setup_once(w, seeds[i % seeds.len()])))
        .collect();

    // Round-robin over the seeds for `--seconds`: every seed once, and at
    // least one repeat to compare against bit for bit.
    let mut runs: Vec<Run> = Vec::new();
    let start = Instant::now();
    let mut tries = 0;
    while tries <= seeds.len() || start.elapsed().as_secs_f64() < args.seconds {
        let j = tries % seeds.len();
        tries += 1;
        if let Some(run) = led.run("train", || train_once(w, &seeds, j)) {
            let first = runs.iter().find(|r| r.seed_idx == j).map(|r| &r.summary);
            led.check("train", check_run(w, params, &run.summary, first));
            runs.push(run);
        }
    }
    let sps: Vec<f64> = runs.iter().map(|r| r.summary.iters as f64 / r.wall_s).collect();
    let steps_per_s = if sps.is_empty() { f64::NAN } else { stats::median(&mut sps.clone()) };
    // Mean last-epoch loss over the seeds (NaN when a seed has no run).
    let final_loss =
        stats::mean((0..seeds.len()).map(|j| {
            runs.iter().find(|r| r.seed_idx == j).map_or(f64::NAN, |r| r.summary.final_loss)
        }));

    let metrics: Vec<Metric> = match runs.first() {
        None => Vec::new(),
        Some(first) if !args.trace => vec![
            ("steps_per_s", steps_per_s, "1/s"),
            (
                "setup_s",
                if setup_s.is_empty() { f64::NAN } else { stats::median(&mut setup_s) },
                "s",
            ),
            ("final_loss", final_loss, "loss"),
            (
                "wire_bytes_per_step",
                first.summary.sync_wire_bytes as f64 / first.summary.iters as f64,
                "B",
            ),
            ("peak_rss_mb", runs.iter().map(|r| r.rss_mb).fold(0.0, f64::max), "MB"),
        ],
        Some(_) => traced(w, args.seed, params, &runs, steps_per_s, &mut led),
    };
    let correct = led.failed == 0 && !metrics.is_empty() && metrics.iter().all(|m| m.1.is_finite());
    for e in &led.errors {
        eprintln!("stepbench: {e}");
    }
    println!(
        "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}, \"params\": {params}, \
         \"nproc\": {}, \"train_runs\": {}, \"steps_per_s_min\": {}, \"steps_per_s_max\": {}}}}}",
        w.name,
        args.seed,
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
        runs.len(),
        json_num(sps.iter().copied().fold(f64::INFINITY, f64::min)),
        json_num(sps.iter().copied().fold(0.0, f64::max)),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        led.attempted,
        led.failed,
        body.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
