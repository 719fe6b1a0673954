//! Single-layer probes for `mini-tensor`: GEMM throughput on a workload's
//! own layer shapes against the microkernel's single-thread ceiling, and
//! the cost of one fork-join call of the `par` helpers under rank load.

use cluster_comm::{run_cluster, NetworkProfile};
use mini_nn::loss::softmax_cross_entropy;
use mini_nn::models::{ModelKind, Preset};
use mini_nn::module::{Mode, Module, ModuleExt};
use mini_tensor::gemm::Gemm;
use mini_tensor::par::{par_for_mut, PAR_THRESHOLD};
use mini_tensor::Tensor;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// A layer that lowers onto the GEMM core.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// `Linear(inp → out)`.
    Linear { inp: usize, out: usize },
    /// 3×3, stride 1, pad 1 convolution on a `side`×`side` map.
    Conv { cin: usize, cout: usize, side: usize },
}

/// The GEMM-backed layers of `model`, in parameter order.
pub fn layers(model: ModelKind, preset: Preset) -> Vec<Layer> {
    let lin = |inp, out| Layer::Linear { inp, out };
    let conv = |cin, cout, side| Layer::Conv { cin, cout, side };
    match (model, preset) {
        (ModelKind::Fnn3, Preset::Paper) => {
            vec![lin(784, 206), lin(206, 150), lin(150, 40), lin(40, 10)]
        }
        (ModelKind::Vgg16, Preset::Scaled) => vec![
            conv(3, 8, 32),
            conv(8, 8, 32),
            conv(8, 16, 16),
            conv(16, 16, 16),
            conv(16, 32, 8),
            conv(32, 32, 8),
            conv(32, 32, 8),
            conv(32, 64, 4),
            conv(64, 64, 4),
            conv(64, 64, 4),
            conv(64, 64, 2),
            conv(64, 64, 2),
            conv(64, 64, 2),
            lin(64, 10),
        ],
        other => panic!("no layer table for {other:?}"),
    }
}

/// Checks the layer table against the built model: the model's matrix
/// and filter weights must be exactly the table's, in order.
pub fn table_matches(model: &mut dyn Module, table: &[Layer]) -> bool {
    let want: Vec<Vec<usize>> = table
        .iter()
        .map(|l| match *l {
            Layer::Linear { inp, out } => vec![out, inp],
            Layer::Conv { cin, cout, .. } => vec![cout, cin, 3, 3],
        })
        .collect();
    let mut have = Vec::new();
    model.visit_params(&mut |p| {
        if p.data.shape().rank() >= 2 {
            have.push(p.data.shape().dims().to_vec());
        }
    });
    have == want
}

/// The GEMM calls one rank makes per step at batch `b` (forward plus both
/// backward products), each with its call count. Convolutions run one
/// product per image, exactly as `mini_tensor::conv` lowers them.
pub fn step_gemms(table: &[Layer], b: usize) -> Vec<(Gemm, usize)> {
    let mut v = Vec::new();
    for l in table {
        match *l {
            Layer::Linear { inp, out } => {
                v.push((Gemm::nt(b, inp, out), 1));
                v.push((Gemm::tn(out, b, inp), 1));
                v.push((Gemm::nn(b, out, inp), 1));
            }
            Layer::Conv { cin, cout, side } => {
                let (ckk, hw) = (cin * 9, side * side);
                v.push((Gemm::nn(cout, ckk, hw), b));
                v.push((Gemm::nt(cout, hw, ckk), b));
                v.push((Gemm::tn(ckk, cout, hw), b));
            }
        }
    }
    v
}

fn flops(g: &Gemm) -> f64 {
    2.0 * (g.m * g.k * g.n) as f64
}

/// Floating-point operations in `gemms`.
pub fn flops_per_step(gemms: &[(Gemm, usize)]) -> f64 {
    gemms.iter().map(|(g, c)| flops(g) * *c as f64).sum()
}

fn filled(len: usize, salt: usize) -> Vec<f32> {
    (0..len).map(|i| ((i * 7 + salt) % 13) as f32 * 0.1 - 0.6).collect()
}

/// Median seconds of `pass` over at least `min_reps` repetitions lasting
/// at least `min_s` in total.
fn median_secs(min_reps: usize, min_s: f64, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut t = Vec::new();
    while t.len() < min_reps || start.elapsed().as_secs_f64() < min_s {
        let s = Instant::now();
        pass();
        t.push(s.elapsed().as_secs_f64());
    }
    crate::stats::median(&mut t)
}

/// Achieved GFLOP/s of `Gemm::run` over one step's GEMM calls.
pub fn gemm_gflops(gemms: &[(Gemm, usize)]) -> f64 {
    let mut bufs: Vec<_> = gemms
        .iter()
        .enumerate()
        .map(|(i, (g, _))| (filled(g.a_len(), i), filled(g.b_len(), i + 1), vec![0.0; g.c_len()]))
        .collect();
    let secs = median_secs(5, 0.3, || {
        for ((g, calls), (a, b, c)) in gemms.iter().zip(bufs.iter_mut()) {
            for _ in 0..*calls {
                g.run(black_box(a), black_box(b), black_box(c));
            }
        }
    });
    flops_per_step(gemms) / secs / 1e9
}

/// Single-thread 512³ `Gemm::run_st` GFLOP/s: the microkernel's ceiling.
pub fn gemm_peak_gflops() -> f64 {
    let g = Gemm::nn(512, 512, 512);
    let (a, b, mut c) = (filled(g.a_len(), 0), filled(g.b_len(), 1), vec![0.0; g.c_len()]);
    let secs = median_secs(5, 0.3, || g.run_st(black_box(&a), black_box(&b), black_box(&mut c)));
    flops(&g) / secs / 1e9
}

/// Calls of the fork-join probe per measurement.
const PAR_CALLS: usize = 2000;

/// Median microseconds of one `par_for_mut` over `PAR_THRESHOLD` elements
/// of trivial work, timed on rank 0 of a two-rank in-proc world while
/// rank 1 trains `model` forward and backward at batch `b`.
pub fn par_call_us(model: ModelKind, preset: Preset, b: usize, input: &[usize]) -> f64 {
    let done = AtomicBool::new(false);
    let outs = run_cluster(2, NetworkProfile::infiniband_100g(), |comm| {
        comm.barrier();
        if comm.rank() == 0 {
            let mut buf = vec![0.0f32; PAR_THRESHOLD];
            let mut t = Vec::with_capacity(PAR_CALLS);
            for _ in 0..PAR_CALLS {
                let s = Instant::now();
                par_for_mut(black_box(&mut buf), |v| *v += 1.0);
                t.push(s.elapsed().as_secs_f64() * 1e6);
            }
            done.store(true, Ordering::SeqCst);
            crate::stats::median(&mut t)
        } else {
            let mut net = model.build(preset, 1);
            let mut dims = vec![b];
            dims.extend_from_slice(input);
            let x = Tensor::from_vec(filled(dims.iter().product(), 3), &dims[..]);
            let targets: Vec<usize> = (0..b).map(|i| i % 10).collect();
            while !done.load(Ordering::SeqCst) {
                net.zero_grad();
                let logits = net.forward(&x, Mode::Train);
                net.backward(&softmax_cross_entropy(&logits, &targets).dlogits);
            }
            0.0
        }
    });
    outs[0]
}
