//! The zipped optimizer loops against the indexed loops they replaced, bit
//! for bit, over special values (±0, NaN, ±inf, subnormals) and several
//! steps, plus the velocity-lane size check on both optimizers.

use mini_nn::module::{Mode, Module};
use mini_nn::optim::{Lars, Sgd};
use mini_nn::param::Param;
use mini_tensor::ops;
use mini_tensor::rng::SeedRng;
use mini_tensor::Tensor;
use proptest::prelude::*;

/// A bag of parameters; forward and backward are never called.
struct Bag(Vec<Param>);

impl Module for Bag {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        x.clone()
    }
    fn backward(&mut self, dout: &Tensor) -> Tensor {
        dout.clone()
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.0.iter_mut().for_each(f);
    }
}

/// One value: mostly Gaussian, with ±0, NaN, ±inf and subnormals mixed in
/// when `special` is set.
fn value(rng: &mut SeedRng, special: bool) -> f32 {
    if !special {
        return rng.randn();
    }
    match rng.below(16) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::NAN,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => f32::from_bits(1 + rng.below(0x7f_ffff) as u32),
        6 => -f32::from_bits(1 + rng.below(0x7f_ffff) as u32),
        _ => rng.randn(),
    }
}

/// How a parameter's values are drawn: all-zero weights or gradients (the
/// LARS zero-norm fallback), special values, or plain Gaussians.
#[derive(Clone, Copy)]
enum Fill {
    ZeroData,
    ZeroGrad,
    Special,
    Plain,
}

fn fill_of(rng: &mut SeedRng) -> Fill {
    [Fill::ZeroData, Fill::ZeroGrad, Fill::Special, Fill::Plain][rng.below(4)]
}

fn draw(rng: &mut SeedRng, n: usize, zero: bool, special: bool) -> Vec<f32> {
    (0..n).map(|_| if zero { 0.0 } else { value(rng, special) }).collect()
}

/// The parameters (data, fill) of a bag with the given lane sizes.
fn params(rng: &mut SeedRng, sizes: &[usize]) -> (Vec<Vec<f32>>, Vec<Fill>) {
    let fills: Vec<Fill> = sizes.iter().map(|_| fill_of(rng)).collect();
    let data = sizes
        .iter()
        .zip(&fills)
        .map(|(&n, f)| draw(rng, n, matches!(f, Fill::ZeroData), matches!(f, Fill::Special)))
        .collect();
    (data, fills)
}

fn grads(rng: &mut SeedRng, sizes: &[usize], fills: &[Fill]) -> Vec<Vec<f32>> {
    sizes
        .iter()
        .zip(fills)
        .map(|(&n, f)| draw(rng, n, matches!(f, Fill::ZeroGrad), matches!(f, Fill::Special)))
        .collect()
}

fn bag(data: &[Vec<f32>]) -> Bag {
    Bag(data
        .iter()
        .enumerate()
        .map(|(i, d)| Param::new(format!("p{i}"), Tensor::from_vec(d.clone(), [d.len()])))
        .collect())
}

fn set_grads(m: &mut Bag, g: &[Vec<f32>]) {
    for (p, g) in m.0.iter_mut().zip(g) {
        p.grad.as_mut_slice().copy_from_slice(g);
    }
}

/// Bitwise equality, except that any NaN equals any NaN: Rust leaves NaN
/// payloads unspecified.
fn assert_same(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        let same = if a.is_nan() || b.is_nan() {
            a.is_nan() && b.is_nan()
        } else {
            a.to_bits() == b.to_bits()
        };
        assert!(
            same,
            "{what}[{i}]: got {a:e} ({:#010x}), want {b:e} ({:#010x})",
            a.to_bits(),
            b.to_bits()
        );
    }
}

/// The indexed `Sgd::step` loop, as it was before it was zipped.
fn sgd_reference(w: &mut [f32], g: &[f32], v: &mut [f32], momentum: f32, wd: f32, lr: f32) {
    if momentum == 0.0 {
        for i in 0..w.len() {
            let grad = g[i] + wd * w[i];
            w[i] -= lr * grad;
        }
    } else {
        for i in 0..w.len() {
            let grad = g[i] + wd * w[i];
            v[i] = momentum * v[i] + grad;
            w[i] -= lr * v[i];
        }
    }
}

/// The indexed `Lars::step` loop, local rate included, as it was before it
/// was zipped.
fn lars_reference(
    w: &mut [f32],
    g: &[f32],
    v: &mut [f32],
    momentum: f32,
    wd: f32,
    trust: f32,
    lr: f32,
) {
    let w_norm = ops::norm2(w) as f32;
    let g_norm = ops::norm2(g) as f32;
    let local = if w_norm > 0.0 && g_norm > 0.0 {
        trust * w_norm / (g_norm + wd * w_norm + 1e-12)
    } else {
        1.0
    };
    for i in 0..w.len() {
        let grad = local * (g[i] + wd * w[i]);
        v[i] = momentum * v[i] + grad;
        w[i] -= lr * v[i];
    }
}

/// Runs `steps` optimizer steps on a bag and on the reference lanes with
/// the same fresh gradients each step, comparing weights and velocities
/// after every step.
fn check_steps(
    seed: u64,
    sizes: &[usize],
    steps: usize,
    mut step: impl FnMut(&mut Bag) -> Vec<Vec<f32>>,
    mut reference: impl FnMut(&mut [f32], &[f32], &mut [f32]),
) {
    let mut rng = SeedRng::new(seed);
    let (mut want_w, fills) = params(&mut rng, sizes);
    let mut want_v: Vec<Vec<f32>> = sizes.iter().map(|&n| vec![0.0; n]).collect();
    let mut m = bag(&want_w);
    for s in 0..steps {
        let g = grads(&mut rng, sizes, &fills);
        set_grads(&mut m, &g);
        let got_v = step(&mut m);
        for ((w, g), v) in want_w.iter_mut().zip(&g).zip(want_v.iter_mut()) {
            reference(w, g, v);
        }
        for (i, p) in m.0.iter().enumerate() {
            assert_same(&format!("step {s} w{i}"), p.data.as_slice(), &want_w[i]);
            assert_same(&format!("step {s} v{i}"), &got_v[i], &want_v[i]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sgd_matches_indexed_loops(seed in 0u64..1_000_000,
                                 sizes in prop::collection::vec(1usize..70, 1..5),
                                 steps in 1usize..5,
                                 heavy_ball in any::<bool>(),
                                 decay in any::<bool>()) {
        let momentum = if heavy_ball { 0.9 } else { 0.0 };
        let wd = if decay { 1e-2 } else { 0.0 };
        let lr = 0.05;
        let mut opt = Sgd::new(momentum, wd);
        check_steps(
            seed,
            &sizes,
            steps,
            |m| {
                opt.step(m, lr);
                // Momentum 0 never touches the lanes: they stay zero, like
                // the reference's.
                opt.velocity_lanes().to_vec()
            },
            |w, g, v| sgd_reference(w, g, v, momentum, wd, lr),
        );
    }

    #[test]
    fn lars_matches_indexed_loops(seed in 0u64..1_000_000,
                                  sizes in prop::collection::vec(1usize..70, 1..5),
                                  steps in 1usize..5,
                                  heavy_ball in any::<bool>(),
                                  decay in any::<bool>()) {
        let momentum = if heavy_ball { 0.9 } else { 0.0 };
        let wd = if decay { 5e-4 } else { 0.0 };
        let (trust, lr) = (1e-2, 0.5);
        let mut opt = Lars::new(momentum, wd, trust);
        check_steps(
            seed,
            &sizes,
            steps,
            |m| {
                opt.step(m, lr);
                opt.velocity_lanes().to_vec()
            },
            |w, g, v| lars_reference(w, g, v, momentum, wd, trust, lr),
        );
    }
}

/// A two-parameter bag (3 and 5 scalars) with one velocity lane resized.
fn mismatched(longer: bool) -> (Bag, Vec<Vec<f32>>) {
    let m = bag(&[vec![1.0; 3], vec![1.0; 5]]);
    let lanes = vec![vec![0.0; 3], vec![0.0; if longer { 6 } else { 4 }]];
    (m, lanes)
}

#[test]
#[should_panic(expected = "parameter set changed between steps")]
fn sgd_rejects_a_short_velocity_lane() {
    let (mut m, lanes) = mismatched(false);
    let mut opt = Sgd::new(0.9, 0.0);
    opt.set_velocity_lanes(lanes);
    opt.step(&mut m, 0.1);
}

#[test]
#[should_panic(expected = "parameter set changed between steps")]
fn sgd_rejects_a_long_velocity_lane() {
    let (mut m, lanes) = mismatched(true);
    let mut opt = Sgd::new(0.9, 0.0);
    opt.set_velocity_lanes(lanes);
    opt.step(&mut m, 0.1);
}

#[test]
#[should_panic(expected = "parameter set changed between steps")]
fn lars_rejects_a_short_velocity_lane() {
    let (mut m, lanes) = mismatched(false);
    let mut opt = Lars::new(0.9, 0.0, 1e-2);
    opt.set_velocity_lanes(lanes);
    opt.step(&mut m, 0.1);
}

#[test]
#[should_panic(expected = "parameter set changed between steps")]
fn lars_rejects_a_long_velocity_lane() {
    let (mut m, lanes) = mismatched(true);
    let mut opt = Lars::new(0.9, 0.0, 1e-2);
    opt.set_velocity_lanes(lanes);
    opt.step(&mut m, 0.1);
}
