//! Gradient-ready hook contract: arrival order, completeness, and
//! result-equivalence of `backward_hooked` against plain `backward`, and of
//! `backward_params` against `backward_hooked`.

use mini_nn::hook::RecordingHook;
use mini_nn::layers::{Flatten, Linear, Relu, ResidualBlock, Sequential, ShortcutKind};
use mini_nn::models::{LstmLm, LstmLmConfig, ModelKind, Preset};
use mini_nn::module::{Mode, Module, ModuleExt};
use mini_nn::param::Param;
use mini_tensor::rng::SeedRng;
use mini_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn param_names(m: &mut dyn Module) -> Vec<String> {
    let mut names = Vec::new();
    m.visit_params(&mut |p| names.push(p.name.clone()));
    names
}

fn grads(m: &mut dyn Module) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    m.visit_params(&mut |p| out.push(p.grad.as_slice().iter().map(|v| v.to_bits()).collect()));
    out
}

#[test]
fn sequential_reports_layers_in_reverse_topological_order() {
    let mut rng = SeedRng::new(10);
    let mut net = Sequential::new("mlp")
        .push(Box::new(Linear::new("fc1", 6, 5, &mut rng)))
        .push(Box::new(Relu::new()))
        .push(Box::new(Linear::new("fc2", 5, 3, &mut rng)));
    let x = rng.randn_tensor(&[2, 6], 1.0);
    let y = net.forward(&x, Mode::Train);
    let mut hook = RecordingHook::default();
    let _ = net.backward_hooked(&Tensor::ones(y.shape().clone()), &mut hook);
    // The output layer's gradients land (and are announced) first; within
    // one layer, visit order (weight before bias) is preserved.
    assert_eq!(hook.order, vec!["fc2.weight", "fc2.bias", "fc1.weight", "fc1.bias"]);
}

#[test]
fn residual_block_reports_backward_execution_order() {
    let mut rng = SeedRng::new(11);
    let mut blk = ResidualBlock::with_shortcut("b", 2, 4, 2, ShortcutKind::Projection, &mut rng);
    let x = rng.randn_tensor(&[2, 2, 4, 4], 1.0);
    let y = blk.forward(&x, Mode::Train);
    let mut hook = RecordingHook::default();
    let _ = blk.backward_hooked(&Tensor::ones(y.shape().clone()), &mut hook);
    // Main branch in backward order (bn2 → conv2 → bn1 → conv1), then the
    // projection shortcut, which backpropagates last.
    assert_eq!(
        hook.order,
        vec![
            "b.bn2.gamma",
            "b.bn2.beta",
            "b.conv2.weight",
            "b.bn1.gamma",
            "b.bn1.beta",
            "b.conv1.weight",
            "b.down_bn.gamma",
            "b.down_bn.beta",
            "b.down.weight",
        ]
    );
}

#[test]
fn lstm_lm_reports_projection_first_embedding_last() {
    let cfg = LstmLmConfig { vocab: 12, emb: 4, hidden: 5, layers: 2, dropout: 0.0 };
    let mut m = LstmLm::new(&cfg, 12);
    let x = Tensor::from_vec(vec![1.0, 3.0, 7.0, 2.0], [1, 4]);
    let y = m.forward(&x, Mode::Train);
    let mut hook = RecordingHook::default();
    let _ = m.backward_hooked(&Tensor::ones(y.shape().clone()), &mut hook);
    assert_eq!(hook.order.first().unwrap(), "proj.weight");
    assert_eq!(hook.order.last().unwrap(), "emb.weight");
    // Stacked LSTMs unwind top-down: lstm1's gates before lstm0's.
    let pos = |n: &str| hook.order.iter().position(|o| o == n).unwrap();
    assert!(pos("lstm1.w_ih") < pos("lstm0.w_ih"));
}

/// A small input batch each model accepts.
fn model_input(kind: ModelKind) -> Tensor {
    match kind {
        ModelKind::LstmPtb => Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 4]),
        ModelKind::Fnn3 => SeedRng::new(6).randn_tensor(&[2, 1, 28, 28], 1.0),
        ModelKind::Vgg16 | ModelKind::ResNet20 => {
            SeedRng::new(6).randn_tensor(&[2, 3, 32, 32], 1.0)
        }
    }
}

/// Every model the trainer can build announces every trainable parameter
/// exactly once per hooked backward — nested containers included
/// (ResNet-20 exercises Sequential-of-ResidualBlock, option-A shortcuts).
#[test]
fn every_param_reported_exactly_once_on_all_models() {
    for kind in ModelKind::ALL {
        let mut m = kind.build(Preset::Scaled, 5);
        let y = m.forward(&model_input(kind), Mode::Train);
        let mut hook = RecordingHook::default();
        let _ = m.backward_hooked(&Tensor::ones(y.shape().clone()), &mut hook);
        let mut announced = hook.order.clone();
        let mut expected = param_names(m.as_mut());
        assert_eq!(announced.len(), expected.len(), "{}: count", kind.name());
        announced.sort();
        expected.sort();
        assert_eq!(announced, expected, "{}: parameter set", kind.name());
    }
}

/// The hook observes gradients, it must never change them: a hooked
/// backward accumulates bit-identical parameter gradients and returns a
/// bit-identical input gradient to the plain call.
#[test]
fn hooked_backward_is_bit_identical_to_plain_backward() {
    let build = || {
        let mut rng = SeedRng::new(21);
        Sequential::new("mlp")
            .push(Box::new(Linear::new("fc1", 8, 6, &mut rng)))
            .push(Box::new(Relu::new()))
            .push(Box::new(Linear::new("fc2", 6, 4, &mut rng)))
    };
    let mut rng = SeedRng::new(22);
    let x = rng.randn_tensor(&[3, 8], 1.0);
    let dout = rng.randn_tensor(&[3, 4], 1.0);

    let mut plain = build();
    plain.zero_grad();
    let _ = plain.forward(&x, Mode::Train);
    let dx_plain = plain.backward(&dout);

    let mut hooked = build();
    hooked.zero_grad();
    let _ = hooked.forward(&x, Mode::Train);
    let mut hook = RecordingHook::default();
    let dx_hooked = hooked.backward_hooked(&dout, &mut hook);

    assert_eq!(grads(&mut plain), grads(&mut hooked));
    let a: Vec<u32> = dx_plain.as_slice().iter().map(|v| v.to_bits()).collect();
    let b: Vec<u32> = dx_hooked.as_slice().iter().map(|v| v.to_bits()).collect();
    assert_eq!(a, b);
}

/// Runs one forward pass of `m` on `x` and one backward pass of a fixed
/// upstream gradient through `backward_hooked` (`params_only = false`) or
/// `backward_params`; returns the gradients and the announcement order.
fn backward_once(
    m: &mut dyn Module,
    x: &Tensor,
    params_only: bool,
) -> (Vec<Vec<u32>>, Vec<String>) {
    m.zero_grad();
    let y = m.forward(x, Mode::Train);
    let dout = SeedRng::new(31).randn_tensor(y.shape().dims(), 1.0);
    let mut hook = RecordingHook::default();
    if params_only {
        m.backward_params(&dout, &mut hook);
    } else {
        let _ = m.backward_hooked(&dout, &mut hook);
    }
    (grads(m), hook.order)
}

/// `backward_params` is `backward_hooked` without the input gradient: on
/// every model the trainer can build it leaves bit-identical parameter
/// gradients and announces the same parameters in the same order.
#[test]
fn backward_params_matches_backward_hooked_on_all_models() {
    for kind in ModelKind::ALL {
        let x = model_input(kind);
        let mut plain = kind.build(Preset::Scaled, 5);
        let mut hooked = kind.build(Preset::Scaled, 5);
        let mut params_only = kind.build(Preset::Scaled, 5);
        plain.zero_grad();
        let y = plain.forward(&x, Mode::Train);
        let _ = plain.backward(&SeedRng::new(31).randn_tensor(y.shape().dims(), 1.0));
        let (want, want_order) = backward_once(hooked.as_mut(), &x, false);
        let (got, got_order) = backward_once(params_only.as_mut(), &x, true);
        assert_eq!(grads(plain.as_mut()), want, "{}: hooked vs plain", kind.name());
        assert_eq!(got, want, "{}: parameter gradients", kind.name());
        assert_eq!(got_order, want_order, "{}: announcements", kind.name());
    }
}

/// A parameterless identity layer that counts its backward calls.
struct CountingIdentity(Arc<AtomicUsize>);

impl Module for CountingIdentity {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        x.clone()
    }
    fn backward(&mut self, dout: &Tensor) -> Tensor {
        self.0.fetch_add(1, Ordering::Relaxed);
        dout.clone()
    }
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

/// Leading children without parameters (here a counting identity, Flatten
/// and Relu before `fc1`) get no backward pass at all under
/// `backward_params`, and the gradients and announcements still match.
#[test]
fn backward_params_skips_parameterless_leading_children() {
    let calls = Arc::new(AtomicUsize::new(0));
    let build = || {
        let mut rng = SeedRng::new(41);
        Sequential::new("net")
            .push(Box::new(CountingIdentity(calls.clone())))
            .push(Box::new(Flatten::new()))
            .push(Box::new(Relu::new()))
            .push(Box::new(Linear::new("fc1", 12, 5, &mut rng)))
            .push(Box::new(Relu::new()))
            .push(Box::new(CountingIdentity(calls.clone())))
            .push(Box::new(Linear::new("fc2", 5, 3, &mut rng)))
    };
    let x = SeedRng::new(42).randn_tensor(&[4, 3, 2, 2], 1.0);
    let (want, want_order) = backward_once(&mut build(), &x, false);
    assert_eq!(calls.swap(0, Ordering::Relaxed), 2);
    let (got, got_order) = backward_once(&mut build(), &x, true);
    // Only the identity between fc1 and fc2 ran its backward.
    assert_eq!(calls.load(Ordering::Relaxed), 1);
    assert_eq!(got, want);
    assert_eq!(got_order, want_order);
    assert_eq!(got_order, vec!["fc2.weight", "fc2.bias", "fc1.weight", "fc1.bias"]);
}

/// A container with no parameters at all runs no backward and announces
/// nothing.
#[test]
fn backward_params_on_parameterless_sequential_does_nothing() {
    let calls = Arc::new(AtomicUsize::new(0));
    let mut net = Sequential::new("empty")
        .push(Box::new(Flatten::new()))
        .push(Box::new(CountingIdentity(calls.clone())))
        .push(Box::new(Relu::new()));
    let x = SeedRng::new(43).randn_tensor(&[2, 3, 2], 1.0);
    let (got, got_order) = backward_once(&mut net, &x, true);
    assert!(got.is_empty());
    assert!(got_order.is_empty());
    assert_eq!(calls.load(Ordering::Relaxed), 0);
    let _ = backward_once(&mut net, &x, false);
    assert_eq!(calls.load(Ordering::Relaxed), 1);
}
