//! Optimizers: SGD with momentum/weight decay, and LARS.
//!
//! The distributed trainer synchronizes *gradients* (possibly compressed),
//! scatters them back into `Param::grad`, and then calls `step` — so the
//! optimizer state stays strictly worker-local, as in the paper's Horovod
//! setup.

use crate::module::Module;
use mini_tensor::ops;

/// Classic SGD: `v ← m·v + g + wd·w ; w ← w − lr·v`.
pub struct Sgd {
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an SGD optimizer. `momentum = 0` disables the velocity buffer
    /// arithmetic (pure SGD).
    pub fn new(momentum: f32, weight_decay: f32) -> Self {
        Sgd { momentum, weight_decay, velocity: Vec::new() }
    }

    /// The per-parameter velocity lanes — empty until the first `step`.
    /// Checkpointing reads these so a resumed run replays the exact same
    /// momentum trajectory.
    pub fn velocity_lanes(&self) -> &[Vec<f32>] {
        &self.velocity
    }

    /// Restores velocity lanes captured by [`Self::velocity_lanes`]. The
    /// next `step` asserts each lane still matches its parameter's size.
    pub fn set_velocity_lanes(&mut self, lanes: Vec<Vec<f32>>) {
        self.velocity = lanes;
    }

    /// Applies one update with learning rate `lr` to every parameter of
    /// `model` using the gradients currently stored in `Param::grad`.
    pub fn step(&mut self, model: &mut dyn Module, lr: f32) {
        let (momentum, wd) = (self.momentum, self.weight_decay);
        let velocity = &mut self.velocity;
        let mut idx = 0usize;
        model.visit_params(&mut |p| {
            if velocity.len() == idx {
                velocity.push(vec![0.0f32; p.numel()]);
            }
            let v = &mut velocity[idx];
            assert_eq!(v.len(), p.numel(), "parameter set changed between steps");
            let w = p.data.as_mut_slice();
            let g = p.grad.as_slice();
            // Zipped slices carry no bounds checks, so the loops vectorise.
            // Keep each element's ops and their order: Rust never contracts
            // them into FMA, so updates stay bit-exact (tests/optim_parity.rs).
            if momentum == 0.0 {
                for (w, &g) in w.iter_mut().zip(g) {
                    let grad = g + wd * *w;
                    *w -= lr * grad;
                }
            } else {
                for ((w, &g), v) in w.iter_mut().zip(g).zip(v.iter_mut()) {
                    let grad = g + wd * *w;
                    *v = momentum * *v + grad;
                    *w -= lr * *v;
                }
            }
            idx += 1;
        });
    }
}

/// LARS (You et al., the paper's ref [11]): layer-wise adaptive rate scaling
/// on top of momentum SGD, used for the VGG-16 large-batch configuration in
/// Table 1.
pub struct Lars {
    momentum: f32,
    weight_decay: f32,
    /// Trust coefficient (η in the LARS paper), typically 1e-3.
    trust: f32,
    velocity: Vec<Vec<f32>>,
}

impl Lars {
    /// Creates a LARS optimizer with the given trust coefficient.
    pub fn new(momentum: f32, weight_decay: f32, trust: f32) -> Self {
        Lars { momentum, weight_decay, trust, velocity: Vec::new() }
    }

    /// The per-parameter velocity lanes — empty until the first `step`.
    pub fn velocity_lanes(&self) -> &[Vec<f32>] {
        &self.velocity
    }

    /// Restores velocity lanes captured by [`Self::velocity_lanes`]. The
    /// next `step` asserts each lane still matches its parameter's size.
    pub fn set_velocity_lanes(&mut self, lanes: Vec<Vec<f32>>) {
        self.velocity = lanes;
    }

    /// Applies one LARS update with global learning rate `lr`.
    pub fn step(&mut self, model: &mut dyn Module, lr: f32) {
        let (momentum, wd, trust) = (self.momentum, self.weight_decay, self.trust);
        let velocity = &mut self.velocity;
        let mut idx = 0usize;
        model.visit_params(&mut |p| {
            if velocity.len() == idx {
                velocity.push(vec![0.0f32; p.numel()]);
            }
            let v = &mut velocity[idx];
            assert_eq!(v.len(), p.numel(), "parameter set changed between steps");
            let w_norm = ops::norm2(p.data.as_slice()) as f32;
            let g_norm = ops::norm2(p.grad.as_slice()) as f32;
            // Local rate: η‖w‖ / (‖g‖ + wd‖w‖); falls back to 1 for fresh
            // (zero-norm) parameters such as biases at init.
            let local = if w_norm > 0.0 && g_norm > 0.0 {
                trust * w_norm / (g_norm + wd * w_norm + 1e-12)
            } else {
                1.0
            };
            let w = p.data.as_mut_slice();
            let g = p.grad.as_slice();
            // Zipped and bit-exact for the same reasons as `Sgd::step`.
            for ((w, &g), v) in w.iter_mut().zip(g).zip(v.iter_mut()) {
                let grad = local * (g + wd * *w);
                *v = momentum * *v + grad;
                *w -= lr * *v;
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::module::Mode;
    use mini_tensor::rng::SeedRng;
    use mini_tensor::Tensor;

    fn quadratic_grad(lin: &mut Linear) {
        // Loss = ½‖y‖² for input = ones → gradient via backward(y).
        let x = Tensor::ones([1, 2]);
        let y = lin.forward(&x, Mode::Train);
        let _ = lin.backward(&y);
    }

    #[test]
    fn sgd_reduces_quadratic_loss() {
        let mut rng = SeedRng::new(101);
        let mut lin = Linear::new("fc", 2, 2, &mut rng);
        let mut opt = Sgd::new(0.0, 0.0);
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            use crate::module::ModuleExt;
            lin.zero_grad();
            quadratic_grad(&mut lin);
            let x = Tensor::ones([1, 2]);
            let loss = 0.5 * lin.forward(&x, Mode::Train).norm2().powi(2);
            assert!(loss <= last + 1e-5, "loss increased: {last} → {loss}");
            last = loss;
            opt.step(&mut lin, 0.1);
        }
        assert!(last < 1e-3, "did not converge: {last}");
    }

    #[test]
    fn sgd_momentum_math() {
        // Single scalar parameter w=1, fixed gradient 1, momentum 0.9,
        // lr 0.1: v1=1, w=0.9; v2=1.9, w=0.71.
        struct One(crate::param::Param);
        impl Module for One {
            fn forward(&mut self, x: &Tensor, _m: Mode) -> Tensor {
                x.clone()
            }
            fn backward(&mut self, d: &Tensor) -> Tensor {
                d.clone()
            }
            fn visit_params(&mut self, f: &mut dyn FnMut(&mut crate::param::Param)) {
                f(&mut self.0);
            }
        }
        let mut m = One(crate::param::Param::new("w", Tensor::scalar(1.0)));
        m.0.grad = Tensor::scalar(1.0);
        let mut opt = Sgd::new(0.9, 0.0);
        opt.step(&mut m, 0.1);
        assert!((m.0.data.item() - 0.9).abs() < 1e-6);
        m.0.grad = Tensor::scalar(1.0);
        opt.step(&mut m, 0.1);
        assert!((m.0.data.item() - 0.71).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut rng = SeedRng::new(102);
        let mut lin = Linear::new("fc", 3, 3, &mut rng);
        let before = ops::norm2({
            let mut v = Vec::new();
            lin.visit_params(&mut |p| v.extend_from_slice(p.data.as_slice()));
            &v.clone()
        });
        let mut opt = Sgd::new(0.0, 0.1);
        opt.step(&mut lin, 0.5); // grads are zero → pure decay
        let after = ops::norm2({
            let mut v = Vec::new();
            lin.visit_params(&mut |p| v.extend_from_slice(p.data.as_slice()));
            &v.clone()
        });
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn lars_converges_on_quadratic() {
        let mut rng = SeedRng::new(103);
        let mut lin = Linear::new("fc", 2, 2, &mut rng);
        let mut opt = Lars::new(0.9, 1e-4, 1e-2);
        for _ in 0..300 {
            use crate::module::ModuleExt;
            lin.zero_grad();
            quadratic_grad(&mut lin);
            opt.step(&mut lin, 1.0);
        }
        let x = Tensor::ones([1, 2]);
        let loss = 0.5 * lin.forward(&x, Mode::Train).norm2().powi(2);
        assert!(loss < 1e-2, "LARS did not converge: {loss}");
    }
}
