//! Fully-connected layer.

use crate::hook::GradHook;
use crate::init;
use crate::module::{Mode, Module};
use crate::param::Param;
use mini_tensor::gemm::Gemm;
use mini_tensor::rng::SeedRng;
use mini_tensor::Tensor;

/// `y = x·Wᵀ + b` with `x: [B, in]`, `W: [out, in]`, `b: [out]`.
pub struct Linear {
    name: String,
    weight: Param,
    bias: Param,
    cached_x: Option<Tensor>,
}

impl Linear {
    /// Creates a Kaiming-initialised linear layer.
    pub fn new(name: &str, in_f: usize, out_f: usize, rng: &mut SeedRng) -> Self {
        let weight =
            Param::new(format!("{name}.weight"), init::kaiming_normal(rng, &[out_f, in_f], in_f));
        let bias = Param::new(format!("{name}.bias"), Tensor::zeros([out_f]));
        Linear { name: name.to_string(), weight, bias, cached_x: None }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.data.shape().dim(1)
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.data.shape().dim(0)
    }

    /// Accumulates dW and db for `dout`; returns the batch size.
    fn accumulate_param_grads(&mut self, dout: &Tensor) -> usize {
        let x = self.cached_x.as_ref().expect("backward before forward");
        let out_f = self.out_features();
        let batch = x.shape().dim(0);
        assert_eq!(dout.shape().dims(), &[batch, out_f]);

        // dW[out, in] += doutᵀ[out, B] · x[B, in]
        let dw = Gemm::tn(out_f, batch, self.in_features()).run_tensor(dout, x);
        for (g, d) in self.weight.grad.as_mut_slice().iter_mut().zip(dw.as_slice()) {
            *g += *d;
        }
        // db[j] += Σ_B dout[b, j]
        let db = self.bias.grad.as_mut_slice();
        for row in dout.as_slice().chunks_exact(out_f) {
            for (g, d) in db.iter_mut().zip(row) {
                *g += *d;
            }
        }
        batch
    }
}

impl Module for Linear {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "Linear expects [B, in]");
        assert_eq!(x.shape().dim(1), self.in_features());
        let batch = x.shape().dim(0);
        let mut y = Gemm::nt(batch, self.in_features(), self.out_features())
            .run_tensor(x, &self.weight.data);
        let b = self.bias.data.as_slice();
        let out_f = self.out_features();
        for row in y.as_mut_slice().chunks_exact_mut(out_f) {
            for (v, bj) in row.iter_mut().zip(b) {
                *v += *bj;
            }
        }
        self.cached_x = Some(x.clone());
        y
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let batch = self.accumulate_param_grads(dout);
        // dx[B, in] = dout[B, out] · W[out, in]
        Gemm::nn(batch, self.out_features(), self.in_features()).run_tensor(dout, &self.weight.data)
    }

    fn backward_params(&mut self, dout: &Tensor, hook: &mut dyn GradHook) {
        // The dx product is skipped: nobody reads the input gradient.
        self.accumulate_param_grads(dout);
        hook.grad_ready(&self.weight);
        hook.grad_ready(&self.bias);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;

    #[test]
    fn forward_matches_manual() {
        let mut rng = SeedRng::new(1);
        let mut lin = Linear::new("fc", 3, 2, &mut rng);
        lin.weight.data = Tensor::from_vec(vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5], [2, 3]);
        lin.bias.data = Tensor::from_vec(vec![0.1, -0.1], [2]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]);
        let y = lin.forward(&x, Mode::Train);
        // row0: 1*1 + 2*0 + 3*(-1) + 0.1 = -1.9 ; row1: 0.5*6 - 0.1 = 2.9
        assert!((y.at(&[0, 0]) + 1.9).abs() < 1e-6);
        assert!((y.at(&[0, 1]) - 2.9).abs() < 1e-6);
    }

    #[test]
    fn gradcheck_linear() {
        let mut rng = SeedRng::new(2);
        let lin = Linear::new("fc", 5, 4, &mut rng);
        gradcheck::check_module(Box::new(lin), &[3, 5], 42, 2e-2);
    }
}
