//! The layer contract.

use crate::hook::GradHook;
use crate::param::Param;
use mini_tensor::Tensor;

/// Forward-pass mode: training (dropout active, batch-norm uses batch
/// statistics) or evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training behaviour.
    Train,
    /// Inference behaviour.
    Eval,
}

/// A differentiable module with explicit forward and backward passes.
///
/// Invariants:
/// * `backward` must be called after `forward` (modules cache activations),
///   with an upstream gradient shaped like the forward output;
/// * `backward` **accumulates** parameter gradients and returns the gradient
///   with respect to the forward input;
/// * `visit_params` visits parameters in a deterministic order — the
///   flatten/scatter helpers and optimizer state rely on it;
/// * `backward_params` leaves bit-identical parameter gradients and makes
///   the same hook announcements as `backward_hooked`, but computes no
///   input gradient. Containers may therefore skip the backward pass of
///   children that have no parameters and sit before every child that
///   does, so such a child's `backward` must have no effect beyond its
///   return value.
pub trait Module: Send {
    /// Computes the module output for `x`.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// Back-propagates `dout` (gradient w.r.t. the forward output), returning
    /// the gradient w.r.t. the forward input.
    fn backward(&mut self, dout: &Tensor) -> Tensor;

    /// [`backward`](Self::backward) with a gradient-ready observer: `hook`
    /// is told about each trainable parameter as soon as this pass has
    /// finished accumulating its gradient (see [`crate::hook`]).
    ///
    /// The default — backward, then announce every own parameter — is
    /// correct for leaf layers (their parameters are final the moment
    /// their backward returns). Containers override it to thread the hook
    /// through children in backward-execution order, so announcements are
    /// per layer (reverse topological), not one burst at the end.
    ///
    /// Must compute exactly what `backward` computes: the hook observes
    /// gradients, it never changes them.
    fn backward_hooked(&mut self, dout: &Tensor, hook: &mut dyn GradHook) -> Tensor {
        let dx = self.backward(dout);
        self.visit_params(&mut |p| hook.grad_ready(p));
        dx
    }

    /// [`backward_hooked`](Self::backward_hooked) for a caller that
    /// discards the input gradient — a trainer's backward pass: the same
    /// parameter gradients, bit for bit, and the same hook announcements,
    /// but no gradient with respect to the forward input.
    ///
    /// The default runs `backward_hooked` and drops its result. Layers
    /// whose input gradient is a separate product (`Linear`'s `dout·W`)
    /// override it to skip that work, and `Sequential` runs no backward at
    /// all for its parameterless leading children.
    fn backward_params(&mut self, dout: &Tensor, hook: &mut dyn GradHook) {
        let _ = self.backward_hooked(dout, hook);
    }

    /// Visits every trainable parameter in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Short human-readable name for diagnostics.
    fn name(&self) -> &str {
        "module"
    }
}

/// Extension helpers available on every module.
pub trait ModuleExt: Module {
    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }

    /// Clears every parameter gradient.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

impl<M: Module + ?Sized> ModuleExt for M {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use mini_tensor::rng::SeedRng;

    #[test]
    fn param_count_and_zero_grad() {
        let mut rng = SeedRng::new(0);
        let mut lin = Linear::new("fc", 4, 3, &mut rng);
        assert_eq!(lin.param_count(), 4 * 3 + 3);
        lin.visit_params(&mut |p| p.grad.as_mut_slice().fill(1.0));
        lin.zero_grad();
        let mut all_zero = true;
        lin.visit_params(&mut |p| all_zero &= p.grad.as_slice().iter().all(|&g| g == 0.0));
        assert!(all_zero);
    }
}
