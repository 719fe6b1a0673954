//! Per-layer gradient-ready observers — the DDP hook shape.
//!
//! A [`GradHook`] rides along a backward pass
//! ([`Module::backward_hooked`](crate::module::Module::backward_hooked))
//! and is told about each trainable parameter the moment the pass has
//! finished accumulating its gradient for the step. Because backward
//! visits layers in reverse topological order, the *output*-side
//! parameters are announced first, while the input-side layers are still
//! backpropagating — which is exactly the window a distributed trainer
//! uses to put the first gradient buckets on the wire before the backward
//! pass ends (PyTorch DDP's `Reducer`, Horovod's `DistributedOptimizer`).
//!
//! Contract:
//! * every trainable parameter of the module is announced **exactly once**
//!   per hooked backward pass;
//! * a parameter is announced only after its gradient for this pass is
//!   complete (no later-executing layer accumulates into it again);
//! * announcement order within one layer follows that layer's
//!   `visit_params` order; across layers it follows backward execution
//!   order (reverse topological for [`Sequential`](crate::layers::Sequential)).
//!
//! [`Module::backward_params`](crate::module::Module::backward_params)
//! keeps the same contract and the same announcement sequence.

use crate::param::Param;

/// Observer invoked by [`Module::backward_hooked`]
/// (crate::module::Module::backward_hooked) as parameter gradients become
/// final during a backward pass.
pub trait GradHook {
    /// `param`'s gradient for this step is complete; it will not be
    /// touched again before the optimizer runs.
    fn grad_ready(&mut self, param: &Param);
}

/// The do-nothing hook: `backward_hooked(dout, &mut NullHook)` is exactly
/// `backward(dout)`. Containers implement their backward logic once in
/// `backward_hooked` and delegate `backward` through this.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHook;

impl GradHook for NullHook {
    fn grad_ready(&mut self, _param: &Param) {}
}

/// Test/diagnostic hook: records announced parameter names in arrival
/// order.
#[derive(Debug, Default)]
pub struct RecordingHook {
    /// Parameter names in the order their gradients became ready.
    pub order: Vec<String>,
}

impl GradHook for RecordingHook {
    fn grad_ready(&mut self, param: &Param) {
        self.order.push(param.name.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_tensor::Tensor;

    #[test]
    fn recording_hook_keeps_arrival_order() {
        let mut h = RecordingHook::default();
        h.grad_ready(&Param::new("b", Tensor::zeros([1])));
        h.grad_ready(&Param::new("a", Tensor::zeros([1])));
        assert_eq!(h.order, vec!["b", "a"]);
    }
}
