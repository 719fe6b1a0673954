//! Finite-difference gradient verification.
//!
//! Used by every layer's unit tests: the backward pass of a module is
//! compared against central differences of the scalar loss
//! `L(x) = Σ out(x) ⊙ m` for a fixed random mask `m`. Both the input
//! gradient and every parameter gradient are checked on a random subset of
//! coordinates, and `backward_params` must reproduce `backward`'s parameter
//! gradients bit for bit.

use crate::hook::NullHook;
use crate::module::{Mode, Module, ModuleExt};
use mini_tensor::rng::SeedRng;
use mini_tensor::Tensor;

/// Maximum number of coordinates probed per tensor (keeps tests fast).
const MAX_COORDS: usize = 24;

/// Fraction of probed coordinates allowed to miss the tolerance.
///
/// Finite differences legitimately disagree with the analytic gradient at
/// the kinks of non-smooth nets (a ±ε weight perturbation can flip a ReLU
/// mask or a max-pool argmax), so a small outlier budget is principled; a
/// *systematically* wrong backward pass fails on most coordinates and is
/// still caught (see `detects_broken_backward`).
const OUTLIER_BUDGET: f64 = 0.10;

/// Checks `module`'s backward pass on a random input of shape `in_dims`.
///
/// `tol` is the allowed absolute-relative deviation:
/// `|num − ana| < tol · (1 + |ana|)`. Panics when more than
/// [`OUTLIER_BUDGET`] of the probed coordinates miss it.
pub fn check_module(mut module: Box<dyn Module>, in_dims: &[usize], seed: u64, tol: f32) {
    let mut rng = SeedRng::new(seed);
    let x = rng.randn_tensor(in_dims, 1.0);

    // Probe output shape to build a fixed mask.
    let out_probe = module.forward(&x, Mode::Train);
    let mask = rng.randn_tensor(out_probe.shape().dims(), 1.0);

    let loss = |module: &mut Box<dyn Module>, x: &Tensor| -> f64 {
        let out = module.forward(x, Mode::Train);
        out.as_slice().iter().zip(mask.as_slice()).map(|(a, b)| (*a as f64) * (*b as f64)).sum()
    };

    // Analytic gradients.
    module.zero_grad();
    let _ = loss(&mut module, &x);
    let dx = module.backward(&mask);
    let mut pgrads: Vec<(String, Vec<f32>)> = Vec::new();
    module.visit_params(&mut |p| pgrads.push((p.name.clone(), p.grad.as_slice().to_vec())));

    // `backward_params` must leave the same parameter gradients, bit for
    // bit, so every layer's gradcheck also covers its override.
    module.zero_grad();
    let _ = loss(&mut module, &x);
    module.backward_params(&mask, &mut NullHook);
    let mut pi = 0usize;
    module.visit_params(&mut |p| {
        let (name, want) = &pgrads[pi];
        let same = want.len() == p.grad.numel()
            && want.iter().zip(p.grad.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "backward_params left different gradients than backward for {name}");
        pi += 1;
    });

    // Small enough that a ±eps perturbation rarely crosses a ReLU/pool
    // kink (flips showed up as spurious failures at 1e-2), large enough
    // that central differences stay above f32 forward-pass noise (the
    // loss accumulates in f64).
    let eps = 1e-3f32;
    let mut probed = 0usize;
    let mut failures: Vec<String> = Vec::new();
    let mut compare = |num: f32, ana: f32, what: &str, i: usize| {
        probed += 1;
        if (num - ana).abs() >= tol * (1.0 + ana.abs()) {
            failures.push(format!("{what}[{i}]: numeric {num} vs analytic {ana}"));
        }
    };

    // Input gradient.
    for i in pick_coords(&mut rng, x.numel()) {
        let mut xp = x.clone();
        xp.as_mut_slice()[i] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[i] -= eps;
        let num = ((loss(&mut module, &xp) - loss(&mut module, &xm)) / (2.0 * eps as f64)) as f32;
        compare(num, dx.as_slice()[i], "dx", i);
    }

    // Parameter gradients: perturb the pi-th parameter tensor in place.
    for (pi, (pname, pgrad)) in pgrads.iter().enumerate() {
        for i in pick_coords(&mut rng, pgrad.len()) {
            perturb_param(&mut module, pi, i, eps);
            let fp = loss(&mut module, &x);
            perturb_param(&mut module, pi, i, -2.0 * eps);
            let fm = loss(&mut module, &x);
            perturb_param(&mut module, pi, i, eps); // restore
            let num = ((fp - fm) / (2.0 * eps as f64)) as f32;
            compare(num, pgrad[i], pname, i);
        }
    }

    let frac = failures.len() as f64 / probed.max(1) as f64;
    assert!(
        frac <= OUTLIER_BUDGET,
        "gradcheck: {}/{} coordinates failed (> {:.0}% budget):\n{}",
        failures.len(),
        probed,
        OUTLIER_BUDGET * 100.0,
        failures.join("\n")
    );
}

fn pick_coords(rng: &mut SeedRng, n: usize) -> Vec<usize> {
    if n <= MAX_COORDS {
        (0..n).collect()
    } else {
        let mut out: Vec<usize> = (0..MAX_COORDS).map(|_| rng.below(n)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

fn perturb_param(module: &mut Box<dyn Module>, pi: usize, coord: usize, delta: f32) {
    let mut k = 0usize;
    module.visit_params(&mut |p| {
        if k == pi {
            p.data.as_mut_slice()[coord] += delta;
        }
        k += 1;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    /// A module with a deliberately wrong backward pass, to prove the
    /// checker actually detects errors.
    struct BrokenScale {
        p: Param,
    }

    impl Module for BrokenScale {
        fn forward(&mut self, x: &Tensor, _m: Mode) -> Tensor {
            mini_tensor::ops::scale(x, self.p.data.item())
        }
        fn backward(&mut self, dout: &Tensor) -> Tensor {
            // WRONG on purpose: ignores the scale factor.
            dout.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.p);
        }
    }

    #[test]
    #[should_panic]
    fn detects_broken_backward() {
        let m = BrokenScale { p: Param::new("s", Tensor::scalar(3.0)) };
        check_module(Box::new(m), &[4], 5, 1e-2);
    }
}
