//! Two-pass two-level averaging kernels (paper §3.1, Algorithm 1 lines 3–6).
//!
//! For a gradient `v ∈ Rⁿ`:
//! `µ+(v) = E[v_i | v_i ≥ 0]`, `µ−(v) = E[|v_i| | v_i < 0]`, and
//! `enc(v) = pos(v)·µ+ − neg(v)·µ−` where `pos`/`neg` are indicator
//! vectors. A2SGD's whole O(n) compute is two passes over the gradient:
//!
//! 1. [`split_means`] (line 3) reads `v` once and returns the two means.
//! 2. Once the global means `µ̄±` are known (line 5),
//!    [`residual_restore_in_place`] applies lines 4 and 6 in one
//!    read-modify-write pass: `v ← (v − enc(v)) + pos(v)·µ̄+ − neg(v)·µ̄−`.
//!    Each element's sign is read before the element is written, so the
//!    indicator vectors are never materialised.
//!
//! Determinism: both kernels walk the gradient in fixed [`PAR_CHUNK`]
//! chunks, and `split_means` folds its per-chunk partials in index order,
//! so results are bit-identical for every pool width. The kernels run on
//! the calling thread up to [`FORK_GRAIN`] elements and fork above it.

use mini_tensor::par::{self, PAR_CHUNK};
use rayon::prelude::*;

/// Inputs up to this many elements run on the calling thread. Above it,
/// the kernels fork one task per [`PAR_CHUNK`] chunk. Each pass costs
/// about 0.2–0.45 ns/element on one thread, and one fork-join of the pool
/// costs about 60–110 µs inside a training step, so at this grain each of
/// two threads gets about 0.4 ms of work per pass, about four times a fork's
/// cost or more (`bench_means_kernel`; the sweep is in
/// `BENCH_kernels.json`). The chunking, not this grain, fixes the
/// arithmetic, so the bits do not depend on it.
pub const FORK_GRAIN: usize = 1 << 21;

/// Accumulator lanes per sign class in [`split_means`]: independent f64
/// chains, so the sum is not one serial dependency chain. Sixteen lanes
/// run about twice as fast as eight on the baseline x86-64 target.
const LANES: usize = 16;

/// The two local averages plus their population counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoMeans {
    /// Mean of non-negative entries (0 when there are none).
    pub mu_pos: f32,
    /// Mean of |negative entries| (0 when there are none).
    pub mu_neg: f32,
    /// Count of non-negative entries.
    pub n_pos: usize,
    /// Count of negative entries.
    pub n_neg: usize,
}

/// Class sums and the non-negative count of one chunk.
#[derive(Clone, Copy, Default)]
struct Partial {
    pos_sum: f64,
    neg_sum: f64,
    n_pos: usize,
}

/// Branch-free lane accumulation over one chunk: element `i` of the chunk
/// lands in lane `i % LANES`, and the lanes are then added in lane order.
fn chunk_partial(c: &[f32]) -> Partial {
    let mut pos = [0.0f64; LANES];
    let mut neg = [0.0f64; LANES];
    let mut n_pos = [0u32; LANES];
    let mut add = |l: usize, v: f32| {
        let is_pos = v >= 0.0;
        let x = v as f64;
        pos[l] += if is_pos { x } else { 0.0 };
        neg[l] += if is_pos { 0.0 } else { -x };
        n_pos[l] += is_pos as u32;
    };
    let mut blocks = c.chunks_exact(LANES);
    for b in &mut blocks {
        let b: &[f32; LANES] = b.try_into().expect("chunks_exact yields LANES elements");
        for (l, &v) in b.iter().enumerate() {
            add(l, v);
        }
    }
    for (l, &v) in blocks.remainder().iter().enumerate() {
        add(l, v);
    }
    Partial {
        pos_sum: pos.iter().sum(),
        neg_sum: neg.iter().sum(),
        n_pos: n_pos.iter().map(|&n| n as usize).sum(),
    }
}

/// Computes `µ+` and `µ−` in one pass (Algorithm 1 line 3).
pub fn split_means(g: &[f32]) -> TwoMeans {
    let fold = |a: Partial, p: Partial| Partial {
        pos_sum: a.pos_sum + p.pos_sum,
        neg_sum: a.neg_sum + p.neg_sum,
        n_pos: a.n_pos + p.n_pos,
    };
    let acc = if g.len() > FORK_GRAIN {
        let parts: Vec<Partial> = g.par_chunks(PAR_CHUNK).map(chunk_partial).collect();
        parts.into_iter().fold(Partial::default(), fold)
    } else {
        g.chunks(PAR_CHUNK).map(chunk_partial).fold(Partial::default(), fold)
    };
    let n_neg = g.len() - acc.n_pos;
    TwoMeans {
        mu_pos: if acc.n_pos > 0 { (acc.pos_sum / acc.n_pos as f64) as f32 } else { 0.0 },
        mu_neg: if n_neg > 0 { (acc.neg_sum / n_neg as f64) as f32 } else { 0.0 },
        n_pos: acc.n_pos,
        n_neg,
    }
}

/// Writes `enc(g)` into `out` given the two means.
pub fn enc_into(g: &[f32], means: &TwoMeans, out: &mut [f32]) {
    assert_eq!(g.len(), out.len());
    let (mp, mn) = (means.mu_pos, means.mu_neg);
    par::par_zip_mut(out, g, move |o, &v| {
        *o = if v >= 0.0 { mp } else { -mn };
    });
}

/// Algorithm 1 lines 4 and 6 in one pass, keyed on each element's sign on
/// entry: `r = v − (v ≥ 0 ? µ+ : −µ−)` with the local means, then
/// `v ← r + (v ≥ 0 ? µ̄+ : −µ̄−)` with the global ones. NaN counts as
/// negative and −0.0 as non-negative, as in [`split_means`].
pub fn residual_restore_in_place(g: &mut [f32], local: &TwoMeans, gmu_pos: f32, gmu_neg: f32) {
    let (mp, mn) = (local.mu_pos, -local.mu_neg);
    let (gp, gn) = (gmu_pos, -gmu_neg);
    let pass = move |c: &mut [f32]| {
        for v in c {
            let pos = *v >= 0.0;
            let r = *v - if pos { mp } else { mn };
            *v = r + if pos { gp } else { gn };
        }
    };
    if g.len() > FORK_GRAIN {
        g.par_chunks_mut(PAR_CHUNK).for_each(pass);
    } else {
        pass(g);
    }
}

/// The carried-error form of the fused pass (A2SGD-carry): `acc` becomes
/// its residual `acc − enc(acc)` under the local means, and `out` receives
/// `0.0 + (acc ≥ 0 ? µ̄+ : −µ̄−)` under the global ones, keyed on the sign
/// of `acc` on entry. The `0.0 +` turns a −0.0 mean into +0.0.
pub fn residual_enc_split(
    acc: &mut [f32],
    out: &mut [f32],
    local: &TwoMeans,
    gmu_pos: f32,
    gmu_neg: f32,
) {
    assert_eq!(acc.len(), out.len());
    let (mp, mn) = (local.mu_pos, -local.mu_neg);
    let (gp, gn) = (gmu_pos, -gmu_neg);
    let pass = move |(a, o): (&mut [f32], &mut [f32])| {
        for (v, w) in a.iter_mut().zip(o) {
            let pos = *v >= 0.0;
            *v -= if pos { mp } else { mn };
            *w = 0.0 + if pos { gp } else { gn };
        }
    };
    if acc.len() > FORK_GRAIN {
        acc.par_chunks_mut(PAR_CHUNK).zip(out.par_chunks_mut(PAR_CHUNK)).for_each(pass);
    } else {
        pass((acc, out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_tensor::rng::SeedRng;

    #[test]
    fn split_means_hand_case() {
        let g = [2.0f32, -1.0, 4.0, -3.0, 0.0];
        let m = split_means(&g);
        assert_eq!(m.n_pos, 3); // 2, 4, 0
        assert_eq!(m.n_neg, 2);
        assert!((m.mu_pos - 2.0).abs() < 1e-6);
        assert!((m.mu_neg - 2.0).abs() < 1e-6);
    }

    #[test]
    fn split_means_all_positive() {
        let m = split_means(&[1.0, 2.0, 3.0]);
        assert_eq!(m.n_neg, 0);
        assert_eq!(m.mu_neg, 0.0);
        assert!((m.mu_pos - 2.0).abs() < 1e-6);
    }

    #[test]
    fn split_means_empty() {
        let m = split_means(&[]);
        assert_eq!(m, TwoMeans { mu_pos: 0.0, mu_neg: 0.0, n_pos: 0, n_neg: 0 });
    }

    #[test]
    fn enc_uses_sign_pattern() {
        let g = [1.0f32, -2.0, 3.0];
        let m = split_means(&g); // µ+ = 2, µ− = 2
        let mut out = [0.0f32; 3];
        enc_into(&g, &m, &mut out);
        assert_eq!(out, [2.0, -2.0, 2.0]);
    }

    #[test]
    fn residual_means_are_zero_per_side() {
        // Defining property: the residual sums to zero over each sign
        // class — the means absorb exactly the class averages. Zero global
        // means leave just the residual.
        let mut rng = SeedRng::new(3);
        let g: Vec<f32> = (0..10_001).map(|_| rng.randn() * 0.3 + 0.01).collect();
        let m = split_means(&g);
        let mut eps = g.clone();
        residual_restore_in_place(&mut eps, &m, 0.0, 0.0);
        let (mut pos_sum, mut neg_sum) = (0.0f64, 0.0f64);
        for (v, e) in g.iter().zip(&eps) {
            if *v >= 0.0 {
                pos_sum += *e as f64;
            } else {
                neg_sum += *e as f64;
            }
        }
        assert!(pos_sum.abs() / (m.n_pos.max(1) as f64) < 1e-6, "pos residual mean {pos_sum}");
        assert!(neg_sum.abs() / (m.n_neg.max(1) as f64) < 1e-6, "neg residual mean {neg_sum}");
        // And restoring with the *local* means reproduces the original.
        let mut work = g.clone();
        residual_restore_in_place(&mut work, &m, m.mu_pos, m.mu_neg);
        for (a, b) in work.iter().zip(&g) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn restore_with_local_means_is_identity_large() {
        // Exercise the forked path (n > FORK_GRAIN).
        let mut rng = SeedRng::new(4);
        let n = FORK_GRAIN + 123;
        let g: Vec<f32> = (0..n).map(|_| rng.randn()).collect();
        let m = split_means(&g);
        let mut work = g.clone();
        residual_restore_in_place(&mut work, &m, m.mu_pos, m.mu_neg);
        for (a, b) in work.iter().zip(&g) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn sign_convention_counts_negative_zero_as_positive() {
        // IEEE: -0.0 ≥ 0.0 is true, so -0.0 counts as non-negative; NaN
        // compares false and counts as negative.
        let g = [0.0f32, -0.0, 1.0, -1.0, f32::MIN_POSITIVE, -f32::MIN_POSITIVE, f32::NAN];
        let m = split_means(&g);
        assert_eq!((m.n_pos, m.n_neg), (4, 3));
        // Zero local means and global means (1, 2) expose each element's
        // class: non-negatives shift by +1, negatives by −2.
        let zero = TwoMeans { mu_pos: 0.0, mu_neg: 0.0, n_pos: 0, n_neg: 0 };
        let mut work = g;
        residual_restore_in_place(&mut work, &zero, 1.0, 2.0);
        assert_eq!(&work[..6], &[1.0, 1.0, 2.0, -3.0, 1.0 + f32::MIN_POSITIVE, -2.0]);
        assert!(work[6].is_nan());
    }

    #[test]
    fn residual_enc_split_keeps_residual_and_writes_global_enc() {
        let mut acc = [1.0f32, 3.0, -1.0, -3.0]; // µ+ = 2, µ− = 2
        let m = split_means(&acc);
        let mut out = [f32::NAN; 4];
        residual_enc_split(&mut acc, &mut out, &m, 5.0, 0.0);
        assert_eq!(acc, [-1.0, 1.0, 1.0, -1.0]);
        // A zero global µ̄− is written as +0.0, not −0.0.
        assert_eq!(out.map(f32::to_bits), [5.0f32, 5.0, 0.0, 0.0].map(f32::to_bits));
    }

    #[test]
    fn variance_is_preserved_by_residual_restore() {
        // The paper's variance argument: after subtracting local means and
        // adding global means, per-coordinate deviations (the ε vector) are
        // intact, so the variance around the class means is unchanged.
        let mut rng = SeedRng::new(5);
        let g: Vec<f32> = (0..5000).map(|_| rng.randn()).collect();
        let m = split_means(&g);
        // Global means from a fictitious other worker.
        let (gp, gn) = (m.mu_pos * 0.9, m.mu_neg * 1.1);
        let mut restored = g.clone();
        residual_restore_in_place(&mut restored, &m, gp, gn);
        // Per-class variance of `restored` equals per-class variance of g.
        let var_of = |xs: &[f32], pick_pos: bool| -> f64 {
            let vals: Vec<f64> = xs
                .iter()
                .zip(&g)
                .filter(|(_, orig)| (**orig >= 0.0) == pick_pos)
                .map(|(&v, _)| v as f64)
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64
        };
        for side in [true, false] {
            let v1 = var_of(&g, side);
            let v2 = var_of(&restored, side);
            assert!((v1 - v2).abs() < 1e-6 * (1.0 + v1), "side {side}: {v1} vs {v2}");
        }
    }
}
