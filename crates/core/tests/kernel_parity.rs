//! Bitwise parity of the fused A2SGD kernels against the two-pass path
//! they replaced.
//!
//! * The reference below is the old path: capture a sign bitset, subtract
//!   the local means (`residual_in_place`), then add the global means back
//!   by bitset lookup (`restore_with_global_means`). It lives only here.
//! * [`residual_restore_in_place`] and [`residual_enc_split`] must equal it
//!   bit for bit on arbitrary inputs — ±0, NaN, ±inf, subnormals, lengths
//!   that are not multiples of 8 or 64, and sizes on both sides of
//!   [`FORK_GRAIN`]. A NaN result must be NaN in both; its payload is not
//!   compared (see [`bits`]).
//! * [`split_means`] counts must be exact and its means within 1e-6
//!   relative error of a sequential f64 reference.
//! * Both kernels must be bit-identical at pool widths 1, 2 and 4 (scoped
//!   with `ThreadPool::install`, so sibling tests keep their own width).

use a2sgd::mean2::{
    residual_enc_split, residual_restore_in_place, split_means, TwoMeans, FORK_GRAIN,
};
use proptest::prelude::*;

/// Packed sign bitset of the old path: bit i set ⇔ `g[i] ≥ 0`.
fn sign_mask(g: &[f32]) -> Vec<u64> {
    let mut words = vec![0u64; g.len().div_ceil(64)];
    for (i, &v) in g.iter().enumerate() {
        if v >= 0.0 {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    words
}

fn is_pos(mask: &[u64], i: usize) -> bool {
    (mask[i / 64] >> (i % 64)) & 1 == 1
}

/// The old line-4 pass: `g ← g − enc(g)`; returns the sign bitset.
fn residual_in_place(g: &mut [f32], means: &TwoMeans) -> Vec<u64> {
    let mask = sign_mask(g);
    let (mp, mn) = (means.mu_pos, means.mu_neg);
    for v in g.iter_mut() {
        *v -= if *v >= 0.0 { mp } else { -mn };
    }
    mask
}

/// The old line-6 pass: `g ← g + pos·µ̄+ − neg·µ̄−` by bitset lookup.
fn restore_with_global_means(g: &mut [f32], mask: &[u64], mu_pos: f32, mu_neg: f32) {
    for (i, v) in g.iter_mut().enumerate() {
        *v += if is_pos(mask, i) { mu_pos } else { -mu_neg };
    }
}

/// Old two-pass A2SGD update.
fn two_pass(g: &[f32], local: &TwoMeans, gp: f32, gn: f32) -> Vec<f32> {
    let mut out = g.to_vec();
    let mask = residual_in_place(&mut out, local);
    restore_with_global_means(&mut out, &mask, gp, gn);
    out
}

/// Old A2SGD-carry update: memory ← acc − enc(acc); the update is a zeroed
/// buffer restored with the global means under `acc`'s sign bitset.
fn carry_two_pass(acc: &[f32], local: &TwoMeans, gp: f32, gn: f32) -> (Vec<f32>, Vec<f32>) {
    let enc: Vec<f32> =
        acc.iter().map(|&v| if v >= 0.0 { local.mu_pos } else { -local.mu_neg }).collect();
    let memory = acc.iter().zip(&enc).map(|(a, e)| a - e).collect();
    let mut update = vec![0.0f32; acc.len()];
    restore_with_global_means(&mut update, &sign_mask(acc), gp, gn);
    (memory, update)
}

/// Sequential f64 reference for the means and counts.
fn means_reference(g: &[f32]) -> (f64, f64, usize, usize) {
    let (mut pos, mut neg, mut n_pos, mut n_neg) = (0.0f64, 0.0f64, 0usize, 0usize);
    for &v in g {
        if v >= 0.0 {
            pos += v as f64;
            n_pos += 1;
        } else {
            neg += -(v as f64);
            n_neg += 1;
        }
    }
    let mean = |s: f64, n: usize| if n > 0 { s / n as f64 } else { 0.0 };
    (mean(pos, n_pos), mean(neg, n_neg), n_pos, n_neg)
}

/// Bit patterns, with every NaN mapped to one canonical pattern: Rust
/// leaves the payload and sign of a NaN produced by arithmetic unspecified
/// (RFC 3514), and the optimiser may commute `r + µ̄` when both are NaN.
/// Every other result, −0.0 included, is compared bit for bit.
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

/// Maps a drawn `(kind, raw, normal)` triple to an f32: mostly ordinary
/// values, plus ±0, quiet and signalling NaNs with arbitrary payloads,
/// ±inf, subnormals and arbitrary bit patterns. Special class `k` (kinds
/// 9..=15) is drawn only when bit `k − 9` of `enabled` is set, so that
/// many inputs carry no NaN or inf to poison the means.
fn special((kind, raw, normal): (u8, u32, f32), enabled: u8) -> f32 {
    let kind = kind % 16;
    if kind < 9 || enabled & (1 << (kind - 9)) == 0 {
        return normal;
    }
    let sign = raw & 0x8000_0000;
    match kind {
        9 => 0.0,
        10 => -0.0,
        11 => f32::from_bits(sign | 0x7f80_0000 | (raw & 0x007f_ffff).max(1)),
        12 => f32::INFINITY,
        13 => f32::NEG_INFINITY,
        14 => f32::from_bits(sign | (raw & 0x007f_ffff)),
        _ => f32::from_bits(raw),
    }
}

/// Special classes that leave the means finite: ±0 and subnormals.
const FINITE_SPECIALS: u8 = 0b010_0011;

fn special_strategy() -> impl Strategy<Value = (u8, u32, f32)> {
    (any::<u8>(), any::<u32>(), -10.0f32..10.0)
}

fn gradient_strategy() -> impl Strategy<Value = (u8, Vec<(u8, u32, f32)>)> {
    (any::<u8>(), prop::collection::vec(special_strategy(), 0..600))
}

fn gradient((enabled, raw): (u8, Vec<(u8, u32, f32)>)) -> Vec<f32> {
    raw.into_iter().map(|d| special(d, enabled)).collect()
}

/// A deterministic gradient of length `n`; one element in 64 is drawn
/// from the `enabled` special classes.
fn sprinkled(n: usize, seed: u64, enabled: u8) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..n)
        .map(|_| {
            let r = next();
            let normal = ((r >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 4.0;
            let kind = if (r >> 8) & 63 == 0 { 9 + (r as u8 % 7) } else { 0 };
            special((kind, (r >> 16) as u32, normal), enabled)
        })
        .collect()
}

fn assert_mean_close(got: f32, want: f64, what: &str) {
    if want.is_nan() {
        assert!(got.is_nan(), "{what}: got {got}, reference NaN");
    } else if want.is_infinite() || (want as f32).is_infinite() {
        assert_eq!(got, want as f32, "{what}");
    } else {
        let err = (got as f64 - want).abs();
        assert!(err <= 1e-6 * want.abs() + f64::from(f32::MIN_POSITIVE), "{what}: {got} vs {want}");
    }
}

fn check_means(g: &[f32]) {
    let m = split_means(g);
    let (mp, mn, n_pos, n_neg) = means_reference(g);
    assert_eq!((m.n_pos, m.n_neg), (n_pos, n_neg), "counts over {} elements", g.len());
    assert_mean_close(m.mu_pos, mp, "mu_pos");
    assert_mean_close(m.mu_neg, mn, "mu_neg");
}

fn check_fused(g: &[f32], gp: f32, gn: f32) {
    let local = split_means(g);
    let mut fused = g.to_vec();
    residual_restore_in_place(&mut fused, &local, gp, gn);
    assert_eq!(bits(&fused), bits(&two_pass(g, &local, gp, gn)), "n = {}", g.len());

    let (memory, update) = carry_two_pass(g, &local, gp, gn);
    let mut acc = g.to_vec();
    let mut out = vec![f32::NAN; g.len()];
    residual_enc_split(&mut acc, &mut out, &local, gp, gn);
    assert_eq!(bits(&acc), bits(&memory), "carry residual, n = {}", g.len());
    assert_eq!(bits(&out), bits(&update), "carry update, n = {}", g.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_pass_matches_two_pass_bitwise(
        g in gradient_strategy(),
        gm in (special_strategy(), special_strategy(), any::<u8>()),
    ) {
        check_fused(&gradient(g), special(gm.0, gm.2), special(gm.1, gm.2));
    }

    #[test]
    fn split_means_matches_sequential_reference(g in gradient_strategy()) {
        check_means(&gradient(g));
    }
}

#[test]
fn parity_holds_across_chunk_and_fork_boundaries() {
    // 16384 is the chunk size; the rest straddle the fork grain.
    let sizes = [16_383, 16_384, 16_385, 40_007, FORK_GRAIN - 1, FORK_GRAIN, FORK_GRAIN + 1];
    for n in sizes {
        for enabled in [FINITE_SPECIALS, u8::MAX] {
            let g = sprinkled(n, n as u64, enabled);
            check_means(&g);
            check_fused(&g, 0.75, 1.25);
            // Specials among the global means too.
            check_fused(&g, f32::NAN, -0.0);
        }
    }
}

#[test]
fn kernels_are_bit_identical_across_thread_counts() {
    for n in [FORK_GRAIN - 3, FORK_GRAIN + 12_345] {
        let g = sprinkled(n, 7 + n as u64, FINITE_SPECIALS);
        let run_with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let m = split_means(&g);
                let mut fused = g.clone();
                residual_restore_in_place(&mut fused, &m, 0.5, 0.25);
                let mut acc = g.clone();
                let mut out = vec![0.0f32; n];
                residual_enc_split(&mut acc, &mut out, &m, 0.5, 0.25);
                let means = (m.mu_pos.to_bits(), m.mu_neg.to_bits(), m.n_pos, m.n_neg);
                (means, bits(&fused), bits(&acc), bits(&out))
            })
        };
        let one = run_with(1);
        assert!(one == run_with(2), "n = {n}: 1-thread vs 2-thread results differ in bits");
        assert!(one == run_with(4), "n = {n}: 1-thread vs 4-thread results differ in bits");
    }
}
