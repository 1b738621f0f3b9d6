//! Runtime-dispatched SIMD kernels for the low-complexity SRP-PHAT hot path.
//!
//! Two per-frame loops dominate [`crate::srp_fast::SrpPhatFast::compute_map_into`]:
//!
//! 1. **PHAT + lag synthesis** ([`phat_lags`]): for every microphone pair, form the
//!    PHAT-normalized cross spectrum and synthesize its band-limited
//!    cross-correlation directly on the `±max_lag` grid as a small dense
//!    matrix-vector product against precomputed cosine/sine tables — replacing the
//!    full-band spectrum rebuild plus full-length inverse FFT per pair. The `±lag`
//!    symmetry is folded: one fused pass per non-negative lag row produces
//!    `A = Σ Re·cos`, `B = Σ Im·sin`, and writes `corr(+ℓ) = A − B`,
//!    `corr(−ℓ) = A + B`, halving both flops and table memory.
//! 2. **Steering** ([`steer`]): for every direction, the `pairs × K` windowed-sinc
//!    reduction over the lag tables. `K = 8` taps is exactly one [`F32x8`], so a
//!    direction is 15 lane loads + 15 lane FMAs + one horizontal sum.
//!
//! Both kernels come in two copies selected at runtime: a portable one written
//! over [`F32x8`] lane arrays (autovectorized with baseline codegen), and an
//! `avx2`+`fma` one whose vector shape is pinned with explicit `core::arch`
//! intrinsics. The intrinsic copies exist because LLVM's re-vectorization of
//! the portable lane loops is context-fragile — in this crate's exact inlining
//! context it demoted the reductions to 128-bit halves with per-iteration
//! accumulator spills, a measured ~4× slowdown (see
//! [`ispot_dsp::simd::paired_dot_fma`]). Callers pass the cached
//! [`ispot_dsp::simd::fma_available`] result as `use_fma`.

use ispot_dsp::simd::{paired_dot, F32x8};

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
use ispot_dsp::simd::paired_dot_fma;

/// Tap count of one steering window; one full [`F32x8`] register.
pub(crate) const K_TAPS: usize = 8;

/// Band spectra of all channels, structure-of-arrays (borrowed from `SrpScratch`).
pub(crate) struct PairSpectra<'a> {
    /// Real parts, channel-major `num_channels × num_bins`.
    pub ch_re: &'a [f32],
    /// Imaginary parts, channel-major `num_channels × num_bins`.
    pub ch_im: &'a [f32],
    /// Number of band bins per channel.
    pub nb: usize,
    /// Microphone pair index list.
    pub pairs: &'a [(usize, usize)],
}

/// The precomputed lag-synthesis operator (borrowed from `SrpPhatFast`).
pub(crate) struct LagSynthOp<'a> {
    /// `scale_k · cos(2π k ℓ / N)`, row-major `(max_lag + 1) × num_bins`.
    pub syn_cos: &'a [f32],
    /// `scale_k · sin(2π k ℓ / N)`, same layout. Row `ℓ = 0` must be zero (it
    /// is `sin(0)` by construction): the two folded writes of that row target
    /// the same cell, and only a zero `B` makes them agree.
    pub syn_sin: &'a [f32],
    /// Maximum integer lag (rows cover `0..=max_lag`).
    pub max_lag: usize,
    /// Zero-pad cells at each edge of one lag table.
    pub pad: usize,
    /// Length of one padded lag table.
    pub padded_len: usize,
}

/// The precomputed steering operator (borrowed from `SrpPhatFast`).
pub(crate) struct SteerOp<'a> {
    /// Windowed-sinc weights, direction-major `(d · num_pairs + p) · K_TAPS`.
    pub tap_weights: &'a [f32],
    /// Window start offsets into each pair's padded lag table, same indexing.
    pub tap_starts: &'a [u32],
    /// Number of microphone pairs.
    pub num_pairs: usize,
    /// Length of one padded lag table.
    pub padded_len: usize,
}

/// PHAT-normalizes one pair's cross spectrum `X_i · conj(X_j) / |·|` into
/// `phat_re`/`phat_im` (all slices pre-cut to the band length). A plain scalar
/// loop on purpose: LLVM autovectorizes the sqrt/divide form well on every
/// target, so both kernel copies share it.
#[inline(always)]
fn phat_norm_pair(
    ri: &[f32],
    ii: &[f32],
    rj: &[f32],
    ij: &[f32],
    phat_re: &mut [f32],
    phat_im: &mut [f32],
) {
    for (k, slot_re) in phat_re.iter_mut().enumerate() {
        let cr = ri[k] * rj[k] + ii[k] * ij[k];
        let ci = ii[k] * rj[k] - ri[k] * ij[k];
        let mag = (cr * cr + ci * ci).sqrt();
        let w = if mag > 1e-12 { 1.0 / mag } else { 0.0 };
        *slot_re = cr * w;
        phat_im[k] = ci * w;
    }
}

fn phat_lags_portable(
    spectra: &PairSpectra<'_>,
    op: &LagSynthOp<'_>,
    phat_re: &mut [f32],
    phat_im: &mut [f32],
    lag_tables: &mut [f32],
) {
    let nb = spectra.nb;
    for (pair_idx, &(i, j)) in spectra.pairs.iter().enumerate() {
        phat_norm_pair(
            &spectra.ch_re[i * nb..(i + 1) * nb],
            &spectra.ch_im[i * nb..(i + 1) * nb],
            &spectra.ch_re[j * nb..(j + 1) * nb],
            &spectra.ch_im[j * nb..(j + 1) * nb],
            &mut phat_re[..nb],
            &mut phat_im[..nb],
        );
        // Lag synthesis: one fused (cos·re, sin·im) reduction per non-negative
        // lag, folded to both signs.
        let table = &mut lag_tables[pair_idx * op.padded_len..][..op.padded_len];
        let center = op.pad + op.max_lag;
        for lag in 0..=op.max_lag {
            let cos_row = &op.syn_cos[lag * nb..(lag + 1) * nb];
            let sin_row = &op.syn_sin[lag * nb..(lag + 1) * nb];
            let (a, b) = paired_dot::<false>(cos_row, &phat_re[..nb], sin_row, &phat_im[..nb]);
            table[center + lag] = a - b;
            table[center - lag] = a + b;
        }
    }
}

fn steer_portable(op: &SteerOp<'_>, lag_tables: &[f32], out: &mut [f64]) {
    for (d, slot) in out.iter_mut().enumerate() {
        let row = d * op.num_pairs;
        let mut acc0 = F32x8::zero();
        let mut acc1 = F32x8::zero();
        for p in 0..op.num_pairs {
            let w = F32x8::load(&op.tap_weights[(row + p) * K_TAPS..][..K_TAPS]);
            let start = op.tap_starts[row + p] as usize;
            let t = F32x8::load(&lag_tables[p * op.padded_len + start..][..K_TAPS]);
            if p & 1 == 0 {
                acc0 = w.mul_add::<false>(t, acc0);
            } else {
                acc1 = w.mul_add::<false>(t, acc1);
            }
        }
        *slot = (acc0 + acc1).sum() as f64;
    }
}

/// [`phat_lags_portable`] with 256-bit FMA reductions, two microphone pairs
/// per pass over the cosine/sine tables.
///
/// Both pairs are PHAT-normalized into `phat_re`/`phat_im` (`2 × nb`). For
/// each lag row, every 16-bin block of the cosine and sine rows is loaded once
/// and feeds both pairs' four accumulator chains, which halves the table
/// traffic that bounds the single-pair loop. Each output keeps exactly the
/// operation sequence of [`paired_dot_fma`] — the same FMA chains, scalar
/// tail, `(acc0 + acc2)` lane sum and tail add — so the lag tables are bit for
/// bit what the per-pair loop writes. An odd last pair runs through
/// [`paired_dot_fma`] alone.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
fn phat_lags_avx2(
    spectra: &PairSpectra<'_>,
    op: &LagSynthOp<'_>,
    phat_re: &mut [f32],
    phat_im: &mut [f32],
    lag_tables: &mut [f32],
) {
    let nb = spectra.nb;
    let center = op.pad + op.max_lag;
    let mut blocks = spectra.pairs.chunks_exact(2);
    for (block_idx, block) in (&mut blocks).enumerate() {
        for (slot, &(i, j)) in block.iter().enumerate() {
            phat_norm_pair(
                &spectra.ch_re[i * nb..(i + 1) * nb],
                &spectra.ch_im[i * nb..(i + 1) * nb],
                &spectra.ch_re[j * nb..(j + 1) * nb],
                &spectra.ch_im[j * nb..(j + 1) * nb],
                &mut phat_re[slot * nb..(slot + 1) * nb],
                &mut phat_im[slot * nb..(slot + 1) * nb],
            );
        }
        let (re0, re1) = phat_re[..2 * nb].split_at(nb);
        let (im0, im1) = phat_im[..2 * nb].split_at(nb);
        let tables = &mut lag_tables[2 * block_idx * op.padded_len..][..2 * op.padded_len];
        let (table0, table1) = tables.split_at_mut(op.padded_len);
        for lag in 0..=op.max_lag {
            let cos_row = &op.syn_cos[lag * nb..(lag + 1) * nb];
            let sin_row = &op.syn_sin[lag * nb..(lag + 1) * nb];
            let [(a0, b0), (a1, b1)] = paired_dot_fma_x2(cos_row, sin_row, [re0, re1], [im0, im1]);
            table0[center + lag] = a0 - b0;
            table0[center - lag] = a0 + b0;
            table1[center + lag] = a1 - b1;
            table1[center - lag] = a1 + b1;
        }
    }
    if let [(i, j)] = *blocks.remainder() {
        let pair_idx = spectra.pairs.len() - 1;
        phat_norm_pair(
            &spectra.ch_re[i * nb..(i + 1) * nb],
            &spectra.ch_im[i * nb..(i + 1) * nb],
            &spectra.ch_re[j * nb..(j + 1) * nb],
            &spectra.ch_im[j * nb..(j + 1) * nb],
            &mut phat_re[..nb],
            &mut phat_im[..nb],
        );
        let table = &mut lag_tables[pair_idx * op.padded_len..][..op.padded_len];
        for lag in 0..=op.max_lag {
            let cos_row = &op.syn_cos[lag * nb..(lag + 1) * nb];
            let sin_row = &op.syn_sin[lag * nb..(lag + 1) * nb];
            // Safe call: this context already enables avx2 + fma.
            let (a, b) = paired_dot_fma(cos_row, &phat_re[..nb], sin_row, &phat_im[..nb]);
            table[center + lag] = a - b;
            table[center - lag] = a + b;
        }
    }
}

/// [`paired_dot_fma`] for two spectra against one cosine/sine row pair:
/// `[(Σ cos·re[p], Σ sin·im[p]) for p in 0..2]`, each result computed with
/// exactly `paired_dot_fma`'s operations. All slices have the row's length.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
fn paired_dot_fma_x2(
    cos_row: &[f32],
    sin_row: &[f32],
    re: [&[f32]; 2],
    im: [&[f32]; 2],
) -> [(f32, f32); 2] {
    #[cfg(target_arch = "x86")]
    use core::arch::x86::{
        __m256, _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    let n = cos_row.len();
    let (sin_row, re0, re1, im0, im1) = (
        &sin_row[..n],
        &re[0][..n],
        &re[1][..n],
        &im[0][..n],
        &im[1][..n],
    );
    let mut acc: [[__m256; 4]; 2] = [[_mm256_setzero_ps(); 4]; 2];
    let mut k = 0usize;
    while k + 16 <= n {
        // SAFETY: every slice above has length `n` and `k + 16 <= n`, so each
        // eight-lane load at `k` and `k + 8` stays inside it.
        unsafe {
            let cos_lo = _mm256_loadu_ps(cos_row.as_ptr().add(k));
            let sin_lo = _mm256_loadu_ps(sin_row.as_ptr().add(k));
            let cos_hi = _mm256_loadu_ps(cos_row.as_ptr().add(k + 8));
            let sin_hi = _mm256_loadu_ps(sin_row.as_ptr().add(k + 8));
            for (acc, (re, im)) in acc.iter_mut().zip([(re0, im0), (re1, im1)]) {
                acc[0] = _mm256_fmadd_ps(cos_lo, _mm256_loadu_ps(re.as_ptr().add(k)), acc[0]);
                acc[1] = _mm256_fmadd_ps(sin_lo, _mm256_loadu_ps(im.as_ptr().add(k)), acc[1]);
                acc[2] = _mm256_fmadd_ps(cos_hi, _mm256_loadu_ps(re.as_ptr().add(k + 8)), acc[2]);
                acc[3] = _mm256_fmadd_ps(sin_hi, _mm256_loadu_ps(im.as_ptr().add(k + 8)), acc[3]);
            }
        }
        k += 16;
    }
    let mut out = [(0.0f32, 0.0f32); 2];
    for ((slot, acc), (re, im)) in out.iter_mut().zip(&acc).zip([(re0, im0), (re1, im1)]) {
        let mut ta = 0.0f32;
        let mut tb = 0.0f32;
        for i in k..n {
            ta += cos_row[i] * re[i];
            tb += sin_row[i] * im[i];
        }
        let mut lanes_a = [0.0f32; 8];
        let mut lanes_b = [0.0f32; 8];
        // SAFETY: the destinations are eight-element arrays.
        unsafe {
            _mm256_storeu_ps(lanes_a.as_mut_ptr(), _mm256_add_ps(acc[0], acc[2]));
            _mm256_storeu_ps(lanes_b.as_mut_ptr(), _mm256_add_ps(acc[1], acc[3]));
        }
        *slot = (F32x8(lanes_a).sum() + ta, F32x8(lanes_b).sum() + tb);
    }
    out
}

/// Same loop as [`steer_portable`], with the per-direction tap reduction pinned
/// to 256-bit FMAs.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
fn steer_avx2(op: &SteerOp<'_>, lag_tables: &[f32], out: &mut [f64]) {
    #[cfg(target_arch = "x86")]
    use core::arch::x86::{
        _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    for (d, slot) in out.iter_mut().enumerate() {
        let row = d * op.num_pairs;
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        for p in 0..op.num_pairs {
            let w = &op.tap_weights[(row + p) * K_TAPS..][..K_TAPS];
            let start = op.tap_starts[row + p] as usize;
            let t = &lag_tables[p * op.padded_len + start..][..K_TAPS];
            // SAFETY: both slices hold exactly `K_TAPS == 8` lanes.
            let (wv, tv) = unsafe { (_mm256_loadu_ps(w.as_ptr()), _mm256_loadu_ps(t.as_ptr())) };
            if p & 1 == 0 {
                acc0 = _mm256_fmadd_ps(wv, tv, acc0);
            } else {
                acc1 = _mm256_fmadd_ps(wv, tv, acc1);
            }
        }
        let mut lanes = [0.0f32; 8];
        // SAFETY: the destination is an eight-element array.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_add_ps(acc0, acc1)) };
        *slot = F32x8(lanes).sum() as f64;
    }
}

/// PHAT normalization + folded lag synthesis for every pair, dispatched to the
/// fused `avx2`+`fma` copy when `use_fma` (callers cache
/// [`ispot_dsp::simd::fma_available`]). `phat_re`/`phat_im` hold `2 × nb`
/// values: the fused copy normalizes two pairs at a time.
pub(crate) fn phat_lags(
    use_fma: bool,
    spectra: &PairSpectra<'_>,
    op: &LagSynthOp<'_>,
    phat_re: &mut [f32],
    phat_im: &mut [f32],
    lag_tables: &mut [f32],
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if use_fma {
        // SAFETY: `use_fma` is only true when `fma_available()` confirmed
        // avx2+fma support on this host.
        unsafe { phat_lags_avx2(spectra, op, phat_re, phat_im, lag_tables) };
        return;
    }
    let _ = use_fma;
    phat_lags_portable(spectra, op, phat_re, phat_im, lag_tables);
}

/// Steers every grid direction (direction `d` into `out[d]`), dispatched like
/// [`phat_lags`].
pub(crate) fn steer(use_fma: bool, op: &SteerOp<'_>, lag_tables: &[f32], out: &mut [f64]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if use_fma {
        // SAFETY: `use_fma` is only true when `fma_available()` confirmed
        // avx2+fma support on this host.
        unsafe { steer_avx2(op, lag_tables, out) };
        return;
    }
    let _ = use_fma;
    steer_portable(op, lag_tables, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar f64 re-implementation of one steered direction.
    fn steer_reference(op: &SteerOp<'_>, lag_tables: &[f32], d: usize) -> f64 {
        let mut acc = 0.0f64;
        for p in 0..op.num_pairs {
            let row = d * op.num_pairs + p;
            let start = op.tap_starts[row] as usize;
            for k in 0..K_TAPS {
                acc += op.tap_weights[row * K_TAPS + k] as f64
                    * lag_tables[p * op.padded_len + start + k] as f64;
            }
        }
        acc
    }

    #[test]
    fn steer_matches_scalar_reference_for_both_copies() {
        let num_pairs = 5;
        let num_dirs = 9;
        let padded_len = 23;
        let tap_weights: Vec<f32> = (0..num_dirs * num_pairs * K_TAPS)
            .map(|i| ((i * 37 % 97) as f32 - 48.0) / 48.0)
            .collect();
        let tap_starts: Vec<u32> = (0..num_dirs * num_pairs)
            .map(|i| (i * 13 % (padded_len - K_TAPS + 1)) as u32)
            .collect();
        let lag_tables: Vec<f32> = (0..num_pairs * padded_len)
            .map(|i| ((i * 53 % 89) as f32 - 44.0) / 10.0)
            .collect();
        let op = SteerOp {
            tap_weights: &tap_weights,
            tap_starts: &tap_starts,
            num_pairs,
            padded_len,
        };
        for use_fma in [false, ispot_dsp::simd::fma_available()] {
            let mut out = vec![0.0; num_dirs];
            steer(use_fma, &op, &lag_tables, &mut out);
            for (d, &got) in out.iter().enumerate() {
                let want = steer_reference(&op, &lag_tables, d);
                assert!((got - want).abs() < 1e-4, "d={d}: {got} vs {want}");
            }
        }
    }

    /// The AVX2 lag synthesis before pair blocking — one pair per pass through
    /// [`paired_dot_fma`] — kept as the bitwise reference for the blocked
    /// kernel.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn phat_lags_per_pair(
        spectra: &PairSpectra<'_>,
        op: &LagSynthOp<'_>,
        phat_re: &mut [f32],
        phat_im: &mut [f32],
        lag_tables: &mut [f32],
    ) {
        let nb = spectra.nb;
        for (pair_idx, &(i, j)) in spectra.pairs.iter().enumerate() {
            phat_norm_pair(
                &spectra.ch_re[i * nb..(i + 1) * nb],
                &spectra.ch_im[i * nb..(i + 1) * nb],
                &spectra.ch_re[j * nb..(j + 1) * nb],
                &spectra.ch_im[j * nb..(j + 1) * nb],
                &mut phat_re[..nb],
                &mut phat_im[..nb],
            );
            let table = &mut lag_tables[pair_idx * op.padded_len..][..op.padded_len];
            let center = op.pad + op.max_lag;
            for lag in 0..=op.max_lag {
                let cos_row = &op.syn_cos[lag * nb..(lag + 1) * nb];
                let sin_row = &op.syn_sin[lag * nb..(lag + 1) * nb];
                let (a, b) = paired_dot_fma(cos_row, &phat_re[..nb], sin_row, &phat_im[..nb]);
                table[center + lag] = a - b;
                table[center - lag] = a + b;
            }
        }
    }

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[test]
    fn blocked_lag_synthesis_matches_the_per_pair_loop_bit_for_bit() {
        if !ispot_dsp::simd::fma_available() {
            return;
        }
        let channels = 6;
        let all_pairs: Vec<(usize, usize)> = (0..channels)
            .flat_map(|i| (i + 1..channels).map(move |j| (i, j)))
            .collect();
        let (max_lag, pad) = (6, 4);
        let padded_len = 2 * max_lag + 1 + 2 * pad;
        // 16- and 32-bin bands have no scalar tail; the others do.
        for nb in [16usize, 19, 32, 33, 47, 871] {
            let wave = |i: usize, f: f32| ((i * 7919 % 4093) as f32 * f).sin() * 3.0;
            let mut ch_re: Vec<f32> = (0..channels * nb).map(|i| wave(i, 0.37)).collect();
            let ch_im: Vec<f32> = (0..channels * nb).map(|i| wave(i, 0.11)).collect();
            // A silent bin takes the PHAT threshold's zero weight.
            ch_re[3] = 0.0;
            let syn_cos: Vec<f32> = (0..(max_lag + 1) * nb).map(|i| wave(i, 0.05)).collect();
            let syn_sin: Vec<f32> = (0..(max_lag + 1) * nb)
                .map(|i| if i < nb { 0.0 } else { wave(i, 0.07) })
                .collect();
            let op = LagSynthOp {
                syn_cos: &syn_cos,
                syn_sin: &syn_sin,
                max_lag,
                pad,
                padded_len,
            };
            for num_pairs in [1usize, 2, 3, 15] {
                let spectra = PairSpectra {
                    ch_re: &ch_re,
                    ch_im: &ch_im,
                    nb,
                    pairs: &all_pairs[..num_pairs],
                };
                let mut phat = (vec![0.0f32; 2 * nb], vec![0.0f32; 2 * nb]);
                let mut blocked = vec![0.0f32; num_pairs * padded_len];
                phat_lags(true, &spectra, &op, &mut phat.0, &mut phat.1, &mut blocked);
                let mut per_pair = vec![0.0f32; num_pairs * padded_len];
                // SAFETY: guarded by `fma_available()` above.
                unsafe {
                    phat_lags_per_pair(&spectra, &op, &mut phat.0, &mut phat.1, &mut per_pair)
                };
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&blocked),
                    bits(&per_pair),
                    "nb {nb}, {num_pairs} pairs"
                );
            }
        }
    }

    #[test]
    fn phat_lags_folds_lag_symmetry_and_normalizes() {
        // 2 channels, 1 pair, tiny band; reference computed per lag sign.
        let nb = 19;
        let max_lag = 3;
        let pad = 2;
        let padded_len = 2 * max_lag + 1 + 2 * pad;
        let ch_re: Vec<f32> = (0..2 * nb).map(|i| (i as f32 * 0.7).sin() + 1.4).collect();
        let ch_im: Vec<f32> = (0..2 * nb).map(|i| (i as f32 * 0.3).cos() - 0.2).collect();
        let syn_cos: Vec<f32> = (0..(max_lag + 1) * nb)
            .map(|i| (i as f32 * 0.11).cos())
            .collect();
        // Row 0 of the sine table is zero by the operator contract (sin(0)).
        let syn_sin: Vec<f32> = (0..(max_lag + 1) * nb)
            .map(|i| if i < nb { 0.0 } else { (i as f32 * 0.11).sin() })
            .collect();
        let pairs = [(0usize, 1usize)];
        let spectra = PairSpectra {
            ch_re: &ch_re,
            ch_im: &ch_im,
            nb,
            pairs: &pairs,
        };
        let op = LagSynthOp {
            syn_cos: &syn_cos,
            syn_sin: &syn_sin,
            max_lag,
            pad,
            padded_len,
        };
        let mut phat_re = vec![0.0f32; nb];
        let mut phat_im = vec![0.0f32; nb];
        let mut tables = vec![0.0f32; padded_len];
        phat_lags(
            false,
            &spectra,
            &op,
            &mut phat_re,
            &mut phat_im,
            &mut tables,
        );
        // Every PHAT bin has unit magnitude (inputs are well above threshold).
        for k in 0..nb {
            let mag = (phat_re[k] * phat_re[k] + phat_im[k] * phat_im[k]).sqrt();
            assert!((mag - 1.0).abs() < 1e-5, "bin {k}: |c| = {mag}");
        }
        // Folded rows match the unfolded A ∓ B reference.
        let center = pad + max_lag;
        for lag in 0..=max_lag {
            let mut a = 0.0f64;
            let mut b = 0.0f64;
            for k in 0..nb {
                a += syn_cos[lag * nb + k] as f64 * phat_re[k] as f64;
                b += syn_sin[lag * nb + k] as f64 * phat_im[k] as f64;
            }
            assert!((tables[center + lag] as f64 - (a - b)).abs() < 1e-4);
            assert!((tables[center - lag] as f64 - (a + b)).abs() < 1e-4);
        }
        // Pad cells stay untouched.
        assert!(tables[..pad].iter().all(|&v| v == 0.0));
        assert!(tables[padded_len - pad..].iter().all(|&v| v == 0.0));
    }
}
