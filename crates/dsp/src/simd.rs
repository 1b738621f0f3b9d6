//! Portable fixed-width SIMD lane types for the per-frame hot paths.
//!
//! The workspace vendors all dependencies, so no SIMD crate is available; instead
//! this module provides `f32xN`-style structs over plain arrays, written so LLVM
//! reliably autovectorizes them: fixed-width lanes, no bounds checks inside the
//! lane loops (inputs come from `chunks_exact`/`try_into`), and independent
//! accumulators so reductions do not serialize on one register.
//!
//! # Fused multiply-add and runtime dispatch
//!
//! `f32::mul_add` only compiles to a hardware FMA when the target enables the
//! `fma` feature — on the default `x86_64` baseline it lowers to a **libm call**,
//! which is catastrophically slow in a kernel (measured ~40× slower than the
//! plain `a * b + c` form on the lag-synthesis kernel). The kernels here are
//! therefore generic over `const FMA: bool`: callers compile two copies, one
//! plain (`a * b + c`, autovectorized with the baseline feature set) and one
//! fused, and select the fused copy at runtime from inside a
//! `#[target_feature(enable = "avx2", enable = "fma")]` wrapper when
//! [`fma_available`] reports support. See `ispot_ssl::srp_kernels` for the
//! dispatch pattern.

/// Eight `f32` lanes, the width of one AVX2 register (two SSE registers).
///
/// # Example
///
/// ```
/// use ispot_dsp::simd::F32x8;
///
/// let a = F32x8::splat(2.0);
/// let b = F32x8::load(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
/// // Without hardware FMA (`false`), multiply-add is the unfused `a * b + c`.
/// let acc = a.mul_add::<false>(b, F32x8::zero());
/// assert_eq!(acc.sum(), 2.0 * (1.0 + 2.0 + 3.0 + 4.0 + 5.0 + 6.0 + 7.0 + 8.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32x8(pub [f32; 8]);

impl F32x8 {
    /// Number of lanes.
    pub const LANES: usize = 8;

    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        F32x8([0.0; 8])
    }

    /// Broadcasts `v` to every lane.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        F32x8([v; 8])
    }

    /// Loads the first eight values of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` has fewer than eight elements.
    #[inline(always)]
    pub fn load(s: &[f32]) -> Self {
        // analyze: allow(expect) — statically infallible: the `[..8]` slice above
        // either panics per the documented contract or yields exactly 8 lanes
        F32x8(s[..8].try_into().expect("slice of at least 8 lanes"))
    }

    /// Stores the lanes into the first eight slots of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` has fewer than eight elements.
    #[inline(always)]
    pub fn store(self, out: &mut [f32]) {
        out[..8].copy_from_slice(&self.0);
    }

    /// Lane-wise multiply-add: `self * b + acc`.
    ///
    /// With `FMA = true` each lane uses [`f32::mul_add`], which the caller must
    /// only reach from a `#[target_feature(enable = "fma")]` context (otherwise
    /// it lowers to a libm call); with `FMA = false` it is the unfused
    /// `self * b + acc`, which LLVM vectorizes on any baseline.
    #[inline(always)]
    pub fn mul_add<const FMA: bool>(self, b: Self, acc: Self) -> Self {
        let mut out = [0.0f32; 8];
        for (l, o) in out.iter_mut().enumerate() {
            *o = if FMA {
                self.0[l].mul_add(b.0[l], acc.0[l])
            } else {
                self.0[l] * b.0[l] + acc.0[l]
            };
        }
        F32x8(out)
    }

    /// Horizontal sum of all lanes, tree-ordered so the result is independent of
    /// how many accumulators the caller split a reduction across.
    #[inline(always)]
    pub fn sum(self) -> f32 {
        let a = self.0;
        ((a[0] + a[4]) + (a[1] + a[5])) + ((a[2] + a[6]) + (a[3] + a[7]))
    }
}

/// Lane-wise addition.
impl std::ops::Add for F32x8 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o += r;
        }
        F32x8(out)
    }
}

/// Lane-wise multiplication.
impl std::ops::Mul for F32x8 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o *= r;
        }
        F32x8(out)
    }
}

/// Two dot products over the same index range in one pass:
/// `(Σ a[i]·x[i], Σ b[i]·y[i])`.
///
/// This is the reduction shape of the lag-domain synthesis kernel (cosine row ×
/// spectrum real part, sine row × spectrum imaginary part); fusing the two keeps
/// four independent 8-lane accumulators in flight, which is enough to hide FMA
/// latency on one stream.
///
/// All four slices are truncated to the shortest length.
#[inline(always)]
pub fn paired_dot<const FMA: bool>(a: &[f32], x: &[f32], b: &[f32], y: &[f32]) -> (f32, f32) {
    let n = a.len().min(x.len()).min(b.len()).min(y.len());
    let (a, x, b, y) = (&a[..n], &x[..n], &b[..n], &y[..n]);
    let mut acc0 = F32x8::zero();
    let mut acc1 = F32x8::zero();
    let mut acc2 = F32x8::zero();
    let mut acc3 = F32x8::zero();
    let mut a_it = a.chunks_exact(16);
    let mut x_it = x.chunks_exact(16);
    let mut b_it = b.chunks_exact(16);
    let mut y_it = y.chunks_exact(16);
    for (((ca, cx), cb), cy) in (&mut a_it).zip(&mut x_it).zip(&mut b_it).zip(&mut y_it) {
        acc0 = F32x8::load(&ca[..8]).mul_add::<FMA>(F32x8::load(&cx[..8]), acc0);
        acc1 = F32x8::load(&cb[..8]).mul_add::<FMA>(F32x8::load(&cy[..8]), acc1);
        acc2 = F32x8::load(&ca[8..]).mul_add::<FMA>(F32x8::load(&cx[8..]), acc2);
        acc3 = F32x8::load(&cb[8..]).mul_add::<FMA>(F32x8::load(&cy[8..]), acc3);
    }
    // The horizontal sums MUST come after the remainder loop: reducing the wide
    // accumulators to scalars first and then mutating those scalars makes LLVM
    // demote the whole main loop to 128-bit lanes with per-iteration register
    // spills (measured ~4.5× slower on the lag-synthesis GEMM). Keeping the
    // accumulators opaque until the very end preserves clean 256-bit codegen.
    let mut ta = 0.0f32;
    let mut tb = 0.0f32;
    for (((ca, cx), cb), cy) in a_it
        .remainder()
        .iter()
        .zip(x_it.remainder())
        .zip(b_it.remainder())
        .zip(y_it.remainder())
    {
        ta += ca * cx;
        tb += cb * cy;
    }
    ((acc0 + acc2).sum() + ta, (acc1 + acc3).sum() + tb)
}

/// AVX2 + FMA implementation of [`paired_dot`], its vector shape pinned by
/// explicit `core::arch` intrinsics.
///
/// The portable [`paired_dot`] is written over [`F32x8`] lane arrays and relies
/// on LLVM re-vectorizing the lane loops. That produces clean 256-bit code in
/// some inlining contexts but is fragile: in several measured callers LLVM
/// demoted the identical loop to 128-bit halves with per-iteration accumulator
/// spills — a ~4× slowdown on the lag-synthesis GEMM. Intrinsics make the
/// 256-bit FMA shape unconditional, so dispatch paths should prefer this copy.
///
/// Both copies reduce through the same tree order ([`F32x8::sum`]), so they
/// agree to rounding (fused vs. unfused differences only).
///
/// Calling this from a context that already enables `avx2` and `fma` (for
/// example a `#[target_feature]` kernel wrapper, as in `ispot_ssl`'s SRP
/// kernels) is safe and inlines; from any other context the call requires
/// `unsafe`.
///
/// # Safety
///
/// The caller must guarantee the host supports the `avx2` and `fma` instruction
/// sets, i.e. that [`fma_available`] returned `true`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
pub fn paired_dot_fma(a: &[f32], x: &[f32], b: &[f32], y: &[f32]) -> (f32, f32) {
    #[cfg(target_arch = "x86")]
    use core::arch::x86::{
        _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };

    let n = a.len().min(x.len()).min(b.len()).min(y.len());
    let (a, x, b, y) = (&a[..n], &x[..n], &b[..n], &y[..n]);
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut acc2 = _mm256_setzero_ps();
    let mut acc3 = _mm256_setzero_ps();
    let mut k = 0usize;
    while k + 16 <= n {
        // SAFETY: `k + 16 <= n` keeps every eight-lane load inside the slices.
        unsafe {
            acc0 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.as_ptr().add(k)),
                _mm256_loadu_ps(x.as_ptr().add(k)),
                acc0,
            );
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(b.as_ptr().add(k)),
                _mm256_loadu_ps(y.as_ptr().add(k)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.as_ptr().add(k + 8)),
                _mm256_loadu_ps(x.as_ptr().add(k + 8)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(b.as_ptr().add(k + 8)),
                _mm256_loadu_ps(y.as_ptr().add(k + 8)),
                acc3,
            );
        }
        k += 16;
    }
    let mut ta = 0.0f32;
    let mut tb = 0.0f32;
    for i in k..n {
        ta += a[i] * x[i];
        tb += b[i] * y[i];
    }
    let mut lanes_a = [0.0f32; 8];
    let mut lanes_b = [0.0f32; 8];
    // SAFETY: the destinations are eight-element arrays.
    unsafe {
        _mm256_storeu_ps(lanes_a.as_mut_ptr(), _mm256_add_ps(acc0, acc2));
        _mm256_storeu_ps(lanes_b.as_mut_ptr(), _mm256_add_ps(acc1, acc3));
    }
    (F32x8(lanes_a).sum() + ta, F32x8(lanes_b).sum() + tb)
}

/// Returns true when the host supports the `avx2` + `fma` instruction sets, i.e.
/// when a `#[target_feature(enable = "avx2", enable = "fma")]` kernel copy may be
/// called. Always false on non-x86 targets, where the portable copy is used.
pub fn fma_available() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        false
    }
}

/// Returns true when the host supports `avx2`, the instruction set of the FFT
/// butterfly kernel, which [`crate::fft::Fft::new`] probes once per plan. That
/// kernel never fuses, so it does not need `fma`. Always false on non-x86
/// targets, where the scalar butterflies run.
pub(crate) fn avx2_available() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_dot(a: &[f32], x: &[f32]) -> f64 {
        a.iter()
            .zip(x)
            .map(|(&a, &x)| a as f64 * x as f64)
            .sum::<f64>()
    }

    #[test]
    fn lane_ops_match_scalar() {
        let a = F32x8::load(&[1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0]);
        let b = F32x8::splat(0.5);
        assert_eq!((a + b).0[1], -1.5);
        assert_eq!((a * b).0[2], 1.5);
        let acc = a.mul_add::<false>(b, F32x8::splat(1.0));
        assert_eq!(acc.0[0], 1.5);
        let mut out = [0.0f32; 8];
        a.store(&mut out);
        assert_eq!(out, a.0);
        // sum(1..=8 with alternating signs) = -4, independent of lane order.
        assert_eq!(a.sum(), -4.0);
    }

    #[test]
    fn paired_dot_matches_reference_for_all_tail_lengths() {
        // Cover multiples of 16 plus every remainder class.
        for n in [0usize, 1, 7, 8, 15, 16, 17, 31, 32, 33, 160, 173] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
            let b: Vec<f32> = (0..n).map(|i| 1.0 - i as f32 * 1e-3).collect();
            let y: Vec<f32> = (0..n).map(|i| (i as f32).sqrt()).collect();
            let (sa, sb) = paired_dot::<false>(&a, &x, &b, &y);
            let tol = 1e-4 * (n as f64 + 1.0);
            assert!((sa as f64 - reference_dot(&a, &x)).abs() < tol, "n={n}");
            assert!((sb as f64 - reference_dot(&b, &y)).abs() < tol, "n={n}");
        }
    }

    #[test]
    fn paired_dot_truncates_to_shortest_input() {
        let a = [1.0f32; 20];
        let x = [2.0f32; 17];
        let b = [1.0f32; 20];
        let y = [3.0f32; 20];
        let (sa, sb) = paired_dot::<false>(&a, &x, &b, &y);
        assert_eq!(sa, 34.0);
        assert_eq!(sb, 51.0);
    }

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[test]
    fn intrinsic_copy_matches_portable_copy() {
        if !fma_available() {
            return;
        }
        for n in [0usize, 1, 15, 16, 17, 31, 32, 173] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.29).sin()).collect();
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.17).cos()).collect();
            let b: Vec<f32> = (0..n).map(|i| 0.5 - i as f32 * 2e-3).collect();
            let y: Vec<f32> = (0..n).map(|i| (i as f32 * 0.07).sin()).collect();
            let (pa, pb) = paired_dot::<false>(&a, &x, &b, &y);
            // SAFETY: guarded by `fma_available()` above.
            let (fa, fb) = unsafe { paired_dot_fma(&a, &x, &b, &y) };
            let tol = 1e-4 * (n as f32 + 1.0);
            assert!((pa - fa).abs() < tol, "n={n}: {pa} vs {fa}");
            assert!((pb - fb).abs() < tol, "n={n}: {pb} vs {fb}");
        }
    }

    #[test]
    fn fma_detection_is_consistent() {
        // Smoke: must not panic, and both kernel copies must agree numerically.
        let available = fma_available();
        let a: Vec<f32> = (0..100).map(|i| i as f32 * 0.01).collect();
        let (plain, _) = paired_dot::<false>(&a, &a, &a, &a);
        let (fused, _) = paired_dot::<true>(&a, &a, &a, &a);
        assert!(
            (plain - fused).abs() < 1e-3,
            "plain {plain} vs fused {fused} (fma_available = {available})"
        );
    }
}
