//! Fast Fourier transforms.
//!
//! [`Fft`] is the one transform kernel under both per-frame layers:
//!
//! - SRP-PHAT (`ispot_ssl::srp_fast`) runs one 2048-point
//!   [`Fft::forward_real_pair_into`] per channel pair of every localized frame;
//! - detection runs 512-point [`Fft::forward_real_into`] power spectra through
//!   [`crate::stft::Stft`] for the sub-frames each frame adds.
//!
//! The conventional SRP-PHAT processor and the f64 lag-domain reference path
//! (`SrpPhatFast::compute_map_reference_into`, with its
//! [`Fft::inverse_real_into`]) use the same plan off the per-frame path, as do
//! the tests and experiments that inspect spectra.
//!
//! Power-of-two sizes run an iterative radix-2 Cooley–Tukey transform; other
//! sizes fall back to the Bluestein (chirp-z) algorithm on a padded power-of-two
//! plan, so callers never need to care about the length.
//!
//! # Plan layout
//!
//! - **Per-stage twiddle runs.** The butterfly stage of half-length `h` reads
//!   `w_k = exp(−2πi·k/(2h))`, `k < h`, as one contiguous run at `[h − 1, 2h − 1)`
//!   of a `size − 1` table. Each value is copied from the classic
//!   `exp(−2πi·j/size)` table at `j = k·size/(2h)`, so it is bit for bit the
//!   factor a stride-indexed textbook loop would read. The inverse keeps a
//!   second table holding `w.conj()` (an exact sign flip), so no butterfly
//!   branches on the direction.
//! - **Bit-reversed packing.** [`Fft::forward_real_into`] and
//!   [`Fft::forward_real_pair_into`] write sample `i` straight to
//!   `out[bitrev[i]]`; the other entry points ([`Fft::forward`],
//!   [`Fft::inverse`], [`Fft::inverse_real_into`]) transform a buffer that
//!   already holds their input and keep the swap pass.
//! - **Butterflies, chosen once in [`Fft::new`].** Hosts with AVX2 run two
//!   butterflies per 256-bit register; other hosts (including the aarch64
//!   RasPi-class target) run the scalar loop. Both do exactly the scalar
//!   `even ± odd · w` operations, so every transform is bit for bit the same on
//!   either path (a NaN stays a NaN; Rust leaves its payload unspecified).
//!
//! # No fused multiply-add
//!
//! The complex multiply is two multiplies and one subtract (real part) or add
//! (imaginary part), each rounded. An FMA rounds once and would change the low
//! bits of every spectrum downstream, so neither kernel may fuse, and the AVX2
//! kernel is compiled without the `fma` feature.

use crate::complex::Complex;
use crate::error::DspError;
use std::f64::consts::PI;

/// A fast Fourier transform plan for a fixed size.
///
/// The plan precomputes twiddle factors and the bit-reversal permutation and
/// probes the host's SIMD support once; reuse it across calls for best
/// performance.
///
/// # Example
///
/// ```
/// use ispot_dsp::{fft::Fft, Complex};
///
/// # fn main() -> Result<(), ispot_dsp::DspError> {
/// let fft = Fft::new(8);
/// let x: Vec<Complex> = (0..8).map(|n| Complex::new(n as f64, 0.0)).collect();
/// let spec = fft.forward(&x)?;
/// let back = fft.inverse(&spec)?;
/// for (a, b) in x.iter().zip(back.iter()) {
///     assert!((a.re - b.re).abs() < 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    size: usize,
    /// Forward twiddle runs, one per butterfly stage (see the module docs);
    /// empty for the Bluestein path.
    twiddles: Vec<Complex>,
    /// The conjugates of `twiddles`, for the inverse transform.
    inverse_twiddles: Vec<Complex>,
    /// Bit-reversal permutation table (radix-2 path).
    bitrev: Vec<usize>,
    /// Inner power-of-two FFT used by the Bluestein path.
    bluestein: Option<Box<BluesteinPlan>>,
    /// Run the AVX2 butterflies; only set when the host supports AVX2.
    avx2: bool,
}

#[derive(Debug, Clone)]
struct BluesteinPlan {
    inner: Fft,
    /// Chirp sequence a_n = exp(-i*pi*n^2/N).
    chirp: Vec<Complex>,
    /// FFT of the zero-padded conjugate chirp.
    chirp_spectrum: Vec<Complex>,
}

impl Fft {
    /// Creates a transform plan for `size` points.
    ///
    /// Any `size >= 1` is supported. Power-of-two sizes use the radix-2 algorithm;
    /// other sizes use Bluestein's algorithm on top of a padded power-of-two plan.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "fft size must be at least 1");
        let avx2 = crate::simd::avx2_available();
        if size.is_power_of_two() {
            // The classic table exp(-2πi·j/size), j < size/2; stage `h` reads
            // every (size/2h)-th entry, copied here into one contiguous run.
            let table: Vec<Complex> = (0..size / 2)
                .map(|j| Complex::cis(-2.0 * PI * j as f64 / size as f64))
                .collect();
            let mut twiddles = Vec::with_capacity(size - 1);
            let mut half = 1;
            while half < size {
                let step = size / (2 * half);
                twiddles.extend((0..half).map(|k| table[k * step]));
                half *= 2;
            }
            let inverse_twiddles = twiddles.iter().map(|w| w.conj()).collect();
            let bits = size.trailing_zeros();
            let bitrev = if bits == 0 {
                vec![0]
            } else {
                (0..size)
                    .map(|i| (i.reverse_bits() >> (usize::BITS - bits)) & (size - 1))
                    .collect()
            };
            Fft {
                size,
                twiddles,
                inverse_twiddles,
                bitrev,
                bluestein: None,
                avx2,
            }
        } else {
            let padded = (2 * size - 1).next_power_of_two();
            let inner = Fft::new(padded);
            let mut chirp = Vec::with_capacity(size);
            for n in 0..size {
                // Use modular arithmetic on n^2 to keep the angle numerically small.
                let sq = (n * n) % (2 * size);
                chirp.push(Complex::cis(-PI * sq as f64 / size as f64));
            }
            let mut b = vec![Complex::ZERO; padded];
            b[0] = chirp[0].conj();
            for n in 1..size {
                b[n] = chirp[n].conj();
                b[padded - n] = chirp[n].conj();
            }
            let chirp_spectrum = inner.forward(&b).expect("padded length matches plan");
            Fft {
                size,
                twiddles: Vec::new(),
                inverse_twiddles: Vec::new(),
                bitrev: Vec::new(),
                bluestein: Some(Box::new(BluesteinPlan {
                    inner,
                    chirp,
                    chirp_spectrum,
                })),
                avx2,
            }
        }
    }

    /// Returns the transform size this plan was created for.
    #[inline]
    pub fn len(&self) -> usize {
        self.size
    }

    /// Returns true if the plan size is zero (never true in practice).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Computes the forward DFT of `input`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `input.len() != self.len()`.
    pub fn forward(&self, input: &[Complex]) -> Result<Vec<Complex>, DspError> {
        self.check_len(input.len())?;
        let mut buf = input.to_vec();
        self.transform_in_place(&mut buf, false);
        Ok(buf)
    }

    /// Computes the inverse DFT of `input`, including the `1/N` normalization.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `input.len() != self.len()`.
    pub fn inverse(&self, input: &[Complex]) -> Result<Vec<Complex>, DspError> {
        self.check_len(input.len())?;
        let mut buf = input.to_vec();
        self.transform_in_place(&mut buf, true);
        let scale = 1.0 / self.size as f64;
        for v in &mut buf {
            *v = v.scale(scale);
        }
        Ok(buf)
    }

    /// Computes the forward DFT of a real-valued signal.
    ///
    /// Returns the full `N`-point complex spectrum (callers interested only in the
    /// non-redundant half can take the first `N/2 + 1` bins).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `input.len() != self.len()`.
    pub fn forward_real(&self, input: &[f64]) -> Result<Vec<Complex>, DspError> {
        self.check_len(input.len())?;
        let mut buf = vec![Complex::ZERO; self.size];
        self.forward_real_into(input, &mut buf)?;
        Ok(buf)
    }

    /// Computes the forward DFT of a real-valued signal into a caller-provided
    /// buffer, avoiding the output allocation of [`Fft::forward_real`].
    ///
    /// For power-of-two sizes this performs no heap allocation at all; the Bluestein
    /// fallback for other sizes still allocates internal convolution workspace.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `input.len()` or `out.len()` differs
    /// from `self.len()`.
    pub fn forward_real_into(&self, input: &[f64], out: &mut [Complex]) -> Result<(), DspError> {
        self.check_len(input.len())?;
        self.check_len(out.len())?;
        self.forward_from(input.iter().map(|&x| Complex::new(x, 0.0)), out);
        Ok(())
    }

    /// Computes the forward DFTs of **two** real-valued signals with a single
    /// complex transform, writing the combined spectrum of `a + i·b` into `out`.
    ///
    /// This is the classic two-for-one trick for real inputs: pack the second
    /// signal into the imaginary lane, transform once, and recover the
    /// individual spectra from the (anti-)Hermitian parts of the result:
    ///
    /// ```text
    /// A(k) = (Z(k) + conj(Z(N-k))) / 2
    /// B(k) = (Z(k) - conj(Z(N-k))) / (2i)
    /// ```
    ///
    /// (with `Z(N) ≡ Z(0)`). [`Fft::split_pair_bin`] evaluates that separation
    /// for one bin. Callers that only need a band of bins — like the SRP-PHAT
    /// front-end — separate just those bins and skip the rest, which is why this
    /// method returns the combined spectrum instead of materializing both.
    ///
    /// For power-of-two sizes this performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `a.len()`, `b.len()` or
    /// `out.len()` differs from `self.len()`.
    pub fn forward_real_pair_into(
        &self,
        a: &[f64],
        b: &[f64],
        out: &mut [Complex],
    ) -> Result<(), DspError> {
        self.check_len(a.len())?;
        self.check_len(b.len())?;
        self.check_len(out.len())?;
        self.forward_from(a.iter().zip(b).map(|(&x, &y)| Complex::new(x, y)), out);
        Ok(())
    }

    /// Separates bin `k` of a combined two-real-signal spectrum (as produced by
    /// [`Fft::forward_real_pair_into`]) into the two individual spectra,
    /// returning `(A(k), B(k))`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()` or `z.len() != self.len()`.
    #[inline]
    pub fn split_pair_bin(&self, z: &[Complex], k: usize) -> (Complex, Complex) {
        assert_eq!(z.len(), self.size, "spectrum length mismatch");
        let zk = z[k];
        let zn = z[(self.size - k) % self.size];
        (
            Complex::new(0.5 * (zk.re + zn.re), 0.5 * (zk.im - zn.im)),
            Complex::new(0.5 * (zk.im + zn.im), 0.5 * (zn.re - zk.re)),
        )
    }

    /// Computes the inverse DFT and returns only the real part.
    ///
    /// This is the natural companion of [`Fft::forward_real`] for signals known to be
    /// real valued (e.g. cross-correlation via the frequency domain).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `input.len() != self.len()`.
    pub fn inverse_real(&self, input: &[Complex]) -> Result<Vec<f64>, DspError> {
        let mut spectrum = input.to_vec();
        let mut out = vec![0.0; self.size];
        self.inverse_real_into(&mut spectrum, &mut out)?;
        Ok(out)
    }

    /// Computes the inverse DFT of `spectrum` **in place** and writes the real part
    /// (with the `1/N` normalization) into `out`.
    ///
    /// `spectrum` is consumed as the transform workspace and holds the unnormalized
    /// inverse transform afterwards; callers that need it again must rebuild it. For
    /// power-of-two sizes this performs no heap allocation; the Bluestein fallback
    /// for other sizes still allocates internal convolution workspace.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if `spectrum.len()` or `out.len()`
    /// differs from `self.len()`.
    pub fn inverse_real_into(
        &self,
        spectrum: &mut [Complex],
        out: &mut [f64],
    ) -> Result<(), DspError> {
        self.check_len(spectrum.len())?;
        self.check_len(out.len())?;
        self.transform_in_place(spectrum, true);
        let scale = 1.0 / self.size as f64;
        for (o, c) in out.iter_mut().zip(spectrum.iter()) {
            *o = c.re * scale;
        }
        Ok(())
    }

    fn check_len(&self, len: usize) -> Result<(), DspError> {
        if len != self.size {
            return Err(DspError::LengthMismatch {
                expected: self.size,
                actual: len,
            });
        }
        Ok(())
    }

    /// Forward-transforms `input` (exactly `self.len()` values) into `out`. The
    /// radix-2 path writes each value straight to its bit-reversed slot, which
    /// leaves `out` as the swap pass would, and runs the butterflies.
    fn forward_from(&self, input: impl Iterator<Item = Complex>, out: &mut [Complex]) {
        if self.bluestein.is_some() {
            for (slot, z) in out.iter_mut().zip(input) {
                *slot = z;
            }
            self.transform_in_place(out, false);
            return;
        }
        for (z, &j) in input.zip(&self.bitrev) {
            out[j] = z;
        }
        self.butterflies(out, false);
    }

    fn transform_in_place(&self, buf: &mut [Complex], inverse: bool) {
        if let Some(plan) = &self.bluestein {
            self.bluestein_transform(plan, buf, inverse);
            return;
        }
        // Bit-reversal permutation.
        for i in 0..self.size {
            let j = self.bitrev[i];
            if i < j {
                buf.swap(i, j);
            }
        }
        self.butterflies(buf, inverse);
    }

    /// Runs every radix-2 stage over a bit-reversed buffer, on the kernel
    /// [`Fft::new`] chose.
    fn butterflies(&self, buf: &mut [Complex], inverse: bool) {
        let twiddles = if inverse {
            &self.inverse_twiddles
        } else {
            &self.twiddles
        };
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if self.avx2 {
            // SAFETY: `avx2` is only set when `avx2_available()` confirmed the
            // instruction set on this host.
            unsafe { butterflies_avx2(buf, twiddles) };
            return;
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        let _ = self.avx2;
        butterflies_scalar(buf, twiddles);
    }

    fn bluestein_transform(&self, plan: &BluesteinPlan, buf: &mut [Complex], inverse: bool) {
        let n = self.size;
        let padded = plan.inner.len();
        // a_n = x_n * chirp_n (conjugate chirp for the inverse transform).
        let mut a = vec![Complex::ZERO; padded];
        for i in 0..n {
            let c = if inverse {
                plan.chirp[i].conj()
            } else {
                plan.chirp[i]
            };
            a[i] = buf[i] * c;
        }
        let mut fa = plan.inner.forward(&a).expect("length matches inner plan");
        if inverse {
            // The precomputed spectrum corresponds to conj(chirp); for the inverse
            // transform we need the spectrum of the chirp itself, which is the
            // conjugate-symmetric counterpart. Recompute cheaply via conjugation trick:
            // FFT(conj(b)) = conj(reverse(FFT(b))) — instead just convolve with
            // conj(chirp) by conjugating in time domain below.
            let mut b = vec![Complex::ZERO; padded];
            b[0] = plan.chirp[0];
            for i in 1..n {
                b[i] = plan.chirp[i];
                b[padded - i] = plan.chirp[i];
            }
            let fb = plan.inner.forward(&b).expect("length matches inner plan");
            for (a, b) in fa.iter_mut().zip(&fb) {
                *a *= *b;
            }
        } else {
            for (a, c) in fa.iter_mut().zip(&plan.chirp_spectrum) {
                *a *= *c;
            }
        }
        let conv = plan.inner.inverse(&fa).expect("length matches inner plan");
        for i in 0..n {
            let c = if inverse {
                plan.chirp[i].conj()
            } else {
                plan.chirp[i]
            };
            buf[i] = conv[i] * c;
        }
    }
}

/// The radix-2 stages over a bit-reversed `buf`, reading the per-stage runs of
/// `twiddles` (forward or inverse, see the module docs).
///
/// The first stage (`w = (1, −0)` forward) is multiplied like every other: a
/// shortcut `e ± o` would turn a −0.0 into +0.0 and an `(∞, 0)` into `(∞, 0)`
/// where the multiply gives `(∞, NaN)`. No operation may be fused (see the
/// module docs).
fn butterflies_scalar(buf: &mut [Complex], twiddles: &[Complex]) {
    let mut half = 1;
    while half < buf.len() {
        let run = &twiddles[half - 1..2 * half - 1];
        for block in buf.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for ((e, o), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(run) {
                let even = *e;
                let odd = *o * w;
                *e = even + odd;
                *o = even - odd;
            }
        }
        half *= 2;
    }
}

/// [`butterflies_scalar`] with two butterflies per 256-bit register (one per
/// 128-bit register in the first stage, whose blocks hold one butterfly).
///
/// `odd · w` is formed as `addsub(movedup(o)·w, (oi, oi)·(wi, wr))`: lane by
/// lane that is `o.re·w.re − o.im·w.im` and `o.re·w.im + o.im·w.re`, the scalar
/// [`Complex`] multiply operand for operand, so every result is bit for bit the
/// scalar kernel's (a NaN stays a NaN; Rust leaves the payload of an arithmetic
/// NaN unspecified). The first stage is not skipped and nothing is fused,
/// for the reasons [`butterflies_scalar`] gives; the function enables `avx2`
/// only, never `fma`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn butterflies_avx2(buf: &mut [Complex], twiddles: &[Complex]) {
    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    if buf.len() < 2 {
        return;
    }
    let w = _mm_set_pd(twiddles[0].im, twiddles[0].re);
    let w_swapped = _mm_permute_pd(w, 0b01);
    for pair in buf.chunks_exact_mut(2) {
        let e_ptr = pair.as_mut_ptr().cast::<f64>();
        // SAFETY: `pair` holds two `Complex`, four contiguous f64 (`repr(C)`):
        // `e` is the first 128-bit lane and `o` the second.
        unsafe {
            let o_ptr = e_ptr.add(2);
            let e = _mm_loadu_pd(e_ptr);
            let o = _mm_loadu_pd(o_ptr);
            let p = _mm_addsub_pd(
                _mm_mul_pd(_mm_movedup_pd(o), w),
                _mm_mul_pd(_mm_permute_pd(o, 0b11), w_swapped),
            );
            _mm_storeu_pd(e_ptr, _mm_add_pd(e, p));
            _mm_storeu_pd(o_ptr, _mm_sub_pd(e, p));
        }
    }
    let mut half = 2;
    while half < buf.len() {
        let run = &twiddles[half - 1..2 * half - 1];
        for block in buf.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for ((e2, o2), w2) in lo
                .chunks_exact_mut(2)
                .zip(hi.chunks_exact_mut(2))
                .zip(run.chunks_exact(2))
            {
                let (e_ptr, o_ptr) = (e2.as_mut_ptr().cast::<f64>(), o2.as_mut_ptr().cast::<f64>());
                // SAFETY: `e2`, `o2` and `w2` each hold exactly two `Complex`,
                // four contiguous f64 (`repr(C)`), read or written as one
                // 256-bit lane.
                unsafe {
                    let w = _mm256_loadu_pd(w2.as_ptr().cast::<f64>());
                    let e = _mm256_loadu_pd(e_ptr);
                    let o = _mm256_loadu_pd(o_ptr);
                    let p = _mm256_addsub_pd(
                        _mm256_mul_pd(_mm256_movedup_pd(o), w),
                        _mm256_mul_pd(_mm256_permute_pd(o, 0b1111), _mm256_permute_pd(w, 0b0101)),
                    );
                    _mm256_storeu_pd(e_ptr, _mm256_add_pd(e, p));
                    _mm256_storeu_pd(o_ptr, _mm256_sub_pd(e, p));
                }
            }
        }
        half *= 2;
    }
}

/// Returns the frequency (in Hz) of FFT bin `k` for a transform of `n` points at
/// sampling rate `fs`, mapping bins above `n/2` to negative frequencies.
///
/// # Example
///
/// ```
/// use ispot_dsp::fft::bin_frequency;
/// assert_eq!(bin_frequency(0, 8, 8000.0), 0.0);
/// assert_eq!(bin_frequency(1, 8, 8000.0), 1000.0);
/// assert_eq!(bin_frequency(7, 8, 8000.0), -1000.0);
/// ```
pub fn bin_frequency(k: usize, n: usize, fs: f64) -> f64 {
    let k = k % n;
    if k <= n / 2 {
        k as f64 * fs / n as f64
    } else {
        (k as f64 - n as f64) * fs / n as f64
    }
}

/// Naive O(N^2) DFT, used as a reference in tests and for very small transforms.
pub fn dft_naive(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    let mut out = vec![Complex::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (t, &x) in input.iter().enumerate() {
            acc += x * Complex::cis(-2.0 * PI * (k * t) as f64 / n as f64);
        }
        *o = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook radix-2 this plan replaced, kept as the bitwise reference:
    /// a bit-reversal swap pass, then butterflies reading the single
    /// `exp(-2πi·j/n)` table at stride `n/len`, conjugated per butterfly for the
    /// inverse.
    fn reference_transform(buf: &mut [Complex], inverse: bool) {
        let n = buf.len();
        if n == 1 {
            return;
        }
        let twiddles: Vec<Complex> = (0..n / 2)
            .map(|k| Complex::cis(-2.0 * PI * k as f64 / n as f64))
            .collect();
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
            if i < j {
                buf.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = twiddles[k * step];
                    if inverse {
                        w = w.conj();
                    }
                    let even = buf[start + k];
                    let odd = buf[start + k + half] * w;
                    buf[start + k] = even + odd;
                    buf[start + k + half] = even - odd;
                }
            }
            len <<= 1;
        }
    }

    /// Draws one f64 from a SplitMix64 stream. `mode` sets the mix: 0 finite
    /// values over a wide exponent range with ±0 and subnormals; 1 mostly ±0
    /// and subnormals (the sign of every zero output counts); 2 and 3 add ±Inf
    /// and NaNs with random payloads and signs, rarely or often. One NaN
    /// reaches every output bin, so only the rare mix leaves most bins finite.
    fn special_f64(state: &mut u64, mode: u64) -> f64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let sign = z & (1 << 63);
        let mantissa = (z >> 11) & ((1 << 52) - 1);
        let pick = (z >> 52) % 1024;
        let non_finite = match mode {
            2 => pick < 2,
            3 => pick < 128,
            _ => false,
        };
        if non_finite {
            // Infinity when the mantissa is zero, a NaN with that payload otherwise.
            return f64::from_bits(sign | (0x7FF << 52) | (mantissa * (pick & 1)));
        }
        let zero_or_subnormal = if mode == 1 { pick < 960 } else { pick < 256 };
        if zero_or_subnormal {
            return f64::from_bits(sign | (mantissa * (pick & 1)));
        }
        let exponent = (z % 48) as i32 - 24;
        (((z >> 8) % 2001) as f64 - 1000.0) * 1e-3 * 10f64.powi(exponent)
    }

    /// Fails the case at the first value whose bits differ. A NaN matches any
    /// NaN: Rust leaves the sign and payload of a NaN produced by arithmetic
    /// unspecified, and the reference loop itself returns a propagated payload
    /// in a debug build where its release build returns `0xfff8…`.
    fn same_bits(what: &str, got: &[Complex], want: &[Complex]) -> Result<(), TestCaseError> {
        let same = |g: f64, w: f64| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
        match got
            .iter()
            .zip(want)
            .position(|(g, w)| !(same(g.re, w.re) && same(g.im, w.im)))
        {
            None if got.len() == want.len() => Ok(()),
            None => Err(TestCaseError::fail(format!("{what}: length differs"))),
            Some(i) => Err(TestCaseError::fail(format!(
                "{what}: bin {i} is {:?}, want {:?}",
                got[i], want[i]
            ))),
        }
    }

    /// The plan on each butterfly kernel this host can run.
    fn plans(n: usize) -> Vec<Fft> {
        let avx2 = Fft::new(n);
        let mut scalar = avx2.clone();
        scalar.avx2 = false;
        if avx2.avx2 {
            vec![scalar, avx2]
        } else {
            vec![scalar]
        }
    }

    #[test]
    fn plan_is_clone_send_sync() {
        fn assert_traits<T: Clone + Send + Sync>() {}
        assert_traits::<Fft>();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every entry point equals the textbook radix-2 bit for bit, on both
        /// kernels, for every power of two from 1 to 4096, including inputs
        /// with ±0, subnormals, ±Inf and NaNs with payloads.
        #[test]
        fn matches_the_textbook_radix2_bit_for_bit(mode in 0u64..4, seed in 0u64..u64::MAX) {
            let mut state = seed;
            for log2n in 0..=12 {
                let n = 1usize << log2n;
                let a: Vec<f64> = (0..n).map(|_| special_f64(&mut state, mode)).collect();
                let b: Vec<f64> = (0..n).map(|_| special_f64(&mut state, mode)).collect();
                let z: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| Complex::new(x, y)).collect();
                let real: Vec<Complex> = a.iter().map(|&x| Complex::new(x, 0.0)).collect();
                let mut want_fwd = z.clone();
                reference_transform(&mut want_fwd, false);
                let mut want_real = real.clone();
                reference_transform(&mut want_real, false);
                let mut want_inv = z.clone();
                reference_transform(&mut want_inv, true);
                let scale = 1.0 / n as f64;
                let inv: Vec<Complex> = want_inv.iter().map(|c| c.scale(scale)).collect();
                let want_back: Vec<Complex> = inv.iter().map(|c| Complex::new(c.re, 0.0)).collect();
                for fft in plans(n) {
                    let case = |entry: &str| format!("{entry}, n = {n}, avx2 = {}", fft.avx2);
                    same_bits(&case("forward"), &fft.forward(&z).unwrap(), &want_fwd)?;
                    same_bits(&case("inverse"), &fft.inverse(&z).unwrap(), &inv)?;
                    let mut out = vec![Complex::ZERO; n];
                    fft.forward_real_into(&a, &mut out).unwrap();
                    same_bits(&case("forward_real_into"), &out, &want_real)?;
                    fft.forward_real_pair_into(&a, &b, &mut out).unwrap();
                    same_bits(&case("forward_real_pair_into"), &out, &want_fwd)?;
                    let mut spectrum = z.clone();
                    let mut back = vec![0.0; n];
                    fft.inverse_real_into(&mut spectrum, &mut back).unwrap();
                    let back: Vec<Complex> = back.iter().map(|&re| Complex::new(re, 0.0)).collect();
                    same_bits(&case("inverse_real_into"), &back, &want_back)?;
                }
            }
        }
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "mismatch: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn matches_naive_dft_power_of_two() {
        let n = 16;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let fft = Fft::new(n);
        assert_close(&fft.forward(&x).unwrap(), &dft_naive(&x), 1e-9);
    }

    #[test]
    fn matches_naive_dft_non_power_of_two() {
        for n in [3usize, 5, 6, 7, 12, 15, 31] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let fft = Fft::new(n);
            assert_close(&fft.forward(&x).unwrap(), &dft_naive(&x), 1e-8);
        }
    }

    #[test]
    fn roundtrip_preserves_signal() {
        for n in [8usize, 10, 64, 100] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new(i as f64, -(i as f64)))
                .collect();
            let fft = Fft::new(n);
            let back = fft.inverse(&fft.forward(&x).unwrap()).unwrap();
            assert_close(&back, &x, 1e-7);
        }
    }

    #[test]
    fn single_tone_has_single_peak() {
        let n = 256;
        let fs = 16_000.0;
        let f0 = 1000.0;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * f0 * i as f64 / fs).sin())
            .collect();
        let spec = Fft::new(n).forward_real(&x).unwrap();
        let peak = spec
            .iter()
            .take(n / 2)
            .enumerate()
            .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
            .unwrap()
            .0;
        assert_eq!(peak, (f0 / fs * n as f64).round() as usize);
    }

    #[test]
    fn paired_real_transform_separates_into_individual_spectra() {
        for n in [16usize, 64, 15] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos() - 0.3).collect();
            let fft = Fft::new(n);
            let mut sa = vec![Complex::ZERO; n];
            let mut sb = vec![Complex::ZERO; n];
            fft.forward_real_into(&a, &mut sa).unwrap();
            fft.forward_real_into(&b, &mut sb).unwrap();
            let mut z = vec![Complex::ZERO; n];
            fft.forward_real_pair_into(&a, &b, &mut z).unwrap();
            for k in 0..n {
                let (ak, bk) = fft.split_pair_bin(&z, k);
                assert!(
                    (ak.re - sa[k].re).abs() < 1e-9 && (ak.im - sa[k].im).abs() < 1e-9,
                    "A({k}) mismatch for n={n}: {ak:?} vs {:?}",
                    sa[k]
                );
                assert!(
                    (bk.re - sb[k].re).abs() < 1e-9 && (bk.im - sb[k].im).abs() < 1e-9,
                    "B({k}) mismatch for n={n}: {bk:?} vs {:?}",
                    sb[k]
                );
            }
        }
    }

    #[test]
    fn paired_real_transform_rejects_wrong_lengths() {
        let fft = Fft::new(8);
        let a = [0.0; 8];
        let short = [0.0; 7];
        let mut out = vec![Complex::ZERO; 8];
        assert!(fft.forward_real_pair_into(&short, &a, &mut out).is_err());
        assert!(fft.forward_real_pair_into(&a, &short, &mut out).is_err());
        let mut short_out = vec![Complex::ZERO; 7];
        assert!(fft.forward_real_pair_into(&a, &a, &mut short_out).is_err());
    }

    #[test]
    fn parseval_theorem_holds() {
        let n = 128;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.13).sin(), 0.0))
            .collect();
        let spec = Fft::new(n).forward(&x).unwrap();
        let time_energy: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let fft = Fft::new(8);
        let err = fft.forward(&[Complex::ZERO; 4]).unwrap_err();
        assert_eq!(
            err,
            DspError::LengthMismatch {
                expected: 8,
                actual: 4
            }
        );
    }

    #[test]
    fn size_one_is_identity() {
        let fft = Fft::new(1);
        let x = [Complex::new(3.25, -1.5)];
        assert_eq!(fft.forward(&x).unwrap(), x.to_vec());
    }

    #[test]
    fn bin_frequency_maps_negative_half() {
        assert_eq!(bin_frequency(4, 8, 800.0), 400.0);
        assert_eq!(bin_frequency(5, 8, 800.0), -300.0);
    }

    #[test]
    fn forward_real_into_matches_allocating_variant() {
        for n in [16usize, 12] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let fft = Fft::new(n);
            let expected = fft.forward_real(&x).unwrap();
            let mut out = vec![Complex::ZERO; n];
            fft.forward_real_into(&x, &mut out).unwrap();
            assert_close(&out, &expected, 1e-12);
        }
    }

    #[test]
    fn inverse_real_into_round_trips_through_scratch() {
        let n = 64;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos()).collect();
        let fft = Fft::new(n);
        let mut spectrum = vec![Complex::ZERO; n];
        let mut back = vec![0.0; n];
        fft.forward_real_into(&x, &mut spectrum).unwrap();
        fft.inverse_real_into(&mut spectrum, &mut back).unwrap();
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn into_variants_reject_wrong_lengths() {
        let fft = Fft::new(8);
        let x = [0.0; 8];
        let mut short = vec![Complex::ZERO; 4];
        assert!(fft.forward_real_into(&x, &mut short).is_err());
        assert!(fft
            .forward_real_into(&x[..4], &mut [Complex::ZERO; 8])
            .is_err());
        let mut spec = vec![Complex::ZERO; 8];
        assert!(fft.inverse_real_into(&mut spec, &mut [0.0; 4]).is_err());
        assert!(fft.inverse_real_into(&mut short, &mut [0.0; 8]).is_err());
    }
}
