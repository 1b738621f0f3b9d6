//! Linear convolution, direct and FFT-accelerated.

use crate::complex::Complex;
use crate::error::DspError;
use crate::fft::Fft;

/// Which part of the full convolution to return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConvMode {
    /// The full convolution of length `n + m - 1`.
    #[default]
    Full,
    /// The central part, the same length as the first input.
    Same,
    /// Only the part where the signals fully overlap, length `max(n, m) - min(n, m) + 1`.
    Valid,
}

/// Computes the direct (time-domain) linear convolution of `x` and `h`.
///
/// # Example
///
/// ```
/// use ispot_dsp::convolution::{convolve, ConvMode};
///
/// let y = convolve(&[1.0, 2.0, 3.0], &[1.0, 1.0], ConvMode::Full);
/// assert_eq!(y, vec![1.0, 3.0, 5.0, 3.0]);
/// ```
pub fn convolve(x: &[f64], h: &[f64], mode: ConvMode) -> Vec<f64> {
    if x.is_empty() || h.is_empty() {
        return Vec::new();
    }
    let n = x.len();
    let m = h.len();
    let full_len = n + m - 1;
    let mut full = vec![0.0; full_len];
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        for (j, &hj) in h.iter().enumerate() {
            full[i + j] += xi * hj;
        }
    }
    trim_mode(full, n, m, mode)
}

/// Computes the linear convolution of `x` and `h` using the FFT (overlap-free, single
/// large transform). Faster than [`convolve`] for long signals.
///
/// # Errors
///
/// Returns an error only if the internal FFT plan rejects the padded length, which
/// cannot happen for non-empty inputs.
pub fn fft_convolve(x: &[f64], h: &[f64], mode: ConvMode) -> Result<Vec<f64>, DspError> {
    if x.is_empty() || h.is_empty() {
        return Ok(Vec::new());
    }
    let n = x.len();
    let m = h.len();
    let full_len = n + m - 1;
    let size = full_len.next_power_of_two();
    let fft = Fft::new(size);
    let mut xa = vec![Complex::ZERO; size];
    let mut hb = vec![Complex::ZERO; size];
    for (i, &v) in x.iter().enumerate() {
        xa[i] = Complex::new(v, 0.0);
    }
    for (i, &v) in h.iter().enumerate() {
        hb[i] = Complex::new(v, 0.0);
    }
    let fx = fft.forward(&xa)?;
    let fh = fft.forward(&hb)?;
    let prod: Vec<Complex> = fx.iter().zip(&fh).map(|(a, b)| *a * *b).collect();
    let full: Vec<f64> = fft
        .inverse_real(&prod)?
        .into_iter()
        .take(full_len)
        .collect();
    Ok(trim_mode(full, n, m, mode))
}

/// Computes the (biased) cross-correlation of `x` and `y` at lags
/// `-(y.len()-1) ..= x.len()-1`, returned with the zero lag at index `y.len()-1`.
pub fn cross_correlate(x: &[f64], y: &[f64]) -> Vec<f64> {
    let reversed: Vec<f64> = y.iter().rev().copied().collect();
    convolve(x, &reversed, ConvMode::Full)
}

fn trim_mode(full: Vec<f64>, n: usize, m: usize, mode: ConvMode) -> Vec<f64> {
    match mode {
        ConvMode::Full => full,
        ConvMode::Same => {
            let start = (m - 1) / 2;
            full[start..start + n].to_vec()
        }
        ConvMode::Valid => {
            if n >= m {
                full[m - 1..n].to_vec()
            } else {
                full[n - 1..m].to_vec()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_convolution_known_result() {
        let y = convolve(&[1.0, 2.0, 3.0], &[0.0, 1.0, 0.5], ConvMode::Full);
        assert_eq!(y, vec![0.0, 1.0, 2.5, 4.0, 1.5]);
    }

    #[test]
    fn fft_convolution_matches_direct() {
        let x: Vec<f64> = (0..53).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let h: Vec<f64> = (0..17).map(|i| ((i * 3) % 5) as f64 * 0.25).collect();
        let a = convolve(&x, &h, ConvMode::Full);
        let b = fft_convolve(&x, &h, ConvMode::Full).unwrap();
        assert_eq!(a.len(), b.len());
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn same_mode_preserves_length() {
        let x = vec![1.0; 10];
        let h = vec![0.25; 5];
        assert_eq!(convolve(&x, &h, ConvMode::Same).len(), 10);
    }

    #[test]
    fn valid_mode_length() {
        let x = vec![1.0; 10];
        let h = vec![1.0; 4];
        assert_eq!(convolve(&x, &h, ConvMode::Valid).len(), 7);
    }

    #[test]
    fn empty_inputs_give_empty_output() {
        assert!(convolve(&[], &[1.0], ConvMode::Full).is_empty());
        assert!(fft_convolve(&[1.0], &[], ConvMode::Full)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn identity_kernel_is_identity() {
        let x = vec![0.5, -1.0, 2.0];
        assert_eq!(convolve(&x, &[1.0], ConvMode::Full), x);
    }

    #[test]
    fn cross_correlation_peak_at_shift() {
        // y is x delayed by 3 samples; the correlation peak must occur at lag 3,
        // i.e. index (y.len()-1) - 3 when correlating y against x.
        let x = vec![0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0];
        let mut y = vec![0.0; x.len()];
        y[3..].copy_from_slice(&x[..x.len() - 3]);
        let corr = cross_correlate(&y, &x);
        let peak = corr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let zero_lag = x.len() - 1;
        assert_eq!(peak as isize - zero_lag as isize, 3);
    }
}
