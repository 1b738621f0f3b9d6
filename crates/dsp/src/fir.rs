//! Finite impulse response (FIR) filters: design and streaming application.
//!
//! The road-acoustics simulator models both the asphalt reflection and atmospheric
//! absorption as FIR filters (Fig. 2 of the paper); this module provides the design
//! routines (windowed-sinc and least-squares-on-a-grid) and a stateful streaming filter.

use crate::error::DspError;
use crate::window::{Window, WindowKind};
use std::f64::consts::PI;

/// FIR design helpers (windowed-sinc method).
#[derive(Debug, Clone, Copy)]
pub struct FirDesign;

impl FirDesign {
    /// Designs a linear-phase low-pass filter with `taps` coefficients and cutoff
    /// `cutoff_hz` at sampling rate `fs`.
    ///
    /// # Errors
    ///
    /// Returns an error if `taps` is zero or even, or if the cutoff is not in
    /// `(0, fs/2)`.
    pub fn lowpass(taps: usize, cutoff_hz: f64, fs: f64) -> Result<Vec<f64>, DspError> {
        Self::validate(taps, cutoff_hz, fs)?;
        let fc = cutoff_hz / fs;
        let m = (taps - 1) as f64 / 2.0;
        let window = Window::new(WindowKind::Hamming, taps);
        let mut h: Vec<f64> = (0..taps)
            .map(|n| {
                let t = n as f64 - m;
                let sinc = if t.abs() < 1e-12 {
                    2.0 * fc
                } else {
                    (2.0 * PI * fc * t).sin() / (PI * t)
                };
                sinc * window.coefficients()[n]
            })
            .collect();
        // Normalize to unity gain at DC.
        let sum: f64 = h.iter().sum();
        for v in &mut h {
            *v /= sum;
        }
        Ok(h)
    }

    /// Designs a linear-phase high-pass filter by spectral inversion of a low-pass.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FirDesign::lowpass`].
    pub fn highpass(taps: usize, cutoff_hz: f64, fs: f64) -> Result<Vec<f64>, DspError> {
        let mut h = Self::lowpass(taps, cutoff_hz, fs)?;
        for v in h.iter_mut() {
            *v = -*v;
        }
        h[(taps - 1) / 2] += 1.0;
        Ok(h)
    }

    /// Designs a linear-phase band-pass filter between `low_hz` and `high_hz`.
    ///
    /// # Errors
    ///
    /// Returns an error if the band edges are not ordered or outside `(0, fs/2)`.
    pub fn bandpass(taps: usize, low_hz: f64, high_hz: f64, fs: f64) -> Result<Vec<f64>, DspError> {
        if low_hz >= high_hz {
            return Err(DspError::invalid_parameter(
                "low_hz",
                format!("band edges must satisfy low < high, got {low_hz} >= {high_hz}"),
            ));
        }
        let lp_high = Self::lowpass(taps, high_hz, fs)?;
        let lp_low = Self::lowpass(taps, low_hz, fs)?;
        Ok(lp_high.iter().zip(&lp_low).map(|(a, b)| a - b).collect())
    }

    /// Designs an FIR filter matching an arbitrary magnitude response specified on a
    /// uniform frequency grid from DC to Nyquist (frequency-sampling method).
    ///
    /// `magnitudes[k]` is the desired linear gain at `k / (magnitudes.len()-1) * fs/2`.
    /// This is the routine used to fit the asphalt-reflection and air-absorption
    /// responses in the road simulator.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than two magnitude points are given or `taps` is zero
    /// or even.
    pub fn from_magnitude_response(taps: usize, magnitudes: &[f64]) -> Result<Vec<f64>, DspError> {
        if taps == 0 || taps.is_multiple_of(2) {
            return Err(DspError::InvalidSize {
                name: "taps",
                value: taps,
                constraint: "must be odd and non-zero",
            });
        }
        if magnitudes.len() < 2 {
            return Err(DspError::InvalidSize {
                name: "magnitudes",
                value: magnitudes.len(),
                constraint: "must contain at least two grid points",
            });
        }
        let m = (taps - 1) / 2;
        let grid = magnitudes.len();
        let window = Window::new(WindowKind::Hamming, taps);
        // Inverse DTFT of the (zero-phase) desired response via numerical integration
        // over the grid, then apply a Hamming window and delay by m for causality.
        let mut h = vec![0.0; taps];
        for (n, hv) in h.iter_mut().enumerate() {
            let t = n as f64 - m as f64;
            let mut acc = 0.0;
            for (k, &mag) in magnitudes.iter().enumerate() {
                let omega = PI * k as f64 / (grid - 1) as f64;
                // Trapezoid weights at the interval ends.
                let w = if k == 0 || k == grid - 1 { 0.5 } else { 1.0 };
                acc += w * mag * (omega * t).cos();
            }
            *hv = acc / (grid - 1) as f64 * window.coefficients()[n];
        }
        Ok(h)
    }

    fn validate(taps: usize, cutoff_hz: f64, fs: f64) -> Result<(), DspError> {
        if taps == 0 || taps.is_multiple_of(2) {
            return Err(DspError::InvalidSize {
                name: "taps",
                value: taps,
                constraint: "must be odd and non-zero",
            });
        }
        if !(cutoff_hz > 0.0 && cutoff_hz < fs / 2.0) {
            return Err(DspError::invalid_parameter(
                "cutoff_hz",
                format!("must be in (0, fs/2) = (0, {}), got {cutoff_hz}", fs / 2.0),
            ));
        }
        Ok(())
    }
}

/// A stateful FIR filter for streaming (sample-by-sample or block) processing.
///
/// # Example
///
/// ```
/// use ispot_dsp::fir::{FirDesign, FirFilter};
///
/// # fn main() -> Result<(), ispot_dsp::DspError> {
/// let coeffs = FirDesign::lowpass(31, 1000.0, 16_000.0)?;
/// let mut filter = FirFilter::new(coeffs)?;
/// let out = filter.process_block(&[1.0, 0.0, 0.0, 0.0]);
/// assert_eq!(out.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FirFilter {
    coefficients: Vec<f64>,
    state: Vec<f64>,
    position: usize,
}

impl FirFilter {
    /// Creates a filter from its impulse-response coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidSize`] if `coefficients` is empty.
    pub fn new(coefficients: Vec<f64>) -> Result<Self, DspError> {
        if coefficients.is_empty() {
            return Err(DspError::InvalidSize {
                name: "coefficients",
                value: 0,
                constraint: "must contain at least one tap",
            });
        }
        let len = coefficients.len();
        Ok(FirFilter {
            coefficients,
            state: vec![0.0; len],
            position: 0,
        })
    }

    /// Returns the filter coefficients.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Returns the number of taps.
    pub fn len(&self) -> usize {
        self.coefficients.len()
    }

    /// Returns true if the filter has no taps (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.coefficients.is_empty()
    }

    /// Resets the internal state to silence.
    pub fn reset(&mut self) {
        self.state.fill(0.0);
        self.position = 0;
    }

    /// Filters a single sample.
    pub fn process(&mut self, input: f64) -> f64 {
        let n = self.coefficients.len();
        self.state[self.position] = input;
        let mut acc = 0.0;
        let mut idx = self.position;
        for &c in &self.coefficients {
            acc += c * self.state[idx];
            idx = if idx == 0 { n - 1 } else { idx - 1 };
        }
        self.position = (self.position + 1) % n;
        acc
    }

    /// Filters a block of samples.
    pub fn process_block(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.process(x)).collect()
    }

    /// Evaluates the filter's complex frequency response at `freq_hz` for sampling rate
    /// `fs`, returning `(magnitude, phase)`.
    pub fn frequency_response(&self, freq_hz: f64, fs: f64) -> (f64, f64) {
        let omega = 2.0 * PI * freq_hz / fs;
        let (mut re, mut im) = (0.0, 0.0);
        for (n, &c) in self.coefficients.iter().enumerate() {
            re += c * (omega * n as f64).cos();
            im -= c * (omega * n as f64).sin();
        }
        ((re * re + im * im).sqrt(), im.atan2(re))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowpass_passes_dc_and_attenuates_high_frequency() {
        let fs = 16_000.0;
        let h = FirDesign::lowpass(63, 1000.0, fs).unwrap();
        let f = FirFilter::new(h).unwrap();
        let (dc_gain, _) = f.frequency_response(0.0, fs);
        let (hf_gain, _) = f.frequency_response(5000.0, fs);
        assert!((dc_gain - 1.0).abs() < 1e-6);
        assert!(hf_gain < 0.01, "stop-band gain {hf_gain}");
    }

    #[test]
    fn highpass_blocks_dc() {
        let fs = 16_000.0;
        let h = FirDesign::highpass(63, 2000.0, fs).unwrap();
        let f = FirFilter::new(h).unwrap();
        let (dc_gain, _) = f.frequency_response(0.0, fs);
        let (hf_gain, _) = f.frequency_response(6000.0, fs);
        assert!(dc_gain < 0.01, "dc gain {dc_gain}");
        assert!((hf_gain - 1.0).abs() < 0.05, "pass-band gain {hf_gain}");
    }

    #[test]
    fn bandpass_selects_band() {
        let fs = 16_000.0;
        let h = FirDesign::bandpass(127, 500.0, 1500.0, fs).unwrap();
        let f = FirFilter::new(h).unwrap();
        let (in_band, _) = f.frequency_response(1000.0, fs);
        let (below, _) = f.frequency_response(100.0, fs);
        let (above, _) = f.frequency_response(4000.0, fs);
        assert!(in_band > 0.9);
        assert!(below < 0.05);
        assert!(above < 0.05);
    }

    #[test]
    fn impulse_response_equals_coefficients() {
        let coeffs = vec![0.5, -0.25, 0.125, 1.0];
        let mut f = FirFilter::new(coeffs.clone()).unwrap();
        let mut impulse = vec![0.0; coeffs.len()];
        impulse[0] = 1.0;
        let out = f.process_block(&impulse);
        for (a, b) in out.iter().zip(&coeffs) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn from_magnitude_response_approximates_target() {
        // Target: gentle high-shelf attenuation, similar to an air-absorption curve.
        let grid: Vec<f64> = (0..64).map(|k| 1.0 - 0.6 * k as f64 / 63.0).collect();
        let h = FirDesign::from_magnitude_response(101, &grid).unwrap();
        let f = FirFilter::new(h).unwrap();
        let fs = 16_000.0;
        let (g_low, _) = f.frequency_response(200.0, fs);
        let (g_high, _) = f.frequency_response(7500.0, fs);
        assert!((g_low - 1.0).abs() < 0.1, "low gain {g_low}");
        assert!((g_high - 0.4).abs() < 0.1, "high gain {g_high}");
    }

    #[test]
    fn invalid_designs_are_rejected() {
        assert!(FirDesign::lowpass(0, 100.0, 1000.0).is_err());
        assert!(FirDesign::lowpass(10, 100.0, 1000.0).is_err());
        assert!(FirDesign::lowpass(11, 600.0, 1000.0).is_err());
        assert!(FirDesign::bandpass(11, 400.0, 300.0, 1000.0).is_err());
        assert!(FirDesign::from_magnitude_response(11, &[1.0]).is_err());
        assert!(FirFilter::new(vec![]).is_err());
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut f = FirFilter::new(vec![1.0, 1.0, 1.0]).unwrap();
        f.process(1.0);
        f.reset();
        assert_eq!(f.process(0.0), 0.0);
    }
}
