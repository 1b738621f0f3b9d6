//! Analysis windows for framing and spectral estimation.

use crate::error::DspError;
use std::f64::consts::PI;

/// The supported window families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowKind {
    /// Rectangular (no weighting).
    Rectangular,
    /// Hann (raised cosine), the default for STFT analysis.
    Hann,
    /// Hamming window.
    Hamming,
    /// Blackman window.
    Blackman,
    /// Flat-top window, useful for amplitude-accurate tone measurement.
    FlatTop,
    /// Triangular (Bartlett) window.
    Triangular,
}

impl WindowKind {
    /// Evaluates the window function at sample `n` out of `len` (periodic form).
    fn sample(self, n: usize, len: usize) -> f64 {
        if len == 1 {
            return 1.0;
        }
        let x = n as f64 / len as f64;
        match self {
            WindowKind::Rectangular => 1.0,
            WindowKind::Hann => 0.5 - 0.5 * (2.0 * PI * x).cos(),
            WindowKind::Hamming => 0.54 - 0.46 * (2.0 * PI * x).cos(),
            WindowKind::Blackman => 0.42 - 0.5 * (2.0 * PI * x).cos() + 0.08 * (4.0 * PI * x).cos(),
            WindowKind::FlatTop => {
                0.21557895 - 0.41663158 * (2.0 * PI * x).cos() + 0.277263158 * (4.0 * PI * x).cos()
                    - 0.083578947 * (6.0 * PI * x).cos()
                    + 0.006947368 * (8.0 * PI * x).cos()
            }
            WindowKind::Triangular => {
                let half = len as f64 / 2.0;
                1.0 - ((n as f64 - half) / half).abs()
            }
        }
    }
}

/// A precomputed analysis window of a fixed length.
///
/// # Example
///
/// ```
/// use ispot_dsp::window::{Window, WindowKind};
///
/// let w = Window::new(WindowKind::Hann, 512);
/// assert_eq!(w.len(), 512);
/// // A Hann window is zero at the first sample and peaks in the middle.
/// assert!(w.coefficients()[0].abs() < 1e-12);
/// assert!((w.coefficients()[256] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    kind: WindowKind,
    coefficients: Vec<f64>,
}

impl Window {
    /// Creates a window of the given kind and length (periodic form).
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(kind: WindowKind, len: usize) -> Self {
        assert!(len > 0, "window length must be positive");
        let coefficients = (0..len).map(|n| kind.sample(n, len)).collect();
        Window { kind, coefficients }
    }

    /// Convenience constructor for a Hann window.
    pub fn hann(len: usize) -> Self {
        Self::new(WindowKind::Hann, len)
    }

    /// Convenience constructor for a Hamming window.
    pub fn hamming(len: usize) -> Self {
        Self::new(WindowKind::Hamming, len)
    }

    /// Convenience constructor for a rectangular window.
    pub fn rectangular(len: usize) -> Self {
        Self::new(WindowKind::Rectangular, len)
    }

    /// Convenience constructor for a Blackman window.
    pub fn blackman(len: usize) -> Self {
        Self::new(WindowKind::Blackman, len)
    }

    /// Returns the window length.
    pub fn len(&self) -> usize {
        self.coefficients.len()
    }

    /// Returns true if the window has zero length (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.coefficients.is_empty()
    }

    /// Returns the window family.
    pub fn kind(&self) -> WindowKind {
        self.kind
    }

    /// Returns the precomputed coefficients.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Multiplies `frame` by the window, returning a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `frame.len() != self.len()`.
    pub fn apply(&self, frame: &[f64]) -> Vec<f64> {
        assert_eq!(frame.len(), self.len(), "frame length must match window");
        frame
            .iter()
            .zip(&self.coefficients)
            .map(|(x, w)| x * w)
            .collect()
    }

    /// Multiplies `frame` by the window in place.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] if the lengths differ.
    pub fn apply_in_place(&self, frame: &mut [f64]) -> Result<(), DspError> {
        if frame.len() != self.len() {
            return Err(DspError::LengthMismatch {
                expected: self.len(),
                actual: frame.len(),
            });
        }
        for (x, w) in frame.iter_mut().zip(&self.coefficients) {
            *x *= w;
        }
        Ok(())
    }

    /// Returns the sum of coefficients (the "coherent gain" numerator), used to
    /// normalize amplitude spectra.
    pub fn coherent_gain(&self) -> f64 {
        self.coefficients.iter().sum::<f64>() / self.len() as f64
    }

    /// Returns the sum of squared coefficients, used to normalize power spectra.
    pub fn power_gain(&self) -> f64 {
        self.coefficients.iter().map(|w| w * w).sum::<f64>() / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hann_endpoints_and_peak() {
        let w = Window::hann(8);
        assert!(w.coefficients()[0].abs() < 1e-12);
        assert!((w.coefficients()[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rectangular_is_all_ones() {
        let w = Window::rectangular(16);
        assert!(w.coefficients().iter().all(|&c| (c - 1.0).abs() < 1e-15));
        assert!((w.coherent_gain() - 1.0).abs() < 1e-15);
        assert!((w.power_gain() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn hann_coherent_gain_is_half() {
        let w = Window::hann(1024);
        assert!((w.coherent_gain() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn apply_scales_frame() {
        let w = Window::hamming(4);
        let out = w.apply(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(out, w.coefficients().to_vec());
    }

    #[test]
    fn apply_in_place_rejects_wrong_length() {
        let w = Window::hann(8);
        let mut frame = vec![0.0; 4];
        assert!(w.apply_in_place(&mut frame).is_err());
    }

    #[test]
    fn all_kinds_are_bounded_by_unity_magnitude() {
        for kind in [
            WindowKind::Rectangular,
            WindowKind::Hann,
            WindowKind::Hamming,
            WindowKind::Blackman,
            WindowKind::Triangular,
        ] {
            let w = Window::new(kind, 64);
            assert!(w
                .coefficients()
                .iter()
                .all(|&c| (-1e-12..=1.0 + 1e-12).contains(&c)));
        }
    }

    #[test]
    fn length_one_window_is_unity() {
        for kind in [WindowKind::Hann, WindowKind::FlatTop] {
            let w = Window::new(kind, 1);
            assert_eq!(w.coefficients(), &[1.0]);
        }
    }
}
