//! Biquad (second-order IIR) filters and standard audio designs.
//!
//! Biquads are used by the siren/horn synthesisers and by the park-mode trigger to
//! cheaply shape spectra without full FIR convolutions.

use crate::error::DspError;
use std::f64::consts::PI;

/// Normalized biquad coefficients (`a0` already divided out).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiquadCoefficients {
    /// Feed-forward coefficient b0.
    pub b0: f64,
    /// Feed-forward coefficient b1.
    pub b1: f64,
    /// Feed-forward coefficient b2.
    pub b2: f64,
    /// Feedback coefficient a1.
    pub a1: f64,
    /// Feedback coefficient a2.
    pub a2: f64,
}

/// Standard biquad designs (RBJ audio-EQ cookbook formulas).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BiquadDesign {
    /// Low-pass with cutoff `freq_hz` and quality factor `q`.
    Lowpass {
        /// Cutoff frequency in Hz.
        freq_hz: f64,
        /// Quality factor.
        q: f64,
    },
    /// High-pass with cutoff `freq_hz` and quality factor `q`.
    Highpass {
        /// Cutoff frequency in Hz.
        freq_hz: f64,
        /// Quality factor.
        q: f64,
    },
    /// Band-pass (constant peak gain) centred on `freq_hz`.
    Bandpass {
        /// Centre frequency in Hz.
        freq_hz: f64,
        /// Quality factor.
        q: f64,
    },
    /// Notch centred on `freq_hz`.
    Notch {
        /// Centre frequency in Hz.
        freq_hz: f64,
        /// Quality factor.
        q: f64,
    },
    /// Peaking EQ centred on `freq_hz` with gain `gain_db`.
    Peak {
        /// Centre frequency in Hz.
        freq_hz: f64,
        /// Quality factor.
        q: f64,
        /// Peak gain in dB.
        gain_db: f64,
    },
}

impl BiquadDesign {
    /// Computes the normalized coefficients for sampling rate `fs`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if the frequency is outside `(0, fs/2)`
    /// or `q` is not positive.
    pub fn coefficients(self, fs: f64) -> Result<BiquadCoefficients, DspError> {
        let (freq, q) = match self {
            BiquadDesign::Lowpass { freq_hz, q }
            | BiquadDesign::Highpass { freq_hz, q }
            | BiquadDesign::Bandpass { freq_hz, q }
            | BiquadDesign::Notch { freq_hz, q }
            | BiquadDesign::Peak { freq_hz, q, .. } => (freq_hz, q),
        };
        if !(freq > 0.0 && freq < fs / 2.0) {
            return Err(DspError::invalid_parameter(
                "freq_hz",
                format!("must be in (0, fs/2), got {freq}"),
            ));
        }
        if q <= 0.0 {
            return Err(DspError::invalid_parameter("q", "must be positive"));
        }
        let w0 = 2.0 * PI * freq / fs;
        let alpha = w0.sin() / (2.0 * q);
        let cosw = w0.cos();
        let (b0, b1, b2, a0, a1, a2) = match self {
            BiquadDesign::Lowpass { .. } => {
                let b1 = 1.0 - cosw;
                (
                    b1 / 2.0,
                    b1,
                    b1 / 2.0,
                    1.0 + alpha,
                    -2.0 * cosw,
                    1.0 - alpha,
                )
            }
            BiquadDesign::Highpass { .. } => {
                let b1 = -(1.0 + cosw);
                (
                    (1.0 + cosw) / 2.0,
                    b1,
                    (1.0 + cosw) / 2.0,
                    1.0 + alpha,
                    -2.0 * cosw,
                    1.0 - alpha,
                )
            }
            BiquadDesign::Bandpass { .. } => {
                (alpha, 0.0, -alpha, 1.0 + alpha, -2.0 * cosw, 1.0 - alpha)
            }
            BiquadDesign::Notch { .. } => {
                (1.0, -2.0 * cosw, 1.0, 1.0 + alpha, -2.0 * cosw, 1.0 - alpha)
            }
            BiquadDesign::Peak { gain_db, .. } => {
                let a = 10f64.powf(gain_db / 40.0);
                (
                    1.0 + alpha * a,
                    -2.0 * cosw,
                    1.0 - alpha * a,
                    1.0 + alpha / a,
                    -2.0 * cosw,
                    1.0 - alpha / a,
                )
            }
        };
        Ok(BiquadCoefficients {
            b0: b0 / a0,
            b1: b1 / a0,
            b2: b2 / a0,
            a1: a1 / a0,
            a2: a2 / a0,
        })
    }
}

/// A single biquad section (transposed direct-form II).
///
/// # Example
///
/// ```
/// use ispot_dsp::biquad::{Biquad, BiquadDesign};
///
/// # fn main() -> Result<(), ispot_dsp::DspError> {
/// let mut lp = Biquad::design(BiquadDesign::Lowpass { freq_hz: 500.0, q: 0.707 }, 16_000.0)?;
/// let out = lp.process_block(&[1.0, 0.0, 0.0]);
/// assert_eq!(out.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Biquad {
    coeffs: BiquadCoefficients,
    z1: f64,
    z2: f64,
}

impl Biquad {
    /// Creates a biquad from explicit normalized coefficients.
    pub fn new(coeffs: BiquadCoefficients) -> Self {
        Biquad {
            coeffs,
            z1: 0.0,
            z2: 0.0,
        }
    }

    /// Creates a biquad from a [`BiquadDesign`] at sampling rate `fs`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`BiquadDesign::coefficients`].
    pub fn design(design: BiquadDesign, fs: f64) -> Result<Self, DspError> {
        Ok(Self::new(design.coefficients(fs)?))
    }

    /// Returns the coefficients.
    pub fn coefficients(&self) -> BiquadCoefficients {
        self.coeffs
    }

    /// Resets the state.
    pub fn reset(&mut self) {
        self.z1 = 0.0;
        self.z2 = 0.0;
    }

    /// Filters one sample.
    #[inline]
    pub fn process(&mut self, x: f64) -> f64 {
        let y = self.coeffs.b0 * x + self.z1;
        self.z1 = self.coeffs.b1 * x - self.coeffs.a1 * y + self.z2;
        self.z2 = self.coeffs.b2 * x - self.coeffs.a2 * y;
        y
    }

    /// Filters a block of samples.
    pub fn process_block(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.process(x)).collect()
    }

    /// Evaluates the magnitude response at `freq_hz` for sampling rate `fs`.
    pub fn magnitude_at(&self, freq_hz: f64, fs: f64) -> f64 {
        let w = 2.0 * PI * freq_hz / fs;
        let (c1, s1) = (w.cos(), w.sin());
        let (c2, s2) = ((2.0 * w).cos(), (2.0 * w).sin());
        let num_re = self.coeffs.b0 + self.coeffs.b1 * c1 + self.coeffs.b2 * c2;
        let num_im = -(self.coeffs.b1 * s1 + self.coeffs.b2 * s2);
        let den_re = 1.0 + self.coeffs.a1 * c1 + self.coeffs.a2 * c2;
        let den_im = -(self.coeffs.a1 * s1 + self.coeffs.a2 * s2);
        ((num_re * num_re + num_im * num_im) / (den_re * den_re + den_im * den_im)).sqrt()
    }
}

/// A cascade of biquad sections applied in series.
#[derive(Debug, Clone, Default)]
pub struct BiquadCascade {
    sections: Vec<Biquad>,
}

impl BiquadCascade {
    /// Creates an empty cascade (identity filter).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section to the cascade.
    pub fn push(&mut self, section: Biquad) {
        self.sections.push(section);
    }

    /// Returns the number of sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// Returns true if the cascade has no sections.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Resets all sections.
    pub fn reset(&mut self) {
        for s in &mut self.sections {
            s.reset();
        }
    }

    /// Filters one sample through every section in series.
    pub fn process(&mut self, x: f64) -> f64 {
        self.sections.iter_mut().fold(x, |acc, s| s.process(acc))
    }

    /// Filters a block of samples.
    pub fn process_block(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.process(x)).collect()
    }
}

impl FromIterator<Biquad> for BiquadCascade {
    fn from_iter<T: IntoIterator<Item = Biquad>>(iter: T) -> Self {
        BiquadCascade {
            sections: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowpass_attenuates_high_frequencies() {
        let fs = 16_000.0;
        let lp = Biquad::design(
            BiquadDesign::Lowpass {
                freq_hz: 500.0,
                q: 0.707,
            },
            fs,
        )
        .unwrap();
        assert!(lp.magnitude_at(50.0, fs) > 0.99);
        assert!(lp.magnitude_at(4000.0, fs) < 0.05);
    }

    #[test]
    fn highpass_attenuates_low_frequencies() {
        let fs = 16_000.0;
        let hp = Biquad::design(
            BiquadDesign::Highpass {
                freq_hz: 2000.0,
                q: 0.707,
            },
            fs,
        )
        .unwrap();
        assert!(hp.magnitude_at(100.0, fs) < 0.01);
        assert!(hp.magnitude_at(7000.0, fs) > 0.95);
    }

    #[test]
    fn notch_removes_centre_frequency() {
        let fs = 16_000.0;
        let n = Biquad::design(
            BiquadDesign::Notch {
                freq_hz: 1000.0,
                q: 5.0,
            },
            fs,
        )
        .unwrap();
        assert!(n.magnitude_at(1000.0, fs) < 1e-6);
        assert!(n.magnitude_at(100.0, fs) > 0.95);
    }

    #[test]
    fn peak_boosts_centre_frequency() {
        let fs = 16_000.0;
        let p = Biquad::design(
            BiquadDesign::Peak {
                freq_hz: 1000.0,
                q: 2.0,
                gain_db: 12.0,
            },
            fs,
        )
        .unwrap();
        let g = p.magnitude_at(1000.0, fs);
        assert!((20.0 * g.log10() - 12.0).abs() < 0.5);
    }

    #[test]
    fn time_domain_sine_attenuation_matches_frequency_response() {
        let fs = 8000.0;
        let mut lp = Biquad::design(
            BiquadDesign::Lowpass {
                freq_hz: 400.0,
                q: 0.707,
            },
            fs,
        )
        .unwrap();
        let f0 = 2000.0;
        let x: Vec<f64> = (0..4000)
            .map(|n| (2.0 * PI * f0 * n as f64 / fs).sin())
            .collect();
        let y = lp.process_block(&x);
        let in_rms = (x[2000..].iter().map(|v| v * v).sum::<f64>() / 2000.0).sqrt();
        let out_rms = (y[2000..].iter().map(|v| v * v).sum::<f64>() / 2000.0).sqrt();
        let expected = lp.magnitude_at(f0, fs);
        assert!(((out_rms / in_rms) - expected).abs() < 0.01);
    }

    #[test]
    fn cascade_is_product_of_sections() {
        let fs = 16_000.0;
        let d = BiquadDesign::Lowpass {
            freq_hz: 1000.0,
            q: 0.707,
        };
        let single = Biquad::design(d, fs).unwrap();
        let cascade: BiquadCascade = (0..2).map(|_| Biquad::design(d, fs).unwrap()).collect();
        assert_eq!(cascade.len(), 2);
        let single_gain = single.magnitude_at(3000.0, fs);
        // Empirically verify by filtering a sine through the cascade.
        let mut cascade = cascade;
        let x: Vec<f64> = (0..8000)
            .map(|n| (2.0 * PI * 3000.0 * n as f64 / fs).sin())
            .collect();
        let y = cascade.process_block(&x);
        let out_rms = (y[4000..].iter().map(|v| v * v).sum::<f64>() / 4000.0).sqrt();
        let in_rms = (x[4000..].iter().map(|v| v * v).sum::<f64>() / 4000.0).sqrt();
        assert!(((out_rms / in_rms) - single_gain * single_gain).abs() < 0.01);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let fs = 8000.0;
        assert!(Biquad::design(
            BiquadDesign::Lowpass {
                freq_hz: 5000.0,
                q: 0.7
            },
            fs
        )
        .is_err());
        assert!(Biquad::design(
            BiquadDesign::Lowpass {
                freq_hz: 100.0,
                q: 0.0
            },
            fs
        )
        .is_err());
    }
}
