//! Asphalt reflection model.
//!
//! The road surface reflection in pyroadacoustics is modelled with an FIR filter whose
//! magnitude follows the (frequency-dependent) reflection coefficient of the asphalt
//! mixture (Fig. 2, the `H_refl` block). Dense asphalt reflects most energy with a mild
//! high-frequency roll-off; porous ("open-graded") asphalt absorbs considerably more
//! around its characteristic absorption peak.

use crate::error::RoadSimError;
use ispot_dsp::fir::{FirDesign, FirFilter};

/// A parametric model of the asphalt surface's acoustic reflection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsphaltModel {
    /// Reflection coefficient magnitude at low frequency (0–1).
    pub low_freq_reflection: f64,
    /// Reflection coefficient magnitude at `reference_freq_hz` (0–1).
    pub high_freq_reflection: f64,
    /// Frequency (Hz) at which `high_freq_reflection` is reached.
    pub reference_freq_hz: f64,
    /// Centre frequency (Hz) of the absorption dip typical of porous asphalt; `None`
    /// for dense mixtures.
    pub absorption_peak_hz: Option<f64>,
    /// Depth of the absorption dip (0 = none, 1 = total absorption at the peak).
    pub absorption_peak_depth: f64,
}

impl Default for AsphaltModel {
    fn default() -> Self {
        Self::dense()
    }
}

impl AsphaltModel {
    /// Dense-graded asphalt: strongly reflective with a mild high-frequency roll-off.
    pub fn dense() -> Self {
        AsphaltModel {
            low_freq_reflection: 0.95,
            high_freq_reflection: 0.85,
            reference_freq_hz: 8000.0,
            absorption_peak_hz: None,
            absorption_peak_depth: 0.0,
        }
    }

    /// Porous (open-graded) asphalt: a pronounced absorption dip around 800 Hz.
    pub fn porous() -> Self {
        AsphaltModel {
            low_freq_reflection: 0.9,
            high_freq_reflection: 0.7,
            reference_freq_hz: 8000.0,
            absorption_peak_hz: Some(800.0),
            absorption_peak_depth: 0.6,
        }
    }

    /// Creates a custom asphalt model.
    ///
    /// # Errors
    ///
    /// Returns an error if any reflection magnitude is outside `[0, 1]` or the
    /// reference frequency is not positive.
    pub fn custom(
        low_freq_reflection: f64,
        high_freq_reflection: f64,
        reference_freq_hz: f64,
    ) -> Result<Self, RoadSimError> {
        for (name, v) in [
            ("low_freq_reflection", low_freq_reflection),
            ("high_freq_reflection", high_freq_reflection),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(RoadSimError::invalid_parameter(
                    name,
                    format!("must be within [0, 1], got {v}"),
                ));
            }
        }
        if reference_freq_hz <= 0.0 {
            return Err(RoadSimError::invalid_parameter(
                "reference_freq_hz",
                "must be positive",
            ));
        }
        Ok(AsphaltModel {
            low_freq_reflection,
            high_freq_reflection,
            reference_freq_hz,
            absorption_peak_hz: None,
            absorption_peak_depth: 0.0,
        })
    }

    /// Reflection coefficient magnitude at `freq_hz` (linear, 0–1).
    pub fn reflection_at(&self, freq_hz: f64) -> f64 {
        let f = freq_hz.max(0.0);
        let t = (f / self.reference_freq_hz).clamp(0.0, 1.0);
        let mut r =
            self.low_freq_reflection + (self.high_freq_reflection - self.low_freq_reflection) * t;
        if let Some(fc) = self.absorption_peak_hz {
            // Gaussian absorption dip one octave wide around fc.
            let bw = fc * 0.7;
            let dip = self.absorption_peak_depth * (-(f - fc) * (f - fc) / (2.0 * bw * bw)).exp();
            r *= 1.0 - dip;
        }
        r.clamp(0.0, 1.0)
    }

    /// Linear magnitude response sampled on `grid_points` frequencies from DC to
    /// `fs/2`, suitable for FIR design.
    pub fn magnitude_grid(&self, fs: f64, grid_points: usize) -> Vec<f64> {
        (0..grid_points)
            .map(|k| {
                let f = k as f64 / (grid_points.max(2) - 1) as f64 * fs / 2.0;
                self.reflection_at(f)
            })
            .collect()
    }

    /// Designs the asphalt reflection FIR filter at sampling rate `fs`.
    ///
    /// # Errors
    ///
    /// Returns an error if `taps` is invalid (must be odd and non-zero).
    pub fn reflection_filter(&self, fs: f64, taps: usize) -> Result<FirFilter, RoadSimError> {
        let grid = self.magnitude_grid(fs, 128);
        let coeffs = FirDesign::from_magnitude_response(taps, &grid)?;
        Ok(FirFilter::new(coeffs)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_asphalt_reflects_most_energy() {
        let a = AsphaltModel::dense();
        for f in [100.0, 1000.0, 4000.0, 8000.0] {
            assert!(a.reflection_at(f) > 0.8);
        }
    }

    #[test]
    fn porous_asphalt_has_absorption_dip() {
        let p = AsphaltModel::porous();
        let at_peak = p.reflection_at(800.0);
        let away = p.reflection_at(4000.0);
        assert!(at_peak < 0.5, "reflection at dip {at_peak}");
        assert!(away > at_peak);
    }

    #[test]
    fn reflection_is_bounded() {
        for model in [AsphaltModel::dense(), AsphaltModel::porous()] {
            for f in (0..100).map(|k| k as f64 * 100.0) {
                let r = model.reflection_at(f);
                assert!((0.0..=1.0).contains(&r));
            }
        }
    }

    #[test]
    fn filter_matches_model_magnitude() {
        let fs = 16_000.0;
        let model = AsphaltModel::dense();
        let filt = model.reflection_filter(fs, 101).unwrap();
        for f in [500.0, 2000.0, 6000.0] {
            let (g, _) = filt.frequency_response(f, fs);
            assert!(
                (g - model.reflection_at(f)).abs() < 0.08,
                "at {f} Hz: filter {g} vs model {}",
                model.reflection_at(f)
            );
        }
    }

    #[test]
    fn custom_model_validation() {
        assert!(AsphaltModel::custom(1.5, 0.5, 8000.0).is_err());
        assert!(AsphaltModel::custom(0.9, -0.1, 8000.0).is_err());
        assert!(AsphaltModel::custom(0.9, 0.8, 0.0).is_err());
        assert!(AsphaltModel::custom(0.9, 0.8, 8000.0).is_ok());
    }
}
