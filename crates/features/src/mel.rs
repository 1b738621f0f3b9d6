//! Mel-frequency filterbank.

use crate::error::FeatureError;
use crate::matrix::FeatureMatrix;

/// Converts a frequency in Hz to the mel scale (HTK convention).
///
/// # Example
///
/// ```
/// use ispot_features::mel::{hz_to_mel, mel_to_hz};
/// let m = hz_to_mel(1000.0);
/// assert!((mel_to_hz(m) - 1000.0).abs() < 1e-9);
/// ```
pub fn hz_to_mel(hz: f64) -> f64 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Converts a mel value back to Hz.
pub fn mel_to_hz(mel: f64) -> f64 {
    700.0 * (10f64.powf(mel / 2595.0) - 1.0)
}

/// A triangular mel filterbank applied to power spectra.
///
/// Each band is stored over its support only: the first bin with a non-zero
/// weight and the weights up to the last non-zero one. At the detector's 32
/// bands × 257 bins that is 488 of 8,224 weights. The bins left out have
/// weight zero, so for a finite spectrum every band sum is bit-identical to
/// the sum over all bins.
#[derive(Debug, Clone, PartialEq)]
pub struct MelFilterbank {
    bands: Vec<MelBand>,
    num_bins: usize,
    sample_rate: f64,
    f_min: f64,
    f_max: f64,
}

/// One band's weights for bins `start..start + weights.len()`.
#[derive(Debug, Clone, PartialEq)]
struct MelBand {
    start: usize,
    weights: Vec<f64>,
}

impl MelFilterbank {
    /// Creates a filterbank with `num_bands` triangular filters covering
    /// `[f_min, f_max]` Hz, for power spectra with `num_bins` bins (i.e. `fft/2 + 1`) at
    /// sampling rate `fs`.
    ///
    /// # Errors
    ///
    /// Returns an error if `num_bands` or `num_bins` is zero, or the frequency range is
    /// invalid.
    pub fn new(
        num_bands: usize,
        num_bins: usize,
        fs: f64,
        f_min: f64,
        f_max: f64,
    ) -> Result<Self, FeatureError> {
        if num_bands == 0 {
            return Err(FeatureError::invalid_config(
                "num_bands",
                "must be positive",
            ));
        }
        if num_bins < 2 {
            return Err(FeatureError::invalid_config(
                "num_bins",
                "must be at least 2",
            ));
        }
        if !(0.0 <= f_min && f_min < f_max && f_max <= fs / 2.0 + 1e-9) {
            return Err(FeatureError::invalid_config(
                "f_min/f_max",
                format!("must satisfy 0 <= f_min < f_max <= fs/2, got [{f_min}, {f_max}]"),
            ));
        }
        let bands = dense_weights(num_bands, num_bins, fs, f_min, f_max)
            .into_iter()
            .map(|w| {
                let start = w.iter().position(|&x| x != 0.0).unwrap_or(0);
                let end = w
                    .iter()
                    .rposition(|&x| x != 0.0)
                    .map_or(start, |last| last + 1);
                MelBand {
                    start,
                    weights: w[start..end].to_vec(),
                }
            })
            .collect();
        Ok(MelFilterbank {
            bands,
            num_bins,
            sample_rate: fs,
            f_min,
            f_max,
        })
    }

    /// Number of mel bands.
    pub fn num_bands(&self) -> usize {
        self.bands.len()
    }

    /// Number of FFT bins this filterbank expects.
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Centre frequency (Hz) of band `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b >= self.num_bands()`.
    pub fn center_frequency(&self, b: usize) -> f64 {
        let mel_lo = hz_to_mel(self.f_min);
        let mel_hi = hz_to_mel(self.f_max);
        let n = self.num_bands();
        mel_to_hz(mel_lo + (mel_hi - mel_lo) * (b + 1) as f64 / (n + 1) as f64)
    }

    /// Applies the filterbank to a single power spectrum.
    ///
    /// # Errors
    ///
    /// Returns an error if the spectrum length does not match [`MelFilterbank::num_bins`].
    pub fn apply(&self, power_spectrum: &[f64]) -> Result<Vec<f64>, FeatureError> {
        let mut out = Vec::with_capacity(self.num_bands());
        self.apply_into(power_spectrum, &mut out)?;
        Ok(out)
    }

    /// Applies the filterbank to a single power spectrum, writing the band
    /// energies into `out` (resized to [`MelFilterbank::num_bands`]).
    ///
    /// Allocation-free in steady state (same `out` reused across calls) and
    /// numerically identical to [`MelFilterbank::apply`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`MelFilterbank::apply`].
    pub fn apply_into(
        &self,
        power_spectrum: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), FeatureError> {
        if power_spectrum.len() != self.num_bins {
            return Err(FeatureError::invalid_config(
                "power_spectrum",
                // analyze: allow(alloc) — rejection path: a wrong-length spectrum
                // is refused before any band is computed
                format!(
                    "expected {} bins, got {}",
                    self.num_bins,
                    power_spectrum.len()
                ),
            ));
        }
        // Fold from +0.0, not `Sum`'s -0.0: a band with no support must give
        // the +0.0 that the dense sum reached by adding zero-weight terms.
        out.clear();
        out.extend(self.bands.iter().map(|band| {
            band.weights
                .iter()
                .zip(&power_spectrum[band.start..])
                .fold(0.0, |acc, (w, p)| acc + w * p)
        }));
        Ok(())
    }

    /// Applies the filterbank to every row of a power spectrogram, producing a mel
    /// spectrogram (frames × bands).
    ///
    /// # Errors
    ///
    /// Returns an error if the spectrogram's column count does not match the expected
    /// number of FFT bins.
    pub fn apply_spectrogram(&self, power: &FeatureMatrix) -> Result<FeatureMatrix, FeatureError> {
        let rows: Result<Vec<Vec<f64>>, FeatureError> =
            power.iter_rows().map(|r| self.apply(r)).collect();
        Ok(FeatureMatrix::from_rows(rows?))
    }
}

/// The triangular weights of every band over all `num_bins` bins.
fn dense_weights(
    num_bands: usize,
    num_bins: usize,
    fs: f64,
    f_min: f64,
    f_max: f64,
) -> Vec<Vec<f64>> {
    let mel_lo = hz_to_mel(f_min);
    let mel_hi = hz_to_mel(f_max);
    // num_bands + 2 equally spaced mel points define the triangle edges.
    let mel_points: Vec<f64> = (0..num_bands + 2)
        .map(|i| mel_lo + (mel_hi - mel_lo) * i as f64 / (num_bands + 1) as f64)
        .collect();
    let hz_points: Vec<f64> = mel_points.iter().map(|&m| mel_to_hz(m)).collect();
    let bin_freq = |k: usize| k as f64 * fs / (2.0 * (num_bins - 1) as f64);
    (0..num_bands)
        .map(|b| {
            let (lo, mid, hi) = (hz_points[b], hz_points[b + 1], hz_points[b + 2]);
            let mut w = vec![0.0; num_bins];
            for (k, slot) in w.iter_mut().enumerate() {
                let f = bin_freq(k);
                if f >= lo && f <= mid && mid > lo {
                    *slot = (f - lo) / (mid - lo);
                } else if f > mid && f <= hi && hi > mid {
                    *slot = (hi - f) / (hi - mid);
                }
            }
            w
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mel_scale_is_monotonic_and_invertible() {
        let mut last = -1.0;
        for hz in [0.0, 100.0, 500.0, 1000.0, 4000.0, 8000.0] {
            let m = hz_to_mel(hz);
            assert!(m > last);
            last = m;
            assert!((mel_to_hz(m) - hz).abs() < 1e-6);
        }
    }

    #[test]
    fn filterbank_band_count_and_shape() {
        let fb = MelFilterbank::new(26, 257, 16_000.0, 0.0, 8000.0).unwrap();
        assert_eq!(fb.num_bands(), 26);
        assert_eq!(fb.num_bins(), 257);
        // Every band has non-negative weights and at least one positive weight.
        for b in 0..fb.num_bands() {
            let w = &fb.bands[b].weights;
            assert!(w.iter().all(|&x| x >= 0.0));
            assert!(w.iter().any(|&x| x > 0.0), "band {b} is empty");
        }
    }

    #[test]
    fn tone_energy_lands_in_band_containing_its_frequency() {
        let fs = 16_000.0;
        let num_bins = 257;
        let fb = MelFilterbank::new(26, num_bins, fs, 0.0, 8000.0).unwrap();
        // Build a synthetic power spectrum with all energy at 1 kHz.
        let bin = (1000.0 / fs * 2.0 * (num_bins as f64 - 1.0)).round() as usize;
        let mut spectrum = vec![0.0; num_bins];
        spectrum[bin] = 1.0;
        let bands = fb.apply(&spectrum).unwrap();
        let peak_band = bands
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let fc = fb.center_frequency(peak_band);
        assert!(
            (fc - 1000.0).abs() < 300.0,
            "peak band centre {fc} too far from 1 kHz"
        );
    }

    #[test]
    fn center_frequencies_increase() {
        let fb = MelFilterbank::new(12, 129, 16_000.0, 100.0, 8000.0).unwrap();
        let mut last = 0.0;
        for b in 0..fb.num_bands() {
            let fc = fb.center_frequency(b);
            assert!(fc > last);
            last = fc;
        }
    }

    #[test]
    fn invalid_configurations_rejected() {
        assert!(MelFilterbank::new(0, 129, 16_000.0, 0.0, 8000.0).is_err());
        assert!(MelFilterbank::new(26, 1, 16_000.0, 0.0, 8000.0).is_err());
        assert!(MelFilterbank::new(26, 129, 16_000.0, 5000.0, 4000.0).is_err());
        assert!(MelFilterbank::new(26, 129, 16_000.0, 0.0, 9000.0).is_err());
    }

    #[test]
    fn wrong_spectrum_length_rejected() {
        let fb = MelFilterbank::new(10, 65, 8000.0, 0.0, 4000.0).unwrap();
        assert!(fb.apply(&vec![0.0; 64]).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sparse bands give, bit for bit, the sum over every bin of the
        /// dense weights, for any finite non-negative spectrum.
        #[test]
        fn sparse_bands_match_the_dense_sum(
            config in 0usize..5,
            values in prop::collection::vec(0.0f64..1e3, 1025..1026),
            zeros in prop::collection::vec(0usize..1025, 0..256),
        ) {
            let (num_bands, num_bins, fs, f_min, f_max) = [
                (32, 257, 16_000.0, 50.0, 8_000.0),
                (32, 257, 11_025.0, 50.0, 5_512.5),
                (26, 129, 8_000.0, 0.0, 4_000.0),
                // Bands narrower than a bin: some have no support at all.
                (64, 65, 16_000.0, 0.0, 8_000.0),
                (40, 1025, 44_100.0, 300.0, 12_000.0),
            ][config];
            let mut spectrum = values[..num_bins].to_vec();
            for &z in &zeros {
                spectrum[z % num_bins] = 0.0;
            }
            let fb = MelFilterbank::new(num_bands, num_bins, fs, f_min, f_max).unwrap();
            let mut sparse = Vec::new();
            fb.apply_into(&spectrum, &mut sparse).unwrap();
            let dense = dense_weights(num_bands, num_bins, fs, f_min, f_max);
            for (b, w) in dense.iter().enumerate() {
                let reference = w.iter().zip(&spectrum).map(|(a, p)| a * p).sum::<f64>();
                prop_assert!(
                    sparse[b].to_bits() == reference.to_bits(),
                    "band {b}: sparse {} vs dense {reference}",
                    sparse[b]
                );
            }
        }
    }
}
