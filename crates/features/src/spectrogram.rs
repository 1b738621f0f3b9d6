//! Power / magnitude / log spectrogram extraction.

use crate::error::FeatureError;
use crate::matrix::FeatureMatrix;
use ispot_dsp::stft::{Stft, StftBuilder, StftScratch};
use ispot_dsp::window::WindowKind;

/// Amplitude scaling of the spectrogram values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpectrogramScale {
    /// Squared magnitude.
    #[default]
    Power,
    /// Magnitude.
    Magnitude,
    /// Natural log of the power (with a small floor).
    LogPower,
    /// Decibels relative to the maximum bin (`10*log10`, floored at −100 dB).
    Decibel,
}

/// Configuration of the [`SpectrogramExtractor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrogramConfig {
    /// Analysis frame length in samples.
    pub frame_len: usize,
    /// Hop between frames in samples.
    pub hop: usize,
    /// FFT size (zero-padded if larger than the frame).
    pub fft_size: usize,
    /// Analysis window.
    pub window: WindowKind,
    /// Output amplitude scaling.
    pub scale: SpectrogramScale,
}

impl Default for SpectrogramConfig {
    fn default() -> Self {
        SpectrogramConfig {
            frame_len: 512,
            hop: 256,
            fft_size: 512,
            window: WindowKind::Hann,
            scale: SpectrogramScale::Power,
        }
    }
}

/// Computes time–frequency spectrograms from mono signals.
///
/// # Example
///
/// ```
/// use ispot_features::spectrogram::{SpectrogramConfig, SpectrogramExtractor};
///
/// # fn main() -> Result<(), ispot_features::FeatureError> {
/// let extractor = SpectrogramExtractor::new(SpectrogramConfig::default())?;
/// let signal: Vec<f64> = ispot_dsp::generator::Sine::new(440.0, 16_000.0).take(4096).collect();
/// let spec = extractor.compute(&signal)?;
/// assert_eq!(spec.num_cols(), 257);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SpectrogramExtractor {
    config: SpectrogramConfig,
    stft: Stft,
}

impl SpectrogramExtractor {
    /// Creates an extractor from its configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the STFT configuration is invalid.
    pub fn new(config: SpectrogramConfig) -> Result<Self, FeatureError> {
        let stft = StftBuilder::new(config.frame_len)
            .hop(config.hop)
            .fft_size(config.fft_size)
            .window(config.window)
            .build()?;
        Ok(SpectrogramExtractor { config, stft })
    }

    /// Returns the configuration.
    pub fn config(&self) -> SpectrogramConfig {
        self.config
    }

    /// Returns the number of frequency bins per frame.
    pub fn num_bins(&self) -> usize {
        self.stft.num_bins()
    }

    /// Returns the number of frames produced for a signal of `len` samples.
    pub fn frames_for(&self, len: usize) -> usize {
        self.stft.frames_for(len)
    }

    /// Computes the power spectrogram (frames × bins) of `signal` with the configured
    /// scaling.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::SignalTooShort`] if the signal is shorter than one
    /// analysis frame.
    pub fn compute(&self, signal: &[f64]) -> Result<FeatureMatrix, FeatureError> {
        if signal.len() < self.config.frame_len {
            return Err(FeatureError::SignalTooShort {
                required: self.config.frame_len,
                actual: signal.len(),
            });
        }
        let spec = self.stft.process(signal);
        let mut rows: Vec<Vec<f64>> = spec.power();
        match self.config.scale {
            SpectrogramScale::Power => {}
            SpectrogramScale::Magnitude => {
                for row in &mut rows {
                    for v in row.iter_mut() {
                        *v = v.sqrt();
                    }
                }
            }
            SpectrogramScale::LogPower => {
                for row in &mut rows {
                    for v in row.iter_mut() {
                        *v = (*v).max(1e-12).ln();
                    }
                }
            }
            SpectrogramScale::Decibel => {
                let max = rows
                    .iter()
                    .flat_map(|r| r.iter())
                    .cloned()
                    .fold(1e-12f64, f64::max);
                for row in &mut rows {
                    for v in row.iter_mut() {
                        *v = (10.0 * ((*v).max(1e-12) / max).log10()).max(-100.0);
                    }
                }
            }
        }
        Ok(FeatureMatrix::from_rows(rows))
    }

    /// Creates an [`StftScratch`] pre-sized for this extractor's analyser, for use
    /// with [`SpectrogramExtractor::power_frame_into`].
    pub fn make_stft_scratch(&self) -> StftScratch {
        self.stft.make_scratch()
    }

    /// Computes the power spectrum (`|X|^2`, independent of the configured scale)
    /// of **one** exactly-`frame_len` frame into `out`, using a caller-owned
    /// [`StftScratch`] as workspace.
    ///
    /// This is the streaming hook for per-frame classifiers: repeated calls with
    /// the same scratch and output buffer perform no heap allocation in steady
    /// state, and the bins are numerically identical to the corresponding row of
    /// [`SpectrogramExtractor::compute`] with [`SpectrogramScale::Power`].
    ///
    /// # Errors
    ///
    /// Returns an error if `frame.len()` differs from the configured frame length.
    pub fn power_frame_into(
        &self,
        frame: &[f64],
        scratch: &mut StftScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), FeatureError> {
        let spec = self.stft.frame_spectrum_into(frame, scratch)?;
        out.clear();
        out.extend(spec.iter().map(|c| c.norm_sqr()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispot_dsp::generator::Sine;

    #[test]
    fn power_frame_into_matches_batch_rows() {
        let fs = 16_000.0;
        let x: Vec<f64> = Sine::new(1500.0, fs).take(2048).collect();
        let ex = SpectrogramExtractor::new(SpectrogramConfig::default()).unwrap();
        let batch = ex.compute(&x).unwrap();
        let cfg = ex.config();
        let mut scratch = StftScratch::new();
        let mut row = Vec::new();
        for f in 0..batch.num_rows() {
            let frame = &x[f * cfg.hop..f * cfg.hop + cfg.frame_len];
            ex.power_frame_into(frame, &mut scratch, &mut row).unwrap();
            assert_eq!(row.as_slice(), batch.row(f), "frame {f}");
        }
        assert!(ex
            .power_frame_into(&x[..10], &mut scratch, &mut row)
            .is_err());
    }

    #[test]
    fn tone_concentrates_energy_in_one_column() {
        let fs = 16_000.0;
        let f0 = 2000.0;
        let x: Vec<f64> = Sine::new(f0, fs).take(8192).collect();
        let ex = SpectrogramExtractor::new(SpectrogramConfig::default()).unwrap();
        let m = ex.compute(&x).unwrap();
        let expected_bin = (f0 / fs * 512.0).round() as usize;
        for row in m.iter_rows() {
            let peak = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            assert_eq!(peak, expected_bin);
        }
    }

    #[test]
    fn scales_preserve_peak_location() {
        let x: Vec<f64> = Sine::new(1000.0, 16_000.0).take(4096).collect();
        for scale in [
            SpectrogramScale::Power,
            SpectrogramScale::Magnitude,
            SpectrogramScale::LogPower,
            SpectrogramScale::Decibel,
        ] {
            let cfg = SpectrogramConfig {
                scale,
                ..SpectrogramConfig::default()
            };
            let m = SpectrogramExtractor::new(cfg).unwrap().compute(&x).unwrap();
            let peak = m
                .row(0)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            assert_eq!(peak, 32);
        }
    }

    #[test]
    fn decibel_scale_is_bounded() {
        let x: Vec<f64> = Sine::new(500.0, 16_000.0).take(4096).collect();
        let cfg = SpectrogramConfig {
            scale: SpectrogramScale::Decibel,
            ..SpectrogramConfig::default()
        };
        let m = SpectrogramExtractor::new(cfg).unwrap().compute(&x).unwrap();
        for row in m.iter_rows() {
            for &v in row {
                assert!((-100.0..=0.0 + 1e-9).contains(&v));
            }
        }
    }

    #[test]
    fn too_short_signal_is_rejected() {
        let ex = SpectrogramExtractor::new(SpectrogramConfig::default()).unwrap();
        assert!(matches!(
            ex.compute(&[0.0; 100]),
            Err(FeatureError::SignalTooShort { .. })
        ));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = SpectrogramConfig {
            hop: 0,
            ..SpectrogramConfig::default()
        };
        assert!(SpectrogramExtractor::new(cfg).is_err());
    }
}
