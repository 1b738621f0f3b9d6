//! Classical (non-neural) detection baselines.
//!
//! The paper motivates deep learning by its robustness to low SNR compared with
//! traditional signal processing (Sec. III). To reproduce that comparison, this module
//! provides two classical baselines:
//!
//! * [`EnergyDetector`] — binary event detection by thresholding the energy ratio in
//!   the siren/horn band (400–1800 Hz) against the full-band energy;
//! * [`SpectralTemplateDetector`] — multi-class nearest-template classification on
//!   time-averaged log-mel spectra built from clean synthesised prototypes.

use crate::error::SedError;
use crate::labels::EventClass;
use crate::noise::UrbanNoiseSynthesizer;
use crate::sirens::synthesize_event;
use ispot_dsp::stft::StftScratch;
use ispot_features::error::FeatureError;
use ispot_features::mel::MelFilterbank;
use ispot_features::spectrogram::{SpectrogramConfig, SpectrogramExtractor, SpectrogramScale};

/// Binary detector thresholding the band-energy ratio.
#[derive(Debug, Clone)]
pub struct EnergyDetector {
    spectrogram: SpectrogramExtractor,
    sample_rate: f64,
    band_low_hz: f64,
    band_high_hz: f64,
    threshold: f64,
}

impl EnergyDetector {
    /// Creates a detector for audio at `sample_rate` with the default siren band
    /// (400–1800 Hz) and a threshold of 0.5.
    ///
    /// # Errors
    ///
    /// Returns an error if the spectrogram configuration is invalid (never for the
    /// defaults).
    pub fn new(sample_rate: f64) -> Result<Self, SedError> {
        let spectrogram = SpectrogramExtractor::new(SpectrogramConfig {
            frame_len: 512,
            hop: 256,
            fft_size: 512,
            scale: SpectrogramScale::Power,
            ..SpectrogramConfig::default()
        })?;
        Ok(EnergyDetector {
            spectrogram,
            sample_rate,
            band_low_hz: 400.0,
            band_high_hz: 1800.0,
            threshold: 0.5,
        })
    }

    /// Overrides the detection band.
    pub fn with_band(mut self, low_hz: f64, high_hz: f64) -> Self {
        self.band_low_hz = low_hz;
        self.band_high_hz = high_hz.max(low_hz + 1.0);
        self
    }

    /// Overrides the decision threshold on the band-energy ratio (0–1).
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Returns the decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Computes the detection statistic: the fraction of spectral energy inside the
    /// siren/horn band, averaged over the loudest quarter of frames (sirens are
    /// intermittent, so peak frames carry the information).
    ///
    /// # Errors
    ///
    /// Returns an error if the clip is shorter than one analysis frame.
    pub fn band_energy_ratio(&self, audio: &[f64]) -> Result<f64, SedError> {
        let power = self.spectrogram.compute(audio)?;
        let bins = power.num_cols();
        let bin_hz = self.sample_rate / 2.0 / (bins as f64 - 1.0);
        let lo = (self.band_low_hz / bin_hz).floor() as usize;
        let hi = ((self.band_high_hz / bin_hz).ceil() as usize).min(bins - 1);
        let mut ratios: Vec<f64> = power
            .iter_rows()
            .map(|row| {
                let total: f64 = row.iter().sum();
                let band: f64 = row[lo..=hi].iter().sum();
                if total > 1e-15 {
                    band / total
                } else {
                    0.0
                }
            })
            .collect();
        ratios.sort_by(|a, b| b.total_cmp(a));
        let top = (ratios.len() / 4).max(1);
        Ok(ratios[..top].iter().sum::<f64>() / top as f64)
    }

    /// Returns true if an emergency event is detected in `audio`.
    ///
    /// # Errors
    ///
    /// Same as [`EnergyDetector::band_energy_ratio`].
    pub fn detect(&self, audio: &[f64]) -> Result<bool, SedError> {
        Ok(self.band_energy_ratio(audio)? > self.threshold)
    }
}

/// Reusable workspace for the allocation-free
/// [`SpectralTemplateDetector::predict_with_confidence_into`] path.
///
/// Besides the per-call buffers, the scratch keeps two things from its previous
/// call: the log-mel row of every 512-sample sub-frame and a copy of the clip.
/// Consecutive analysis frames of a stream overlap, so when the new clip starts
/// with the previous clip's samples from some whole sub-frame hop on, bit for
/// bit, the rows of those shared sub-frames are reused and only the new
/// sub-frames are computed. At the pipeline's 2048/1024 frames that is 4 of 7.
/// Rows are reused only from a call by a detector with the same sample rate,
/// and the check is on the samples, not on a stream position, since a caller
/// may pass any clip to any call. The features are bit-identical to a fresh
/// scratch's either way.
///
/// All buffers are sized lazily on first use (or, apart from the sub-frame
/// cache, pre-sized by [`SpectralTemplateDetector::make_scratch`]) and reused
/// afterwards; one scratch serves one stream. Since the detector itself is
/// immutable after construction, many concurrent streams can share one detector
/// (e.g. behind an `Arc`) while each holds its own scratch.
#[derive(Debug, Clone, Default)]
pub struct DetectorScratch {
    /// STFT workspace (windowed frame + complex spectrum).
    stft: StftScratch,
    /// Power spectrum of the current sub-frame.
    power: Vec<f64>,
    /// Mel band energies of the current sub-frame.
    mel: Vec<f64>,
    /// Accumulated (then normalized) mean log-mel feature vector.
    features: Vec<f64>,
    /// Log-mel row of every sub-frame of `prev` (`num_frames × num_bands`).
    rows: Vec<f64>,
    /// The clip `rows` were computed from; empty when `rows` pair with no clip.
    prev: Vec<f64>,
    /// Sample rate of the detector that computed `rows`.
    prev_rate: f64,
}

/// Multi-class nearest-template classifier on time-averaged log-mel spectra.
#[derive(Debug, Clone)]
pub struct SpectralTemplateDetector {
    spectrogram: SpectrogramExtractor,
    filterbank: MelFilterbank,
    sample_rate: f64,
    /// One template per [`EventClass`], indexed by class index.
    templates: Vec<Vec<f64>>,
}

impl SpectralTemplateDetector {
    /// Builds the detector for audio at `sample_rate`, deriving one template per class
    /// from clean synthesised prototypes (and from the noise synthesiser for the
    /// background class).
    ///
    /// # Errors
    ///
    /// Returns an error if feature extraction fails (never for the defaults).
    pub fn new(sample_rate: f64) -> Result<Self, SedError> {
        let spectrogram = SpectrogramExtractor::new(SpectrogramConfig {
            frame_len: 512,
            hop: 256,
            fft_size: 512,
            scale: SpectrogramScale::Power,
            ..SpectrogramConfig::default()
        })?;
        let filterbank = MelFilterbank::new(
            32,
            spectrogram.num_bins(),
            sample_rate,
            50.0,
            sample_rate / 2.0,
        )?;
        let mut detector = SpectralTemplateDetector {
            spectrogram,
            filterbank,
            sample_rate,
            templates: Vec::with_capacity(EventClass::COUNT),
        };
        for class in EventClass::ALL {
            let prototype = if class == EventClass::Background {
                UrbanNoiseSynthesizer::new(sample_rate, 12_345).synthesize(2.0)
            } else {
                synthesize_event(class, sample_rate, 2.0)
            };
            let mut scratch = DetectorScratch::default();
            detector.mean_log_mel_into(&prototype, &mut scratch)?;
            detector.templates.push(scratch.features);
        }
        Ok(detector)
    }

    /// Computes the normalized mean log-mel feature vector of `audio` into
    /// `scratch.features`: the log-mel rows of the 512-sample sub-frames, summed
    /// in sub-frame order from zero, then averaged and normalized. Rows shared
    /// with the scratch's previous clip are reused (see [`DetectorScratch`]);
    /// allocation-free in steady state.
    fn mean_log_mel_into(
        &self,
        audio: &[f64],
        scratch: &mut DetectorScratch,
    ) -> Result<(), SedError> {
        let config = self.spectrogram.config();
        if audio.len() < config.frame_len {
            return Err(FeatureError::SignalTooShort {
                required: config.frame_len,
                actual: audio.len(),
            }
            .into());
        }
        let num_frames = self.spectrogram.frames_for(audio.len());
        let num_bands = self.filterbank.num_bands();
        let DetectorScratch {
            stft,
            power,
            mel,
            features,
            rows,
            prev,
            prev_rate,
        } = scratch;
        // The smallest whole number of sub-frame hops `k` by which the clip
        // advanced over bit-equal samples: then sub-frame `f` is the previous
        // clip's sub-frame `f + k`.
        let shift = if *prev_rate == self.sample_rate && prev.len() == audio.len() {
            (1..num_frames).find(|&k| {
                prev[k * config.hop..]
                    .iter()
                    .zip(audio)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        } else {
            None
        };
        // Until every row is computed, the rows pair with no clip.
        prev.clear();
        let reused = match shift {
            Some(k) => {
                rows.copy_within(k * num_bands.., 0);
                num_frames - k
            }
            None => 0,
        };
        rows.resize(num_frames * num_bands, 0.0);
        for (f, row) in rows.chunks_exact_mut(num_bands).enumerate().skip(reused) {
            let start = f * config.hop;
            let frame = &audio[start..start + config.frame_len];
            self.spectrogram.power_frame_into(frame, stft, power)?;
            self.filterbank.apply_into(power, mel)?;
            for (r, &m) in row.iter_mut().zip(mel.iter()) {
                *r = m.max(1e-10).ln();
            }
        }
        prev.extend_from_slice(audio);
        *prev_rate = self.sample_rate;
        features.clear();
        features.resize(num_bands, 0.0);
        for row in rows.chunks_exact(num_bands) {
            for (acc, &r) in features.iter_mut().zip(row) {
                *acc += r;
            }
        }
        let mean = features;
        for v in mean.iter_mut() {
            *v /= num_frames as f64;
        }
        // Normalize to zero mean / unit norm so that the match is level-invariant.
        let mu = mean.iter().sum::<f64>() / mean.len() as f64;
        for v in mean.iter_mut() {
            *v -= mu;
        }
        let norm = mean.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
        for v in mean.iter_mut() {
            *v /= norm;
        }
        Ok(())
    }

    /// Classifies one audio clip by maximum cosine similarity against the class
    /// templates.
    ///
    /// # Errors
    ///
    /// Returns an error if the clip is shorter than one analysis frame.
    pub fn predict(&self, audio: &[f64]) -> Result<EventClass, SedError> {
        Ok(self.predict_with_confidence(audio)?.0)
    }

    /// Classifies one audio clip and also returns a confidence score in `[0, 1]`
    /// (the winning cosine similarity mapped from `[-1, 1]`).
    ///
    /// # Errors
    ///
    /// Returns an error if the clip is shorter than one analysis frame.
    pub fn predict_with_confidence(&self, audio: &[f64]) -> Result<(EventClass, f64), SedError> {
        let mut scratch = self.make_scratch();
        self.predict_with_confidence_into(audio, &mut scratch)
    }

    /// Creates a scratch pre-sized for this detector's spectra. The sub-frame
    /// cache is sized by the first
    /// [`SpectralTemplateDetector::predict_with_confidence_into`] call, so later
    /// calls on clips of that length allocate nothing.
    pub fn make_scratch(&self) -> DetectorScratch {
        let mut scratch = DetectorScratch {
            stft: self.spectrogram.make_stft_scratch(),
            power: Vec::with_capacity(self.spectrogram.num_bins()),
            mel: Vec::with_capacity(self.filterbank.num_bands()),
            features: Vec::with_capacity(self.filterbank.num_bands()),
            ..DetectorScratch::default()
        };
        scratch.power.resize(self.spectrogram.num_bins(), 0.0);
        scratch.mel.resize(self.filterbank.num_bands(), 0.0);
        scratch
    }

    /// Classifies one audio clip using caller-owned scratch memory — the real-time
    /// hot path of the perception pipeline.
    ///
    /// Identical results to
    /// [`predict_with_confidence`](Self::predict_with_confidence), but repeated
    /// calls with the same scratch perform **no heap allocation** in steady state.
    ///
    /// # Errors
    ///
    /// Returns an error if the clip is shorter than one analysis frame.
    pub fn predict_with_confidence_into(
        &self,
        audio: &[f64],
        scratch: &mut DetectorScratch,
    ) -> Result<(EventClass, f64), SedError> {
        self.mean_log_mel_into(audio, scratch)?;
        let features = &scratch.features;
        let mut best = EventClass::Background;
        let mut best_score = f64::NEG_INFINITY;
        for class in EventClass::ALL {
            let template = &self.templates[class.index()];
            let score: f64 = template.iter().zip(features).map(|(a, b)| a * b).sum();
            if score > best_score {
                best_score = score;
                best = class;
            }
        }
        Ok((best, ((best_score + 1.0) / 2.0).clamp(0.0, 1.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// The pre-refactor batch feature path (whole-matrix spectrogram + mel +
    /// column means), kept to pin the streaming scratch path against.
    fn reference_mean_log_mel(detector: &SpectralTemplateDetector, audio: &[f64]) -> Vec<f64> {
        let power = detector.spectrogram.compute(audio).unwrap();
        let mut mel = detector.filterbank.apply_spectrogram(&power).unwrap();
        mel.log_compress(1e-10);
        let mut mean = mel.column_means();
        let mu = mean.iter().sum::<f64>() / mean.len() as f64;
        for v in mean.iter_mut() {
            *v -= mu;
        }
        let norm = mean.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
        for v in mean.iter_mut() {
            *v /= norm;
        }
        mean
    }

    #[test]
    fn scratch_prediction_matches_the_batch_reference() {
        let fs = 16_000.0;
        let detector = SpectralTemplateDetector::new(fs).unwrap();
        let mut scratch = detector.make_scratch();
        for class in EventClass::ALL {
            let clip = if class == EventClass::Background {
                UrbanNoiseSynthesizer::new(fs, 7).synthesize(0.5)
            } else {
                synthesize_event(class, fs, 0.5)
            };
            let streaming = detector
                .predict_with_confidence_into(&clip, &mut scratch)
                .unwrap();
            assert_eq!(scratch.features, reference_mean_log_mel(&detector, &clip));
            assert_eq!(
                streaming,
                detector.predict_with_confidence(&clip).unwrap(),
                "class {class}"
            );
        }
        assert!(detector
            .predict_with_confidence_into(&[0.0; 16], &mut scratch)
            .is_err());
    }

    #[test]
    fn energy_detector_separates_clean_siren_from_noise() {
        let fs = 16_000.0;
        let det = EnergyDetector::new(fs).unwrap();
        let siren = synthesize_event(EventClass::WailSiren, fs, 1.0);
        let noise = UrbanNoiseSynthesizer::new(fs, 7).synthesize(1.0);
        let r_siren = det.band_energy_ratio(&siren).unwrap();
        let r_noise = det.band_energy_ratio(&noise).unwrap();
        assert!(r_siren > 0.8, "siren ratio {r_siren}");
        assert!(r_noise < 0.5, "noise ratio {r_noise}");
        assert!(det.detect(&siren).unwrap());
        assert!(!det.detect(&noise).unwrap());
    }

    #[test]
    fn template_detector_classifies_clean_prototypes_correctly() {
        let fs = 16_000.0;
        let det = SpectralTemplateDetector::new(fs).unwrap();
        for class in [
            EventClass::HiLowSiren,
            EventClass::CarHorn,
            EventClass::WailSiren,
        ] {
            let audio = synthesize_event(class, fs, 1.5);
            let predicted = det.predict(&audio).unwrap();
            // Wail and yelp share the same frequency band, so confusing them is
            // acceptable for this baseline; everything else must be exact.
            if class == EventClass::WailSiren {
                assert!(predicted == EventClass::WailSiren || predicted == EventClass::YelpSiren);
            } else {
                assert_eq!(predicted, class, "prototype for {class}");
            }
        }
    }

    #[test]
    fn errors_on_empty_or_too_short_input() {
        let fs = 16_000.0;
        let energy = EnergyDetector::new(fs).unwrap();
        assert!(energy.band_energy_ratio(&[0.0; 10]).is_err());
        let template = SpectralTemplateDetector::new(fs).unwrap();
        assert!(template.predict(&[0.0; 10]).is_err());
    }

    /// One detector for the scratch-reuse tests: building it dominates a
    /// debug-build test case.
    fn detector_16k() -> &'static SpectralTemplateDetector {
        static DETECTOR: OnceLock<SpectralTemplateDetector> = OnceLock::new();
        DETECTOR.get_or_init(|| SpectralTemplateDetector::new(16_000.0).unwrap())
    }

    /// One second of a wail over urban noise.
    fn wail_over_noise(fs: f64) -> Vec<f64> {
        let siren = synthesize_event(EventClass::WailSiren, fs, 1.0);
        let noise = UrbanNoiseSynthesizer::new(fs, 3).synthesize(1.0);
        siren.iter().zip(&noise).map(|(s, n)| 0.3 * s + n).collect()
    }

    /// Class, confidence and features of one call as bits (`None` on error).
    fn classify_bits(
        detector: &SpectralTemplateDetector,
        clip: &[f64],
        scratch: &mut DetectorScratch,
    ) -> Option<(EventClass, u64, Vec<u64>)> {
        let (class, confidence) = detector.predict_with_confidence_into(clip, scratch).ok()?;
        let features = scratch.features.iter().map(|v| v.to_bits()).collect();
        Some((class, confidence.to_bits(), features))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A scratch kept across calls gives what a fresh scratch gives, bit for
        /// bit, on any walk of 2048-sample frames: advances of 0–8 sub-frame
        /// hops, advances that are no multiple of the hop, jumps past the
        /// previous frame, frames holding -0.0 or NaN, and a too-short call.
        #[test]
        fn persistent_scratch_matches_a_fresh_one(
            steps in prop::collection::vec(0usize..64, 1..24),
            specials in prop::collection::vec(0usize..16_000, 0..4),
            short_at in 0usize..24,
        ) {
            let detector = detector_16k();
            let mut signal = wail_over_noise(16_000.0);
            for (i, &at) in specials.iter().enumerate() {
                signal[at] = if i % 2 == 0 { -0.0 } else { f64::NAN };
            }
            let mut persistent = DetectorScratch::default();
            let mut pos = 0;
            for (i, &step) in steps.iter().enumerate() {
                if i == short_at {
                    prop_assert!(classify_bits(detector, &signal[..511], &mut persistent).is_none());
                }
                let advance = match step {
                    0..=35 => (step % 9) * 256,
                    36..=53 => 1 + step * 37 % 255 + 256 * (step % 5),
                    _ => 2048 + step * 61,
                };
                pos = (pos + advance) % (signal.len() - 2048);
                let clip = &signal[pos..pos + 2048];
                let fresh = classify_bits(detector, clip, &mut DetectorScratch::default());
                prop_assert!(fresh.is_some());
                prop_assert_eq!(classify_bits(detector, clip, &mut persistent), fresh);
            }
        }
    }

    #[test]
    fn only_the_sub_frames_a_clip_does_not_share_are_computed() {
        let detector = detector_16k();
        let signal = wail_over_noise(16_000.0);
        let mut scratch = detector.make_scratch();
        detector
            .predict_with_confidence_into(&signal[..2048], &mut scratch)
            .unwrap();
        assert_eq!(scratch.rows.len(), 7 * 32);
        // Poison the cache: rows the next call reuses stay NaN.
        scratch.rows.fill(f64::NAN);
        detector
            .predict_with_confidence_into(&signal[1024..3072], &mut scratch)
            .unwrap();
        let (reused, computed) = scratch.rows.split_at(3 * 32);
        assert!(reused.iter().all(|r| r.is_nan()));
        assert!(computed.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn rows_are_not_reused_across_sample_rates() {
        let fs_low = 11_025.0;
        let low = SpectralTemplateDetector::new(fs_low).unwrap();
        let signal = wail_over_noise(fs_low);
        let mut scratch = DetectorScratch::default();
        detector_16k()
            .predict_with_confidence_into(&signal[..2048], &mut scratch)
            .unwrap();
        let clip = &signal[1024..3072];
        assert_eq!(
            classify_bits(&low, clip, &mut scratch),
            classify_bits(&low, clip, &mut DetectorScratch::default())
        );
    }

    #[test]
    fn threshold_and_band_builders() {
        let det = EnergyDetector::new(16_000.0)
            .unwrap()
            .with_band(300.0, 2000.0)
            .with_threshold(0.6);
        assert_eq!(det.threshold(), 0.6);
    }
}
