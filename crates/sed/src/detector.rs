//! CNN-based emergency-sound detector.
//!
//! Follows the dominant recipe of the surveyed literature (Sec. III of the paper): a
//! log-mel time–frequency patch is classified by a small convolutional network. The
//! network is deliberately low-complexity (tens of thousands of parameters, in the
//! spirit of the DCASE low-complexity track discussed in the paper) so that it can be
//! deployed on the embedded targets modelled by `ispot-codesign`.

use crate::dataset::Dataset;
use crate::error::SedError;
use crate::labels::EventClass;
use crate::metrics::ClassificationReport;
use ispot_features::mel::MelFilterbank;
use ispot_features::spectrogram::{SpectrogramConfig, SpectrogramExtractor, SpectrogramScale};
use ispot_nn::activation::Activation;
use ispot_nn::conv::Conv2d;
use ispot_nn::dense::Dense;
use ispot_nn::layer::Flatten;
use ispot_nn::loss::CrossEntropyLoss;
use ispot_nn::model::Sequential;
use ispot_nn::optimizer::Adam;
use ispot_nn::pooling::MaxPool2d;
use ispot_nn::Tensor;

/// Configuration of the [`CnnDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Number of mel bands of the input patch.
    pub num_mels: usize,
    /// Number of time frames of the input patch.
    pub num_frames: usize,
    /// STFT frame length in samples.
    pub frame_len: usize,
    /// STFT hop in samples.
    pub hop: usize,
    /// Channels of the first convolution.
    pub conv1_channels: usize,
    /// Channels of the second convolution.
    pub conv2_channels: usize,
    /// Width of the hidden dense layer.
    pub hidden_units: usize,
    /// Number of training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Seed for weight initialization and batch shuffling.
    pub seed: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            num_mels: 32,
            num_frames: 32,
            frame_len: 512,
            hop: 256,
            conv1_channels: 8,
            conv2_channels: 16,
            hidden_units: 32,
            epochs: 15,
            batch_size: 16,
            learning_rate: 1e-3,
            seed: 42,
        }
    }
}

impl DetectorConfig {
    /// A reduced configuration suitable for unit tests and quick experiments.
    pub fn tiny() -> Self {
        DetectorConfig {
            num_mels: 16,
            num_frames: 16,
            conv1_channels: 4,
            conv2_channels: 8,
            hidden_units: 16,
            epochs: 10,
            batch_size: 8,
            learning_rate: 2e-3,
            ..DetectorConfig::default()
        }
    }

    fn validate(&self) -> Result<(), SedError> {
        if self.num_mels < 4 || self.num_frames < 4 {
            return Err(SedError::invalid_config(
                "num_mels/num_frames",
                "must be at least 4",
            ));
        }
        if !self.num_mels.is_multiple_of(4) || !self.num_frames.is_multiple_of(4) {
            return Err(SedError::invalid_config(
                "num_mels/num_frames",
                "must be divisible by 4 (two 2x2 pooling stages)",
            ));
        }
        if self.conv1_channels == 0 || self.conv2_channels == 0 || self.hidden_units == 0 {
            return Err(SedError::invalid_config("channels", "must be positive"));
        }
        if self.epochs == 0 || self.batch_size == 0 {
            return Err(SedError::invalid_config(
                "epochs/batch_size",
                "must be positive",
            ));
        }
        if self.learning_rate <= 0.0 {
            return Err(SedError::invalid_config(
                "learning_rate",
                "must be positive",
            ));
        }
        Ok(())
    }
}

/// A CNN classifier over log-mel patches.
#[derive(Debug)]
pub struct CnnDetector {
    config: DetectorConfig,
    sample_rate: f64,
    spectrogram: SpectrogramExtractor,
    filterbank: MelFilterbank,
    model: Sequential,
    trained: bool,
}

impl CnnDetector {
    /// Creates an untrained detector for audio at `sample_rate`.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(config: DetectorConfig, sample_rate: f64) -> Result<Self, SedError> {
        config.validate()?;
        let spec_cfg = SpectrogramConfig {
            frame_len: config.frame_len,
            hop: config.hop,
            fft_size: config.frame_len,
            scale: SpectrogramScale::Power,
            ..SpectrogramConfig::default()
        };
        let spectrogram = SpectrogramExtractor::new(spec_cfg)?;
        let filterbank = MelFilterbank::new(
            config.num_mels,
            spectrogram.num_bins(),
            sample_rate,
            50.0,
            sample_rate / 2.0,
        )?;
        let model = Self::build_model(&config)?;
        Ok(CnnDetector {
            config,
            sample_rate,
            spectrogram,
            filterbank,
            model,
            trained: false,
        })
    }

    fn build_model(config: &DetectorConfig) -> Result<Sequential, SedError> {
        let mut model = Sequential::new();
        model.push(Conv2d::new(
            1,
            config.conv1_channels,
            (3, 3),
            1,
            1,
            config.seed,
        )?);
        model.push(Activation::relu());
        model.push(MaxPool2d::new((2, 2))?);
        model.push(Conv2d::new(
            config.conv1_channels,
            config.conv2_channels,
            (3, 3),
            1,
            1,
            config.seed.wrapping_add(1),
        )?);
        model.push(Activation::relu());
        model.push(MaxPool2d::new((2, 2))?);
        model.push(Flatten::new());
        let flat = config.conv2_channels * (config.num_mels / 4) * (config.num_frames / 4);
        model.push(Dense::new(
            flat,
            config.hidden_units,
            config.seed.wrapping_add(2),
        )?);
        model.push(Activation::relu());
        model.push(Dense::new(
            config.hidden_units,
            EventClass::COUNT,
            config.seed.wrapping_add(3),
        )?);
        Ok(model)
    }

    /// Returns the configuration.
    pub fn config(&self) -> DetectorConfig {
        self.config
    }

    /// Total number of trainable parameters of the CNN.
    pub fn num_parameters(&self) -> usize {
        self.model.num_parameters()
    }

    /// Whether [`CnnDetector::train`] has completed at least one epoch.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Gives mutable access to the underlying model (used by the co-design passes to
    /// prune and quantize the detector in place).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }

    /// Computes the fixed-size log-mel input patch (`[mels, frames]`, flattened
    /// row-major) for one audio clip: frames beyond the patch are dropped, missing
    /// frames are zero-padded, and the patch is standardized.
    ///
    /// # Errors
    ///
    /// Returns an error if the clip is shorter than one STFT frame.
    pub fn features(&self, audio: &[f64]) -> Result<Vec<f64>, SedError> {
        let power = self.spectrogram.compute(audio)?;
        let mut mel = self.filterbank.apply_spectrogram(&power)?;
        mel.log_compress(1e-10);
        let mels = self.config.num_mels;
        let frames = self.config.num_frames;
        // Build [mels, frames] patch: transpose from [frames, mels] with crop/pad.
        let mut patch = vec![0.0; mels * frames];
        for f in 0..frames.min(mel.num_rows()) {
            for m in 0..mels {
                patch[m * frames + f] = mel.get(f, m);
            }
        }
        // Standardize the patch (zero mean, unit variance) for stable training.
        let mean = patch.iter().sum::<f64>() / patch.len() as f64;
        let var = patch.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / patch.len() as f64;
        let std = var.sqrt().max(1e-9);
        for v in patch.iter_mut() {
            *v = (*v - mean) / std;
        }
        Ok(patch)
    }

    fn batch_tensor(&self, patches: &[Vec<f64>]) -> Result<Tensor, SedError> {
        let mels = self.config.num_mels;
        let frames = self.config.num_frames;
        let mut data = Vec::with_capacity(patches.len() * mels * frames);
        for p in patches {
            data.extend_from_slice(p);
        }
        Ok(Tensor::from_vec(data, &[patches.len(), 1, mels, frames])?)
    }

    /// Trains the detector on `dataset`, returning the per-epoch mean training loss.
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is empty or a training step fails.
    pub fn train(&mut self, dataset: &Dataset) -> Result<Vec<f64>, SedError> {
        if dataset.is_empty() {
            return Err(SedError::EmptyDataset);
        }
        let patches: Vec<Vec<f64>> = dataset
            .samples()
            .iter()
            .map(|s| self.features(&s.audio))
            .collect::<Result<_, _>>()?;
        let labels: Vec<usize> = dataset.samples().iter().map(|s| s.label.index()).collect();
        let loss_fn = CrossEntropyLoss::new();
        let mut optimizer = Adam::new(self.config.learning_rate);
        let mut order: Vec<usize> = (0..patches.len()).collect();
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        let mut rng_state = self.config.seed.max(1);
        for _ in 0..self.config.epochs {
            // Simple deterministic shuffle (xorshift-based Fisher-Yates).
            for i in (1..order.len()).rev() {
                rng_state ^= rng_state << 13;
                rng_state ^= rng_state >> 7;
                rng_state ^= rng_state << 17;
                let j = (rng_state % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            let mut total_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(self.config.batch_size) {
                let batch_patches: Vec<Vec<f64>> =
                    chunk.iter().map(|&i| patches[i].clone()).collect();
                let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                let x = self.batch_tensor(&batch_patches)?;
                let loss = self
                    .model
                    .train_batch(&x, &batch_labels, &loss_fn, &mut optimizer)?;
                total_loss += loss;
                batches += 1;
            }
            epoch_losses.push(total_loss / batches.max(1) as f64);
        }
        self.trained = true;
        Ok(epoch_losses)
    }

    /// Classifies one audio clip.
    ///
    /// # Errors
    ///
    /// Returns an error if feature extraction or inference fails.
    pub fn predict(&mut self, audio: &[f64]) -> Result<EventClass, SedError> {
        let patch = self.features(audio)?;
        let x = self.batch_tensor(&[patch])?;
        let prediction = self.model.predict(&x)?;
        Ok(EventClass::from_index(prediction[0]).unwrap_or(EventClass::Background))
    }

    /// Evaluates the detector on a dataset.
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is empty or inference fails.
    pub fn evaluate(&mut self, dataset: &Dataset) -> Result<ClassificationReport, SedError> {
        if dataset.is_empty() {
            return Err(SedError::EmptyDataset);
        }
        let mut truth = Vec::with_capacity(dataset.len());
        let mut predictions = Vec::with_capacity(dataset.len());
        for sample in dataset.samples() {
            truth.push(sample.label);
            predictions.push(self.predict(&sample.audio)?);
        }
        ClassificationReport::from_predictions(&truth, &predictions)
    }

    /// Sampling rate the detector was built for.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;

    fn tiny_dataset(n: usize, seed: u64) -> Dataset {
        let cfg = DatasetConfig {
            num_samples: n,
            duration_s: 0.6,
            spatialize: false,
            snr_min_db: 10.0,
            snr_max_db: 20.0,
            background_fraction: 0.25,
            ..DatasetConfig::default()
        };
        Dataset::generate(&cfg, seed).unwrap()
    }

    #[test]
    fn untrained_detector_has_expected_size_and_runs() {
        let mut det = CnnDetector::new(DetectorConfig::tiny(), 16_000.0).unwrap();
        assert!(det.num_parameters() > 1000);
        assert!(!det.is_trained());
        let audio = crate::sirens::synthesize_event(EventClass::CarHorn, 16_000.0, 0.6);
        // Prediction works (value is arbitrary before training).
        det.predict(&audio).unwrap();
    }

    #[test]
    fn training_reduces_loss_and_fits_training_set() {
        let data = tiny_dataset(40, 3);
        let mut det = CnnDetector::new(DetectorConfig::tiny(), 16_000.0).unwrap();
        let losses = det.train(&data).unwrap();
        assert!(det.is_trained());
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss did not decrease: {:?}",
            losses
        );
        let report = det.evaluate(&data).unwrap();
        // At easy SNR and when evaluating on the training set itself, the small CNN
        // must do much better than the 25% majority-class baseline.
        assert!(
            report.accuracy() > 0.5,
            "training accuracy {}",
            report.accuracy()
        );
    }

    #[test]
    fn feature_patch_has_fixed_size() {
        let det = CnnDetector::new(DetectorConfig::tiny(), 16_000.0).unwrap();
        let short = crate::sirens::synthesize_event(EventClass::WailSiren, 16_000.0, 0.2);
        let long = crate::sirens::synthesize_event(EventClass::WailSiren, 16_000.0, 2.0);
        assert_eq!(det.features(&short).unwrap().len(), 16 * 16);
        assert_eq!(det.features(&long).unwrap().len(), 16 * 16);
        assert!(det.features(&[0.0; 10]).is_err());
    }

    #[test]
    fn invalid_configurations_rejected() {
        for bad in [
            DetectorConfig {
                num_mels: 3,
                ..DetectorConfig::tiny()
            },
            DetectorConfig {
                num_frames: 18,
                ..DetectorConfig::tiny()
            },
            DetectorConfig {
                epochs: 0,
                ..DetectorConfig::tiny()
            },
            DetectorConfig {
                learning_rate: 0.0,
                ..DetectorConfig::tiny()
            },
        ] {
            assert!(CnnDetector::new(bad, 16_000.0).is_err());
        }
    }

    #[test]
    fn training_on_empty_dataset_fails() {
        let mut det = CnnDetector::new(DetectorConfig::tiny(), 16_000.0).unwrap();
        assert!(matches!(
            det.train(&Dataset::default()),
            Err(SedError::EmptyDataset)
        ));
    }
}
