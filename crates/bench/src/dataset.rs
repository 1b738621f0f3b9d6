//! Emergency-sound dataset generation.
//!
//! Reproduces the protocol of Sec. IV-A of the paper: each sample contains the sound of
//! a source of interest (a siren or a car horn) moving along a random trajectory with a
//! random speed, rendered through the road-acoustics simulator, and summed with urban
//! background noise at a random SNR drawn from `[-30, 0]` dB. The paper generates
//! 15 000 single-channel samples; the generator below is parameterized so that test
//! suites can use small counts while the benchmark harness can regenerate the full
//! protocol.

use ispot_dsp::level::mix_at_snr;
use ispot_roadsim::engine::Simulator;
use ispot_roadsim::geometry::Position;
use ispot_roadsim::microphone::MicrophoneArray;
use ispot_roadsim::scene::SceneBuilder;
use ispot_roadsim::source::SoundSource;
use ispot_roadsim::trajectory::Trajectory;
use ispot_sed::metrics::ClassificationReport;
use ispot_sed::noise::UrbanNoiseSynthesizer;
use ispot_sed::sirens::synthesize_event;
use ispot_sed::{EventClass, SedError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;

/// Configuration of the dataset generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Number of samples to generate.
    pub num_samples: usize,
    /// Sampling rate in Hz (the paper and this reproduction use 16 kHz).
    pub sample_rate: f64,
    /// Duration of each sample in seconds.
    pub duration_s: f64,
    /// Lower edge of the SNR range in dB.
    pub snr_min_db: f64,
    /// Upper edge of the SNR range in dB.
    pub snr_max_db: f64,
    /// Minimum source speed in m/s.
    pub speed_min: f64,
    /// Maximum source speed in m/s.
    pub speed_max: f64,
    /// Whether event sources are rendered through the road-acoustics simulator
    /// (random trajectory, Doppler, spreading, reflection). When `false`, the clean
    /// synthesised event is mixed directly — much faster, used for quick experiments.
    pub spatialize: bool,
    /// Fraction of samples labelled [`EventClass::Background`] (no event present).
    pub background_fraction: f64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            num_samples: 100,
            sample_rate: 16_000.0,
            duration_s: 1.0,
            snr_min_db: -30.0,
            snr_max_db: 0.0,
            speed_min: 5.0,
            speed_max: 30.0,
            spatialize: true,
            background_fraction: 0.2,
        }
    }
}

impl DatasetConfig {
    /// The full 15 000-sample protocol described in the paper (3-second clips,
    /// SNR ∈ [−30, 0] dB).
    pub fn paper_protocol() -> Self {
        DatasetConfig {
            num_samples: 15_000,
            duration_s: 3.0,
            ..DatasetConfig::default()
        }
    }

    fn validate(&self) -> Result<(), SedError> {
        if self.num_samples == 0 {
            return Err(SedError::invalid_config("num_samples", "must be positive"));
        }
        if self.sample_rate <= 0.0 {
            return Err(SedError::invalid_config("sample_rate", "must be positive"));
        }
        if self.duration_s <= 0.0 {
            return Err(SedError::invalid_config("duration_s", "must be positive"));
        }
        if self.snr_min_db > self.snr_max_db {
            return Err(SedError::invalid_config(
                "snr_min_db",
                "must not exceed snr_max_db",
            ));
        }
        if self.speed_min <= 0.0 || self.speed_min > self.speed_max {
            return Err(SedError::invalid_config(
                "speed_min",
                "must be positive and not exceed speed_max",
            ));
        }
        if !(0.0..=1.0).contains(&self.background_fraction) {
            return Err(SedError::invalid_config(
                "background_fraction",
                "must be within [0, 1]",
            ));
        }
        Ok(())
    }
}

/// One generated dataset sample.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSample {
    /// Single-channel audio at the configured sampling rate.
    pub audio: Vec<f64>,
    /// Ground-truth class.
    pub label: EventClass,
    /// SNR (dB) at which the event was mixed with the background; `None` for
    /// background-only samples.
    pub snr_db: Option<f64>,
    /// Source speed in m/s for spatialized samples.
    pub source_speed: Option<f64>,
}

/// A generated emergency-sound dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    samples: Vec<DatasetSample>,
    sample_rate: f64,
}

impl Dataset {
    /// Generates a dataset according to `config`, deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or the simulation fails.
    pub fn generate(config: &DatasetConfig, seed: u64) -> Result<Self, Box<dyn Error>> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let fs = config.sample_rate;
        let mut samples = Vec::with_capacity(config.num_samples);
        let event_classes = [
            EventClass::HiLowSiren,
            EventClass::WailSiren,
            EventClass::YelpSiren,
            EventClass::CarHorn,
        ];
        for i in 0..config.num_samples {
            let is_background = rng.random::<f64>() < config.background_fraction;
            let noise_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
            let noise = UrbanNoiseSynthesizer::new(fs, noise_seed).synthesize(config.duration_s);
            if is_background {
                samples.push(DatasetSample {
                    audio: noise,
                    label: EventClass::Background,
                    snr_db: None,
                    source_speed: None,
                });
                continue;
            }
            let class = event_classes[rng.random_range(0..event_classes.len())];
            let clean = synthesize_event(class, fs, config.duration_s);
            let speed = rng.random_range(config.speed_min..=config.speed_max);
            let event = if config.spatialize {
                let rendered = Self::spatialize(&clean, fs, speed, &mut rng)?;
                // The rendered signal can be very quiet at large distances; keep it as
                // is, the SNR mixing below rescales the *noise* to hit the target SNR.
                rendered
            } else {
                clean
            };
            let snr = rng.random_range(config.snr_min_db..=config.snr_max_db);
            let (mix, _) = mix_at_snr(&event, &noise, snr)?;
            samples.push(DatasetSample {
                audio: mix,
                label: class,
                snr_db: Some(snr),
                source_speed: Some(speed),
            });
        }
        Ok(Dataset {
            samples,
            sample_rate: fs,
        })
    }

    fn spatialize(
        clean: &[f64],
        fs: f64,
        speed: f64,
        rng: &mut StdRng,
    ) -> Result<Vec<f64>, Box<dyn Error>> {
        // Random drive-by: the source crosses the microphone's field on a straight
        // line at a random lateral offset and height, starting from a random side.
        let offset = rng.random_range(3.0..15.0);
        let start_x = rng.random_range(-60.0..-20.0);
        let end_x = rng.random_range(20.0..60.0);
        let height = rng.random_range(0.5..1.5);
        let (from, to) = if rng.random::<f64>() < 0.5 {
            (
                Position::new(start_x, offset, height),
                Position::new(end_x, offset, height),
            )
        } else {
            (
                Position::new(end_x, offset, height),
                Position::new(start_x, offset, height),
            )
        };
        let trajectory = Trajectory::linear(from, to, speed);
        let scene = SceneBuilder::new(fs)
            .source(SoundSource::new(clean.to_vec(), trajectory))
            .array(MicrophoneArray::custom(vec![Position::new(0.0, 0.0, 1.0)])?)
            .reflection(true)
            .air_absorption(false)
            .filter_taps(33)
            .build()?;
        let audio = Simulator::new(scene)?.run()?;
        Ok(audio.into_channels().remove(0))
    }

    /// Returns the samples.
    pub fn samples(&self) -> &[DatasetSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns true if the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sampling rate of the audio clips.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Per-class sample counts, indexed by [`EventClass::index`].
    pub fn class_histogram(&self) -> [usize; EventClass::COUNT] {
        let mut histogram = [0usize; EventClass::COUNT];
        for s in &self.samples {
            histogram[s.label.index()] += 1;
        }
        histogram
    }

    /// Splits the dataset into a training and a test set (the first
    /// `train_fraction` of samples go to training; generation order is already random).
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is empty or the fraction is outside `(0, 1)`.
    pub fn split(&self, train_fraction: f64) -> Result<(Dataset, Dataset), Box<dyn Error>> {
        if self.samples.is_empty() {
            return Err(SedError::EmptyDataset.into());
        }
        if !(0.0..1.0).contains(&train_fraction) || train_fraction == 0.0 {
            return Err(SedError::invalid_config("train_fraction", "must be within (0, 1)").into());
        }
        let cut = ((self.samples.len() as f64) * train_fraction).round() as usize;
        let cut = cut.clamp(1, self.samples.len() - 1);
        Ok((
            Dataset {
                samples: self.samples[..cut].to_vec(),
                sample_rate: self.sample_rate,
            },
            Dataset {
                samples: self.samples[cut..].to_vec(),
                sample_rate: self.sample_rate,
            },
        ))
    }

    /// Scores a classifier on every sample: `predict` maps one clip to a class.
    ///
    /// A binary detector maps a hit to any event class and reads
    /// [`ClassificationReport::event_detection_accuracy`].
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is empty or `predict` fails.
    pub fn evaluate<E: Into<Box<dyn Error>>>(
        &self,
        mut predict: impl FnMut(&[f64]) -> Result<EventClass, E>,
    ) -> Result<ClassificationReport, Box<dyn Error>> {
        let mut truth = Vec::with_capacity(self.len());
        let mut predictions = Vec::with_capacity(self.len());
        for sample in &self.samples {
            truth.push(sample.label);
            predictions.push(predict(&sample.audio).map_err(Into::into)?);
        }
        Ok(ClassificationReport::from_predictions(
            &truth,
            &predictions,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispot_sed::baseline::{EnergyDetector, SpectralTemplateDetector};

    fn quick_config(n: usize, spatialize: bool) -> DatasetConfig {
        DatasetConfig {
            num_samples: n,
            duration_s: 0.3,
            spatialize,
            ..DatasetConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = quick_config(6, false);
        let a = Dataset::generate(&cfg, 11).unwrap();
        let b = Dataset::generate(&cfg, 11).unwrap();
        let c = Dataset::generate(&cfg, 12).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn samples_have_requested_length_and_rate() {
        let cfg = quick_config(5, false);
        let d = Dataset::generate(&cfg, 1).unwrap();
        assert_eq!(d.len(), 5);
        assert_eq!(d.sample_rate(), 16_000.0);
        for s in d.samples() {
            assert_eq!(s.audio.len(), 4800);
            assert!(s.audio.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn snr_values_fall_in_configured_range() {
        let cfg = DatasetConfig {
            num_samples: 12,
            duration_s: 0.25,
            spatialize: false,
            snr_min_db: -20.0,
            snr_max_db: -5.0,
            background_fraction: 0.0,
            ..DatasetConfig::default()
        };
        let d = Dataset::generate(&cfg, 3).unwrap();
        for s in d.samples() {
            let snr = s.snr_db.expect("event samples carry an SNR");
            assert!((-20.0..=-5.0).contains(&snr));
        }
    }

    #[test]
    fn background_fraction_is_roughly_respected() {
        let cfg = DatasetConfig {
            num_samples: 60,
            duration_s: 0.2,
            spatialize: false,
            background_fraction: 0.5,
            ..DatasetConfig::default()
        };
        let d = Dataset::generate(&cfg, 5).unwrap();
        let hist = d.class_histogram();
        let background = hist[EventClass::Background.index()];
        assert!(
            background > 15 && background < 45,
            "{background} backgrounds"
        );
    }

    #[test]
    fn spatialized_samples_render_through_the_simulator() {
        let cfg = quick_config(3, true);
        let d = Dataset::generate(&cfg, 7).unwrap();
        assert_eq!(d.len(), 3);
        for s in d.samples() {
            assert!(s.audio.iter().any(|x| x.abs() > 0.0));
            if s.label.is_event() {
                assert!(s.source_speed.unwrap() >= cfg.speed_min);
            }
        }
    }

    #[test]
    fn split_partitions_all_samples() {
        let cfg = quick_config(10, false);
        let d = Dataset::generate(&cfg, 2).unwrap();
        let (train, test) = d.split(0.7).unwrap();
        assert_eq!(train.len() + test.len(), 10);
        assert!(train.len() >= 6);
        assert!(!test.is_empty());
        assert!(d.split(0.0).is_err());
        assert!(d.split(1.5).is_err());
    }

    #[test]
    fn invalid_configurations_rejected() {
        for cfg in [
            DatasetConfig {
                num_samples: 0,
                ..quick_config(1, false)
            },
            DatasetConfig {
                snr_min_db: 5.0,
                snr_max_db: -5.0,
                ..quick_config(1, false)
            },
            DatasetConfig {
                speed_min: 0.0,
                ..quick_config(1, false)
            },
            DatasetConfig {
                background_fraction: 1.5,
                ..quick_config(1, false)
            },
        ] {
            assert!(Dataset::generate(&cfg, 0).is_err());
        }
    }

    #[test]
    fn baselines_beat_chance_at_high_snr_and_degrade_at_low_snr() {
        let fs = 16_000.0;
        let easy = Dataset::generate(
            &DatasetConfig {
                num_samples: 24,
                duration_s: 0.8,
                spatialize: false,
                snr_min_db: 15.0,
                snr_max_db: 20.0,
                background_fraction: 0.5,
                ..DatasetConfig::default()
            },
            9,
        )
        .unwrap();
        let hard = Dataset::generate(
            &DatasetConfig {
                num_samples: 24,
                duration_s: 0.8,
                spatialize: false,
                snr_min_db: -30.0,
                snr_max_db: -25.0,
                background_fraction: 0.5,
                ..DatasetConfig::default()
            },
            9,
        )
        .unwrap();
        let det = EnergyDetector::new(fs).unwrap();
        let accuracy = |dataset: &Dataset| {
            dataset
                .evaluate(|audio| {
                    det.detect(audio).map(|hit| {
                        if hit {
                            EventClass::WailSiren
                        } else {
                            EventClass::Background
                        }
                    })
                })
                .unwrap()
                .event_detection_accuracy()
        };
        let easy_acc = accuracy(&easy);
        let hard_acc = accuracy(&hard);
        assert!(easy_acc > 0.7, "easy accuracy {easy_acc}");
        assert!(
            hard_acc < easy_acc + 1e-9,
            "hard ({hard_acc}) should not beat easy ({easy_acc})"
        );
    }

    #[test]
    fn evaluating_an_empty_dataset_fails() {
        let template = SpectralTemplateDetector::new(16_000.0).unwrap();
        let err = Dataset::default()
            .evaluate(|audio| template.predict(audio))
            .unwrap_err();
        assert_eq!(err.downcast_ref(), Some(&SedError::EmptyDataset));
    }

    #[test]
    fn paper_protocol_matches_published_numbers() {
        let cfg = DatasetConfig::paper_protocol();
        assert_eq!(cfg.num_samples, 15_000);
        assert_eq!(cfg.snr_min_db, -30.0);
        assert_eq!(cfg.snr_max_db, 0.0);
        assert_eq!(cfg.duration_s, 3.0);
    }
}
