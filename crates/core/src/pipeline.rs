//! Pipeline configuration.
//!
//! The construction API lives in [`crate::api`]: a
//! [`PipelineBuilder`](crate::api::PipelineBuilder) validates a
//! [`PipelineConfig`], builds an [`Engine`](crate::api::Engine) holding the
//! shared immutable state, and opens [`Session`](crate::api::Session)s against
//! it. This module keeps the configuration type itself:
//!
//! ```
//! use ispot_core::prelude::*;
//!
//! # fn main() -> Result<(), PipelineError> {
//! let mut session = PipelineBuilder::new(16_000.0).channels(1).build()?;
//! let mut events = Vec::new();
//! let frames = session.push_chunk_with(&[&vec![0.0; 4096][..]], &mut events)?;
//! assert_eq!(frames, 3); // 2048-sample frames every 1024 samples
//! # Ok(())
//! # }
//! ```

use crate::error::PipelineError;
use crate::mode::OperatingMode;
use crate::trigger::TriggerConfig;
use ispot_ssl::multitrack::TrackingConfig;
use ispot_ssl::srp_fast::SrpSearchConfig;
use ispot_ssl::SslError;

/// Configuration of a perception [`Session`](crate::api::Session).
///
/// Constructed by hand (all fields public) and validated by the
/// [`PipelineBuilder`](crate::api::PipelineBuilder) — invalid values are
/// rejected at build time with [`PipelineError::InvalidConfig`], never deferred
/// to the per-frame hot path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Analysis frame length in samples.
    pub frame_len: usize,
    /// Hop between analysis frames in samples (`0 < hop <= frame_len`).
    pub hop: usize,
    /// Operating mode (drive or park).
    pub mode: OperatingMode,
    /// Number of azimuth grid directions for localization.
    pub num_directions: usize,
    /// Minimum detector confidence for an event to be reported, in `[0, 1]`.
    pub confidence_threshold: f64,
    /// Park-mode trigger configuration.
    pub trigger: TriggerConfig,
    /// Multi-target tracking configuration (peak budget, association gate,
    /// confirmation and coasting counts).
    pub tracking: TrackingConfig,
    /// Carries nothing: every localizer steers the whole grid. The field
    /// remains only for `perfbench/src/replay.rs` (see [`SrpSearchConfig`]).
    pub search: SrpSearchConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            frame_len: 2048,
            hop: 1024,
            mode: OperatingMode::Drive,
            num_directions: 181,
            confidence_threshold: 0.2,
            trigger: TriggerConfig::default(),
            tracking: TrackingConfig::default(),
            search: SrpSearchConfig,
        }
    }
}

impl PipelineConfig {
    /// Checks every parameter against its documented range.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] naming the first offending
    /// parameter:
    ///
    /// * `frame_len` must be positive;
    /// * `hop` must satisfy `0 < hop <= frame_len` (a zero hop stalls the frame
    ///   assembler, and a hop beyond the frame length silently drops samples —
    ///   the emergency-alert pipeline must see every sample; direct users of
    ///   `ispot_dsp::framing::FrameAssembler` can still configure
    ///   `hop > frame_len` decimated analysis, deliberately);
    /// * `num_directions` must be positive (a zero-direction grid produces an
    ///   empty, peak-less SRP map on every frame);
    /// * `confidence_threshold` must lie in `[0, 1]`;
    /// * the trigger's `threshold_db` must be positive and finite, and its
    ///   `floor_smoothing` must lie strictly inside `(0, 1)`;
    /// * every tracking parameter must pass
    ///   [`TrackingConfig::validate`] (positive counts within their caps, gate
    ///   and salience thresholds in range).
    pub fn validate(&self) -> Result<(), PipelineError> {
        if self.frame_len == 0 {
            return Err(PipelineError::invalid_config(
                "frame_len",
                "must be positive",
            ));
        }
        if self.hop == 0 || self.hop > self.frame_len {
            return Err(PipelineError::invalid_config(
                "hop",
                format!(
                    "must satisfy 0 < hop <= frame_len ({}), got {}",
                    self.frame_len, self.hop
                ),
            ));
        }
        if self.num_directions == 0 {
            return Err(PipelineError::invalid_config(
                "num_directions",
                "must be positive",
            ));
        }
        if !(0.0..=1.0).contains(&self.confidence_threshold) {
            return Err(PipelineError::invalid_config(
                "confidence_threshold",
                "must be within [0, 1]",
            ));
        }
        if !(self.trigger.threshold_db.is_finite() && self.trigger.threshold_db > 0.0) {
            return Err(PipelineError::invalid_config(
                "trigger.threshold_db",
                "must be positive and finite",
            ));
        }
        if !(self.trigger.floor_smoothing > 0.0 && self.trigger.floor_smoothing < 1.0) {
            return Err(PipelineError::invalid_config(
                "trigger.floor_smoothing",
                "must lie strictly inside (0, 1)",
            ));
        }
        // Surface tracking violations as the pipeline's own typed InvalidConfig
        // (same field-naming contract as every other parameter).
        self.tracking.validate().map_err(|e| match e {
            SslError::InvalidConfig { name, reason } => {
                PipelineError::InvalidConfig { name, reason }
            }
            other => PipelineError::Localization(other),
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::PipelineBuilder;
    use ispot_dsp::generator::{NoiseKind, NoiseSource};
    use ispot_roadsim::engine::{MultichannelAudio, Simulator};
    use ispot_roadsim::geometry::Position;
    use ispot_roadsim::microphone::MicrophoneArray;
    use ispot_roadsim::scene::SceneBuilder;
    use ispot_roadsim::source::SoundSource;
    use ispot_roadsim::trajectory::Trajectory;
    use ispot_sed::sirens::{SirenKind, SirenSynthesizer};

    fn simulate_siren(
        azimuth_deg: f64,
        num_mics: usize,
        duration_s: f64,
    ) -> (MultichannelAudio, MicrophoneArray) {
        let fs = 16_000.0;
        let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(duration_s);
        let az = azimuth_deg.to_radians();
        let array = MicrophoneArray::circular(num_mics, 0.2, Position::new(0.0, 0.0, 1.0));
        let scene = SceneBuilder::new(fs)
            .source(SoundSource::new(
                siren,
                Trajectory::fixed(Position::new(20.0 * az.cos(), 20.0 * az.sin(), 1.0)),
            ))
            .array(array.clone())
            .reflection(false)
            .air_absorption(false)
            .build()
            .unwrap();
        (Simulator::new(scene).unwrap().run().unwrap(), array)
    }

    #[test]
    fn detects_and_localizes_a_static_siren() {
        let (audio, array) = simulate_siren(45.0, 6, 1.0);
        let mut pipeline = PipelineBuilder::new(audio.sample_rate())
            .array(&array)
            .build()
            .unwrap();
        assert!(pipeline.localization_available());
        let mut events = Vec::new();
        pipeline
            .process_recording_with(&audio, &mut events)
            .unwrap();
        assert!(!events.is_empty(), "no events detected");
        let alert = events
            .iter()
            .find(|e| e.is_alert())
            .expect("an alert event");
        assert!(alert.class.is_event());
        let az = alert.azimuth_deg.expect("localization ran");
        assert!(
            ispot_ssl::metrics::angular_error_deg(az, 45.0) < 20.0,
            "azimuth {az}"
        );
        assert!(pipeline.frames_processed() > 0);
        assert!(pipeline.analysis_duty_cycle() > 0.99);
    }

    #[test]
    fn background_noise_produces_no_alerts() {
        let fs = 16_000.0;
        let noise: Vec<f64> = NoiseSource::new(NoiseKind::Brown, 5)
            .take(16_000)
            .map(|x| x * 0.05)
            .collect();
        let channels = MultichannelAudio::new(vec![noise.clone(), noise], fs);
        let mut pipeline = PipelineBuilder::new(fs).channels(2).build().unwrap();
        let mut events = Vec::new();
        pipeline
            .process_recording_with(&channels, &mut events)
            .unwrap();
        assert!(
            events.iter().all(|e| !e.is_alert()),
            "false alerts on background noise"
        );
    }

    #[test]
    fn park_mode_gates_analysis_behind_the_trigger() {
        let fs = 16_000.0;
        // 1 s of near silence followed by 1 s of loud siren.
        let mut signal: Vec<f64> = NoiseSource::new(NoiseKind::White, 3)
            .take(16_000)
            .map(|x| x * 0.001)
            .collect();
        signal.extend(SirenSynthesizer::new(SirenKind::Yelp, fs).synthesize(1.0));
        let audio = MultichannelAudio::new(vec![signal], fs);
        let mut pipeline = PipelineBuilder::new(fs)
            .mode(OperatingMode::Park)
            .build()
            .unwrap();
        let mut events = Vec::new();
        pipeline
            .process_recording_with(&audio, &mut events)
            .unwrap();
        // The expensive analysis only ran on a fraction of the frames...
        assert!(pipeline.analysis_duty_cycle() < 0.8);
        assert!(pipeline.frames_analyzed() < pipeline.frames_processed());
        // ...but the siren was still reported, without localization in park mode.
        assert!(events.iter().any(|e| e.is_alert()));
        assert!(events.iter().all(|e| e.azimuth_deg.is_none()));
    }

    #[test]
    fn channel_and_length_validation() {
        let fs = 16_000.0;
        let mut pipeline = PipelineBuilder::new(fs).channels(2).build().unwrap();
        let ch = vec![0.0; 2048];
        let mut events = Vec::new();
        let one: Vec<&[f64]> = vec![&ch];
        assert!(matches!(
            pipeline.process_frame_with(&one, 0, &mut events),
            Err(PipelineError::ChannelMismatch { .. })
        ));
        let short = vec![0.0; 100];
        let bad: Vec<&[f64]> = vec![&ch, &short];
        assert!(pipeline.process_frame_with(&bad, 0, &mut events).is_err());
        let audio = MultichannelAudio::new(vec![vec![0.0; 4096]; 3], fs);
        assert!(pipeline
            .process_recording_with(&audio, &mut events)
            .is_err());
    }

    #[test]
    fn config_validation_rejects_out_of_range_values() {
        for bad in [
            PipelineConfig {
                frame_len: 0,
                ..PipelineConfig::default()
            },
            PipelineConfig {
                hop: 0,
                ..PipelineConfig::default()
            },
            PipelineConfig {
                hop: 4096,
                ..PipelineConfig::default()
            },
            PipelineConfig {
                num_directions: 0,
                ..PipelineConfig::default()
            },
            PipelineConfig {
                confidence_threshold: 2.0,
                ..PipelineConfig::default()
            },
            PipelineConfig {
                trigger: TriggerConfig {
                    floor_smoothing: 0.0,
                    ..TriggerConfig::default()
                },
                ..PipelineConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} accepted");
            assert!(PipelineBuilder::new(16_000.0).config(bad).build().is_err());
        }
        assert!(PipelineConfig::default().validate().is_ok());
    }

    #[test]
    fn mode_switch_keeps_reporting_the_new_mode() {
        let fs = 16_000.0;
        let mut pipeline = PipelineBuilder::new(fs).build().unwrap();
        assert_eq!(pipeline.mode(), OperatingMode::Drive);
        pipeline.set_mode(OperatingMode::Park);
        assert_eq!(pipeline.mode(), OperatingMode::Park);
        assert!(!pipeline.localization_available());
    }

    #[test]
    fn classify_clip_exposes_the_detector() {
        let fs = 16_000.0;
        let pipeline = PipelineBuilder::new(fs).build().unwrap();
        let horn = ispot_sed::sirens::synthesize_event(ispot_sed::EventClass::CarHorn, fs, 1.0);
        let class = pipeline.classify_clip(&horn).unwrap();
        assert_eq!(class, ispot_sed::EventClass::CarHorn);
    }

    #[test]
    fn push_chunk_matches_batch_processing_for_odd_chunk_sizes() {
        let fs = 16_000.0;
        let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(1.0);
        let audio = MultichannelAudio::new(vec![siren], fs);
        let engine = PipelineBuilder::new(fs).build_engine().unwrap();
        let mut batch = engine.open_session();
        let mut batch_events = Vec::new();
        batch
            .process_recording_with(&audio, &mut batch_events)
            .unwrap();
        assert!(!batch_events.is_empty());

        // Stream the same recording in deliberately awkward chunk sizes.
        for chunk_size in [1usize, 7, 160, 1024, 2048, 5000] {
            let mut streaming = engine.open_session();
            let mut events = Vec::new();
            let mut frames = 0;
            for chunk in audio.channel(0).chunks(chunk_size) {
                frames += streaming.push_chunk_with(&[chunk], &mut events).unwrap();
            }
            assert_eq!(
                frames,
                (audio.len() - 2048) / 1024 + 1,
                "chunk {chunk_size}"
            );
            assert_eq!(events.len(), batch_events.len(), "chunk {chunk_size}");
            for (a, b) in batch_events.iter().zip(&events) {
                assert_eq!(a.frame_index, b.frame_index);
                assert_eq!(a.class, b.class);
                assert!((a.confidence - b.confidence).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn push_chunk_buffers_partial_frames_across_calls() {
        let fs = 16_000.0;
        let mut pipeline = PipelineBuilder::new(fs).build().unwrap();
        let mut events = Vec::new();
        let silence = vec![0.0; 1000];
        pipeline.push_chunk_with(&[&silence], &mut events).unwrap();
        assert_eq!(events.len(), 0);
        assert_eq!(pipeline.pending_samples(), 1000);
        assert_eq!(pipeline.frames_processed(), 0);
        // 1048 more samples complete the first 2048-sample frame.
        let more = vec![0.0; 1048];
        pipeline.push_chunk_with(&[&more], &mut events).unwrap();
        assert_eq!(pipeline.frames_processed(), 1);
        assert_eq!(pipeline.pending_samples(), 2048 - 1024);
        pipeline.reset_streaming();
        assert_eq!(pipeline.pending_samples(), 0);
    }

    #[test]
    fn push_chunk_validates_channel_count() {
        let fs = 16_000.0;
        let mut pipeline = PipelineBuilder::new(fs).channels(2).build().unwrap();
        let mono = vec![0.0; 64];
        let mut events = Vec::new();
        assert!(matches!(
            pipeline.push_chunk_with(&[&mono], &mut events),
            Err(PipelineError::ChannelMismatch { .. })
        ));
        let unequal = vec![0.0; 32];
        assert!(pipeline
            .push_chunk_with(&[&mono[..], &unequal[..]], &mut events)
            .is_err());
    }

    #[test]
    fn process_recording_resets_streaming_state() {
        let fs = 16_000.0;
        let mut pipeline = PipelineBuilder::new(fs).build().unwrap();
        let mut events = Vec::new();
        // Leave a partial frame buffered from streaming...
        pipeline
            .push_chunk_with(&[&vec![0.0; 500][..]], &mut events)
            .unwrap();
        assert_eq!(pipeline.pending_samples(), 500);
        // ...then batch-process: the partial frame must not leak into the batch.
        let audio = MultichannelAudio::new(vec![vec![0.0; 4096]], fs);
        pipeline
            .process_recording_with(&audio, &mut events)
            .unwrap();
        assert_eq!(pipeline.frames_processed(), 3);
        assert_eq!(pipeline.pending_samples(), 0);
    }

    #[test]
    fn ingestion_formats_produce_identical_events() {
        use crate::input::AudioInput;
        let fs = 16_000.0;
        // Quantize a siren to i16 so the same physical signal is exactly
        // representable in every supported format.
        let pcm: Vec<i16> = SirenSynthesizer::new(SirenKind::Wail, fs)
            .synthesize(1.0)
            .iter()
            .map(|x| (x * 24_000.0).round().clamp(-32768.0, 32767.0) as i16)
            .collect();
        let as_f32: Vec<f32> = pcm.iter().map(|&s| (s as f64 / 32768.0) as f32).collect();
        let as_f64: Vec<f64> = pcm.iter().map(|&s| s as f64 / 32768.0).collect();

        let engine = PipelineBuilder::new(fs).build_engine().unwrap();
        let run = |input: AudioInput<'_>| {
            let mut session = engine.open_session();
            let mut events = Vec::new();
            session.push_input_with(input, &mut events).unwrap();
            events
        };
        let reference = run(AudioInput::planar(&[&as_f64[..]]));
        assert!(!reference.is_empty());
        assert_eq!(run(AudioInput::planar(&[&pcm[..]])), reference);
        assert_eq!(run(AudioInput::planar(&[&as_f32[..]])), reference);
        assert_eq!(run(AudioInput::interleaved(&pcm[..], 1)), reference);
        assert_eq!(run(AudioInput::interleaved(&as_f32[..], 1)), reference);
        assert_eq!(run(AudioInput::interleaved(&as_f64[..], 1)), reference);
    }
}
