//! Property-based tests (proptest) on the core data structures and invariants of the
//! DSP substrate, the feature extractors and the geometry/metric helpers.

use ispot::dsp::delay::{DelayLine, InterpolationKind};
use ispot::dsp::fft::Fft;
use ispot::dsp::level::{measure_snr, mix_at_snr, signal_power};
use ispot::dsp::ring::RingBuffer;
use ispot::dsp::window::{Window, WindowKind};
use ispot::roadsim::geometry::{reflected_path_length, Position};
use ispot::ssl::metrics::angular_error_deg;
use ispot::ssl::tracking::wrap_deg;
use proptest::prelude::*;

fn finite_signal(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0f64..1.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_roundtrip_recovers_any_signal(signal in finite_signal(2..200)) {
        let n = signal.len();
        let fft = Fft::new(n);
        let spectrum = fft.forward_real(&signal).unwrap();
        let back = fft.inverse_real(&spectrum).unwrap();
        for (a, b) in signal.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn parseval_holds_for_any_signal(signal in finite_signal(4..128)) {
        let n = signal.len();
        let fft = Fft::new(n);
        let spectrum = fft.forward_real(&signal).unwrap();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f64 = spectrum.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time_energy - freq_energy).abs() < 1e-6 * (1.0 + time_energy));
    }

    #[test]
    fn mix_at_snr_hits_any_requested_snr(
        signal in finite_signal(64..512),
        noise in finite_signal(64..512),
        snr_db in -40.0f64..20.0,
    ) {
        prop_assume!(signal_power(&signal) > 1e-6);
        prop_assume!(signal_power(&noise) > 1e-6);
        let (mix, scaled_noise) = mix_at_snr(&signal, &noise, snr_db).unwrap();
        prop_assert_eq!(mix.len(), signal.len());
        let measured = measure_snr(&signal, &scaled_noise).unwrap();
        prop_assert!((measured - snr_db).abs() < 1e-6);
    }

    #[test]
    fn delay_line_places_an_impulse_at_the_requested_delay(
        delay in 0usize..60,
        amplitude in 0.1f64..2.0,
    ) {
        let mut line = DelayLine::new(64, InterpolationKind::Linear).unwrap();
        let mut peak_index = None;
        for n in 0..128 {
            let x = if n == 0 { amplitude } else { 0.0 };
            let y = line.process(x, delay as f64).unwrap();
            if y.abs() > amplitude * 0.9 {
                peak_index.get_or_insert(n);
            }
        }
        prop_assert_eq!(peak_index, Some(delay));
    }

    #[test]
    fn ring_buffer_is_fifo_for_any_interleaving(
        chunks in prop::collection::vec(finite_signal(1..8), 1..12),
    ) {
        let total: usize = chunks.iter().map(Vec::len).sum();
        let mut rb = RingBuffer::new(total.max(1)).unwrap();
        let mut expected = Vec::new();
        for c in &chunks {
            rb.write(c).unwrap();
            expected.extend_from_slice(c);
        }
        let mut out = vec![0.0; total];
        rb.read(&mut out).unwrap();
        prop_assert_eq!(out, expected);
        prop_assert!(rb.is_empty());
    }

    #[test]
    fn window_coefficients_are_bounded(
        len in 1usize..512,
        kind_idx in 0usize..4,
    ) {
        let kind = [
            WindowKind::Rectangular,
            WindowKind::Hann,
            WindowKind::Hamming,
            WindowKind::Blackman,
        ][kind_idx];
        let w = Window::new(kind, len);
        prop_assert_eq!(w.len(), len);
        prop_assert!(w.coefficients().iter().all(|&c| (-1e-9..=1.0 + 1e-12).contains(&c)));
        prop_assert!(w.coherent_gain() <= 1.0 + 1e-12);
    }

    #[test]
    fn angular_error_is_a_bounded_symmetric_metric(a in -720.0f64..720.0, b in -720.0f64..720.0) {
        let e = angular_error_deg(a, b);
        prop_assert!((0.0..=180.0 + 1e-9).contains(&e));
        prop_assert!((angular_error_deg(b, a) - e).abs() < 1e-9);
        prop_assert!(angular_error_deg(a, a) < 1e-9);
    }

    #[test]
    fn wrap_deg_is_idempotent_and_in_range(angle in -2000.0f64..2000.0) {
        let w = wrap_deg(angle);
        prop_assert!((-180.0..=180.0).contains(&w));
        prop_assert!((wrap_deg(w) - w).abs() < 1e-9);
        // Wrapping preserves the direction (angular error to the original is zero).
        prop_assert!(angular_error_deg(w, angle) < 1e-6);
    }

    #[test]
    fn reflected_path_is_never_shorter_than_direct_path(
        sx in -50.0f64..50.0, sy in -50.0f64..50.0, sz in 0.0f64..5.0,
        mx in -50.0f64..50.0, my in -50.0f64..50.0, mz in 0.0f64..5.0,
    ) {
        let s = Position::new(sx, sy, sz);
        let m = Position::new(mx, my, mz);
        let direct = s.distance_to(m);
        let reflected = reflected_path_length(s, m);
        prop_assert!(reflected >= direct - 1e-9);
    }

    #[test]
    fn feature_matrix_standardize_is_zero_mean(rows in prop::collection::vec(finite_signal(3..4), 2..20)) {
        let cols = rows[0].len();
        prop_assume!(rows.iter().all(|r| r.len() == cols));
        let mut m = ispot::features::FeatureMatrix::from_rows(rows);
        m.standardize();
        for mean in m.column_means() {
            prop_assert!(mean.abs() < 1e-9);
        }
    }
}

// Chunk-size invariance of the streaming pipeline: however a recording is cut into
// push_chunk calls, the emitted events must be identical (frame index, class,
// confidence — byte-identical analysis) to batch `process_recording`. The pipeline
// runs a full detector per frame, so the case count is kept small.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn streaming_any_chunking_matches_batch_events(
        cuts in prop::collection::vec(1usize..6144, 2..24),
        seed in 0usize..1000,
    ) {
        use ispot::core::api::PipelineBuilder;
        use ispot::core::pipeline::PipelineConfig;
        use ispot::sed::sirens::{SirenKind, SirenSynthesizer};

        let fs = 16_000.0;
        // Half a second of siren bracketed by quiet noise; the seed varies the
        // phase so different cases see different signals.
        let mut signal: Vec<f64> = (0..2000)
            .map(|i| 0.01 * ((i + seed) as f64 * 0.37).sin())
            .collect();
        signal.extend(SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(0.5));
        signal.extend((0..1000).map(|i| 0.01 * ((i * 7 + seed) as f64 * 0.11).sin()));
        let audio = ispot::roadsim::engine::MultichannelAudio::new(vec![signal.clone()], fs);

        let config = PipelineConfig::default();
        let engine = PipelineBuilder::new(fs).config(config).build_engine().unwrap();
        let mut batch = engine.open_session();
        let mut batch_events = Vec::new();
        batch.process_recording_with(&audio, &mut batch_events).unwrap();

        let mut streaming = engine.open_session();
        let mut events = Vec::new();
        let mut frames = 0usize;
        let mut pos = 0usize;
        let mut cut_iter = cuts.iter().cycle();
        while pos < signal.len() {
            let take = (*cut_iter.next().unwrap()).min(signal.len() - pos);
            frames += streaming
                .push_chunk_with(&[&signal[pos..pos + take]], &mut events)
                .unwrap();
            pos += take;
        }

        let expected_frames = if signal.len() < config.frame_len {
            0
        } else {
            (signal.len() - config.frame_len) / config.hop + 1
        };
        prop_assert_eq!(frames, expected_frames);
        prop_assert_eq!(events.len(), batch_events.len());
        for (a, b) in batch_events.iter().zip(&events) {
            prop_assert_eq!(a.frame_index, b.frame_index);
            prop_assert_eq!(a.class, b.class);
            prop_assert!((a.confidence - b.confidence).abs() == 0.0, "confidence drift");
            prop_assert!((a.time_s - b.time_s).abs() == 0.0, "timestamp drift");
        }
    }
}

// Multi-source linearity, carried through the full pipeline: the rendered 2-source
// scene is chunk-size invariant end to end — however the multichannel audio is cut
// into streaming pushes, the session emits byte-identical events. The scene is
// rendered once (it is deterministic) and shared across proptest cases.
mod multi_source_pipeline {
    use super::*;
    use ispot::core::api::PipelineBuilder;
    use ispot::roadsim::engine::{MultichannelAudio, Simulator};
    use ispot::roadsim::geometry::Position;
    use ispot::roadsim::microphone::MicrophoneArray;
    use ispot::roadsim::scene::SceneBuilder;
    use ispot::roadsim::source::SoundSource;
    use ispot::roadsim::trajectory::Trajectory;
    use ispot::sed::sirens::{SirenKind, SirenSynthesizer};
    use std::sync::OnceLock;

    fn array() -> MicrophoneArray {
        MicrophoneArray::circular(4, 0.2, Position::new(0.0, 0.0, 1.0))
    }

    fn rendered_scene() -> &'static MultichannelAudio {
        static AUDIO: OnceLock<MultichannelAudio> = OnceLock::new();
        AUDIO.get_or_init(|| {
            let fs = 16_000.0;
            let siren = SirenSynthesizer::new(SirenKind::Yelp, fs).synthesize(1.0);
            let masker: Vec<f64> =
                ispot::dsp::generator::NoiseSource::new(ispot::dsp::generator::NoiseKind::Pink, 5)
                    .take(16_000)
                    .collect();
            let scene = SceneBuilder::new(fs)
                .source(
                    SoundSource::new(
                        siren,
                        Trajectory::linear(
                            Position::new(-8.0, 5.0, 1.0),
                            Position::new(8.0, 5.0, 1.0),
                            16.0,
                        ),
                    )
                    .with_gain(2.0),
                )
                .source(
                    SoundSource::new(masker, Trajectory::fixed(Position::new(10.0, -7.0, 0.8)))
                        .with_gain(0.2),
                )
                .array(array())
                .reflection(true)
                .air_absorption(false)
                .filter_taps(33)
                .build()
                .expect("valid scene");
            Simulator::new(scene)
                .expect("valid simulator")
                .run()
                .expect("render succeeds")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn multi_source_scene_is_chunk_invariant_through_the_pipeline(
            cuts in prop::collection::vec(1usize..5000, 2..16),
        ) {
            let audio = rendered_scene();
            let fs = audio.sample_rate();
            let engine = PipelineBuilder::new(fs).array(&array()).build_engine().unwrap();

            let mut batch = engine.open_session();
            let mut batch_events = Vec::new();
            batch.process_recording_with(audio, &mut batch_events).unwrap();
            prop_assert!(!batch_events.is_empty(), "scene produces events");

            let mut streaming = engine.open_session();
            let mut events = Vec::new();
            let mut pos = 0usize;
            let mut cut_iter = cuts.iter().cycle();
            let len = audio.len();
            while pos < len {
                let take = (*cut_iter.next().unwrap()).min(len - pos);
                let chunk: Vec<&[f64]> = audio
                    .channels()
                    .iter()
                    .map(|ch| &ch[pos..pos + take])
                    .collect();
                streaming.push_chunk_with(&chunk, &mut events).unwrap();
                pos += take;
            }

            prop_assert_eq!(events.len(), batch_events.len());
            for (a, b) in batch_events.iter().zip(&events) {
                prop_assert_eq!(a, b);
            }
        }
    }
}
