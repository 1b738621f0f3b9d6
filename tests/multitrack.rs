//! Multi-target tracking invariants at the whole-pipeline level:
//!
//! * **equivalence pin** — on a single-source scene, the multi-track path must
//!   reproduce the pre-multi-track behaviour exactly: `azimuth_deg` is the SRP
//!   peak and `tracked_azimuth_deg` equals what a bare [`AzimuthKalmanTracker`]
//!   produces when fed those very peaks (the old single-track stage was exactly
//!   that filter);
//! * **chunk-size invariance of identities** — however the audio is cut into
//!   streaming pushes, every event's track list (ids included) is identical.

use ispot::core::api::PipelineBuilder;
use ispot::roadsim::engine::{MultichannelAudio, Simulator};
use ispot::roadsim::geometry::Position;
use ispot::roadsim::microphone::MicrophoneArray;
use ispot::roadsim::scene::SceneBuilder;
use ispot::roadsim::source::SoundSource;
use ispot::roadsim::trajectory::Trajectory;
use ispot::sed::sirens::{SirenKind, SirenSynthesizer};
use ispot::ssl::tracking::AzimuthKalmanTracker;
use proptest::prelude::*;
use std::sync::OnceLock;

fn array() -> MicrophoneArray {
    MicrophoneArray::circular(6, 0.2, Position::new(0.0, 0.0, 1.0))
}

/// One deterministic single-source drive-by, rendered once and shared.
fn rendered_single_source() -> &'static MultichannelAudio {
    static AUDIO: OnceLock<MultichannelAudio> = OnceLock::new();
    AUDIO.get_or_init(|| {
        let fs = 16_000.0;
        let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(1.5);
        let scene = SceneBuilder::new(fs)
            .source(SoundSource::new(
                siren,
                Trajectory::linear(
                    Position::new(-12.0, 8.0, 1.0),
                    Position::new(12.0, 8.0, 1.0),
                    16.0,
                ),
            ))
            .array(array())
            .reflection(false)
            .air_absorption(false)
            .build()
            .expect("valid scene");
        Simulator::new(scene)
            .expect("valid simulator")
            .run()
            .expect("render succeeds")
    })
}

/// A clean static single-source scene (no reflections, stable bearing): here
/// the multi-track path must be indistinguishable from the old single-track
/// stage, frame for frame, bit for bit.
fn rendered_static_source() -> &'static MultichannelAudio {
    static AUDIO: OnceLock<MultichannelAudio> = OnceLock::new();
    AUDIO.get_or_init(|| {
        let fs = 16_000.0;
        let az = 40.0_f64.to_radians();
        let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(1.5);
        let scene = SceneBuilder::new(fs)
            .source(SoundSource::new(
                siren,
                Trajectory::fixed(Position::new(18.0 * az.cos(), 18.0 * az.sin(), 1.0)),
            ))
            .array(array())
            .reflection(false)
            .air_absorption(false)
            .build()
            .expect("valid scene");
        Simulator::new(scene)
            .expect("valid simulator")
            .run()
            .expect("render succeeds")
    })
}

/// The equivalence pin as a plain test: the multi-track path on a single-source
/// scene reports exactly what the old single-tracker stage would have.
#[test]
fn single_source_multi_track_path_matches_single_tracker() {
    let audio = rendered_static_source();
    let fs = audio.sample_rate();
    let mut session = PipelineBuilder::new(fs)
        .array(&array())
        .build()
        .expect("valid pipeline");
    let mut events = Vec::new();
    session
        .process_recording_with(audio, &mut events)
        .expect("runs");
    assert!(!events.is_empty(), "scene produces events");
    // The pre-PR tracking stage was a bare constant-velocity Kalman filter fed
    // with the per-frame SRP peak (the same process/measurement noise the
    // default TrackingConfig carries). Replaying the emitted raw peaks through
    // that filter must reproduce every tracked azimuth bit for bit.
    let mut reference = AzimuthKalmanTracker::new(1.0, 36.0);
    let mut compared = 0;
    for event in &events {
        let (Some(raw), Some(tracked)) = (event.azimuth_deg, event.tracked_azimuth_deg) else {
            continue;
        };
        let expected = reference.update(raw).azimuth_deg;
        assert_eq!(
            tracked, expected,
            "t={:.2}s: multi-track best {tracked} != single-tracker {expected}",
            event.time_s
        );
        compared += 1;
        // And the track list view agrees with the legacy fields: one dominant
        // track carrying the same bearing.
        assert!(!event.tracks.is_empty());
        assert_eq!(event.tracks[0].azimuth_deg, tracked);
    }
    assert!(compared > 10, "only {compared} events compared");
    // A single source must never fork identities: every event's best track is
    // the same id.
    let first_id = events
        .iter()
        .find_map(|e| e.tracks.first().map(|t| t.id))
        .expect("an event with a track");
    for event in &events {
        if let Some(best) = event.tracks.first() {
            assert_eq!(best.id, first_id, "best-track identity changed");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chunk-size invariance of the full multi-track event payload: however the
    /// recording is cut into streaming pushes, the emitted events — including
    /// every track snapshot and its id — are byte-identical to the batch run.
    #[test]
    fn track_ids_are_chunk_size_invariant(
        cuts in prop::collection::vec(1usize..5000, 2..16),
    ) {
        let audio = rendered_single_source();
        let fs = audio.sample_rate();
        let engine = PipelineBuilder::new(fs).array(&array()).build_engine().unwrap();

        let mut batch = engine.open_session();
        let mut batch_events = Vec::new();
        batch.process_recording_with(audio, &mut batch_events).unwrap();
        prop_assert!(!batch_events.is_empty());

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
            // PartialEq on PerceptionEvent covers the track list, but compare
            // the identity-bearing fields explicitly for a sharp message.
            let ta: Vec<_> = a.tracks.iter().map(|t| (t.id, t.azimuth_deg, t.status)).collect();
            let tb: Vec<_> = b.tracks.iter().map(|t| (t.id, t.azimuth_deg, t.status)).collect();
            prop_assert_eq!(ta, tb);
            prop_assert_eq!(a, b);
        }
    }
}
