//! Hosted determinism: a stream's event sequence is a function of its audio
//! alone. The same recording pushed through [`SessionHost`]s with 1, 2 and 8
//! workers — and under different chunk sizes and push interleavings — must
//! yield event sequences bit-identical to a bare [`Session`] processing the
//! recording directly. Runs repeat with pipeline tracing enabled
//! (`span_capacity > 0`): observation must never change what is observed.
//!
//! The driver keeps each stream's ring drained below the shed watermark, so
//! the load controller stays at full fidelity throughout: degrade decisions
//! are the one intentional cross-stream coupling and are exercised separately
//! in `overload.rs`.

use ispot_core::events::PerceptionEvent;
use ispot_core::prelude::*;
use ispot_roadsim::engine::{MultichannelAudio, Simulator};
use ispot_roadsim::geometry::Position;
use ispot_roadsim::microphone::MicrophoneArray;
use ispot_roadsim::scene::SceneBuilder;
use ispot_roadsim::source::SoundSource;
use ispot_roadsim::trajectory::Trajectory;
use ispot_sed::sirens::{SirenKind, SirenSynthesizer};
use ispot_serve::prelude::*;
use std::time::Duration;

const FS: f64 = 16_000.0;

fn array() -> MicrophoneArray {
    MicrophoneArray::circular(4, 0.2, Position::new(0.0, 0.0, 1.0))
}

/// One second of a wail siren moving past the array — loud enough that most
/// frames emit an event, so the comparison covers azimuths and track lists.
fn siren_audio() -> MultichannelAudio {
    let siren = SirenSynthesizer::new(SirenKind::Wail, FS).synthesize(1.0);
    let scene = SceneBuilder::new(FS)
        .source(SoundSource::new(
            siren,
            Trajectory::linear(
                Position::new(-10.0, 8.0, 1.0),
                Position::new(10.0, 8.0, 1.0),
                20.0,
            ),
        ))
        .array(array())
        .reflection(false)
        .air_absorption(false)
        .build()
        .unwrap();
    Simulator::new(scene).unwrap().run().unwrap()
}

/// Splits `[0, len)` into chunk spans, cycling through `sizes`.
fn chunk_spans(len: usize, sizes: &[usize]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while start < len {
        let end = (start + sizes[i % sizes.len()]).min(len);
        spans.push((start, end));
        start = end;
        i += 1;
    }
    spans
}

/// Ground truth: a bare session fed the whole recording at once.
fn reference_events(engine: &Engine, audio: &MultichannelAudio) -> Vec<PerceptionEvent> {
    let mut session = engine.open_session();
    let mut sink = VecSink::new();
    session.process_recording_with(audio, &mut sink).unwrap();
    sink.into_events()
}

/// Pushes the recording into `streams` hosted streams chunk-by-chunk and
/// returns each stream's collected events. `reverse_order` flips the
/// per-round stream visiting order to vary the cross-stream interleaving.
fn hosted_events(
    engine: &Engine,
    audio: &MultichannelAudio,
    workers: usize,
    streams: usize,
    sizes: &[usize],
    reverse_order: bool,
    span_capacity: usize,
) -> Vec<Vec<PerceptionEvent>> {
    let host = SessionHost::new(
        engine.clone(),
        HostConfig {
            workers,
            max_sessions: streams,
            span_capacity,
            ..HostConfig::default()
        },
    )
    .unwrap();
    let sinks: Vec<SharedVecSink> = (0..streams).map(|_| SharedVecSink::new()).collect();
    let ids: Vec<StreamId> = sinks
        .iter()
        .map(|sink| host.open_stream(sink.clone()).unwrap())
        .collect();

    let channels = audio.channels();
    let samples = channels[0].len();
    for (start, end) in chunk_spans(samples, sizes) {
        let mut order: Vec<usize> = (0..streams).collect();
        if reverse_order {
            order.reverse();
        }
        for s in order {
            // Keep every ring drained of due work before pushing: only a
            // quarter ring (2 chunks) may stay deferred, so aggregate depth
            // stays at ≤ 3 × `streams` chunks, below the shed watermark, and
            // Busy can never fire — this run must exercise only the happy path.
            while host
                .stream_stats(ids[s])
                .map(|stats| stats.queued > stats.deferred)
                .unwrap()
            {
                std::thread::sleep(Duration::from_micros(20));
            }
            let views: Vec<&[f64]> = channels.iter().map(|c| &c[start..end]).collect();
            host.push_chunk(ids[s], &views).unwrap();
        }
    }
    assert!(
        host.wait_idle(Duration::from_secs(120)),
        "host never drained"
    );
    assert_eq!(host.metrics().degrade_level, DegradeLevel::Full);
    assert_eq!(host.metrics().sheds, 0, "driver load crossed a watermark");
    for id in ids {
        host.close_stream(id).unwrap();
    }
    sinks.iter().map(|s| s.snapshot()).collect()
}

#[test]
fn per_stream_events_are_bit_identical_across_worker_counts_and_interleavings() {
    let audio = siren_audio();
    let engine = PipelineBuilder::new(FS)
        .array(&array())
        .build_engine()
        .unwrap();
    let reference = reference_events(&engine, &audio);
    assert!(
        reference.iter().any(|e| e.azimuth_deg.is_some()),
        "reference run produced no localized events — the comparison would be vacuous"
    );

    let runs = [
        // (workers, streams, chunk sizes, reversed order, span capacity)
        (1, 3, vec![512], false, 0),
        (2, 3, vec![512], false, 0),
        (8, 3, vec![512], false, 0),
        // Ragged chunk sizes and flipped stream order: the interleaving
        // changes completely, the events must not.
        (8, 3, vec![160, 512, 352], true, 0),
        // Tracing enabled: the observer watches the pipeline but must not
        // perturb it — output stays bit-identical to the untraced reference.
        (2, 3, vec![512], false, 128),
        (8, 3, vec![160, 512, 352], true, 128),
    ];
    for (workers, streams, sizes, reversed, spans) in runs {
        let per_stream = hosted_events(&engine, &audio, workers, streams, &sizes, reversed, spans);
        for (s, events) in per_stream.iter().enumerate() {
            assert_eq!(
                events, &reference,
                "stream {s} diverged from the reference at {workers} workers, \
                 chunk sizes {sizes:?}, reversed={reversed}, span_capacity={spans}"
            );
        }
    }
}
