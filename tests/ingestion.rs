//! Property-based tests for the ingestion layer: every sample format and layout
//! of the same physical signal must produce identical perception events, and
//! different sinks on the chunked entry point must agree under any chunking.

use ispot::core::prelude::*;
use proptest::prelude::*;
use std::sync::OnceLock;

const FS: f64 = 16_000.0;

/// One engine for the whole file: template synthesis is the expensive part and
/// is exactly what sessions are meant to share.
fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        PipelineBuilder::new(FS)
            .channels(1)
            .build_engine()
            .expect("engine")
    })
}

/// A bank of deterministic signals with event content (sirens at various gains
/// over a noise floor), quantized to i16 so the same signal is exactly
/// representable in every supported format.
fn signal_bank() -> &'static Vec<Vec<i16>> {
    static BANK: OnceLock<Vec<Vec<i16>>> = OnceLock::new();
    BANK.get_or_init(|| {
        use ispot::sed::sirens::{SirenKind, SirenSynthesizer};
        [SirenKind::Wail, SirenKind::Yelp, SirenKind::HiLow]
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                SirenSynthesizer::new(kind, FS)
                    .synthesize(0.45)
                    .iter()
                    .map(|x| {
                        let gain = 0.35 + 0.2 * i as f64;
                        (x * gain * 32_000.0).round().clamp(-32768.0, 32767.0) as i16
                    })
                    .collect()
            })
            .collect()
    })
}

/// Streams `pcm` into a fresh session, cut at `cuts` (cycled), in the format
/// chosen by `feed`, returning (frames, events).
fn stream_with<F>(pcm: &[i16], cuts: &[usize], mut feed: F) -> (usize, Vec<PerceptionEvent>)
where
    F: FnMut(&mut Session, &[i16], &mut Vec<PerceptionEvent>) -> usize,
{
    let mut session = engine().open_session();
    let mut events = Vec::new();
    let mut frames = 0;
    let mut pos = 0;
    let mut cut_iter = cuts.iter().cycle();
    while pos < pcm.len() {
        let take = (*cut_iter.next().unwrap()).min(pcm.len() - pos);
        frames += feed(&mut session, &pcm[pos..pos + take], &mut events);
        pos += take;
    }
    (frames, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The satellite contract: interleaved-i16, interleaved-f32 and planar-f64
    /// presentations of the same signal produce identical events under
    /// independent random chunkings.
    #[test]
    fn sample_formats_and_layouts_produce_identical_events(
        which in 0usize..3,
        cuts_a in prop::collection::vec(1usize..1500, 1..8),
        cuts_b in prop::collection::vec(1usize..1500, 1..8),
    ) {
        let pcm = &signal_bank()[which];
        let (frames_ref, reference) = stream_with(pcm, &cuts_a, |s, block, events| {
            let as_f64: Vec<f64> = block.iter().map(|&v| v as f64 / 32768.0).collect();
            s.push_input_with(AudioInput::planar(&[&as_f64[..]]), events).unwrap()
        });
        prop_assert!(!reference.is_empty(), "bank signal fired no events");

        let (frames_i16, via_i16) = stream_with(pcm, &cuts_b, |s, block, events| {
            s.push_input_with(AudioInput::interleaved(block, 1), events).unwrap()
        });
        let (frames_f32, via_f32) = stream_with(pcm, &cuts_a, |s, block, events| {
            let as_f32: Vec<f32> = block.iter().map(|&v| (v as f64 / 32768.0) as f32).collect();
            s.push_input_with(AudioInput::interleaved(&as_f32, 1), events).unwrap()
        });

        prop_assert_eq!(frames_ref, frames_i16);
        prop_assert_eq!(frames_ref, frames_f32);
        prop_assert_eq!(&reference, &via_i16);
        prop_assert_eq!(&reference, &via_f32);
    }

    /// A closure sink and a `Vec` sink agree for any chunking, and both match
    /// batch processing of the whole stream.
    #[test]
    fn sink_and_vec_entry_points_agree_chunk_size_invariantly(
        which in 0usize..3,
        cuts in prop::collection::vec(1usize..2500, 1..10),
    ) {
        let pcm = &signal_bank()[which];
        let as_f64: Vec<f64> = pcm.iter().map(|&v| v as f64 / 32768.0).collect();

        // Whole stream in one push through the sink API (the batch reference).
        let mut batch = engine().open_session();
        let mut batch_sink = VecSink::new();
        let batch_frames = batch
            .push_chunk_with(&[&as_f64[..]], &mut batch_sink)
            .unwrap();

        // Random chunking through a closure sink...
        let (sink_frames, sink_events) = stream_with(pcm, &cuts, |s, block, events| {
            let chunk: Vec<f64> = block.iter().map(|&v| v as f64 / 32768.0).collect();
            let mut sink = FnSink(|event: &PerceptionEvent| events.push(event.clone()));
            s.push_chunk_with(&[&chunk[..]], &mut sink).unwrap()
        });
        // ...and the same chunking into a plain `Vec` sink.
        let (vec_frames, vec_events) = stream_with(pcm, &cuts, |s, block, events| {
            let chunk: Vec<f64> = block.iter().map(|&v| v as f64 / 32768.0).collect();
            s.push_chunk_with(&[&chunk[..]], events).unwrap()
        });

        prop_assert_eq!(batch_frames, sink_frames);
        prop_assert_eq!(batch_frames, vec_frames);
        prop_assert_eq!(batch_sink.events(), &sink_events[..]);
        prop_assert_eq!(&sink_events, &vec_events);
    }
}
