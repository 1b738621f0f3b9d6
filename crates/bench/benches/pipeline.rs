//! Criterion bench for experiment E6: end-to-end frame processing latency of the
//! perception pipeline (detection-only vs detection + localization), plus the
//! streaming-vs-batch comparison backing the zero-allocation streaming claim.

use criterion::{criterion_group, criterion_main, Criterion};
use ispot_bench::{simulate_static_source, SAMPLE_RATE};
use ispot_core::prelude::*;
use std::hint::black_box;
use std::time::Duration;

fn bench_pipeline(c: &mut Criterion) {
    let (audio, array) = simulate_static_source(45.0, 20.0, 4, 8192, 9);
    let mut detection_only = PipelineBuilder::new(SAMPLE_RATE)
        .channels(4)
        .build()
        .unwrap();
    let mut full = PipelineBuilder::new(SAMPLE_RATE)
        .array(&array)
        .build()
        .unwrap();
    let frame: Vec<&[f64]> = audio.channels().iter().map(|c| &c[4096..6144]).collect();

    let mut group = c.benchmark_group("pipeline_frame");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    let mut latest = LatestEvent::new();
    group.bench_function("detection_only", |b| {
        b.iter(|| {
            black_box(
                detection_only
                    .process_frame_with(black_box(&frame), 0, &mut latest)
                    .unwrap(),
            )
        })
    });
    group.bench_function("detection_and_localization", |b| {
        b.iter(|| {
            black_box(
                full.process_frame_with(black_box(&frame), 0, &mut latest)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

/// Streaming (`push_chunk_with` with capture-sized chunks) against batch
/// (`process_recording_with`) over the same recording, into the same sink. The
/// two process identical frames through identical stages, so any gap between
/// them is pure framing overhead; with the preallocated assembler lending each
/// frame in place the streaming path should sit within noise of batch — this
/// bench is the regression guard for the zero-per-frame-allocation property of
/// the mixdown/framing path.
fn bench_streaming_vs_batch(c: &mut Criterion) {
    let (audio, _array) = simulate_static_source(30.0, 20.0, 2, 32_768, 11);
    let engine = PipelineBuilder::new(SAMPLE_RATE)
        .channels(2)
        .build_engine()
        .unwrap();
    let channels: Vec<&[f64]> = audio.channels().iter().map(|c| c.as_slice()).collect();
    let len = audio.len();

    let mut group = c.benchmark_group("pipeline_streaming");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    group.bench_function("batch_process_recording", |b| {
        let mut pipeline = engine.open_session();
        let mut sink = AlertCounter::new();
        b.iter(|| {
            black_box(
                pipeline
                    .process_recording_with(black_box(&audio), &mut sink)
                    .unwrap(),
            )
        })
    });
    // 160 samples = one 10 ms capture block at 16 kHz, the awkward driver-sized
    // chunking the FrameAssembler exists to absorb.
    for chunk_len in [160usize, 1024, 4096] {
        group.bench_function(format!("push_chunk_{chunk_len}"), |b| {
            let mut pipeline = engine.open_session();
            // A fixed-size sink: the steady-state streaming path allocates
            // nothing, so the bench measures pure analysis + framing cost.
            let mut sink = AlertCounter::new();
            b.iter(|| {
                pipeline.reset_streaming();
                let mut frames = 0;
                let mut start = 0;
                while start < len {
                    let end = (start + chunk_len).min(len);
                    let chunk = [&channels[0][start..end], &channels[1][start..end]];
                    frames += pipeline
                        .push_chunk_with(black_box(&chunk), &mut sink)
                        .unwrap();
                    start = end;
                }
                black_box(frames)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_streaming_vs_batch);
criterion_main!(benches);
