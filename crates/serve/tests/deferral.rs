//! Per-frame wake-ups: a chunk that completes no frame of its stream's session
//! waits in the ring without waking a worker and drains, in order, with the
//! chunk that completes the frame. Deferral must never cost a producer a
//! `Busy`, never reorder or change a stream's output, and never strand a
//! chunk: `wait_idle` drains deferred chunks and `close_stream` counts them.

use ispot_core::prelude::*;
use ispot_sed::sirens::{SirenKind, SirenSynthesizer};
use ispot_serve::prelude::*;
use std::time::{Duration, Instant};

const FS: f64 = 16_000.0;

/// The default framing: 2048-sample frames every 1024 samples.
fn engine() -> Engine {
    PipelineBuilder::new(FS).channels(1).build_engine().unwrap()
}

fn host(ring_capacity: usize, max_chunk_len: usize) -> SessionHost {
    SessionHost::new(
        engine(),
        HostConfig {
            workers: 1,
            max_sessions: 2,
            ring_capacity,
            max_chunk_len,
            ..HostConfig::default()
        },
    )
    .unwrap()
}

/// Waits until the worker has fully processed every due chunk of `id`, the
/// host's only stream with chunks in flight, leaving only deferred ones. The
/// queue depth is read before the stream's statistics, so the statistics
/// returned include every chunk that depth counts as complete.
fn settle(host: &SessionHost, id: StreamId) -> StreamStats {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let in_flight = host.metrics().queue_depth;
        let stats = host.stream_stats(id).unwrap();
        if in_flight == stats.deferred {
            return stats;
        }
        assert!(Instant::now() < deadline, "due chunks never drained");
        std::thread::sleep(Duration::from_micros(50));
    }
}

#[test]
fn chunks_that_complete_no_frame_wait_for_the_one_that_does() {
    // A ring of 16 defers up to 4 chunks; 512-sample chunks complete frame 0
    // on the 4th push and every later frame on every 2nd.
    let host = host(16, 512);
    let sink = SharedVecSink::new();
    let id = host.open_stream(sink.clone()).unwrap();
    let siren = SirenSynthesizer::new(SirenKind::Wail, FS).synthesize(1.0);
    let chunks: Vec<&[f64]> = siren.chunks_exact(512).collect();

    for (pushed, &chunk) in chunks[..3].iter().enumerate() {
        host.push_chunk(id, &[chunk]).unwrap();
        let stats = host.stream_stats(id).unwrap();
        assert_eq!((stats.queued, stats.deferred), (pushed + 1, pushed + 1));
    }
    // No worker was woken for them: they are still queued a while later.
    std::thread::sleep(Duration::from_millis(20));
    let stats = host.stream_stats(id).unwrap();
    assert_eq!((stats.queued, stats.deferred, stats.frames), (3, 3, 0));

    // The chunk that completes frame 0 drains all four.
    host.push_chunk(id, &[chunks[3]]).unwrap();
    let stats = settle(&host, id);
    assert_eq!((stats.queued, stats.deferred, stats.frames), (0, 0, 1));

    for &chunk in &chunks[4..] {
        host.push_chunk(id, &[chunk]).unwrap();
        let stats = settle(&host, id);
        assert!(stats.deferred <= 1, "{stats:?}");
    }
    assert!(host.wait_idle(Duration::from_secs(10)));

    // In order: the hosted stream's events are bit-identical to a bare
    // session fed the same chunks.
    let mut session = engine().open_session();
    let mut reference = Vec::new();
    let mut frames = 0;
    for &chunk in &chunks {
        frames += session.push_chunk_with(&[chunk], &mut reference).unwrap();
    }
    let stats = host.close_stream(id).unwrap();
    assert_eq!(stats.frames, frames as u64);
    assert!(!reference.is_empty(), "the siren fired no events");
    assert_eq!(sink.snapshot(), reference);
}

#[test]
fn small_chunks_never_fill_the_ring_before_the_first_frame() {
    // 160-sample blocks: 13 chunks come before frame 0 completes, more than
    // the ring holds. The quarter bound drains the ring at 3 chunks.
    let host = host(8, 160);
    let id = host.open_stream(DiscardSink).unwrap();
    let chunk = vec![0.25f64; 160];
    for pushed in 1..=40 {
        host.push_chunk(id, &[&chunk])
            .unwrap_or_else(|e| panic!("chunk {pushed} refused: {e}"));
        let stats = settle(&host, id);
        if pushed == 12 {
            assert_eq!(stats.frames, 0);
        }
        if pushed == 13 {
            assert_eq!(stats.frames, 1);
        }
    }
    assert!(host.wait_idle(Duration::from_secs(10)));
    let stats = host.close_stream(id).unwrap();
    assert_eq!(stats.chunks_busy, 0);
    // 40 × 160 = 6400 samples: frames end at 2048 + k·1024 ≤ 6400.
    assert_eq!(stats.frames, 5);
}

#[test]
fn a_last_chunk_that_completes_no_frame_is_drained_or_counted() {
    let host = host(16, 512);
    let chunk = vec![0.25f64; 512];

    // Three chunks, none completing frame 0: no worker is woken for them.
    let drained = host.open_stream(DiscardSink).unwrap();
    for _ in 0..3 {
        host.push_chunk(drained, &[&chunk]).unwrap();
    }
    let stats = host.stream_stats(drained).unwrap();
    assert_eq!((stats.queued, stats.deferred), (3, 3));
    assert_eq!(host.metrics().queue_depth, 3);
    // `wait_idle` schedules them rather than waiting for a frame...
    assert!(host.wait_idle(Duration::from_secs(10)));
    let stats = host.stream_stats(drained).unwrap();
    assert_eq!((stats.queued, stats.deferred, stats.frames), (0, 0, 0));
    assert_eq!(host.metrics().queue_depth, 0);
    // ...and they reached the session: the 4th chunk completes frame 0.
    host.push_chunk(drained, &[&chunk]).unwrap();
    assert_eq!(settle(&host, drained).frames, 1);
    host.close_stream(drained).unwrap();
    assert_eq!(host.metrics().chunks_discarded, 0);

    // A stream closed without `wait_idle`: its deferred chunks are discarded
    // and counted, never lost silently.
    let closed = host.open_stream(DiscardSink).unwrap();
    for _ in 0..2 {
        host.push_chunk(closed, &[&chunk]).unwrap();
    }
    assert_eq!(host.stream_stats(closed).unwrap().deferred, 2);
    assert_eq!(host.close_stream(closed).unwrap().chunks_in, 2);
    let metrics = host.metrics();
    assert_eq!(metrics.chunks_discarded, 2);
    assert_eq!(metrics.queue_depth, 0);
    assert_eq!(metrics.chunks_in, 6);
}
