//! Backpressure and registry contracts of the host: bounded rings reject with
//! typed `Busy` (never block, never drop silently), shape and identity errors
//! are caller bugs surfaced before anything is enqueued, and every accepted
//! chunk is either processed or counted as discarded at close.

use ispot_core::prelude::*;
use ispot_serve::prelude::*;
use std::time::{Duration, Instant};

const FS: f64 = 16_000.0;

fn engine(channels: usize) -> Engine {
    PipelineBuilder::new(FS)
        .channels(channels)
        .build_engine()
        .unwrap()
}

/// A paused two-stream host: stream A's ring can be filled to the brim while
/// aggregate depth stays below the intake watermark, isolating `Busy`.
fn paused_host() -> (SessionHost, StreamId, StreamId) {
    let host = SessionHost::new(
        engine(1),
        HostConfig {
            workers: 1,
            max_sessions: 2,
            ring_capacity: 4,
            max_chunk_len: 256,
            start_paused: true,
            ..HostConfig::default()
        },
    )
    .unwrap();
    let a = host.open_stream(DiscardSink).unwrap();
    let b = host.open_stream(DiscardSink).unwrap();
    (host, a, b)
}

#[test]
fn full_ring_returns_busy_and_nothing_is_lost() {
    let (host, a, _b) = paused_host();
    let chunk = vec![0.5f64; 256];
    // Fill stream A's ring exactly: 4/8 aggregate = 50%, below every watermark.
    for _ in 0..4 {
        host.push_chunk(a, &[&chunk]).unwrap();
    }
    assert_eq!(host.degrade_level(), DegradeLevel::Full);
    // The 5th chunk comes back typed — not blocked, not dropped, not enqueued.
    assert_eq!(
        host.push_chunk(a, &[&chunk]),
        Err(SubmitError::Busy { queued: 4 })
    );
    assert!(SubmitError::Busy { queued: 4 }.is_transient());
    let stats = host.stream_stats(a).unwrap();
    assert_eq!(stats.queued, 4);
    assert_eq!(stats.chunks_in, 4);
    assert_eq!(stats.chunks_busy, 1);

    // Drain, then the retry goes through: backpressure is recoverable.
    host.resume();
    assert!(host.wait_idle(Duration::from_secs(60)));
    host.push_chunk(a, &[&chunk]).unwrap();
    assert!(host.wait_idle(Duration::from_secs(60)));

    // Full accounting: 5 accepted, 1 rejected, zero silent drops. 5 × 256
    // samples = 1280 < one 2048-sample frame, so no frame completed yet and
    // every accepted sample is sitting in the session's assembler.
    let metrics = host.metrics();
    assert_eq!(metrics.chunks_in, 5);
    assert_eq!(metrics.chunks_busy, 1);
    assert_eq!(metrics.chunks_discarded, 0);
    assert_eq!(metrics.queue_depth, 0);
    let stats = host.stream_stats(a).unwrap();
    assert_eq!(stats.chunks_in, 5);
    assert_eq!(stats.errors, 0);
}

#[test]
fn shape_and_identity_errors_are_typed_and_nothing_is_enqueued() {
    let (host, a, _b) = paused_host();
    let chunk = vec![0.0f64; 256];
    let long = vec![0.0f64; 257];
    let short = vec![0.0f64; 8];

    assert_eq!(
        host.push_chunk(a, &[&chunk, &chunk]),
        Err(SubmitError::ChannelMismatch {
            expected: 1,
            actual: 2
        })
    );
    assert_eq!(
        host.push_chunk(a, &[&long]),
        Err(SubmitError::ChunkTooLong {
            samples: 257,
            max: 256
        })
    );
    // A ragged chunk needs ≥ 2 channels; build a 2-channel host for it.
    let two = SessionHost::new(engine(2), HostConfig::default()).unwrap();
    let t = two.open_stream(DiscardSink).unwrap();
    assert_eq!(
        two.push_chunk(t, &[&chunk, &short]),
        Err(SubmitError::RaggedChunk)
    );
    // None of the rejections enqueued anything.
    assert_eq!(host.stream_stats(a).unwrap().queued, 0);
    assert_eq!(host.metrics().chunks_in, 0);
}

#[test]
fn stale_ids_and_capacity_are_enforced() {
    let host = SessionHost::new(
        engine(1),
        HostConfig {
            max_sessions: 2,
            ..HostConfig::default()
        },
    )
    .unwrap();
    let a = host.open_stream(DiscardSink).unwrap();
    let b = host.open_stream(DiscardSink).unwrap();
    assert!(matches!(
        host.open_stream(DiscardSink),
        Err(ServeError::AtCapacity { max_sessions: 2 })
    ));

    host.close_stream(a).unwrap();
    // The slot is recycled, but the old id's generation is gone forever.
    let c = host.open_stream(DiscardSink).unwrap();
    let chunk = vec![0.0f64; 128];
    assert_eq!(
        host.push_chunk(a, &[&chunk]),
        Err(SubmitError::UnknownStream)
    );
    assert!(matches!(
        host.close_stream(a),
        Err(ServeError::UnknownStream)
    ));
    assert!(matches!(
        host.stream_stats(a),
        Err(ServeError::UnknownStream)
    ));
    // The new occupant is unaffected.
    host.push_chunk(c, &[&chunk]).unwrap();
    assert!(host.wait_idle(Duration::from_secs(60)));
    host.close_stream(b).unwrap();
    host.close_stream(c).unwrap();
    assert_eq!(host.metrics().sessions_open, 0);
}

#[test]
fn closing_a_loaded_stream_counts_discards_and_frees_the_queue() {
    let (host, a, b) = paused_host();
    let chunk = vec![0.25f64; 256];
    for _ in 0..3 {
        host.push_chunk(a, &[&chunk]).unwrap();
    }
    host.push_chunk(b, &[&chunk]).unwrap();
    assert_eq!(host.metrics().queue_depth, 4);

    // Closing A while its chunks are still queued: the discards are counted —
    // never silent — and the aggregate queue depth settles immediately.
    let stats = host.close_stream(a).unwrap();
    assert_eq!(stats.chunks_in, 3);
    let metrics = host.metrics();
    assert_eq!(metrics.chunks_discarded, 3);
    assert_eq!(metrics.queue_depth, 1);

    host.resume();
    assert!(host.wait_idle(Duration::from_secs(60)));
    assert_eq!(host.stream_stats(b).unwrap().chunks_in, 1);
    host.close_stream(b).unwrap();
}

#[test]
fn invalid_configurations_are_rejected_up_front() {
    let cases = [
        HostConfig {
            workers: 0,
            ..HostConfig::default()
        },
        HostConfig {
            max_sessions: 0,
            ..HostConfig::default()
        },
        HostConfig {
            ring_capacity: 0,
            ..HostConfig::default()
        },
        HostConfig {
            max_chunk_len: 0,
            ..HostConfig::default()
        },
        HostConfig {
            policy: LoadPolicy {
                shed_low: 0.9,
                ..LoadPolicy::default()
            },
            ..HostConfig::default()
        },
    ];
    for config in cases {
        assert!(
            matches!(
                SessionHost::new(engine(1), config),
                Err(ServeError::InvalidConfig { .. })
            ),
            "{config:?} accepted"
        );
    }
}

#[test]
fn host_sustains_256_concurrent_streams() {
    let host = SessionHost::new(
        engine(1),
        HostConfig {
            workers: 4,
            max_sessions: 256,
            ..HostConfig::default()
        },
    )
    .unwrap();
    let counter = CountingSink::new();
    let ids: Vec<StreamId> = (0..256)
        .map(|_| host.open_stream(counter.clone()).unwrap())
        .collect();
    assert_eq!(host.metrics().sessions_open, 256);

    // Four 512-sample chunks per stream = exactly one 2048-sample frame each.
    let chunk = vec![0.1f64; 512];
    for _ in 0..4 {
        for id in &ids {
            loop {
                match host.push_chunk(*id, &[&chunk]) {
                    Ok(()) => break,
                    Err(e) if e.is_transient() => std::thread::sleep(Duration::from_micros(50)),
                    Err(e) => panic!("unexpected rejection: {e}"),
                }
            }
        }
    }
    assert!(host.wait_idle(Duration::from_secs(120)));
    assert_eq!(counter.frames(), 256);
    let metrics = host.metrics();
    assert_eq!(metrics.frames, 256);
    assert_eq!(metrics.errors, 0);
    for id in ids {
        host.close_stream(id).unwrap();
    }
    assert_eq!(host.metrics().sessions_open, 0);
}

/// Drops `host` on a helper thread and reports whether the drop finished
/// within `limit`: a worker that misses the shutdown wake-up blocks it forever.
fn drops_within(host: SessionHost, limit: Duration) -> bool {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(host);
        let _ = done_tx.send(());
    });
    let done = done_rx.recv_timeout(limit).is_ok();
    if done {
        dropper.join().expect("host drop panicked");
    }
    done
}

/// The dispatch queue's two wake-ups: a push that completes a frame wakes an
/// idle worker, and dropping the host wakes blocked workers, paused or not.
/// Losing either would hang rather than fail, so both are bounded here. The
/// first is checked on the stream's frame count, not with `wait_idle`, whose
/// flush of deferred chunks would schedule the slot itself and hide a lost
/// wake-up.
#[test]
fn blocked_workers_wake_for_a_push_and_for_shutdown() {
    // Four idle workers, blocked on an empty ready queue for a while. A ring
    // of 16 defers up to 4 chunks, so the three chunks before the one that
    // completes frame 0 wake nobody.
    let host = SessionHost::new(
        engine(1),
        HostConfig {
            workers: 4,
            ring_capacity: 16,
            ..HostConfig::default()
        },
    )
    .unwrap();
    let id = host.open_stream(DiscardSink).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let chunk = vec![0.5f64; 512];
    for _ in 0..3 {
        host.push_chunk(id, &[&chunk]).unwrap();
    }
    assert_eq!(host.stream_stats(id).unwrap().deferred, 3);
    host.push_chunk(id, &[&chunk]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while host.stream_stats(id).unwrap().frames < 1 {
        assert!(
            Instant::now() < deadline,
            "a push that completes a frame never woke an idle worker"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(host.stream_stats(id).unwrap().frames, 1);
    assert!(
        drops_within(host, Duration::from_secs(5)),
        "dropping an idle host never woke its workers"
    );

    // A paused pool with queued chunks, dropped without `resume`.
    let paused = SessionHost::new(
        engine(1),
        HostConfig {
            workers: 4,
            start_paused: true,
            ..HostConfig::default()
        },
    )
    .unwrap();
    let id = paused.open_stream(DiscardSink).unwrap();
    for _ in 0..3 {
        paused.push_chunk(id, &[&vec![0.25f64; 512]]).unwrap();
    }
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        drops_within(paused, Duration::from_secs(5)),
        "dropping a paused host never woke its workers"
    );
}
