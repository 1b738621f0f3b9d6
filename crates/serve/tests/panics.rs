//! Fault containment: a panicking sink costs its own stream, never the host.
//! The worker that caught the panic quarantines the stream (its session and
//! sink dropped, its queued chunks discarded and counted, later pushes refused
//! with a typed error) and goes on serving every other stream.

use ispot_core::prelude::*;
use ispot_serve::prelude::*;
use std::time::Duration;

/// Panics on the first completed frame.
struct PanickingSink;

impl EventSink for PanickingSink {
    fn on_event(&mut self, _event: &PerceptionEvent) {}

    fn on_frame(&mut self, _outcome: &FrameOutcome) {
        panic!("sink failure on the first frame");
    }
}

#[test]
fn a_panicking_sink_quarantines_its_stream_and_the_host_keeps_serving() {
    let engine = PipelineBuilder::new(16_000.0)
        .channels(1)
        .build_engine()
        .unwrap();
    // One worker: if the panic killed it, stream B would never be served.
    let host = SessionHost::new(
        engine,
        HostConfig {
            workers: 1,
            max_sessions: 2,
            start_paused: true,
            ..HostConfig::default()
        },
    )
    .unwrap();
    let a = host.open_stream(PanickingSink).unwrap();
    let b = host.open_stream(DiscardSink).unwrap();
    let chunk = vec![0.25f64; 512];
    // A: the 4th chunk completes frame 0 and panics; the 5th and 6th are
    // still queued behind it. B queues one frame's worth after A.
    for _ in 0..6 {
        host.push_chunk(a, &[&chunk]).unwrap();
    }
    for _ in 0..4 {
        host.push_chunk(b, &[&chunk]).unwrap();
    }
    host.resume();
    assert!(
        host.wait_idle(Duration::from_secs(2)),
        "the host stalled behind the panicking stream"
    );

    let stats = host.stream_stats(a).unwrap();
    assert!(stats.quarantined);
    assert_eq!((stats.queued, stats.frames, stats.chunks_in), (0, 0, 6));
    assert_eq!(host.push_chunk(a, &[&chunk]), Err(SubmitError::Quarantined));
    let metrics = host.metrics();
    assert_eq!(metrics.worker_panics, 1);
    assert_eq!(metrics.chunks_discarded, 2, "A's queued chunks");
    assert_eq!(metrics.queue_depth, 0);

    // B's frames keep advancing on the same worker.
    assert_eq!(host.stream_stats(b).unwrap().frames, 1);
    for _ in 0..4 {
        host.push_chunk(b, &[&chunk]).unwrap();
    }
    assert!(host.wait_idle(Duration::from_secs(2)));
    let stats = host.stream_stats(b).unwrap();
    assert_eq!(stats.frames, 3);
    assert!(!stats.quarantined);

    // The quarantined stream still closes cleanly, and its slot reopens
    // healthy.
    assert!(host.close_stream(a).unwrap().quarantined);
    let c = host.open_stream(DiscardSink).unwrap();
    host.push_chunk(c, &[&chunk]).unwrap();
    assert!(!host.stream_stats(c).unwrap().quarantined);
    assert!(host
        .render_prometheus()
        .contains("ispot_worker_panics_total 1"));
}
