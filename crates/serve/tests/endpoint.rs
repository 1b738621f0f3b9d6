//! Integration test of the observability endpoint: boots a host with tracing
//! on, drives real siren audio through a stream, then speaks actual HTTP to
//! the exporter over a loopback socket — `/metrics` must expose the required
//! families with live values, `/snapshot` must parse as a sane JSON document,
//! and `/events` must deliver at least one SSE perception event.

use ispot_core::prelude::*;
use ispot_roadsim::geometry::Position;
use ispot_roadsim::microphone::MicrophoneArray;
use ispot_sed::sirens::{SirenKind, SirenSynthesizer};
use ispot_serve::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const FS: f64 = 16_000.0;
const CHUNK: usize = 512;

/// Sends one GET and reads the full response (the endpoint always closes the
/// connection, so read-to-EOF terminates).
fn get(addr: SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split")
        .1
}

/// A host with one stream that has fully processed one second of siren audio.
fn served_host() -> (SessionHost, StreamId, CountingSink) {
    let siren = SirenSynthesizer::new(SirenKind::Wail, FS).synthesize(1.0);
    let channels = [siren.clone(), siren];
    let array = MicrophoneArray::circular(2, 0.2, Position::new(0.0, 0.0, 1.0));
    let engine = PipelineBuilder::new(FS)
        .array(&array)
        .build_engine()
        .unwrap();
    let host = SessionHost::new(
        engine,
        HostConfig {
            workers: 1,
            max_sessions: 2,
            max_chunk_len: CHUNK,
            span_capacity: 128,
            ..HostConfig::default()
        },
    )
    .unwrap();
    let sink = CountingSink::new();
    let id = host.open_stream(sink.clone()).unwrap();
    let samples = channels[0].len();
    let mut start = 0;
    while start + CHUNK <= samples {
        let views: [&[f64]; 2] = [
            &channels[0][start..start + CHUNK],
            &channels[1][start..start + CHUNK],
        ];
        while host
            .stream_stats(id)
            .map(|stats| stats.queued > stats.deferred)
            .unwrap()
        {
            std::thread::sleep(Duration::from_micros(50));
        }
        host.push_chunk(id, &views).unwrap();
        start += CHUNK;
    }
    assert!(
        host.wait_idle(Duration::from_secs(60)),
        "host never drained"
    );
    assert!(sink.events() > 0, "siren drive produced no events");
    (host, id, sink)
}

#[test]
fn endpoint_serves_metrics_snapshot_and_events() {
    let (host, id, sink) = served_host();
    let endpoint = host.serve_http("127.0.0.1:0").expect("bind endpoint");
    let addr = endpoint.addr();

    // --- /metrics: required families present, with live values. ---
    let response = get(addr, "/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    let body = body_of(&response);
    for family in [
        "ispot_frames_total",
        "ispot_events_total",
        "ispot_chunks_in_total",
        "ispot_sessions_open",
        "ispot_queue_depth",
        "ispot_degrade_level",
        "ispot_worker_panics_total",
        "ispot_event_latency_seconds_bucket",
        "ispot_stage_latency_seconds_bucket",
    ] {
        assert!(body.contains(family), "missing metric family {family}");
    }
    assert!(
        body.contains("# TYPE ispot_frames_total counter"),
        "missing TYPE header"
    );
    let frames_line = body
        .lines()
        .find(|l| l.starts_with("ispot_frames_total "))
        .expect("frames sample line");
    let frames: u64 = frames_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(frames > 0, "exposition shows zero frames");
    assert!(
        body.contains("ispot_sessions_open 1"),
        "gauge not refreshed"
    );
    // Tracing was on, so the per-stage family has real samples.
    assert!(
        body.contains("ispot_stage_latency_seconds_count{stage=\"detection\"}"),
        "stage family missing labeled series"
    );

    // --- /snapshot: sane JSON with live values and the latest event. ---
    let response = get(addr, "/snapshot");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("Content-Type: application/json"));
    let body = body_of(&response);
    assert!(body.starts_with('{') && body.ends_with('}'), "{body}");
    assert!(body.contains("\"schema_version\":1"));
    assert!(body.contains("\"degrade_level\":\"full\""));
    assert!(body.contains("\"stages\":{\"trigger\":"));
    assert!(body.contains("\"slot\":0"), "open stream missing: {body}");
    assert!(body.contains("\"worker_panics\":0"), "{body}");
    // `wait_idle` drained the stream, deferred chunks included.
    assert!(
        body.contains("\"queued\":0,\"deferred\":0,"),
        "per-stream queue fields missing: {body}"
    );
    assert!(body.contains("\"quarantined\":false"), "{body}");
    assert!(
        body.contains("\"latest_event\":{"),
        "latest_event absent despite delivered events: {body}"
    );
    assert!(!body.contains("NaN"), "JSON must not contain NaN: {body}");

    // --- /events: SSE replays buffered perception events. ---
    let response = get(addr, "/events?limit=3");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("Content-Type: text/event-stream"));
    let body = body_of(&response);
    assert!(
        body.matches("event: perception").count() >= 1,
        "SSE feed delivered no perception events: {body}"
    );
    assert!(body.contains("data: {\"slot\":0"), "{body}");

    // --- /events?limit=0 returns immediately with no events. ---
    let response = get(addr, "/events?limit=0");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    let body = body_of(&response);
    assert_eq!(
        body.matches("event:").count(),
        0,
        "limit=0 must deliver nothing: {body}"
    );

    // --- Per-stream spans are exported through the typed API too. ---
    let spans = host.stream_spans(id).unwrap();
    assert!(!spans.is_empty(), "no spans despite tracing");
    assert!(spans.iter().any(|s| s.stage == StageId::Detection));

    // --- Unknown paths and non-GET requests fail cleanly. ---
    assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));

    drop(endpoint); // joins the exporter thread
    let stats = host.close_stream(id).unwrap();
    assert_eq!(stats.events, sink.events());
}
