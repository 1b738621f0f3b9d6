//! Asserts the hosted per-chunk serve path is allocation-free in steady state,
//! end to end: `push_chunk` (validation, ring copy, load accounting, dispatch),
//! the worker's pop-by-swap, the session's frame analysis with localization and
//! tracking, and metered event delivery through the stream's sink.
//!
//! The host runs with tracing ON (`span_capacity > 0`): the window therefore
//! also covers the attached `StageObserver` (four spans per frame into the
//! stream's span ring plus per-stage histogram records) and the event-feed
//! publish — proving instrumentation adds zero steady-state allocations.
//!
//! The counting allocator is process-global, so the measured window also covers
//! the worker thread — exactly the point: *no* thread of the host may allocate
//! per chunk once warm. This file holds a single test so no concurrent test can
//! pollute the window.

use ispot_core::prelude::*;
use ispot_roadsim::geometry::Position;
use ispot_roadsim::microphone::MicrophoneArray;
use ispot_sed::sirens::{SirenKind, SirenSynthesizer};
use ispot_serve::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Wraps the system allocator, counting every allocation and reallocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: a pure pass-through to the system allocator — every layout/pointer
// contract is forwarded unchanged, the wrapper only bumps an atomic counter.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: delegates directly to `System.alloc` under the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: `layout` is forwarded unchanged under the caller's contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: delegates directly to `System.dealloc`; `ptr` was produced by
    // the matching `alloc`/`realloc` on the same `System` allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` are forwarded unchanged under the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: delegates directly to `System.realloc` under the caller's
    // layout contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: all three arguments are forwarded unchanged under the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> usize {
    ALLOCATIONS.load(Ordering::SeqCst)
}

const CHUNK: usize = 512;

/// Pushes `rounds` siren chunks through the host, keeping the ring drained of
/// due work (each chunk that completes a frame is fully processed, together
/// with the deferred chunk before it, before the next push, so the window
/// spans the complete submit→process→deliver path every frame). Returns the
/// allocation delta across the window.
fn measure(host: &SessionHost, id: StreamId, channels: &[Vec<f64>], rounds: usize) -> usize {
    let len = channels[0].len();
    let mut start = 0;
    let before = allocation_count();
    for _ in 0..rounds {
        if start + CHUNK > len {
            start = 0;
        }
        let views: [&[f64]; 2] = [
            &channels[0][start..start + CHUNK],
            &channels[1][start..start + CHUNK],
        ];
        host.push_chunk(id, &views).unwrap();
        start += CHUNK;
        while host
            .stream_stats(id)
            .map(|stats| stats.queued > stats.deferred)
            .unwrap()
        {
            std::thread::sleep(Duration::from_micros(20));
        }
    }
    allocation_count() - before
}

#[test]
fn hosted_steady_state_serve_path_allocates_nothing() {
    let fs = 16_000.0;
    // A loud siren on a 2-mic array: events fire on most frames, so the window
    // covers localization, tracking and metered event delivery — not silence.
    let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(2.0);
    let channels = vec![siren.clone(), siren];
    let array = MicrophoneArray::circular(2, 0.2, Position::new(0.0, 0.0, 1.0));
    let engine = PipelineBuilder::new(fs)
        .array(&array)
        .build_engine()
        .unwrap();
    let host = SessionHost::new(
        engine,
        HostConfig {
            workers: 1,
            max_sessions: 1,
            max_chunk_len: CHUNK,
            // Tracing on: the measured window must stay allocation-free with
            // the observer attached and spans flowing.
            span_capacity: 128,
            ..HostConfig::default()
        },
    )
    .unwrap();
    let counter = CountingSink::new();
    let id = host.open_stream(counter.clone()).unwrap();

    // Warm-up: sizes the session's assembler window and detector scratch, builds
    // its SRP buffers on the first localized event, and exercises every host
    // path (dispatch, swap recycling, metering).
    measure(&host, id, &channels, 32);
    assert!(counter.frames() > 0, "warm-up processed no frames");
    assert!(counter.events() > 0, "warm-up fired no events");

    // Measured region: zero allocations allowed anywhere in the process.
    let frames_before = counter.frames();
    let delta = measure(&host, id, &channels, 64);
    let frames = counter.frames() - frames_before;
    assert!(frames > 0, "measured window processed no frames");
    assert_eq!(
        delta,
        0,
        "hosted serve path allocated {delta} times in steady state \
         ({frames} frames, {} events delivered)",
        counter.events()
    );

    // The observer must have been live during the window, not silently off.
    let spans = host.stream_spans(id).unwrap();
    assert!(!spans.is_empty(), "tracing enabled but no spans recorded");

    let stats = host.close_stream(id).unwrap();
    assert_eq!(stats.errors, 0);

    // Sanity check that the counter is actually live.
    let before = allocation_count();
    let v: Vec<u8> = Vec::with_capacity(64);
    assert!(allocation_count() > before, "counting allocator inactive");
    drop(v);
}
