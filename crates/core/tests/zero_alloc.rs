//! Asserts that the sink-based streaming path of the full perception pipeline —
//! chunk ingestion through the frame assembler, mixdown, trigger, detection,
//! localization, multi-target tracking, and event emission through an
//! [`EventSink`] — is allocation-free in steady state, using a counting global
//! allocator. This extends the SRP-PHAT-only coverage in
//! `crates/ssl/tests/zero_alloc.rs` to the whole system, including the
//! multi-track path: peak extraction, gated association, track births and
//! deaths all run inside preallocated storage.
//!
//! The whole test binary runs under the counting allocator; the assertions only
//! look at the *delta* across the measured region, so unrelated allocations made
//! while setting up (or by the test harness before/after) do not matter. The test
//! harness runs tests on secondary threads, but this file holds a single test, so
//! no other test can allocate concurrently inside the measured window.

use ispot_core::prelude::*;
use ispot_roadsim::engine::Simulator;
use ispot_roadsim::geometry::Position;
use ispot_roadsim::microphone::MicrophoneArray;
use ispot_roadsim::scene::SceneBuilder;
use ispot_roadsim::source::SoundSource;
use ispot_roadsim::trajectory::Trajectory;
use ispot_sed::sirens::{SirenKind, SirenSynthesizer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// A sink that counts frames/events and remembers the deepest track list seen —
/// fixed-size state, so feeding it never allocates.
#[derive(Default)]
struct TrackStats {
    counter: AlertCounter,
    max_tracks: usize,
    max_confirmed: usize,
}

impl EventSink for TrackStats {
    fn on_event(&mut self, event: &PerceptionEvent) {
        self.counter.on_event(event);
        self.max_tracks = self.max_tracks.max(event.tracks.len());
        self.max_confirmed = self.max_confirmed.max(event.tracks.confirmed().count());
    }

    fn on_frame(&mut self, outcome: &ispot_core::stages::FrameOutcome) {
        self.counter.on_frame(outcome);
    }
}

/// Streams `rounds` chunks of `chunk_len` samples into the session through a
/// non-retaining sink and returns (allocation delta, stats). The per-chunk
/// channel views are built on the stack, so the measured region contains only
/// pipeline work.
fn measure(
    session: &mut Session,
    channels: &[Vec<f64>],
    chunk_len: usize,
    rounds: usize,
) -> (usize, TrackStats) {
    const MAX_CHANNELS: usize = 8;
    assert!(channels.len() <= MAX_CHANNELS);
    let mut stats = TrackStats::default();
    let len = channels[0].len();
    let before = allocation_count();
    let mut start = 0;
    for _ in 0..rounds {
        let end = (start + chunk_len).min(len);
        let mut views: [&[f64]; MAX_CHANNELS] = [&[]; MAX_CHANNELS];
        for (view, ch) in views.iter_mut().zip(channels) {
            *view = &ch[start..end];
        }
        session
            .push_chunk_with(&views[..channels.len()], &mut stats)
            .unwrap();
        start = if end == len { 0 } else { end };
    }
    (allocation_count() - before, stats)
}

#[test]
fn steady_state_streaming_with_sinks_allocates_nothing() {
    let fs = 16_000.0;
    // A loud siren so frames clear the confidence threshold and events actually
    // fire — the measured window must cover event *emission*, not just analysis.
    let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(2.0);
    let array = MicrophoneArray::circular(2, 0.2, Position::new(0.0, 0.0, 1.0));
    let channels: Vec<Vec<f64>> = vec![siren.clone(), siren];

    let engine = PipelineBuilder::new(fs)
        .array(&array)
        .build_engine()
        .unwrap();
    let mut session = engine.open_session();

    // Warm-up: size the assembler window and the detector scratch; the first
    // localized event builds the SRP scratch, maps and peak list.
    let (_, warm) = measure(&mut session, &channels, 1600, 64);
    assert!(warm.counter.frames > 0, "warm-up processed no frames");
    assert!(warm.counter.alerts > 0, "warm-up fired no events");

    // Measured region: capture-sized chunks (10 ms blocks at 16 kHz), events
    // firing, localization and tracking running — zero allocations allowed.
    let (delta, stats) = measure(&mut session, &channels, 160, 256);
    assert!(
        stats.counter.frames > 0,
        "measured window processed no frames"
    );
    assert_eq!(
        delta, 0,
        "sink-based streaming path allocated {delta} times in steady state \
         ({} frames, {} events)",
        stats.counter.frames, stats.counter.events
    );

    // The same holds in park mode (trigger-gated path) after its own warm-up.
    session.set_mode(OperatingMode::Park);
    let (_, _) = measure(&mut session, &channels, 1600, 32);
    let (delta, stats) = measure(&mut session, &channels, 160, 128);
    assert_eq!(
        delta, 0,
        "park-mode streaming path allocated {delta} times in steady state \
         ({} frames, {} gated)",
        stats.counter.frames, stats.counter.gated
    );

    // Multi-track steady state: a rendered two-siren road scene on a 4-mic
    // array, so the session runs genuine multi-target tracking — several SRP
    // peaks per frame, concurrent confirmed tracks, births and deaths — while
    // events carry their full track lists through the sink.
    let multi = {
        let wail = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(2.0);
        let yelp = SirenSynthesizer::new(SirenKind::Yelp, fs).synthesize(2.0);
        let quad = MicrophoneArray::circular(4, 0.2, Position::new(0.0, 0.0, 1.0));
        let scene = SceneBuilder::new(fs)
            .source(SoundSource::new(
                wail,
                Trajectory::fixed(Position::new(10.0, 12.0, 1.0)),
            ))
            .source(SoundSource::new(
                yelp,
                Trajectory::fixed(Position::new(-4.0, -14.0, 1.0)),
            ))
            .array(quad.clone())
            .reflection(false)
            .air_absorption(false)
            .build()
            .unwrap();
        let audio = Simulator::new(scene).unwrap().run().unwrap();
        let engine = PipelineBuilder::new(fs)
            .array(&quad)
            .build_engine()
            .unwrap();
        (audio.into_channels(), engine)
    };
    let mut session = multi.1.open_session();
    let (_, warm) = measure(&mut session, &multi.0, 1600, 64);
    assert!(
        warm.counter.alerts > 0,
        "multi-source warm-up fired no events"
    );
    let (delta, stats) = measure(&mut session, &multi.0, 160, 256);
    assert!(
        stats.max_tracks >= 2,
        "multi-source window tracked only {} source(s)",
        stats.max_tracks
    );
    assert_eq!(
        delta, 0,
        "multi-track streaming path allocated {delta} times in steady state \
         ({} frames, {} events, up to {} tracks)",
        stats.counter.frames, stats.counter.events, stats.max_tracks
    );

    // Sanity check that the counter is actually live.
    let before = allocation_count();
    let v: Vec<u8> = Vec::with_capacity(64);
    assert!(allocation_count() > before, "counting allocator inactive");
    drop(v);
}
