//! Pins how many heap bytes one session holds, using a global allocator that
//! tracks live bytes (allocated minus freed).
//!
//! Per-stream memory decides how many microphone streams one device can host,
//! so the budget is checked where it is spent: a park-mode session after quiet
//! traffic (trigger, detector and framing state only), and a drive-mode session
//! right after its first localized event (plus the SRP scratch, maps and peak
//! list that event builds). Both run the default configuration on the 6-mic
//! irregular hexagon, fed in 512-sample chunks.
//!
//! The figures are deltas of the live-byte count across opening and feeding
//! one session, so setup before the measured region does not count. The test
//! harness runs tests on secondary threads, but this file holds a single test,
//! so no other test can allocate concurrently inside the measured window.

use ispot_core::prelude::*;
use ispot_dsp::generator::{NoiseKind, NoiseSource};
use ispot_roadsim::engine::Simulator;
use ispot_roadsim::geometry::Position;
use ispot_roadsim::microphone::MicrophoneArray;
use ispot_roadsim::scene::SceneBuilder;
use ispot_roadsim::source::SoundSource;
use ispot_roadsim::trajectory::Trajectory;
use ispot_sed::sirens::{SirenKind, SirenSynthesizer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Wraps the system allocator, tracking the number of live heap bytes.
struct LiveBytesAllocator;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: a pure pass-through to the system allocator — every layout/pointer
// contract is forwarded unchanged, the wrapper only adjusts an atomic counter.
unsafe impl GlobalAlloc for LiveBytesAllocator {
    // SAFETY: delegates directly to `System.alloc` under the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is forwarded unchanged under the caller's contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::SeqCst);
        }
        ptr
    }

    // SAFETY: delegates directly to `System.dealloc`; `ptr` was produced by
    // the matching `alloc`/`realloc` on the same `System` allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        // SAFETY: `ptr`/`layout` are forwarded unchanged under the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: delegates directly to `System.realloc` under the caller's
    // layout contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: all three arguments are forwarded unchanged under the caller's contract.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::SeqCst);
        }
        new_ptr
    }
}

#[global_allocator]
static GLOBAL: LiveBytesAllocator = LiveBytesAllocator;

fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::SeqCst)
}

/// Park-mode budget: the session holds its framing window, mixdown, trigger,
/// detector scratch and tracker, but no localization buffers. A session that
/// also held a copy of each frame, or SRP buffers it never uses, is over it.
const PARK_BUDGET_BYTES: isize = 250_000;

/// Drive-mode budget after the first localized event: the park set plus the
/// SRP scratch, raw and smoothed maps and the peak list.
const DRIVE_BUDGET_BYTES: isize = 350_000;

/// Opens a session on `engine` and streams `channels` through it in 512-sample
/// chunks until `done` says stop (or the audio runs out). Returns the live
/// heap bytes the session holds at that point, and the sink's counts.
fn session_bytes(
    engine: &Engine,
    mode: OperatingMode,
    channels: &[Vec<f64>],
    done: impl Fn(&AlertCounter) -> bool,
) -> (isize, AlertCounter) {
    const MAX_CHANNELS: usize = 8;
    assert!(channels.len() <= MAX_CHANNELS);
    let mut sink = AlertCounter::default();
    let len = channels[0].len();
    let before = live_bytes();
    let mut session = engine.open_session();
    session.set_mode(mode);
    for start in (0..len).step_by(512) {
        let end = (start + 512).min(len);
        let mut views: [&[f64]; MAX_CHANNELS] = [&[]; MAX_CHANNELS];
        for (view, ch) in views.iter_mut().zip(channels) {
            *view = &ch[start..end];
        }
        session
            .push_chunk_with(&views[..channels.len()], &mut sink)
            .unwrap();
        if done(&sink) {
            break;
        }
    }
    let held = live_bytes() - before;
    drop(session);
    (held, sink)
}

#[test]
fn a_session_holds_only_the_memory_its_frames_use() {
    let fs = 16_000.0;
    let array = MicrophoneArray::irregular_hexagon(Position::new(0.0, 0.0, 1.0));
    let engine = PipelineBuilder::new(fs)
        .array(&array)
        .build_engine()
        .unwrap();

    // Park: two seconds of faint pink noise on every channel.
    let quiet: Vec<Vec<f64>> = (0..array.len() as u64)
        .map(|seed| {
            NoiseSource::new(NoiseKind::Pink, seed)
                .take(32_000)
                .map(|x| 1e-3 * x)
                .collect()
        })
        .collect();
    let (park, counts) = session_bytes(&engine, OperatingMode::Park, &quiet, |_| false);
    assert!(
        counts.frames > 20,
        "park session saw {} frames",
        counts.frames
    );
    assert!(
        counts.gated > counts.frames / 2,
        "the trigger gated only {} of {} quiet frames",
        counts.gated,
        counts.frames
    );
    assert!(
        park <= PARK_BUDGET_BYTES,
        "a park session holds {park} B after quiet traffic (budget {PARK_BUDGET_BYTES} B)"
    );

    // Drive: a static wail, stopped right after the first event. Every event
    // of a drive session with an array is localized.
    let scene = SceneBuilder::new(fs)
        .source(SoundSource::new(
            SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(2.0),
            Trajectory::fixed(Position::new(12.0, 10.0, 1.0)),
        ))
        .array(array.clone())
        .reflection(false)
        .air_absorption(false)
        .build()
        .unwrap();
    let siren = Simulator::new(scene)
        .unwrap()
        .run()
        .unwrap()
        .into_channels();
    let (drive, counts) = session_bytes(&engine, OperatingMode::Drive, &siren, |c| c.events > 0);
    assert_eq!(counts.events, 1, "the siren fired no event");
    assert!(
        drive <= DRIVE_BUDGET_BYTES,
        "a drive session holds {drive} B after its first localized event \
         (budget {DRIVE_BUDGET_BYTES} B)"
    );
    // Localizing costs a drive session more than a park session holds.
    assert!(drive > park, "drive {drive} B vs park {park} B");
    println!("session bytes: park {park}, drive {drive}");

    // Sanity check that the counter is actually live.
    let before = live_bytes();
    let v: Vec<u8> = Vec::with_capacity(64);
    assert_eq!(live_bytes() - before, 64, "live-byte allocator inactive");
    drop(v);
}
