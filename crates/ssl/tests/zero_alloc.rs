//! Asserts that the SRP-PHAT `compute_map_into` hot path is allocation-free in
//! steady state, using a counting global allocator.
//!
//! The whole test binary runs under the counting allocator; the assertions only
//! look at the *delta* across the measured region, so unrelated allocations made
//! while setting up (or by the test harness before/after) do not matter. The test
//! harness runs tests on secondary threads, but this file holds a single test, so
//! no other test can allocate concurrently inside the measured window.

use ispot_roadsim::geometry::Position;
use ispot_roadsim::microphone::MicrophoneArray;
use ispot_ssl::srp_fast::SrpPhatFast;
use ispot_ssl::srp_phat::{SrpConfig, SrpMap, SrpPhat};
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

#[test]
fn steady_state_compute_map_into_allocates_nothing() {
    let fs = 16_000.0;
    let config = SrpConfig::default();
    let array = MicrophoneArray::circular(6, 0.2, Position::new(0.0, 0.0, 1.0));
    let fast = SrpPhatFast::new(config, &array, fs).unwrap();
    let conventional = SrpPhat::new(config, &array, fs).unwrap();

    // Deterministic multichannel frame; content is irrelevant to allocation counts.
    let channels: Vec<Vec<f64>> = (0..array.len())
        .map(|ch| {
            (0..config.frame_len)
                .map(|i| ((i + 31 * ch) as f64 * 0.137).sin())
                .collect()
        })
        .collect();
    let frame: Vec<&[f64]> = channels.iter().map(|c| c.as_slice()).collect();

    let mut scratch = fast.make_scratch();
    let mut map = SrpMap::default();
    // Warm-up: the first call may size the output map (scratch is pre-sized).
    fast.compute_map_into(&frame, &mut scratch, &mut map)
        .unwrap();

    let before = allocation_count();
    for _ in 0..10 {
        fast.compute_map_into(&frame, &mut scratch, &mut map)
            .unwrap();
    }
    let fast_allocs = allocation_count() - before;
    assert_eq!(
        fast_allocs, 0,
        "lag-domain compute_map_into allocated {fast_allocs} times in steady state"
    );

    // The retained f64 reference path takes its own scratch, which pre-sizes its
    // band spectra, cross spectra, lag tables and correlation buffer, and must
    // not allocate either.
    let mut ref_scratch = fast.make_reference_scratch();
    fast.compute_map_reference_into(&frame, &mut ref_scratch, &mut map)
        .unwrap();
    let before = allocation_count();
    for _ in 0..3 {
        fast.compute_map_reference_into(&frame, &mut ref_scratch, &mut map)
            .unwrap();
    }
    let ref_allocs = allocation_count() - before;
    assert_eq!(
        ref_allocs, 0,
        "reference compute_map_reference_into allocated {ref_allocs} times in steady state"
    );

    // The conventional processor's scratch-reusing path must be allocation-free too.
    let mut conv_scratch = conventional.make_scratch();
    let mut conv_map = SrpMap::default();
    conventional
        .compute_map_into(&frame, &mut conv_scratch, &mut conv_map)
        .unwrap();
    let before = allocation_count();
    for _ in 0..3 {
        conventional
            .compute_map_into(&frame, &mut conv_scratch, &mut conv_map)
            .unwrap();
    }
    let conv_allocs = allocation_count() - before;
    assert_eq!(
        conv_allocs, 0,
        "conventional compute_map_into allocated {conv_allocs} times in steady state"
    );

    // Sanity check that the counter is actually live.
    let before = allocation_count();
    let v: Vec<u8> = Vec::with_capacity(64);
    assert!(allocation_count() > before, "counting allocator inactive");
    drop(v);
}
