//! The worker pool: drains ingestion rings, runs the perception pipeline and
//! meters every event.
//!
//! Workers share the host's ready queue of slot tokens and block on its
//! condvar while it is empty. Receiving a token grants exclusive ownership of
//! that stream until the worker stops draining (see the dispatch protocol in
//! the [`host`](crate::host) module docs), so per-stream event order is
//! exactly submission order regardless of the pool size — the basis of the
//! cross-worker-count determinism tests.
//!
//! The per-chunk path is allocation-free: the worker swaps its spare buffer
//! with the ring slot ([`ChunkRing::pop_swap`]), builds stack channel views and
//! feeds the session, which reuses its own scratch. Metering is relaxed
//! atomics.
//!
//! A panic in the session or the sink is caught around the chunk that raised
//! it: the worker quarantines that stream and keeps serving the others.
//!
//! [`ChunkRing::pop_swap`]: crate::ring::ChunkRing::pop_swap

use crate::feed::EventFeed;
use crate::host::{HostInner, SessionState, Slot};
use crate::load::DegradeLevel;
use crate::metrics::HostMetrics;
use crate::relock;
use crate::ring::{ChunkBuf, ChunkRing};
use ispot_core::events::PerceptionEvent;
use ispot_core::sink::EventSink;
use ispot_core::stages::FrameOutcome;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Body of one worker thread: wait for a ready slot, drain it, repeat until
/// shutdown.
pub(crate) fn worker_loop(inner: &HostInner) {
    let mut buf = ChunkBuf::new(inner.engine.num_channels(), inner.config.max_chunk_len);
    while let Some(slot_idx) = inner.next_ready() {
        drain_slot(inner, slot_idx as usize, &mut buf);
    }
}

/// Drains one stream's ring, deferred chunks included, up to one ring's worth
/// of chunks per token so a single busy stream cannot starve the others, then
/// executes the unschedule-recheck handshake: clear `scheduled`, re-check the
/// ring, and re-enqueue if it is due again — a chunk that completes a frame
/// raced in after the last pop, or the ring is over its quarter bound.
fn drain_slot(inner: &HostInner, slot_idx: usize, buf: &mut ChunkBuf) {
    let slot = &inner.slots[slot_idx];
    for _ in 0..inner.config.ring_capacity {
        if inner.is_paused() || inner.shutting_down() {
            break;
        }
        let popped = relock(&slot.ring).as_mut().is_some_and(|r| r.pop_swap(buf));
        if !popped {
            break;
        }
        process_chunk(inner, slot, slot_idx, buf);
        inner.load.on_complete();
        inner.note_transitions();
    }
    slot.scheduled.store(false, Ordering::Release);
    let due = relock(&slot.ring).as_ref().is_some_and(ChunkRing::is_due);
    if due {
        inner.schedule(slot_idx);
    }
}

/// Runs one chunk through the slot's session under the current degrade level,
/// delivering events through the stream's sink via the metering wrapper. A
/// panic out of the session or the sink quarantines the stream.
fn process_chunk(inner: &HostInner, slot: &Slot, slot_idx: usize, buf: &ChunkBuf) {
    let shed = inner.load.level() >= DegradeLevel::ShedLocalization;
    let mut guard = relock(&slot.session);
    let Some(state) = guard.as_mut() else {
        // The stream closed between our pop and now; the chunk is gone but was
        // popped before close cleared the ring, so count it ourselves.
        inner.metrics.chunks_discarded.incr();
        return;
    };
    if state.session.localization_shed() != shed {
        state.session.set_localization_shed(shed);
    }
    slot.stats.shed_applied.store(shed, Ordering::Relaxed);
    let SessionState { session, sink } = state;
    let generation = slot.generation.load(Ordering::Acquire);
    let mut metered = MeteredSink {
        sink: sink.as_mut(),
        enqueued: buf.enqueued(),
        host: &inner.metrics,
        feed: &inner.feed,
        slot_events: &slot.stats.events,
        slot: slot_idx as u32,
        generation,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        buf.with_views(|views| session.push_chunk_with(views, &mut metered))
    }));
    let Ok(result) = outcome else {
        // The session or sink may be mid-update; neither runs again. Both are
        // dropped outside the session lock, and a panic in their drop is
        // contained as well.
        let state = guard.take();
        drop(guard);
        let _ = catch_unwind(AssertUnwindSafe(move || drop(state)));
        inner.metrics.worker_panics.incr();
        inner.quarantine(slot, generation);
        return;
    };
    match result {
        Ok(frames) => {
            let frames = frames as u64;
            inner.metrics.frames.add(frames);
            slot.stats.frames.fetch_add(frames, Ordering::Relaxed);
            if shed {
                inner.metrics.shed_frames.add(frames);
                slot.stats.shed_frames.fetch_add(frames, Ordering::Relaxed);
            }
        }
        Err(_) => {
            inner.metrics.errors.incr();
            slot.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Wraps a stream's sink to meter deliveries: each event bumps the host and
/// slot counters, records submit-to-delivery latency and publishes a summary
/// on the live feed, then is forwarded by reference — no copy, no allocation.
struct MeteredSink<'a> {
    sink: &'a mut dyn EventSink,
    enqueued: Instant,
    host: &'a HostMetrics,
    feed: &'a EventFeed,
    slot_events: &'a AtomicU64,
    slot: u32,
    generation: u32,
}

impl EventSink for MeteredSink<'_> {
    fn on_event(&mut self, event: &PerceptionEvent) {
        self.host.latency.record(self.enqueued.elapsed());
        self.host.events.incr();
        self.slot_events.fetch_add(1, Ordering::Relaxed);
        self.feed.push_event(self.slot, self.generation, event);
        self.sink.on_event(event);
    }

    fn on_frame(&mut self, outcome: &FrameOutcome) {
        self.sink.on_frame(outcome);
    }
}
