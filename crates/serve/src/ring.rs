//! The bounded per-session ingestion ring: fixed-capacity storage for audio
//! chunks between the producer (`push_chunk`) and the worker that drains the
//! session.
//!
//! Every buffer is allocated once when the stream opens — `capacity` slots of
//! `channels × max_chunk_len` samples each — and recycled forever after:
//! producers copy planar samples *into* a slot ([`ChunkRing::push_planar`]),
//! workers take a filled slot by **swapping** its storage with their own spare
//! buffer of identical capacity ([`ChunkRing::pop_swap`]), so the steady-state
//! data plane moves pointers, never allocates, and a full ring is reported to
//! the producer as typed backpressure instead of blocking or growing.
//!
//! The ring also decides when its stream is worth a worker's wake-up. It runs
//! the stream's [`FrameCountdown`] over every accepted chunk, so it knows which
//! queued chunks complete a frame of the session behind it. A chunk that
//! completes none is *deferred*: it waits, costing no wake-up, until a chunk
//! that completes a frame drains it — or until the ring holds more than a
//! quarter of its capacity, so deferral never brings a producer closer to
//! [`SubmitError::Busy`](crate::SubmitError::Busy) than a quarter ring.

use ispot_dsp::framing::FrameCountdown;
use std::time::Instant;

/// One preallocated chunk slot: planar samples at a fixed per-channel stride,
/// plus the submit timestamp that seeds the end-to-end latency measurement.
#[derive(Debug)]
struct ChunkSlot {
    /// Planar storage, channel-major: channel `c` occupies
    /// `[c * stride, c * stride + samples)`.
    data: Vec<f64>,
    /// Valid samples per channel (≤ stride).
    samples: usize,
    /// When the producer submitted the chunk.
    enqueued: Instant,
}

/// A fixed-capacity SPSC ring of audio chunks. Not internally synchronized —
/// the host wraps it in a mutex whose critical sections are bare copies.
#[derive(Debug)]
pub(crate) struct ChunkRing {
    slots: Vec<ChunkSlot>,
    /// Index of the oldest queued chunk.
    head: usize,
    /// Number of queued chunks.
    len: usize,
    channels: usize,
    stride: usize,
    /// Samples until the stream's session completes its next frame, advanced
    /// by every accepted chunk.
    countdown: FrameCountdown,
    /// Chunks accepted since the last one that completed a frame. The newest
    /// `min(since_frame, len)` queued chunks are the deferred ones.
    since_frame: usize,
}

impl ChunkRing {
    /// Allocates `capacity` slots of `channels × max_chunk_len` samples. This
    /// is the *only* allocation the ring ever performs. `countdown` is the
    /// framing of the session the ring feeds, before its first sample.
    pub(crate) fn new(
        capacity: usize,
        channels: usize,
        max_chunk_len: usize,
        countdown: FrameCountdown,
    ) -> Self {
        let now = Instant::now();
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(ChunkSlot {
                data: vec![0.0; channels * max_chunk_len],
                samples: 0,
                enqueued: now,
            });
        }
        ChunkRing {
            slots,
            head: 0,
            len: 0,
            channels,
            stride: max_chunk_len,
            countdown,
            since_frame: 0,
        }
    }

    /// Queued chunks.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Queued chunks not yet due: the ones accepted after the last chunk that
    /// completes a frame, as long as they occupy at most a quarter of the
    /// ring. Beyond that bound every queued chunk is due.
    pub(crate) fn deferred(&self) -> usize {
        if self.len > self.slots.len() / 4 {
            0
        } else {
            self.since_frame.min(self.len)
        }
    }

    /// True when the queue is worth a worker's wake-up: a queued chunk
    /// completes a frame, or more than a quarter of the ring is occupied.
    pub(crate) fn is_due(&self) -> bool {
        self.len > self.deferred()
    }

    /// Copies a planar chunk (`chunk[channel][sample]`) into the next free
    /// slot, stamping it with `enqueued`, and advances the frame countdown.
    /// Returns `false` — accepting nothing, counting nothing — when the ring is
    /// full; the caller surfaces that as
    /// [`SubmitError::Busy`](crate::SubmitError::Busy). Shape validation
    /// (channel count, equal lengths, stride bound) is the caller's job; this
    /// debug-asserts it.
    pub(crate) fn push_planar(&mut self, chunk: &[&[f64]], enqueued: Instant) -> bool {
        if self.len == self.slots.len() {
            return false;
        }
        debug_assert_eq!(chunk.len(), self.channels);
        let tail = (self.head + self.len) % self.slots.len();
        let slot = &mut self.slots[tail];
        let samples = chunk.first().map_or(0, |c| c.len());
        debug_assert!(samples <= self.stride);
        for (c, channel) in chunk.iter().enumerate() {
            debug_assert_eq!(channel.len(), samples);
            let base = c * self.stride;
            slot.data[base..base + samples].copy_from_slice(channel);
        }
        slot.samples = samples;
        slot.enqueued = enqueued;
        self.len += 1;
        if self.countdown.advance(samples) {
            self.since_frame = 0;
        } else {
            self.since_frame += 1;
        }
        true
    }

    /// Takes the oldest chunk by swapping its storage with `out`'s (both are
    /// `channels × stride` buffers, so the slot stays full-size for reuse).
    /// Returns `false` when the ring is empty.
    pub(crate) fn pop_swap(&mut self, out: &mut ChunkBuf) -> bool {
        if self.len == 0 {
            return false;
        }
        debug_assert_eq!(out.channels, self.channels);
        debug_assert_eq!(out.stride, self.stride);
        let slot = &mut self.slots[self.head];
        std::mem::swap(&mut slot.data, &mut out.data);
        out.samples = slot.samples;
        out.enqueued = slot.enqueued;
        slot.samples = 0;
        self.head = (self.head + 1) % self.slots.len();
        self.len -= 1;
        true
    }

    /// Discards every queued chunk (stream close), returning how many were
    /// dropped so the caller can settle the load accounting and report them.
    pub(crate) fn clear(&mut self) -> usize {
        let dropped = self.len;
        self.len = 0;
        self.head = 0;
        for slot in &mut self.slots {
            slot.samples = 0;
        }
        dropped
    }
}

/// A worker-owned chunk buffer, swap-compatible with the ring slots of every
/// stream of its host (one engine ⇒ one channel count, one stride).
#[derive(Debug)]
pub(crate) struct ChunkBuf {
    data: Vec<f64>,
    samples: usize,
    channels: usize,
    stride: usize,
    enqueued: Instant,
}

/// Channel counts the stack-allocated view table supports; matches the
/// engine-side bound (`ispot_core` builds frame views the same way).
pub(crate) const MAX_CHANNELS: usize = 32;

impl ChunkBuf {
    /// Allocates one swap buffer (worker startup — the only allocation).
    pub(crate) fn new(channels: usize, max_chunk_len: usize) -> Self {
        ChunkBuf {
            data: vec![0.0; channels * max_chunk_len],
            samples: 0,
            channels,
            stride: max_chunk_len,
            enqueued: Instant::now(),
        }
    }

    /// When the producer submitted the held chunk.
    pub(crate) fn enqueued(&self) -> Instant {
        self.enqueued
    }

    /// Runs `f` over per-channel `&[f64]` views of the held chunk. The view
    /// table lives on the stack (channel counts are validated ≤
    /// [`MAX_CHANNELS`] at host construction), so this allocates nothing.
    pub(crate) fn with_views<R>(&self, f: impl FnOnce(&[&[f64]]) -> R) -> R {
        debug_assert!(self.channels <= MAX_CHANNELS);
        let mut views: [&[f64]; MAX_CHANNELS] = [&[]; MAX_CHANNELS];
        for (c, view) in views.iter_mut().enumerate().take(self.channels) {
            let base = c * self.stride;
            *view = &self.data[base..base + self.samples];
        }
        f(&views[..self.channels])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk2(a: &[f64], b: &[f64]) -> [Vec<f64>; 2] {
        [a.to_vec(), b.to_vec()]
    }

    fn views(chunk: &[Vec<f64>]) -> Vec<&[f64]> {
        chunk.iter().map(|c| c.as_slice()).collect()
    }

    /// A countdown no test chunk reaches, for tests about storage alone.
    fn never() -> FrameCountdown {
        FrameCountdown::new(usize::MAX, 1)
    }

    #[test]
    fn fifo_order_with_wraparound_and_varying_lengths() {
        let mut ring = ChunkRing::new(3, 2, 4, never());
        let mut out = ChunkBuf::new(2, 4);
        let now = Instant::now();
        // Fill, drain one, push one more — forces head wraparound.
        for i in 0..3 {
            let c = chunk2(&[i as f64; 3], &[10.0 + i as f64; 3]);
            assert!(ring.push_planar(&views(&c), now));
        }
        assert!(ring.pop_swap(&mut out));
        out.with_views(|v| {
            assert_eq!(v[0], &[0.0; 3]);
            assert_eq!(v[1], &[10.0; 3]);
        });
        let c = chunk2(&[7.0, 8.0], &[9.0, 11.0]);
        assert!(ring.push_planar(&views(&c), now));
        let mut seen = Vec::new();
        while ring.pop_swap(&mut out) {
            out.with_views(|v| seen.push((v[0].to_vec(), v[1].to_vec())));
        }
        assert_eq!(
            seen,
            vec![
                (vec![1.0; 3], vec![11.0; 3]),
                (vec![2.0; 3], vec![12.0; 3]),
                (vec![7.0, 8.0], vec![9.0, 11.0]),
            ]
        );
        assert_eq!(ring.len(), 0);
    }

    #[test]
    fn full_ring_rejects_without_overwriting() {
        let mut ring = ChunkRing::new(2, 1, 4, never());
        let now = Instant::now();
        assert!(ring.push_planar(&[&[1.0]], now));
        assert!(ring.push_planar(&[&[2.0]], now));
        assert!(!ring.push_planar(&[&[3.0]], now), "full ring must reject");
        assert_eq!(ring.len(), 2);
        let mut out = ChunkBuf::new(1, 4);
        assert!(ring.pop_swap(&mut out));
        out.with_views(|v| assert_eq!(v[0], &[1.0]));
        // The rejected chunk was never stored.
        assert!(ring.pop_swap(&mut out));
        out.with_views(|v| assert_eq!(v[0], &[2.0]));
        assert!(!ring.pop_swap(&mut out));
    }

    #[test]
    fn swap_recycles_storage_without_reallocating() {
        let mut ring = ChunkRing::new(2, 2, 8, never());
        let mut out = ChunkBuf::new(2, 8);
        let now = Instant::now();
        let before: Vec<usize> = ring.slots.iter().map(|s| s.data.capacity()).collect();
        for round in 0..50 {
            let c = chunk2(&[round as f64; 8], &[round as f64; 8]);
            assert!(ring.push_planar(&views(&c), now));
            assert!(ring.pop_swap(&mut out));
        }
        let after: Vec<usize> = ring.slots.iter().map(|s| s.data.capacity()).collect();
        assert_eq!(before, after, "slot capacities must be stable");
        assert_eq!(out.data.capacity(), 16);
    }

    #[test]
    fn clear_reports_dropped_chunks() {
        let mut ring = ChunkRing::new(4, 1, 2, never());
        let now = Instant::now();
        for _ in 0..3 {
            assert!(ring.push_planar(&[&[0.5, 0.5]], now));
        }
        assert_eq!(ring.clear(), 3);
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.clear(), 0);
    }

    #[test]
    fn enqueue_timestamps_ride_along() {
        let mut ring = ChunkRing::new(2, 1, 2, never());
        let mut out = ChunkBuf::new(1, 2);
        let t0 = Instant::now();
        assert!(ring.push_planar(&[&[1.0]], t0));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t1 = Instant::now();
        assert!(ring.push_planar(&[&[2.0]], t1));
        assert!(ring.pop_swap(&mut out));
        assert_eq!(out.enqueued(), t0);
        assert!(ring.pop_swap(&mut out));
        assert_eq!(out.enqueued(), t1);
    }

    #[test]
    fn chunks_that_complete_no_frame_are_deferred_until_one_does() {
        // Frames of 8 samples every 4, fed 2-sample chunks: the 4th chunk
        // completes frame 0, then every 2nd chunk completes the next one.
        // The ring's quarter bound (8) stays out of the way.
        let mut ring = ChunkRing::new(32, 1, 2, FrameCountdown::new(8, 4));
        let mut out = ChunkBuf::new(1, 2);
        let now = Instant::now();
        for queued in 1..=3 {
            assert!(ring.push_planar(&[&[0.0, 0.0]], now));
            assert_eq!((ring.len(), ring.deferred()), (queued, queued));
            assert!(!ring.is_due());
        }
        assert!(ring.push_planar(&[&[0.0, 0.0]], now));
        assert_eq!((ring.len(), ring.deferred()), (4, 0));
        assert!(ring.is_due());
        // A chunk after the frame is deferred again; the queue stays due
        // while the frame's chunks are queued ahead of it.
        assert!(ring.push_planar(&[&[0.0, 0.0]], now));
        assert_eq!(ring.deferred(), 1);
        assert!(ring.is_due());
        for _ in 0..4 {
            assert!(ring.pop_swap(&mut out));
        }
        assert_eq!((ring.len(), ring.deferred()), (1, 1));
        assert!(!ring.is_due());
        // Drained early (a flush), the deferred chunk leaves nothing behind.
        assert!(ring.pop_swap(&mut out));
        assert_eq!((ring.len(), ring.deferred()), (0, 0));
        assert!(ring.push_planar(&[&[0.0, 0.0]], now));
        assert_eq!(ring.deferred(), 0, "the 6th chunk completes frame 1");
    }

    #[test]
    fn more_than_a_quarter_ring_is_due_without_a_frame() {
        let mut ring = ChunkRing::new(8, 1, 1, never());
        let now = Instant::now();
        for _ in 0..2 {
            assert!(ring.push_planar(&[&[0.0]], now));
            assert!(!ring.is_due());
        }
        assert!(ring.push_planar(&[&[0.0]], now));
        assert_eq!(ring.deferred(), 0);
        assert!(ring.is_due(), "3 of 8 slots is over the quarter bound");
        // Below four slots the bound is zero: nothing is ever deferred.
        let mut small = ChunkRing::new(3, 1, 1, never());
        assert!(small.push_planar(&[&[0.0]], now));
        assert!(small.is_due());
    }

    #[test]
    fn rejected_chunks_do_not_advance_the_countdown() {
        let mut ring = ChunkRing::new(4, 1, 4, FrameCountdown::new(4, 4));
        let mut out = ChunkBuf::new(1, 4);
        let now = Instant::now();
        assert!(ring.push_planar(&[&[0.0; 2]], now));
        for _ in 0..3 {
            assert!(ring.push_planar(&[&[]], now));
        }
        assert!(
            !ring.push_planar(&[&[0.0; 2]], now),
            "full ring must reject"
        );
        while ring.pop_swap(&mut out) {}
        // Only 2 of the 4 samples of frame 0 were accepted so far.
        assert!(ring.push_planar(&[&[0.0]], now));
        assert_eq!(ring.deferred(), 1);
        assert!(ring.pop_swap(&mut out));
        assert!(ring.push_planar(&[&[0.0]], now));
        assert_eq!(ring.deferred(), 0);
    }
}
