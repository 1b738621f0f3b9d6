//! The session host: N concurrent perception streams multiplexed over a fixed
//! worker pool.
//!
//! One [`SessionHost`] owns one shared [`Engine`] and a fixed table of stream
//! slots. Each open stream has a bounded ingestion ring (`ChunkRing`) in
//! front of its [`Session`]; producers push audio chunks from any thread
//! ([`SessionHost::push_chunk`]) and a pool of worker threads drains the rings,
//! running the perception pipeline and delivering events to the stream's
//! [`EventSink`].
//!
//! # Dispatch protocol
//!
//! Work distribution is a FIFO ready queue of slot indices plus one
//! `scheduled` flag per slot. The queue and the count of idle workers sit
//! behind one dispatch lock with one condvar; the pause and shutdown flags are
//! atomics written under that lock, so a worker that checks them there cannot
//! miss the wake-up that follows a change:
//!
//! * A worker is woken per frame, not per chunk. The ring runs the session's
//!   frame countdown (`frame_len` samples to the first frame, then `hop` per
//!   frame) over every accepted chunk, so a push knows whether its chunk
//!   completes a frame. Only a push that leaves the ring *due* — a queued
//!   chunk completes a frame, or more than ⌊`ring_capacity`/4⌋ chunks are
//!   queued — schedules the slot. Any other chunk is *deferred*: it waits in
//!   the ring without a wake-up and is drained, in order, with the chunk that
//!   completes the frame.
//! * Scheduling CASes the slot's `scheduled` flag `false → true`; only the
//!   winner enqueues the slot index. At most one token per slot can exist, so
//!   the queue (preallocated to `max_sessions`) never grows. The producer
//!   wakes one worker only if one is waiting.
//! * An idle worker blocks on the condvar until a token arrives, the pool is
//!   resumed or the host shuts down — no polling.
//! * The worker that receives a token owns the session exclusively while it
//!   drains (events of one stream are always delivered in order, from one
//!   thread at a time), deferred chunks included. When it stops draining it
//!   clears `scheduled` **and then re-checks the ring**: if a due chunk raced
//!   in after the last pop, it re-CASes and re-enqueues, so no frame is ever
//!   stranded.
//! * Deferred chunks are never lost: [`SessionHost::wait_idle`] schedules
//!   every slot that holds them, and keeps doing so while it polls;
//!   [`SessionHost::close_stream`] counts them in
//!   [`MetricsSnapshot::chunks_discarded`] like any other queued chunk. They
//!   count in the queue depth the load controller watches; with at most a
//!   quarter ring deferred per stream, deferral alone stays below the default
//!   restore watermark (`shed_low` = 0.35).
//!
//! # Fault containment
//!
//! A panic in a stream's session or sink is caught around the chunk that
//! raised it. The stream is quarantined: its session and sink are dropped,
//! its queued chunks are discarded (counted), later pushes return
//! [`SubmitError::Quarantined`], and the worker goes on serving the other
//! streams.
//!
//! # Backpressure and degradation
//!
//! Nothing in the data plane blocks or allocates: a full ring returns
//! [`SubmitError::Busy`], and past the intake watermark the host returns
//! [`SubmitError::Shed`] before touching the ring. Between those, the
//! load controller sheds localization host-wide (sessions keep detecting,
//! events carry no azimuth) and restores it with hysteresis once queues drain.

use crate::error::{ServeError, SubmitError};
use crate::feed::EventFeed;
use crate::load::{DegradeLevel, LoadController, LoadPolicy};
use crate::metrics::{HostMetrics, MetricsSnapshot};
use crate::observe::{HostObserver, StageHistograms};
use crate::relock;
use crate::ring::{ChunkRing, MAX_CHANNELS};
use crate::worker;
use ispot_core::api::{Engine, Session};
use ispot_core::sink::EventSink;
use ispot_dsp::framing::FrameCountdown;
use ispot_obs::{MetricsRegistry, Span, SpanRing, TickSource};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Static configuration of a [`SessionHost`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// Worker threads draining the ingestion rings.
    pub workers: usize,
    /// Stream slots — the hard cap on concurrently open streams. Slots and the
    /// ready queue are sized once at construction; opening/closing streams
    /// recycles them.
    pub max_sessions: usize,
    /// Chunks each stream's ingestion ring holds before `push_chunk` reports
    /// [`SubmitError::Busy`].
    pub ring_capacity: usize,
    /// Largest chunk (samples per channel) a producer may push; ring slots are
    /// preallocated at this bound so the data plane never allocates.
    pub max_chunk_len: usize,
    /// Watermarks of the graceful-degradation ladder.
    pub policy: LoadPolicy,
    /// Start with the worker pool paused (chunks queue but are not processed)
    /// until [`SessionHost::resume`] — used by tests and benches that need to
    /// build up load deterministically.
    pub start_paused: bool,
    /// Per-stream span-ring capacity for pipeline tracing. `0` (the default)
    /// disables tracing entirely: sessions run with no observer attached and
    /// the per-stage cost is a single branch.
    pub span_capacity: usize,
    /// Capacity of the live event feed ring backing the `/events` endpoint
    /// and [`SessionHost::feed`].
    pub feed_capacity: usize,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            workers: 4,
            max_sessions: 64,
            ring_capacity: 8,
            max_chunk_len: 512,
            policy: LoadPolicy::default(),
            start_paused: false,
            span_capacity: 0,
            feed_capacity: 256,
        }
    }
}

impl HostConfig {
    /// Checks every field, naming the offender.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig {
                field: "workers",
                reason: "must be at least 1",
            });
        }
        if self.max_sessions == 0 {
            return Err(ServeError::InvalidConfig {
                field: "max_sessions",
                reason: "must be at least 1",
            });
        }
        if self.max_sessions > u32::MAX as usize / 2 {
            return Err(ServeError::InvalidConfig {
                field: "max_sessions",
                reason: "must fit the u32 slot index space",
            });
        }
        if self.ring_capacity == 0 {
            return Err(ServeError::InvalidConfig {
                field: "ring_capacity",
                reason: "must be at least 1",
            });
        }
        if self.max_chunk_len == 0 {
            return Err(ServeError::InvalidConfig {
                field: "max_chunk_len",
                reason: "must be at least 1",
            });
        }
        if self.feed_capacity == 0 {
            return Err(ServeError::InvalidConfig {
                field: "feed_capacity",
                reason: "must be at least 1",
            });
        }
        self.policy.validate()
    }
}

/// Handle to one open stream: a slot index plus the generation it was opened
/// under, so an id kept after [`SessionHost::close_stream`] can never reach a
/// later occupant of the recycled slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId {
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

/// Point-in-time statistics of one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Chunks queued in the ingestion ring right now.
    pub queued: usize,
    /// Queued chunks not yet due: accepted after the last chunk that completes
    /// a frame, while they fill at most a quarter of the ring. No worker is
    /// woken for them (see the [dispatch protocol](self)). At most `queued`.
    pub deferred: usize,
    /// Chunks accepted since the stream opened.
    pub chunks_in: u64,
    /// Chunks rejected with [`SubmitError::Busy`].
    pub chunks_busy: u64,
    /// Analysis frames completed.
    pub frames: u64,
    /// Frames processed while localization was shed.
    pub shed_frames: u64,
    /// Perception events delivered to the stream's sink.
    pub events: u64,
    /// Pipeline errors surfaced while processing this stream's chunks.
    pub errors: u64,
    /// Whether the last processed chunk ran with localization shed — the
    /// per-session view of the host's degrade decisions.
    pub localization_shed: bool,
    /// Whether the stream was quarantined after its session or sink panicked;
    /// pushes then return [`SubmitError::Quarantined`].
    pub quarantined: bool,
}

/// Per-slot counters (relaxed atomics; reset when the slot is reopened).
#[derive(Debug, Default)]
pub(crate) struct SlotStats {
    pub(crate) chunks_in: AtomicU64,
    pub(crate) chunks_busy: AtomicU64,
    pub(crate) frames: AtomicU64,
    pub(crate) shed_frames: AtomicU64,
    pub(crate) events: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) shed_applied: AtomicBool,
    /// Set under the ring lock, and read there by `push_chunk`.
    pub(crate) quarantined: AtomicBool,
}

impl SlotStats {
    fn reset(&self) {
        self.chunks_in.store(0, Ordering::Relaxed);
        self.chunks_busy.store(0, Ordering::Relaxed);
        self.frames.store(0, Ordering::Relaxed);
        self.shed_frames.store(0, Ordering::Relaxed);
        self.events.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
        self.shed_applied.store(false, Ordering::Relaxed);
        self.quarantined.store(false, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, queued: usize, deferred: usize) -> StreamStats {
        StreamStats {
            queued,
            deferred,
            chunks_in: self.chunks_in.load(Ordering::Relaxed),
            chunks_busy: self.chunks_busy.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            shed_frames: self.shed_frames.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            localization_shed: self.shed_applied.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// The session and its sink — taken together under one lock so the worker that
/// owns a drain can borrow both disjointly.
pub(crate) struct SessionState {
    pub(crate) session: Session,
    pub(crate) sink: Box<dyn EventSink + Send>,
}

impl std::fmt::Debug for SessionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionState")
            .field("session", &self.session)
            .finish_non_exhaustive()
    }
}

/// One stream slot. `ring` and `session` are separate locks taken strictly
/// sequentially (never nested): producers only touch `ring`, the draining
/// worker takes `ring` to pop then `session` to process.
#[derive(Debug)]
pub(crate) struct Slot {
    pub(crate) ring: Mutex<Option<ChunkRing>>,
    pub(crate) session: Mutex<Option<SessionState>>,
    /// True while a ready-queue token for this slot exists (or a worker is
    /// between consuming the token and re-checking the ring). The CAS on this
    /// flag is what bounds the ready queue to one token per slot.
    pub(crate) scheduled: AtomicBool,
    /// Bumped on close; a [`StreamId`] is valid only while its generation
    /// matches.
    pub(crate) generation: AtomicU32,
    pub(crate) stats: SlotStats,
    /// The stream's span ring when tracing is enabled (control-plane lock:
    /// taken only on open/close and by exporters, never on the data plane —
    /// the attached observer holds its own `Arc`).
    pub(crate) spans: Mutex<Option<Arc<SpanRing>>>,
}

/// Dispatch state shared by producers and workers, behind one lock.
#[derive(Debug)]
struct Dispatch {
    /// Slot tokens ready for a worker, FIFO; at most one per slot.
    ready: VecDeque<u32>,
    /// Workers blocked on the condvar; producers skip the wake-up when zero.
    waiting: usize,
}

/// State shared between the host handle and its workers.
#[derive(Debug)]
pub(crate) struct HostInner {
    pub(crate) engine: Engine,
    pub(crate) config: HostConfig,
    pub(crate) slots: Vec<Slot>,
    /// Free slot indices (control plane only).
    free: Mutex<Vec<u32>>,
    dispatch: Mutex<Dispatch>,
    /// Signalled when a token is queued, the pool resumes or the host shuts
    /// down.
    wakeup: Condvar,
    /// Workers take no tokens while set (tests/benches build load paused).
    /// Written under the dispatch lock, like `shutdown`; draining workers read
    /// it per chunk without taking that lock.
    paused: AtomicBool,
    pub(crate) load: LoadController,
    /// The unified registry every host metric is registered in; rendered by
    /// the `/metrics` endpoint.
    pub(crate) registry: MetricsRegistry,
    pub(crate) metrics: HostMetrics,
    /// Per-stage latency histograms fed by every traced session.
    pub(crate) stage_latency: StageHistograms,
    /// Live feed of event summaries and degrade transitions.
    pub(crate) feed: EventFeed,
    /// The host clock every session is aligned to, so span ticks and feed
    /// timestamps share one origin.
    pub(crate) ticks: TickSource,
    /// Set under the dispatch lock, so a worker cannot check it and then miss
    /// the shutdown wake-up.
    shutdown: AtomicBool,
}

impl HostInner {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    pub(crate) fn is_paused(&self) -> bool {
        self.paused.load(Ordering::Acquire)
    }

    /// Requests a drain of `slot_idx`: CASes the slot's `scheduled` flag and,
    /// on winning, enqueues one token. Loser paths mean a token already exists
    /// (or the owning worker will re-check), so the chunk cannot be stranded.
    /// A waiting worker is woken after the lock is released; when every worker
    /// is busy, no wake-up is issued — a busy worker takes the token before it
    /// waits again.
    pub(crate) fn schedule(&self, slot_idx: usize) {
        let slot = &self.slots[slot_idx];
        if slot
            .scheduled
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let wake = {
                let mut dispatch = relock(&self.dispatch);
                dispatch.ready.push_back(slot_idx as u32);
                dispatch.waiting > 0
            };
            if wake {
                self.wakeup.notify_one();
            }
        }
    }

    /// Blocks the calling worker until a slot token is ready and the pool is
    /// not paused, and takes it (FIFO). Returns `None` once the host shuts
    /// down.
    pub(crate) fn next_ready(&self) -> Option<u32> {
        let mut dispatch = relock(&self.dispatch);
        loop {
            if self.shutting_down() {
                return None;
            }
            if !self.is_paused() {
                if let Some(slot_idx) = dispatch.ready.pop_front() {
                    return Some(slot_idx);
                }
            }
            dispatch.waiting += 1;
            dispatch = match self.wakeup.wait(dispatch) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            dispatch.waiting -= 1;
        }
    }

    /// Sets the pause flag under the dispatch lock and wakes every waiting
    /// worker to re-check it.
    fn set_paused(&self, paused: bool) {
        {
            let _dispatch = relock(&self.dispatch);
            self.paused.store(paused, Ordering::Release);
        }
        self.wakeup.notify_all();
    }

    /// Schedules every slot that holds deferred chunks, so they drain without
    /// waiting for a chunk that completes a frame.
    fn flush_deferred(&self) {
        for (slot_idx, slot) in self.slots.iter().enumerate() {
            let deferred = relock(&slot.ring)
                .as_ref()
                .is_some_and(|ring| ring.deferred() > 0);
            if deferred {
                self.schedule(slot_idx);
            }
        }
    }

    /// Quarantines the stream opened under `generation` after its session or
    /// sink panicked: later pushes are refused, and its queued chunks are
    /// discarded, counted and settled in the load accounting. A stream closed
    /// meanwhile (its generation moved on) has had its chunks counted by the
    /// close.
    pub(crate) fn quarantine(&self, slot: &Slot, generation: u32) {
        let discarded = {
            let mut guard = relock(&slot.ring);
            if slot.generation.load(Ordering::Acquire) != generation {
                return;
            }
            slot.stats.quarantined.store(true, Ordering::Relaxed);
            guard.as_mut().map_or(0, ChunkRing::clear)
        };
        self.discard(discarded);
        self.note_transitions();
    }

    /// Accounts for `count` accepted chunks that will never be processed.
    fn discard(&self, count: usize) {
        for _ in 0..count {
            self.load.on_complete();
        }
        self.metrics.chunks_discarded.add(count as u64);
    }

    /// Applies any pending degrade transition, counts it and publishes it on
    /// the live feed.
    pub(crate) fn note_transitions(&self) {
        if let Some((from, to)) = self.load.evaluate() {
            if to > from {
                self.metrics.sheds.incr();
            } else {
                self.metrics.restores.incr();
            }
            self.feed.push_transition(from, to);
        }
    }

    /// Refreshes the computed gauges from live control-plane state. Called
    /// before every scrape so the exposition reflects the present, not the
    /// last mutation.
    pub(crate) fn refresh_gauges(&self) {
        let open = self.config.max_sessions - relock(&self.free).len();
        self.metrics.sessions_open.set(open as u64);
        self.metrics.queue_depth.set(self.load.in_flight() as u64);
        self.metrics.degrade_level.set(self.load.level() as u64);
    }

    /// Refreshes the gauges and renders the full Prometheus-style text
    /// exposition.
    pub(crate) fn render_prometheus(&self) -> String {
        self.refresh_gauges();
        self.registry.render_prometheus()
    }
}

/// A threaded host multiplexing concurrent perception streams over a fixed
/// worker pool, with bounded queues, typed backpressure and graceful
/// degradation. See the [module docs](self) for the dispatch protocol.
///
/// # Example
///
/// ```
/// use ispot_core::prelude::*;
/// use ispot_serve::{HostConfig, SessionHost, SharedVecSink};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = PipelineBuilder::new(16_000.0).channels(1).build_engine()?;
/// let host = SessionHost::new(engine, HostConfig { workers: 2, ..HostConfig::default() })?;
///
/// let events = SharedVecSink::new();
/// let stream = host.open_stream(events.clone())?;
///
/// let chunk = vec![0.25f64; 512];
/// host.push_chunk(stream, &[&chunk])?;
/// assert!(host.wait_idle(std::time::Duration::from_secs(5)));
///
/// let stats = host.close_stream(stream)?;
/// assert_eq!(stats.chunks_in, 1);
/// assert_eq!(events.len(), stats.events as usize);
/// # Ok(())
/// # }
/// ```
pub struct SessionHost {
    inner: Arc<HostInner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for SessionHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHost")
            .field("config", &self.inner.config)
            .field("workers", &self.workers.len())
            .field("level", &self.inner.load.level())
            .finish_non_exhaustive()
    }
}

impl SessionHost {
    /// Validates `config`, builds the slot table and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the offending field when a
    /// configuration value is out of range, or when the engine's channel count
    /// exceeds the serve layer's stack-view bound.
    pub fn new(engine: Engine, config: HostConfig) -> Result<SessionHost, ServeError> {
        config.validate()?;
        if engine.num_channels() > MAX_CHANNELS {
            return Err(ServeError::InvalidConfig {
                field: "engine",
                reason: "channel count exceeds the serve layer's 32-channel bound",
            });
        }
        let mut slots = Vec::with_capacity(config.max_sessions);
        for _ in 0..config.max_sessions {
            slots.push(Slot {
                ring: Mutex::new(None),
                session: Mutex::new(None),
                scheduled: AtomicBool::new(false),
                generation: AtomicU32::new(0),
                stats: SlotStats::default(),
                spans: Mutex::new(None),
            });
        }
        // Popping from the back hands out low indices first.
        let free: Vec<u32> = (0..config.max_sessions as u32).rev().collect();
        let registry = MetricsRegistry::new();
        let metrics = HostMetrics::new(&registry);
        let stage_latency = StageHistograms::new(&registry);
        let inner = Arc::new(HostInner {
            engine,
            config,
            slots,
            free: Mutex::new(free),
            dispatch: Mutex::new(Dispatch {
                ready: VecDeque::with_capacity(config.max_sessions),
                waiting: 0,
            }),
            wakeup: Condvar::new(),
            paused: AtomicBool::new(config.start_paused),
            load: LoadController::new(config.policy),
            registry,
            metrics,
            stage_latency,
            feed: EventFeed::new(config.feed_capacity),
            ticks: TickSource::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ispot-serve-{i}"))
                    .spawn(move || worker::worker_loop(&inner))
                    .expect("spawn serve worker thread")
            })
            .collect();
        Ok(SessionHost { inner, workers })
    }

    /// The shared engine.
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// The validated configuration.
    pub fn config(&self) -> HostConfig {
        self.inner.config
    }

    /// Opens a stream: claims a slot, opens a [`Session`] on the shared engine
    /// and installs `sink` as the stream's event consumer. The sink is invoked
    /// from worker threads, one chunk at a time, in submission order.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::AtCapacity`] when every slot is occupied.
    pub fn open_stream<S: EventSink + Send + 'static>(
        &self,
        sink: S,
    ) -> Result<StreamId, ServeError> {
        let inner = &self.inner;
        let idx = relock(&inner.free).pop().ok_or(ServeError::AtCapacity {
            max_sessions: inner.config.max_sessions,
        })?;
        let slot = &inner.slots[idx as usize];
        let mut session = inner.engine.open_session();
        // All sessions share the host clock, so spans from different streams
        // are directly comparable on one timeline.
        session.set_tick_source(inner.ticks);
        if inner.config.span_capacity > 0 {
            let spans = Arc::new(SpanRing::new(inner.config.span_capacity));
            session.set_observer(Box::new(HostObserver::new(
                Arc::clone(&spans),
                inner.stage_latency.clone(),
            )));
            *relock(&slot.spans) = Some(spans);
        }
        slot.stats.reset();
        *relock(&slot.session) = Some(SessionState {
            session,
            sink: Box::new(sink),
        });
        let pipeline = inner.engine.config();
        *relock(&slot.ring) = Some(ChunkRing::new(
            inner.config.ring_capacity,
            inner.engine.num_channels(),
            inner.config.max_chunk_len,
            FrameCountdown::new(pipeline.frame_len, pipeline.hop),
        ));
        inner.load.add_capacity(inner.config.ring_capacity);
        inner.metrics.sessions_opened.incr();
        Ok(StreamId {
            slot: idx,
            generation: slot.generation.load(Ordering::Acquire),
        })
    }

    /// Submits one planar `f64` chunk (`chunk[channel][sample]`) to a stream.
    /// Non-blocking and allocation-free on every path: the chunk is copied into
    /// the stream's preallocated ring or comes back with a typed
    /// [`SubmitError`] — nothing is ever dropped silently.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] (ring full) and [`SubmitError::Shed`] (host past
    /// its intake watermark) are transient by design;
    /// [`SubmitError::Quarantined`] means the stream's session or sink
    /// panicked; the remaining variants are caller bugs (stale id, wrong
    /// shape). In every case the chunk was not enqueued.
    pub fn push_chunk(&self, id: StreamId, chunk: &[&[f64]]) -> Result<(), SubmitError> {
        let inner = &self.inner;
        let slot = inner
            .slots
            .get(id.slot as usize)
            .ok_or(SubmitError::UnknownStream)?;
        let expected = inner.engine.num_channels();
        if chunk.len() != expected {
            return Err(SubmitError::ChannelMismatch {
                expected,
                actual: chunk.len(),
            });
        }
        let samples = chunk.first().map_or(0, |c| c.len());
        for channel in chunk {
            if channel.len() != samples {
                return Err(SubmitError::RaggedChunk);
            }
        }
        if samples > inner.config.max_chunk_len {
            return Err(SubmitError::ChunkTooLong {
                samples,
                max: inner.config.max_chunk_len,
            });
        }
        if inner.load.level() == DegradeLevel::ShedIntake {
            inner.metrics.chunks_shed.incr();
            return Err(SubmitError::Shed);
        }
        let due = {
            let mut guard = relock(&slot.ring);
            // Generation is re-checked under the ring lock: close bumps it
            // under the same lock, so a stale id can never reach a recycled
            // slot's new ring.
            if slot.generation.load(Ordering::Acquire) != id.generation {
                return Err(SubmitError::UnknownStream);
            }
            let Some(ring) = guard.as_mut() else {
                return Err(SubmitError::UnknownStream);
            };
            // Set under this lock together with the ring's last clear.
            if slot.stats.quarantined.load(Ordering::Relaxed) {
                return Err(SubmitError::Quarantined);
            }
            if !ring.push_planar(chunk, Instant::now()) {
                inner.metrics.chunks_busy.incr();
                slot.stats.chunks_busy.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Busy { queued: ring.len() });
            }
            ring.is_due()
        };
        inner.metrics.chunks_in.incr();
        slot.stats.chunks_in.fetch_add(1, Ordering::Relaxed);
        inner.load.on_enqueue();
        inner.note_transitions();
        // A deferred chunk costs no wake-up: it drains with the chunk that
        // completes the frame, or at `wait_idle`.
        if due {
            inner.schedule(id.slot as usize);
        }
        Ok(())
    }

    /// Closes a stream: discards undelivered chunks, deferred ones included
    /// (counted in [`MetricsSnapshot::chunks_discarded`]), waits for any
    /// in-flight chunk of this stream to finish, drops the session and sink,
    /// and recycles the slot. Returns the stream's final statistics.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownStream`] if `id` is stale or was never
    /// opened.
    pub fn close_stream(&self, id: StreamId) -> Result<StreamStats, ServeError> {
        let inner = &self.inner;
        let slot = inner
            .slots
            .get(id.slot as usize)
            .ok_or(ServeError::UnknownStream)?;
        let discarded = {
            let mut guard = relock(&slot.ring);
            if slot.generation.load(Ordering::Acquire) != id.generation || guard.is_none() {
                return Err(ServeError::UnknownStream);
            }
            slot.generation.fetch_add(1, Ordering::AcqRel);
            guard.take().map_or(0, |mut ring| ring.clear())
        };
        inner.discard(discarded);
        // Blocks until the worker currently processing this stream (if any)
        // releases the session lock — close never races a live drain.
        *relock(&slot.session) = None;
        *relock(&slot.spans) = None;
        inner.load.remove_capacity(inner.config.ring_capacity);
        inner.note_transitions();
        inner.metrics.sessions_closed.incr();
        let stats = slot.stats.snapshot(0, 0);
        relock(&inner.free).push(id.slot);
        Ok(stats)
    }

    /// Point-in-time statistics of one open stream.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownStream`] if `id` is stale or was never
    /// opened.
    pub fn stream_stats(&self, id: StreamId) -> Result<StreamStats, ServeError> {
        let inner = &self.inner;
        let slot = inner
            .slots
            .get(id.slot as usize)
            .ok_or(ServeError::UnknownStream)?;
        let guard = relock(&slot.ring);
        if slot.generation.load(Ordering::Acquire) != id.generation {
            return Err(ServeError::UnknownStream);
        }
        let ring = guard.as_ref().ok_or(ServeError::UnknownStream)?;
        Ok(slot.stats.snapshot(ring.len(), ring.deferred()))
    }

    /// Snapshots every host counter plus the latency quantiles. Reads relaxed
    /// atomics and briefly locks control-plane state only — never the data
    /// plane.
    pub fn metrics(&self) -> MetricsSnapshot {
        let inner = &self.inner;
        let m = &inner.metrics;
        MetricsSnapshot {
            sessions_open: inner.config.max_sessions - relock(&inner.free).len(),
            sessions_opened: m.sessions_opened.get(),
            sessions_closed: m.sessions_closed.get(),
            chunks_in: m.chunks_in.get(),
            chunks_busy: m.chunks_busy.get(),
            chunks_shed: m.chunks_shed.get(),
            chunks_discarded: m.chunks_discarded.get(),
            queue_depth: inner.load.in_flight(),
            frames: m.frames.get(),
            shed_frames: m.shed_frames.get(),
            events: m.events.get(),
            sheds: m.sheds.get(),
            restores: m.restores.get(),
            errors: m.errors.get(),
            worker_panics: m.worker_panics.get(),
            degrade_level: inner.load.level(),
            latency: m.latency.snapshot(),
        }
    }

    /// Current level of the graceful-degradation ladder.
    pub fn degrade_level(&self) -> DegradeLevel {
        self.inner.load.level()
    }

    /// Renders every registered host metric as Prometheus-style text
    /// exposition — the body the `/metrics` endpoint serves. Computed gauges
    /// are refreshed first.
    pub fn render_prometheus(&self) -> String {
        self.inner.render_prometheus()
    }

    /// Resolved per-stage latency snapshots, in pipeline order
    /// (trigger, detection, localization, tracking). All-`None` quantiles
    /// until tracing is enabled (`span_capacity > 0`) and frames have run.
    pub fn stage_latency(&self) -> [(&'static str, crate::metrics::LatencySnapshot); 4] {
        self.inner.stage_latency.snapshot()
    }

    /// The live feed of perception-event summaries and degrade transitions.
    pub fn feed(&self) -> &EventFeed {
        &self.inner.feed
    }

    /// Copies the still-resident trace spans of one stream, oldest first.
    /// Empty when tracing is disabled (`span_capacity == 0`).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownStream`] if `id` is stale or was never
    /// opened.
    pub fn stream_spans(&self, id: StreamId) -> Result<Vec<Span>, ServeError> {
        let inner = &self.inner;
        let slot = inner
            .slots
            .get(id.slot as usize)
            .ok_or(ServeError::UnknownStream)?;
        let guard = relock(&slot.spans);
        if slot.generation.load(Ordering::Acquire) != id.generation {
            return Err(ServeError::UnknownStream);
        }
        let mut out = Vec::new();
        if let Some(ring) = guard.as_ref() {
            ring.snapshot_into(&mut out);
        }
        Ok(out)
    }

    /// Shared host state for the HTTP exporter thread.
    pub(crate) fn inner(&self) -> &Arc<HostInner> {
        &self.inner
    }

    /// Pauses the worker pool after it finishes the chunks it is currently
    /// processing; accepted chunks queue in their rings. Used to build load
    /// deterministically in tests and benches.
    pub fn pause(&self) {
        self.inner.set_paused(true);
    }

    /// Resumes a paused worker pool.
    pub fn resume(&self) {
        self.inner.set_paused(false);
    }

    /// Blocks until every accepted chunk has been fully processed (or
    /// discarded by a close), polling the aggregate queue depth. Deferred
    /// chunks, which no completed frame has drained yet, are scheduled on
    /// every poll, so they are processed too, also when producers keep pushing
    /// meanwhile. Returns `false` on timeout — which is guaranteed if the pool
    /// is paused and chunks are queued.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.inner.load.in_flight() > 0 {
            self.inner.flush_deferred();
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }
}

impl Drop for SessionHost {
    fn drop(&mut self) {
        {
            let _dispatch = relock(&self.inner.dispatch);
            self.inner.shutdown.store(true, Ordering::Release);
        }
        // Wake every waiting worker, paused or idle, so it observes shutdown.
        self.inner.wakeup.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}
