//! `ispot-serve` — the serving layer: many concurrent acoustic-perception
//! streams multiplexed over one shared engine and a fixed worker pool.
//!
//! The core crate deliberately stops at the [`Engine`]/[`Session`] seam: an
//! engine holds the shared immutable state (detector weights, steering
//! operator, FFT plans) and a session is one cheap, independent stream. This
//! crate adds the part a deployment actually runs — a [`SessionHost`] that
//! owns the engine, a registry of stream slots and a pool of worker threads,
//! with the properties a real-time fleet host needs:
//!
//! * **Bounded everything.** Each stream has a fixed-capacity ingestion ring;
//!   dispatch runs over one ready queue holding at most one token per stream,
//!   behind one lock whose condvar idle workers block on. Memory is sized at
//!   construction and never grows.
//! * **Typed backpressure, nothing silent.** A full ring returns
//!   [`SubmitError::Busy`]; an overloaded host returns [`SubmitError::Shed`].
//!   The producer always learns the fate of its chunk — the host never blocks
//!   the caller and never drops audio it accepted (except at explicit stream
//!   close, where discards are counted).
//! * **Graceful degradation.** Past a high-watermark queue depth the host
//!   sheds *localization* before detection ([`Session::set_localization_shed`]
//!   — events keep class and confidence, lose azimuth), and past a second
//!   watermark it sheds intake; hysteresis restores fidelity once queues
//!   drain. Shed decisions are observable per stream
//!   ([`StreamStats::localization_shed`]) and host-wide
//!   ([`MetricsSnapshot::degrade_level`]).
//! * **Lock-free observability.** Every counter and histogram is a relaxed
//!   atomic handle registered in one `ispot-obs` [`MetricsRegistry`]; the same
//!   values feed the typed [`MetricsSnapshot`] API, the Prometheus-style
//!   `/metrics` endpoint ([`SessionHost::serve_http`]), the JSON `/snapshot`
//!   and the SSE `/events` feed. With `span_capacity > 0` every session gets a
//!   lock-free per-stream span ring tracing the four pipeline stages
//!   ([`SessionHost::stream_spans`]) plus per-stage latency histograms — the
//!   instrumented path stays allocation-free (enforced in
//!   `tests/zero_alloc.rs`) and bit-identical in output
//!   (`tests/determinism.rs`).
//! * **Zero allocation per chunk.** Ring slots are preallocated and recycled
//!   by buffer swap; sessions reuse their scratch; events are delivered by
//!   reference. The counting-allocator test in `tests/zero_alloc.rs` enforces
//!   this end to end.
//!
//! Determinism is preserved per stream: a session's event sequence depends
//! only on its own chunk order, so the same audio split the same way yields
//! bit-identical events at any worker count (see `tests/determinism.rs`).
//!
//! The `demo` example drives a host with rendered siren traffic and can serve
//! the endpoint while it runs:
//! `cargo run --release -p ispot-serve --example demo -- --metrics-port 9464`.
//!
//! [`Engine`]: ispot_core::api::Engine
//! [`Session`]: ispot_core::api::Session
//! [`Session::set_localization_shed`]: ispot_core::api::Session::set_localization_shed
//! [`MetricsRegistry`]: ispot_obs::MetricsRegistry

pub mod error;
pub mod feed;
pub mod host;
pub mod http;
pub mod load;
pub mod metrics;
pub mod observe;
pub(crate) mod ring;
pub mod sinks;
pub(crate) mod worker;

pub use error::{ServeError, SubmitError};
pub use feed::{EventFeed, FeedEvent};
pub use host::{HostConfig, SessionHost, StreamId, StreamStats};
pub use http::MetricsEndpoint;
pub use load::{DegradeLevel, LoadPolicy};
pub use metrics::{LatencyHistogram, LatencySnapshot, MetricsSnapshot};
pub use observe::HostObserver;
pub use sinks::{CountingSink, DiscardSink, SharedVecSink};

/// Everything a host embedder needs.
pub mod prelude {
    pub use crate::error::{ServeError, SubmitError};
    pub use crate::feed::{EventFeed, FeedEvent};
    pub use crate::host::{HostConfig, SessionHost, StreamId, StreamStats};
    pub use crate::http::MetricsEndpoint;
    pub use crate::load::{DegradeLevel, LoadPolicy};
    pub use crate::metrics::{LatencySnapshot, MetricsSnapshot};
    pub use crate::sinks::{CountingSink, DiscardSink, SharedVecSink};
}

/// Locks a mutex, recovering from poison: every mutex in this crate guards
/// state that stays consistent across a panicking holder (rings and sessions
/// are mutated through `&mut` methods that never leave partial states the rest
/// of the host could misread), and a wedged slot must not take the whole host
/// down with it.
pub(crate) fn relock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}
