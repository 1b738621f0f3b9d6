//! Host-wide counters and latency histograms, unified on the `ispot-obs`
//! [`MetricsRegistry`]: every counter and histogram the host mutates on its
//! data plane is a registered registry handle, so the same values feed the
//! typed [`MetricsSnapshot`] API and the Prometheus-style `/metrics` text
//! exposition without being counted twice.
//!
//! The shape keeps the `EngineMetrics` pattern from the real-time pipeline
//! exemplars: one plain struct of handles shared behind an `Arc`, mutated with
//! relaxed `fetch_add`s on the hot path and read with a consistent-enough
//! `load` sweep for reporting. Latency quantiles come from the registry's
//! fixed power-of-two [`LatencyHistogram`]: recording is allocation-free and
//! wait-free; p50/p99 resolve at snapshot time by walking 32 buckets and are
//! `None` (never a fake zero) while the histogram is empty.

use ispot_obs::{Counter, Gauge, MetricsRegistry};

/// The serve-layer latency histogram: the registry's power-of-two-bucket
/// histogram, re-exported under its historical name.
pub use ispot_obs::Histogram as LatencyHistogram;

/// Resolved latency statistics at one point in time. Quantiles are
/// conservative bucket upper edges and `None` when no samples were recorded.
pub use ispot_obs::HistogramSnapshot as LatencySnapshot;

/// Aggregate counters of one [`SessionHost`](crate::SessionHost), shared by
/// every worker and producer. Each field is a registered handle into the
/// host's [`MetricsRegistry`]; mutation is relaxed atomics and snapshotting
/// never blocks the data plane.
#[derive(Debug)]
pub struct HostMetrics {
    /// Streams ever opened.
    pub(crate) sessions_opened: Counter,
    /// Streams closed.
    pub(crate) sessions_closed: Counter,
    /// Chunks accepted into ingestion rings.
    pub(crate) chunks_in: Counter,
    /// Chunks rejected with [`SubmitError::Busy`](crate::SubmitError::Busy).
    pub(crate) chunks_busy: Counter,
    /// Chunks rejected with [`SubmitError::Shed`](crate::SubmitError::Shed).
    pub(crate) chunks_shed: Counter,
    /// Chunks discarded undelivered when their stream closed.
    pub(crate) chunks_discarded: Counter,
    /// Analysis frames completed across all sessions.
    pub(crate) frames: Counter,
    /// Frames processed while localization was shed.
    pub(crate) shed_frames: Counter,
    /// Perception events delivered to stream sinks.
    pub(crate) events: Counter,
    /// Upward degrade transitions (fidelity reduced).
    pub(crate) sheds: Counter,
    /// Downward degrade transitions (fidelity restored).
    pub(crate) restores: Counter,
    /// Session-level pipeline errors surfaced while processing a chunk.
    pub(crate) errors: Counter,
    /// Panics caught in a session or sink; each quarantined its stream.
    pub(crate) worker_panics: Counter,
    /// Submit-to-event-delivery latency across all streams.
    pub(crate) latency: LatencyHistogram,
    /// Streams currently open (computed; refreshed before scrapes).
    pub(crate) sessions_open: Gauge,
    /// Aggregate queue depth (computed; refreshed before scrapes).
    pub(crate) queue_depth: Gauge,
    /// Degrade-ladder level as 0/1/2 (computed; refreshed before scrapes).
    pub(crate) degrade_level: Gauge,
}

impl HostMetrics {
    /// Registers every host metric family and returns the handle struct.
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        HostMetrics {
            sessions_opened: registry.counter("ispot_sessions_opened_total", "Streams ever opened"),
            sessions_closed: registry.counter("ispot_sessions_closed_total", "Streams closed"),
            chunks_in: registry.counter(
                "ispot_chunks_in_total",
                "Chunks accepted into ingestion rings",
            ),
            chunks_busy: registry.counter(
                "ispot_chunks_busy_total",
                "Chunks rejected with backpressure (Busy)",
            ),
            chunks_shed: registry.counter(
                "ispot_chunks_shed_total",
                "Chunks rejected by intake shedding (Shed)",
            ),
            chunks_discarded: registry.counter(
                "ispot_chunks_discarded_total",
                "Chunks discarded undelivered at stream close",
            ),
            frames: registry.counter(
                "ispot_frames_total",
                "Analysis frames completed across all sessions",
            ),
            shed_frames: registry.counter(
                "ispot_shed_frames_total",
                "Frames processed while localization was shed",
            ),
            events: registry.counter(
                "ispot_events_total",
                "Perception events delivered to stream sinks",
            ),
            sheds: registry.counter(
                "ispot_sheds_total",
                "Upward degrade transitions (fidelity reduced)",
            ),
            restores: registry.counter(
                "ispot_restores_total",
                "Downward degrade transitions (fidelity restored)",
            ),
            errors: registry.counter(
                "ispot_errors_total",
                "Pipeline errors surfaced while processing chunks",
            ),
            worker_panics: registry.counter(
                "ispot_worker_panics_total",
                "Panics caught in a stream's session or sink (each quarantines its stream)",
            ),
            latency: registry.histogram(
                "ispot_event_latency_seconds",
                "Submit-to-event-delivery latency",
            ),
            sessions_open: registry.gauge("ispot_sessions_open", "Streams currently open"),
            queue_depth: registry.gauge(
                "ispot_queue_depth",
                "Chunks accepted but not yet fully processed",
            ),
            degrade_level: registry.gauge(
                "ispot_degrade_level",
                "Degrade ladder level (0=full, 1=shed localization, 2=shed intake)",
            ),
        }
    }
}

/// A coherent-enough copy of every host counter at one point in time, plus the
/// resolved latency quantiles — what an operations dashboard would scrape.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Streams currently open.
    pub sessions_open: usize,
    /// Streams ever opened.
    pub sessions_opened: u64,
    /// Streams closed.
    pub sessions_closed: u64,
    /// Chunks accepted into ingestion rings.
    pub chunks_in: u64,
    /// Chunks rejected with backpressure (`Busy`).
    pub chunks_busy: u64,
    /// Chunks rejected by intake shedding (`Shed`).
    pub chunks_shed: u64,
    /// Chunks discarded undelivered when their stream closed.
    pub chunks_discarded: u64,
    /// Chunks accepted but not yet fully processed (aggregate queue depth).
    pub queue_depth: usize,
    /// Analysis frames completed across all sessions.
    pub frames: u64,
    /// Frames processed while localization was shed.
    pub shed_frames: u64,
    /// Perception events delivered to stream sinks.
    pub events: u64,
    /// Upward degrade transitions.
    pub sheds: u64,
    /// Downward degrade transitions.
    pub restores: u64,
    /// Session-level pipeline errors surfaced while processing chunks.
    pub errors: u64,
    /// Panics caught in a stream's session or sink; each quarantined its
    /// stream.
    pub worker_panics: u64,
    /// Current degrade level of the load controller.
    pub degrade_level: crate::load::DegradeLevel,
    /// Submit-to-event-delivery latency (quantiles `None` until the first
    /// event is delivered).
    pub latency: LatencySnapshot,
}

impl MetricsSnapshot {
    /// Fraction of completed frames that ran with localization shed, in
    /// `[0, 1]`; 0 when no frame has completed.
    pub fn shed_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.shed_frames as f64 / self.frames as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_quantiles_are_conservative_upper_edges() {
        let h = LatencyHistogram::default();
        // 99 fast samples at ~100 µs, one slow at ~50 ms.
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // 100 µs lands in bucket [64, 128) µs → p50 reports 0.128 ms.
        assert_eq!(s.p50_ms, Some(0.128));
        // Rank 99 is still a fast sample; p99 must not be dragged to 50 ms.
        let p99 = s.p99_ms.expect("non-empty histogram has a p99");
        assert!(s.p50_ms.unwrap() <= p99 && p99 < 1.0, "p99 {p99}");
        assert!(s.max_ms >= 50.0);
        assert!(s.mean_ms > 0.0);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        // Satellite regression: an empty histogram used to report p50 = p99 =
        // 0.0, which dashboards read as "infinitely fast".
        let s = LatencyHistogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_ms, None);
        assert_eq!(s.p99_ms, None);
        assert_eq!(s.mean_ms, 0.0);
    }

    #[test]
    fn power_of_two_boundary_samples_bucket_upward() {
        // Values exactly on a bucket edge (2^k µs) belong to the bucket whose
        // lower edge they are, so the conservative quantile is the next edge
        // up — one sample at 512 µs must report 1.024 ms, not 0.512 ms.
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(512));
        assert_eq!(h.snapshot().p50_ms, Some(1.024));
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(511));
        assert_eq!(h.snapshot().p50_ms, Some(0.512));
    }

    #[test]
    fn shed_rate_handles_zero_frames() {
        let mut snap = MetricsSnapshot::default();
        assert_eq!(snap.shed_rate(), 0.0);
        snap.frames = 10;
        snap.shed_frames = 4;
        assert!((snap.shed_rate() - 0.4).abs() < 1e-12);
    }
}
