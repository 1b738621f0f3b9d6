//! Typed errors of the serving layer.
//!
//! The split mirrors the two call planes of the host: [`ServeError`] covers the
//! cold control plane (configuration, stream registry), [`SubmitError`] covers
//! the per-chunk data plane. Data-plane rejections are *states, not failures* —
//! [`SubmitError::Busy`] and [`SubmitError::Shed`] tell the producer exactly why
//! its chunk was not accepted and that nothing was enqueued, so it can retry,
//! thin its stream, or drop with full knowledge. No variant allocates.

/// Control-plane errors: host construction and stream registry operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// A [`HostConfig`](crate::HostConfig) or
    /// [`LoadPolicy`](crate::LoadPolicy) field is out of range.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Why the value was rejected.
        reason: &'static str,
    },
    /// Every session slot is occupied; close a stream before opening another.
    AtCapacity {
        /// The configured slot count.
        max_sessions: usize,
    },
    /// The stream id does not name an open stream (never opened, already
    /// closed, or a stale id whose slot was recycled — generations catch
    /// use-after-close).
    UnknownStream,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidConfig { field, reason } => {
                write!(f, "invalid host configuration: `{field}` {reason}")
            }
            ServeError::AtCapacity { max_sessions } => {
                write!(f, "all {max_sessions} session slots are occupied")
            }
            ServeError::UnknownStream => f.write_str("unknown or closed stream id"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Data-plane results of [`SessionHost::push_chunk`](crate::SessionHost::push_chunk):
/// why a chunk was **not** accepted. In every case the chunk was *not* enqueued
/// and no partial state was written — the producer still owns the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// This stream's bounded ingestion ring is full — per-stream backpressure.
    /// The producer should retry after the workers drain, or drop the chunk
    /// knowingly; the host never blocks and never buffers beyond the ring.
    Busy {
        /// Chunks currently queued on the stream (the ring capacity).
        queued: usize,
    },
    /// The load controller is past its intake watermark
    /// ([`DegradeLevel::ShedIntake`](crate::DegradeLevel::ShedIntake)): the host
    /// is refusing new audio fleet-wide to protect the latency of what is
    /// already queued. Retry once load drops.
    Shed,
    /// The stream id does not name an open stream.
    UnknownStream,
    /// The chunk's channel count does not match the engine's.
    ChannelMismatch {
        /// Channels every session of this host expects.
        expected: usize,
        /// Channels the chunk carried.
        actual: usize,
    },
    /// The chunk is longer than the configured
    /// [`max_chunk_len`](crate::HostConfig::max_chunk_len) — ring slots are
    /// preallocated at that bound so the data plane never allocates.
    ChunkTooLong {
        /// Samples per channel in the rejected chunk.
        samples: usize,
        /// The configured per-chunk bound.
        max: usize,
    },
    /// The chunk's channels have unequal lengths.
    RaggedChunk,
    /// The stream's session or sink panicked while processing an earlier
    /// chunk. The host dropped both and discarded the stream's queued chunks
    /// (counted in
    /// [`MetricsSnapshot::chunks_discarded`](crate::MetricsSnapshot::chunks_discarded));
    /// the stream accepts nothing more, so close it.
    Quarantined,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy { queued } => {
                write!(f, "stream ring full ({queued} chunks queued); retry later")
            }
            SubmitError::Shed => f.write_str("host is shedding intake under overload; retry later"),
            SubmitError::UnknownStream => f.write_str("unknown or closed stream id"),
            SubmitError::ChannelMismatch { expected, actual } => {
                write!(f, "chunk has {actual} channels, host expects {expected}")
            }
            SubmitError::ChunkTooLong { samples, max } => {
                write!(f, "chunk has {samples} samples/channel, bound is {max}")
            }
            SubmitError::RaggedChunk => f.write_str("chunk channels have unequal lengths"),
            SubmitError::Quarantined => {
                f.write_str("stream quarantined after its session or sink panicked")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

impl SubmitError {
    /// True for the two transient, by-design rejections (backpressure and
    /// intake shedding) a well-behaved producer retries; false for caller bugs
    /// (wrong shape, stale id) and a quarantined stream, which retrying can
    /// never fix.
    pub fn is_transient(&self) -> bool {
        matches!(self, SubmitError::Busy { .. } | SubmitError::Shed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative_and_transience_is_typed() {
        assert!(SubmitError::Busy { queued: 8 }.to_string().contains("8"));
        assert!(SubmitError::Shed.is_transient());
        assert!(SubmitError::Busy { queued: 1 }.is_transient());
        assert!(!SubmitError::UnknownStream.is_transient());
        assert!(!SubmitError::Quarantined.is_transient());
        assert!(SubmitError::Quarantined.to_string().contains("panicked"));
        assert!(!SubmitError::ChannelMismatch {
            expected: 4,
            actual: 2
        }
        .is_transient());
        let e = ServeError::InvalidConfig {
            field: "workers",
            reason: "must be positive",
        };
        assert!(e.to_string().contains("workers"));
    }
}
