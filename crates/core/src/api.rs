//! The deployment-facing API: builder-validated construction, shared-state
//! engines, and per-stream sessions.
//!
//! Three layers, from outermost in:
//!
//! * [`PipelineBuilder`] — the only way to configure and construct anything.
//!   Every parameter is validated up front ([`PipelineError::InvalidConfig`]
//!   with the offending field), so degenerate configurations (`hop = 0`,
//!   `hop > frame_len`, `num_directions = 0`, out-of-range trigger parameters)
//!   can never reach the per-frame hot path.
//! * [`Engine`] — owns the **shared immutable** state of a deployment: the
//!   detector templates/filterbank and the precomputed SRP-PHAT steering
//!   operator with its FFT plans, all behind [`Arc`]s. Building an engine is the
//!   expensive step (template synthesis, steering-tap precomputation).
//! * [`Session`] — one independent audio stream opened against an engine via
//!   [`Engine::open_session`]. A session owns only per-stream *mutable* state
//!   (trigger noise floor, Kalman tracker, frame assembler, scratch buffers), so
//!   opening the 2nd…Nth session costs a small fraction of building the engine —
//!   this is the seam that lets one process serve many concurrent microphone
//!   arrays.
//!
//! Input enters a session in any driver format ([`AudioInput`]: interleaved or
//! planar, `i16`/`f32`/`f64`) and results leave **by reference** through an
//! [`EventSink`] — in steady state the whole path from chunk ingestion to event
//! emission performs no heap allocation (enforced by the counting-allocator test
//! in `crates/core/tests/zero_alloc.rs`).
//!
//! # Walkthrough: multi-source scene → session → sink
//!
//! The typical evaluation loop renders a multi-source road scene with
//! `ispot-roadsim` (a siren plus interfering traffic, each source on its own
//! trajectory), opens a session against a shared engine and drains the events
//! through a sink:
//!
//! ```
//! use ispot_core::prelude::*;
//! use ispot_roadsim::prelude::*;
//! use ispot_sed::sirens::{SirenKind, SirenSynthesizer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fs = 16_000.0;
//! let array = MicrophoneArray::circular(6, 0.2, Position::new(0.0, 0.0, 1.0));
//!
//! // 1. The scene: a yelp siren driving past, over a parked broadband masker.
//! let siren = SirenSynthesizer::new(SirenKind::Yelp, fs).synthesize(1.0);
//! let masker: Vec<f64> =
//!     ispot_dsp::generator::NoiseSource::new(ispot_dsp::generator::NoiseKind::Pink, 9)
//!         .take(16_000)
//!         .collect();
//! let scene = SceneBuilder::new(fs)
//!     .source(SoundSource::new(
//!         siren,
//!         Trajectory::linear(Position::new(-8.0, 6.0, 1.0), Position::new(8.0, 6.0, 1.0), 16.0),
//!     ))
//!     .source(SoundSource::new(masker, Trajectory::fixed(Position::new(10.0, -8.0, 0.8)))
//!         .with_gain(0.15))
//!     .array(array.clone())
//!     .reflection(false)
//!     .air_absorption(false)
//!     .build()?;
//! let audio = Simulator::new(scene)?.run()?;
//!
//! // 2. The engine (expensive, shared) and a session (cheap, per stream).
//! let engine = PipelineBuilder::new(fs)
//!     .array(&array)
//!     .confidence_threshold(0.3)
//!     .build_engine()?;
//! let mut session = engine.open_session();
//!
//! // 3. The sink: events arrive by reference as frames complete.
//! let mut events = VecSink::new();
//! let frames = session.process_recording_with(&audio, &mut events)?;
//! assert!(frames > 0);
//! assert!(events.events().iter().any(|e| e.is_alert()));
//! // Localization ran: alert events carry a tracked azimuth toward the siren.
//! assert!(events.events().iter().any(|e| e.tracked_azimuth_deg.is_some()));
//! # Ok(())
//! # }
//! ```
//!
//! `ispot-bench`'s `scenarios` module packages exactly this loop — named
//! multi-source scenes scored for detection F1 and DoA error — behind one
//! `evaluate` call.

use crate::error::PipelineError;
use crate::events::{PerceptionEvent, TrackList};
use crate::input::AudioInput;
use crate::mode::OperatingMode;
use crate::pipeline::PipelineConfig;
use crate::sink::EventSink;
use crate::stages::{
    DetectStage, FrameOutcome, FrameParams, LocalizeStage, ObsCtx, StageGraph, TrackStage,
};
use crate::trigger::EnergyTrigger;
use ispot_dsp::audio::MultichannelAudio;
use ispot_dsp::framing::FrameAssembler;
use ispot_dsp::microphone::MicrophoneArray;
use ispot_obs::{StageObserver, TickSource};
use ispot_sed::baseline::SpectralTemplateDetector;
use ispot_sed::EventClass;
use ispot_ssl::multitrack::TrackingConfig;
use ispot_ssl::srp_fast::SrpPhatFast;
use ispot_ssl::srp_phat::SrpConfig;
use std::sync::Arc;

/// Channel counts up to this bound build their frame views on the stack; beyond it
/// the streaming path falls back to one small heap allocation per frame.
const MAX_STACK_CHANNELS: usize = 32;

/// Runs `f` over per-channel `&[f64]` views of `channels` — the channel-view arena
/// of the streaming paths. Up to [`MAX_STACK_CHANNELS`] channels the view table
/// lives on the stack (no allocation); beyond that one small `Vec` is built.
pub(crate) fn with_channel_views<R>(channels: &[Vec<f64>], f: impl FnOnce(&[&[f64]]) -> R) -> R {
    if channels.len() <= MAX_STACK_CHANNELS {
        let mut views: [&[f64]; MAX_STACK_CHANNELS] = [&[]; MAX_STACK_CHANNELS];
        for (view, ch) in views.iter_mut().zip(channels) {
            *view = ch.as_slice();
        }
        f(&views[..channels.len()])
    } else {
        // analyze: allow(alloc) — fallback beyond MAX_STACK_CHANNELS only: every
        // channel count up to 32 takes the stack arm above
        let views: Vec<&[f64]> = channels.iter().map(|c| c.as_slice()).collect();
        f(&views)
    }
}

/// How the input channels of a pipeline are specified.
#[derive(Debug, Clone)]
enum ChannelSpec {
    /// A bare channel count: detection only, no localization.
    Count(usize),
    /// A microphone array: detection plus localization when it has ≥ 2 mics.
    Array(MicrophoneArray),
}

/// Validated construction of [`Engine`]s and [`Session`]s — the only entry point.
///
/// Defaults: [`PipelineConfig::default`], one input channel, no localization.
///
/// # Example
///
/// ```
/// use ispot_core::prelude::*;
///
/// # fn main() -> Result<(), PipelineError> {
/// let mut session = PipelineBuilder::new(16_000.0)
///     .channels(2)
///     .confidence_threshold(0.3)
///     .build()?;
/// assert!(!session.localization_available());
///
/// // Degenerate configurations are rejected before anything is built.
/// let err = PipelineBuilder::new(16_000.0).hop(0).build();
/// assert!(matches!(err, Err(PipelineError::InvalidConfig { .. })));
/// # session.reset_streaming();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PipelineBuilder {
    config: PipelineConfig,
    sample_rate: f64,
    channels: ChannelSpec,
}

impl PipelineBuilder {
    /// Starts a builder for audio at `sample_rate` Hz with the default
    /// configuration and a single input channel.
    pub fn new(sample_rate: f64) -> Self {
        PipelineBuilder {
            config: PipelineConfig::default(),
            sample_rate,
            channels: ChannelSpec::Count(1),
        }
    }

    /// Replaces the whole configuration at once.
    pub fn config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the analysis frame length in samples.
    pub fn frame_len(mut self, frame_len: usize) -> Self {
        self.config.frame_len = frame_len;
        self
    }

    /// Sets the hop between analysis frames in samples (must satisfy
    /// `0 < hop <= frame_len`).
    pub fn hop(mut self, hop: usize) -> Self {
        self.config.hop = hop;
        self
    }

    /// Sets the initial operating mode.
    pub fn mode(mut self, mode: OperatingMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Sets the number of azimuth grid directions for localization.
    pub fn num_directions(mut self, num_directions: usize) -> Self {
        self.config.num_directions = num_directions;
        self
    }

    /// Sets the minimum detector confidence for an event to be reported.
    pub fn confidence_threshold(mut self, threshold: f64) -> Self {
        self.config.confidence_threshold = threshold;
        self
    }

    /// Sets the park-mode trigger configuration.
    pub fn trigger(mut self, trigger: crate::trigger::TriggerConfig) -> Self {
        self.config.trigger = trigger;
        self
    }

    /// Sets the multi-target tracking configuration (peak budget, association
    /// gate, confirmation and coasting counts). Validated at build time like
    /// every other parameter.
    pub fn tracking(mut self, tracking: TrackingConfig) -> Self {
        self.config.tracking = tracking;
        self
    }

    /// Uses a bare channel count: detection only, localization disabled.
    pub fn channels(mut self, num_channels: usize) -> Self {
        self.channels = ChannelSpec::Count(num_channels);
        self
    }

    /// Uses a microphone array: the channel count is the array size and
    /// localization is enabled when the array has at least two microphones.
    pub fn array(mut self, array: &MicrophoneArray) -> Self {
        self.channels = ChannelSpec::Array(array.clone());
        self
    }

    /// Validates the configuration and builds the shared [`Engine`].
    ///
    /// This is the expensive step: detector templates are synthesized and the
    /// SRP-PHAT steering operator is precomputed. Open per-stream workers with
    /// [`Engine::open_session`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] naming the offending parameter if
    /// any value is out of range, or a stage error if the detector or localizer
    /// cannot be built.
    pub fn build_engine(self) -> Result<Engine, PipelineError> {
        if !(self.sample_rate.is_finite() && self.sample_rate > 0.0) {
            return Err(PipelineError::invalid_config(
                "sample_rate",
                "must be positive and finite",
            ));
        }
        self.config.validate()?;
        let num_channels = match &self.channels {
            ChannelSpec::Count(n) => *n,
            ChannelSpec::Array(a) => a.len(),
        };
        if num_channels == 0 {
            return Err(PipelineError::invalid_config(
                "num_channels",
                "must be positive",
            ));
        }
        let detector = Arc::new(SpectralTemplateDetector::new(self.sample_rate)?);
        let localizer = match &self.channels {
            ChannelSpec::Array(array) if array.len() >= 2 => {
                let srp_config = SrpConfig {
                    frame_len: self.config.frame_len,
                    num_directions: self.config.num_directions,
                    freq_max_hz: (self.sample_rate / 2.0 - 200.0).max(1000.0),
                    ..SrpConfig::default()
                };
                Some(Arc::new(SrpPhatFast::new(
                    srp_config,
                    array,
                    self.sample_rate,
                )?))
            }
            _ => None,
        };
        Ok(Engine {
            shared: Arc::new(EngineShared {
                config: self.config,
                sample_rate: self.sample_rate,
                num_channels,
                detector,
                localizer,
            }),
        })
    }

    /// Builds an engine and opens a single [`Session`] on it — the convenience
    /// path for single-stream deployments.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PipelineBuilder::build_engine`].
    pub fn build(self) -> Result<Session, PipelineError> {
        Ok(self.build_engine()?.open_session())
    }
}

/// The immutable state one engine shares across all of its sessions.
#[derive(Debug)]
struct EngineShared {
    config: PipelineConfig,
    sample_rate: f64,
    num_channels: usize,
    detector: Arc<SpectralTemplateDetector>,
    localizer: Option<Arc<SrpPhatFast>>,
}

/// The shared, immutable half of a deployment: detector weights and the
/// precomputed SRP-PHAT steering operator (with its FFT plans) behind [`Arc`]s.
///
/// One engine serves any number of concurrent audio streams: each
/// [`Engine::open_session`] call clones the `Arc`s and allocates only per-stream
/// scratch, so the marginal cost of another stream is a small fraction of the
/// engine build (see the `engine_sessions` Criterion bench). `Engine` is `Clone`
/// (a cheap handle) and `Send + Sync`, so sessions can be opened from and run on
/// any thread.
///
/// # Example
///
/// ```
/// use ispot_core::prelude::*;
///
/// # fn main() -> Result<(), PipelineError> {
/// let engine = PipelineBuilder::new(16_000.0).channels(1).build_engine()?;
/// // Two independent streams share the detector weights and FFT plans.
/// let mut cabin = engine.open_session();
/// let mut roof = engine.open_session();
///
/// let chunk = vec![0.0f64; 4096];
/// let mut events = Vec::new();
/// cabin.push_chunk_with(&[&chunk], &mut events)?;
/// roof.push_chunk_with(&[&chunk], &mut events)?;
/// assert_eq!(cabin.frames_processed(), roof.frames_processed());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    shared: Arc<EngineShared>,
}

impl Engine {
    /// Starts a [`PipelineBuilder`] — identical to [`PipelineBuilder::new`],
    /// provided so discovery works from either type.
    pub fn builder(sample_rate: f64) -> PipelineBuilder {
        PipelineBuilder::new(sample_rate)
    }

    /// Returns the validated configuration sessions are opened with.
    pub fn config(&self) -> PipelineConfig {
        self.shared.config
    }

    /// Returns the audio sample rate in Hz.
    pub fn sample_rate(&self) -> f64 {
        self.shared.sample_rate
    }

    /// Returns the number of input channels per session.
    pub fn num_channels(&self) -> usize {
        self.shared.num_channels
    }

    /// Returns true if sessions localize detections (array with ≥ 2 mics).
    pub fn localization_available(&self) -> bool {
        self.shared.localizer.is_some()
    }

    /// Opens an independent processing session against this engine.
    ///
    /// The session shares the engine's detector and steering operator and owns
    /// only per-stream mutable state (trigger, tracker, frame assembler, scratch
    /// buffers); opening a session never re-derives shared state.
    pub fn open_session(&self) -> Session {
        let shared = &self.shared;
        let stages = StageGraph::new(
            EnergyTrigger::new(shared.config.trigger),
            DetectStage::shared(Arc::clone(&shared.detector)),
            LocalizeStage::shared(shared.localizer.clone(), shared.config.tracking),
            TrackStage::with_config(shared.config.tracking)
                .expect("tracking configuration was validated at engine build"),
            shared.config.frame_len,
        );
        Session {
            config: shared.config,
            sample_rate: shared.sample_rate,
            num_channels: shared.num_channels,
            stages,
            framing: None,
            frames_processed: 0,
            frames_analyzed: 0,
            localization_shed: false,
            observer: None,
            ticks: TickSource::new(),
        }
    }
}

/// One independent audio stream processed against an [`Engine`]: the complete
/// detection + localization + tracking worker.
///
/// A session owns every piece of per-stream mutable state — trigger noise floor,
/// Kalman tracker, chunk-to-frame assembler, feature/steering scratch — while
/// the heavyweight immutable state (detector weights, steering operator, FFT
/// plans) lives in the engine and is shared by reference.
///
/// Input can arrive as exact frames ([`Session::process_frame_with`]), as
/// arbitrary-size planar `f64` chunks ([`Session::push_chunk_with`]), or in any
/// capture-driver format ([`Session::push_input_with`] with [`AudioInput`]);
/// whole recordings go through [`Session::process_recording_with`]. All entry
/// points share one framing implementation and produce identical events, and all
/// emit events **by reference** through a caller-supplied [`EventSink`] — the
/// steady-state path performs no heap allocation. A `Vec<PerceptionEvent>` is
/// itself a sink, for callers that want every event collected. Per-stage timing
/// comes from a [`StageObserver`] attached with [`Session::set_observer`].
pub struct Session {
    config: PipelineConfig,
    sample_rate: f64,
    num_channels: usize,
    stages: StageGraph,
    /// Streaming state, created on the first chunk push. Frames are lent
    /// straight out of its window, so steady-state streaming allocates nothing.
    framing: Option<FrameAssembler>,
    frames_processed: usize,
    frames_analyzed: usize,
    localization_shed: bool,
    observer: Option<Box<dyn StageObserver>>,
    ticks: TickSource,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("sample_rate", &self.sample_rate)
            .field("num_channels", &self.num_channels)
            .field("stages", &self.stages)
            .field("framing", &self.framing)
            .field("frames_processed", &self.frames_processed)
            .field("frames_analyzed", &self.frames_analyzed)
            .field("localization_shed", &self.localization_shed)
            .field("observer_attached", &self.observer.is_some())
            .field("ticks", &self.ticks)
            .finish()
    }
}

impl Session {
    /// Returns the configuration (the session's current mode, other fields as
    /// validated at build time).
    pub fn config(&self) -> PipelineConfig {
        self.config
    }

    /// Returns the audio sample rate in Hz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Returns the number of input channels.
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// Returns the operating mode.
    pub fn mode(&self) -> OperatingMode {
        self.config.mode
    }

    /// Switches the operating mode (e.g. drive ↔ park).
    ///
    /// On an actual transition the gated-stage state — the trigger's noise-floor
    /// estimate and the azimuth tracker — is reset, so state accumulated in one
    /// mode can never leak into the next (a drive-mode noise floor is meaningless
    /// to the park-mode trigger, and a parked tracker estimate is stale by the
    /// time driving resumes). Setting the current mode again is a no-op and does
    /// **not** disturb a running stream. Buffered streaming input is preserved
    /// either way.
    pub fn set_mode(&mut self, mode: OperatingMode) {
        if self.config.mode == mode {
            return;
        }
        self.config.mode = mode;
        self.stages.reset();
    }

    /// Returns true if localization is available (array geometry known, ≥ 2 mics).
    pub fn localization_available(&self) -> bool {
        self.stages.localize.is_available()
    }

    /// Sheds (or restores) localization for this stream without touching the
    /// operating mode: while shed, frames still run trigger + detection and
    /// events still fire, but the SRP/tracking stage is skipped and events carry
    /// no azimuth — the same detection-first priority the paper's drive/park
    /// duty-cycling encodes, applied per stream.
    ///
    /// This is the graceful-degradation hook of the serving layer: an overloaded
    /// host drops the expensive localization stage first and restores it when
    /// load falls. Unlike [`Session::set_mode`], toggling shed never resets
    /// stream state — tracker and trigger survive, so restoring fidelity resumes
    /// tracking from where it left off instead of restarting cold.
    pub fn set_localization_shed(&mut self, shed: bool) {
        self.localization_shed = shed;
    }

    /// Returns true while localization is shed via
    /// [`Session::set_localization_shed`].
    pub fn localization_shed(&self) -> bool {
        self.localization_shed
    }

    /// Attaches a per-stream stage observer: from the next frame on, every
    /// executed stage emits a timing span into it. Like
    /// [`Session::set_localization_shed`], attaching (or replacing) an
    /// observer never resets stream state — buffered input, trigger noise
    /// floor and tracker all survive, and stage results are bit-for-bit
    /// unaffected.
    ///
    /// # Example
    ///
    /// ```
    /// use ispot_core::prelude::*;
    /// use std::sync::Arc;
    ///
    /// # fn main() -> Result<(), PipelineError> {
    /// struct RingObserver(Arc<SpanRing>);
    /// impl StageObserver for RingObserver {
    ///     fn on_span(&mut self, span: Span) {
    ///         self.0.record(span);
    ///     }
    /// }
    /// let ring = Arc::new(SpanRing::new(1024));
    /// let mut session = PipelineBuilder::new(16_000.0).build()?;
    /// session.set_observer(Box::new(RingObserver(Arc::clone(&ring))));
    ///
    /// let frame = vec![0.1f64; 2048];
    /// session.process_frame_with(&[&frame], 0, &mut LatestEvent::new())?;
    /// assert!(ring.recorded() > 0, "stages produced no spans");
    /// # Ok(())
    /// # }
    /// ```
    pub fn set_observer(&mut self, observer: Box<dyn StageObserver>) {
        self.observer = Some(observer);
    }

    /// Re-anchors the session's span clock onto `ticks`. A host serving many
    /// streams hands every session a copy of one source, so the
    /// `start_ticks` of spans from different streams are directly comparable
    /// on a single timeline.
    pub fn set_tick_source(&mut self, ticks: TickSource) {
        self.ticks = ticks;
    }

    /// Number of frames received.
    pub fn frames_processed(&self) -> usize {
        self.frames_processed
    }

    /// Number of frames on which the full analysis ran (in park mode this is the
    /// number of trigger wake-ups).
    pub fn frames_analyzed(&self) -> usize {
        self.frames_analyzed
    }

    /// Fraction of frames on which the full analysis ran — 1.0 in drive mode, the
    /// trigger duty cycle in park mode.
    pub fn analysis_duty_cycle(&self) -> f64 {
        if self.frames_processed == 0 {
            0.0
        } else {
            self.frames_analyzed as f64 / self.frames_processed as f64
        }
    }

    /// Samples currently buffered by the streaming assembler, waiting for enough
    /// input to complete the next frame. Zero before any chunk push.
    pub fn pending_samples(&self) -> usize {
        self.framing
            .as_ref()
            .map_or(0, FrameAssembler::samples_buffered)
    }

    /// Discards any partially assembled streaming input and restarts streaming frame
    /// numbering at 0. Frame counters are retained. Buffers
    /// are kept, so resetting does not reintroduce allocations.
    pub fn reset_streaming(&mut self) {
        if let Some(assembler) = &mut self.framing {
            assembler.reset();
        }
    }

    /// Processes one multichannel frame (`frame[channel][sample]`, every channel
    /// exactly `frame_len` samples), reporting through `sink`, and returns the
    /// frame's outcome.
    ///
    /// This is the real-time hot path: in steady state it performs **no heap
    /// allocation** — all stages reuse session-owned scratch, and an emitted
    /// event is built on the stack and passed to the sink by reference.
    ///
    /// # Errors
    ///
    /// Returns an error if the channel count or frame length is wrong, or an
    /// analysis stage fails.
    pub fn process_frame_with<S: EventSink>(
        &mut self,
        frame: &[&[f64]],
        frame_index: usize,
        sink: &mut S,
    ) -> Result<FrameOutcome, PipelineError> {
        if frame.len() != self.num_channels {
            return Err(PipelineError::ChannelMismatch {
                expected: self.num_channels,
                actual: frame.len(),
            });
        }
        for ch in frame {
            if ch.len() != self.config.frame_len {
                return Err(PipelineError::invalid_config(
                    "frame",
                    // analyze: allow(alloc) — rejection path: the frame is refused
                    // before any stage runs, so steady-state stays allocation-free
                    format!(
                        "every channel must have {} samples, got {}",
                        self.config.frame_len,
                        ch.len()
                    ),
                ));
            }
        }
        self.frames_processed += 1;
        let params = FrameParams {
            gate_on_trigger: self.config.mode == OperatingMode::Park,
            localization_enabled: self.config.mode.localization_enabled()
                && !self.localization_shed,
            confidence_threshold: self.config.confidence_threshold,
        };
        let obs = self.observer.as_mut().map(|observer| ObsCtx {
            observer: observer.as_mut(),
            ticks: &self.ticks,
            frame_index: frame_index as u64,
        });
        let outcome = self.stages.run_frame_observed(frame, params, obs)?;
        match outcome {
            FrameOutcome::Gated => {}
            FrameOutcome::Analyzed => self.frames_analyzed += 1,
            FrameOutcome::Detection {
                class,
                confidence,
                azimuth_deg,
                tracked_azimuth_deg,
            } => {
                self.frames_analyzed += 1;
                let event = PerceptionEvent {
                    frame_index,
                    time_s: frame_index as f64 * self.config.hop as f64 / self.sample_rate,
                    class,
                    confidence,
                    azimuth_deg,
                    tracked_azimuth_deg,
                    // Inline copy of the tracker's snapshots: the event stays
                    // heap-free, so emission through the sink allocates nothing.
                    tracks: TrackList::from_slice(self.stages.track.tracks()),
                };
                sink.on_event(&event);
            }
        }
        sink.on_frame(&outcome);
        Ok(outcome)
    }

    /// Streams one chunk in **any** supported sample format and layout (see
    /// [`AudioInput`]) into the session, reporting completed frames and emitted
    /// events through `sink`. Returns the number of frames processed during this
    /// call.
    ///
    /// Chunk sizes need not relate to `frame_len` or `hop` in any way: the
    /// internal assembler buffers the stream and emits exactly-`frame_len` frames
    /// every `hop` samples, so any chunking — and any sample format — of the same
    /// signal yields the same events. Samples are converted and de-interleaved
    /// directly into the assembler's window, and each frame is analyzed in place
    /// there; no intermediate buffer is built, and steady state performs no heap
    /// allocation for channel counts up to 32.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::ChannelMismatch`] if the chunk's channel count is
    /// wrong, [`PipelineError::InterleavedLayout`] if an interleaved chunk is not
    /// a whole number of channel frames, or an error if the channels have unequal
    /// lengths or an analysis stage fails. If an analysis stage fails, the frame
    /// being analyzed has already been consumed from the stream (its `hop`
    /// advance applied) and its result is lost; the remaining buffered samples
    /// are preserved, so a caller may continue streaming from the next frame
    /// after handling the error.
    pub fn push_input_with<S: EventSink>(
        &mut self,
        input: AudioInput<'_>,
        sink: &mut S,
    ) -> Result<usize, PipelineError> {
        if input.num_channels() != self.num_channels {
            return Err(PipelineError::ChannelMismatch {
                expected: self.num_channels,
                actual: input.num_channels(),
            });
        }
        // Move the assembler out of `self` so its frames can be borrowed while
        // `process_frame_with` takes `&mut self`.
        let mut assembler = match self.framing.take() {
            Some(assembler) => assembler,
            None => FrameAssembler::new(self.num_channels, self.config.frame_len, self.config.hop)?,
        };
        let result = self.ingest_and_drain(&mut assembler, input, sink);
        self.framing = Some(assembler);
        result
    }

    fn ingest_and_drain<S: EventSink>(
        &mut self,
        assembler: &mut FrameAssembler,
        input: AudioInput<'_>,
        sink: &mut S,
    ) -> Result<usize, PipelineError> {
        match input {
            AudioInput::PlanarI16(chunk) => assembler.push_planar(chunk)?,
            AudioInput::PlanarF32(chunk) => assembler.push_planar(chunk)?,
            AudioInput::PlanarF64(chunk) => assembler.push_planar(chunk)?,
            AudioInput::InterleavedI16 { data, channels } => {
                push_interleaved(assembler, data, channels)?
            }
            AudioInput::InterleavedF32 { data, channels } => {
                push_interleaved(assembler, data, channels)?
            }
            AudioInput::InterleavedF64 { data, channels } => {
                push_interleaved(assembler, data, channels)?
            }
        }
        let mut emitted = 0;
        while assembler.frame_ready() {
            // The assembler advances past the frame whatever the analysis
            // returns: a failed frame is consumed, later samples stay buffered.
            let outcome =
                assembler.emit_with(|frame, index| self.process_frame_with(frame, index, sink))?;
            outcome?;
            emitted += 1;
        }
        Ok(emitted)
    }

    /// Streams one planar `f64` chunk (`chunk[channel][sample]`, every channel
    /// the same length) into the session, reporting through `sink`. Returns the
    /// number of frames processed during this call.
    ///
    /// Shorthand for [`push_input_with`](Self::push_input_with) with
    /// [`AudioInput::planar`]; see there for the full contract.
    ///
    /// # Errors
    ///
    /// Same conditions as [`push_input_with`](Self::push_input_with).
    pub fn push_chunk_with<S: EventSink>(
        &mut self,
        chunk: &[&[f64]],
        sink: &mut S,
    ) -> Result<usize, PipelineError> {
        self.push_input_with(AudioInput::PlanarF64(chunk), sink)
    }

    /// Processes a whole multichannel recording with the configured frame/hop,
    /// reporting through `sink`. Returns the number of frames processed.
    ///
    /// Implemented on the same streaming assembler as the chunk entry points (the
    /// recording is one big chunk); any in-progress streaming state is reset
    /// before and after, and the trailing samples that do not fill a final frame
    /// are dropped, as a batch framer would.
    ///
    /// # Errors
    ///
    /// Returns an error if the recording's channel count does not match or any frame
    /// fails to process.
    pub fn process_recording_with<S: EventSink>(
        &mut self,
        audio: &MultichannelAudio,
        sink: &mut S,
    ) -> Result<usize, PipelineError> {
        if audio.num_channels() != self.num_channels {
            return Err(PipelineError::ChannelMismatch {
                expected: self.num_channels,
                actual: audio.num_channels(),
            });
        }
        self.reset_streaming();
        let frames =
            with_channel_views(audio.channels(), |chunk| self.push_chunk_with(chunk, sink))?;
        self.reset_streaming();
        Ok(frames)
    }

    /// Detector class events not gated by the pipeline: classifies a mono clip
    /// directly (useful for diagnostics).
    ///
    /// # Errors
    ///
    /// Returns an error if the clip is shorter than one detector frame.
    pub fn classify_clip(&self, audio: &[f64]) -> Result<EventClass, PipelineError> {
        self.stages.detect.classify_clip(audio)
    }
}

/// Pushes an interleaved chunk, first rejecting layouts that are not a whole
/// number of channel frames with the typed [`PipelineError::InterleavedLayout`]
/// (pre-empting the untyped length error the assembler itself would raise —
/// the assembler keeps its own check as part of the public `ispot_dsp`
/// contract for direct callers).
fn push_interleaved<S: ispot_dsp::sample::Sample>(
    assembler: &mut FrameAssembler,
    data: &[S],
    channels: usize,
) -> Result<(), PipelineError> {
    if channels == 0 || !data.len().is_multiple_of(channels) {
        return Err(PipelineError::InterleavedLayout {
            samples: data.len(),
            channels,
        });
    }
    assembler.push_interleaved(data)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{AlertCounter, LatestEvent, VecSink};
    use ispot_roadsim::geometry::Position;
    use ispot_sed::sirens::{SirenKind, SirenSynthesizer};

    #[test]
    fn builder_rejects_each_degenerate_config() {
        // Regression guards for the satellite fix: every one of these used to be
        // representable and only misbehaved deep in the hot path (`hop = 0`
        // stalls the assembler; `num_directions = 0` yields an empty SRP map on
        // every frame; out-of-range trigger parameters corrupt the noise floor).
        let cases: Vec<(&str, PipelineBuilder)> = vec![
            ("frame_len", PipelineBuilder::new(16_000.0).frame_len(0)),
            ("hop zero", PipelineBuilder::new(16_000.0).hop(0)),
            (
                "hop beyond frame",
                PipelineBuilder::new(16_000.0).frame_len(1024).hop(1025),
            ),
            (
                "num_directions",
                PipelineBuilder::new(16_000.0).num_directions(0),
            ),
            (
                "confidence low",
                PipelineBuilder::new(16_000.0).confidence_threshold(-0.1),
            ),
            (
                "confidence high",
                PipelineBuilder::new(16_000.0).confidence_threshold(1.1),
            ),
            (
                "confidence nan",
                PipelineBuilder::new(16_000.0).confidence_threshold(f64::NAN),
            ),
            (
                "trigger threshold",
                PipelineBuilder::new(16_000.0).trigger(crate::trigger::TriggerConfig {
                    threshold_db: f64::NAN,
                    ..Default::default()
                }),
            ),
            (
                "trigger smoothing",
                PipelineBuilder::new(16_000.0).trigger(crate::trigger::TriggerConfig {
                    floor_smoothing: 1.0,
                    ..Default::default()
                }),
            ),
            ("channels", PipelineBuilder::new(16_000.0).channels(0)),
            ("sample_rate", PipelineBuilder::new(0.0)),
            (
                "tracking max_tracks",
                PipelineBuilder::new(16_000.0).tracking(TrackingConfig {
                    max_tracks: 0,
                    ..Default::default()
                }),
            ),
            (
                "tracking gate",
                PipelineBuilder::new(16_000.0).tracking(TrackingConfig {
                    gate_deg: f64::NAN,
                    ..Default::default()
                }),
            ),
            (
                "tracking confirm window",
                PipelineBuilder::new(16_000.0).tracking(TrackingConfig {
                    confirm_hits: 4,
                    confirm_window: 2,
                    ..Default::default()
                }),
            ),
            (
                "tracking salience",
                PipelineBuilder::new(16_000.0).tracking(TrackingConfig {
                    min_salience: -0.5,
                    ..Default::default()
                }),
            ),
        ];
        for (what, builder) in cases {
            assert!(
                matches!(
                    builder.build_engine(),
                    Err(PipelineError::InvalidConfig { .. })
                ),
                "{what} accepted"
            );
        }
        // A non-finite microphone coordinate fails here: the localizer could
        // never produce a bearing from it.
        let mut positions = MicrophoneArray::irregular_hexagon(Position::new(0.0, 0.0, 1.0))
            .positions()
            .to_vec();
        positions[3].y = f64::NAN;
        let array = MicrophoneArray::custom(positions).unwrap();
        assert!(matches!(
            PipelineBuilder::new(16_000.0).array(&array).build_engine(),
            Err(PipelineError::Localization(
                ispot_ssl::SslError::InvalidConfig { name: "array", .. }
            ))
        ));
        // hop == frame_len is the legal upper edge.
        assert!(PipelineBuilder::new(16_000.0)
            .frame_len(1024)
            .hop(1024)
            .build()
            .is_ok());
    }

    #[test]
    fn engine_sessions_are_independent_and_share_state() {
        let fs = 16_000.0;
        let array = MicrophoneArray::circular(4, 0.2, Position::new(0.0, 0.0, 1.0));
        let engine = PipelineBuilder::new(fs)
            .array(&array)
            .build_engine()
            .unwrap();
        assert!(engine.localization_available());
        assert_eq!(engine.num_channels(), 4);

        let mut a = engine.open_session();
        let mut b = engine.open_session();
        // The heavyweight state is genuinely shared, not copied.
        assert!(Arc::ptr_eq(
            a.stages.detect.detector(),
            b.stages.detect.detector()
        ));
        assert!(Arc::ptr_eq(
            a.stages.localize.localizer().unwrap(),
            b.stages.localize.localizer().unwrap()
        ));

        // Feeding one session leaves the other untouched.
        let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(0.5);
        let chunk: Vec<&[f64]> = vec![&siren; 4];
        let mut sink = VecSink::new();
        a.push_chunk_with(&chunk, &mut sink).unwrap();
        assert!(a.frames_processed() > 0);
        assert_eq!(b.frames_processed(), 0);
        assert_eq!(b.pending_samples(), 0);

        // And the second session produces the same events as the first on the
        // same input: per-stream state is fully isolated.
        let mut sink_b = VecSink::new();
        b.push_chunk_with(&chunk, &mut sink_b).unwrap();
        assert_eq!(sink.events(), sink_b.events());
    }

    #[test]
    fn events_expose_the_multi_track_view_consistently() {
        use ispot_roadsim::engine::Simulator;
        use ispot_roadsim::scene::SceneBuilder;
        use ispot_roadsim::source::SoundSource;
        use ispot_roadsim::trajectory::Trajectory;

        let fs = 16_000.0;
        // The irregular hexagon breaks the regular array's reflection symmetry
        // so mirror lobes cannot pollute the two-source SRP map.
        let array = MicrophoneArray::irregular_hexagon(Position::new(0.0, 0.0, 1.0));
        // Two static sirens far apart in bearing: both must surface as tracks.
        let scene = SceneBuilder::new(fs)
            .source(
                SoundSource::new(
                    SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(2.0),
                    Trajectory::fixed(Position::new(12.0, 10.0, 1.0)),
                )
                .with_gain(3.0),
            )
            .source(
                SoundSource::new(
                    SirenSynthesizer::new(SirenKind::Yelp, fs).synthesize(2.0),
                    Trajectory::fixed(Position::new(-5.0, -16.0, 1.0)),
                )
                .with_gain(1.5),
            )
            .array(array.clone())
            .reflection(false)
            .air_absorption(false)
            .build()
            .unwrap();
        let audio = Simulator::new(scene).unwrap().run().unwrap();
        let mut session = PipelineBuilder::new(fs).array(&array).build().unwrap();
        let mut sink = VecSink::new();
        session.process_recording_with(&audio, &mut sink).unwrap();
        let events = sink.events();
        assert!(!events.is_empty());
        assert!(
            events.iter().any(|e| e.tracks.confirmed().count() >= 2),
            "no event saw both sources as confirmed tracks"
        );
        for event in events {
            // The legacy single-source fields are views of the same state: the
            // tracked azimuth is the best (first) track, and track snapshots
            // arrive best-first with confirmed tracks ahead of tentative ones.
            if let Some(tracked) = event.tracked_azimuth_deg {
                assert_eq!(tracked, event.tracks[0].azimuth_deg, "{event:?}");
            }
            let statuses: Vec<bool> = event.tracks.iter().map(|t| t.is_confirmed()).collect();
            let mut sorted = statuses.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(statuses, sorted, "confirmed tracks must sort first");
        }
    }

    #[test]
    fn localization_shed_drops_azimuths_and_restores_without_reset() {
        let fs = 16_000.0;
        let array = MicrophoneArray::circular(4, 0.2, Position::new(0.0, 0.0, 1.0));
        let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(1.0);
        let channels: Vec<&[f64]> = vec![&siren; 4];
        let engine = PipelineBuilder::new(fs)
            .array(&array)
            .build_engine()
            .unwrap();

        // Shed from the start: detection events still fire, but nothing is
        // localized or tracked.
        let mut shed = engine.open_session();
        assert!(!shed.localization_shed());
        shed.set_localization_shed(true);
        assert!(shed.localization_shed());
        let mut shed_sink = VecSink::new();
        shed.push_chunk_with(&channels, &mut shed_sink).unwrap();
        assert!(
            !shed_sink.events().is_empty(),
            "detection must survive shed"
        );
        for event in shed_sink.events() {
            assert_eq!(event.azimuth_deg, None, "{event:?}");
            assert_eq!(event.tracked_azimuth_deg, None, "{event:?}");
            assert!(event.tracks.is_empty(), "{event:?}");
        }

        // Restore mid-stream: later frames localize again (no state reset, so
        // the assembler keeps its position and frame indices stay monotonic).
        shed.set_localization_shed(false);
        let mut restored_sink = VecSink::new();
        shed.push_chunk_with(&channels, &mut restored_sink).unwrap();
        assert!(
            restored_sink
                .events()
                .iter()
                .any(|e| e.azimuth_deg.is_some()),
            "localization must resume after restore"
        );

        // Shed never changes *detection* results: classes and confidences match
        // a full-fidelity session frame for frame over the shed window.
        let mut full = engine.open_session();
        let mut full_sink = VecSink::new();
        full.push_chunk_with(&channels, &mut full_sink).unwrap();
        assert_eq!(full_sink.events().len(), shed_sink.events().len());
        for (a, b) in full_sink.events().iter().zip(shed_sink.events()) {
            assert_eq!(a.frame_index, b.frame_index);
            assert_eq!(a.class, b.class);
            assert_eq!(a.confidence, b.confidence);
        }
    }

    #[test]
    fn low_sample_rates_build_an_engine_that_runs() {
        // 8 kHz used to panic while synthesizing the background template.
        for fs in [8_000.0, 11_025.0] {
            let engine = PipelineBuilder::new(fs).build_engine().unwrap();
            let siren = SirenSynthesizer::new(SirenKind::Yelp, fs).synthesize(1.0);
            let mut counter = AlertCounter::new();
            let frames = engine
                .open_session()
                .push_chunk_with(&[&siren], &mut counter)
                .unwrap();
            assert!(frames > 0, "{fs} Hz");
            assert_eq!(counter.frames, frames);
        }
    }

    #[test]
    fn sink_receives_every_frame_outcome() {
        let fs = 16_000.0;
        let siren = SirenSynthesizer::new(SirenKind::Yelp, fs).synthesize(1.0);
        let mut session = PipelineBuilder::new(fs).build().unwrap();
        let mut counter = AlertCounter::new();
        let frames = session.push_chunk_with(&[&siren], &mut counter).unwrap();
        assert_eq!(frames, (siren.len() - 2048) / 1024 + 1);
        assert_eq!(counter.frames, frames);
        assert!(counter.alerts > 0);
        assert!(counter.events >= counter.alerts);
        assert_eq!(counter.gated, 0, "drive mode never gates");
    }

    #[test]
    fn interleaved_layout_errors_are_typed() {
        let mut session = PipelineBuilder::new(16_000.0).channels(2).build().unwrap();
        let odd = [0.0f64; 5];
        let mut sink = VecSink::new();
        let err = session
            .push_input_with(AudioInput::interleaved(&odd[..], 2), &mut sink)
            .unwrap_err();
        assert!(matches!(
            err,
            PipelineError::InterleavedLayout {
                samples: 5,
                channels: 2
            }
        ));
        // Wrong channel count is still a channel mismatch, not a layout error.
        let err = session
            .push_input_with(AudioInput::interleaved(&odd[..], 5), &mut sink)
            .unwrap_err();
        assert!(matches!(err, PipelineError::ChannelMismatch { .. }));
    }

    #[test]
    fn mode_transitions_reset_gated_state_deterministically() {
        let fs = 16_000.0;
        let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(2.0);
        let loud: Vec<f64> = siren.iter().map(|x| x * 0.9).collect();
        let frame_a = &loud[0..2048];
        let frame_b = &loud[4096..6144];

        let engine = PipelineBuilder::new(fs).build_engine().unwrap();

        // Accumulate drive-mode state, detour through park, return to drive.
        let mut toured = engine.open_session();
        let mut latest = LatestEvent::new();
        for i in 0..8 {
            toured
                .process_frame_with(&[frame_a], i, &mut latest)
                .unwrap();
        }
        toured.set_mode(OperatingMode::Park);
        for i in 8..16 {
            toured
                .process_frame_with(&[frame_a], i, &mut latest)
                .unwrap();
        }
        toured.set_mode(OperatingMode::Drive);

        // A fresh drive session must now see exactly the same events for the same
        // frames: no trigger noise floor or tracker state may survive the tour.
        let mut fresh = engine.open_session();
        for i in 0..4 {
            let (mut toured_event, mut fresh_event) = (LatestEvent::new(), LatestEvent::new());
            toured
                .process_frame_with(&[frame_b], i, &mut toured_event)
                .unwrap();
            fresh
                .process_frame_with(&[frame_b], i, &mut fresh_event)
                .unwrap();
            assert_eq!(toured_event.take(), fresh_event.take(), "frame {i}");
        }

        // Re-setting the current mode is a no-op: it must not reset mid-stream
        // state (here: the trigger's park-mode wake-up statistics).
        let mut park = engine.open_session();
        park.set_mode(OperatingMode::Park);
        for i in 0..6 {
            park.process_frame_with(&[frame_a], i, &mut latest).unwrap();
        }
        let seen = park.stages.trigger.frames_seen();
        assert!(seen > 0);
        park.set_mode(OperatingMode::Park);
        assert_eq!(park.stages.trigger.frames_seen(), seen);
    }

    #[test]
    fn one_nan_sample_costs_tracking_frames_not_the_rest_of_the_stream() {
        use ispot_roadsim::engine::Simulator;
        use ispot_roadsim::scene::SceneBuilder;
        use ispot_roadsim::source::SoundSource;
        use ispot_roadsim::trajectory::Trajectory;

        let fs = 16_000.0;
        let array = MicrophoneArray::irregular_hexagon(Position::new(0.0, 0.0, 1.0));
        let scene = SceneBuilder::new(fs)
            .source(SoundSource::new(
                SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(3.0),
                Trajectory::fixed(Position::new(12.0, 10.0, 1.0)),
            ))
            .array(array.clone())
            .reflection(false)
            .air_absorption(false)
            .build()
            .unwrap();
        let clean = Simulator::new(scene)
            .unwrap()
            .run()
            .unwrap()
            .into_channels();
        let engine = PipelineBuilder::new(fs)
            .array(&array)
            .build_engine()
            .unwrap();
        // Streams 512-sample chunks and returns (events, events carrying a
        // track) among those emitted after chunk 40.
        let late_events = |channels: &[Vec<f64>]| {
            let mut session = engine.open_session();
            let (mut events, mut tracked) = (0, 0);
            for (n, start) in (0..channels[0].len()).step_by(512).enumerate() {
                let end = (start + 512).min(channels[0].len());
                let chunk: Vec<&[f64]> = channels.iter().map(|c| &c[start..end]).collect();
                let mut sink = VecSink::new();
                session.push_chunk_with(&chunk, &mut sink).unwrap();
                if n > 40 {
                    events += sink.events().len();
                    tracked += sink
                        .events()
                        .iter()
                        .filter(|e| e.tracked_azimuth_deg.is_some())
                        .count();
                }
            }
            (events, tracked)
        };
        let (events, tracked) = late_events(&clean);
        assert!(events > 20, "only {events} late events");
        assert_eq!(tracked, events, "the clean stream lost its track");
        // One NaN in channel 2 of chunk 20 poisons the SRP maps of the frames
        // that hold it; the smoothed map restarts those bins on the next
        // finite frame, so tracking is back long before chunk 40.
        let mut poisoned = clean.clone();
        poisoned[2][20 * 512 + 100] = f64::NAN;
        assert_eq!(late_events(&poisoned), (events, tracked));
    }
}
