//! The perception pipeline as a graph of stages.
//!
//! The end-to-end analysis — wake trigger → detection → localization → tracking —
//! is factored into one stage per step, each named by an [`ispot_obs::StageId`]
//! (the key its timing spans are recorded under), and composed in a
//! [`StageGraph`] that owns all per-frame scratch memory. The graph's
//! steady-state frame path performs **zero heap allocations**: the mono mixdown
//! is written into a buffer preallocated at construction, and every stage
//! operates on borrowed slices.
//!
//! Keeping stages first-class (rather than inlined) is what lets the pipeline scale
//! to many concurrent streams later: a stage graph is `Send`, self-contained, and
//! cheap to instantiate per stream, while its structure stays inspectable for the
//! co-design cost models.

use crate::error::PipelineError;
use crate::trigger::EnergyTrigger;
use ispot_dsp::microphone::MicrophoneArray;
use ispot_obs::{Span, StageId, StageObserver, TickSource};
use ispot_sed::baseline::{DetectorScratch, SpectralTemplateDetector};
use ispot_sed::EventClass;
use ispot_ssl::multitrack::{MultiTargetTracker, TrackSnapshot, TrackingConfig};
use ispot_ssl::srp_fast::SrpPhatFast;
use ispot_ssl::srp_phat::{Peak, SrpConfig, SrpMap, SrpScratch};
use std::sync::Arc;

/// Detection stage: classifies the mono mixdown into an [`EventClass`] with a
/// confidence score.
///
/// The detector itself (templates, filterbank, FFT plan) is immutable and shared
/// behind an [`Arc`] — every session opened against one engine reuses the same
/// weights — while the per-frame feature scratch is stage-owned, so the
/// classification path performs no heap allocation.
#[derive(Debug)]
pub struct DetectStage {
    detector: Arc<SpectralTemplateDetector>,
    scratch: DetectorScratch,
}

impl DetectStage {
    /// Creates the stage for the given sample rate, building a private detector.
    ///
    /// # Errors
    ///
    /// Returns an error if the detector cannot be built.
    pub fn new(sample_rate: f64) -> Result<Self, PipelineError> {
        Ok(Self::shared(Arc::new(SpectralTemplateDetector::new(
            sample_rate,
        )?)))
    }

    /// Creates the stage around an existing shared detector, allocating only the
    /// per-stream scratch. This is the cheap per-session constructor used by the
    /// engine.
    pub fn shared(detector: Arc<SpectralTemplateDetector>) -> Self {
        let scratch = detector.make_scratch();
        DetectStage { detector, scratch }
    }

    /// The shared detector (clone the `Arc` to open another stage against it).
    pub fn detector(&self) -> &Arc<SpectralTemplateDetector> {
        &self.detector
    }

    /// Classifies a mono frame. Reuses the stage-owned scratch: no per-frame
    /// allocation.
    pub fn classify(&mut self, mono: &[f64]) -> Result<(EventClass, f64), PipelineError> {
        let DetectStage { detector, scratch } = self;
        Ok(detector.predict_with_confidence_into(mono, scratch)?)
    }

    /// Classifies an arbitrary-length mono clip outside the frame path (diagnostics).
    ///
    /// # Errors
    ///
    /// Returns an error if the clip is shorter than one detector frame.
    pub fn classify_clip(&self, audio: &[f64]) -> Result<EventClass, PipelineError> {
        Ok(self.detector.predict(audio)?)
    }
}

/// Localization stage: low-complexity SRP-PHAT over the multichannel frame,
/// followed by multi-peak extraction (non-maximum suppression on the wrapped
/// azimuth grid). Absent (None) when the array geometry is unknown or has fewer
/// than two mics.
///
/// The stage owns the localizer's [`SrpScratch`], output [`SrpMap`] and peak
/// scratch, so the per-frame localization path performs no heap allocation.
#[derive(Debug)]
pub struct LocalizeStage {
    localizer: Option<ActiveLocalizer>,
    /// Peak budget per frame (from the tracking configuration).
    max_peaks: usize,
    /// Non-maximum-suppression separation in degrees.
    min_separation_deg: f64,
    /// Fraction of the previous smoothed map retained each frame (0 disables).
    map_smoothing: f64,
}

/// A live localizer plus the scratch memory its frame path reuses. The
/// processor (steering operator, FFT plans) is immutable and shared behind an
/// [`Arc`]; only the scratch, the maps and the peak list are per-stream.
#[derive(Debug)]
struct ActiveLocalizer {
    srp: Arc<SrpPhatFast>,
    scratch: SrpScratch,
    map: SrpMap,
    /// EMA of `map` across frames; peaks are extracted from here, so transient
    /// clutter (inter-source cross-terms, tonal aliasing lobes) is averaged
    /// away before it can spawn tracks. Emptied on reset.
    smoothed: SrpMap,
    peaks: Vec<Peak>,
}

impl LocalizeStage {
    /// Creates a disabled stage (detection-only pipelines).
    pub fn disabled() -> Self {
        Self::shared(None, TrackingConfig::default())
    }

    /// Creates the stage for a microphone array (disabled for mono arrays),
    /// with the default peak-extraction settings.
    ///
    /// # Errors
    ///
    /// Returns an error if the SRP-PHAT localizer cannot be built.
    pub fn for_array(
        config: SrpConfig,
        array: &MicrophoneArray,
        sample_rate: f64,
    ) -> Result<Self, PipelineError> {
        if array.len() < 2 {
            return Ok(Self::disabled());
        }
        let srp = Arc::new(SrpPhatFast::new(config, array, sample_rate)?);
        Ok(Self::shared(Some(srp), TrackingConfig::default()))
    }

    /// Creates the stage around an existing shared localizer (or a disabled stage
    /// for `None`), allocating only the per-stream scratch, output map and peak
    /// list. This is the cheap per-session constructor used by the engine; the
    /// tracking configuration supplies the peak budget and NMS separation.
    pub fn shared(srp: Option<Arc<SrpPhatFast>>, tracking: TrackingConfig) -> Self {
        LocalizeStage {
            localizer: srp.map(|srp| {
                let scratch = srp.make_scratch();
                // Pre-size the output map too, so the very first frame allocates
                // nothing.
                let map = SrpMap::new(
                    srp.grid().azimuths_deg().to_vec(),
                    vec![0.0; srp.grid().num_directions()],
                );
                ActiveLocalizer {
                    srp,
                    scratch,
                    smoothed: map.clone(),
                    map,
                    peaks: Vec::with_capacity(tracking.max_peaks),
                }
            }),
            max_peaks: tracking.max_peaks,
            min_separation_deg: tracking.min_separation_deg,
            map_smoothing: tracking.map_smoothing,
        }
    }

    /// The shared localizer, if the stage is enabled (clone the `Arc` to open
    /// another stage against it).
    pub fn localizer(&self) -> Option<&Arc<SrpPhatFast>> {
        self.localizer.as_ref().map(|a| &a.srp)
    }

    /// Returns true when a localizer is available.
    pub fn is_available(&self) -> bool {
        self.localizer.is_some()
    }

    /// Localizes the frame, extracting the top-K SRP peaks (strongest first)
    /// into the stage-owned scratch, and returns them — `None` when the stage
    /// is disabled, an empty slice when the map has no finite peak. Reuses the
    /// stage-owned scratch, map and peak list: no per-frame allocation.
    ///
    /// # Errors
    ///
    /// Returns an error if the channel count or frame length is wrong.
    pub fn localize_peaks(&mut self, frame: &[&[f64]]) -> Result<Option<&[Peak]>, PipelineError> {
        match &mut self.localizer {
            None => Ok(None),
            Some(ActiveLocalizer {
                srp,
                scratch,
                map,
                smoothed,
                peaks,
            }) => {
                let (max_peaks, min_sep, retain) =
                    (self.max_peaks, self.min_separation_deg, self.map_smoothing);
                srp.compute_map_into(frame, scratch, map)?;
                if retain > 0.0 {
                    smoothed.smooth_from(map, retain);
                    smoothed.peaks_into(max_peaks, min_sep, peaks);
                } else {
                    map.peaks_into(max_peaks, min_sep, peaks);
                }
                Ok(Some(peaks))
            }
        }
    }

    /// The SRP map produced by the most recent localize call (empty before the
    /// first frame; None when the stage is disabled).
    pub fn last_map(&self) -> Option<&SrpMap> {
        self.localizer.as_ref().map(|a| &a.map)
    }

    /// The peaks extracted by the most recent localize call (empty before the
    /// first frame; None when the stage is disabled).
    pub fn last_peaks(&self) -> Option<&[Peak]> {
        self.localizer.as_ref().map(|a| a.peaks.as_slice())
    }

    /// Restarts the temporal map EMA: smoothing history must never leak
    /// across streams or mode switches.
    pub fn reset(&mut self) {
        if let Some(active) = &mut self.localizer {
            active.smoothed.zero();
        }
    }
}

/// Tracking stage: the multi-target tracker — gated nearest-neighbour
/// association of SRP peaks onto a bank of azimuth Kalman tracks with a
/// tentative → confirmed → coasting lifecycle (see
/// [`ispot_ssl::multitrack`]).
///
/// The stage owns all tracker storage (track slots, snapshot buffer,
/// association scratch), so steady-state tracking performs no heap allocation.
#[derive(Debug)]
pub struct TrackStage {
    tracker: MultiTargetTracker,
}

impl TrackStage {
    /// Creates the stage with the default tracking configuration at the given
    /// per-track process / measurement noise (degrees²).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] if either noise value is not a
    /// positive finite number.
    pub fn new(process_noise: f64, measurement_noise: f64) -> Result<Self, PipelineError> {
        Self::with_config(TrackingConfig {
            process_noise,
            measurement_noise,
            ..TrackingConfig::default()
        })
    }

    /// Creates the stage from a full tracking configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::InvalidConfig`] if the configuration is out of
    /// range.
    pub fn with_config(config: TrackingConfig) -> Result<Self, PipelineError> {
        Ok(TrackStage {
            tracker: MultiTargetTracker::new(config)?,
        })
    }

    /// Feeds one frame's peak list (strongest first, as produced by
    /// [`LocalizeStage::localize_peaks`]) into the tracker and returns the best
    /// track's azimuth — `None` while no track is alive.
    pub fn track_peaks(&mut self, peaks: &[Peak]) -> Option<f64> {
        self.tracker.update(peaks);
        self.best().map(|t| t.azimuth_deg)
    }

    /// Snapshots of every live track after the most recent update, best first.
    pub fn tracks(&self) -> &[TrackSnapshot] {
        self.tracker.tracks()
    }

    /// The best track (strongest confirmed, falling back to the strongest
    /// tentative hypothesis), if any track is alive.
    pub fn best(&self) -> Option<&TrackSnapshot> {
        self.tracker.best()
    }

    /// Read access to the underlying multi-target tracker.
    pub fn tracker(&self) -> &MultiTargetTracker {
        &self.tracker
    }

    /// Drops every track (mode switches, new streams).
    pub fn reset(&mut self) {
        self.tracker.reset();
    }
}

/// What the stage graph concluded about one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameOutcome {
    /// Park mode: the wake trigger kept the expensive stages asleep.
    Gated,
    /// The full analysis ran but no event cleared the confidence threshold.
    Analyzed,
    /// The full analysis ran and produced a detection.
    Detection {
        /// Detected event class.
        class: EventClass,
        /// Detector confidence in [0, 1].
        confidence: f64,
        /// Raw SRP-PHAT azimuth estimate (None when localization is off).
        azimuth_deg: Option<f64>,
        /// Kalman-smoothed azimuth (None when localization is off).
        tracked_azimuth_deg: Option<f64>,
    },
}

/// The composed trigger → detect → localize → track graph with its scratch memory.
///
/// Owns every buffer the frame path needs, so running a frame allocates nothing.
#[derive(Debug)]
pub struct StageGraph {
    /// Park-mode wake stage: the always-on low-power energy trigger.
    pub trigger: EnergyTrigger,
    /// Detection stage.
    pub detect: DetectStage,
    /// Localization stage.
    pub localize: LocalizeStage,
    /// Tracking stage.
    pub track: TrackStage,
    /// Preallocated mono mixdown scratch (`frame_len` samples).
    mono: Vec<f64>,
}

/// Observation context for one frame: where stage spans go, the monotonic
/// clock they are timed against, and the frame index stamped into each span.
///
/// Borrowed, not owned: the observer and tick source live on the
/// [`Session`](crate::api::Session) (or whatever is driving the graph), so
/// building a context per frame is free.
pub struct ObsCtx<'a> {
    /// Destination for the frame's stage spans.
    pub observer: &'a mut dyn StageObserver,
    /// Monotonic clock shared by every span of this stream.
    pub ticks: &'a TickSource,
    /// Frame index stamped into each span.
    pub frame_index: u64,
}

impl std::fmt::Debug for ObsCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsCtx")
            .field("frame_index", &self.frame_index)
            .finish_non_exhaustive()
    }
}

/// Runs one stage body, emitting a timing span when an observation context is
/// attached. With `obs == None` this is a bare call plus one branch — the
/// zero-overhead-when-disabled guarantee of the instrumentation. Hot path: no
/// allocation on either arm.
fn observe<T>(obs: &mut Option<ObsCtx<'_>>, stage: StageId, body: impl FnOnce() -> T) -> T {
    match obs {
        None => body(),
        Some(ctx) => {
            let start_ticks = ctx.ticks.ticks();
            let out = body();
            let duration_ticks = ctx.ticks.ticks().saturating_sub(start_ticks);
            ctx.observer.on_span(Span {
                stage,
                frame_index: ctx.frame_index,
                start_ticks,
                duration_ticks,
            });
            out
        }
    }
}

/// Inputs controlling one [`StageGraph::run_frame`] call.
#[derive(Debug, Clone, Copy)]
pub struct FrameParams {
    /// Gate the expensive stages behind the wake trigger (park mode).
    pub gate_on_trigger: bool,
    /// Run localization/tracking on detections (drive mode with a known array).
    pub localization_enabled: bool,
    /// Minimum detector confidence for a detection to be reported.
    pub confidence_threshold: f64,
}

impl StageGraph {
    /// Composes a graph from its stages, preallocating scratch for `frame_len`.
    pub fn new(
        trigger: EnergyTrigger,
        detect: DetectStage,
        localize: LocalizeStage,
        track: TrackStage,
        frame_len: usize,
    ) -> Self {
        StageGraph {
            trigger,
            detect,
            localize,
            track,
            mono: vec![0.0; frame_len],
        }
    }

    /// Resets every stateful stage (streams restart, mode switches).
    pub fn reset(&mut self) {
        self.trigger.reset();
        self.localize.reset();
        self.track.reset();
    }

    /// Runs the graph on one multichannel frame.
    ///
    /// The steady-state path performs no heap allocation: the mixdown reuses the
    /// preallocated scratch and all stages borrow it.
    ///
    /// # Errors
    ///
    /// Returns an error if `frame` is empty or any channel does not hold exactly
    /// `frame_len` samples, or if the detection or localization stage fails.
    pub fn run_frame(
        &mut self,
        frame: &[&[f64]],
        params: FrameParams,
    ) -> Result<FrameOutcome, PipelineError> {
        self.run_frame_observed(frame, params, None)
    }

    /// Runs the graph on one multichannel frame, emitting a timing [`Span`]
    /// per executed stage into `obs` when an observation context is attached.
    ///
    /// This is [`StageGraph::run_frame`] with instrumentation: `obs == None`
    /// takes the identical code path plus one branch per stage, and an
    /// attached observer adds only two tick reads and an `on_span` call per
    /// stage — the instrumented path stays allocation-free (pinned by the
    /// serve-layer counting-allocator test) and stage results are bit-for-bit
    /// unaffected.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StageGraph::run_frame`].
    pub fn run_frame_observed(
        &mut self,
        frame: &[&[f64]],
        params: FrameParams,
        mut obs: Option<ObsCtx<'_>>,
    ) -> Result<FrameOutcome, PipelineError> {
        // Stage 0 (mixdown): average the channels into the preallocated scratch.
        // Destructure so the scratch borrow and the stage borrows stay disjoint.
        let StageGraph {
            trigger,
            detect,
            localize,
            track,
            mono,
        } = self;
        // An empty frame would turn the 1/N scale into infinity (NaN mixdown) and a
        // short channel would panic on indexing below; reject both up front.
        if frame.is_empty() {
            return Err(PipelineError::invalid_config(
                "frame",
                "must contain at least one channel",
            ));
        }
        for ch in frame {
            if ch.len() != mono.len() {
                return Err(PipelineError::invalid_config(
                    "frame",
                    // analyze: allow(alloc) — rejection path: the frame is refused
                    // before any stage runs, so steady-state stays allocation-free
                    format!(
                        "every channel must have {} samples, got {}",
                        mono.len(),
                        ch.len()
                    ),
                ));
            }
        }
        let scale = 1.0 / frame.len() as f64;
        for (i, slot) in mono.iter_mut().enumerate() {
            *slot = frame.iter().map(|c| c[i]).sum::<f64>() * scale;
        }
        // Stage 1 (trigger): in park mode the graph sleeps until the trigger fires.
        if params.gate_on_trigger
            && !observe(&mut obs, StageId::Trigger, || trigger.process_frame(mono))
        {
            return Ok(FrameOutcome::Gated);
        }
        // Stage 2 (detection).
        let (class, confidence) = observe(&mut obs, StageId::Detection, || detect.classify(mono))?;
        if !class.is_event() || confidence < params.confidence_threshold {
            return Ok(FrameOutcome::Analyzed);
        }
        // Stage 3 + 4 (localization, tracking): only on confident detections.
        // The localizer extracts the top-K SRP peaks and the multi-target
        // tracker associates them onto its track bank; the outcome keeps the
        // classic single-source view (strongest peak, best track) while the
        // full track set is exposed via the track stage.
        let mut azimuth_deg = None;
        let mut tracked = None;
        if params.localization_enabled {
            if let Some(peaks) = observe(&mut obs, StageId::Localization, || {
                localize.localize_peaks(frame)
            })? {
                azimuth_deg = peaks.first().map(|p| p.azimuth_deg);
                tracked = observe(&mut obs, StageId::Tracking, || track.track_peaks(peaks));
            }
        }
        Ok(FrameOutcome::Detection {
            class,
            confidence,
            azimuth_deg,
            tracked_azimuth_deg: tracked,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trigger::TriggerConfig;
    use ispot_sed::sirens::{SirenKind, SirenSynthesizer};

    /// Collects every span of a frame, in emission order.
    #[derive(Default)]
    struct Spans(Vec<Span>);

    impl StageObserver for Spans {
        fn on_span(&mut self, span: Span) {
            self.0.push(span);
        }
    }

    fn graph(frame_len: usize) -> StageGraph {
        StageGraph::new(
            EnergyTrigger::new(TriggerConfig::default()),
            DetectStage::new(16_000.0).unwrap(),
            LocalizeStage::disabled(),
            TrackStage::new(1.0, 36.0).unwrap(),
            frame_len,
        )
    }

    #[test]
    fn siren_frame_produces_a_detection_outcome() {
        let fs = 16_000.0;
        let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(0.5);
        let mut g = graph(2048);
        let mut spans = Spans::default();
        let ticks = TickSource::new();
        let params = FrameParams {
            gate_on_trigger: false,
            localization_enabled: false,
            confidence_threshold: 0.2,
        };
        let frame = [&siren[0..2048]];
        let obs = ObsCtx {
            observer: &mut spans,
            ticks: &ticks,
            frame_index: 0,
        };
        let outcome = g.run_frame_observed(&frame, params, Some(obs)).unwrap();
        match outcome {
            FrameOutcome::Detection {
                class,
                confidence,
                azimuth_deg,
                tracked_azimuth_deg,
            } => {
                assert!(class.is_event());
                assert!(confidence >= 0.2);
                assert!(azimuth_deg.is_none());
                assert!(tracked_azimuth_deg.is_none());
            }
            other => panic!("expected a detection, got {other:?}"),
        }
        assert!(spans.0.iter().any(|s| s.stage == StageId::Detection));
    }

    #[test]
    fn silence_is_gated_in_park_mode() {
        let mut g = graph(512);
        let params = FrameParams {
            gate_on_trigger: true,
            localization_enabled: false,
            confidence_threshold: 0.2,
        };
        let quiet = vec![1e-6; 512];
        // After a couple of calibration frames the trigger settles on the noise
        // floor and keeps gating silence.
        let mut gated = 0;
        for _ in 0..20 {
            if g.run_frame(&[&quiet], params).unwrap() == FrameOutcome::Gated {
                gated += 1;
            }
        }
        assert!(gated > 10, "only {gated} frames gated");
    }

    #[test]
    fn empty_and_short_frames_are_rejected() {
        // Regression: an empty channel slice used to mix down to NaN (0.0 × ∞) and
        // a short channel used to panic on out-of-bounds indexing.
        let mut g = graph(512);
        let params = FrameParams {
            gate_on_trigger: false,
            localization_enabled: false,
            confidence_threshold: 0.2,
        };
        let empty: [&[f64]; 0] = [];
        assert!(matches!(
            g.run_frame(&empty, params),
            Err(PipelineError::InvalidConfig { .. })
        ));
        let short = vec![0.0; 100];
        let ok = vec![0.0; 512];
        assert!(matches!(
            g.run_frame(&[&ok, &short], params),
            Err(PipelineError::InvalidConfig { .. })
        ));
        // A well-formed frame still runs after the rejected ones.
        assert!(g.run_frame(&[&ok], params).is_ok());
    }

    #[test]
    fn localize_stage_exposes_its_map_and_reuses_it() {
        use ispot_roadsim::geometry::Position;
        let fs = 16_000.0;
        let array = MicrophoneArray::circular(4, 0.2, Position::new(0.0, 0.0, 1.0));
        let mut stage = LocalizeStage::for_array(SrpConfig::default(), &array, fs).unwrap();
        assert!(stage.is_available());
        assert!(stage.last_map().is_some());
        let ch: Vec<f64> = (0..2048).map(|i| (i as f64 * 0.11).sin()).collect();
        let frame: Vec<&[f64]> = vec![&ch; 4];
        let peaks = stage.localize_peaks(&frame).unwrap();
        assert!(peaks.and_then(|p| p.first()).is_some());
        assert_eq!(stage.last_map().unwrap().len(), 181);
        let mut disabled = LocalizeStage::disabled();
        assert!(disabled.localize_peaks(&frame).unwrap().is_none());
        assert!(disabled.last_map().is_none());
    }

    #[test]
    fn reset_clears_stage_state() {
        let mut g = graph(512);
        let params = FrameParams {
            gate_on_trigger: true,
            localization_enabled: false,
            confidence_threshold: 0.2,
        };
        let quiet = vec![1e-6; 512];
        for _ in 0..5 {
            let _ = g.run_frame(&[&quiet], params).unwrap();
        }
        assert!(g.trigger.frames_seen() > 0);
        g.reset();
        assert_eq!(g.trigger.frames_seen(), 0);
    }
}
