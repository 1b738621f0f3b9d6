//! The bare-session replay (pass 1), the per-layer replay (pass 2), the obs
//! timings and the in-run reference kernel.
//!
//! Pass 1 feeds a sample of streams' accepted chunks through a bare
//! [`Session`]: the reference the hosted event sequences must equal bit for
//! bit. Pass 2 replays the same chunks through the layers' public entry
//! points, built as `PipelineBuilder::build_engine` builds them, and follows
//! pass 1's per-frame decisions rather than making its own. The two passes
//! run in lockstep, chunk by chunk.

use crate::clips::{array, Inputs, CHANNELS, SAMPLE_RATE};
use crate::hosted::BenchResult;
use crate::stats::median;
use ispot_core::api::{Engine, Session};
use ispot_core::events::PerceptionEvent;
use ispot_core::mode::OperatingMode;
use ispot_core::pipeline::PipelineConfig;
use ispot_core::sink::EventSink;
use ispot_core::stages::FrameOutcome;
use ispot_core::trigger::EnergyTrigger;
use ispot_dsp::complex::Complex;
use ispot_dsp::fft::Fft;
use ispot_dsp::framing::FrameAssembler;
use ispot_obs::{Histogram, Span, SpanRing, StageId};
use ispot_sed::baseline::{DetectorScratch, SpectralTemplateDetector};
use ispot_ssl::multitrack::MultiTargetTracker;
use ispot_ssl::srp_fast::SrpPhatFast;
use ispot_ssl::srp_phat::{Peak, SrpConfig, SrpMap, SrpScratch};
use std::hint::black_box;
use std::time::Instant;

/// One stream's bare-session replay.
#[derive(Debug, Default)]
pub struct Pass1 {
    /// Every frame's outcome, in order.
    pub outcomes: Vec<FrameOutcome>,
    /// Every event, in order.
    pub events: Vec<PerceptionEvent>,
    /// Wall time (ns) of each `push_chunk_with` call and the frames it
    /// completed.
    pub calls: Vec<(f64, usize)>,
}

impl EventSink for Pass1 {
    fn on_event(&mut self, event: &PerceptionEvent) {
        self.events.push(event.clone());
    }

    fn on_frame(&mut self, outcome: &FrameOutcome) {
        self.outcomes.push(*outcome);
    }
}

/// Replays the accepted chunks of `streams` (each a stream index and the
/// offered indices of its accepted chunks) round-robin, one chunk of each
/// stream in turn as the host interleaves them, through a fresh session per
/// stream (pass 1), timing each call. With `layers`, pass 2 runs each chunk
/// right after its pass-1 call, so both passes see the same machine
/// conditions and the same cache pressure, and their difference — core's
/// self time — is not skewed by a slower or faster stretch of the run.
pub fn replay(
    engine: &Engine,
    layers: Option<&Layers>,
    inputs: &Inputs,
    streams: &[(usize, &[u32])],
    times: &mut LayerTimes,
) -> BenchResult<Vec<Pass1>> {
    let mut sessions: Vec<Session> = streams.iter().map(|_| engine.open_session()).collect();
    let mut passes: Vec<Pass1> = streams
        .iter()
        .map(|(_, accepted)| Pass1 {
            calls: Vec::with_capacity(accepted.len()),
            ..Pass1::default()
        })
        .collect();
    let mut states = match layers {
        Some(layers) => streams
            .iter()
            .map(|_| layers.open())
            .collect::<BenchResult<Vec<_>>>()?,
        None => Vec::new(),
    };
    let longest = streams.iter().map(|(_, accepted)| accepted.len()).max();
    for t in 0..longest.unwrap_or(0) {
        for (k, &(stream, accepted)) in streams.iter().enumerate() {
            let Some(&j) = accepted.get(t) else {
                continue;
            };
            let chunk = inputs.chunk(stream, j as usize);
            let out = &mut passes[k];
            let started = Instant::now();
            let frames = sessions[k].push_chunk_with(&chunk, out)?;
            out.calls
                .push((started.elapsed().as_nanos() as f64, frames));
            if let Some(layers) = layers {
                layers.push_chunk(&mut states[k], &chunk, &out.outcomes, times)?;
            }
        }
    }
    Ok(passes)
}

/// Per-call wall times (ns) of pass 2, by entry point.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// `FrameAssembler::push_planar`, per chunk.
    pub push_planar: Vec<f64>,
    /// `FrameAssembler::emit_into`, per frame.
    pub emit: Vec<f64>,
    /// `EnergyTrigger::process_frame`.
    pub trigger: Vec<f64>,
    /// `SpectralTemplateDetector::predict_with_confidence_into`.
    pub classify: Vec<f64>,
    /// `SrpPhatFast::compute_map_into`.
    pub srp_map: Vec<f64>,
    /// `SrpMap::smooth_from`.
    pub smooth: Vec<f64>,
    /// `SrpMap::peaks_into`.
    pub peaks: Vec<f64>,
    /// `MultiTargetTracker::update`.
    pub track: Vec<f64>,
    /// Confirmed tracks summed over the localized frames.
    pub confirmed_tracks: u64,
    /// One span per stage run, as the host's observer records them.
    pub spans: Vec<Span>,
}

impl LayerTimes {
    /// Time of every pass-2 call, ns.
    pub fn total_ns(&self) -> f64 {
        [
            &self.push_planar,
            &self.emit,
            &self.trigger,
            &self.classify,
            &self.srp_map,
            &self.smooth,
            &self.peaks,
            &self.track,
        ]
        .iter()
        .map(|times| times.iter().sum::<f64>())
        .sum()
    }
}

/// Runs `f`, appending its wall time in ns to `times`.
fn timed<T>(times: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    times.push(started.elapsed().as_nanos() as f64);
    out
}

/// The most recent entry of `times`.
fn last(times: &[f64]) -> f64 {
    times.last().copied().unwrap_or(0.0)
}

/// A span of `ns` for `stage` on frame `frame_index`.
fn span(stage: StageId, frame_index: u64, ns: f64) -> Span {
    Span {
        stage,
        frame_index,
        start_ticks: 0,
        duration_ticks: ns as u64,
    }
}

/// The shared layers of one engine, built as `PipelineBuilder::build_engine`
/// builds them.
#[derive(Debug)]
pub struct Layers {
    config: PipelineConfig,
    detector: SpectralTemplateDetector,
    srp: SrpPhatFast,
}

impl Layers {
    /// Builds the detector and the localizer for `config`.
    pub fn build(config: PipelineConfig) -> BenchResult<Layers> {
        let srp_config = SrpConfig {
            frame_len: config.frame_len,
            num_directions: config.num_directions,
            freq_max_hz: (SAMPLE_RATE / 2.0 - 200.0).max(1000.0),
            ..SrpConfig::default()
        };
        Ok(Layers {
            config,
            detector: SpectralTemplateDetector::new(SAMPLE_RATE)?,
            srp: SrpPhatFast::with_search(srp_config, config.search, &array(), SAMPLE_RATE)?,
        })
    }

    /// Fresh per-stream state, sized as `Engine::open_session` sizes a
    /// session's.
    pub fn open(&self) -> BenchResult<LayerState> {
        let cfg = self.config;
        let grid = self.srp.grid();
        let map = SrpMap::new(
            grid.azimuths_deg().to_vec(),
            vec![0.0; grid.num_directions()],
        );
        Ok(LayerState {
            assembler: FrameAssembler::new(CHANNELS, cfg.frame_len, cfg.hop)?,
            frame: (0..CHANNELS)
                .map(|_| Vec::with_capacity(cfg.frame_len))
                .collect(),
            mono: vec![0.0; cfg.frame_len],
            trigger: EnergyTrigger::new(cfg.trigger),
            features: self.detector.make_scratch(),
            scratch: self.srp.make_scratch(),
            smoothed: map.clone(),
            map,
            peaks: Vec::with_capacity(cfg.tracking.max_peaks),
            tracker: MultiTargetTracker::new(cfg.tracking)?,
            followed: 0,
        })
    }

    /// Pass 2 for one chunk: the layer calls a session makes for it, taking
    /// each completed frame's path from pass 1's `outcomes` of the same
    /// stream rather than deciding it again.
    pub fn push_chunk(
        &self,
        state: &mut LayerState,
        chunk: &[&[f64]],
        outcomes: &[FrameOutcome],
        times: &mut LayerTimes,
    ) -> BenchResult<()> {
        let tracking = self.config.tracking;
        let park = self.config.mode == OperatingMode::Park;
        let localize = self.config.mode.localization_enabled();
        let LayerState {
            assembler,
            frame,
            mono,
            trigger,
            features,
            scratch,
            map,
            smoothed,
            peaks,
            tracker,
            followed,
        } = state;
        timed(&mut times.push_planar, || assembler.push_planar(chunk))?;
        while assembler.frame_ready() {
            let index = timed(&mut times.emit, || assembler.emit_into(frame))? as u64;
            let outcome = *outcomes
                .get(*followed)
                .ok_or("pass 1 recorded fewer frames than the chunks make")?;
            *followed += 1;
            // The session's mixdown, untimed: it is part of core's self time.
            let scale = 1.0 / CHANNELS as f64;
            for (i, m) in mono.iter_mut().enumerate() {
                *m = frame.iter().map(|c| c[i]).sum::<f64>() * scale;
            }
            if park {
                timed(&mut times.trigger, || trigger.process_frame(mono));
                times
                    .spans
                    .push(span(StageId::Trigger, index, last(&times.trigger)));
            }
            if matches!(outcome, FrameOutcome::Gated) {
                continue;
            }
            timed(&mut times.classify, || {
                self.detector.predict_with_confidence_into(mono, features)
            })?;
            times
                .spans
                .push(span(StageId::Detection, index, last(&times.classify)));
            if !(localize && matches!(outcome, FrameOutcome::Detection { .. })) {
                continue;
            }
            let views: [&[f64]; CHANNELS] = std::array::from_fn(|c| frame[c].as_slice());
            timed(&mut times.srp_map, || {
                self.srp.compute_map_into(&views, scratch, map)
            })?;
            let mut localization_ns = last(&times.srp_map);
            if tracking.map_smoothing > 0.0 {
                timed(&mut times.smooth, || {
                    smoothed.smooth_from(map, tracking.map_smoothing)
                });
                timed(&mut times.peaks, || {
                    smoothed.peaks_into(tracking.max_peaks, tracking.min_separation_deg, peaks)
                });
                localization_ns += last(&times.smooth);
            } else {
                timed(&mut times.peaks, || {
                    map.peaks_into(tracking.max_peaks, tracking.min_separation_deg, peaks)
                });
            }
            localization_ns += last(&times.peaks);
            times
                .spans
                .push(span(StageId::Localization, index, localization_ns));
            timed(&mut times.track, || tracker.update(peaks));
            times
                .spans
                .push(span(StageId::Tracking, index, last(&times.track)));
            times.confirmed_tracks +=
                tracker.tracks().iter().filter(|t| t.is_confirmed()).count() as u64;
        }
        Ok(())
    }
}

/// One stream's pass-2 state: its own copy of every per-stream buffer a
/// session holds.
#[derive(Debug)]
pub struct LayerState {
    assembler: FrameAssembler,
    frame: Vec<Vec<f64>>,
    mono: Vec<f64>,
    trigger: EnergyTrigger,
    features: DetectorScratch,
    scratch: SrpScratch,
    map: SrpMap,
    smoothed: SrpMap,
    peaks: Vec<Peak>,
    tracker: MultiTargetTracker,
    /// Frames of pass 1's outcomes followed so far.
    followed: usize,
}

/// Mean ns per call of the two records the host's observer makes for every
/// stage span — `Histogram::record_us` and `SpanRing::record` — replayed
/// over pass 2's spans in batches, since one call is shorter than a clock
/// read. Returns `(histogram_ns, span_ns)`.
pub fn time_obs(spans: &[Span]) -> (f64, f64) {
    const MIN_CALLS: usize = 200_000;
    const BATCH: usize = 64;
    if spans.is_empty() {
        return (0.0, 0.0);
    }
    let ring = SpanRing::new(256);
    let histogram = Histogram::new();
    let (mut histogram_ns, mut ring_ns, mut calls) = (0u128, 0u128, 0usize);
    while calls < MIN_CALLS {
        for batch in spans.chunks(BATCH) {
            let started = Instant::now();
            for span in batch {
                histogram.record_us(black_box(span).duration_us());
            }
            histogram_ns += started.elapsed().as_nanos();
            let started = Instant::now();
            for span in batch {
                ring.record(*black_box(span));
            }
            ring_ns += started.elapsed().as_nanos();
            calls += batch.len();
        }
    }
    (
        histogram_ns as f64 / calls as f64,
        ring_ns as f64 / calls as f64,
    )
}

/// Mean µs of one 2048-point `Fft::forward_real_pair_into`: a fixed kernel
/// timed in the same process, so a slow or crowded machine shows beside the
/// numbers it moved. The median over batches keeps one preempted batch from
/// setting it.
pub fn reference_kernel_us() -> BenchResult<f64> {
    const N: usize = 2048;
    const BATCHES: usize = 21;
    const CALLS: u32 = 100;
    let fft = Fft::new(N);
    let a: Vec<f64> = (0..N).map(|i| (i as f64 * 0.013).sin()).collect();
    let b: Vec<f64> = (0..N).map(|i| (i as f64 * 0.029).cos()).collect();
    let mut out = vec![Complex::ZERO; N];
    for _ in 0..CALLS {
        fft.forward_real_pair_into(&a, &b, &mut out)?;
    }
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let started = Instant::now();
        for _ in 0..CALLS {
            fft.forward_real_pair_into(black_box(&a), black_box(&b), &mut out)?;
            black_box(&out);
        }
        batches.push(started.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS));
    }
    Ok(median(&batches))
}
