//! Multi-target azimuth tracking: gated nearest-neighbour association of SRP
//! peaks to a bank of Kalman-filtered tracks with a tentative → confirmed →
//! coasting lifecycle.
//!
//! Real road scenes contain several concurrent sources (PR 4's crossing
//! vehicles, a siren emerging from behind a masker), and the literature the
//! roadmap follows — Schulz et al.'s *Hearing What You Cannot See*, Bulatović &
//! Djukanović's pass-by instant estimation — works with **per-vehicle tracks**,
//! not a single bearing. This module turns the per-frame peak list of an
//! [`SrpMap`](crate::srp_phat::SrpMap) (see
//! [`SrpMap::peaks_into`](crate::srp_phat::SrpMap::peaks_into)) into a set of
//! stable-identity tracks:
//!
//! 1. **Association** — every live track predicts one constant-velocity step
//!    ahead; each (track, peak) pair whose wrapped azimuth innovation is within
//!    [`TrackingConfig::gate_deg`] is a candidate, and candidates are consumed
//!    greedily in order of increasing innovation (global-nearest-first).
//! 2. **Update / coast** — matched tracks incorporate the peak through their
//!    [`AzimuthKalmanTracker`]; unmatched tracks
//!    [`coast`](AzimuthKalmanTracker::coast) along their predicted rate.
//! 3. **Lifecycle** — a new peak spawns a *tentative* track; a tentative track
//!    is *confirmed* after M hits in its last N updates
//!    ([`TrackingConfig::confirm_hits`] of [`TrackingConfig::confirm_window`]);
//!    a confirmed track that misses becomes *coasting* and dies after
//!    [`TrackingConfig::coast_frames`] consecutive misses; a tentative track
//!    dies after two consecutive misses. Track identities ([`TrackId`]) are
//!    stable for the life of the track and never reused within a session.
//!
//! The tracker owns all of its storage up front (track slots, snapshot buffer,
//! association scratch), so the steady-state [`MultiTargetTracker::update`]
//! path performs **no heap allocation** — tracks are born and die inside
//! preallocated capacity. This is enforced end-to-end by the counting-allocator
//! test in `crates/core/tests/zero_alloc.rs`.
//!
//! # Example
//!
//! ```
//! use ispot_ssl::multitrack::{MultiTargetTracker, TrackingConfig};
//! use ispot_ssl::srp_phat::Peak;
//!
//! let mut tracker = MultiTargetTracker::new(TrackingConfig::default()).unwrap();
//! // Two well-separated sources, observed over a few frames.
//! for step in 0..8 {
//!     let peaks = [
//!         Peak { index: 0, azimuth_deg: 40.0 + step as f64, power: 9.0, salience: 1.0 },
//!         Peak { index: 1, azimuth_deg: -120.0, power: 7.0, salience: 0.8 },
//!     ];
//!     tracker.update(&peaks);
//! }
//! let confirmed: Vec<_> = tracker.tracks().iter().filter(|t| t.is_confirmed()).collect();
//! assert_eq!(confirmed.len(), 2);
//! assert_ne!(confirmed[0].id, confirmed[1].id);
//! ```

use crate::error::SslError;
use crate::metrics::angular_error_deg;
use crate::srp_phat::Peak;
use crate::tracking::{wrap_deg, AzimuthKalmanTracker, TrackState};
use std::fmt;

/// Hard upper bound on [`TrackingConfig::max_tracks`]: the inline track list
/// embedded in perception events sizes itself to this, so events stay heap-free.
pub const MAX_TRACKS: usize = 8;

/// A tentative track dies after this many consecutive misses (it never earned
/// the benefit of a coasting period).
const TENTATIVE_MAX_MISSES: u32 = 2;

/// Smoothing factor of the per-track strength EMA (weight of the new salience).
const STRENGTH_ALPHA: f64 = 0.3;

/// Strength decay applied while a track misses (keeps stale coasting tracks
/// from outranking a live one).
const STRENGTH_DECAY: f64 = 0.9;

/// Configuration of the multi-target tracker (peak budget, association gate,
/// confirmation and coasting counts).
///
/// Validated by [`TrackingConfig::validate`] — and again by the pipeline
/// builder in `ispot-core`, which rejects invalid values with its typed
/// `InvalidConfig` error before anything is built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackingConfig {
    /// Maximum number of simultaneous tracks (tentative + confirmed), at most
    /// [`MAX_TRACKS`].
    pub max_tracks: usize,
    /// Number of SRP peaks extracted and offered to the tracker per frame.
    pub max_peaks: usize,
    /// Association gate: a peak may only update a track if the wrapped azimuth
    /// innovation is within this many degrees.
    pub gate_deg: f64,
    /// Minimum peak-to-track separation enforced by the peak extractor's
    /// non-maximum suppression, degrees.
    pub min_separation_deg: f64,
    /// Peaks below this salience (power normalized to the map's own dynamic
    /// range, `[0, 1]`) neither update nor spawn tracks — side-lobe rejection.
    pub min_salience: f64,
    /// Salience required to **spawn** a new track (must be at least
    /// [`TrackingConfig::min_salience`]). Keeping the spawn bar above the
    /// update bar is the track-before-detect asymmetry: a weak source needs one
    /// strong appearance to found a track, after which the gate — not raw
    /// salience — decides which peaks keep feeding it.
    pub spawn_salience: f64,
    /// Temporal smoothing of the SRP map before peak extraction: the fraction
    /// of the previous smoothed map retained each frame (`0` disables, must be
    /// `< 1`). Persistent sources survive the EMA; frame-to-frame clutter
    /// (inter-source cross-terms, tonal aliasing lobes) is averaged away.
    pub map_smoothing: f64,
    /// M of the M-of-N confirmation rule: hits required inside the window.
    pub confirm_hits: usize,
    /// N of the M-of-N confirmation rule: length of the sliding update window
    /// (at most 32).
    pub confirm_window: usize,
    /// Consecutive misses a confirmed track may coast through before it dies.
    pub coast_frames: usize,
    /// Process-noise variance of each track's Kalman filter (deg² per step).
    pub process_noise: f64,
    /// Measurement-noise variance of each track's Kalman filter (deg²).
    pub measurement_noise: f64,
}

impl Default for TrackingConfig {
    fn default() -> Self {
        TrackingConfig {
            max_tracks: 4,
            max_peaks: 4,
            gate_deg: 30.0,
            min_separation_deg: 20.0,
            min_salience: 0.4,
            spawn_salience: 0.65,
            map_smoothing: 0.3,
            confirm_hits: 4,
            confirm_window: 6,
            coast_frames: 12,
            process_noise: 1.0,
            measurement_noise: 36.0,
        }
    }
}

impl TrackingConfig {
    /// Checks every parameter against its documented range.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::InvalidConfig`] naming the first offending parameter.
    pub fn validate(&self) -> Result<(), SslError> {
        if self.max_tracks == 0 || self.max_tracks > MAX_TRACKS {
            return Err(SslError::invalid_config(
                "tracking.max_tracks",
                format!("must lie in 1..={MAX_TRACKS}, got {}", self.max_tracks),
            ));
        }
        if self.max_peaks == 0 {
            return Err(SslError::invalid_config(
                "tracking.max_peaks",
                "must be positive",
            ));
        }
        if !(self.gate_deg.is_finite() && self.gate_deg > 0.0 && self.gate_deg <= 180.0) {
            return Err(SslError::invalid_config(
                "tracking.gate_deg",
                "must lie in (0, 180]",
            ));
        }
        if !(self.min_separation_deg.is_finite()
            && (0.0..=180.0).contains(&self.min_separation_deg))
        {
            return Err(SslError::invalid_config(
                "tracking.min_separation_deg",
                "must lie in [0, 180]",
            ));
        }
        if !(0.0..=1.0).contains(&self.min_salience) {
            return Err(SslError::invalid_config(
                "tracking.min_salience",
                "must lie in [0, 1]",
            ));
        }
        if !(self.min_salience..=1.0).contains(&self.spawn_salience) {
            return Err(SslError::invalid_config(
                "tracking.spawn_salience",
                "must lie in [min_salience, 1]",
            ));
        }
        if !(self.map_smoothing >= 0.0 && self.map_smoothing < 1.0) {
            return Err(SslError::invalid_config(
                "tracking.map_smoothing",
                "must lie in [0, 1)",
            ));
        }
        if self.confirm_hits == 0 {
            return Err(SslError::invalid_config(
                "tracking.confirm_hits",
                "must be positive",
            ));
        }
        if self.confirm_window < self.confirm_hits || self.confirm_window > 32 {
            return Err(SslError::invalid_config(
                "tracking.confirm_window",
                format!(
                    "must satisfy confirm_hits ({}) <= confirm_window <= 32, got {}",
                    self.confirm_hits, self.confirm_window
                ),
            ));
        }
        if self.coast_frames == 0 {
            return Err(SslError::invalid_config(
                "tracking.coast_frames",
                "must be positive",
            ));
        }
        if !(self.process_noise.is_finite() && self.process_noise > 0.0) {
            return Err(SslError::invalid_config(
                "tracking.process_noise",
                "must be positive and finite",
            ));
        }
        if !(self.measurement_noise.is_finite() && self.measurement_noise > 0.0) {
            return Err(SslError::invalid_config(
                "tracking.measurement_noise",
                "must be positive and finite",
            ));
        }
        Ok(())
    }
}

/// Stable identity of one track, unique within a tracker for its whole life
/// (identities are never reused; [`MultiTargetTracker::reset`] restarts the
/// sequence for a new stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TrackId(pub(crate) u64);

impl TrackId {
    /// The raw sequence number behind the identity.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an identity from its raw sequence number — the inverse of
    /// [`raw`](Self::raw), for replaying persisted track logs and for test
    /// harnesses that score synthetic tracks without running a tracker.
    pub fn from_raw(raw: u64) -> Self {
        TrackId(raw)
    }
}

impl fmt::Display for TrackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Lifecycle state of a track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrackStatus {
    /// Newly spawned; not yet past the M-of-N confirmation rule.
    #[default]
    Tentative,
    /// Confirmed and currently fed by gated measurements.
    Confirmed,
    /// Confirmed, but currently propagating on prediction alone (its peak is
    /// occluded or merged with another lobe).
    Coasting,
}

/// A read-only view of one track at a frame boundary — the per-track payload of
/// perception events. `Copy` and heap-free, so snapshot lists can travel
/// through event sinks without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrackSnapshot {
    /// Stable track identity.
    pub id: TrackId,
    /// Kalman-smoothed azimuth in degrees, wrapped to `(-180, 180]`.
    pub azimuth_deg: f64,
    /// Estimated azimuth rate in degrees per update step.
    pub rate_deg_per_step: f64,
    /// Lifecycle state.
    pub status: TrackStatus,
    /// Number of tracker updates this track has lived through.
    pub age: u32,
    /// Consecutive misses (0 when the last update matched a peak).
    pub misses: u32,
    /// Smoothed salience of the peaks feeding the track, `[0, 1]`.
    pub strength: f64,
}

impl TrackSnapshot {
    /// True for tracks past the M-of-N confirmation rule (confirmed or
    /// coasting); tentative tracks are association hypotheses, not detections.
    pub fn is_confirmed(&self) -> bool {
        matches!(self.status, TrackStatus::Confirmed | TrackStatus::Coasting)
    }
}

/// One live track: the Kalman filter plus its lifecycle bookkeeping.
#[derive(Debug, Clone)]
struct Track {
    id: TrackId,
    filter: AzimuthKalmanTracker,
    status: TrackStatus,
    /// Bit i set = the i-th most recent update was a hit (bit 0 = latest).
    history: u32,
    age: u32,
    misses: u32,
    strength: f64,
}

impl Track {
    fn hits_in_window(&self, window: usize) -> u32 {
        (self.history & ((1u64 << window) - 1) as u32).count_ones()
    }

    fn snapshot(&self) -> TrackSnapshot {
        // A track's filter is initialized at spawn, so the fallback is inert.
        let state = self.filter.state().unwrap_or(TrackState {
            azimuth_deg: 0.0,
            rate_deg_per_step: 0.0,
        });
        TrackSnapshot {
            id: self.id,
            azimuth_deg: state.azimuth_deg,
            rate_deg_per_step: state.rate_deg_per_step,
            status: self.status,
            age: self.age,
            misses: self.misses,
            strength: self.strength,
        }
    }
}

/// The multi-target tracker: a bank of azimuth Kalman tracks fed by gated
/// nearest-neighbour association from per-frame SRP peak lists.
///
/// See the [module documentation](self) for the algorithm; see
/// [`TrackingConfig`] for the knobs. All storage is preallocated, so
/// steady-state updates perform no heap allocation.
#[derive(Debug, Clone)]
pub struct MultiTargetTracker {
    config: TrackingConfig,
    next_id: u64,
    tracks: Vec<Track>,
    snapshots: Vec<TrackSnapshot>,
    /// Association scratch: (innovation, track index, peak index), gate-filtered.
    pairs: Vec<(f64, u8, u8)>,
    track_matched: Vec<Option<u8>>,
    peak_matched: Vec<bool>,
}

impl MultiTargetTracker {
    /// Creates a tracker, validating the configuration and preallocating every
    /// buffer the update path needs.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::InvalidConfig`] if the configuration is out of range.
    pub fn new(config: TrackingConfig) -> Result<Self, SslError> {
        config.validate()?;
        Ok(MultiTargetTracker {
            config,
            next_id: 0,
            tracks: Vec::with_capacity(config.max_tracks),
            snapshots: Vec::with_capacity(config.max_tracks),
            pairs: Vec::with_capacity(config.max_tracks * config.max_peaks),
            track_matched: Vec::with_capacity(config.max_tracks),
            peak_matched: Vec::with_capacity(config.max_peaks),
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> TrackingConfig {
        self.config
    }

    /// Drops every track and restarts the identity sequence (new stream, mode
    /// switch). Buffers are kept, so resetting reintroduces no allocations.
    pub fn reset(&mut self) {
        self.tracks.clear();
        self.snapshots.clear();
        self.next_id = 0;
    }

    /// Incorporates one frame's peak list (as produced by
    /// [`SrpMap::peaks_into`](crate::srp_phat::SrpMap::peaks_into): strongest
    /// first). Peaks below [`TrackingConfig::min_salience`] are ignored; at most
    /// [`TrackingConfig::max_peaks`] peaks are considered.
    ///
    /// Steady state performs no heap allocation.
    pub fn update(&mut self, peaks: &[Peak]) {
        let cfg = self.config;
        // Gate the peak list itself: salience floor, budget, finite bearings.
        // (Iteration below re-applies this filter cheaply instead of building a
        // filtered copy.)
        let usable = |p: &Peak| p.salience >= cfg.min_salience && p.azimuth_deg.is_finite();
        let num_peaks = peaks.len().min(cfg.max_peaks);

        // 1. Gated candidate pairs against each track's one-step prediction.
        self.pairs.clear();
        for (ti, track) in self.tracks.iter().enumerate() {
            let Some(state) = track.filter.state() else {
                continue;
            };
            let predicted = wrap_deg(state.azimuth_deg + state.rate_deg_per_step);
            for (pi, peak) in peaks[..num_peaks].iter().enumerate() {
                if !usable(peak) {
                    continue;
                }
                let innovation = angular_error_deg(peak.azimuth_deg, predicted);
                if innovation <= cfg.gate_deg {
                    self.pairs.push((innovation, ti as u8, pi as u8));
                }
            }
        }
        // 2. Greedy global-nearest-neighbour assignment.
        self.pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        self.track_matched.clear();
        self.track_matched.resize(self.tracks.len(), None);
        self.peak_matched.clear();
        self.peak_matched.resize(num_peaks, false);
        for &(_, ti, pi) in self.pairs.iter() {
            let (ti, pi) = (ti as usize, pi as usize);
            if self.track_matched[ti].is_none() && !self.peak_matched[pi] {
                self.track_matched[ti] = Some(pi as u8);
                self.peak_matched[pi] = true;
            }
        }
        // 3. Update matched tracks, coast the rest, apply the lifecycle rules.
        for (ti, track) in self.tracks.iter_mut().enumerate() {
            track.age = track.age.saturating_add(1);
            match self.track_matched[ti] {
                Some(pi) => {
                    let peak = &peaks[pi as usize];
                    track.filter.update(peak.azimuth_deg);
                    track.history = (track.history << 1) | 1;
                    track.misses = 0;
                    track.strength =
                        (1.0 - STRENGTH_ALPHA) * track.strength + STRENGTH_ALPHA * peak.salience;
                    match track.status {
                        TrackStatus::Tentative => {
                            if track.hits_in_window(cfg.confirm_window) >= cfg.confirm_hits as u32 {
                                track.status = TrackStatus::Confirmed;
                            }
                        }
                        TrackStatus::Confirmed | TrackStatus::Coasting => {
                            track.status = TrackStatus::Confirmed;
                        }
                    }
                }
                None => {
                    track.filter.coast();
                    track.history <<= 1;
                    track.misses = track.misses.saturating_add(1);
                    track.strength *= STRENGTH_DECAY;
                    if track.status == TrackStatus::Confirmed {
                        track.status = TrackStatus::Coasting;
                    }
                }
            }
        }
        // 4. Reap timed-out tracks.
        self.tracks.retain(|t| match t.status {
            TrackStatus::Tentative => t.misses < TENTATIVE_MAX_MISSES,
            TrackStatus::Confirmed | TrackStatus::Coasting => {
                (t.misses as usize) <= cfg.coast_frames
            }
        });
        // 5. Spawn tentative tracks from unmatched usable peaks (strongest
        // first — the peak list arrives sorted by power).
        for (pi, peak) in peaks[..num_peaks].iter().enumerate() {
            if self.tracks.len() >= cfg.max_tracks {
                break;
            }
            if self.peak_matched[pi] || !usable(peak) || peak.salience < cfg.spawn_salience {
                continue;
            }
            let mut filter = AzimuthKalmanTracker::new(cfg.process_noise, cfg.measurement_noise);
            filter.update(peak.azimuth_deg);
            self.tracks.push(Track {
                id: TrackId(self.next_id),
                filter,
                status: if cfg.confirm_hits <= 1 {
                    TrackStatus::Confirmed
                } else {
                    TrackStatus::Tentative
                },
                history: 1,
                age: 1,
                misses: 0,
                strength: peak.salience,
            });
            self.next_id += 1;
        }
        // 6. Publish snapshots, best-first: confirmed before tentative, then by
        // strength (descending), then by seniority — so `tracks()[0]` is the
        // track the legacy single-azimuth event fields report.
        self.snapshots.clear();
        self.snapshots
            .extend(self.tracks.iter().map(Track::snapshot));
        self.snapshots.sort_unstable_by(|a, b| {
            b.is_confirmed()
                .cmp(&a.is_confirmed())
                .then(b.strength.total_cmp(&a.strength))
                .then(a.id.cmp(&b.id))
        });
    }

    /// The current track snapshots, best-first (see [`MultiTargetTracker::best`]).
    pub fn tracks(&self) -> &[TrackSnapshot] {
        &self.snapshots
    }

    /// The best track: the strongest confirmed track, falling back to the
    /// strongest tentative hypothesis while nothing is confirmed yet. This is
    /// the track behind the legacy single-azimuth event fields.
    pub fn best(&self) -> Option<&TrackSnapshot> {
        self.snapshots.first()
    }

    /// Number of live tracks (tentative + confirmed).
    pub fn len(&self) -> usize {
        self.tracks.len()
    }

    /// True when no track is alive.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }

    /// Number of live confirmed (or coasting) tracks.
    pub fn confirmed_count(&self) -> usize {
        self.snapshots.iter().filter(|t| t.is_confirmed()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peak(azimuth_deg: f64, salience: f64) -> Peak {
        Peak {
            index: 0,
            azimuth_deg,
            power: salience,
            salience,
        }
    }

    fn config() -> TrackingConfig {
        TrackingConfig::default()
    }

    #[test]
    fn config_validation_rejects_each_degenerate_value() {
        let cases = [
            (
                "max_tracks zero",
                TrackingConfig {
                    max_tracks: 0,
                    ..config()
                },
            ),
            (
                "max_tracks above cap",
                TrackingConfig {
                    max_tracks: MAX_TRACKS + 1,
                    ..config()
                },
            ),
            (
                "max_peaks",
                TrackingConfig {
                    max_peaks: 0,
                    ..config()
                },
            ),
            (
                "gate zero",
                TrackingConfig {
                    gate_deg: 0.0,
                    ..config()
                },
            ),
            (
                "gate nan",
                TrackingConfig {
                    gate_deg: f64::NAN,
                    ..config()
                },
            ),
            (
                "gate wide",
                TrackingConfig {
                    gate_deg: 181.0,
                    ..config()
                },
            ),
            (
                "separation",
                TrackingConfig {
                    min_separation_deg: -1.0,
                    ..config()
                },
            ),
            (
                "salience",
                TrackingConfig {
                    min_salience: 1.5,
                    ..config()
                },
            ),
            (
                "confirm hits",
                TrackingConfig {
                    confirm_hits: 0,
                    ..config()
                },
            ),
            (
                "window below hits",
                TrackingConfig {
                    confirm_hits: 4,
                    confirm_window: 3,
                    ..config()
                },
            ),
            (
                "window above 32",
                TrackingConfig {
                    confirm_window: 33,
                    ..config()
                },
            ),
            (
                "coast",
                TrackingConfig {
                    coast_frames: 0,
                    ..config()
                },
            ),
            (
                "process noise",
                TrackingConfig {
                    process_noise: 0.0,
                    ..config()
                },
            ),
            (
                "measurement noise",
                TrackingConfig {
                    measurement_noise: f64::INFINITY,
                    ..config()
                },
            ),
        ];
        for (what, bad) in cases {
            assert!(
                matches!(bad.validate(), Err(SslError::InvalidConfig { .. })),
                "{what} accepted"
            );
            assert!(MultiTargetTracker::new(bad).is_err(), "{what} constructed");
        }
        assert!(config().validate().is_ok());
    }

    #[test]
    fn single_source_confirms_after_m_of_n_and_keeps_its_id() {
        let mut tracker = MultiTargetTracker::new(config()).unwrap();
        for step in 0..10 {
            tracker.update(&[peak(10.0 + step as f64, 1.0)]);
            assert_eq!(tracker.len(), 1, "step {step}");
            let t = tracker.tracks()[0];
            assert_eq!(t.id, TrackId(0), "identity must be stable");
            // 4-of-6 (default): confirmation lands exactly on the fourth update.
            if step < 3 {
                assert_eq!(t.status, TrackStatus::Tentative, "step {step}");
            } else {
                assert_eq!(t.status, TrackStatus::Confirmed, "step {step}");
            }
        }
        let t = tracker.best().unwrap();
        assert!(angular_error_deg(t.azimuth_deg, 19.0) < 3.0);
        assert!(t.rate_deg_per_step > 0.3);
        assert_eq!(t.age, 10);
    }

    #[test]
    fn low_salience_peaks_are_ignored() {
        let mut tracker = MultiTargetTracker::new(config()).unwrap();
        for _ in 0..5 {
            tracker.update(&[peak(50.0, 1.0), peak(-90.0, 0.2)]);
        }
        assert_eq!(tracker.len(), 1, "side-lobe spawned a track");
        assert!(angular_error_deg(tracker.best().unwrap().azimuth_deg, 50.0) < 1.0);
    }

    #[test]
    fn two_sources_get_two_tracks_and_ids_survive_a_bearing_crossing() {
        // Two synthetic sources whose bearings cross at 0 degrees with opposite
        // rates; during the central frames they merge into a single peak.
        let mut tracker = MultiTargetTracker::new(config()).unwrap();
        let mut id_a = None;
        let mut id_b = None;
        for step in 0..40 {
            let a = -40.0 + 2.0 * step as f64; // ascending through 0
            let b = 40.0 - 2.0 * step as f64; // descending through 0
            let mut peaks = Vec::new();
            if angular_error_deg(a, b) >= 18.0 {
                peaks.push(peak(a, 1.0));
                peaks.push(peak(b, 0.9));
            } else {
                // Merged lobe: NMS would emit one peak midway.
                peaks.push(peak((a + b) / 2.0, 1.0));
            }
            tracker.update(&peaks);
            if step == 10 {
                let tracks = tracker.tracks();
                assert_eq!(tracker.confirmed_count(), 2, "both sources confirmed");
                // Record which identity follows which motion (by rate sign).
                for t in tracks {
                    if t.rate_deg_per_step > 0.0 {
                        id_a = Some(t.id);
                    } else {
                        id_b = Some(t.id);
                    }
                }
                assert!(id_a.is_some() && id_b.is_some());
            }
        }
        // After the crossing both tracks are alive, confirmed, and the
        // identities still ride their original motions: no swap.
        let tracks = tracker.tracks();
        assert_eq!(tracker.confirmed_count(), 2, "a track died in the crossing");
        for t in tracks {
            if t.id == id_a.unwrap() {
                assert!(t.rate_deg_per_step > 0.5, "track A reversed: {t:?}");
                assert!(t.azimuth_deg > 10.0, "track A lost its source: {t:?}");
            } else {
                assert_eq!(Some(t.id), id_b);
                assert!(t.rate_deg_per_step < -0.5, "track B reversed: {t:?}");
                assert!(t.azimuth_deg < -10.0, "track B lost its source: {t:?}");
            }
        }
    }

    #[test]
    fn missing_source_coasts_then_dies_after_timeout() {
        let cfg = TrackingConfig {
            coast_frames: 4,
            ..config()
        };
        let mut tracker = MultiTargetTracker::new(cfg).unwrap();
        for step in 0..6 {
            tracker.update(&[peak(-60.0 + step as f64, 1.0)]);
        }
        let id = tracker.best().unwrap().id;
        assert_eq!(tracker.best().unwrap().status, TrackStatus::Confirmed);
        // Source disappears: the track coasts along its ~1 deg/step rate...
        for miss in 1..=4 {
            tracker.update(&[]);
            let t = *tracker.best().unwrap();
            assert_eq!(t.id, id);
            assert_eq!(t.status, TrackStatus::Coasting);
            assert_eq!(t.misses, miss);
            assert!(
                angular_error_deg(t.azimuth_deg, -55.0 + miss as f64) < 3.0,
                "coast {miss}: {t:?}"
            );
        }
        // ...and dies one miss past the coast budget.
        tracker.update(&[]);
        assert!(tracker.is_empty());
        // A returning source founds a NEW identity: ids are never reused.
        tracker.update(&[peak(-50.0, 1.0)]);
        assert_ne!(tracker.best().unwrap().id, id);
    }

    #[test]
    fn coasting_track_reassociates_within_the_gate() {
        let mut tracker = MultiTargetTracker::new(config()).unwrap();
        for step in 0..8 {
            tracker.update(&[peak(2.0 * step as f64, 1.0)]);
        }
        let id = tracker.best().unwrap().id;
        for _ in 0..3 {
            tracker.update(&[]);
        }
        assert_eq!(tracker.best().unwrap().status, TrackStatus::Coasting);
        // The source re-appears where the prediction says it should be.
        tracker.update(&[peak(22.0, 1.0)]);
        let t = tracker.best().unwrap();
        assert_eq!(t.id, id, "re-association spawned a new track");
        assert_eq!(t.status, TrackStatus::Confirmed);
        assert_eq!(t.misses, 0);
    }

    #[test]
    fn tentative_clutter_dies_quickly_and_max_tracks_is_respected() {
        let cfg = TrackingConfig {
            max_tracks: 2,
            ..config()
        };
        let mut tracker = MultiTargetTracker::new(cfg).unwrap();
        // Three simultaneous sources, budget of two tracks.
        for _ in 0..4 {
            tracker.update(&[peak(0.0, 1.0), peak(120.0, 0.9), peak(-120.0, 0.8)]);
        }
        assert_eq!(tracker.len(), 2);
        // One-shot clutter: a blip spawns a tentative track that dies after
        // TENTATIVE_MAX_MISSES frames without ever reporting as confirmed.
        let mut tracker = MultiTargetTracker::new(config()).unwrap();
        for step in 0..6 {
            if step == 2 {
                tracker.update(&[peak(30.0, 1.0), peak(-140.0, 0.9)]);
            } else {
                tracker.update(&[peak(30.0, 1.0)]);
            }
        }
        assert_eq!(tracker.len(), 1, "clutter track survived");
        assert_eq!(tracker.confirmed_count(), 1);
    }

    #[test]
    fn reset_clears_tracks_and_restarts_identities() {
        let mut tracker = MultiTargetTracker::new(config()).unwrap();
        for _ in 0..5 {
            tracker.update(&[peak(10.0, 1.0), peak(90.0, 0.9)]);
        }
        assert_eq!(tracker.len(), 2);
        tracker.reset();
        assert!(tracker.is_empty());
        assert!(tracker.tracks().is_empty());
        tracker.update(&[peak(-30.0, 1.0)]);
        assert_eq!(tracker.best().unwrap().id, TrackId(0), "ids restart at 0");
    }

    #[test]
    fn association_follows_the_nearest_prediction_not_peak_order() {
        let mut tracker = MultiTargetTracker::new(config()).unwrap();
        for _ in 0..5 {
            tracker.update(&[peak(20.0, 1.0), peak(-20.0, 0.9)]);
        }
        let by_rate: Vec<TrackId> = tracker.tracks().iter().map(|t| t.id).collect();
        // Swap the peak order (and the salience ranking): identities must stick
        // to their bearings regardless.
        for _ in 0..5 {
            tracker.update(&[peak(-20.0, 1.0), peak(20.0, 0.9)]);
        }
        for t in tracker.tracks() {
            if t.azimuth_deg > 0.0 {
                assert_eq!(t.id, by_rate[0]);
            } else {
                assert_eq!(t.id, by_rate[1]);
            }
        }
    }

    #[test]
    fn track_id_displays_and_snapshot_flags() {
        assert_eq!(TrackId(3).to_string(), "#3");
        assert_eq!(TrackId(3).raw(), 3);
        let snap = TrackSnapshot {
            status: TrackStatus::Coasting,
            ..TrackSnapshot::default()
        };
        assert!(snap.is_confirmed());
        assert!(!TrackSnapshot::default().is_confirmed());
    }
}
