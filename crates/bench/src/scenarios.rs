//! A gallery of named, scored road scenes — the scenario evaluation harness.
//!
//! Each [`Scenario`] bundles a multi-source [`Scene`] (event emitters, traffic
//! maskers, transients — each on its own trajectory) with its ground truth: a
//! timeline of [`LabeledInterval`]s for detection scoring and the trajectories of
//! the event-emitting sources for DoA scoring. [`evaluate`] renders the scene,
//! pushes the audio through a full perception [`Session`] and scores the emitted
//! events with `ispot_sed::metrics` (frame-level event F1) and
//! `ispot_ssl::metrics` (nearest-truth tracked-DoA error).
//!
//! The stock scenes ([`all`]) mirror the conditions stressed by the I-SPOT paper
//! and the acoustic traffic-perception literature: a siren pass-by amid traffic,
//! crossing vehicles, an approaching emergency vehicle behind a masker, a
//! stationary array at an intersection, a far-field siren at low SNR, and a
//! park-mode door-slam transient between idling engines.
//!
//! ```
//! use ispot_bench::scenarios;
//!
//! let scenario = scenarios::siren_pass_by_in_traffic(16_000.0, 1.0);
//! assert_eq!(scenario.name, "siren-pass-by-traffic");
//! assert!(scenario.scene.sources.len() >= 3);
//! let report = scenarios::evaluate(&scenario).unwrap();
//! assert!(report.num_frames > 0);
//! ```

use ispot_core::prelude::*;
use ispot_roadsim::engine::Simulator;
use ispot_roadsim::geometry::Position;
use ispot_roadsim::microphone::MicrophoneArray;
use ispot_roadsim::scene::{Scene, SceneBuilder};
use ispot_roadsim::source::SoundSource;
use ispot_roadsim::trajectory::Trajectory;
use ispot_sed::labels::{frame_labels, LabeledInterval};
use ispot_sed::metrics::ClassificationReport;
use ispot_sed::noise::UrbanNoiseSynthesizer;
use ispot_sed::sirens::{CarHornSynthesizer, SirenKind, SirenSynthesizer};
use ispot_sed::EventClass;
use ispot_ssl::metrics::{ospa_deg, MultiSourceDoaScore, TrackIdentityScore};
use ispot_ssl::multitrack::TrackId;
use std::collections::BTreeSet;
use std::time::Instant;

/// Analysis frame length used by the harness (matches the pipeline default).
pub const FRAME_LEN: usize = 2048;
/// Analysis hop used by the harness.
pub const HOP: usize = 1024;

/// Ground truth for one event-emitting source: where it is (for bearing truth) and
/// when it is audible.
#[derive(Debug, Clone)]
pub struct DoaTruth {
    /// The source trajectory, parameterized by scene time.
    pub trajectory: Trajectory,
    /// Time the source becomes audible, seconds.
    pub start_s: f64,
    /// Time the source stops being audible, seconds.
    pub end_s: f64,
}

/// A named road scene plus its ground truth, ready for [`evaluate`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable kebab-case identifier (used in reports and the scenario gallery).
    pub name: &'static str,
    /// One-line description of the traffic situation.
    pub description: &'static str,
    /// Operating mode the session is evaluated in.
    pub mode: OperatingMode,
    /// The renderable scene.
    pub scene: Scene,
    /// The receiving array (same geometry the scene was built with).
    pub array: MicrophoneArray,
    /// Ground-truth detection timeline.
    pub timeline: Vec<LabeledInterval>,
    /// Ground-truth bearings of the event-emitting sources.
    pub doa_truth: Vec<DoaTruth>,
}

/// Per-scenario evaluation results: frame-level detection quality and
/// nearest-truth DoA error of the tracked events.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario identifier.
    pub name: &'static str,
    /// Frames pushed through the session.
    pub num_frames: usize,
    /// Events emitted by the session.
    pub num_events: usize,
    /// Frame-level binary event F1 (any siren/horn class vs background).
    pub event_f1: f64,
    /// Frame-level binary event precision.
    pub event_precision: f64,
    /// Frame-level binary event recall.
    pub event_recall: f64,
    /// Mean nearest-truth error of the tracked azimuth over scored events
    /// (degrees); `None` when no event carried a bearing while a truth was active.
    pub mean_doa_error_deg: Option<f64>,
    /// Number of events scored for DoA.
    pub doa_scored: usize,
    /// Fraction of frames on which the full analysis ran (trigger duty cycle in
    /// park mode, 1.0 in drive mode).
    pub duty_cycle: f64,
    /// Distinct confirmed track identities observed across the scene.
    pub confirmed_tracks: usize,
    /// Identity swaps: frames where a confirmed track's optimally assigned
    /// truth changed (with hysteresis, so truth-bearing crossings alone do not
    /// count).
    pub identity_swaps: usize,
    /// Mean bearing error of confirmed tracks against their **assigned** truth
    /// (optimal 1:1 assignment per frame), degrees.
    pub mean_track_error_deg: Option<f64>,
    /// Largest per-track mean bearing error, degrees — every track must stay on
    /// its own vehicle, not just the best one.
    pub worst_track_error_deg: Option<f64>,
    /// Mean OSPA (localization + cardinality) error of the confirmed track set
    /// against the active truth set, degrees, cutoff [`OSPA_CUTOFF_DEG`].
    pub mean_ospa_deg: Option<f64>,
    /// Mean end-to-end processing latency per frame, milliseconds (host).
    pub mean_frame_latency_ms: f64,
}

/// OSPA cutoff used by [`evaluate`]: bearing errors beyond this (and every
/// missing/spurious track) are charged this many degrees.
pub const OSPA_CUTOFF_DEG: f64 = 30.0;

/// Assignment hysteresis used by [`evaluate`]'s identity scoring: a track keeps
/// its standing truth unless an alternative is closer by more than this.
pub const IDENTITY_HYSTERESIS_DEG: f64 = 10.0;

impl ScenarioReport {
    /// Formats the report as one row of the scenario table.
    pub fn table_row(&self) -> String {
        let fmt_opt = |v: Option<f64>, width: usize| match v {
            Some(e) => format!("{e:>width$.1}"),
            None => format!("{:>width$}", "-"),
        };
        format!(
            "{:<26} {:>6} {:>7} {:>6.3} {:>6.3} {:>6.3} {} {:>6} {:>4} {:>5} {} {} {:>8.3} {:>5.2}",
            self.name,
            self.num_frames,
            self.num_events,
            self.event_f1,
            self.event_precision,
            self.event_recall,
            fmt_opt(self.mean_doa_error_deg, 8),
            self.doa_scored,
            self.confirmed_tracks,
            self.identity_swaps,
            fmt_opt(self.mean_track_error_deg, 7),
            fmt_opt(self.mean_ospa_deg, 7),
            self.mean_frame_latency_ms,
            self.duty_cycle,
        )
    }

    /// Header matching [`table_row`](Self::table_row).
    pub fn table_header() -> String {
        format!(
            "{:<26} {:>6} {:>7} {:>6} {:>6} {:>6} {:>8} {:>6} {:>4} {:>5} {:>7} {:>7} {:>8} {:>5}",
            "scenario",
            "frames",
            "events",
            "F1",
            "prec",
            "recall",
            "DoA(dg)",
            "scored",
            "trk",
            "swaps",
            "trkerr",
            "ospa",
            "ms/frm",
            "duty"
        )
    }

    /// Serializes the report as one JSON object (hand-rolled: the workspace
    /// carries no JSON dependency). Used by `exp_scenarios --json` to write the
    /// machine-readable `BENCH_scenarios.json` quality/perf artifact.
    pub fn json_object(&self, description: &str) -> String {
        let num = |v: Option<f64>| match v {
            Some(e) if e.is_finite() => format!("{e:.4}"),
            _ => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"name\":\"{}\",\"description\":\"{}\",\"frames\":{},\"events\":{},",
                "\"event_f1\":{:.4},\"event_precision\":{:.4},\"event_recall\":{:.4},",
                "\"mean_doa_error_deg\":{},\"doa_scored\":{},\"duty_cycle\":{:.4},",
                "\"confirmed_tracks\":{},\"identity_swaps\":{},",
                "\"mean_track_error_deg\":{},\"worst_track_error_deg\":{},",
                "\"mean_ospa_deg\":{},\"mean_frame_latency_ms\":{:.4}}}"
            ),
            self.name,
            description.replace('"', "'"),
            self.num_frames,
            self.num_events,
            self.event_f1,
            self.event_precision,
            self.event_recall,
            num(self.mean_doa_error_deg),
            self.doa_scored,
            self.duty_cycle,
            self.confirmed_tracks,
            self.identity_swaps,
            num(self.mean_track_error_deg),
            num(self.worst_track_error_deg),
            num(self.mean_ospa_deg),
            self.mean_frame_latency_ms,
        )
    }

    /// Formats the report as one row of a Markdown table (for the scenario
    /// gallery in `ARCHITECTURE.md`).
    pub fn markdown_row(&self, description: &str) -> String {
        let fmt_opt = |v: Option<f64>| match v {
            Some(e) => format!("{e:.1}"),
            None => "–".to_string(),
        };
        format!(
            "| `{}` | {} | {:.3} | {:.3} / {:.3} | {} | {} / {} | {} | {:.2} |",
            self.name,
            description,
            self.event_f1,
            self.event_precision,
            self.event_recall,
            fmt_opt(self.mean_doa_error_deg),
            self.confirmed_tracks,
            self.identity_swaps,
            fmt_opt(self.mean_track_error_deg),
            self.duty_cycle,
        )
    }
}

/// The roof array shared by every scenario: six microphones on an **irregular**
/// hexagon (jittered angles and radii, ~0.2 m aperture) at 1 m height.
///
/// A regular circular array is invariant under reflection about its symmetry
/// axes, so the SRP map of a source at `+θ` carries a strong mirror lobe near
/// `−θ`; with several concurrent sources those persistent phantoms confirm as
/// spurious tracks. Jittering the geometry breaks the symmetry and removes the
/// mirror lobes — the irregular layout measurably cleans the multi-target
/// picture in the crossing-vehicles scene while leaving single-source scenes
/// as accurate as the regular hexagon.
fn roof_array() -> MicrophoneArray {
    MicrophoneArray::irregular_hexagon(Position::new(0.0, 0.0, 1.0))
}

fn urban(fs: f64, seed: u64, duration_s: f64) -> Vec<f64> {
    UrbanNoiseSynthesizer::new(fs, seed).synthesize(duration_s)
}

fn engine_idle(fs: f64, seed: u64, duration_s: f64) -> Vec<f64> {
    UrbanNoiseSynthesizer::new(fs, seed)
        .with_levels(1.6, 0.15, 0.1)
        .synthesize(duration_s)
}

/// Scene 1 — a yelp siren drives past the array amid two traffic maskers
/// (an oncoming vehicle on the opposite lane and a parked idler). `duration_s`
/// scales the pass length; 4.0 s is the paper-style full pass.
pub fn siren_pass_by_in_traffic(fs: f64, duration_s: f64) -> Scenario {
    let array = roof_array();
    let half = 7.5 * duration_s; // 15 m/s pass centred on the array
    let siren_traj = Trajectory::linear(
        Position::new(-half, 6.0, 1.0),
        Position::new(half, 6.0, 1.0),
        15.0,
    );
    let siren = SirenSynthesizer::new(SirenKind::Yelp, fs).synthesize(duration_s);
    let oncoming = SoundSource::new(
        urban(fs, 11, duration_s),
        Trajectory::linear(
            Position::new(half, -8.0, 1.0),
            Position::new(-half, -8.0, 1.0),
            12.0,
        ),
    )
    .with_gain(0.18);
    let idler = SoundSource::new(
        engine_idle(fs, 23, duration_s),
        Trajectory::fixed(Position::new(12.0, -10.0, 0.8)),
    )
    .with_gain(0.12);
    let scene = SceneBuilder::new(fs)
        .source(SoundSource::new(siren, siren_traj.clone()).with_gain(3.0))
        .source(oncoming)
        .source(idler)
        .array(array.clone())
        .reflection(true)
        .air_absorption(false)
        .filter_taps(33)
        .build()
        .expect("valid pass-by scene");
    Scenario {
        name: "siren-pass-by-traffic",
        description: "yelp siren passes the array between two traffic maskers",
        mode: OperatingMode::Drive,
        scene,
        array,
        timeline: vec![LabeledInterval::new(EventClass::YelpSiren, 0.0, duration_s)],
        doa_truth: vec![DoaTruth {
            trajectory: siren_traj,
            start_s: 0.0,
            end_s: duration_s,
        }],
    }
}

/// Scene 2 — two emergency vehicles on perpendicular roads cross in front of
/// the array: a wail siren travelling along x and a yelp ambulance travelling
/// along y, plus a quiet broadband traffic masker. Their bearings sweep towards
/// each other and cross near the end of the scene — the identity-preservation
/// stress case for the multi-target tracker (two confirmed tracks, no swap).
pub fn crossing_vehicles(fs: f64) -> Scenario {
    let duration_s = 4.0;
    let array = roof_array();
    let siren_traj = Trajectory::linear(
        Position::new(-28.0, 8.0, 1.0),
        Position::new(28.0, 8.0, 1.0),
        14.0,
    );
    let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(duration_s);
    let crosser_traj = Trajectory::linear(
        Position::new(15.0, -16.0, 1.0),
        Position::new(15.0, 16.0, 1.0),
        8.0,
    );
    let crosser = SoundSource::new(
        SirenSynthesizer::new(SirenKind::Yelp, fs).synthesize(duration_s),
        crosser_traj.clone(),
    )
    .with_gain(1.5);
    let traffic = SoundSource::new(
        urban(fs, 31, duration_s),
        Trajectory::fixed(Position::new(-10.0, -14.0, 0.8)),
    )
    .with_gain(0.1);
    let scene = SceneBuilder::new(fs)
        .source(SoundSource::new(siren, siren_traj.clone()).with_gain(3.0))
        .source(crosser)
        .source(traffic)
        .array(array.clone())
        .reflection(true)
        .air_absorption(false)
        .filter_taps(33)
        .build()
        .expect("valid crossing scene");
    Scenario {
        name: "crossing-vehicles",
        description: "wail siren and a yelp ambulance cross on perpendicular roads",
        mode: OperatingMode::Drive,
        scene,
        array,
        timeline: vec![
            LabeledInterval::new(EventClass::WailSiren, 0.0, duration_s),
            LabeledInterval::new(EventClass::YelpSiren, 0.0, duration_s),
        ],
        doa_truth: vec![
            DoaTruth {
                trajectory: siren_traj,
                start_s: 0.0,
                end_s: duration_s,
            },
            // The crossing ambulance is a first-class source: identity-aware
            // scoring demands a second stable track on it, not merely a
            // nearest-truth match.
            DoaTruth {
                trajectory: crosser_traj,
                start_s: 0.0,
                end_s: duration_s,
            },
        ],
    }
}

/// Scene 3 — an emergency vehicle approaches head-on from far behind a nearby
/// masker — a second siren blaring at an incident scene (a yelp, as services
/// use at a standstill); the approaching wail emerges from behind it
/// as it closes in. Identity-wise the tracker must hold one track on the
/// stationary masker and a second on the approaching vehicle, without swapping.
pub fn approaching_behind_masker(fs: f64) -> Scenario {
    let duration_s = 4.0;
    let array = roof_array();
    let siren_traj = Trajectory::linear(
        Position::new(-70.0, 2.0, 1.0),
        Position::new(-10.0, 2.0, 1.0),
        15.0,
    );
    let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(duration_s);
    let masker_pos = Trajectory::fixed(Position::new(5.0, -3.0, 0.7));
    let masker = SoundSource::new(
        SirenSynthesizer::new(SirenKind::Yelp, fs).synthesize(duration_s),
        masker_pos.clone(),
    )
    .with_gain(0.6);
    let idle = SoundSource::new(
        engine_idle(fs, 41, duration_s),
        Trajectory::fixed(Position::new(6.0, -2.5, 0.7)),
    )
    .with_gain(0.2);
    let scene = SceneBuilder::new(fs)
        .source(SoundSource::new(siren, siren_traj.clone()).with_gain(4.0))
        .source(masker)
        .source(idle)
        .array(array.clone())
        .reflection(true)
        .air_absorption(true)
        .filter_taps(33)
        .build()
        .expect("valid approach scene");
    Scenario {
        name: "approaching-behind-masker",
        description: "wail siren approaches head-on from 70 m behind a stationary siren masker",
        mode: OperatingMode::Drive,
        scene,
        array,
        timeline: vec![
            LabeledInterval::new(EventClass::WailSiren, 0.0, duration_s),
            LabeledInterval::new(EventClass::YelpSiren, 0.0, duration_s),
        ],
        doa_truth: vec![
            DoaTruth {
                trajectory: siren_traj,
                start_s: 0.0,
                end_s: duration_s,
            },
            DoaTruth {
                trajectory: masker_pos,
                start_s: 0.0,
                end_s: duration_s,
            },
        ],
    }
}

/// Scene 4 — the car waits at an intersection while a hi-low siren crosses on the
/// perpendicular road amid two further traffic sources.
pub fn intersection_wait(fs: f64) -> Scenario {
    let duration_s = 4.0;
    let array = roof_array();
    let siren_traj = Trajectory::linear(
        Position::new(-36.0, 12.0, 1.0),
        Position::new(36.0, 12.0, 1.0),
        18.0,
    );
    let siren = SirenSynthesizer::new(SirenKind::HiLow, fs).synthesize(duration_s);
    let crosser_traj = Trajectory::linear(
        Position::new(12.0, -22.0, 1.0),
        Position::new(12.0, 22.0, 1.0),
        10.0,
    );
    // Tyre-hiss-forward mix so the crossing vehicle is spatially visible to
    // the tracker, not just an energy masker.
    let crosser_signal = UrbanNoiseSynthesizer::new(fs, 53)
        .with_levels(0.6, 1.0, 0.1)
        .synthesize(duration_s);
    let crosser = SoundSource::new(crosser_signal, crosser_traj.clone()).with_gain(0.25);
    let idler = SoundSource::new(
        engine_idle(fs, 59, duration_s),
        Trajectory::fixed(Position::new(-8.0, -5.0, 0.8)),
    )
    .with_gain(0.12);
    let scene = SceneBuilder::new(fs)
        .source(SoundSource::new(siren, siren_traj.clone()).with_gain(3.0))
        .source(crosser)
        .source(idler)
        .array(array.clone())
        .reflection(true)
        .air_absorption(false)
        .filter_taps(33)
        .build()
        .expect("valid intersection scene");
    Scenario {
        name: "intersection-wait",
        description: "stationary array; hi-low siren crosses amid two traffic sources",
        mode: OperatingMode::Drive,
        scene,
        array,
        timeline: vec![LabeledInterval::new(
            EventClass::HiLowSiren,
            0.0,
            duration_s,
        )],
        doa_truth: vec![
            DoaTruth {
                trajectory: siren_traj,
                start_s: 0.0,
                end_s: duration_s,
            },
            DoaTruth {
                trajectory: crosser_traj,
                start_s: 0.0,
                end_s: duration_s,
            },
        ],
    }
}

/// Scene 5 — a far-field wail siren (130 m) under a nearby broadband masker:
/// the low-SNR stress case. Detection is expected to degrade here; the scenario
/// exists to chart that edge, not to pass a threshold.
pub fn far_field_low_snr(fs: f64) -> Scenario {
    let duration_s = 3.0;
    let array = roof_array();
    let siren_traj = Trajectory::linear(
        Position::new(120.0, 50.0, 1.5),
        Position::new(110.0, 40.0, 1.5),
        4.0,
    );
    let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(duration_s);
    let masker = SoundSource::new(
        urban(fs, 61, duration_s),
        Trajectory::fixed(Position::new(7.0, -5.0, 0.8)),
    )
    .with_gain(0.35);
    let scene = SceneBuilder::new(fs)
        .source(SoundSource::new(siren, siren_traj.clone()).with_gain(3.0))
        .source(masker)
        .array(array.clone())
        .reflection(true)
        .air_absorption(true)
        .filter_taps(33)
        .build()
        .expect("valid far-field scene");
    Scenario {
        name: "far-field-low-snr",
        description: "wail siren at 130 m under a nearby masker (low-SNR stress case)",
        mode: OperatingMode::Drive,
        scene,
        array,
        timeline: vec![LabeledInterval::new(EventClass::WailSiren, 0.0, duration_s)],
        doa_truth: vec![DoaTruth {
            trajectory: siren_traj,
            start_s: 0.0,
            end_s: duration_s,
        }],
    }
}

/// Scene 6 — park mode: two idling engines flank the parked car; a door-slam-like
/// transient (a short horn blast) fires mid-scene. The energy trigger must wake
/// the pipeline for the transient while gating the idle stretches.
pub fn park_door_slam(fs: f64) -> Scenario {
    let duration_s = 4.0;
    let array = roof_array();
    let slam_start = 2.0;
    let slam_len = 0.4;
    let slam_pos = Trajectory::fixed(Position::new(6.0, -2.0, 1.0));
    let slam = CarHornSynthesizer::new(fs).synthesize(slam_len);
    let idler_a = SoundSource::new(
        engine_idle(fs, 71, duration_s),
        Trajectory::fixed(Position::new(4.0, 2.5, 0.6)),
    )
    .with_gain(0.06);
    let idler_b = SoundSource::new(
        engine_idle(fs, 73, duration_s),
        Trajectory::fixed(Position::new(-5.0, -3.0, 0.6)),
    )
    .with_gain(0.06);
    let scene = SceneBuilder::new(fs)
        .source(
            SoundSource::new(slam, slam_pos.clone())
                .with_start(slam_start)
                .with_gain(2.5),
        )
        .source(idler_a)
        .source(idler_b)
        .array(array.clone())
        .reflection(true)
        .air_absorption(false)
        .filter_taps(33)
        .build()
        .expect("valid park scene");
    Scenario {
        name: "park-door-slam",
        description: "park mode: door-slam transient between two idling engines",
        mode: OperatingMode::Park,
        scene,
        array,
        timeline: vec![LabeledInterval::new(
            EventClass::CarHorn,
            slam_start,
            slam_start + slam_len,
        )],
        doa_truth: vec![DoaTruth {
            trajectory: slam_pos,
            start_s: slam_start,
            end_s: slam_start + slam_len,
        }],
    }
}

/// All stock scenarios at their paper-style durations.
pub fn all(fs: f64) -> Vec<Scenario> {
    vec![
        siren_pass_by_in_traffic(fs, 4.0),
        crossing_vehicles(fs),
        approaching_behind_masker(fs),
        intersection_wait(fs),
        far_field_low_snr(fs),
        park_door_slam(fs),
    ]
}

/// Pipeline overrides for scoring a scene outside the stock configuration.
///
/// The scenario matrix's inverted CI check scores a deliberately broken
/// configuration (a near-1.0 confidence threshold that suppresses every
/// detection) to prove the aggregate gate actually fails when quality
/// collapses.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalOptions {
    /// Overrides the engine's minimum detector confidence when set.
    pub confidence_threshold: Option<f64>,
}

/// Raw numeric scores of one scored scene — everything in [`ScenarioReport`]
/// except the identity fields, plus the false-alarm rate needed by no-event
/// scenes (where F1 is undefined because no positive frames exist).
#[derive(Debug, Clone)]
pub struct EvalScores {
    /// Frames pushed through the session.
    pub num_frames: usize,
    /// Events emitted by the session.
    pub num_events: usize,
    /// Frame-level binary event F1.
    pub event_f1: f64,
    /// Frame-level binary event precision.
    pub event_precision: f64,
    /// Frame-level binary event recall.
    pub event_recall: f64,
    /// Fraction of background-truth frames predicted as an event.
    pub false_alarm_rate: f64,
    /// Mean nearest-truth error of the tracked azimuth (degrees).
    pub mean_doa_error_deg: Option<f64>,
    /// Number of events scored for DoA.
    pub doa_scored: usize,
    /// Analysis duty cycle over the scene.
    pub duty_cycle: f64,
    /// Distinct confirmed track identities.
    pub confirmed_tracks: usize,
    /// Identity swaps.
    pub identity_swaps: usize,
    /// Mean assigned-truth bearing error of confirmed tracks, degrees.
    pub mean_track_error_deg: Option<f64>,
    /// Largest per-track mean bearing error, degrees.
    pub worst_track_error_deg: Option<f64>,
    /// Mean OSPA error, degrees, cutoff [`OSPA_CUTOFF_DEG`].
    pub mean_ospa_deg: Option<f64>,
    /// Mean end-to-end processing latency per frame, milliseconds (host):
    /// the wall time of the whole recording pass — framing, mixdown, every
    /// stage and event delivery — divided by the frame count.
    pub mean_frame_latency_ms: f64,
}

/// Renders a scene, runs a full perception session over the audio and scores
/// the emitted events against the given ground truth — the scoring core shared
/// by [`evaluate`] (the 6-scene gallery) and the procedural scenario matrix.
///
/// The session runs with `array` and `mode` at [`FRAME_LEN`]/[`HOP`]. Three
/// scoring layers:
///
/// * **detection** — frame-by-frame event-vs-background
///   (`ClassificationReport`), plus the false-alarm rate over
///   background-truth frames (the only defined detection number for no-event
///   scenes);
/// * **legacy DoA** — the best tracked bearing of every event against the
///   nearest simultaneously active source (`MultiSourceDoaScore`), kept for
///   continuity with the single-track harness;
/// * **identity-aware tracking** — every event's confirmed track set is
///   optimally assigned to the active truth set (`TrackIdentityScore`, with
///   [`IDENTITY_HYSTERESIS_DEG`]) for per-track error and swap counting, and
///   scored as a set with OSPA ([`OSPA_CUTOFF_DEG`]) so missing and spurious
///   tracks are charged too.
///
/// # Errors
///
/// Propagates simulation, pipeline-construction and metric errors.
pub fn evaluate_scene(
    scene: &Scene,
    array: &MicrophoneArray,
    mode: OperatingMode,
    timeline: &[LabeledInterval],
    doa_truth: &[DoaTruth],
    options: EvalOptions,
) -> Result<EvalScores, Box<dyn std::error::Error>> {
    let fs = scene.sample_rate;
    let audio = Simulator::new(scene.clone())?.run()?;
    let mut builder = PipelineBuilder::new(fs)
        .array(array)
        .frame_len(FRAME_LEN)
        .hop(HOP)
        .mode(mode);
    if let Some(threshold) = options.confidence_threshold {
        builder = builder.confidence_threshold(threshold);
    }
    let engine = builder.build_engine()?;
    let mut session = engine.open_session();
    let mut sink = VecSink::new();
    let started = Instant::now();
    let num_frames = session.process_recording_with(&audio, &mut sink)?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    // Frame-level detection scoring: frames without an event are background.
    let mut predictions = vec![EventClass::Background; num_frames];
    for event in sink.events() {
        if event.frame_index < num_frames {
            predictions[event.frame_index] = event.class;
        }
    }
    let truth = frame_labels(timeline, num_frames, FRAME_LEN, HOP, fs);
    let report = ClassificationReport::from_predictions(&truth, &predictions)?;
    let (mut background_frames, mut false_alarms) = (0usize, 0usize);
    for (t, p) in truth.iter().zip(&predictions) {
        if *t == EventClass::Background {
            background_frames += 1;
            if *p != EventClass::Background {
                false_alarms += 1;
            }
        }
    }
    let false_alarm_rate = if background_frames > 0 {
        false_alarms as f64 / background_frames as f64
    } else {
        0.0
    };

    // Bearing truths at a given moment, one slot per `doa_truth` entry in
    // stable order: a momentarily inactive source is NaN, not dropped, so the
    // identity scorer's assignments stay keyed to the same vehicle throughout
    // (the metric helpers all skip non-finite bearings).
    let origin = array.centroid();
    let truths_at = |time_s: f64| -> Vec<f64> {
        doa_truth
            .iter()
            .map(|t| {
                if t.start_s <= time_s && time_s <= t.end_s {
                    t.trajectory
                        .position_at(time_s)
                        .azimuth_from(origin)
                        .to_degrees()
                } else {
                    f64::NAN
                }
            })
            .collect()
    };

    // Legacy DoA scoring plus the identity-aware layer.
    let mut doa = MultiSourceDoaScore::new();
    let mut identity = TrackIdentityScore::with_hysteresis(IDENTITY_HYSTERESIS_DEG);
    let mut confirmed_ids = BTreeSet::new();
    let mut frame_tracks: Vec<(TrackId, f64)> = Vec::new();
    let mut ospa_sum = 0.0;
    let mut ospa_count = 0usize;
    for event in sink.events() {
        let truths = truths_at(event.time_s);
        if let Some(estimate) = event.tracked_azimuth_deg.or(event.azimuth_deg) {
            doa.add(estimate, &truths);
        }
        frame_tracks.clear();
        for track in event.tracks.confirmed() {
            confirmed_ids.insert(track.id);
            frame_tracks.push((track.id, track.azimuth_deg));
        }
        identity.observe_frame(&frame_tracks, &truths);
        if truths.iter().any(|t| t.is_finite()) {
            let bearings: Vec<f64> = frame_tracks.iter().map(|(_, az)| *az).collect();
            ospa_sum += ospa_deg(&bearings, &truths, OSPA_CUTOFF_DEG);
            ospa_count += 1;
        }
    }

    Ok(EvalScores {
        num_frames,
        num_events: sink.events().len(),
        event_f1: report.event_f1(),
        event_precision: report.event_precision(),
        event_recall: report.event_recall(),
        false_alarm_rate,
        mean_doa_error_deg: doa.mean_error_deg(),
        doa_scored: doa.count(),
        duty_cycle: session.analysis_duty_cycle(),
        confirmed_tracks: confirmed_ids.len(),
        identity_swaps: identity.swap_count(),
        mean_track_error_deg: identity.mean_error_deg(),
        worst_track_error_deg: identity.worst_track_mean_error_deg(),
        mean_ospa_deg: (ospa_count > 0).then(|| ospa_sum / ospa_count as f64),
        mean_frame_latency_ms: if num_frames == 0 {
            0.0
        } else {
            elapsed_ms / num_frames as f64
        },
    })
}

/// Renders a scenario, runs a full perception session over the audio and scores
/// the emitted events against the scenario's ground truth — see
/// [`evaluate_scene`] for the scoring layers.
///
/// # Errors
///
/// Propagates simulation, pipeline-construction and metric errors.
pub fn evaluate(scenario: &Scenario) -> Result<ScenarioReport, Box<dyn std::error::Error>> {
    let scores = evaluate_scene(
        &scenario.scene,
        &scenario.array,
        scenario.mode,
        &scenario.timeline,
        &scenario.doa_truth,
        EvalOptions::default(),
    )?;
    Ok(ScenarioReport {
        name: scenario.name,
        num_frames: scores.num_frames,
        num_events: scores.num_events,
        event_f1: scores.event_f1,
        event_precision: scores.event_precision,
        event_recall: scores.event_recall,
        mean_doa_error_deg: scores.mean_doa_error_deg,
        doa_scored: scores.doa_scored,
        duty_cycle: scores.duty_cycle,
        confirmed_tracks: scores.confirmed_tracks,
        identity_swaps: scores.identity_swaps,
        mean_track_error_deg: scores.mean_track_error_deg,
        worst_track_error_deg: scores.worst_track_error_deg,
        mean_ospa_deg: scores.mean_ospa_deg,
        mean_frame_latency_ms: scores.mean_frame_latency_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_scenarios_are_well_formed() {
        let scenarios = all(16_000.0);
        assert!(scenarios.len() >= 6);
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            scenarios.len(),
            "scenario names must be unique"
        );
        for s in &scenarios {
            assert!(
                s.scene.sources.len() >= 2,
                "{}: multi-source scenes only",
                s.name
            );
            assert!(!s.timeline.is_empty(), "{}: timeline required", s.name);
            assert!(!s.doa_truth.is_empty(), "{}: DoA truth required", s.name);
            assert!(s.scene.duration_samples() > 0);
            // Every scene is renderable (trajectories above the road etc.).
            Simulator::new(s.scene.clone()).expect(s.name);
        }
    }
}
