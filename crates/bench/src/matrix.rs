//! Procedural scenario matrix: seeded scene generation and aggregate scoring.
//!
//! Where [`crate::scenarios`] curates six hand-built scenes, this module
//! *samples* the scene space: source types × trajectories × environmental
//! maskers × SNR × array pose, organised into six [`Regime`]s (clean, masked,
//! street canyon, occluded, low-SNR, no-event). Generation is driven entirely
//! by a single `u64` seed through the vendored [`rand`] stand-in — the same
//! seed always produces the bit-identical scene list, and because the renderer
//! is bit-exact the same seed produces the bit-identical multichannel audio,
//! which the matrix tests pin.
//!
//! [`evaluate_matrix`] scores every generated scene with the shared
//! [`evaluate_scene`] core (frame F1, false-alarm rate, identity-aware
//! tracking, OSPA) and aggregates the population into per-regime
//! distributions (mean / median / 10th-percentile F1), a worst-k scene list
//! and two headline numbers gated in CI by [`MatrixGate`]. The aggregate JSON
//! ([`MatrixReport::to_json`], written as `BENCH_matrix.json` by
//! `exp_matrix`) deliberately excludes wall-clock latency so the artifact is
//! byte-identical across runs of the same seed.
//!
//! ```
//! use ispot_bench::matrix::{generate, MatrixConfig};
//!
//! let cfg = MatrixConfig { num_scenes: 6, duration_s: 0.25, ..MatrixConfig::smoke() };
//! let a = generate(&cfg).unwrap();
//! let b = generate(&cfg).unwrap();
//! assert_eq!(a.len(), 6);
//! assert_eq!(format!("{:?}", a[0].scene), format!("{:?}", b[0].scene));
//! ```

use crate::scenarios::{evaluate_scene, DoaTruth, EvalOptions, EvalScores};
use ispot_core::prelude::OperatingMode;
use ispot_roadsim::ambience::{AmbienceKind, AmbienceSynthesizer};
use ispot_roadsim::environment::{Occluder, StreetCanyon};
use ispot_roadsim::error::RoadSimError;
use ispot_roadsim::geometry::Position;
use ispot_roadsim::microphone::MicrophoneArray;
use ispot_roadsim::scene::{Scene, SceneBuilder};
use ispot_roadsim::source::SoundSource;
use ispot_roadsim::trajectory::Trajectory;
use ispot_sed::labels::LabeledInterval;
use ispot_sed::sirens::{CarHornSynthesizer, SirenKind, SirenSynthesizer};
use ispot_sed::EventClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The condition families the matrix stratifies over, assigned round-robin so
/// every run covers all of them evenly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Event source over a quiet ambience bed — the easy reference stratum.
    Clean,
    /// Event source competing with a loud environmental masker (wind, rain or
    /// road noise) at a random bearing.
    Masked,
    /// Event and maskers inside a street canyon: two first-order wall
    /// reflections per source–mic pair join the direct and road paths.
    Canyon,
    /// Event approaches from behind an acoustic screen and emerges around its
    /// edge mid-scene.
    Occluded,
    /// Far-field event (60–120 m) under a nearby masker.
    LowSnr,
    /// Ambience and traffic only — scored on false alarms, not F1.
    NoEvent,
}

impl Regime {
    /// All regimes in round-robin order.
    pub const ALL: [Regime; 6] = [
        Regime::Clean,
        Regime::Masked,
        Regime::Canyon,
        Regime::Occluded,
        Regime::LowSnr,
        Regime::NoEvent,
    ];

    /// Stable kebab-case label used in scene names and the JSON artifact.
    pub fn label(&self) -> &'static str {
        match self {
            Regime::Clean => "clean",
            Regime::Masked => "masked",
            Regime::Canyon => "canyon",
            Regime::Occluded => "occluded",
            Regime::LowSnr => "low-snr",
            Regime::NoEvent => "no-event",
        }
    }

    /// Index into [`Regime::ALL`].
    pub fn index(&self) -> usize {
        match self {
            Regime::Clean => 0,
            Regime::Masked => 1,
            Regime::Canyon => 2,
            Regime::Occluded => 3,
            Regime::LowSnr => 4,
            Regime::NoEvent => 5,
        }
    }

    /// Whether scenes of this regime carry an event (and hence an F1 score).
    pub fn has_event(&self) -> bool {
        !matches!(self, Regime::NoEvent)
    }
}

/// Parameters of one matrix run. Everything that affects the generated scenes
/// lives here; two runs with equal configs are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixConfig {
    /// Master seed; each scene derives its own seed from this stream.
    pub seed: u64,
    /// Number of scenes to generate (regimes assigned round-robin).
    pub num_scenes: usize,
    /// Render sampling rate, Hz.
    pub sample_rate: f64,
    /// Duration of every scene, seconds.
    pub duration_s: f64,
}

impl MatrixConfig {
    /// The full CI population: 120 scenes (20 per regime) of 2 s at 16 kHz.
    pub fn full() -> Self {
        MatrixConfig {
            seed: 0x1507_2023,
            num_scenes: 120,
            sample_rate: 16_000.0,
            duration_s: 2.0,
        }
    }

    /// The smoke population: 18 scenes (3 per regime), same seed and scene
    /// parameters as [`full`](Self::full) — a prefix-like quick pass for CI.
    pub fn smoke() -> Self {
        MatrixConfig {
            num_scenes: 18,
            ..Self::full()
        }
    }
}

/// One generated scene with its ground truth, ready for [`evaluate_scene`].
#[derive(Debug, Clone)]
pub struct GeneratedScenario {
    /// Stable name: `m{index:03}-{regime}-{event|ambience}`.
    pub name: String,
    /// The condition family this scene was sampled for.
    pub regime: Regime,
    /// The per-scene seed (derived from the master seed); persisting it in the
    /// report lets any scene be regenerated in isolation.
    pub seed: u64,
    /// The renderable scene.
    pub scene: Scene,
    /// The (randomly posed) receiving array.
    pub array: MicrophoneArray,
    /// Operating mode for the session.
    pub mode: OperatingMode,
    /// Ground-truth detection timeline (empty for no-event scenes).
    pub timeline: Vec<LabeledInterval>,
    /// Ground-truth bearings (empty for no-event scenes).
    pub doa_truth: Vec<DoaTruth>,
}

/// The four event emitters the matrix samples from.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    Wail,
    Yelp,
    HiLow,
    Horn,
}

impl EventKind {
    const ALL: [EventKind; 4] = [
        EventKind::Wail,
        EventKind::Yelp,
        EventKind::HiLow,
        EventKind::Horn,
    ];

    fn label(self) -> &'static str {
        match self {
            EventKind::Wail => "wail",
            EventKind::Yelp => "yelp",
            EventKind::HiLow => "hilow",
            EventKind::Horn => "horn",
        }
    }

    fn class(self) -> EventClass {
        match self {
            EventKind::Wail => SirenKind::Wail.event_class(),
            EventKind::Yelp => SirenKind::Yelp.event_class(),
            EventKind::HiLow => SirenKind::HiLow.event_class(),
            EventKind::Horn => EventClass::CarHorn,
        }
    }

    fn synthesize(self, fs: f64, duration_s: f64) -> Vec<f64> {
        match self {
            EventKind::Wail => SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(duration_s),
            EventKind::Yelp => SirenSynthesizer::new(SirenKind::Yelp, fs).synthesize(duration_s),
            EventKind::HiLow => SirenSynthesizer::new(SirenKind::HiLow, fs).synthesize(duration_s),
            EventKind::Horn => CarHornSynthesizer::new(fs).synthesize(duration_s),
        }
    }
}

/// The roof array at a random pose: the stock irregular hexagon rotated by
/// `yaw` about its centroid and shifted by `(dx, dy)`. Bearing truths are
/// computed from the posed centroid, so truth and estimate share a frame.
fn posed_array(rng: &mut StdRng) -> MicrophoneArray {
    let yaw = rng.random_range(0.0..std::f64::consts::TAU);
    let dx = rng.random_range(-1.5..1.5);
    let dy = rng.random_range(-1.5..1.5);
    let base = MicrophoneArray::irregular_hexagon(Position::new(0.0, 0.0, 1.0));
    let c = base.centroid();
    let (s, co) = yaw.sin_cos();
    let positions = base
        .positions()
        .iter()
        .map(|p| {
            let (rx, ry) = (p.x - c.x, p.y - c.y);
            Position::new(
                c.x + dx + co * rx - s * ry,
                c.y + dy + s * rx + co * ry,
                p.z,
            )
        })
        .collect();
    MicrophoneArray::custom(positions).expect("hexagon pose is non-empty")
}

/// Samples an event trajectory. `max_lateral_m` bounds |y| so canyon scenes
/// keep their sources between the walls; shapes that would cross the walls
/// (crossings along y) are only drawn when the bound allows them.
fn sample_trajectory(rng: &mut StdRng, duration_s: f64, max_lateral_m: f64) -> Trajectory {
    let lane_bound = max_lateral_m.min(10.0);
    let shape = if max_lateral_m >= 16.0 {
        rng.random_range(0usize..4)
    } else {
        rng.random_range(0usize..3)
    };
    let side = if rng.random::<bool>() { 1.0 } else { -1.0 };
    let lane = side * rng.random_range(3.0..lane_bound);
    match shape {
        0 => {
            // Pass-by along x, centred on the array.
            let speed = rng.random_range(8.0..16.0);
            let half = (0.5 * speed * duration_s).max(4.0);
            Trajectory::linear(
                Position::new(-side * half, lane, 1.0),
                Position::new(side * half, lane, 1.0),
                speed,
            )
        }
        1 => {
            // Head-on approach from up the road.
            let speed = rng.random_range(10.0..20.0);
            let start_x = -rng.random_range(25.0..45.0);
            Trajectory::linear(
                Position::new(start_x, lane, 1.0),
                Position::new(-6.0, lane, 1.0),
                speed,
            )
        }
        2 => {
            // Stationary emitter (incident scene, parked horn). The lateral
            // component is clamped so canyon scenes keep it between the walls.
            let r = rng.random_range(5.0..15.0);
            let az = rng.random_range(0.0..std::f64::consts::TAU);
            let y = (r * az.sin()).clamp(-max_lateral_m, max_lateral_m);
            Trajectory::fixed(Position::new(r * az.cos(), y, 1.0))
        }
        _ => {
            // Crossing along y on a perpendicular road (open intersections only).
            let speed = rng.random_range(6.0..12.0);
            let x = side * rng.random_range(5.0..12.0);
            let half = (0.5 * speed * duration_s).max(4.0);
            Trajectory::linear(
                Position::new(x, -half, 1.0),
                Position::new(x, half, 1.0),
                speed,
            )
        }
    }
}

/// One environmental masker at a fixed random bearing.
fn sample_masker(
    rng: &mut StdRng,
    fs: f64,
    duration_s: f64,
    max_lateral_m: f64,
    gain_range: std::ops::Range<f64>,
) -> Result<SoundSource, RoadSimError> {
    let kind = [
        AmbienceKind::Wind,
        AmbienceKind::Rain,
        AmbienceKind::RoadNoise,
    ][rng.random_range(0usize..3)];
    let seed = rng.random::<u64>();
    let gain = rng.random_range(gain_range);
    let r = rng.random_range(6.0..14.0);
    let az = rng.random_range(0.0..std::f64::consts::TAU);
    let y = (r * az.sin()).clamp(-max_lateral_m, max_lateral_m);
    let signal = AmbienceSynthesizer::new(kind, fs, seed).synthesize(duration_s)?;
    Ok(SoundSource::new(
        signal,
        Trajectory::fixed(Position::new(r * az.cos(), y, 0.8)),
    )
    .with_gain(gain))
}

/// Generates scene `index` of the matrix from its derived `seed`.
fn generate_scene(
    index: usize,
    regime: Regime,
    seed: u64,
    cfg: &MatrixConfig,
) -> Result<GeneratedScenario, RoadSimError> {
    let mut rng = StdRng::from_seed(seed);
    let fs = cfg.sample_rate;
    let duration_s = cfg.duration_s;
    let array = posed_array(&mut rng);

    let mut builder = SceneBuilder::new(fs)
        .array(array.clone())
        .reflection(true)
        .air_absorption(false)
        .filter_taps(33);

    // Regime geometry: canyon walls bound the usable lateral range; the
    // occluded regime drops a screen between the event's approach and the
    // array.
    let mut max_lateral_m = 24.0;
    match regime {
        Regime::Canyon => {
            let width = rng.random_range(18.0..26.0);
            let gain = rng.random_range(0.4..0.8);
            builder = builder.canyon(StreetCanyon::new(width, gain)?);
            max_lateral_m = width / 2.0 - 2.0;
        }
        Regime::Occluded => {
            let wall_y = rng.random_range(3.5..5.5);
            let wall_end = rng.random_range(6.0..10.0);
            builder = builder.occluder(Occluder::screen(
                Position::new(-14.0, wall_y, 0.0),
                Position::new(wall_end, wall_y, 0.0),
                rng.random_range(3.0..4.5),
            ));
        }
        _ => {}
    }

    let (event_label, timeline, doa_truth) = if regime.has_event() {
        let kind = EventKind::ALL[rng.random_range(0usize..4)];
        let trajectory = match regime {
            Regime::Occluded => {
                // Drive along x behind the screen (beyond wall_y) towards +x so
                // the source emerges around the screen's end mid-scene.
                let lane = rng.random_range(6.5..9.5);
                let speed = rng.random_range(10.0..18.0);
                let half = (0.5 * speed * duration_s).max(4.0);
                Trajectory::linear(
                    Position::new(-half, lane, 1.0),
                    Position::new(half, lane, 1.0),
                    speed,
                )
            }
            Regime::LowSnr => {
                // Far field: slow drift at 60-120 m.
                let r = rng.random_range(60.0..120.0);
                let az = rng.random_range(0.0..std::f64::consts::TAU);
                let start = Position::new(r * az.cos(), r * az.sin(), 1.5);
                let end = Position::new(start.x - 8.0, start.y - 6.0, 1.5);
                Trajectory::linear(start, end, rng.random_range(3.0..6.0))
            }
            _ => sample_trajectory(&mut rng, duration_s, max_lateral_m),
        };
        let gain = match regime {
            Regime::Clean => rng.random_range(2.5..4.0),
            Regime::LowSnr => rng.random_range(1.5..3.0),
            _ => rng.random_range(2.0..3.5),
        };
        builder = builder.source(
            SoundSource::new(kind.synthesize(fs, duration_s), trajectory.clone()).with_gain(gain),
        );
        (
            kind.label(),
            vec![LabeledInterval::new(kind.class(), 0.0, duration_s)],
            vec![DoaTruth {
                trajectory,
                start_s: 0.0,
                end_s: duration_s,
            }],
        )
    } else {
        ("ambience", Vec::new(), Vec::new())
    };

    // Masker bed. Clean scenes get a faint bed; masked/low-SNR/no-event
    // scenes get one or two loud maskers.
    let masker_gain = match regime {
        Regime::Clean => 0.02..0.08,
        Regime::Masked | Regime::LowSnr => 0.3..0.8,
        _ => 0.1..0.4,
    };
    builder = builder.source(sample_masker(
        &mut rng,
        fs,
        duration_s,
        max_lateral_m,
        masker_gain.clone(),
    )?);
    if matches!(regime, Regime::Masked | Regime::NoEvent) && rng.random::<bool>() {
        builder = builder.source(sample_masker(
            &mut rng,
            fs,
            duration_s,
            max_lateral_m,
            masker_gain,
        )?);
    }

    let scene = builder.build()?;
    Ok(GeneratedScenario {
        name: format!("m{index:03}-{}-{}", regime.label(), event_label),
        regime,
        seed,
        scene,
        array,
        mode: OperatingMode::Drive,
        timeline,
        doa_truth,
    })
}

/// Generates the full scene population of `cfg`, deterministically: the master
/// seed drives one [`StdRng`] stream whose draws become per-scene seeds, and
/// every scene is generated from its own seed only. Same config → bit-identical
/// scene list.
///
/// # Errors
///
/// Returns [`RoadSimError`] if a sampled scene fails validation — which would
/// be a generator bug, since the sampling ranges are chosen to satisfy the
/// scene invariants for every draw.
pub fn generate(cfg: &MatrixConfig) -> Result<Vec<GeneratedScenario>, RoadSimError> {
    let mut master = StdRng::from_seed(cfg.seed);
    let mut scenes = Vec::with_capacity(cfg.num_scenes);
    for index in 0..cfg.num_scenes {
        let seed = master.random::<u64>();
        let regime = Regime::ALL[index % Regime::ALL.len()];
        scenes.push(generate_scene(index, regime, seed, cfg)?);
    }
    Ok(scenes)
}

/// One scored scene of the matrix.
#[derive(Debug, Clone)]
pub struct SceneScore {
    /// Scene name (`m{index:03}-{regime}-{event}`).
    pub name: String,
    /// The scene's regime.
    pub regime: Regime,
    /// The scene's derived seed.
    pub seed: u64,
    /// The full score vector from [`evaluate_scene`].
    pub scores: EvalScores,
}

/// Aggregate distribution of one regime's F1 (event regimes) and false-alarm
/// rate.
#[derive(Debug, Clone)]
pub struct RegimeSummary {
    /// The regime.
    pub regime: Regime,
    /// Scenes scored in this regime.
    pub num_scenes: usize,
    /// Mean frame-level event F1 (0.0 for an empty regime).
    pub mean_f1: f64,
    /// Median F1.
    pub median_f1: f64,
    /// 10th-percentile F1 — the regime's weak tail.
    pub p10_f1: f64,
    /// Mean false-alarm rate over background-truth frames.
    pub mean_false_alarm_rate: f64,
    /// Mean OSPA over scenes where it was defined, degrees.
    pub mean_ospa_deg: Option<f64>,
    /// Total identity swaps across the regime.
    pub identity_swaps: usize,
}

/// The scored matrix: per-regime distributions, worst-k scenes and the two
/// headline aggregates the CI gate checks.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Master seed the population was generated from.
    pub seed: u64,
    /// Scenes scored.
    pub num_scenes: usize,
    /// Per-regime summaries, in [`Regime::ALL`] order (empty regimes omitted).
    pub regimes: Vec<RegimeSummary>,
    /// The `k` lowest-F1 event scenes, worst first.
    pub worst_scenes: Vec<SceneScore>,
    /// Mean F1 over every event scene.
    pub mean_event_f1: f64,
    /// Mean false-alarm rate over the no-event scenes (0.0 if none were run).
    pub no_event_false_alarm_rate: f64,
    /// All per-scene scores in generation order.
    pub scenes: Vec<SceneScore>,
}

/// How many worst scenes the report keeps.
pub const WORST_K: usize = 5;

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

impl MatrixReport {
    /// Aggregates per-scene scores into the report. Exposed so the gate can be
    /// tested on synthetic populations without rendering audio.
    pub fn from_scores(seed: u64, scenes: Vec<SceneScore>) -> Self {
        let mut regimes = Vec::new();
        for regime in Regime::ALL {
            let of_regime: Vec<&SceneScore> =
                scenes.iter().filter(|s| s.regime == regime).collect();
            if of_regime.is_empty() {
                continue;
            }
            let mut f1s: Vec<f64> = of_regime.iter().map(|s| s.scores.event_f1).collect();
            f1s.sort_unstable_by(f64::total_cmp);
            let n = of_regime.len() as f64;
            let (mut ospa_sum, mut ospa_n) = (0.0, 0usize);
            for s in &of_regime {
                if let Some(o) = s.scores.mean_ospa_deg {
                    ospa_sum += o;
                    ospa_n += 1;
                }
            }
            regimes.push(RegimeSummary {
                regime,
                num_scenes: of_regime.len(),
                mean_f1: f1s.iter().sum::<f64>() / n,
                median_f1: quantile(&f1s, 0.5),
                p10_f1: quantile(&f1s, 0.1),
                mean_false_alarm_rate: of_regime
                    .iter()
                    .map(|s| s.scores.false_alarm_rate)
                    .sum::<f64>()
                    / n,
                mean_ospa_deg: (ospa_n > 0).then(|| ospa_sum / ospa_n as f64),
                identity_swaps: of_regime.iter().map(|s| s.scores.identity_swaps).sum(),
            });
        }

        let event_scenes: Vec<&SceneScore> =
            scenes.iter().filter(|s| s.regime.has_event()).collect();
        let mean_event_f1 = if event_scenes.is_empty() {
            0.0
        } else {
            event_scenes.iter().map(|s| s.scores.event_f1).sum::<f64>() / event_scenes.len() as f64
        };
        let no_event: Vec<&SceneScore> = scenes.iter().filter(|s| !s.regime.has_event()).collect();
        let no_event_false_alarm_rate = if no_event.is_empty() {
            0.0
        } else {
            no_event
                .iter()
                .map(|s| s.scores.false_alarm_rate)
                .sum::<f64>()
                / no_event.len() as f64
        };

        let mut worst: Vec<SceneScore> = event_scenes.into_iter().cloned().collect();
        worst.sort_by(|a, b| {
            a.scores
                .event_f1
                .total_cmp(&b.scores.event_f1)
                .then_with(|| a.name.cmp(&b.name))
        });
        worst.truncate(WORST_K);

        MatrixReport {
            seed,
            num_scenes: scenes.len(),
            regimes,
            worst_scenes: worst,
            mean_event_f1,
            no_event_false_alarm_rate,
            scenes,
        }
    }

    /// Serializes the report as deterministic JSON (hand-rolled: the workspace
    /// carries no JSON dependency). Wall-clock latency is deliberately
    /// excluded so two runs of the same seed produce byte-identical artifacts;
    /// perf tracking lives in `BENCH_scenarios.json`.
    pub fn to_json(&self) -> String {
        let num = |v: Option<f64>| match v {
            Some(e) if e.is_finite() => format!("{e:.4}"),
            _ => "null".to_string(),
        };
        let scene_obj = |s: &SceneScore| {
            format!(
                concat!(
                    "{{\"name\":\"{}\",\"regime\":\"{}\",\"seed\":{},",
                    "\"frames\":{},\"events\":{},\"event_f1\":{:.4},",
                    "\"false_alarm_rate\":{:.4},\"mean_doa_error_deg\":{},",
                    "\"confirmed_tracks\":{},\"identity_swaps\":{},",
                    "\"mean_track_error_deg\":{},\"mean_ospa_deg\":{}}}"
                ),
                s.name,
                s.regime.label(),
                s.seed,
                s.scores.num_frames,
                s.scores.num_events,
                s.scores.event_f1,
                s.scores.false_alarm_rate,
                num(s.scores.mean_doa_error_deg),
                s.scores.confirmed_tracks,
                s.scores.identity_swaps,
                num(s.scores.mean_track_error_deg),
                num(s.scores.mean_ospa_deg),
            )
        };
        let regimes: Vec<String> = self
            .regimes
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "    {{\"regime\":\"{}\",\"scenes\":{},\"mean_f1\":{:.4},",
                        "\"median_f1\":{:.4},\"p10_f1\":{:.4},",
                        "\"mean_false_alarm_rate\":{:.4},\"mean_ospa_deg\":{},",
                        "\"identity_swaps\":{}}}"
                    ),
                    r.regime.label(),
                    r.num_scenes,
                    r.mean_f1,
                    r.median_f1,
                    r.p10_f1,
                    r.mean_false_alarm_rate,
                    num(r.mean_ospa_deg),
                    r.identity_swaps,
                )
            })
            .collect();
        let worst: Vec<String> = self
            .worst_scenes
            .iter()
            .map(|s| format!("    {}", scene_obj(s)))
            .collect();
        let scenes: Vec<String> = self
            .scenes
            .iter()
            .map(|s| format!("    {}", scene_obj(s)))
            .collect();
        format!(
            concat!(
                "{{\n  \"seed\": {},\n  \"num_scenes\": {},\n",
                "  \"mean_event_f1\": {:.4},\n",
                "  \"no_event_false_alarm_rate\": {:.4},\n",
                "  \"regimes\": [\n{}\n  ],\n",
                "  \"worst_scenes\": [\n{}\n  ],\n",
                "  \"scenes\": [\n{}\n  ]\n}}\n"
            ),
            self.seed,
            self.num_scenes,
            self.mean_event_f1,
            self.no_event_false_alarm_rate,
            regimes.join(",\n"),
            worst.join(",\n"),
            scenes.join(",\n"),
        )
    }

    /// Formats the per-regime summary table for the experiment output.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<10} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}\n",
            "regime", "scenes", "meanF1", "medF1", "p10F1", "FA-rate", "ospa", "swaps"
        );
        for r in &self.regimes {
            let ospa = match r.mean_ospa_deg {
                Some(o) => format!("{o:>8.1}"),
                None => format!("{:>8}", "-"),
            };
            out.push_str(&format!(
                "{:<10} {:>6} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {} {:>6}\n",
                r.regime.label(),
                r.num_scenes,
                r.mean_f1,
                r.median_f1,
                r.p10_f1,
                r.mean_false_alarm_rate,
                ospa,
                r.identity_swaps,
            ));
        }
        out
    }
}

/// The CI quality gate over the matrix aggregates. Thresholds are pinned well
/// below the measured baseline (`BENCH_matrix.json`) so they trip on real
/// regressions, not sampling noise.
#[derive(Debug, Clone, Copy)]
pub struct MatrixGate {
    /// Minimum mean F1 over all event scenes.
    pub min_mean_event_f1: f64,
    /// Minimum mean F1 within every event regime.
    pub min_regime_mean_f1: f64,
    /// Maximum mean false-alarm rate over the no-event scenes.
    pub max_no_event_false_alarm_rate: f64,
}

impl Default for MatrixGate {
    fn default() -> Self {
        // Measured baseline (seed 0x1507_2023): full 120 scenes — mean event
        // F1 0.749, regime means 0.446 (low-SNR) to 0.997 (clean), no-event
        // false-alarm rate 0.258; smoke 18 scenes — 0.792 / 0.433 / 0.211.
        // Thresholds sit well under the weakest measured stratum so they trip
        // on real regressions, not sampling noise; the broken-pipeline
        // inverted check scores 0.000 everywhere and must stay below them.
        MatrixGate {
            min_mean_event_f1: 0.55,
            min_regime_mean_f1: 0.25,
            max_no_event_false_alarm_rate: 0.40,
        }
    }
}

impl MatrixGate {
    /// Checks the report; returns one message per violated threshold (empty →
    /// the gate passes).
    pub fn check(&self, report: &MatrixReport) -> Vec<String> {
        let mut failures = Vec::new();
        if report.mean_event_f1 < self.min_mean_event_f1 {
            failures.push(format!(
                "mean event F1 {:.3} < {:.3}",
                report.mean_event_f1, self.min_mean_event_f1
            ));
        }
        for r in &report.regimes {
            if r.regime.has_event() && r.mean_f1 < self.min_regime_mean_f1 {
                failures.push(format!(
                    "regime {} mean F1 {:.3} < {:.3}",
                    r.regime.label(),
                    r.mean_f1,
                    self.min_regime_mean_f1
                ));
            }
        }
        if report.no_event_false_alarm_rate > self.max_no_event_false_alarm_rate {
            failures.push(format!(
                "no-event false-alarm rate {:.3} > {:.3}",
                report.no_event_false_alarm_rate, self.max_no_event_false_alarm_rate
            ));
        }
        failures
    }
}

/// Generates and scores the matrix population of `cfg` with the stock pipeline
/// configuration.
///
/// # Errors
///
/// Propagates generation, simulation and pipeline errors.
pub fn evaluate_matrix(cfg: &MatrixConfig) -> Result<MatrixReport, Box<dyn std::error::Error>> {
    evaluate_matrix_with(cfg, EvalOptions::default())
}

/// [`evaluate_matrix`] with pipeline overrides — the inverted CI check scores
/// the population under a deliberately broken configuration (a near-1.0
/// confidence threshold) and asserts the gate fails.
///
/// # Errors
///
/// Propagates generation, simulation and pipeline errors.
pub fn evaluate_matrix_with(
    cfg: &MatrixConfig,
    options: EvalOptions,
) -> Result<MatrixReport, Box<dyn std::error::Error>> {
    let scenarios = generate(cfg)?;
    let mut scores = Vec::with_capacity(scenarios.len());
    for s in &scenarios {
        let scene_scores = evaluate_scene(
            &s.scene,
            &s.array,
            s.mode,
            &s.timeline,
            &s.doa_truth,
            options,
        )?;
        scores.push(SceneScore {
            name: s.name.clone(),
            regime: s.regime,
            seed: s.seed,
            scores: scene_scores,
        });
    }
    Ok(MatrixReport::from_scores(cfg.seed, scores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispot_roadsim::engine::Simulator;

    fn tiny() -> MatrixConfig {
        MatrixConfig {
            seed: 7,
            num_scenes: 6,
            sample_rate: 8_000.0,
            duration_s: 0.3,
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = generate(&tiny()).unwrap();
        let b = generate(&tiny()).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = generate(&MatrixConfig { seed: 8, ..tiny() }).unwrap();
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn round_robin_covers_every_regime() {
        let scenes = generate(&tiny()).unwrap();
        for (i, regime) in Regime::ALL.iter().enumerate() {
            assert_eq!(scenes[i].regime, *regime);
            assert!(
                scenes[i].name.contains(regime.label()),
                "{}",
                scenes[i].name
            );
        }
    }

    #[test]
    fn every_generated_scene_is_renderable_and_labeled() {
        let scenes = generate(&MatrixConfig {
            num_scenes: 12,
            ..tiny()
        })
        .unwrap();
        assert_eq!(scenes.len(), 12);
        for s in &scenes {
            Simulator::new(s.scene.clone()).expect(&s.name);
            if s.regime.has_event() {
                assert!(!s.timeline.is_empty(), "{}: timeline", s.name);
                assert!(!s.doa_truth.is_empty(), "{}: doa truth", s.name);
            } else {
                assert!(s.timeline.is_empty());
                assert!(s.doa_truth.is_empty());
            }
        }
    }

    fn synthetic_score(regime: Regime, f1: f64, fa: f64) -> SceneScore {
        SceneScore {
            name: format!("syn-{}", regime.label()),
            regime,
            seed: 1,
            scores: EvalScores {
                num_frames: 10,
                num_events: 5,
                event_f1: f1,
                event_precision: f1,
                event_recall: f1,
                false_alarm_rate: fa,
                mean_doa_error_deg: Some(4.0),
                doa_scored: 5,
                duty_cycle: 1.0,
                confirmed_tracks: 1,
                identity_swaps: 0,
                mean_track_error_deg: Some(4.0),
                worst_track_error_deg: Some(6.0),
                mean_ospa_deg: Some(8.0),
                mean_frame_latency_ms: 123.0,
            },
        }
    }

    #[test]
    fn gate_passes_healthy_and_fails_collapsed_populations() {
        let healthy: Vec<SceneScore> = Regime::ALL
            .iter()
            .map(|&r| synthetic_score(r, if r.has_event() { 0.9 } else { 0.0 }, 0.0))
            .collect();
        let report = MatrixReport::from_scores(1, healthy);
        assert!(MatrixGate::default().check(&report).is_empty());

        let collapsed: Vec<SceneScore> = Regime::ALL
            .iter()
            .map(|&r| synthetic_score(r, 0.0, 0.5))
            .collect();
        let report = MatrixReport::from_scores(1, collapsed);
        let failures = MatrixGate::default().check(&report);
        assert!(!failures.is_empty());
        assert!(failures.iter().any(|f| f.contains("mean event F1")));
        assert!(failures.iter().any(|f| f.contains("false-alarm")));
    }

    #[test]
    fn report_aggregates_and_json_are_latency_free_and_deterministic() {
        let scores: Vec<SceneScore> = (0..12)
            .map(|i| {
                let regime = Regime::ALL[i % 6];
                synthetic_score(regime, 0.5 + 0.04 * i as f64, 0.01 * i as f64)
            })
            .collect();
        let report = MatrixReport::from_scores(42, scores);
        assert_eq!(report.num_scenes, 12);
        assert_eq!(report.regimes.len(), 6);
        assert_eq!(report.worst_scenes.len(), WORST_K);
        // Worst list is sorted ascending by F1 and only holds event scenes.
        for w in &report.worst_scenes {
            assert!(w.regime.has_event());
        }
        for pair in report.worst_scenes.windows(2) {
            assert!(pair[0].scores.event_f1 <= pair[1].scores.event_f1);
        }
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        // Wall-clock numbers must not leak into the deterministic artifact.
        assert!(!a.contains("latency"));
        assert!(!a.contains("123"));
        assert!(a.contains("\"regimes\""));
        assert!(a.contains("\"worst_scenes\""));
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 1.0), 3.0);
        assert_eq!(quantile(&xs, 0.5), 1.5);
        assert!(quantile(&[], 0.5).abs() < f64::EPSILON);
    }
}
