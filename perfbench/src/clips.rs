//! The seeded clip pool: event and ambience clips rendered with
//! `ispot-roadsim` for the one array every stream shares, and each stream's
//! draw of clip and start offset.
//!
//! A pool's composition is fixed by construction — clip `i` always has the
//! same emitter and path shape, or the same ambience kind — and the seed draws
//! only the continuous parameters (speeds, lanes, gains, noise seeds) and each
//! stream's start. Streams are spread evenly over the pool, so two seeds give
//! two different inputs with the same mix of work.

use ispot_roadsim::prelude::*;
use ispot_sed::sirens::{CarHornSynthesizer, SirenKind, SirenSynthesizer};

/// Audio sample rate, Hz.
pub const SAMPLE_RATE: f64 = 16_000.0;
/// Samples per pushed chunk (32 ms).
pub const CHUNK: usize = 512;
/// Microphones of [`array`].
pub const CHANNELS: usize = 6;
/// Chunks per clip (6.016 s): a whole number, so a stream loops its clip one
/// chunk at a time.
pub const CLIP_CHUNKS: usize = 188;
/// Clips per pool.
pub const POOL_CLIPS: usize = 8;

/// The receiving array every stream of every workload shares, so one engine
/// serves them all.
pub fn array() -> MicrophoneArray {
    MicrophoneArray::irregular_hexagon(Position::new(0.0, 0.0, 1.0))
}

/// What a workload's clips contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// A siren or horn on a pass-by, approach, crossing or static path over a
    /// faint masker.
    Events,
    /// Wind, rain and road-noise beds with no event.
    Ambient,
    /// Quiet ambience beds.
    Quiet,
}

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `+1.0` or `-1.0`.
    pub fn sign(&mut self) -> f64 {
        if self.next_u64() & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// One rendered clip: `CHANNELS` channels of `CLIP_CHUNKS × CHUNK` samples.
#[derive(Debug)]
pub struct Clip {
    /// What the clip holds, e.g. `wail-pass-by`.
    pub label: String,
    /// Planar samples, one vector per microphone.
    pub channels: Vec<Vec<f64>>,
}

/// Which clip a stream replays, and from which chunk on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPlan {
    /// Index into the pool.
    pub clip: usize,
    /// The clip chunk the stream's first chunk is cut from.
    pub start_chunk: usize,
}

/// Every input of one run: the rendered pool, each stream's plan and a
/// fingerprint of both.
#[derive(Debug)]
pub struct Inputs {
    /// The rendered clips.
    pub clips: Vec<Clip>,
    /// One plan per stream.
    pub plans: Vec<StreamPlan>,
    /// FNV-1a hash of every rendered sample and every plan.
    pub fingerprint: u64,
}

impl Inputs {
    /// Renders the pool of `kind` and draws `streams` plans, all from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates scene-construction and rendering errors.
    pub fn generate(kind: PoolKind, streams: usize, seed: u64) -> Result<Inputs, RoadSimError> {
        let mut rng = Rng::new(seed);
        let clips = (0..POOL_CLIPS)
            .map(|i| render_clip(kind, i, &mut rng))
            .collect::<Result<Vec<_>, _>>()?;
        // Balanced assignment: every clip serves the same number of streams
        // (±1), shuffled so that stream index and clip are unrelated.
        let mut assignment: Vec<usize> = (0..streams).map(|s| s % POOL_CLIPS).collect();
        for i in (1..assignment.len()).rev() {
            let j = rng.below(i + 1);
            assignment.swap(i, j);
        }
        let plans: Vec<StreamPlan> = assignment
            .into_iter()
            .map(|clip| StreamPlan {
                clip,
                start_chunk: rng.below(CLIP_CHUNKS),
            })
            .collect();
        let fingerprint = fingerprint(&clips, &plans);
        Ok(Inputs {
            clips,
            plans,
            fingerprint,
        })
    }

    /// Channel views of chunk `j` of `stream`: the clip chunk
    /// `(start_chunk + j) mod CLIP_CHUNKS`.
    pub fn chunk(&self, stream: usize, j: usize) -> [&[f64]; CHANNELS] {
        let plan = self.plans[stream];
        let offset = (plan.start_chunk + j) % CLIP_CHUNKS * CHUNK;
        let clip = &self.clips[plan.clip];
        std::array::from_fn(|c| &clip.channels[c][offset..offset + CHUNK])
    }

    /// For each clip, the lowest stream that replays it: a sample of streams
    /// that covers the whole pool.
    pub fn sample_streams(&self) -> Vec<usize> {
        (0..self.clips.len())
            .filter_map(|clip| self.plans.iter().position(|p| p.clip == clip))
            .collect()
    }
}

/// FNV-1a over the bit patterns of every sample, then every plan.
fn fingerprint(clips: &[Clip], plans: &[StreamPlan]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let words = clips
        .iter()
        .flat_map(|clip| clip.channels.iter().flatten().map(|x| x.to_bits()))
        .chain(
            plans
                .iter()
                .flat_map(|p| [p.clip as u64, p.start_chunk as u64]),
        );
    for word in words {
        hash = (hash ^ word).wrapping_mul(PRIME);
    }
    hash
}

/// The four event emitters, in pool order.
const EMITTERS: [&str; 4] = ["wail", "yelp", "hilow", "horn"];
/// The four event paths, in pool order.
const PATHS: [&str; 4] = ["pass-by", "approach", "crossing", "static"];
/// The three ambience kinds, in pool order.
const BEDS: [AmbienceKind; 3] = [
    AmbienceKind::Wind,
    AmbienceKind::Rain,
    AmbienceKind::RoadNoise,
];
/// Length of the vehicle burst in a quiet clip, seconds.
const BURST_S: f64 = 0.6;

/// Renders clip `i` of the pool of `kind`.
fn render_clip(kind: PoolKind, i: usize, rng: &mut Rng) -> Result<Clip, RoadSimError> {
    let n = CLIP_CHUNKS * CHUNK;
    let duration_s = n as f64 / SAMPLE_RATE;
    let mut builder = SceneBuilder::new(SAMPLE_RATE)
        .array(array())
        .reflection(true)
        .air_absorption(false)
        .filter_taps(33);
    let label = match kind {
        PoolKind::Events => {
            // Each emitter appears on two paths and each path under two
            // emitters across the eight clips.
            let emitter = i % EMITTERS.len();
            let path = (i + i / PATHS.len()) % PATHS.len();
            let signal = match emitter {
                0 => SirenSynthesizer::new(SirenKind::Wail, SAMPLE_RATE).synthesize(secs(n)),
                1 => SirenSynthesizer::new(SirenKind::Yelp, SAMPLE_RATE).synthesize(secs(n)),
                2 => SirenSynthesizer::new(SirenKind::HiLow, SAMPLE_RATE).synthesize(secs(n)),
                _ => CarHornSynthesizer::new(SAMPLE_RATE).synthesize(secs(n)),
            };
            let trajectory = event_path(path, duration_s, rng);
            let gain = rng.range(2.5, 4.0);
            builder = builder
                .source(SoundSource::new(signal, trajectory).with_gain(gain))
                .source(bed(BEDS[rng.below(BEDS.len())], n, 0.02..0.08, rng)?);
            format!("{}-{}", EMITTERS[emitter], PATHS[path])
        }
        PoolKind::Ambient => {
            let kind = [AmbienceKind::Wind, AmbienceKind::RoadNoise][i % 2];
            builder = builder.source(bed(kind, n, 0.1..0.4, rng)?).source(bed(
                AmbienceKind::Rain,
                n,
                0.01..0.04,
                rng,
            )?);
            format!("{}-rain", kind.label())
        }
        PoolKind::Quiet => {
            // A steady bed the trigger learns as its floor, and one short
            // vehicle burst well above it, so every clip wakes the trigger
            // for about the same number of frames.
            let kind = [AmbienceKind::Rain, AmbienceKind::RoadNoise][i % 2];
            let burst_n = (BURST_S * SAMPLE_RATE) as usize;
            let mut burst = bed(AmbienceKind::RoadNoise, burst_n, 0.3..0.5, rng)?;
            burst = burst.with_start(rng.range(0.5, duration_s - BURST_S - 0.5));
            builder = builder.source(bed(kind, n, 0.02..0.06, rng)?).source(burst);
            format!("quiet-{}", kind.label())
        }
    };
    let mut channels = Simulator::new(builder.build()?)?.run()?.into_channels();
    for channel in &mut channels {
        channel.resize(n, 0.0);
    }
    Ok(Clip { label, channels })
}

/// A duration that synthesizers turn into exactly `n` samples.
fn secs(n: usize) -> f64 {
    (n as f64 + 0.5) / SAMPLE_RATE
}

/// One event path of shape `path` (an index into [`PATHS`]).
fn event_path(path: usize, duration_s: f64, rng: &mut Rng) -> Trajectory {
    let side = rng.sign();
    let lane = side * rng.range(3.0, 10.0);
    match path {
        0 => {
            let speed = rng.range(8.0, 16.0);
            let half = 0.5 * speed * duration_s;
            Trajectory::linear(
                Position::new(-side * half, lane, 1.0),
                Position::new(side * half, lane, 1.0),
                speed,
            )
        }
        1 => {
            let speed = rng.range(10.0, 20.0);
            let start_x = -rng.range(25.0, 45.0);
            Trajectory::linear(
                Position::new(start_x, lane, 1.0),
                Position::new(-6.0, lane, 1.0),
                speed,
            )
        }
        2 => {
            let speed = rng.range(6.0, 12.0);
            let x = side * rng.range(5.0, 12.0);
            let half = 0.5 * speed * duration_s;
            Trajectory::linear(
                Position::new(x, -half, 1.0),
                Position::new(x, half, 1.0),
                speed,
            )
        }
        _ => {
            let r = rng.range(5.0, 15.0);
            let az = rng.range(0.0, std::f64::consts::TAU);
            Trajectory::fixed(Position::new(r * az.cos(), r * az.sin(), 1.0))
        }
    }
}

/// A static ambience bed of `kind` at a random bearing, `n` samples long.
fn bed(
    kind: AmbienceKind,
    n: usize,
    gain: std::ops::Range<f64>,
    rng: &mut Rng,
) -> Result<SoundSource, RoadSimError> {
    let mut signal =
        AmbienceSynthesizer::new(kind, SAMPLE_RATE, rng.next_u64()).synthesize(secs(n))?;
    signal.truncate(n);
    let gain = rng.range(gain.start, gain.end);
    let r = rng.range(6.0, 14.0);
    let az = rng.range(0.0, std::f64::consts::TAU);
    Ok(SoundSource::new(
        signal,
        Trajectory::fixed(Position::new(r * az.cos(), r * az.sin(), 0.8)),
    )
    .with_gain(gain))
}
