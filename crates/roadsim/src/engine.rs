//! The simulation engine: renders a [`Scene`] into multichannel
//! audio.
//!
//! The engine reproduces the pyroadacoustics block scheme (Fig. 2 of the paper): per
//! source–microphone pair, the emitted signal is pushed into variable-length delay
//! lines (the direct path, the road-reflected path, and — inside a street canyon —
//! one first-order image path per façade), read at the fractional delay dictated
//! by the instantaneous propagation distance, scaled by the spherical-spreading gains
//! (shaded further by any occluding screens) and shaped by FIR filters modelling air
//! absorption and the asphalt reflection.
//!
//! Multi-source scenes are rendered **one source per unit of work, in parallel across
//! threads**: every source owns its delay lines, FIR filters and output scratch, so
//! wall-clock render time scales with the available cores rather than with the source
//! count. The per-source contributions are then summed into the array output in source
//! order, which keeps the render bit-for-bit deterministic regardless of thread
//! scheduling — a 2-source render equals the sample-wise sum of the two single-source
//! renders exactly (see the `linearity` integration test).

use crate::environment::StreetCanyon;
use crate::error::RoadSimError;
use crate::geometry::Position;
use crate::scene::Scene;
use ispot_dsp::delay::DelayLine;
use ispot_dsp::fir::FirFilter;

pub use ispot_dsp::audio::MultichannelAudio;

/// Which geometric route a propagation path takes from source to microphone.
///
/// Every kind reduces to the same machinery — mirror the source into an
/// *effective* position, then delay/attenuate/filter the ray to the mic — so
/// adding environment geometry composes freely with Doppler, spreading and
/// absorption, and keeps the render exactly linear in the sources.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PathKind {
    /// Line-of-sight ray.
    Direct,
    /// Asphalt bounce: image source below the road plane (`z -> -z`).
    Road,
    /// Street-canyon façade bounce: image source across the wall at `wall_y`.
    Wall {
        /// The reflecting façade's y coordinate.
        wall_y: f64,
    },
}

impl PathKind {
    /// The image ("effective") source position seen by the microphone.
    fn effective_position(self, pos: Position) -> Position {
        match self {
            PathKind::Direct => pos,
            PathKind::Road => pos.reflected_across_road(),
            PathKind::Wall { wall_y } => StreetCanyon::image_across_wall(pos, wall_y),
        }
    }
}

/// One propagation path (direct or reflected) from one source to one microphone.
#[derive(Debug)]
struct PropagationPath {
    delay_line: DelayLine,
    /// Per-sample delay in samples.
    delays: Vec<f64>,
    /// Per-sample spreading gain.
    gains: Vec<f64>,
    /// Optional cascade of FIR filters applied after the delay/gain stage.
    filters: Vec<FirFilter>,
}

impl PropagationPath {
    fn process(&mut self, input: f64, n: usize) -> Result<f64, RoadSimError> {
        let out = self.delay_line.process(input, self.delays[n])?;
        let mut y = out * self.gains[n];
        for f in &mut self.filters {
            y = f.process(y);
        }
        Ok(y)
    }
}

/// Renders a [`Scene`] into multichannel audio.
///
/// # Example
///
/// ```
/// use ispot_roadsim::prelude::*;
///
/// # fn main() -> Result<(), RoadSimError> {
/// let fs = 8000.0;
/// let tone: Vec<f64> = ispot_dsp::generator::Sine::new(440.0, fs).take(4000).collect();
/// let hum: Vec<f64> = ispot_dsp::generator::Sine::new(90.0, fs).take(4000).collect();
/// let scene = SceneBuilder::new(fs)
///     .source(SoundSource::new(tone, Trajectory::fixed(Position::new(10.0, 0.0, 1.0))))
///     .source(SoundSource::new(hum, Trajectory::fixed(Position::new(-6.0, 2.0, 0.6))))
///     .array(MicrophoneArray::linear(2, 0.2, Position::new(0.0, 0.0, 1.0)))
///     .build()?;
/// let audio = Simulator::new(scene)?.run()?;
/// assert_eq!(audio.num_channels(), 2);
/// assert_eq!(audio.len(), 4000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator {
    scene: Scene,
    /// Per-source positions, each sampled once per output sample.
    source_positions: Vec<Vec<Position>>,
    /// Output length in samples (the latest source end).
    num_samples: usize,
}

impl Simulator {
    /// Creates a simulator for the given scene, sampling every source trajectory once
    /// per output sample. The output length is the latest source end (onset delay plus
    /// signal length over all sources).
    ///
    /// # Errors
    ///
    /// Returns [`RoadSimError::InvalidSource`] if any sampled source position lies
    /// below the road surface, or outside the street canyon when one is
    /// configured (the image-source construction needs the source between the
    /// façades).
    pub fn new(scene: Scene) -> Result<Self, RoadSimError> {
        let num_samples = scene.duration_samples();
        let mut source_positions = Vec::with_capacity(scene.sources.len());
        for (s, source) in scene.sources.iter().enumerate() {
            let positions = source.trajectory().sample(scene.sample_rate, num_samples);
            if let Some(bad) = positions.iter().find(|p| p.z < 0.0) {
                return Err(RoadSimError::invalid_source(
                    s,
                    format!("trajectory dips below the road surface (z = {})", bad.z),
                ));
            }
            if let Some(canyon) = &scene.canyon {
                if let Some(bad) = positions.iter().find(|p| !canyon.contains_y(p.y)) {
                    return Err(RoadSimError::invalid_source(
                        s,
                        format!(
                            "trajectory leaves the street canyon (y = {}, width = {})",
                            bad.y,
                            canyon.width_m()
                        ),
                    ));
                }
            }
            source_positions.push(positions);
        }
        Ok(Simulator {
            scene,
            source_positions,
            num_samples,
        })
    }

    /// Returns the scene being simulated.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// Renders the scene and returns one audio channel per microphone.
    ///
    /// Sources are rendered in parallel (one per thread, up to the machine's
    /// parallelism), each into its own scratch channels; the per-source results are
    /// summed in source order, so the output is deterministic.
    ///
    /// # Errors
    ///
    /// Propagates DSP errors (which indicate an internal inconsistency such as a delay
    /// exceeding the preallocated line length).
    pub fn run(&self) -> Result<MultichannelAudio, RoadSimError> {
        self.run_with_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Renders the scene like [`run`](Self::run) with an explicit worker-thread
    /// count (clamped to `1..=num_sources`). The output is identical for every
    /// worker count — work distribution never affects summation order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run).
    pub fn run_with_threads(&self, workers: usize) -> Result<MultichannelAudio, RoadSimError> {
        let num_sources = self.scene.sources.len();
        let rendered = if num_sources <= 1 || workers <= 1 {
            (0..num_sources)
                .map(|s| self.render_source(s))
                .collect::<Result<Vec<_>, _>>()?
        } else {
            self.render_sources_parallel(workers.min(num_sources))?
        };
        let mut channels = vec![vec![0.0; self.num_samples]; self.scene.array.len()];
        for source_channels in rendered {
            for (acc, ch) in channels.iter_mut().zip(source_channels) {
                for (a, x) in acc.iter_mut().zip(ch) {
                    *a += x;
                }
            }
        }
        Ok(MultichannelAudio::new(channels, self.scene.sample_rate))
    }

    /// Renders every source on its own scratch, spreading contiguous chunks of the
    /// source list over `workers` scoped threads.
    fn render_sources_parallel(&self, workers: usize) -> Result<Vec<Vec<Vec<f64>>>, RoadSimError> {
        let num_sources = self.scene.sources.len();
        let chunk = num_sources.div_ceil(workers);
        let mut slots: Vec<Option<Result<Vec<Vec<f64>>, RoadSimError>>> =
            (0..num_sources).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (w, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
                let first = w * chunk;
                scope.spawn(move || {
                    for (j, slot) in slot_chunk.iter_mut().enumerate() {
                        *slot = Some(self.render_source(first + j));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every source index was assigned to a worker"))
            .collect()
    }

    /// Renders the contribution of source `s` alone to every microphone.
    fn render_source(&self, s: usize) -> Result<Vec<Vec<f64>>, RoadSimError> {
        let scene = &self.scene;
        let fs = scene.sample_rate;
        let c = scene.speed_of_sound();
        let source = &scene.sources[s];
        let onset = source.start_delay_samples(fs);
        let mut channels = Vec::with_capacity(scene.array.len());
        for &mic in scene.array.positions() {
            let mut paths = Vec::with_capacity(4);
            paths.push(self.build_path(s, mic, PathKind::Direct, fs, c)?);
            if scene.include_reflection {
                paths.push(self.build_path(s, mic, PathKind::Road, fs, c)?);
            }
            if let Some(canyon) = &scene.canyon {
                for wall_y in canyon.wall_ys() {
                    paths.push(self.build_path(s, mic, PathKind::Wall { wall_y }, fs, c)?);
                }
            }
            let mut channel = vec![0.0; self.num_samples];
            // Fast-forward over the pre-onset region: the delay lines and FIR
            // filters are zero-state and would only push zeros around, so every
            // output sample before the onset is exactly 0.0 (the channel's
            // initial value) and the states at the onset are identical.
            for (i, sample) in channel
                .iter_mut()
                .enumerate()
                .skip(onset.min(self.num_samples))
            {
                let x = source.sample(i - onset);
                let mut acc = 0.0;
                for path in paths.iter_mut() {
                    acc += path.process(x, i)?;
                }
                *sample = acc;
            }
            channels.push(channel);
        }
        Ok(channels)
    }

    fn build_path(
        &self,
        s: usize,
        mic: Position,
        kind: PathKind,
        fs: f64,
        c: f64,
    ) -> Result<PropagationPath, RoadSimError> {
        let scene = &self.scene;
        let positions = &self.source_positions[s];
        let n = positions.len();
        // A façade bounce is attenuated by the wall's flat reflection gain.
        let kind_gain = match kind {
            PathKind::Wall { .. } => scene
                .canyon
                .as_ref()
                .map_or(1.0, StreetCanyon::reflection_gain),
            _ => 1.0,
        };
        let mut delays = Vec::with_capacity(n);
        let mut gains = Vec::with_capacity(n);
        let mut max_delay = 0.0f64;
        let mut sum_dist = 0.0f64;
        for &pos in positions {
            let effective = kind.effective_position(pos);
            let dist = effective.distance_to(mic);
            let delay = dist / c * fs;
            max_delay = max_delay.max(delay);
            sum_dist += dist;
            delays.push(delay);
            // Occluders shade the unfolded ray from the image source to the
            // mic; overlapping screens multiply. Evaluated per sample so a
            // moving source sweeps smoothly through shadow boundaries.
            let mut g = scene.spreading.gain_at(dist) * kind_gain;
            for occluder in &scene.occluders {
                g *= occluder.gain(effective, mic);
            }
            gains.push(g);
        }
        let mean_dist = sum_dist / n as f64;
        let delay_line = DelayLine::new(max_delay.ceil() as usize + 4, scene.interpolation)?;
        let mut filters = Vec::new();
        if kind == PathKind::Road {
            filters.push(scene.asphalt.reflection_filter(fs, scene.filter_taps)?);
        }
        if scene.include_air_absorption {
            filters.push(
                scene
                    .atmosphere
                    .absorption_filter(mean_dist, fs, scene.filter_taps)?,
            );
        }
        Ok(PropagationPath {
            delay_line,
            delays,
            gains,
            filters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microphone::MicrophoneArray;
    use crate::scene::SceneBuilder;
    use crate::source::SoundSource;
    use crate::trajectory::Trajectory;
    use ispot_dsp::generator::Sine;
    use ispot_dsp::level::rms;

    fn static_scene(distance: f64, reflection: bool, air: bool) -> Scene {
        let fs = 8000.0;
        let tone: Vec<f64> = Sine::new(500.0, fs).take(8000).collect();
        SceneBuilder::new(fs)
            .source(SoundSource::new(
                tone,
                Trajectory::fixed(Position::new(distance, 0.0, 1.0)),
            ))
            .array(MicrophoneArray::custom(vec![Position::new(0.0, 0.0, 1.0)]).unwrap())
            .reflection(reflection)
            .air_absorption(air)
            .build()
            .unwrap()
    }

    #[test]
    fn static_source_arrives_after_propagation_delay() {
        let fs = 8000.0;
        let c = 343.0_f64;
        let distance = 34.3; // 0.1 s of propagation = 800 samples.
        let scene = static_scene(distance, false, false);
        let audio = Simulator::new(scene).unwrap().run().unwrap();
        let ch = audio.channel(0);
        let delay_samples = (distance / c * fs) as usize;
        let early_rms = rms(&ch[..delay_samples.saturating_sub(10)]);
        let late_rms = rms(&ch[delay_samples + 10..delay_samples + 2000]);
        assert!(early_rms < 1e-9, "early energy {early_rms}");
        assert!(late_rms > 1e-3, "late energy {late_rms}");
    }

    #[test]
    fn amplitude_follows_inverse_distance_law() {
        let near = Simulator::new(static_scene(10.0, false, false))
            .unwrap()
            .run()
            .unwrap();
        let far = Simulator::new(static_scene(20.0, false, false))
            .unwrap()
            .run()
            .unwrap();
        let near_rms = rms(&near.channel(0)[4000..]);
        let far_rms = rms(&far.channel(0)[4000..]);
        assert!(
            (near_rms / far_rms - 2.0).abs() < 0.1,
            "ratio {}",
            near_rms / far_rms
        );
    }

    #[test]
    fn reflection_adds_energy_for_elevated_geometry() {
        let without = Simulator::new(static_scene(15.0, false, false))
            .unwrap()
            .run()
            .unwrap();
        let with = Simulator::new(static_scene(15.0, true, false))
            .unwrap()
            .run()
            .unwrap();
        let rms_without = rms(&without.channel(0)[4000..]);
        let rms_with = rms(&with.channel(0)[4000..]);
        // The reflected path adds (incoherently) to the direct one.
        assert!(rms_with > rms_without * 1.01);
    }

    #[test]
    fn closer_microphone_receives_signal_earlier_and_louder() {
        let fs = 8000.0;
        let tone: Vec<f64> = Sine::new(500.0, fs).take(6000).collect();
        let scene = SceneBuilder::new(fs)
            .source(SoundSource::new(
                tone,
                Trajectory::fixed(Position::new(20.0, 0.0, 1.0)),
            ))
            .array(
                MicrophoneArray::custom(vec![
                    Position::new(5.0, 0.0, 1.0),
                    Position::new(-5.0, 0.0, 1.0),
                ])
                .unwrap(),
            )
            .reflection(false)
            .air_absorption(false)
            .build()
            .unwrap();
        let audio = Simulator::new(scene).unwrap().run().unwrap();
        let first_nonzero = |ch: &[f64]| ch.iter().position(|&x| x.abs() > 1e-6).unwrap();
        assert!(first_nonzero(audio.channel(0)) < first_nonzero(audio.channel(1)));
        assert!(rms(&audio.channel(0)[4000..]) > rms(&audio.channel(1)[4000..]));
    }

    #[test]
    fn moving_source_shifts_the_observed_frequency() {
        // Head-on approach at 30 m/s: observed frequency = f0 * c / (c - 30).
        let fs = 8000.0;
        let f0 = 500.0;
        let c = 343.0;
        let tone: Vec<f64> = Sine::new(f0, fs).take(16_000).collect();
        let scene = SceneBuilder::new(fs)
            .source(SoundSource::new(
                tone,
                Trajectory::linear(
                    Position::new(-200.0, 0.0, 1.0),
                    Position::new(0.0, 0.0, 1.0),
                    30.0,
                ),
            ))
            .array(MicrophoneArray::custom(vec![Position::new(0.0, 0.0, 1.0)]).unwrap())
            .reflection(false)
            .air_absorption(false)
            .build()
            .unwrap();
        let audio = Simulator::new(scene).unwrap().run().unwrap();
        let ch = audio.channel(0);
        // Estimate the received frequency by zero-crossing counting over the second
        // second of audio (propagation delay has flushed by then).
        let seg = &ch[8000..16_000];
        let mut crossings = 0;
        for w in seg.windows(2) {
            if w[0] <= 0.0 && w[1] > 0.0 {
                crossings += 1;
            }
        }
        let est = crossings as f64 * fs / seg.len() as f64;
        let expected = f0 * c / (c - 30.0);
        assert!(
            (est - expected).abs() < 6.0,
            "estimated {est}, expected {expected}"
        );
    }

    #[test]
    fn source_below_road_is_rejected() {
        let fs = 8000.0;
        let scene = SceneBuilder::new(fs)
            .source(SoundSource::new(
                vec![0.1; 16],
                Trajectory::fixed(Position::new(5.0, 0.0, -1.0)),
            ))
            .array(MicrophoneArray::linear(
                1,
                0.1,
                Position::new(0.0, 0.0, 1.0),
            ))
            .build()
            .unwrap();
        let err = Simulator::new(scene).unwrap_err();
        assert!(matches!(err, RoadSimError::InvalidSource { index: 0, .. }));
    }

    #[test]
    fn two_source_render_is_the_sum_of_single_source_renders() {
        let fs = 8000.0;
        let tone_a: Vec<f64> = Sine::new(500.0, fs).take(4000).collect();
        let tone_b: Vec<f64> = Sine::new(730.0, fs).take(4000).collect();
        let src_a = SoundSource::new(
            tone_a,
            Trajectory::linear(
                Position::new(-20.0, 4.0, 1.0),
                Position::new(20.0, 4.0, 1.0),
                15.0,
            ),
        );
        let src_b = SoundSource::new(tone_b, Trajectory::fixed(Position::new(8.0, -3.0, 0.8)))
            .with_gain(0.5);
        let array = MicrophoneArray::linear(3, 0.15, Position::new(0.0, 0.0, 1.0));
        let render = |sources: Vec<SoundSource>| {
            let scene = SceneBuilder::new(fs)
                .sources(sources)
                .array(array.clone())
                .reflection(true)
                .air_absorption(true)
                .filter_taps(33)
                .build()
                .unwrap();
            Simulator::new(scene).unwrap().run().unwrap()
        };
        let both = render(vec![src_a.clone(), src_b.clone()]);
        let only_a = render(vec![src_a]);
        let only_b = render(vec![src_b]);
        assert_eq!(both.num_channels(), 3);
        for m in 0..3 {
            for i in 0..both.len() {
                let expected = only_a.channel(m)[i] + only_b.channel(m)[i];
                assert!(
                    (both.channel(m)[i] - expected).abs() == 0.0,
                    "channel {m} sample {i} diverged"
                );
            }
        }
    }

    #[test]
    fn delayed_source_is_silent_until_its_onset() {
        let fs = 8000.0;
        let tone: Vec<f64> = Sine::new(600.0, fs).take(2000).collect();
        // Static source 17.15 m away (~0.05 s = 400 samples of propagation) whose
        // signal only starts at t = 0.25 s (2000 samples).
        let scene = SceneBuilder::new(fs)
            .source(
                SoundSource::new(tone, Trajectory::fixed(Position::new(17.15, 0.0, 1.0)))
                    .with_start(0.25),
            )
            .array(MicrophoneArray::custom(vec![Position::new(0.0, 0.0, 1.0)]).unwrap())
            .reflection(false)
            .air_absorption(false)
            .build()
            .unwrap();
        let audio = Simulator::new(scene).unwrap().run().unwrap();
        assert_eq!(audio.len(), 4000);
        let ch = audio.channel(0);
        assert!(rms(&ch[..2300]) < 1e-9, "energy before onset + propagation");
        assert!(rms(&ch[2500..]) > 1e-3, "no energy after onset");
    }

    #[test]
    fn onset_fast_forward_matches_explicit_zero_padding() {
        // `with_start` skips the pre-onset region entirely; rendering the same
        // signal with the onset baked in as literal leading zeros must produce a
        // bit-identical result (the skipped machinery only shuffles zeros).
        let fs = 8000.0;
        let onset = 0.17; // 1360 samples
        let tone: Vec<f64> = Sine::new(640.0, fs).take(2000).collect();
        let traj = Trajectory::linear(
            Position::new(-12.0, 3.0, 1.0),
            Position::new(12.0, 3.0, 1.0),
            16.0,
        );
        let array = MicrophoneArray::linear(2, 0.2, Position::new(0.0, 0.0, 1.0));
        let render = |source: SoundSource| {
            let scene = SceneBuilder::new(fs)
                .source(source)
                .array(array.clone())
                .reflection(true)
                .air_absorption(true)
                .filter_taps(33)
                .build()
                .unwrap();
            Simulator::new(scene).unwrap().run().unwrap()
        };
        let delayed = render(SoundSource::new(tone.clone(), traj.clone()).with_start(onset));
        let mut padded_signal = vec![0.0; (onset * fs).round() as usize];
        padded_signal.extend_from_slice(&tone);
        let padded = render(SoundSource::new(padded_signal, traj));
        assert_eq!(delayed, padded);
    }

    #[test]
    fn many_source_render_matches_sequential_sum() {
        // More sources than a typical core count exercises the chunked worker split.
        let fs = 8000.0;
        let array = MicrophoneArray::linear(2, 0.2, Position::new(0.0, 0.0, 1.0));
        let sources: Vec<SoundSource> = (0..9)
            .map(|k| {
                let tone: Vec<f64> = Sine::new(300.0 + 70.0 * k as f64, fs).take(1600).collect();
                SoundSource::new(
                    tone,
                    Trajectory::fixed(Position::new(5.0 + k as f64, -4.0 + k as f64, 1.0)),
                )
            })
            .collect();
        let scene = SceneBuilder::new(fs)
            .sources(sources.clone())
            .array(array.clone())
            .reflection(false)
            .air_absorption(false)
            .build()
            .unwrap();
        // Force several workers so the chunked split is exercised even on
        // single-core CI machines, and check every worker count agrees.
        let sim = Simulator::new(scene).unwrap();
        let parallel = sim.run_with_threads(3).unwrap();
        assert_eq!(sim.run_with_threads(1).unwrap(), parallel);
        assert_eq!(sim.run_with_threads(4).unwrap(), parallel);
        assert_eq!(sim.run_with_threads(64).unwrap(), parallel);
        assert_eq!(sim.run().unwrap(), parallel);
        let mut expected = vec![vec![0.0; 1600]; 2];
        for source in sources {
            let scene = SceneBuilder::new(fs)
                .source(source)
                .array(array.clone())
                .reflection(false)
                .air_absorption(false)
                .build()
                .unwrap();
            let solo = Simulator::new(scene).unwrap().run().unwrap();
            for (acc, ch) in expected.iter_mut().zip(solo.channels()) {
                for (a, x) in acc.iter_mut().zip(ch) {
                    *a += x;
                }
            }
        }
        for (m, exp_ch) in expected.iter().enumerate() {
            for (i, (&got, &want)) in parallel.channel(m).iter().zip(exp_ch).enumerate() {
                assert!((got - want).abs() < 1e-12, "channel {m} sample {i}");
            }
        }
    }

    #[test]
    fn canyon_adds_delayed_wall_energy() {
        use crate::environment::StreetCanyon;
        let fs = 8000.0;
        let tone: Vec<f64> = Sine::new(500.0, fs).take(8000).collect();
        let build = |canyon: Option<StreetCanyon>| {
            let mut b = SceneBuilder::new(fs)
                .source(SoundSource::new(
                    tone.clone(),
                    Trajectory::fixed(Position::new(15.0, 2.0, 1.0)),
                ))
                .array(MicrophoneArray::custom(vec![Position::new(0.0, 0.0, 1.0)]).unwrap())
                .reflection(false)
                .air_absorption(false);
            if let Some(c) = canyon {
                b = b.canyon(c);
            }
            Simulator::new(b.build().unwrap()).unwrap().run().unwrap()
        };
        let free_field = build(None);
        let canyon = build(Some(StreetCanyon::new(12.0, 0.6).unwrap()));
        // The wall images add (incoherently) to the direct path...
        let rms_free = rms(&free_field.channel(0)[4000..]);
        let rms_canyon = rms(&canyon.channel(0)[4000..]);
        assert!(rms_canyon > rms_free * 1.02, "{rms_canyon} vs {rms_free}");
        // ...and arrive strictly after it: the first-arrival sample is identical.
        let first = |ch: &[f64]| ch.iter().position(|&x| x.abs() > 1e-9).unwrap();
        assert_eq!(first(free_field.channel(0)), first(canyon.channel(0)));
        // A perfectly absorbing canyon is bit-identical to the free field.
        let absorbing = build(Some(StreetCanyon::new(12.0, 0.0).unwrap()));
        assert_eq!(absorbing, free_field);
    }

    #[test]
    fn canyon_rejects_sources_outside_the_walls() {
        use crate::environment::StreetCanyon;
        let fs = 8000.0;
        let scene = SceneBuilder::new(fs)
            .source(SoundSource::new(
                vec![0.1; 64],
                Trajectory::fixed(Position::new(10.0, 9.0, 1.0)),
            ))
            .array(MicrophoneArray::custom(vec![Position::new(0.0, 0.0, 1.0)]).unwrap())
            .canyon(StreetCanyon::new(12.0, 0.5).unwrap())
            .build()
            .unwrap();
        let err = Simulator::new(scene).unwrap_err();
        assert!(matches!(err, RoadSimError::InvalidSource { index: 0, .. }));
    }

    #[test]
    fn occluder_attenuates_the_shadowed_source() {
        use crate::environment::Occluder;
        let fs = 8000.0;
        let tone: Vec<f64> = Sine::new(500.0, fs).take(8000).collect();
        let build = |occluder: Option<Occluder>| {
            let mut b = SceneBuilder::new(fs)
                .source(SoundSource::new(
                    tone.clone(),
                    Trajectory::fixed(Position::new(20.0, 0.0, 1.0)),
                ))
                .array(MicrophoneArray::custom(vec![Position::new(0.0, 0.0, 1.0)]).unwrap())
                .reflection(false)
                .air_absorption(false);
            if let Some(o) = occluder {
                b = b.occluder(o);
            }
            Simulator::new(b.build().unwrap()).unwrap().run().unwrap()
        };
        let clear = build(None);
        let wall = Occluder::screen(
            Position::new(8.0, -10.0, 0.0),
            Position::new(8.0, 10.0, 0.0),
            6.0,
        );
        let shadowed = build(Some(wall));
        let rms_clear = rms(&clear.channel(0)[4000..]);
        let rms_shadow = rms(&shadowed.channel(0)[4000..]);
        let ratio = rms_shadow / rms_clear;
        // Deep shadow: the residual is the diffraction transmission exactly.
        assert!(
            (ratio - crate::environment::DEFAULT_TRANSMISSION).abs() < 0.01,
            "shadow ratio {ratio}"
        );
    }

    #[test]
    fn around_the_corner_approach_emerges_gradually() {
        use crate::environment::Occluder;
        let fs = 8000.0;
        let tone: Vec<f64> = Sine::new(500.0, fs).take(24_000).collect();
        // A source driving down a side street (x = 15, y from 30 to -10 over
        // 3 s) behind a building wall along x = 6, y in [3, 40]: occluded at
        // first, emerging as it passes the corner at y = 3.
        let scene = SceneBuilder::new(fs)
            .source(SoundSource::new(
                tone,
                Trajectory::linear(
                    Position::new(15.0, 30.0, 1.0),
                    Position::new(15.0, -10.0, 1.0),
                    40.0 / 3.0,
                ),
            ))
            .array(MicrophoneArray::custom(vec![Position::new(0.0, 0.0, 1.0)]).unwrap())
            .occluder(Occluder::screen(
                Position::new(6.0, 3.0, 0.0),
                Position::new(6.0, 40.0, 0.0),
                8.0,
            ))
            .reflection(false)
            .air_absorption(false)
            .build()
            .unwrap();
        let audio = Simulator::new(scene).unwrap().run().unwrap();
        let ch = audio.channel(0);
        // Early (deep shadow) vs late (clear) energy, after propagation flush.
        let early = rms(&ch[4000..8000]);
        let late = rms(&ch[18_000..22_000]);
        assert!(early > 1e-6, "diffraction leakage should be audible");
        assert!(late > 3.0 * early, "emergence: early {early}, late {late}");
        // No clicks at the shadow boundary: adjacent-sample jumps stay small.
        let max_jump = ch
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0f64, f64::max);
        let peak = ch.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        // A 500 Hz tone at 8 kHz moves at most ~2*pi*500/8000 * peak ~ 0.39*peak
        // per sample; a gain step would approach 2*peak.
        assert!(max_jump < 0.6 * peak, "jump {max_jump} vs peak {peak}");
    }
}
