//! # ispot-bench
//!
//! Shared helpers for the experiment binaries (`src/bin/exp_*.rs`) and Criterion
//! benches that regenerate every quantitative claim of the paper's evaluation.
//!
//! It also holds the paper's offline detection tools, which the runtime crates
//! do not compile: the [`dataset`] generator (events rendered through the road
//! simulator and mixed with urban noise) and the [`detector`] CNN that the
//! co-design experiments compress.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod detector;
pub mod matrix;
pub mod scenarios;

use ispot_codesign::ir::{OpGraph, OpNode};
use ispot_roadsim::engine::{MultichannelAudio, Simulator};
use ispot_roadsim::geometry::Position;
use ispot_roadsim::microphone::MicrophoneArray;
use ispot_roadsim::scene::SceneBuilder;
use ispot_roadsim::source::SoundSource;
use ispot_roadsim::trajectory::Trajectory;

/// Sampling rate used by every experiment (matches the dataset protocol).
pub const SAMPLE_RATE: f64 = 16_000.0;

/// Builds the operator graph of the Cross3D-style hybrid pipeline at baseline
/// resolution: STFT front-end, GCC-PHAT for 15 microphone pairs, SRP steering over 181
/// directions and the CNN back-end. The absolute sizes follow the shapes used in the
/// `ispot-ssl` implementation so the cost model reflects the code that actually runs.
pub fn cross3d_baseline_graph() -> OpGraph {
    let mut g = OpGraph::new("cross3d-baseline");
    // Six microphones -> one FFT per channel (frame 2048).
    for m in 0..6 {
        g.push(OpNode::fft(&format!("fft_ch{m}"), 2048));
    }
    // 15 pairs of PHAT-weighted cross spectra.
    for p in 0..15 {
        g.push(OpNode::gcc_phat(&format!("gcc_pair{p}"), 1024));
    }
    // Conventional frequency-domain steering: 15 pairs x 181 directions x 850 bins.
    g.push(OpNode::srp_steering("srp_steering", 15, 181, 850));
    // Cross3D-style CNN over stacked SRP maps (16 x 181 input).
    g.push(OpNode::conv2d("conv1", 1, 32, (3, 3), (16, 181), 1));
    g.push(OpNode::activation("relu1", 32 * 16 * 181));
    g.push(OpNode::pool("pool1", 32 * 8 * 90));
    g.push(OpNode::conv2d("conv2", 32, 64, (3, 3), (8, 90), 1));
    g.push(OpNode::activation("relu2", 64 * 8 * 90));
    g.push(OpNode::pool("pool2", 64 * 4 * 45));
    g.push(OpNode::conv2d("conv3", 64, 64, (3, 3), (4, 45), 1));
    g.push(OpNode::pool("pool3", 64 * 2 * 22));
    g.push(OpNode::dense("fc1", 64 * 2 * 22, 512));
    g.push(OpNode::dense("fc2", 512, 181));
    g
}

/// Simulates a static broadband source at the given azimuth and distance, received by a
/// circular array, returning the rendered channels and the array geometry.
pub fn simulate_static_source(
    azimuth_deg: f64,
    distance_m: f64,
    num_mics: usize,
    num_samples: usize,
    seed: u64,
) -> (MultichannelAudio, MicrophoneArray) {
    let az = azimuth_deg.to_radians();
    let source_pos = Position::new(distance_m * az.cos(), distance_m * az.sin(), 1.0);
    let signal: Vec<f64> =
        ispot_dsp::generator::NoiseSource::new(ispot_dsp::generator::NoiseKind::White, seed)
            .take(num_samples)
            .collect();
    let array = MicrophoneArray::circular(num_mics, 0.2, Position::new(0.0, 0.0, 1.0));
    let scene = SceneBuilder::new(SAMPLE_RATE)
        .source(SoundSource::new(signal, Trajectory::fixed(source_pos)))
        .array(array.clone())
        .reflection(false)
        .air_absorption(false)
        .build()
        .expect("valid scene");
    let audio = Simulator::new(scene)
        .expect("valid simulator")
        .run()
        .expect("simulation succeeds");
    (audio, array)
}

/// Simulates a source driving past the array while emitting `signal`, returning the
/// rendered channels and the array.
pub fn simulate_drive_by(
    signal: Vec<f64>,
    speed_mps: f64,
    lateral_offset_m: f64,
    num_mics: usize,
) -> (MultichannelAudio, MicrophoneArray) {
    let array = MicrophoneArray::circular(num_mics, 0.2, Position::new(0.0, 0.0, 1.0));
    let scene = SceneBuilder::new(SAMPLE_RATE)
        .source(SoundSource::new(
            signal,
            Trajectory::linear(
                Position::new(-60.0, lateral_offset_m, 1.0),
                Position::new(60.0, lateral_offset_m, 1.0),
                speed_mps,
            ),
        ))
        .array(array.clone())
        .reflection(true)
        .air_absorption(false)
        .filter_taps(33)
        .build()
        .expect("valid scene");
    let audio = Simulator::new(scene)
        .expect("valid simulator")
        .run()
        .expect("simulation succeeds");
    (audio, array)
}

/// Prints a section header for experiment output.
pub fn print_header(experiment: &str, claim: &str) {
    println!("================================================================");
    println!("{experiment}");
    println!("paper claim: {claim}");
    println!("================================================================");
}

/// Prints one `label: value` row with aligned columns.
pub fn print_row(label: &str, value: impl std::fmt::Display) {
    println!("  {label:<42} {value}");
}

/// Wall-clock statistics of one timed kernel, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTime {
    /// Mean over the measured repetitions.
    pub mean_ms: f64,
    /// Fastest measured repetition.
    pub min_ms: f64,
}

/// Times `f` on the host: `warmup` unmeasured calls, then `reps` measured ones
/// (at least one). Results pass through `black_box` so the work is kept.
pub fn time_kernel<T>(warmup: usize, reps: usize, mut f: impl FnMut() -> T) -> KernelTime {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let reps = reps.max(1);
    let (mut total_ms, mut min_ms) = (0.0, f64::INFINITY);
    for _ in 0..reps {
        let start = std::time::Instant::now();
        std::hint::black_box(f());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        total_ms += ms;
        min_ms = min_ms.min(ms);
    }
    KernelTime {
        mean_ms: total_ms / reps as f64,
        min_ms,
    }
}

/// Returns true if `--full` was passed on the command line (experiments then run the
/// complete paper-scale protocol instead of the quick default).
pub fn full_scale_requested() -> bool {
    std::env::args().any(|a| a == "--full")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross3d_graph_is_large_and_has_srp_bottleneck_or_cnn() {
        let g = cross3d_baseline_graph();
        assert!(g.len() > 20);
        assert!(g.total_parameters() > 1_000_000);
        assert!(g.total_macs() > 10_000_000);
    }

    #[test]
    fn time_kernel_runs_at_least_one_repetition() {
        let mut calls = 0;
        let t = time_kernel(2, 0, || calls += 1);
        assert_eq!(calls, 3);
        assert!(t.min_ms >= 0.0 && t.min_ms <= t.mean_ms);
    }

    #[test]
    fn simulation_helpers_produce_audio() {
        let (audio, array) = simulate_static_source(30.0, 15.0, 4, 4096, 1);
        assert_eq!(audio.num_channels(), 4);
        assert_eq!(array.len(), 4);
        assert_eq!(audio.len(), 4096);
    }
}
