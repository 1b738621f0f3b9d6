//! Experiment E9 — drive versus park operating modes.
//!
//! The project requires "multi-mode and computationally efficient" operation: a
//! fully-functional low-latency driving mode and a trigger-based low-power parking mode
//! (Sec. II, requirement 3). This experiment measures the analysis duty cycle, the
//! wake-up latency and the modelled average power of both modes on the same scene: a
//! long quiet period followed by an approaching siren.

use ispot_bench::{cross3d_baseline_graph, print_header, print_row, SAMPLE_RATE};
use ispot_codesign::platform::EdgePlatform;
use ispot_core::api::PipelineBuilder;
use ispot_core::mode::OperatingMode;
use ispot_core::pipeline::PipelineConfig;
use ispot_roadsim::engine::MultichannelAudio;
use ispot_sed::noise::UrbanNoiseSynthesizer;
use ispot_sed::sirens::{SirenKind, SirenSynthesizer};

fn build_scene_audio() -> (MultichannelAudio, usize) {
    let fs = SAMPLE_RATE;
    // 3 s of quiet urban background followed by 2 s with a loud siren on top.
    let mut signal: Vec<f64> = UrbanNoiseSynthesizer::new(fs, 9)
        .synthesize(3.0)
        .iter()
        .map(|x| x * 0.02)
        .collect();
    let quiet_len = signal.len();
    let background: Vec<f64> = UrbanNoiseSynthesizer::new(fs, 10)
        .synthesize(2.0)
        .iter()
        .map(|x| x * 0.02)
        .collect();
    let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(2.0);
    signal.extend(siren.iter().zip(&background).map(|(s, n)| 0.6 * s + n));
    (MultichannelAudio::new(vec![signal], fs), quiet_len)
}

fn main() {
    print_header(
        "E9 - drive mode vs trigger-based park mode",
        "multi-mode operation: low-latency drive mode, low-power always-on park mode",
    );
    let (audio, quiet_len) = build_scene_audio();
    let platform = EdgePlatform::raspberry_pi4();
    let graph = cross3d_baseline_graph();
    let frame_ms = PipelineConfig::default().hop as f64 / SAMPLE_RATE * 1e3;
    println!(
        "\n  scene: {:.1} s quiet background, then a wail siren (event starts at {:.1} s)",
        audio.len() as f64 / SAMPLE_RATE,
        quiet_len as f64 / SAMPLE_RATE
    );
    println!(
        "\n  {:<10} {:>12} {:>14} {:>18} {:>16}",
        "mode", "duty cycle", "events", "wake latency (ms)", "avg power (W)"
    );
    for mode in [OperatingMode::Drive, OperatingMode::Park] {
        let mut pipeline = PipelineBuilder::new(SAMPLE_RATE)
            .mode(mode)
            .build()
            .expect("pipeline");
        let mut events = Vec::new();
        pipeline
            .process_recording_with(&audio, &mut events)
            .expect("processing");
        let first_alert = events.iter().find(|e| e.is_alert());
        let wake_latency_ms = first_alert
            .map(|e| (e.time_s - quiet_len as f64 / SAMPLE_RATE).max(0.0) * 1e3 + frame_ms)
            .unwrap_or(f64::NAN);
        let duty = pipeline.analysis_duty_cycle();
        // Average power: the expensive graph runs only on analysed frames.
        let wakeups_per_second = duty * SAMPLE_RATE / PipelineConfig::default().hop as f64;
        let power = platform.duty_cycled_power_w(&graph, wakeups_per_second);
        println!(
            "  {:<10} {:>12.2} {:>14} {:>18.1} {:>16.2}",
            mode.label(),
            duty,
            events.iter().filter(|e| e.is_alert()).count(),
            wake_latency_ms,
            power
        );
    }
    println!();
    print_row(
        "park-mode power saving vs drive mode",
        "the duty cycle (and therefore average power) drops while the siren is still reported",
    );
}
