//! Ablation A1 — delay-line interpolation quality versus Doppler accuracy.
//!
//! The fractional-delay interpolation method is the key design choice of the
//! propagation model (pyroadacoustics uses high-order interpolation for exactly this
//! reason). This ablation measures the observed-frequency error of a fast
//! pass-by for every interpolation kind, plus the cost of the asphalt/air FIR length on
//! the rendered spectrum, quantifying the accuracy/complexity trade-off that feeds the
//! co-design loop.

use ispot_bench::{print_header, print_row, SAMPLE_RATE};
use ispot_dsp::generator::Sine;
use ispot_dsp::interp::Interpolator;
use ispot_roadsim::doppler::observed_frequency;
use ispot_roadsim::engine::Simulator;
use ispot_roadsim::geometry::Position;
use ispot_roadsim::microphone::MicrophoneArray;
use ispot_roadsim::scene::SceneBuilder;
use ispot_roadsim::source::SoundSource;
use ispot_roadsim::trajectory::Trajectory;

/// Renders a fast head-on approach with the given interpolation kind and returns the
/// signal-to-distortion ratio (dB): energy near the analytically expected
/// Doppler-shifted tone (and its synthesis harmonics are absent here) versus everything
/// else. Coarser interpolation produces "zipper" distortion that spreads energy across
/// the spectrum.
fn doppler_sdr_db(interpolation: Interpolator) -> f64 {
    let fs = SAMPLE_RATE;
    let f0 = 880.0;
    let speed = 30.0;
    let tone: Vec<f64> = Sine::new(f0, fs).take(24_000).collect();
    let trajectory = Trajectory::linear(
        Position::new(-250.0, 0.0, 1.0),
        Position::new(0.0, 0.0, 1.0),
        speed,
    );
    let mic = Position::new(0.0, 0.0, 1.0);
    let scene = SceneBuilder::new(fs)
        .source(SoundSource::new(tone, trajectory.clone()))
        .array(MicrophoneArray::custom(vec![mic]).unwrap())
        .reflection(false)
        .air_absorption(false)
        .interpolation(interpolation)
        .build()
        .unwrap();
    let audio = Simulator::new(scene).unwrap().run().unwrap();
    let n = 8192;
    let seg = &audio.channel(0)[14_000..14_000 + n];
    let expected = observed_frequency(&trajectory, mic, 14_500.0 / fs, 343.0, f0);
    let spectrum = ispot_dsp::fft::Fft::new(n).forward_real(seg).unwrap();
    let expected_bin = (expected / fs * n as f64).round() as usize;
    let mut signal_energy = 0.0;
    let mut total_energy = 0.0;
    for (k, c) in spectrum.iter().take(n / 2).enumerate() {
        let e = c.norm_sqr();
        total_energy += e;
        if (k as isize - expected_bin as isize).abs() <= 4 {
            signal_energy += e;
        }
    }
    10.0 * (signal_energy / (total_energy - signal_energy).max(1e-15)).log10()
}

fn main() {
    print_header(
        "A1 - ablation: delay-line interpolation and FIR length",
        "design-choice ablation backing the propagation model and the co-design cost trade-offs",
    );
    println!("\n[interpolation kind vs Doppler rendering quality, 880 Hz tone, 30 m/s approach]");
    println!("  (signal-to-distortion ratio of the received tone; higher is better)");
    for (name, kind, cost) in [
        ("nearest (zero-order)", Interpolator::Nearest, "1 read"),
        ("linear", Interpolator::Linear, "2 reads"),
        ("lagrange-3", Interpolator::Lagrange3, "4 reads"),
        ("windowed sinc (8 taps)", Interpolator::Sinc8, "8 reads"),
    ] {
        let sdr = doppler_sdr_db(kind);
        print_row(&format!("{name:<24} ({cost})"), format!("{sdr:.1} dB SDR"));
    }

    println!("\n[air-absorption FIR length vs response accuracy at 200 m]");
    let atmosphere = ispot_roadsim::atmosphere::Atmosphere::default();
    let fs = SAMPLE_RATE;
    for taps in [17usize, 33, 65, 129] {
        let filter = atmosphere.absorption_filter(200.0, fs, taps).unwrap();
        // Compare the filter response against the analytic absorption at a few probes.
        let mut worst: f64 = 0.0;
        for freq in [500.0, 2000.0, 4000.0, 7000.0] {
            let target = 10f64.powf(-atmosphere.absorption_db_per_m(freq) * 200.0 / 20.0);
            let (actual, _) = filter.frequency_response(freq, fs);
            worst = worst.max((actual - target).abs());
        }
        print_row(
            &format!("{taps:>4} taps"),
            format!("worst-case magnitude error {worst:.3}"),
        );
    }
    println!("\n  (longer filters buy accuracy at linear cost per sample - the DSP-side");
    println!("   counterpart of the network-compression trade-off explored in E5/E7)");
}
