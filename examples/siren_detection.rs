//! Emergency-sound detection: generate a small dataset with the paper's protocol,
//! train the CNN detector and compare it against the classical baselines.
//!
//! Run with: `cargo run --release --example siren_detection`

use ispot::core::prelude::*;
use ispot::sed::baseline::{EnergyDetector, SpectralTemplateDetector};
use ispot::sed::sirens::{SirenKind, SirenSynthesizer};
use ispot::sed::EventClass;
use ispot_bench::dataset::{Dataset, DatasetConfig};
use ispot_bench::detector::{CnnDetector, DetectorConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fs = 16_000.0;

    // A reduced version of the paper's 15 000-sample protocol (Sec. IV-A): events on
    // random trajectories mixed with urban noise at random SNR.
    let config = DatasetConfig {
        num_samples: 160,
        duration_s: 1.0,
        spatialize: false, // set to true for the full road-acoustics rendering
        snr_min_db: -15.0,
        snr_max_db: 5.0,
        background_fraction: 0.3,
        ..DatasetConfig::default()
    };
    println!("generating {} samples...", config.num_samples);
    let dataset = Dataset::generate(&config, 42)?;
    let (train, test) = dataset.split(0.75)?;
    println!(
        "train: {} samples, test: {} samples",
        train.len(),
        test.len()
    );

    // Train the low-complexity CNN detector.
    let mut cnn = CnnDetector::new(DetectorConfig::tiny(), fs)?;
    println!("training CNN ({} parameters)...", cnn.num_parameters());
    let losses = cnn.train(&train)?;
    println!(
        "loss: {:.3} -> {:.3} over {} epochs",
        losses.first().unwrap(),
        losses.last().unwrap(),
        losses.len()
    );

    // Evaluate against the classical baselines.
    let cnn_report = test.evaluate(|audio| cnn.predict(audio))?;
    let template = SpectralTemplateDetector::new(fs)?;
    let template_report = test.evaluate(|audio| template.predict(audio))?;
    // The energy baseline is binary: a hit scores as any event class.
    let energy = EnergyDetector::new(fs)?;
    let energy_accuracy = test
        .evaluate(|audio| {
            energy.detect(audio).map(|hit| {
                if hit {
                    EventClass::WailSiren
                } else {
                    EventClass::Background
                }
            })
        })?
        .event_detection_accuracy();

    println!("\nCNN detector:\n{cnn_report}");
    println!("spectral-template baseline:\n{template_report}");
    println!("energy-threshold baseline (event detection accuracy): {energy_accuracy:.3}");

    // Finally, run detection the way it is deployed: a perception engine fed by
    // a capture driver. The driver side delivers interleaved 16-bit PCM blocks;
    // the session converts and de-interleaves them straight into its frame
    // assembler and reports events by reference through a sink — zero heap
    // allocation per frame in steady state.
    let engine = PipelineBuilder::new(fs).channels(1).build_engine()?;
    let mut session = engine.open_session();
    let pcm: Vec<i16> = SirenSynthesizer::new(SirenKind::Yelp, fs)
        .synthesize(1.5)
        .iter()
        .map(|x| (x * 24_000.0).round().clamp(-32768.0, 32767.0) as i16)
        .collect();
    let mut counter = AlertCounter::new();
    for block in pcm.chunks(160) {
        // 10 ms capture blocks at 16 kHz
        session.push_input_with(AudioInput::interleaved(block, 1), &mut counter)?;
    }
    println!(
        "\nstreaming deployment: {} frames analysed, {} alert events ({} total)",
        counter.frames, counter.alerts, counter.events
    );
    Ok(())
}
