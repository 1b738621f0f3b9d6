//! Experiment E3 — detection robustness versus SNR.
//!
//! The paper motivates deep learning detectors by their robustness to the strong,
//! dynamic background noise of the automotive scene (SNR down to −30 dB in the
//! dataset). This experiment trains the small CNN detector and compares it against the
//! two classical baselines across an SNR sweep, reproducing the qualitative shape:
//! every method degrades as SNR drops, and the learned detector stays ahead of the
//! energy threshold at low SNR.

use ispot_bench::dataset::{Dataset, DatasetConfig};
use ispot_bench::detector::{CnnDetector, DetectorConfig};
use ispot_bench::{full_scale_requested, print_header, print_row};
use ispot_sed::baseline::{EnergyDetector, SpectralTemplateDetector};
use ispot_sed::EventClass;

fn dataset_at_snr(snr_db: f64, num_samples: usize, seed: u64) -> Dataset {
    let config = DatasetConfig {
        num_samples,
        duration_s: 1.0,
        spatialize: false,
        snr_min_db: snr_db - 2.0,
        snr_max_db: snr_db + 2.0,
        background_fraction: 0.4,
        ..DatasetConfig::default()
    };
    Dataset::generate(&config, seed).expect("dataset generation succeeds")
}

fn main() {
    let full = full_scale_requested();
    let (train_samples, test_samples) = if full { (600, 200) } else { (120, 60) };
    print_header(
        "E3 - detection accuracy vs SNR (CNN vs classical baselines)",
        "DL-based detection is robust to strong background noise (SNR down to -30 dB)",
    );
    // Train the CNN on a mixture of SNRs (the paper's dataset covers [-30, 0] dB).
    let train = Dataset::generate(
        &DatasetConfig {
            num_samples: train_samples,
            duration_s: 1.0,
            spatialize: false,
            snr_min_db: -20.0,
            snr_max_db: 5.0,
            background_fraction: 0.4,
            ..DatasetConfig::default()
        },
        7,
    )
    .expect("training set");
    let mut cnn = CnnDetector::new(
        if full {
            DetectorConfig::default()
        } else {
            DetectorConfig::tiny()
        },
        16_000.0,
    )
    .expect("detector");
    print_row("CNN parameters", cnn.num_parameters());
    print_row("training samples", train.len());
    let started = std::time::Instant::now();
    let losses = cnn.train(&train).expect("training succeeds");
    print_row(
        "training time (s) / final loss",
        format!(
            "{:.1} / {:.3}",
            started.elapsed().as_secs_f64(),
            losses.last().unwrap()
        ),
    );
    let energy = EnergyDetector::new(16_000.0).expect("energy detector");
    let template = SpectralTemplateDetector::new(16_000.0).expect("template detector");
    println!(
        "\n  {:>8}  {:>14}  {:>14}  {:>14}",
        "SNR (dB)", "CNN acc", "template acc", "energy det acc"
    );
    for snr in [0.0, -10.0, -20.0, -30.0] {
        let test = dataset_at_snr(snr, test_samples, 1000 + snr.abs() as u64);
        let cnn_report = test
            .evaluate(|audio| cnn.predict(audio))
            .expect("cnn evaluation");
        let template_report = test
            .evaluate(|audio| template.predict(audio))
            .expect("template evaluation");
        let energy_report = test
            .evaluate(|audio| {
                energy.detect(audio).map(|hit| {
                    if hit {
                        EventClass::WailSiren
                    } else {
                        EventClass::Background
                    }
                })
            })
            .expect("energy evaluation");
        println!(
            "  {:>8.0}  {:>14.3}  {:>14.3}  {:>14.3}",
            snr,
            cnn_report.event_detection_accuracy(),
            template_report.event_detection_accuracy(),
            energy_report.event_detection_accuracy()
        );
    }
    println!(
        "\n  (multi-class macro-F1 of the CNN at 0 dB: {:.3})",
        dataset_at_snr(0.0, test_samples, 999)
            .evaluate(|audio| cnn.predict(audio))
            .expect("evaluation")
            .macro_f1()
    );
}
