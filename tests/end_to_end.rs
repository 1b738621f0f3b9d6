//! Integration tests spanning the whole workspace: simulation → features → detection →
//! localization → pipeline → co-design.

use ispot::codesign::dse::{AnalyticEvaluator, CoDesignLoop, DesignSpace};
use ispot::codesign::ir::OpGraph;
use ispot::codesign::platform::EdgePlatform;
use ispot::core::api::PipelineBuilder;
use ispot::core::mode::OperatingMode;
use ispot::roadsim::prelude::*;
use ispot::sed::baseline::SpectralTemplateDetector;
use ispot::sed::dataset::{Dataset, DatasetConfig};
use ispot::sed::sirens::{SirenKind, SirenSynthesizer};
use ispot::sed::EventClass;
use ispot::ssl::metrics::angular_error_deg;
use ispot::ssl::srp_fast::SrpPhatFast;
use ispot::ssl::srp_phat::{SrpConfig, SrpPhat};

const FS: f64 = 16_000.0;

fn render_static_siren(
    azimuth_deg: f64,
    mics: usize,
) -> (ispot::roadsim::engine::MultichannelAudio, MicrophoneArray) {
    let siren = SirenSynthesizer::new(SirenKind::Wail, FS).synthesize(1.0);
    let az = azimuth_deg.to_radians();
    let array = MicrophoneArray::circular(mics, 0.2, Position::new(0.0, 0.0, 1.0));
    let scene = SceneBuilder::new(FS)
        .source(SoundSource::new(
            siren,
            Trajectory::fixed(Position::new(18.0 * az.cos(), 18.0 * az.sin(), 1.0)),
        ))
        .array(array.clone())
        .reflection(false)
        .air_absorption(false)
        .build()
        .unwrap();
    (Simulator::new(scene).unwrap().run().unwrap(), array)
}

#[test]
fn simulated_siren_is_detected_and_localized_end_to_end() {
    let truth = -60.0;
    let (audio, array) = render_static_siren(truth, 6);
    let mut pipeline = PipelineBuilder::new(FS).array(&array).build().unwrap();
    let mut events = Vec::new();
    pipeline
        .process_recording_with(&audio, &mut events)
        .unwrap();
    let alerts: Vec<_> = events.iter().filter(|e| e.is_alert()).collect();
    assert!(!alerts.is_empty(), "the siren was not detected");
    let mean_azimuth: f64 =
        alerts.iter().filter_map(|e| e.azimuth_deg).sum::<f64>() / alerts.len() as f64;
    assert!(
        angular_error_deg(mean_azimuth, truth) < 20.0,
        "mean azimuth {mean_azimuth} vs truth {truth}"
    );
}

#[test]
fn conventional_and_fast_srp_agree_on_simulated_scenes() {
    for &truth in &[25.0, -120.0] {
        let (audio, array) = render_static_siren(truth, 6);
        let config = SrpConfig::default();
        let conventional = SrpPhat::new(config, &array, FS).unwrap();
        let fast = SrpPhatFast::new(config, &array, FS).unwrap();
        let frame: Vec<&[f64]> = audio.channels().iter().map(|c| &c[8192..10240]).collect();
        let map_a = conventional.compute_map(&frame).unwrap();
        let map_b = fast.compute_map(&frame).unwrap();
        assert!(map_a.correlation(&map_b) > 0.97);
        let (_, az_a) = map_a.peak().expect("non-empty map");
        let (_, az_b) = map_b.peak().expect("non-empty map");
        assert!(angular_error_deg(az_a, az_b) <= 4.0);
        assert!(fast.coefficient_reduction() >= 0.5);
    }
}

#[test]
fn detector_separates_dataset_classes_from_background() {
    let dataset = Dataset::generate(
        &DatasetConfig {
            num_samples: 30,
            duration_s: 0.8,
            spatialize: false,
            snr_min_db: 5.0,
            snr_max_db: 15.0,
            background_fraction: 0.4,
            ..DatasetConfig::default()
        },
        3,
    )
    .unwrap();
    let detector = SpectralTemplateDetector::new(FS).unwrap();
    let report = detector.evaluate(&dataset).unwrap();
    assert!(
        report.event_detection_accuracy() > 0.7,
        "event-detection accuracy {}",
        report.event_detection_accuracy()
    );
}

#[test]
fn park_mode_saves_work_but_still_detects_events() {
    // Quiet background followed by a loud horn.
    let mut signal: Vec<f64> = ispot::sed::noise::UrbanNoiseSynthesizer::new(FS, 2)
        .synthesize(2.0)
        .iter()
        .map(|x| x * 0.02)
        .collect();
    signal.extend(ispot::sed::sirens::synthesize_event(
        EventClass::CarHorn,
        FS,
        1.0,
    ));
    let audio = ispot::roadsim::engine::MultichannelAudio::new(vec![signal], FS);
    let run = |mode: OperatingMode| {
        let mut pipeline = PipelineBuilder::new(FS).mode(mode).build().unwrap();
        let mut events = Vec::new();
        pipeline
            .process_recording_with(&audio, &mut events)
            .unwrap();
        (pipeline.analysis_duty_cycle(), events)
    };
    let (drive_duty, drive_events) = run(OperatingMode::Drive);
    let (park_duty, park_events) = run(OperatingMode::Park);
    assert!(park_duty < drive_duty);
    assert!(drive_events.iter().any(|e| e.is_alert()));
    assert!(park_events.iter().any(|e| e.is_alert()));
}

#[test]
fn codesign_loop_runs_on_the_real_detector_graph() {
    // Build the IR straight from an (untrained) detector network and make sure the
    // exploration finds a feasible faster point on every platform model.
    let mut detector =
        ispot::sed::detector::CnnDetector::new(ispot::sed::detector::DetectorConfig::tiny(), FS)
            .unwrap();
    let graph = OpGraph::from_sequential("sed-cnn", detector.model_mut(), &[1, 16, 16]);
    assert_eq!(graph.total_parameters(), detector.num_parameters());
    for platform in [
        EdgePlatform::raspberry_pi4(),
        EdgePlatform::microcontroller(),
        EdgePlatform::accelerator(),
    ] {
        let mut evaluator = AnalyticEvaluator::new(graph.clone(), 0.9);
        let report = CoDesignLoop::new(platform, DesignSpace::default(), 0.8)
            .unwrap()
            .run(&mut evaluator)
            .unwrap();
        assert!(report.speedup() >= 1.0);
        assert!(report.size_reduction() >= 0.0);
        assert!(report.best.accuracy >= 0.8);
    }
}

#[test]
fn dataset_statistics_match_the_protocol() {
    let config = DatasetConfig {
        num_samples: 40,
        duration_s: 0.5,
        spatialize: false,
        ..DatasetConfig::default()
    };
    let dataset = Dataset::generate(&config, 9).unwrap();
    assert_eq!(dataset.len(), 40);
    for sample in dataset.samples() {
        assert_eq!(sample.audio.len(), (0.5 * FS) as usize);
        if let Some(snr) = sample.snr_db {
            assert!((-30.0..=0.0).contains(&snr));
        } else {
            assert_eq!(sample.label, EventClass::Background);
        }
    }
    // The paper-scale protocol is exposed but not generated here (it is exercised by
    // `exp_dataset --full`).
    assert_eq!(DatasetConfig::paper_protocol().num_samples, 15_000);
}
