//! Hardware–algorithm co-design: run the Fig. 4 workflow on a real trained detector.
//!
//! The example trains the small CNN detector, lowers it to the operator IR, explores
//! the compression design space against a RasPi-4B-class platform model and finally
//! applies the selected pruning/quantization to the *actual* network, reporting the
//! accuracy before and after.
//!
//! Run with: `cargo run --release --example codesign_flow`

use ispot::codesign::dse::{AnalyticEvaluator, CoDesignLoop, DesignSpace};
use ispot::codesign::ir::OpGraph;
use ispot::codesign::platform::EdgePlatform;
use ispot::nn::prune::{prune_magnitude, sparsity};
use ispot::nn::quantize::quantize_model;
use ispot_bench::dataset::{Dataset, DatasetConfig};
use ispot_bench::detector::{CnnDetector, DetectorConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fs = 16_000.0;

    // 1. Train the baseline detector on a small dataset.
    let dataset = Dataset::generate(
        &DatasetConfig {
            num_samples: 100,
            duration_s: 0.8,
            spatialize: false,
            snr_min_db: 0.0,
            snr_max_db: 15.0,
            background_fraction: 0.3,
            ..DatasetConfig::default()
        },
        11,
    )?;
    let (train, test) = dataset.split(0.7)?;
    let mut detector = CnnDetector::new(DetectorConfig::tiny(), fs)?;
    detector.train(&train)?;
    let baseline_accuracy = test.evaluate(|audio| detector.predict(audio))?.accuracy();
    println!("baseline detector accuracy: {baseline_accuracy:.3}");
    println!("baseline parameters: {}", detector.num_parameters());

    // 2. Lower the network to the operator IR and explore the design space on the
    //    RasPi-4B-class platform model.
    let graph = OpGraph::from_sequential("sed-cnn", detector.model_mut(), &[1, 16, 16]);
    let platform = EdgePlatform::raspberry_pi4();
    println!(
        "baseline: {:.2} ms/frame, {:.0} kB weights (platform model `{}`)",
        platform.graph_latency_ms(&graph),
        graph.total_weight_bytes() as f64 / 1e3,
        platform.name
    );
    let mut evaluator = AnalyticEvaluator::new(graph.clone(), baseline_accuracy);
    let dse = CoDesignLoop::new(platform, DesignSpace::default(), baseline_accuracy - 0.1)?;
    let report = dse.run(&mut evaluator)?;
    println!(
        "selected design point: {:?}\n  estimated speedup {:.2}x, size reduction {:.1} %",
        report.best.point,
        report.speedup(),
        100.0 * report.size_reduction()
    );

    // 3. Apply the selected compression to the real network and re-measure accuracy.
    if report.best.point.prune_ratio > 0.0 {
        prune_magnitude(detector.model_mut(), report.best.point.prune_ratio)?;
    }
    if let Some(bits) = report.best.point.quantize_bits {
        let q = quantize_model(detector.model_mut(), bits)?;
        println!(
            "quantized to {bits} bits: {:.1} % smaller weights",
            100.0 * q.size_reduction()
        );
    }
    println!(
        "model sparsity after passes: {:.2}",
        sparsity(detector.model_mut())
    );
    let compressed_accuracy = test.evaluate(|audio| detector.predict(audio))?.accuracy();
    println!("accuracy: baseline {baseline_accuracy:.3} -> compressed {compressed_accuracy:.3}");
    Ok(())
}
