//! Experiment E2 — the emergency-sound dataset protocol (paper Sec. IV-A).
//!
//! The paper generates 15 000 single-channel samples: sirens (hi-low, wail, yelp) and
//! car horns on random trajectories, mixed with urban noise at SNR ∈ [−30, 0] dB. This
//! binary regenerates the protocol (a reduced count by default; pass `--full` for the
//! complete 15 000 samples) and reports the dataset statistics.

use ispot_bench::dataset::{Dataset, DatasetConfig};
use ispot_bench::{full_scale_requested, print_header, print_row};
use ispot_sed::EventClass;

fn main() {
    let full = full_scale_requested();
    let config = if full {
        DatasetConfig::paper_protocol()
    } else {
        DatasetConfig {
            num_samples: 200,
            duration_s: 1.0,
            spatialize: true,
            ..DatasetConfig::default()
        }
    };
    print_header(
        "E2 - emergency-sound dataset generation",
        "15 000 single-channel samples, random trajectories and speeds, SNR in [-30, 0] dB",
    );
    print_row(
        "samples requested (paper: 15000)",
        format!(
            "{}{}",
            config.num_samples,
            if full { "" } else { "  (use --full for 15000)" }
        ),
    );
    print_row("clip duration (s)", config.duration_s);
    print_row("sample rate (Hz)", config.sample_rate);
    print_row(
        "SNR range (dB)",
        format!("[{}, {}]", config.snr_min_db, config.snr_max_db),
    );
    print_row(
        "source speed range (m/s)",
        format!("[{}, {}]", config.speed_min, config.speed_max),
    );
    let started = std::time::Instant::now();
    let dataset = Dataset::generate(&config, 2023).expect("dataset generation succeeds");
    let elapsed = started.elapsed().as_secs_f64();
    println!("\nGenerated {} samples in {:.1} s", dataset.len(), elapsed);
    let histogram = dataset.class_histogram();
    for class in EventClass::ALL {
        print_row(
            &format!("class `{}`", class.label()),
            histogram[class.index()],
        );
    }
    let snrs: Vec<f64> = dataset.samples().iter().filter_map(|s| s.snr_db).collect();
    if !snrs.is_empty() {
        let min = snrs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = snrs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = snrs.iter().sum::<f64>() / snrs.len() as f64;
        print_row(
            "measured SNR min / mean / max (dB)",
            format!("{min:.1} / {mean:.1} / {max:.1}"),
        );
    }
    let speeds: Vec<f64> = dataset
        .samples()
        .iter()
        .filter_map(|s| s.source_speed)
        .collect();
    if !speeds.is_empty() {
        let min = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = speeds.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        print_row(
            "source speed min / max (m/s)",
            format!("{min:.1} / {max:.1}"),
        );
    }
    print_row(
        "samples per hour of generation (this machine)",
        format!("{:.0}", dataset.len() as f64 / elapsed * 3600.0),
    );
}
