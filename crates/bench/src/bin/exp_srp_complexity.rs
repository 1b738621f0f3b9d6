//! Experiment E4 — low-complexity SRP-PHAT versus the conventional implementation.
//!
//! Paper claim (Sec. IV-B): the hardware-driven analysis and the low-complexity SRP
//! literature inspire "a mathematically equivalent SRP-PHAT algorithm with ~10x latency
//! boost and ~50% coefficients reduce". This binary measures the conventional
//! frequency-domain steering and the two lag-domain variants (scalar `f64`
//! reference and `f32` SIMD) on identical simulated frames and reports
//! latency, speedup, coefficient counts and the numerical equivalence of the
//! produced maps.
//!
//! Flags:
//!
//! * `--smoke` — fewer repetitions, skip JSON (CI release-mode smoke run);
//! * `--json` — additionally write `BENCH_srp.json` (per-variant mean/min ms and
//!   speedups over the conventional implementation), the machine-readable perf
//!   trajectory consumed by CI.

use ispot_bench::{
    print_header, print_row, simulate_static_source, time_kernel, KernelTime, SAMPLE_RATE,
};
use ispot_ssl::srp_fast::SrpPhatFast;
use ispot_ssl::srp_phat::{SrpConfig, SrpMap, SrpPhat};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json = std::env::args().any(|a| a == "--json");
    print_header(
        "E4 - low-complexity SRP-PHAT vs conventional frequency-domain steering",
        "~10x latency boost and ~50% coefficient reduction, mathematically equivalent",
    );
    let (audio, array) = simulate_static_source(60.0, 20.0, 6, 8192, 11);
    let config = SrpConfig::default();
    let conventional = SrpPhat::new(config, &array, SAMPLE_RATE).expect("conventional SRP");
    let fast = SrpPhatFast::new(config, &array, SAMPLE_RATE).expect("fast SRP");
    let frame: Vec<&[f64]> = audio.channels().iter().map(|c| &c[4096..6144]).collect();

    let (warmup, reps) = if smoke { (1, 3) } else { (5, 50) };

    let mut conv_scratch = conventional.make_scratch();
    let mut conv_map = SrpMap::default();
    let conv_time = time_kernel(warmup, reps, || {
        conventional
            .compute_map_into(&frame, &mut conv_scratch, &mut conv_map)
            .expect("map")
    });
    let mut ref_scratch = fast.make_reference_scratch();
    let mut scalar_map = SrpMap::default();
    let scalar_time = time_kernel(warmup, reps, || {
        fast.compute_map_reference_into(&frame, &mut ref_scratch, &mut scalar_map)
            .expect("map")
    });
    let mut fast_scratch = fast.make_scratch();
    let mut simd_map = SrpMap::default();
    let simd_time = time_kernel(warmup, reps, || {
        fast.compute_map_into(&frame, &mut fast_scratch, &mut simd_map)
            .expect("map")
    });

    print_row(
        "microphones / pairs",
        format!("{} / {}", array.len(), fast.grid().num_pairs()),
    );
    print_row("grid directions", config.num_directions);
    print_row("frame length (samples)", config.frame_len);
    print_row("timed repetitions", reps);
    println!();
    let speedup = |t: &KernelTime| conv_time.mean_ms / t.mean_ms;
    let variants = [
        ("conventional", &conv_time),
        ("scalar_fast", &scalar_time),
        ("simd_fast", &simd_time),
    ];
    for (name, time) in variants {
        print_row(
            format!("{name} latency per map (ms)").as_str(),
            format!(
                "{:.3}  ({:.1}x vs conventional)",
                time.mean_ms,
                speedup(time)
            ),
        );
    }
    println!();
    print_row(
        "conventional coefficients per pair",
        conventional.coefficients_per_pair(),
    );
    print_row("fast coefficients per pair", fast.coefficients_per_pair());
    print_row(
        "coefficient reduction (paper: ~50%)",
        format!("{:.1} %", 100.0 * fast.coefficient_reduction()),
    );
    println!();
    print_row(
        "map correlation conv vs simd (equivalence)",
        format!("{:.4}", conv_map.correlation(&simd_map)),
    );
    let az_conv = conv_map.peak().expect("non-empty map").1;
    let az_simd = simd_map.peak().expect("non-empty map").1;
    print_row(
        "peak azimuth conventional / simd (deg)",
        format!("{az_conv:.1} / {az_simd:.1}"),
    );

    if json {
        let entry = |(name, t): (&str, &KernelTime)| {
            format!(
                "  {{\"variant\": \"{}\", \"mean_ms\": {:.6}, \"min_ms\": {:.6}, \
                 \"speedup_vs_conventional\": {:.3}}}",
                name,
                t.mean_ms,
                t.min_ms,
                speedup(t)
            )
        };
        let [conv, scalar, simd] = variants.map(entry);
        let body = format!("[\n{conv},\n{scalar},\n{simd}\n]\n");
        let path = "BENCH_srp.json";
        std::fs::write(path, body)?;
        println!("\nwrote {path} (3 variants)");
    }
    Ok(())
}
