//! Experiment E6 — end-to-end frame latency of the optimized pipeline.
//!
//! Paper claim (Sec. IV-B): the script-based workflow squeezes the Cross3D project to
//! "8.59 ms/frame end-to-end on RasPi-4B, 7.26x faster than the baseline". Two
//! complementary measurements are reported:
//!
//! 1. **platform model**: estimated latency of the baseline and optimized operator
//!    graphs on the RasPi-4B-class cost model (absolute numbers comparable to the
//!    paper's 8.59 ms);
//! 2. **host wall-clock**: measured latency of the real Rust kernels (conventional vs
//!    low-complexity SRP front-end), confirming the speedup factor on this machine.

use ispot_bench::{
    cross3d_baseline_graph, print_header, print_row, simulate_static_source, time_kernel,
    SAMPLE_RATE,
};
use ispot_codesign::dse::DesignPoint;
use ispot_codesign::ir::{OpKind, OpNode};
use ispot_codesign::platform::EdgePlatform;
use ispot_ssl::srp_fast::SrpPhatFast;
use ispot_ssl::srp_phat::{SrpConfig, SrpPhat};

/// Builds the optimized pipeline graph: the Nyquist-sampled SRP front-end (lag tables
/// instead of full-band steering) plus the compressed CNN selected by experiment E5.
fn optimized_graph() -> ispot_codesign::ir::OpGraph {
    let baseline = cross3d_baseline_graph();
    // Compress the network as E5's selected design point does.
    let point = DesignPoint {
        feature_scale: 1.0,
        channel_scale: 0.35,
        prune_ratio: 0.5,
        quantize_bits: Some(8),
    };
    let mut graph = point.apply_to(&baseline).expect("passes apply");
    // Replace the frequency-domain steering with the lag-domain formulation:
    // per pair one extra inverse FFT, then directions x ~20 lag taps.
    for op in graph.ops_mut() {
        if let OpKind::SrpSteering { coefficients, .. } = &mut op.kind {
            *coefficients = 21;
            op.parameters = 15 * 21;
        }
    }
    let mut with_ifft = ispot_codesign::ir::OpGraph::new("cross3d-optimized");
    for op in graph.ops() {
        with_ifft.push(op.clone());
        if op.name.starts_with("gcc_pair") {
            // The lag-domain SRP adds one inverse FFT per pair.
            with_ifft.push(OpNode::fft(&format!("{}_ifft", op.name), 2048));
        }
    }
    with_ifft
}

fn main() {
    print_header(
        "E6 - end-to-end frame latency (baseline vs optimized)",
        "8.59 ms/frame end-to-end on RasPi-4B, 7.26x faster than the baseline",
    );
    let platform = EdgePlatform::raspberry_pi4();
    let baseline = cross3d_baseline_graph();
    let optimized = optimized_graph();
    let baseline_ms = platform.graph_latency_ms(&baseline);
    let optimized_ms = platform.graph_latency_ms(&optimized);
    println!("\n[platform model: {}]", platform.name);
    print_row(
        "baseline end-to-end (ms/frame)",
        format!("{baseline_ms:.2}"),
    );
    print_row(
        "optimized end-to-end (ms/frame, paper: 8.59)",
        format!("{optimized_ms:.2}"),
    );
    print_row(
        "speedup (paper: 7.26x)",
        format!("{:.2}x", baseline_ms / optimized_ms),
    );
    print_row(
        "energy per frame baseline -> optimized (mJ)",
        format!(
            "{:.1} -> {:.1}",
            platform.graph_energy_mj(&baseline),
            platform.graph_energy_mj(&optimized)
        ),
    );

    // Host wall-clock of the real front-end kernels (the dominant cost).
    println!("\n[host wall-clock: SRP-PHAT front-end on this machine]");
    let (audio, array) = simulate_static_source(40.0, 20.0, 6, 8192, 5);
    let config = SrpConfig::default();
    let conventional = SrpPhat::new(config, &array, SAMPLE_RATE).expect("srp");
    let fast = SrpPhatFast::new(config, &array, SAMPLE_RATE).expect("fast srp");
    let frame: Vec<&[f64]> = audio.channels().iter().map(|c| &c[4096..6144]).collect();
    // Both sides reuse scratch so the ratio reflects the algorithms, not allocation.
    let mut conv_scratch = conventional.make_scratch();
    let mut conv_map = ispot_ssl::srp_phat::SrpMap::default();
    let conv = time_kernel(2, 10, || {
        conventional
            .compute_map_into(&frame, &mut conv_scratch, &mut conv_map)
            .unwrap()
    });
    let mut scratch = fast.make_scratch();
    let mut map = ispot_ssl::srp_phat::SrpMap::default();
    let fst = time_kernel(2, 10, || {
        fast.compute_map_into(&frame, &mut scratch, &mut map)
            .unwrap()
    });
    print_row(
        "baseline front-end (ms/frame)",
        format!("{:.3}", conv.mean_ms),
    );
    print_row(
        "optimized front-end (ms/frame)",
        format!("{:.3}", fst.mean_ms),
    );
    print_row(
        "front-end speedup on this machine",
        format!("{:.1}x", conv.mean_ms / fst.mean_ms),
    );

    // Per-stage breakdown on the platform model for the optimized pipeline.
    println!("\n[optimized pipeline, platform-model stage breakdown]");
    let mut by_kind: std::collections::BTreeMap<&'static str, f64> = Default::default();
    for op in optimized.ops() {
        let label = match op.kind {
            OpKind::Fft { .. } => "fft",
            OpKind::GccPhat { .. } => "gcc-phat",
            OpKind::SrpSteering { .. } => "srp steering",
            OpKind::Conv2d { .. } => "convolutions",
            OpKind::Dense { .. } => "dense layers",
            _ => "other",
        };
        *by_kind.entry(label).or_default() += platform.op_latency_ms(op);
    }
    for (label, ms) in by_kind {
        print_row(label, format!("{ms:.2} ms"));
    }
}
