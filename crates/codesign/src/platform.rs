//! Edge-platform performance models (roofline-based).
//!
//! The paper evaluates the optimized Cross3D pipeline on a Raspberry-Pi-4B-class
//! embedded CPU (8.59 ms/frame end-to-end). Absolute silicon measurements are not
//! reproducible here, so platforms are modelled analytically: each operator's latency
//! is the roofline maximum of its compute time (MACs over sustained throughput) and its
//! memory time (bytes over bandwidth) plus a fixed per-operator overhead. The model
//! preserves the *relative* comparisons the paper reports (who is faster, by what
//! factor) across design points and platforms.

use crate::ir::{OpGraph, OpNode};

/// An analytic model of an embedded execution platform.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgePlatform {
    /// Human-readable platform name.
    pub name: String,
    /// Sustained multiply-accumulate throughput in GMAC/s for 32-bit floats.
    pub gmacs_per_second: f64,
    /// Sustained memory bandwidth in GB/s.
    pub memory_bandwidth_gbs: f64,
    /// Fixed per-operator dispatch overhead in microseconds (kernel launch, cache
    /// warm-up, scheduling).
    pub op_overhead_us: f64,
    /// Average power draw while computing, in watts (used for energy estimates).
    pub active_power_w: f64,
    /// Idle/sleep power in watts (park-mode duty cycling).
    pub idle_power_w: f64,
    /// Throughput multiplier applied when weights are quantized to 8 bits or below
    /// (integer SIMD speedup).
    pub quantized_speedup: f64,
}

impl EdgePlatform {
    /// A Raspberry-Pi-4B-class embedded CPU (Cortex-A72 @ 1.5 GHz, NEON).
    pub fn raspberry_pi4() -> Self {
        EdgePlatform {
            name: "raspi-4b".to_string(),
            gmacs_per_second: 6.0,
            memory_bandwidth_gbs: 4.0,
            op_overhead_us: 20.0,
            active_power_w: 4.0,
            idle_power_w: 2.0,
            quantized_speedup: 2.0,
        }
    }

    /// A microcontroller-class core (Cortex-M7-class, always-on park mode target).
    pub fn microcontroller() -> Self {
        EdgePlatform {
            name: "mcu-m7".to_string(),
            gmacs_per_second: 0.2,
            memory_bandwidth_gbs: 0.3,
            op_overhead_us: 5.0,
            active_power_w: 0.3,
            idle_power_w: 0.01,
            quantized_speedup: 3.0,
        }
    }

    /// An accelerator-class device (CGRA / NPU as targeted by the second project
    /// stage).
    pub fn accelerator() -> Self {
        EdgePlatform {
            name: "cgra-accelerator".to_string(),
            gmacs_per_second: 100.0,
            memory_bandwidth_gbs: 12.0,
            op_overhead_us: 8.0,
            active_power_w: 1.5,
            idle_power_w: 0.1,
            quantized_speedup: 4.0,
        }
    }

    /// Peak attainable performance (GMAC/s) for an operator with the given operational
    /// intensity (MAC/byte) — the roofline curve.
    pub fn attainable_gmacs(&self, operational_intensity: f64) -> f64 {
        (self.memory_bandwidth_gbs * operational_intensity).min(self.gmacs_per_second)
    }

    /// The ridge point of the roofline (MAC/byte at which the platform becomes
    /// compute-bound).
    pub fn ridge_point(&self) -> f64 {
        self.gmacs_per_second / self.memory_bandwidth_gbs
    }

    /// Estimated latency of a single operator in milliseconds.
    pub fn op_latency_ms(&self, op: &OpNode) -> f64 {
        let speedup = if op.weight_bits <= 8 && op.parameters > 0 {
            self.quantized_speedup
        } else {
            1.0
        };
        let compute_s = op.macs() as f64 / (self.gmacs_per_second * 1e9 * speedup);
        let memory_s = op.bytes_accessed() as f64 / (self.memory_bandwidth_gbs * 1e9);
        (compute_s.max(memory_s) + self.op_overhead_us * 1e-6) * 1e3
    }

    /// Estimated end-to-end latency of a graph in milliseconds (sequential execution).
    pub fn graph_latency_ms(&self, graph: &OpGraph) -> f64 {
        graph.ops().iter().map(|op| self.op_latency_ms(op)).sum()
    }

    /// Estimated energy per frame in millijoules.
    pub fn graph_energy_mj(&self, graph: &OpGraph) -> f64 {
        self.graph_latency_ms(graph) * self.active_power_w
    }

    /// Roofline data points (one per operator) for plotting or reporting. For operators
    /// with quantized weights the compute roof is raised by the integer-SIMD speedup,
    /// matching the latency model.
    pub fn roofline(&self, graph: &OpGraph) -> Vec<RooflinePoint> {
        graph
            .ops()
            .iter()
            .map(|op| {
                let latency_s = self.op_latency_ms(op) * 1e-3;
                let achieved = if latency_s > 0.0 {
                    op.macs() as f64 / latency_s / 1e9
                } else {
                    0.0
                };
                let compute_roof = if op.weight_bits <= 8 && op.parameters > 0 {
                    self.gmacs_per_second * self.quantized_speedup
                } else {
                    self.gmacs_per_second
                };
                let attainable =
                    (self.memory_bandwidth_gbs * op.operational_intensity()).min(compute_roof);
                RooflinePoint {
                    op_name: op.name.clone(),
                    operational_intensity: op.operational_intensity(),
                    achieved_gmacs: achieved,
                    attainable_gmacs: attainable,
                }
            })
            .collect()
    }

    /// Average power (watts) of a duty-cycled park-mode deployment that runs the graph
    /// `wakeups_per_second` times per second and sleeps otherwise.
    pub fn duty_cycled_power_w(&self, graph: &OpGraph, wakeups_per_second: f64) -> f64 {
        let active_s_per_s = (self.graph_latency_ms(graph) * 1e-3 * wakeups_per_second).min(1.0);
        self.active_power_w * active_s_per_s + self.idle_power_w * (1.0 - active_s_per_s)
    }
}

/// One operator plotted on the roofline.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Operator name.
    pub op_name: String,
    /// MAC per byte.
    pub operational_intensity: f64,
    /// Achieved GMAC/s under the latency model.
    pub achieved_gmacs: f64,
    /// Roofline bound at this intensity.
    pub attainable_gmacs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::OpNode;

    fn small_graph() -> OpGraph {
        let mut g = OpGraph::new("test");
        g.push(OpNode::fft("fft", 2048));
        g.push(OpNode::conv2d("conv", 1, 8, (3, 3), (32, 32), 1));
        g.push(OpNode::dense("head", 512, 36));
        g
    }

    #[test]
    fn faster_platform_gives_lower_latency() {
        let g = small_graph();
        let pi = EdgePlatform::raspberry_pi4();
        let mcu = EdgePlatform::microcontroller();
        let acc = EdgePlatform::accelerator();
        let l_pi = pi.graph_latency_ms(&g);
        let l_mcu = mcu.graph_latency_ms(&g);
        let l_acc = acc.graph_latency_ms(&g);
        assert!(l_mcu > l_pi, "mcu {l_mcu} vs pi {l_pi}");
        assert!(l_pi > l_acc, "pi {l_pi} vs accelerator {l_acc}");
    }

    #[test]
    fn latency_is_monotonic_in_work() {
        let pi = EdgePlatform::raspberry_pi4();
        let small = OpNode::conv2d("s", 1, 4, (3, 3), (16, 16), 1);
        let large = OpNode::conv2d("l", 16, 64, (3, 3), (64, 64), 1);
        assert!(pi.op_latency_ms(&large) > pi.op_latency_ms(&small));
    }

    #[test]
    fn quantized_weights_speed_up_heavy_layers() {
        let pi = EdgePlatform::raspberry_pi4();
        let mut op = OpNode::conv2d("c", 16, 64, (3, 3), (64, 64), 1);
        let full = pi.op_latency_ms(&op);
        op.weight_bits = 8;
        let quant = pi.op_latency_ms(&op);
        assert!(quant < full * 0.75, "quantized {quant} vs full {full}");
    }

    #[test]
    fn roofline_points_respect_the_bound() {
        let g = small_graph();
        let pi = EdgePlatform::raspberry_pi4();
        for p in pi.roofline(&g) {
            assert!(
                p.achieved_gmacs <= p.attainable_gmacs * 1.01 + 1e-9,
                "{}: achieved {} above bound {}",
                p.op_name,
                p.achieved_gmacs,
                p.attainable_gmacs
            );
            assert!(p.attainable_gmacs <= pi.gmacs_per_second + 1e-9);
        }
        assert!(pi.ridge_point() > 0.0);
    }

    #[test]
    fn energy_and_duty_cycling() {
        let g = small_graph();
        let pi = EdgePlatform::raspberry_pi4();
        assert!(pi.graph_energy_mj(&g) > 0.0);
        let always_on = pi.duty_cycled_power_w(&g, 100.0);
        let rare = pi.duty_cycled_power_w(&g, 0.1);
        assert!(rare < always_on);
        assert!(rare >= pi.idle_power_w);
        assert!(always_on <= pi.active_power_w + 1e-9);
    }
}
