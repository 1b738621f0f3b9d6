//! Design-space exploration: the co-design iteration loop of Fig. 4.
//!
//! The loop evaluates candidate design points (combinations of feature resolution,
//! channel width, pruning ratio and weight bit width), judges the algorithm/hardware
//! trade-off against an accuracy floor, and returns the fastest feasible candidate —
//! exactly the "bottleneck analysis → finetuning → cost model → trade-off judgment →
//! configuration update" cycle the paper describes. Its outcome for the Cross3D-style
//! workload (a model ≈86 % smaller and ≈47 % faster, ≈7× faster end-to-end execution)
//! is regenerated by experiments E5–E7.

use crate::error::CodesignError;
use crate::ir::OpGraph;
use crate::passes::{apply_passes, Pass};
use crate::platform::EdgePlatform;

/// One candidate configuration of the algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Scaling of the DSP front-end resolution (1.0 = baseline).
    pub feature_scale: f64,
    /// Scaling of the network channel widths (1.0 = baseline).
    pub channel_scale: f64,
    /// Fraction of network weights pruned.
    pub prune_ratio: f64,
    /// Weight bit width (`None` keeps 32-bit floats).
    pub quantize_bits: Option<u8>,
}

impl Default for DesignPoint {
    fn default() -> Self {
        DesignPoint::baseline()
    }
}

impl DesignPoint {
    /// The unmodified baseline algorithm.
    pub fn baseline() -> Self {
        DesignPoint {
            feature_scale: 1.0,
            channel_scale: 1.0,
            prune_ratio: 0.0,
            quantize_bits: None,
        }
    }

    /// The IR passes realizing this design point.
    pub fn passes(&self) -> Vec<Pass> {
        let mut passes = Vec::new();
        if self.feature_scale < 1.0 {
            passes.push(Pass::FeatureResolutionScale {
                factor: self.feature_scale,
            });
        }
        if self.channel_scale < 1.0 {
            passes.push(Pass::ChannelWidthScale {
                factor: self.channel_scale,
            });
        }
        if self.prune_ratio > 0.0 {
            passes.push(Pass::PruneWeights {
                ratio: self.prune_ratio,
            });
        }
        if let Some(bits) = self.quantize_bits {
            passes.push(Pass::Quantize { bits });
        }
        passes
    }

    /// Applies this design point to a baseline graph.
    ///
    /// # Errors
    ///
    /// Returns an error if any derived pass is invalid.
    pub fn apply_to(&self, baseline: &OpGraph) -> Result<OpGraph, CodesignError> {
        apply_passes(baseline, &self.passes())
    }
}

/// The set of candidate values explored by the loop (the "design parameter space" box
/// of Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Candidate feature-resolution scales.
    pub feature_scales: Vec<f64>,
    /// Candidate channel-width scales.
    pub channel_scales: Vec<f64>,
    /// Candidate pruning ratios.
    pub prune_ratios: Vec<f64>,
    /// Candidate weight bit widths (`None` = keep float).
    pub quantize_bits: Vec<Option<u8>>,
}

impl Default for DesignSpace {
    fn default() -> Self {
        DesignSpace {
            feature_scales: vec![1.0, 0.75, 0.5],
            channel_scales: vec![1.0, 0.75, 0.5, 0.35],
            prune_ratios: vec![0.0, 0.25, 0.5],
            quantize_bits: vec![None, Some(8)],
        }
    }
}

impl DesignSpace {
    /// Enumerates every candidate point (cartesian product).
    pub fn enumerate(&self) -> Vec<DesignPoint> {
        let mut points = Vec::new();
        for &f in &self.feature_scales {
            for &c in &self.channel_scales {
                for &p in &self.prune_ratios {
                    for &q in &self.quantize_bits {
                        points.push(DesignPoint {
                            feature_scale: f,
                            channel_scale: c,
                            prune_ratio: p,
                            quantize_bits: q,
                        });
                    }
                }
            }
        }
        points
    }

    /// Number of candidate points.
    pub fn len(&self) -> usize {
        self.feature_scales.len()
            * self.channel_scales.len()
            * self.prune_ratios.len()
            * self.quantize_bits.len()
    }

    /// Returns true if the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What an evaluator reports back for a candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateMetrics {
    /// Task accuracy (or any higher-is-better quality score in `[0, 1]`).
    pub accuracy: f64,
    /// The candidate's operator graph (after the design point's passes).
    pub graph: OpGraph,
}

/// Evaluates a candidate design point, producing its accuracy and operator graph.
///
/// Implementations range from purely analytic models (fast, used inside the search
/// loop) to full retraining of the compressed network (used to confirm the final
/// choice, as the paper's workflow does with its "DNN backbone finetuning" box).
pub trait CandidateEvaluator {
    /// Evaluates one design point.
    ///
    /// # Errors
    ///
    /// Returns an error if the candidate cannot be evaluated.
    fn evaluate(&mut self, point: &DesignPoint) -> Result<CandidateMetrics, CodesignError>;
}

/// An analytic evaluator: derives the candidate graph by applying the design point's
/// passes to a baseline graph and models the accuracy drop of each compression lever
/// with a smooth penalty. Useful for tests and for the inner loop of the search.
#[derive(Debug, Clone)]
pub struct AnalyticEvaluator {
    baseline_graph: OpGraph,
    baseline_accuracy: f64,
    /// Accuracy penalty coefficients for (feature, channel, prune, quantize) levers.
    penalties: [f64; 4],
}

impl AnalyticEvaluator {
    /// Creates an evaluator around a baseline graph and its measured accuracy.
    pub fn new(baseline_graph: OpGraph, baseline_accuracy: f64) -> Self {
        AnalyticEvaluator {
            baseline_graph,
            baseline_accuracy,
            penalties: [0.08, 0.10, 0.12, 0.02],
        }
    }

    /// Overrides the penalty coefficients.
    pub fn with_penalties(mut self, penalties: [f64; 4]) -> Self {
        self.penalties = penalties;
        self
    }
}

impl CandidateEvaluator for AnalyticEvaluator {
    fn evaluate(&mut self, point: &DesignPoint) -> Result<CandidateMetrics, CodesignError> {
        let graph = point.apply_to(&self.baseline_graph)?;
        let [pf, pc, pp, pq] = self.penalties;
        let mut accuracy = self.baseline_accuracy;
        accuracy -= pf * (1.0 - point.feature_scale).powi(2) * 4.0;
        accuracy -= pc * (1.0 - point.channel_scale).powi(2) * 4.0;
        accuracy -= pp * point.prune_ratio.powi(2) * 4.0;
        if let Some(bits) = point.quantize_bits {
            accuracy -= pq * ((32.0 - bits as f64) / 32.0).powi(2) * 4.0;
        }
        Ok(CandidateMetrics {
            accuracy: accuracy.clamp(0.0, 1.0),
            graph,
        })
    }
}

/// A fully evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedPoint {
    /// The design point.
    pub point: DesignPoint,
    /// Task accuracy.
    pub accuracy: f64,
    /// Estimated end-to-end latency on the target platform, milliseconds per frame.
    pub latency_ms: f64,
    /// Model (weight) size in bytes.
    pub model_bytes: u64,
    /// Total MACs per frame.
    pub macs: u64,
}

/// The outcome of one co-design exploration run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoDesignReport {
    /// The evaluated baseline.
    pub baseline: EvaluatedPoint,
    /// The best feasible candidate found.
    pub best: EvaluatedPoint,
    /// Every candidate that was evaluated, in exploration order.
    pub iterations: Vec<EvaluatedPoint>,
    /// The accuracy floor used for the trade-off judgment.
    pub accuracy_floor: f64,
    /// Name of the platform model used.
    pub platform: String,
}

impl CoDesignReport {
    /// End-to-end latency speedup of the best candidate over the baseline.
    pub fn speedup(&self) -> f64 {
        if self.best.latency_ms <= 0.0 {
            0.0
        } else {
            self.baseline.latency_ms / self.best.latency_ms
        }
    }

    /// Fractional model-size reduction of the best candidate.
    pub fn size_reduction(&self) -> f64 {
        if self.baseline.model_bytes == 0 {
            0.0
        } else {
            1.0 - self.best.model_bytes as f64 / self.baseline.model_bytes as f64
        }
    }

    /// Accuracy change (best − baseline); a small negative number is the accepted cost
    /// of compression.
    pub fn accuracy_delta(&self) -> f64 {
        self.best.accuracy - self.baseline.accuracy
    }
}

/// The co-design exploration loop.
#[derive(Debug, Clone)]
pub struct CoDesignLoop {
    platform: EdgePlatform,
    space: DesignSpace,
    accuracy_floor: f64,
}

impl CoDesignLoop {
    /// Creates a loop exploring `space` on `platform`, accepting only candidates whose
    /// accuracy stays at or above `accuracy_floor`.
    ///
    /// # Errors
    ///
    /// Returns an error if the space is empty or the floor is outside `[0, 1]`.
    pub fn new(
        platform: EdgePlatform,
        space: DesignSpace,
        accuracy_floor: f64,
    ) -> Result<Self, CodesignError> {
        if space.is_empty() {
            return Err(CodesignError::invalid_config(
                "space",
                "design space has no candidates",
            ));
        }
        if !(0.0..=1.0).contains(&accuracy_floor) {
            return Err(CodesignError::invalid_config(
                "accuracy_floor",
                "must be within [0, 1]",
            ));
        }
        Ok(CoDesignLoop {
            platform,
            space,
            accuracy_floor,
        })
    }

    /// Returns the platform model.
    pub fn platform(&self) -> &EdgePlatform {
        &self.platform
    }

    /// Runs the exploration: evaluates the baseline and every candidate, then selects
    /// the lowest-latency candidate that satisfies the accuracy floor (ties broken by
    /// model size).
    ///
    /// # Errors
    ///
    /// Returns [`CodesignError::NoFeasibleCandidate`] if no candidate (including the
    /// baseline) satisfies the accuracy floor, or any evaluator error.
    pub fn run(
        &self,
        evaluator: &mut dyn CandidateEvaluator,
    ) -> Result<CoDesignReport, CodesignError> {
        let score = |metrics: &CandidateMetrics, point: DesignPoint| EvaluatedPoint {
            point,
            accuracy: metrics.accuracy,
            latency_ms: self.platform.graph_latency_ms(&metrics.graph),
            model_bytes: metrics.graph.total_weight_bytes(),
            macs: metrics.graph.total_macs(),
        };
        let baseline_point = DesignPoint::baseline();
        let baseline_metrics = evaluator.evaluate(&baseline_point)?;
        let baseline = score(&baseline_metrics, baseline_point);
        let mut iterations = Vec::with_capacity(self.space.len());
        for point in self.space.enumerate() {
            let metrics = evaluator.evaluate(&point)?;
            iterations.push(score(&metrics, point));
        }
        let best = iterations
            .iter()
            .chain(std::iter::once(&baseline))
            .filter(|e| e.accuracy >= self.accuracy_floor)
            .min_by(|a, b| {
                a.latency_ms
                    .total_cmp(&b.latency_ms)
                    .then(a.model_bytes.cmp(&b.model_bytes))
            })
            .cloned()
            .ok_or(CodesignError::NoFeasibleCandidate {
                accuracy_floor: self.accuracy_floor,
            })?;
        Ok(CoDesignReport {
            baseline,
            best,
            iterations,
            accuracy_floor: self.accuracy_floor,
            platform: self.platform.name.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::OpNode;

    fn cross3d_like_graph() -> OpGraph {
        let mut g = OpGraph::new("cross3d");
        g.push(OpNode::fft("fft", 4096));
        g.push(OpNode::gcc_phat("gcc", 2048));
        g.push(OpNode::srp_steering("srp", 15, 181, 1700));
        g.push(OpNode::conv2d("conv1", 1, 32, (3, 3), (64, 90), 1));
        g.push(OpNode::conv2d("conv2", 32, 64, (3, 3), (32, 45), 1));
        g.push(OpNode::conv2d("conv3", 64, 64, (3, 3), (16, 22), 1));
        g.push(OpNode::dense("head", 2048, 181));
        g
    }

    #[test]
    fn design_space_enumeration_counts() {
        let space = DesignSpace::default();
        assert_eq!(space.enumerate().len(), space.len());
        assert_eq!(space.len(), 3 * 4 * 3 * 2);
        assert!(!space.is_empty());
    }

    #[test]
    fn baseline_point_is_identity() {
        let g = cross3d_like_graph();
        let p = DesignPoint::baseline();
        assert!(p.passes().is_empty());
        assert_eq!(p.apply_to(&g).unwrap(), g);
    }

    #[test]
    fn exploration_finds_a_faster_smaller_feasible_point() {
        let g = cross3d_like_graph();
        let mut evaluator = AnalyticEvaluator::new(g, 0.92);
        let dse =
            CoDesignLoop::new(EdgePlatform::raspberry_pi4(), DesignSpace::default(), 0.80).unwrap();
        let report = dse.run(&mut evaluator).unwrap();
        assert!(report.speedup() > 1.5, "speedup {}", report.speedup());
        assert!(
            report.size_reduction() > 0.5,
            "size reduction {}",
            report.size_reduction()
        );
        assert!(report.best.accuracy >= 0.80);
        assert_eq!(report.iterations.len(), DesignSpace::default().len());
        assert!(report.accuracy_delta() <= 0.0 + 1e-9);
        assert_eq!(report.platform, "raspi-4b");
    }

    #[test]
    fn impossible_accuracy_floor_yields_no_candidate() {
        let g = cross3d_like_graph();
        let mut evaluator = AnalyticEvaluator::new(g, 0.9);
        let dse =
            CoDesignLoop::new(EdgePlatform::raspberry_pi4(), DesignSpace::default(), 0.99).unwrap();
        assert!(matches!(
            dse.run(&mut evaluator),
            Err(CodesignError::NoFeasibleCandidate { .. })
        ));
    }

    #[test]
    fn stricter_floor_never_yields_faster_designs() {
        let g = cross3d_like_graph();
        let relaxed =
            CoDesignLoop::new(EdgePlatform::raspberry_pi4(), DesignSpace::default(), 0.75)
                .unwrap()
                .run(&mut AnalyticEvaluator::new(g.clone(), 0.92))
                .unwrap();
        let strict = CoDesignLoop::new(EdgePlatform::raspberry_pi4(), DesignSpace::default(), 0.90)
            .unwrap()
            .run(&mut AnalyticEvaluator::new(g, 0.92))
            .unwrap();
        assert!(relaxed.best.latency_ms <= strict.best.latency_ms + 1e-9);
    }

    #[test]
    fn invalid_loop_configuration_rejected() {
        let empty = DesignSpace {
            feature_scales: vec![],
            ..DesignSpace::default()
        };
        assert!(CoDesignLoop::new(EdgePlatform::raspberry_pi4(), empty, 0.8).is_err());
        assert!(
            CoDesignLoop::new(EdgePlatform::raspberry_pi4(), DesignSpace::default(), 1.5).is_err()
        );
    }
}
