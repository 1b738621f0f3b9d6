//! Optimization passes on the operator IR.
//!
//! The algorithmic finetuning levers identified in Fig. 4 of the paper — DSP
//! coefficient/LUT selection, signal/feature resolution, DNN structure hyper-parameters
//! and weight compression — are modelled as IR-to-IR passes. The analytic passes here
//! transform the cost model's view of a pipeline; their "real" counterparts on trained
//! networks live in `ispot-nn` ([`ispot_nn::prune`], [`ispot_nn::quantize`]).

use crate::error::CodesignError;
use crate::ir::{OpGraph, OpKind, OpNode};

/// An IR-level optimization pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pass {
    /// Quantize all parameterized operators to the given bit width.
    Quantize {
        /// Target weight bit width (2–16).
        bits: u8,
    },
    /// Remove the fraction `ratio` of weights (and proportionally the MAC work) from
    /// neural-network operators (convolutions and dense layers).
    PruneWeights {
        /// Fraction of weights removed, in `[0, 1)`.
        ratio: f64,
    },
    /// Scale the resolution of the DSP front-end (steering directions, filterbank
    /// bands, FFT size) by `factor` (< 1 reduces work).
    FeatureResolutionScale {
        /// Multiplicative factor in `(0, 1]`.
        factor: f64,
    },
    /// Scale the channel widths of the neural back-end by `factor` (< 1 shrinks the
    /// network; MACs scale roughly with the square of the factor).
    ChannelWidthScale {
        /// Multiplicative factor in `(0, 1]`.
        factor: f64,
    },
}

/// The result of applying a pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOutcome {
    /// The transformed graph.
    pub graph: OpGraph,
    /// A human-readable description of what the pass did.
    pub description: String,
}

impl Pass {
    /// Validates the pass parameters.
    pub fn validate(&self) -> Result<(), CodesignError> {
        match self {
            Pass::Quantize { bits } => {
                if !(2..=16).contains(bits) {
                    return Err(CodesignError::invalid_config(
                        "bits",
                        format!("must be within [2, 16], got {bits}"),
                    ));
                }
            }
            Pass::PruneWeights { ratio } => {
                if !(0.0..1.0).contains(ratio) {
                    return Err(CodesignError::invalid_config(
                        "ratio",
                        format!("must be within [0, 1), got {ratio}"),
                    ));
                }
            }
            Pass::FeatureResolutionScale { factor } | Pass::ChannelWidthScale { factor } => {
                if !(*factor > 0.0 && *factor <= 1.0) {
                    return Err(CodesignError::invalid_config(
                        "factor",
                        format!("must be within (0, 1], got {factor}"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Applies the pass to a graph, returning the transformed copy.
    ///
    /// # Errors
    ///
    /// Returns an error if the pass parameters are invalid.
    pub fn apply(&self, graph: &OpGraph) -> Result<PassOutcome, CodesignError> {
        self.validate()?;
        let mut out = graph.clone();
        match self {
            Pass::Quantize { bits } => {
                for op in out.ops_mut() {
                    if op.parameters > 0 {
                        op.weight_bits = (*bits).min(op.weight_bits);
                    }
                }
            }
            Pass::PruneWeights { ratio } => {
                let keep = 1.0 - ratio;
                for op in out.ops_mut() {
                    if is_network_op(op) {
                        op.parameters = ((op.parameters as f64) * keep).round() as usize;
                        scale_macs(op, keep);
                    }
                }
            }
            Pass::FeatureResolutionScale { factor } => {
                for op in out.ops_mut() {
                    match &mut op.kind {
                        OpKind::SrpSteering {
                            directions,
                            coefficients,
                            ..
                        } => {
                            *directions = scaled(*directions, *factor);
                            *coefficients = scaled(*coefficients, *factor);
                            op.parameters = ((op.parameters as f64) * factor).round() as usize;
                        }
                        OpKind::Fft { size } => {
                            *size = scaled(*size, *factor).next_power_of_two();
                        }
                        OpKind::Filterbank { bands, .. } => {
                            *bands = scaled(*bands, *factor);
                            op.parameters = ((op.parameters as f64) * factor).round() as usize;
                        }
                        OpKind::GccPhat { bins } => {
                            *bins = scaled(*bins, *factor);
                        }
                        _ => {}
                    }
                }
            }
            Pass::ChannelWidthScale { factor } => {
                for op in out.ops_mut() {
                    match &mut op.kind {
                        OpKind::Conv2d {
                            in_channels,
                            out_channels,
                            ..
                        } => {
                            // Keep single-channel inputs (the spectrogram image) intact.
                            if *in_channels > 1 {
                                *in_channels = scaled(*in_channels, *factor);
                            }
                            *out_channels = scaled(*out_channels, *factor);
                            op.parameters =
                                ((op.parameters as f64) * factor * factor).round() as usize;
                        }
                        OpKind::Dense {
                            in_features,
                            out_features,
                        } => {
                            *in_features = scaled(*in_features, *factor);
                            // The classifier output width is preserved.
                            let _ = out_features;
                            op.parameters = ((op.parameters as f64) * factor).round() as usize;
                        }
                        OpKind::Activation { elements }
                        | OpKind::Pool {
                            output_elements: elements,
                        } => {
                            *elements = scaled(*elements, *factor);
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(PassOutcome {
            graph: out,
            description: format!("{self:?}"),
        })
    }
}

fn is_network_op(op: &OpNode) -> bool {
    matches!(op.kind, OpKind::Conv2d { .. } | OpKind::Dense { .. })
}

fn scaled(value: usize, factor: f64) -> usize {
    ((value as f64 * factor).round() as usize).max(1)
}

fn scale_macs(op: &mut OpNode, keep: f64) {
    // Pruned weights skip their multiply-accumulates; model this by shrinking the
    // output spatial extent / feature count proportionally.
    match &mut op.kind {
        OpKind::Conv2d { output, .. } => {
            output.0 = scaled(output.0, keep.sqrt());
            output.1 = scaled(output.1, keep.sqrt());
        }
        OpKind::Dense { in_features, .. } => {
            *in_features = scaled(*in_features, keep);
        }
        _ => {}
    }
}

/// Applies a sequence of passes, threading the graph through each.
///
/// # Errors
///
/// Returns an error if any pass is invalid.
pub fn apply_passes(graph: &OpGraph, passes: &[Pass]) -> Result<OpGraph, CodesignError> {
    let mut current = graph.clone();
    for pass in passes {
        current = pass.apply(&current)?.graph;
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::OpNode;

    fn pipeline() -> OpGraph {
        let mut g = OpGraph::new("cross3d");
        g.push(OpNode::fft("fft", 2048));
        g.push(OpNode::gcc_phat("gcc", 1024));
        g.push(OpNode::srp_steering("srp", 15, 181, 850));
        g.push(OpNode::conv2d("conv1", 1, 16, (3, 3), (32, 32), 1));
        g.push(OpNode::conv2d("conv2", 16, 32, (3, 3), (16, 16), 1));
        g.push(OpNode::dense("head", 2048, 36));
        g
    }

    #[test]
    fn quantization_shrinks_weight_storage_only() {
        let g = pipeline();
        let q = Pass::Quantize { bits: 8 }.apply(&g).unwrap().graph;
        assert!(q.total_weight_bytes() < g.total_weight_bytes());
        assert_eq!(q.total_macs(), g.total_macs());
        assert_eq!(q.total_parameters(), g.total_parameters());
    }

    #[test]
    fn pruning_reduces_parameters_and_macs_of_network_ops() {
        let g = pipeline();
        let p = Pass::PruneWeights { ratio: 0.5 }.apply(&g).unwrap().graph;
        assert!(p.total_parameters() < g.total_parameters());
        assert!(p.total_macs() < g.total_macs());
        // DSP front-end untouched.
        assert_eq!(p.ops()[0], g.ops()[0]);
        assert_eq!(p.ops()[2], g.ops()[2]);
    }

    #[test]
    fn feature_resolution_scaling_targets_the_dsp_front_end() {
        let g = pipeline();
        let s = Pass::FeatureResolutionScale { factor: 0.5 }
            .apply(&g)
            .unwrap()
            .graph;
        // SRP steering work drops roughly quadratically (directions × coefficients).
        let srp_before = g.ops()[2].macs();
        let srp_after = s.ops()[2].macs();
        assert!(srp_after < srp_before / 3);
        // The CNN is untouched by this pass.
        assert_eq!(s.ops()[3], g.ops()[3]);
    }

    #[test]
    fn channel_scaling_shrinks_the_network_quadratically() {
        let g = pipeline();
        let s = Pass::ChannelWidthScale { factor: 0.5 }
            .apply(&g)
            .unwrap()
            .graph;
        let conv2_before = g.ops()[4].macs();
        let conv2_after = s.ops()[4].macs();
        assert!(conv2_after <= conv2_before / 3);
        assert!(s.total_parameters() < g.total_parameters());
    }

    #[test]
    fn passes_compose() {
        let g = pipeline();
        let optimized = apply_passes(
            &g,
            &[
                Pass::FeatureResolutionScale { factor: 0.5 },
                Pass::ChannelWidthScale { factor: 0.5 },
                Pass::PruneWeights { ratio: 0.5 },
                Pass::Quantize { bits: 8 },
            ],
        )
        .unwrap();
        assert!(optimized.total_macs() < g.total_macs() / 2);
        assert!(optimized.total_weight_bytes() < g.total_weight_bytes() / 4);
    }

    #[test]
    fn invalid_passes_rejected() {
        let g = pipeline();
        assert!(Pass::Quantize { bits: 1 }.apply(&g).is_err());
        assert!(Pass::PruneWeights { ratio: 1.0 }.apply(&g).is_err());
        assert!(Pass::FeatureResolutionScale { factor: 0.0 }
            .apply(&g)
            .is_err());
        assert!(Pass::ChannelWidthScale { factor: 1.5 }.apply(&g).is_err());
    }
}
