//! Operator-level intermediate representation (IR) of hybrid DSP + NN pipelines.
//!
//! The paper's workflow lowers algorithm descriptions to "unified lower operator
//! expressions" (currently TVM IR, later a custom I-SPOT IR targeting CGRA back-ends).
//! This module provides that operator level: a flat graph of [`OpNode`]s, each with an
//! analytic compute cost (multiply-accumulate operations), parameter count and memory
//! traffic, which the platform models in [`crate::platform`] turn into latency and
//! energy estimates.

use ispot_nn::model::Sequential;

/// The operator kinds that occur in the I-SPOT pipelines.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// 2-D convolution: `in_channels`, `out_channels`, kernel, output spatial size.
    Conv2d {
        /// Input channels.
        in_channels: usize,
        /// Output channels.
        out_channels: usize,
        /// Kernel size (h, w).
        kernel: (usize, usize),
        /// Output spatial size (h, w).
        output: (usize, usize),
    },
    /// Fully connected layer.
    Dense {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
    /// Pooling over feature maps.
    Pool {
        /// Number of output elements.
        output_elements: usize,
    },
    /// Element-wise activation.
    Activation {
        /// Number of elements.
        elements: usize,
    },
    /// Fast Fourier transform of the given size.
    Fft {
        /// Transform size.
        size: usize,
    },
    /// GCC-PHAT cross-spectrum computation for one microphone pair.
    GccPhat {
        /// Number of frequency bins.
        bins: usize,
    },
    /// SRP steering: `pairs × directions × coefficients` accumulation.
    SrpSteering {
        /// Number of microphone pairs.
        pairs: usize,
        /// Number of steering directions.
        directions: usize,
        /// Coefficients (frequency bins or lag taps) per (pair, direction).
        coefficients: usize,
    },
    /// Mel / gammatone filterbank projection.
    Filterbank {
        /// Number of input bins.
        bins: usize,
        /// Number of output bands.
        bands: usize,
    },
    /// Anything else with an explicit MAC count.
    Custom {
        /// Multiply-accumulate operations.
        macs: u64,
    },
}

/// One operator in the pipeline graph.
#[derive(Debug, Clone, PartialEq)]
pub struct OpNode {
    /// Human-readable name (unique within a graph by convention).
    pub name: String,
    /// The operator kind and its shape parameters.
    pub kind: OpKind,
    /// Number of trainable parameters carried by the operator.
    pub parameters: usize,
    /// Bit width of the parameters (32 for float baseline, lower after quantization).
    pub weight_bits: u8,
}

impl OpNode {
    /// Creates a convolution node; `output` is the output spatial size.
    pub fn conv2d(
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: (usize, usize),
        output: (usize, usize),
        _stride: usize,
    ) -> Self {
        OpNode {
            name: name.to_string(),
            kind: OpKind::Conv2d {
                in_channels,
                out_channels,
                kernel,
                output,
            },
            parameters: out_channels * in_channels * kernel.0 * kernel.1 + out_channels,
            weight_bits: 32,
        }
    }

    /// Creates a dense (fully connected) node.
    pub fn dense(name: &str, in_features: usize, out_features: usize) -> Self {
        OpNode {
            name: name.to_string(),
            kind: OpKind::Dense {
                in_features,
                out_features,
            },
            parameters: in_features * out_features + out_features,
            weight_bits: 32,
        }
    }

    /// Creates a pooling node.
    pub fn pool(name: &str, output_elements: usize) -> Self {
        OpNode {
            name: name.to_string(),
            kind: OpKind::Pool { output_elements },
            parameters: 0,
            weight_bits: 32,
        }
    }

    /// Creates an activation node.
    pub fn activation(name: &str, elements: usize) -> Self {
        OpNode {
            name: name.to_string(),
            kind: OpKind::Activation { elements },
            parameters: 0,
            weight_bits: 32,
        }
    }

    /// Creates an FFT node.
    pub fn fft(name: &str, size: usize) -> Self {
        OpNode {
            name: name.to_string(),
            kind: OpKind::Fft { size },
            parameters: 0,
            weight_bits: 32,
        }
    }

    /// Creates a GCC-PHAT node for one microphone pair.
    pub fn gcc_phat(name: &str, bins: usize) -> Self {
        OpNode {
            name: name.to_string(),
            kind: OpKind::GccPhat { bins },
            parameters: 0,
            weight_bits: 32,
        }
    }

    /// Creates an SRP steering node.
    pub fn srp_steering(name: &str, pairs: usize, directions: usize, coefficients: usize) -> Self {
        OpNode {
            name: name.to_string(),
            kind: OpKind::SrpSteering {
                pairs,
                directions,
                coefficients,
            },
            // The steering stage stores the per-pair coefficients (lag tables or
            // cross-spectrum weights).
            parameters: pairs * coefficients,
            weight_bits: 32,
        }
    }

    /// Creates a filterbank node.
    pub fn filterbank(name: &str, bins: usize, bands: usize) -> Self {
        OpNode {
            name: name.to_string(),
            kind: OpKind::Filterbank { bins, bands },
            parameters: bins * bands,
            weight_bits: 32,
        }
    }

    /// Creates a custom node with an explicit MAC count.
    pub fn custom(name: &str, macs: u64, parameters: usize) -> Self {
        OpNode {
            name: name.to_string(),
            kind: OpKind::Custom { macs },
            parameters,
            weight_bits: 32,
        }
    }

    /// Multiply-accumulate operations needed to execute the operator once.
    pub fn macs(&self) -> u64 {
        match &self.kind {
            OpKind::Conv2d {
                in_channels,
                out_channels,
                kernel,
                output,
            } => (in_channels * out_channels * kernel.0 * kernel.1 * output.0 * output.1) as u64,
            OpKind::Dense {
                in_features,
                out_features,
            } => (in_features * out_features) as u64,
            OpKind::Pool { output_elements } => *output_elements as u64,
            OpKind::Activation { elements } => *elements as u64,
            // ~5 N log2 N real operations, counted as MAC-equivalents.
            OpKind::Fft { size } => {
                let n = *size as f64;
                (5.0 * n * n.log2()).ceil() as u64
            }
            OpKind::GccPhat { bins } => (*bins * 6) as u64,
            OpKind::SrpSteering {
                pairs,
                directions,
                coefficients,
            } => (*pairs * *directions * *coefficients) as u64,
            OpKind::Filterbank { bins, bands } => (*bins * *bands) as u64,
            OpKind::Custom { macs } => *macs,
        }
    }

    /// Approximate bytes moved to execute the operator once (weights + activations at
    /// the operator's weight bit width for parameters, 4 bytes per activation).
    pub fn bytes_accessed(&self) -> u64 {
        let weight_bytes = (self.parameters as u64 * self.weight_bits as u64).div_ceil(8);
        let activation_bytes = match &self.kind {
            OpKind::Conv2d {
                out_channels,
                output,
                ..
            } => (out_channels * output.0 * output.1 * 4) as u64,
            OpKind::Dense { out_features, .. } => (*out_features * 4) as u64,
            OpKind::Pool { output_elements } => (*output_elements * 4) as u64,
            OpKind::Activation { elements } => (*elements * 8) as u64,
            OpKind::Fft { size } => (*size * 16) as u64,
            OpKind::GccPhat { bins } => (*bins * 16) as u64,
            OpKind::SrpSteering {
                pairs, directions, ..
            } => ((*pairs + *directions) * 8) as u64,
            OpKind::Filterbank { bands, .. } => (*bands * 8) as u64,
            OpKind::Custom { macs } => macs / 4,
        };
        weight_bytes + activation_bytes
    }

    /// Size of the operator's weights in bytes at the current bit width.
    pub fn weight_bytes(&self) -> u64 {
        (self.parameters as u64 * self.weight_bits as u64).div_ceil(8)
    }

    /// Operational intensity in MAC per byte (the roofline x-axis).
    pub fn operational_intensity(&self) -> f64 {
        self.macs() as f64 / self.bytes_accessed().max(1) as f64
    }
}

/// A flat operator graph (the ops execute sequentially once per frame).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpGraph {
    name: String,
    ops: Vec<OpNode>,
}

impl OpGraph {
    /// Creates an empty graph with a name.
    pub fn new(name: &str) -> Self {
        OpGraph {
            name: name.to_string(),
            ops: Vec::new(),
        }
    }

    /// The graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an operator.
    pub fn push(&mut self, op: OpNode) {
        self.ops.push(op);
    }

    /// The operators in execution order.
    pub fn ops(&self) -> &[OpNode] {
        &self.ops
    }

    /// Mutable access to the operators (used by optimization passes).
    pub fn ops_mut(&mut self) -> &mut [OpNode] {
        &mut self.ops
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns true if the graph has no operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total MACs per frame.
    pub fn total_macs(&self) -> u64 {
        self.ops.iter().map(OpNode::macs).sum()
    }

    /// Total parameters.
    pub fn total_parameters(&self) -> usize {
        self.ops.iter().map(|o| o.parameters).sum()
    }

    /// Total weight storage in bytes (honouring per-op bit widths).
    pub fn total_weight_bytes(&self) -> u64 {
        self.ops.iter().map(OpNode::weight_bytes).sum()
    }

    /// Total bytes moved per frame.
    pub fn total_bytes_accessed(&self) -> u64 {
        self.ops.iter().map(OpNode::bytes_accessed).sum()
    }

    /// The operator with the largest MAC count (the compute bottleneck of Fig. 4's
    /// "bottleneck analysis" step), if the graph is non-empty.
    pub fn bottleneck(&self) -> Option<&OpNode> {
        self.ops.iter().max_by_key(|o| o.macs())
    }

    /// Builds an IR graph from a trained/untrained `ispot-nn` [`Sequential`] model given
    /// the network input shape (excluding the batch dimension).
    pub fn from_sequential(name: &str, model: &Sequential, input_shape: &[usize]) -> Self {
        let mut graph = OpGraph::new(name);
        let mut shape = input_shape.to_vec();
        for (i, layer) in model.summary(input_shape).iter().enumerate() {
            let out_shape = layer.output_shape.clone();
            let elements: usize = out_shape.iter().product();
            let node = match layer.name.as_str() {
                "conv2d" | "conv1d" => {
                    // Reconstruct an approximate conv node from the parameter count and
                    // shapes: parameters = out_ch * in_ch * kh * kw + out_ch.
                    let out_channels = *out_shape.first().unwrap_or(&1);
                    let in_channels = *shape.first().unwrap_or(&1);
                    let spatial: usize = out_shape.iter().skip(1).product::<usize>().max(1);
                    let kernel_elems = if out_channels > 0 && in_channels > 0 {
                        (layer.parameters.saturating_sub(out_channels))
                            / (out_channels * in_channels).max(1)
                    } else {
                        1
                    };
                    let k = (kernel_elems as f64).sqrt().round().max(1.0) as usize;
                    OpNode {
                        name: format!("{}_{i}", layer.name),
                        kind: OpKind::Conv2d {
                            in_channels,
                            out_channels,
                            kernel: (k, kernel_elems.max(1) / k.max(1)),
                            output: (spatial, 1),
                        },
                        parameters: layer.parameters,
                        weight_bits: 32,
                    }
                }
                "dense" => {
                    let out_features = *out_shape.first().unwrap_or(&1);
                    let in_features: usize = shape.iter().product::<usize>().max(1);
                    OpNode {
                        name: format!("dense_{i}"),
                        kind: OpKind::Dense {
                            in_features,
                            out_features,
                        },
                        parameters: layer.parameters,
                        weight_bits: 32,
                    }
                }
                "maxpool2d" | "global_avg_pool" => OpNode::pool(&format!("pool_{i}"), elements),
                "flatten" => OpNode::custom(&format!("flatten_{i}"), 0, 0),
                _ => OpNode::activation(&format!("{}_{i}", layer.name), elements),
            };
            graph.push(node);
            shape = out_shape;
        }
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispot_nn::activation::Activation;
    use ispot_nn::conv::Conv2d;
    use ispot_nn::dense::Dense;
    use ispot_nn::layer::Flatten;
    use ispot_nn::pooling::MaxPool2d;

    #[test]
    fn conv_macs_match_textbook_formula() {
        let op = OpNode::conv2d("c", 3, 16, (3, 3), (32, 32), 1);
        assert_eq!(op.macs(), 3 * 16 * 9 * 32 * 32);
        assert_eq!(op.parameters, 3 * 16 * 9 + 16);
    }

    #[test]
    fn dense_and_steering_costs() {
        assert_eq!(OpNode::dense("d", 128, 10).macs(), 1280);
        let srp = OpNode::srp_steering("srp", 15, 181, 850);
        assert_eq!(srp.macs(), 15 * 181 * 850);
        assert_eq!(srp.parameters, 15 * 850);
    }

    #[test]
    fn fft_cost_scales_superlinearly() {
        let small = OpNode::fft("fft1k", 1024).macs();
        let large = OpNode::fft("fft4k", 4096).macs();
        assert!(large > 4 * small);
        assert!(large < 8 * small);
    }

    #[test]
    fn graph_aggregates_and_finds_bottleneck() {
        let mut g = OpGraph::new("pipeline");
        g.push(OpNode::fft("fft", 2048));
        g.push(OpNode::srp_steering("srp", 15, 181, 850));
        g.push(OpNode::dense("head", 256, 36));
        assert_eq!(g.len(), 3);
        assert_eq!(
            g.total_macs(),
            g.ops().iter().map(OpNode::macs).sum::<u64>()
        );
        assert_eq!(g.bottleneck().unwrap().name, "srp");
        assert!(g.total_weight_bytes() > 0);
        assert!(!g.is_empty());
    }

    #[test]
    fn weight_bytes_follow_bit_width() {
        let mut op = OpNode::dense("d", 100, 10);
        let full = op.weight_bytes();
        op.weight_bits = 8;
        assert_eq!(op.weight_bytes(), full / 4);
    }

    #[test]
    fn from_sequential_captures_all_layers_and_parameters() {
        let mut model = Sequential::new();
        model.push(Conv2d::new(1, 4, (3, 3), 1, 1, 0).unwrap());
        model.push(Activation::relu());
        model.push(MaxPool2d::new((2, 2)).unwrap());
        model.push(Flatten::new());
        model.push(Dense::new(4 * 8 * 8, 10, 1).unwrap());
        let graph = OpGraph::from_sequential("cnn", &model, &[1, 16, 16]);
        assert_eq!(graph.len(), 5);
        assert_eq!(graph.total_parameters(), model.num_parameters());
        assert!(graph.total_macs() > 0);
    }

    #[test]
    fn operational_intensity_is_positive() {
        for op in [
            OpNode::conv2d("c", 1, 8, (3, 3), (16, 16), 1),
            OpNode::fft("f", 1024),
            OpNode::filterbank("fb", 257, 32),
        ] {
            assert!(op.operational_intensity() > 0.0);
        }
    }
}
