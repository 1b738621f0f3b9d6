//! # ispot-codesign
//!
//! The hardware–algorithm co-design workflow of the I-SPOT project (Sec. IV-B and
//! Fig. 4 of the paper).
//!
//! The workflow breaks the joint hardware/algorithm design space into manageable
//! pieces:
//!
//! 1. **Operator-level IR** ([`ir`]) — every candidate pipeline (DSP front-end + neural
//!    back-end) is lowered to a graph of operators with analytic compute and memory
//!    costs, substituting for the TVM/SDFG lowering used by the authors.
//! 2. **Hardware cost models** ([`platform`]) — roofline-style latency and energy
//!    estimates for edge platforms (a Raspberry-Pi-4B-class CPU, an MCU-class core and
//!    an accelerator-class device).
//! 3. **Optimization passes** ([`passes`]) — pruning, quantization, feature-resolution
//!    and channel-width scaling applied to a candidate design point.
//! 4. **Design-space exploration** ([`dse`]) — the iteration loop of Fig. 4: evaluate
//!    candidates, judge the algorithm/hardware trade-off against an accuracy floor, and
//!    update the configuration.
//!
//! # Example
//!
//! ```
//! use ispot_codesign::prelude::*;
//!
//! # fn main() -> Result<(), ispot_codesign::CodesignError> {
//! // Cost of a small CNN layer on a RasPi-4B-class platform.
//! let op = OpNode::conv2d("conv1", 1, 8, (3, 3), (32, 32), 1);
//! let platform = EdgePlatform::raspberry_pi4();
//! let latency = platform.op_latency_ms(&op);
//! assert!(latency > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod dse;
pub mod error;
pub mod ir;
pub mod passes;
pub mod platform;

pub use error::CodesignError;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::dse::{
        CandidateEvaluator, CandidateMetrics, CoDesignLoop, CoDesignReport, DesignPoint,
        DesignSpace, EvaluatedPoint,
    };
    pub use crate::error::CodesignError;
    pub use crate::ir::{OpGraph, OpKind, OpNode};
    pub use crate::passes::{Pass, PassOutcome};
    pub use crate::platform::{EdgePlatform, RooflinePoint};
}
