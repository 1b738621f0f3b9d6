//! # ispot-sed
//!
//! Emergency sound event detection for automotive scenarios.
//!
//! This crate reproduces the detection task of Sec. IV-A of the I-SPOT paper:
//!
//! * parametric synthesisers for the three siren patterns studied in the emergency-
//!   vehicle-detection literature (**hi-low**, **wail**, **yelp**), car horns and urban
//!   background noise (substituting for the freesound.org recordings used by the
//!   authors, which are not redistributable);
//! * two classical detectors (band-energy and spectral-template matching); the
//!   template detector is the pipeline's per-frame classifier;
//! * classification metrics (accuracy, per-class precision/recall/F1, confusion matrix).
//!
//! The paper's dataset generator (events rendered through the road simulator) and
//! its CNN detector are training and evaluation tools, not runtime code: they live
//! in `ispot-bench` (`ispot_bench::dataset`, `ispot_bench::detector`), so this crate
//! compiles neither the simulator nor the neural-network library.
//!
//! # Example
//!
//! ```
//! use ispot_sed::prelude::*;
//!
//! # fn main() -> Result<(), ispot_sed::SedError> {
//! // Synthesize one second of a "wail" siren and verify the detector input pipeline.
//! let fs = 16_000.0;
//! let siren = SirenSynthesizer::new(SirenKind::Wail, fs).synthesize(1.0);
//! assert_eq!(siren.len(), 16_000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod baseline;
pub mod error;
pub mod labels;
pub mod metrics;
pub mod noise;
pub mod sirens;

pub use error::SedError;
pub use labels::EventClass;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::baseline::{EnergyDetector, SpectralTemplateDetector};
    pub use crate::error::SedError;
    pub use crate::labels::EventClass;
    pub use crate::metrics::ClassificationReport;
    pub use crate::noise::UrbanNoiseSynthesizer;
    pub use crate::sirens::{CarHornSynthesizer, SirenKind, SirenSynthesizer};
}
