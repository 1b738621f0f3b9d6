//! # ispot-features
//!
//! Acoustic feature extraction for automotive sound analysis.
//!
//! The state-of-the-art emergency-sound detectors surveyed in Sec. III of the I-SPOT
//! paper use time–frequency representations as network inputs. This crate provides
//! the two the detectors here consume, on top of the `ispot-dsp` STFT: power,
//! magnitude and log spectrograms ([`spectrogram`]) and the mel filterbank
//! ([`mel`]), with their per-frame scratch-reusing entry points.
//!
//! # Example
//!
//! ```
//! use ispot_features::prelude::*;
//!
//! # fn main() -> Result<(), ispot_features::FeatureError> {
//! let fs = 16_000.0;
//! let signal: Vec<f64> = ispot_dsp::generator::Sine::new(1000.0, fs).take(8000).collect();
//! let spec = SpectrogramExtractor::new(SpectrogramConfig::default())?.compute(&signal)?;
//! let mel = MelFilterbank::new(40, 257, fs, 0.0, fs / 2.0)?.apply_spectrogram(&spec)?;
//! assert_eq!(mel.num_cols(), 40);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod matrix;
pub mod mel;
pub mod spectrogram;

pub use error::FeatureError;
pub use matrix::FeatureMatrix;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::error::FeatureError;
    pub use crate::matrix::FeatureMatrix;
    pub use crate::mel::MelFilterbank;
    pub use crate::spectrogram::{SpectrogramConfig, SpectrogramExtractor, SpectrogramScale};
}
