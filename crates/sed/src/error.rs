//! Error type for the sound event detection crate.

use ispot_dsp::DspError;
use ispot_features::FeatureError;
use std::error::Error;
use std::fmt;

/// Errors produced while generating datasets or training/running detectors.
#[derive(Debug, Clone, PartialEq)]
pub enum SedError {
    /// A configuration parameter is invalid.
    InvalidConfig {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the violated constraint.
        reason: String,
    },
    /// The dataset is empty or otherwise unusable for the requested operation.
    EmptyDataset,
    /// A low-level DSP step failed.
    Dsp(DspError),
    /// A feature-extraction step failed.
    Feature(FeatureError),
}

impl fmt::Display for SedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SedError::InvalidConfig { name, reason } => {
                write!(f, "invalid configuration `{name}`: {reason}")
            }
            SedError::EmptyDataset => write!(f, "dataset contains no samples"),
            SedError::Dsp(e) => write!(f, "dsp error: {e}"),
            SedError::Feature(e) => write!(f, "feature extraction error: {e}"),
        }
    }
}

impl Error for SedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SedError::Dsp(e) => Some(e),
            SedError::Feature(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DspError> for SedError {
    fn from(e: DspError) -> Self {
        SedError::Dsp(e)
    }
}

impl From<FeatureError> for SedError {
    fn from(e: FeatureError) -> Self {
        SedError::Feature(e)
    }
}

impl SedError {
    /// Convenience constructor for [`SedError::InvalidConfig`].
    pub fn invalid_config(name: &'static str, reason: impl Into<String>) -> Self {
        SedError::InvalidConfig {
            name,
            reason: reason.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert!(SedError::invalid_config("snr", "bad range")
            .to_string()
            .contains("snr"));
        assert!(!SedError::EmptyDataset.to_string().is_empty());
        let e: SedError = FeatureError::invalid_config("x", "y").into();
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SedError>();
    }
}
