//! Error type for the localization crate.

use ispot_dsp::DspError;
use std::error::Error;
use std::fmt;

/// Errors produced by the localization front-ends and back-ends.
#[derive(Debug, Clone, PartialEq)]
pub enum SslError {
    /// A configuration parameter is invalid.
    InvalidConfig {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the violated constraint.
        reason: String,
    },
    /// The multichannel input does not match the array the processor was built for.
    ChannelMismatch {
        /// Number of channels expected (the array size).
        expected: usize,
        /// Number of channels supplied.
        actual: usize,
    },
    /// A caller-provided scratch buffer does not match the processor's geometry.
    ///
    /// The allocation-free compute paths require scratch buffers pre-sized by the
    /// processor's `make_scratch`; they refuse to grow buffers on the hot path.
    ScratchSize {
        /// Name of the offending scratch buffer.
        buffer: &'static str,
        /// Length the processor requires.
        expected: usize,
        /// Length actually supplied.
        actual: usize,
    },
    /// A low-level DSP operation failed.
    Dsp(DspError),
}

impl fmt::Display for SslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SslError::InvalidConfig { name, reason } => {
                write!(f, "invalid configuration `{name}`: {reason}")
            }
            SslError::ChannelMismatch { expected, actual } => {
                write!(f, "channel mismatch: expected {expected}, got {actual}")
            }
            SslError::ScratchSize {
                buffer,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "scratch buffer `{buffer}` has length {actual}, expected {expected} \
                     (create the scratch with the processor's make_scratch)"
                )
            }
            SslError::Dsp(e) => write!(f, "dsp error: {e}"),
        }
    }
}

impl Error for SslError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SslError::Dsp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DspError> for SslError {
    fn from(e: DspError) -> Self {
        SslError::Dsp(e)
    }
}

impl SslError {
    /// Convenience constructor for [`SslError::InvalidConfig`].
    pub fn invalid_config(name: &'static str, reason: impl Into<String>) -> Self {
        SslError::InvalidConfig {
            name,
            reason: reason.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        assert!(SslError::invalid_config("grid", "empty")
            .to_string()
            .contains("grid"));
        let e = SslError::ChannelMismatch {
            expected: 6,
            actual: 2,
        };
        assert!(e.to_string().contains('6'));
        let e = SslError::ScratchSize {
            buffer: "lag_tables",
            expected: 765,
            actual: 0,
        };
        assert!(e.to_string().contains("lag_tables"));
        assert!(e.to_string().contains("765"));
        let wrapped: SslError = DspError::InsufficientData {
            required: 2048,
            available: 0,
        }
        .into();
        assert!(Error::source(&wrapped).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SslError>();
    }
}
