//! Simulated uniform weight quantization.
//!
//! Quantization is the second compression pass used by the co-design workflow: weights
//! are snapped to a `2^bits`-level uniform grid (per parameter group), which models the
//! accuracy impact of integer deployment while keeping the arithmetic in `f64`. The
//! [`QuantizationReport`] gives the model-size reduction that the hardware cost model
//! consumes.

use crate::error::NnError;
use crate::model::Sequential;

/// Summary of a quantization pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizationReport {
    /// Bit width the weights were quantized to.
    pub bits: u8,
    /// Number of quantized parameters.
    pub num_parameters: usize,
    /// Mean absolute quantization error introduced.
    pub mean_abs_error: f64,
    /// Model size in bytes before quantization (assuming 32-bit floats, the deployment
    /// baseline used in the paper's workflow).
    pub original_bytes: usize,
    /// Model size in bytes after quantization.
    pub quantized_bytes: usize,
}

impl QuantizationReport {
    /// Fractional size reduction, e.g. 0.75 for 8-bit quantization of 32-bit weights.
    pub fn size_reduction(&self) -> f64 {
        if self.original_bytes == 0 {
            0.0
        } else {
            1.0 - self.quantized_bytes as f64 / self.original_bytes as f64
        }
    }
}

/// Quantizes every parameter group of `model` to a symmetric uniform grid with the
/// given bit width (2–16), modifying the weights in place.
///
/// # Errors
///
/// Returns an error if `bits` is outside `[2, 16]`.
///
/// # Example
///
/// ```
/// use ispot_nn::prelude::*;
///
/// # fn main() -> Result<(), ispot_nn::NnError> {
/// let mut model = Sequential::new();
/// model.push(Dense::new(16, 16, 0)?);
/// let report = quantize_model(&mut model, 8)?;
/// assert!(report.size_reduction() > 0.7);
/// # Ok(())
/// # }
/// ```
pub fn quantize_model(model: &mut Sequential, bits: u8) -> Result<QuantizationReport, NnError> {
    if !(2..=16).contains(&bits) {
        return Err(NnError::invalid_parameter(
            "bits",
            format!("must be within [2, 16], got {bits}"),
        ));
    }
    let levels = (1u32 << bits) as f64 - 1.0;
    let mut num_parameters = 0usize;
    let mut total_error = 0.0;
    for (params, _) in model.parameter_groups() {
        if params.is_empty() {
            continue;
        }
        let max_abs = params.iter().fold(0.0f64, |m, w| m.max(w.abs()));
        num_parameters += params.len();
        if max_abs <= 0.0 {
            continue;
        }
        let step = 2.0 * max_abs / levels;
        for w in params.iter_mut() {
            let q = ((*w + max_abs) / step).round() * step - max_abs;
            total_error += (q - *w).abs();
            *w = q;
        }
    }
    let original_bytes = num_parameters * 4;
    let quantized_bytes = (num_parameters * bits as usize).div_ceil(8);
    Ok(QuantizationReport {
        bits,
        num_parameters,
        mean_abs_error: if num_parameters == 0 {
            0.0
        } else {
            total_error / num_parameters as f64
        },
        original_bytes,
        quantized_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;

    fn model() -> Sequential {
        let mut m = Sequential::new();
        m.push(Dense::new(32, 16, 5).unwrap());
        m.push(Dense::new(16, 4, 6).unwrap());
        m
    }

    #[test]
    fn higher_bit_width_gives_lower_error() {
        let mut coarse = model();
        let mut fine = model();
        let r4 = quantize_model(&mut coarse, 4).unwrap();
        let r12 = quantize_model(&mut fine, 12).unwrap();
        assert!(r12.mean_abs_error < r4.mean_abs_error);
    }

    #[test]
    fn size_reduction_matches_bit_width() {
        let mut m = model();
        let r = quantize_model(&mut m, 8).unwrap();
        assert!((r.size_reduction() - 0.75).abs() < 0.01);
        let mut m = model();
        let r = quantize_model(&mut m, 4).unwrap();
        assert!((r.size_reduction() - 0.875).abs() < 0.01);
    }

    #[test]
    fn quantized_weights_lie_on_the_grid() {
        let mut m = model();
        quantize_model(&mut m, 3).unwrap();
        // With 3 bits there are at most 8 distinct levels per parameter group.
        for (params, _) in m.parameter_groups() {
            let mut distinct: Vec<f64> = params.to_vec();
            distinct.sort_by(|a, b| a.total_cmp(b));
            distinct.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
            assert!(distinct.len() <= 9, "found {} levels", distinct.len());
        }
    }

    #[test]
    fn idempotent_on_already_quantized_weights() {
        let mut m = model();
        quantize_model(&mut m, 6).unwrap();
        let snapshot: Vec<Vec<f64>> = m
            .parameter_groups()
            .iter()
            .map(|(p, _)| p.to_vec())
            .collect();
        let second = quantize_model(&mut m, 6).unwrap();
        let after: Vec<Vec<f64>> = m
            .parameter_groups()
            .iter()
            .map(|(p, _)| p.to_vec())
            .collect();
        assert_eq!(snapshot, after);
        assert!(second.mean_abs_error < 1e-12);
    }

    #[test]
    fn invalid_bit_widths_rejected() {
        let mut m = model();
        assert!(quantize_model(&mut m, 1).is_err());
        assert!(quantize_model(&mut m, 32).is_err());
    }
}
