//! General IIR filters in transposed direct-form II.

use crate::error::DspError;

/// A general IIR filter defined by numerator (`b`) and denominator (`a`) coefficients.
///
/// The denominator is normalized so that `a[0] == 1`. For second-order sections prefer
/// [`crate::biquad::Biquad`], which is numerically better behaved; this type exists for
/// arbitrary-order prototypes (e.g. the single-pole smoothing filters used by the
/// park-mode trigger).
///
/// # Example
///
/// ```
/// use ispot_dsp::iir::IirFilter;
///
/// # fn main() -> Result<(), ispot_dsp::DspError> {
/// // One-pole smoother: y[n] = 0.1 x[n] + 0.9 y[n-1]
/// let mut f = IirFilter::new(vec![0.1], vec![1.0, -0.9])?;
/// let y = f.process_block(&[1.0; 100]);
/// assert!((y.last().unwrap() - 1.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IirFilter {
    b: Vec<f64>,
    a: Vec<f64>,
    state: Vec<f64>,
}

impl IirFilter {
    /// Creates a filter from numerator `b` and denominator `a` coefficients.
    ///
    /// # Errors
    ///
    /// Returns an error if either coefficient vector is empty or `a[0]` is zero.
    pub fn new(b: Vec<f64>, a: Vec<f64>) -> Result<Self, DspError> {
        if b.is_empty() {
            return Err(DspError::InvalidSize {
                name: "b",
                value: 0,
                constraint: "numerator must have at least one coefficient",
            });
        }
        if a.is_empty() {
            return Err(DspError::InvalidSize {
                name: "a",
                value: 0,
                constraint: "denominator must have at least one coefficient",
            });
        }
        if a[0].abs() < 1e-300 {
            return Err(DspError::invalid_parameter("a", "a[0] must be non-zero"));
        }
        let a0 = a[0];
        let b: Vec<f64> = b.iter().map(|v| v / a0).collect();
        let a: Vec<f64> = a.iter().map(|v| v / a0).collect();
        let order = b.len().max(a.len());
        Ok(IirFilter {
            b,
            a,
            state: vec![0.0; order],
        })
    }

    /// Creates a one-pole low-pass smoother with the given time constant in samples
    /// (`y[n] = (1-k) x[n] + k y[n-1]` with `k = exp(-1/tau)`).
    ///
    /// # Errors
    ///
    /// Returns an error if `tau_samples` is not positive.
    pub fn one_pole_smoother(tau_samples: f64) -> Result<Self, DspError> {
        if tau_samples <= 0.0 {
            return Err(DspError::invalid_parameter(
                "tau_samples",
                "must be positive",
            ));
        }
        let k = (-1.0 / tau_samples).exp();
        Self::new(vec![1.0 - k], vec![1.0, -k])
    }

    /// Returns the numerator coefficients.
    pub fn numerator(&self) -> &[f64] {
        &self.b
    }

    /// Returns the denominator coefficients (normalized, `a[0] == 1`).
    pub fn denominator(&self) -> &[f64] {
        &self.a
    }

    /// Resets the internal state.
    pub fn reset(&mut self) {
        self.state.fill(0.0);
    }

    /// Filters one sample.
    pub fn process(&mut self, x: f64) -> f64 {
        let order = self.state.len();
        let b0 = self.b[0];
        let y = b0 * x + self.state[0];
        for i in 1..order {
            let bi = self.b.get(i).copied().unwrap_or(0.0);
            let ai = self.a.get(i).copied().unwrap_or(0.0);
            let next = self.state.get(i).copied().unwrap_or(0.0);
            self.state[i - 1] = bi * x - ai * y + next;
        }
        if order > 0 {
            let bi = self.b.get(order).copied().unwrap_or(0.0);
            let ai = self.a.get(order).copied().unwrap_or(0.0);
            self.state[order - 1] = bi * x - ai * y;
        }
        y
    }

    /// Filters a block of samples.
    pub fn process_block(&mut self, input: &[f64]) -> Vec<f64> {
        input.iter().map(|&x| self.process(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fir_special_case_matches_convolution() {
        let mut f = IirFilter::new(vec![1.0, 2.0, 3.0], vec![1.0]).unwrap();
        let out = f.process_block(&[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn one_pole_smoother_converges_to_dc_input() {
        let mut f = IirFilter::one_pole_smoother(10.0).unwrap();
        let y = f.process_block(&vec![2.0; 200]);
        assert!((y.last().unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn denominator_is_normalized() {
        let f = IirFilter::new(vec![2.0], vec![2.0, 1.0]).unwrap();
        assert_eq!(f.denominator()[0], 1.0);
        assert_eq!(f.numerator()[0], 1.0);
    }

    #[test]
    fn leaky_integrator_impulse_response_decays_geometrically() {
        let mut f = IirFilter::new(vec![1.0], vec![1.0, -0.5]).unwrap();
        let mut impulse = vec![0.0; 6];
        impulse[0] = 1.0;
        let y = f.process_block(&impulse);
        for (n, &v) in y.iter().enumerate() {
            assert!((v - 0.5f64.powi(n as i32)).abs() < 1e-12);
        }
    }

    #[test]
    fn invalid_construction_is_rejected() {
        assert!(IirFilter::new(vec![], vec![1.0]).is_err());
        assert!(IirFilter::new(vec![1.0], vec![]).is_err());
        assert!(IirFilter::new(vec![1.0], vec![0.0, 1.0]).is_err());
        assert!(IirFilter::one_pole_smoother(0.0).is_err());
    }

    #[test]
    fn reset_clears_memory() {
        let mut f = IirFilter::new(vec![1.0], vec![1.0, -0.9]).unwrap();
        f.process_block(&[1.0; 50]);
        f.reset();
        assert_eq!(f.process(0.0), 0.0);
    }
}
