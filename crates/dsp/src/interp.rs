//! Interpolation of sampled signals at fractional positions.
//!
//! Fractional-delay reads are the mechanism by which the road-acoustics simulator
//! produces smooth, artefact-free Doppler shifts (Sec. IV-A of the paper; the
//! variable-length delay lines of Fig. 2 are read at non-integer positions).

/// The interpolation method used for fractional reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Interpolator {
    /// Zero-order hold (nearest sample). Cheapest, audible artefacts under Doppler.
    Nearest,
    /// Linear interpolation between the two neighbouring samples.
    #[default]
    Linear,
    /// Third-order Lagrange interpolation over four neighbouring samples.
    Lagrange3,
    /// Windowed-sinc interpolation (8 taps, Hann-windowed). Highest quality.
    Sinc8,
}

impl Interpolator {
    /// Number of samples of context required on each side of the read position.
    pub fn support(self) -> usize {
        match self {
            Interpolator::Nearest => 1,
            Interpolator::Linear => 1,
            Interpolator::Lagrange3 => 2,
            Interpolator::Sinc8 => 4,
        }
    }

    /// Interpolates `signal` at fractional index `pos`.
    ///
    /// Positions outside the signal are clamped to the nearest valid sample, which is
    /// the behaviour needed when a delay line has just been filled.
    pub fn interpolate(self, signal: &[f64], pos: f64) -> f64 {
        if signal.is_empty() {
            return 0.0;
        }
        let clamp = |i: isize| -> f64 {
            let i = i.clamp(0, signal.len() as isize - 1) as usize;
            signal[i]
        };
        let base = pos.floor();
        let frac = pos - base;
        let i0 = base as isize;
        match self {
            Interpolator::Nearest => clamp(pos.round() as isize),
            Interpolator::Linear => {
                let a = clamp(i0);
                let b = clamp(i0 + 1);
                a + frac * (b - a)
            }
            Interpolator::Lagrange3 => {
                // Third-order Lagrange over samples at offsets -1, 0, 1, 2.
                let xm1 = clamp(i0 - 1);
                let x0 = clamp(i0);
                let x1 = clamp(i0 + 1);
                let x2 = clamp(i0 + 2);
                let d = frac;
                let c0 = -d * (d - 1.0) * (d - 2.0) / 6.0;
                let c1 = (d + 1.0) * (d - 1.0) * (d - 2.0) / 2.0;
                let c2 = -(d + 1.0) * d * (d - 2.0) / 2.0;
                let c3 = (d + 1.0) * d * (d - 1.0) / 6.0;
                c0 * xm1 + c1 * x0 + c2 * x1 + c3 * x2
            }
            Interpolator::Sinc8 => {
                let taps = 4isize;
                let mut acc = 0.0;
                let mut norm = 0.0;
                for k in (1 - taps)..=taps {
                    let idx = i0 + k;
                    let t = frac - k as f64;
                    let sinc = if t.abs() < 1e-12 {
                        1.0
                    } else {
                        let pt = std::f64::consts::PI * t;
                        pt.sin() / pt
                    };
                    // Hann window over the tap span.
                    let w = 0.5 + 0.5 * (std::f64::consts::PI * t / taps as f64).cos();
                    let coeff = sinc * w.max(0.0);
                    acc += coeff * clamp(idx);
                    norm += coeff;
                }
                if norm.abs() > 1e-12 {
                    acc / norm
                } else {
                    acc
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_methods_are_exact_at_integer_positions() {
        let x = [0.0, 1.0, 4.0, 9.0, 16.0, 25.0, 36.0, 49.0];
        for m in [
            Interpolator::Nearest,
            Interpolator::Linear,
            Interpolator::Lagrange3,
            Interpolator::Sinc8,
        ] {
            for i in 2..6 {
                let v = m.interpolate(&x, i as f64);
                assert!(
                    (v - x[i]).abs() < 1e-9,
                    "{m:?} at integer {i}: got {v}, want {}",
                    x[i]
                );
            }
        }
    }

    #[test]
    fn linear_midpoint() {
        let x = [0.0, 2.0, 4.0];
        assert!((Interpolator::Linear.interpolate(&x, 0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lagrange_reproduces_quadratic() {
        // x[n] = n^2 is a polynomial of degree 2, which cubic Lagrange reproduces exactly.
        let x: Vec<f64> = (0..10).map(|n| (n * n) as f64).collect();
        for p in [2.25, 3.5, 4.75, 6.1] {
            let v = Interpolator::Lagrange3.interpolate(&x, p);
            assert!((v - p * p).abs() < 1e-9, "at {p}: {v} vs {}", p * p);
        }
    }

    #[test]
    fn sinc_tracks_smooth_sine_closely() {
        let fs = 100.0;
        let f0 = 3.0;
        let x: Vec<f64> = (0..200)
            .map(|n| (2.0 * std::f64::consts::PI * f0 * n as f64 / fs).sin())
            .collect();
        for p in [50.3, 80.77, 120.5] {
            let truth = (2.0 * std::f64::consts::PI * f0 * p / fs).sin();
            let v = Interpolator::Sinc8.interpolate(&x, p);
            assert!((v - truth).abs() < 2e-3, "at {p}: {v} vs {truth}");
        }
    }

    #[test]
    fn out_of_range_positions_are_clamped() {
        let x = [1.0, 2.0, 3.0];
        assert_eq!(Interpolator::Linear.interpolate(&x, -5.0), 1.0);
        assert_eq!(Interpolator::Linear.interpolate(&x, 10.0), 3.0);
    }

    #[test]
    fn empty_signal_yields_zero() {
        assert_eq!(Interpolator::Linear.interpolate(&[], 1.0), 0.0);
    }
}
