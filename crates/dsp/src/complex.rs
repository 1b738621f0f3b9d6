//! A minimal complex-number type used throughout the DSP crate.
//!
//! The crate deliberately avoids external numeric dependencies, so it ships its own
//! [`Complex`] type with exactly the operations the FFT, PHAT weighting and filter
//! design code need.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number `re + i*im`.
///
/// # Example
///
/// ```
/// use ispot_dsp::Complex;
///
/// let a = Complex::new(1.0, 2.0);
/// let b = Complex::from_polar(1.0, std::f64::consts::FRAC_PI_2);
/// let c = a * b;
/// assert!((c.re - -2.0).abs() < 1e-12);
/// assert!((c.im - 1.0).abs() < 1e-12);
/// ```
///
/// The layout is `repr(C)`, `re` then `im`, so a slice of `Complex` is an
/// interleaved `f64` array the SIMD FFT kernel loads directly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The complex zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The complex one.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from its rectangular form.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a complex number from polar form `r * exp(i*theta)`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Creates `exp(i*theta)`, a unit-magnitude phasor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Returns the complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Returns the magnitude (absolute value).
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Returns the squared magnitude, avoiding the square root.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Returns the argument (phase angle) in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Returns the multiplicative inverse. The inverse of zero is a NaN-filled value.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Scales the complex number by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Returns `exp(self)`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Returns true if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w == z * w⁻¹ by definition
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.inv()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(3.0, -2.0);
        assert_eq!(a + Complex::ZERO, a);
        assert_eq!(a * Complex::ONE, a);
        assert_eq!(a - a, Complex::ZERO);
        let prod = a * a.inv();
        assert!((prod.re - 1.0).abs() < EPS);
        assert!(prod.im.abs() < EPS);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.5, 0.7);
        assert!((z.norm() - 2.5).abs() < EPS);
        assert!((z.arg() - 0.7).abs() < EPS);
    }

    #[test]
    fn i_squared_is_minus_one() {
        let m = Complex::I * Complex::I;
        assert!((m.re + 1.0).abs() < EPS);
        assert!(m.im.abs() < EPS);
    }

    #[test]
    fn conjugate_multiplication_gives_norm_sqr() {
        let z = Complex::new(1.5, -4.0);
        let p = z * z.conj();
        assert!((p.re - z.norm_sqr()).abs() < EPS);
        assert!(p.im.abs() < EPS);
    }

    #[test]
    fn division_inverse_of_multiplication() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-0.5, 0.25);
        let c = a * b / b;
        assert!((c.re - a.re).abs() < EPS);
        assert!((c.im - a.im).abs() < EPS);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Complex = (0..4).map(|k| Complex::new(k as f64, 1.0)).sum();
        assert_eq!(total, Complex::new(6.0, 4.0));
    }

    #[test]
    fn exp_of_i_pi_is_minus_one() {
        let e = (Complex::I * std::f64::consts::PI).exp();
        assert!((e.re + 1.0).abs() < 1e-12);
        assert!(e.im.abs() < 1e-12);
    }
}
