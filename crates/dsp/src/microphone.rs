//! Microphone array geometries.
//!
//! The assessment of microphone-array topology and placement on the car body is one of
//! the open system-level challenges identified by the paper (Sec. II and V); this module
//! provides the standard candidate geometries used in experiment E8.

use crate::error::DspError;
use crate::geometry::Position;
use std::f64::consts::PI;

/// An array of static omnidirectional microphones.
///
/// # Example
///
/// ```
/// use ispot_dsp::{geometry::Position, microphone::MicrophoneArray};
///
/// let array = MicrophoneArray::circular(8, 0.15, Position::new(0.0, 0.0, 1.2));
/// assert_eq!(array.len(), 8);
/// assert!((array.aperture() - 0.3).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MicrophoneArray {
    positions: Vec<Position>,
}

impl MicrophoneArray {
    /// Creates an array from explicit microphone positions.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `positions` is empty.
    pub fn custom(positions: Vec<Position>) -> Result<Self, DspError> {
        if positions.is_empty() {
            return Err(DspError::invalid_parameter(
                "positions",
                "array must contain at least one microphone",
            ));
        }
        Ok(MicrophoneArray { positions })
    }

    /// A uniform linear array of `count` microphones spaced `spacing` metres apart
    /// along the x axis, centred on `center`.
    pub fn linear(count: usize, spacing: f64, center: Position) -> Self {
        let count = count.max(1);
        let offset = (count as f64 - 1.0) / 2.0;
        let positions = (0..count)
            .map(|i| Position::new(center.x + (i as f64 - offset) * spacing, center.y, center.z))
            .collect();
        MicrophoneArray { positions }
    }

    /// A uniform circular array of `count` microphones with the given `radius`, in the
    /// horizontal plane through `center`.
    pub fn circular(count: usize, radius: f64, center: Position) -> Self {
        let count = count.max(1);
        let positions = (0..count)
            .map(|i| {
                let theta = 2.0 * PI * i as f64 / count as f64;
                Position::new(
                    center.x + radius * theta.cos(),
                    center.y + radius * theta.sin(),
                    center.z,
                )
            })
            .collect();
        MicrophoneArray { positions }
    }

    /// Six microphones on an **irregular** hexagon (jittered angles and radii,
    /// ~0.2 m aperture) in the horizontal plane through `center` — the
    /// reference roof-array layout of the scenario harness and examples.
    ///
    /// A regular polygon array is invariant under reflection about its
    /// symmetry axes, so its SRP maps answer a source at `+θ` with a
    /// persistent mirror lobe near `−θ` that multi-target tracking would
    /// confirm as a phantom source; jittering the geometry breaks the symmetry
    /// and removes those lobes while costing nothing in single-source accuracy
    /// (see the tracking-subsystem notes in `ARCHITECTURE.md`).
    pub fn irregular_hexagon(center: Position) -> Self {
        const ANGLES_DEG: [f64; 6] = [0.0, 47.0, 113.0, 166.0, 218.0, 285.0];
        const RADII_M: [f64; 6] = [0.22, 0.17, 0.21, 0.16, 0.23, 0.18];
        let positions = ANGLES_DEG
            .iter()
            .zip(&RADII_M)
            .map(|(a, r)| {
                let theta = a.to_radians();
                Position::new(
                    center.x + r * theta.cos(),
                    center.y + r * theta.sin(),
                    center.z,
                )
            })
            .collect();
        MicrophoneArray { positions }
    }

    /// A rectangular grid of `nx * ny` microphones with spacings `dx`, `dy`, centred on
    /// `center`.
    pub fn rectangular(nx: usize, ny: usize, dx: f64, dy: f64, center: Position) -> Self {
        let nx = nx.max(1);
        let ny = ny.max(1);
        let ox = (nx as f64 - 1.0) / 2.0;
        let oy = (ny as f64 - 1.0) / 2.0;
        let mut positions = Vec::with_capacity(nx * ny);
        for j in 0..ny {
            for i in 0..nx {
                positions.push(Position::new(
                    center.x + (i as f64 - ox) * dx,
                    center.y + (j as f64 - oy) * dy,
                    center.z,
                ));
            }
        }
        MicrophoneArray { positions }
    }

    /// Number of microphones.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns true if the array has no microphones (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Microphone positions, in metres.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Geometric centroid of the array.
    pub fn centroid(&self) -> Position {
        let n = self.positions.len() as f64;
        self.positions
            .iter()
            .fold(Position::ORIGIN, |acc, &p| acc + p)
            * (1.0 / n)
    }

    /// Maximum distance between any two microphones (the array aperture).
    pub fn aperture(&self) -> f64 {
        let mut max = 0.0f64;
        for (i, a) in self.positions.iter().enumerate() {
            for b in &self.positions[i + 1..] {
                max = max.max(a.distance_to(*b));
            }
        }
        max
    }

    /// Iterates over all unordered microphone pairs `(i, j)` with `i < j`.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        let n = self.positions.len();
        let mut out = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in i + 1..n {
                out.push((i, j));
            }
        }
        out
    }

    /// The maximum inter-microphone propagation delay in samples at sampling rate `fs`
    /// and speed of sound `c`, used to size correlation windows.
    pub fn max_delay_samples(&self, fs: f64, c: f64) -> f64 {
        self.aperture() / c * fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_array_spacing_and_centering() {
        let a = MicrophoneArray::linear(4, 0.2, Position::new(1.0, 2.0, 3.0));
        assert_eq!(a.len(), 4);
        let c = a.centroid();
        assert!((c.x - 1.0).abs() < 1e-12 && (c.y - 2.0).abs() < 1e-12);
        assert!((a.aperture() - 0.6).abs() < 1e-12);
        let d = a.positions()[1].distance_to(a.positions()[0]);
        assert!((d - 0.2).abs() < 1e-12);
    }

    #[test]
    fn circular_array_points_lie_on_circle() {
        let center = Position::new(0.0, 0.0, 1.0);
        let a = MicrophoneArray::circular(6, 0.5, center);
        for p in a.positions() {
            assert!((p.distance_to(center) - 0.5).abs() < 1e-12);
        }
        assert!((a.aperture() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rectangular_array_count() {
        let a = MicrophoneArray::rectangular(3, 2, 0.1, 0.2, Position::ORIGIN);
        assert_eq!(a.len(), 6);
        assert!((a.centroid().length()) < 1e-12);
    }

    #[test]
    fn pair_count_is_n_choose_2() {
        let a = MicrophoneArray::circular(8, 0.2, Position::ORIGIN);
        assert_eq!(a.pairs().len(), 28);
    }

    #[test]
    fn custom_array_rejects_empty() {
        assert!(MicrophoneArray::custom(vec![]).is_err());
        assert!(MicrophoneArray::custom(vec![Position::ORIGIN]).is_ok());
    }

    #[test]
    fn max_delay_samples_follows_aperture() {
        let a = MicrophoneArray::linear(2, 0.343, Position::ORIGIN);
        let d = a.max_delay_samples(16_000.0, 343.0);
        assert!((d - 16.0).abs() < 1e-9);
    }

    #[test]
    fn single_microphone_has_zero_aperture() {
        let a = MicrophoneArray::linear(1, 0.1, Position::ORIGIN);
        assert_eq!(a.aperture(), 0.0);
        assert!(a.pairs().is_empty());
    }
}
