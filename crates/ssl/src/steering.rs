//! Far-field steering model over an azimuth grid.

use crate::error::SslError;
use ispot_roadsim::geometry::Position;
use ispot_roadsim::microphone::MicrophoneArray;

/// An azimuth grid plus the per-pair expected TDOAs (in samples) for a far-field source
/// in each grid direction.
///
/// TDOA convention: for pair `(i, j)` the stored value is the delay of channel
/// `j` relative to channel `i`, positive when the wavefront reaches microphone
/// `i` first.
///
/// # Example
///
/// ```
/// use ispot_roadsim::{geometry::Position, microphone::MicrophoneArray};
/// use ispot_ssl::steering::SteeringGrid;
///
/// # fn main() -> Result<(), ispot_ssl::SslError> {
/// let array = MicrophoneArray::linear(4, 0.1, Position::new(0.0, 0.0, 1.0));
/// let grid = SteeringGrid::azimuth_only(&array, 181, 16_000.0, 343.0)?;
/// assert_eq!(grid.num_directions(), 181);
/// assert_eq!(grid.num_pairs(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SteeringGrid {
    azimuths_deg: Vec<f64>,
    pairs: Vec<(usize, usize)>,
    /// `tdoas[d][p]` = expected TDOA in samples for direction `d` and pair `p`.
    tdoas: Vec<Vec<f64>>,
    max_tdoa: f64,
    sample_rate: f64,
}

impl SteeringGrid {
    /// Builds a uniform azimuth grid of `num_directions` points spanning
    /// `[-180, 180)` degrees for the given array, sampling rate and speed of sound.
    ///
    /// # Errors
    ///
    /// Returns an error if the grid is empty, the array has fewer than two
    /// microphones, or the physical constants are not positive.
    pub fn azimuth_only(
        array: &MicrophoneArray,
        num_directions: usize,
        sample_rate: f64,
        speed_of_sound: f64,
    ) -> Result<Self, SslError> {
        if num_directions == 0 {
            return Err(SslError::invalid_config(
                "num_directions",
                "must be positive",
            ));
        }
        if array.len() < 2 {
            return Err(SslError::invalid_config(
                "array",
                "needs at least two microphones",
            ));
        }
        if sample_rate <= 0.0 || speed_of_sound <= 0.0 {
            return Err(SslError::invalid_config(
                "sample_rate/speed_of_sound",
                "must be positive",
            ));
        }
        let centroid = array.centroid();
        let pairs = array.pairs();
        let azimuths_deg: Vec<f64> = (0..num_directions)
            .map(|d| -180.0 + 360.0 * d as f64 / num_directions as f64)
            .collect();
        let mut tdoas = Vec::with_capacity(num_directions);
        let mut max_tdoa = 0.0f64;
        for &az in &azimuths_deg {
            let theta = az.to_radians();
            // Unit vector pointing from the array towards the (far-field) source.
            let u = Position::new(theta.cos(), theta.sin(), 0.0);
            let mut row = Vec::with_capacity(pairs.len());
            for &(i, j) in &pairs {
                let ri = array.positions()[i] - centroid;
                let rj = array.positions()[j] - centroid;
                // Arrival time at mic m is -(r_m . u)/c relative to the centroid; the
                // TDOA of channel j relative to channel i is tau_j - tau_i.
                let tdoa_s = (ri.dot(u) - rj.dot(u)) / speed_of_sound;
                let tdoa = tdoa_s * sample_rate;
                max_tdoa = max_tdoa.max(tdoa.abs());
                row.push(tdoa);
            }
            tdoas.push(row);
        }
        Ok(SteeringGrid {
            azimuths_deg,
            pairs,
            tdoas,
            max_tdoa,
            sample_rate,
        })
    }

    /// Number of candidate directions.
    pub fn num_directions(&self) -> usize {
        self.azimuths_deg.len()
    }

    /// Number of microphone pairs.
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// The microphone pairs `(i, j)` with `i < j`.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Number of microphone channels the pair list spans.
    pub fn num_channels(&self) -> usize {
        self.pairs.iter().map(|&(_, j)| j + 1).max().unwrap_or(0)
    }

    /// Azimuth (degrees) of grid direction `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn azimuth_deg(&self, d: usize) -> f64 {
        self.azimuths_deg[d]
    }

    /// All azimuths in degrees.
    pub fn azimuths_deg(&self) -> &[f64] {
        &self.azimuths_deg
    }

    /// Expected TDOA (samples) for direction `d` and pair index `p`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn tdoa(&self, d: usize, p: usize) -> f64 {
        self.tdoas[d][p]
    }

    /// Largest TDOA magnitude (samples) across the whole grid — the Nyquist-rate lag
    /// support used by the low-complexity SRP.
    pub fn max_tdoa_samples(&self) -> f64 {
        self.max_tdoa
    }

    /// Sampling rate this grid was built for.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Index of the grid direction closest to `azimuth_deg` (wrap-around aware).
    pub fn nearest_direction(&self, azimuth_deg: f64) -> usize {
        self.azimuths_deg
            .iter()
            .enumerate()
            .min_by(|a, b| {
                crate::metrics::angular_error_deg(*a.1, azimuth_deg)
                    .total_cmp(&crate::metrics::angular_error_deg(*b.1, azimuth_deg))
            })
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_array() -> MicrophoneArray {
        MicrophoneArray::linear(4, 0.1, Position::new(0.0, 0.0, 1.0))
    }

    #[test]
    fn grid_covers_the_full_circle_uniformly() {
        let grid = SteeringGrid::azimuth_only(&linear_array(), 72, 16_000.0, 343.0).unwrap();
        assert_eq!(grid.num_directions(), 72);
        assert_eq!(grid.azimuth_deg(0), -180.0);
        let step = grid.azimuth_deg(1) - grid.azimuth_deg(0);
        assert!((step - 5.0).abs() < 1e-9);
    }

    #[test]
    fn broadside_direction_has_zero_tdoa_for_a_linear_array() {
        // A source at 90 degrees (broadside, +y) is equidistant from all mics on the x
        // axis, so every pair TDOA is zero.
        let grid = SteeringGrid::azimuth_only(&linear_array(), 360, 16_000.0, 343.0).unwrap();
        let broadside = grid.nearest_direction(90.0);
        for p in 0..grid.num_pairs() {
            assert!(grid.tdoa(broadside, p).abs() < 1e-9);
        }
    }

    #[test]
    fn endfire_tdoa_matches_spacing_over_speed_of_sound() {
        let fs = 16_000.0;
        let c = 343.0;
        let grid = SteeringGrid::azimuth_only(&linear_array(), 360, fs, c).unwrap();
        // Endfire (0 degrees, +x): adjacent mics separated by 0.1 m along the
        // propagation direction, pair (0, 1): mic 0 sits at smaller x, so the wave from
        // +x reaches mic 1 first.
        let endfire = grid.nearest_direction(0.0);
        let expected = 0.1 / c * fs;
        let p01 = grid
            .pairs()
            .iter()
            .position(|&(i, j)| i == 0 && j == 1)
            .unwrap();
        assert!(
            (grid.tdoa(endfire, p01).abs() - expected).abs() < 1e-6,
            "tdoa {} expected magnitude {expected}",
            grid.tdoa(endfire, p01)
        );
        assert!(grid.max_tdoa_samples() >= expected * 3.0 - 1e-6);
    }

    #[test]
    fn opposite_directions_have_opposite_tdoas() {
        let grid = SteeringGrid::azimuth_only(&linear_array(), 360, 16_000.0, 343.0).unwrap();
        let east = grid.nearest_direction(0.0);
        let west = grid.nearest_direction(180.0);
        for p in 0..grid.num_pairs() {
            assert!((grid.tdoa(east, p) + grid.tdoa(west, p)).abs() < 1e-9);
        }
    }

    #[test]
    fn invalid_configurations_rejected() {
        let array = linear_array();
        assert!(SteeringGrid::azimuth_only(&array, 0, 16_000.0, 343.0).is_err());
        assert!(SteeringGrid::azimuth_only(&array, 10, 0.0, 343.0).is_err());
        let single = MicrophoneArray::linear(1, 0.1, Position::ORIGIN);
        assert!(SteeringGrid::azimuth_only(&single, 10, 16_000.0, 343.0).is_err());
    }

    #[test]
    fn nearest_direction_wraps_around() {
        let grid = SteeringGrid::azimuth_only(&linear_array(), 36, 16_000.0, 343.0).unwrap();
        let d = grid.nearest_direction(179.9);
        // 179.9 is closest to -180 (= +180) or 170 depending on the grid; both are
        // within one step.
        let err = crate::metrics::angular_error_deg(grid.azimuth_deg(d), 179.9);
        assert!(err <= 10.0 + 1e-9);
    }
}
