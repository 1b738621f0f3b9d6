//! Spherical-spreading attenuation (the gain blocks `G1..G3` of Fig. 2).

/// Spherical (point-source) spreading model: amplitude decays as `1/r` relative to a
/// reference distance.
///
/// # Example
///
/// ```
/// use ispot_roadsim::attenuation::SphericalSpreading;
///
/// let model = SphericalSpreading::default();
/// // Doubling the distance halves the amplitude (−6 dB).
/// let g1 = model.gain_at(10.0);
/// let g2 = model.gain_at(20.0);
/// assert!((g1 / g2 - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SphericalSpreading {
    /// Distance (metres) at which the gain is unity.
    pub reference_distance_m: f64,
    /// Minimum distance used in the gain computation, to avoid the singularity when a
    /// source passes arbitrarily close to a microphone.
    pub minimum_distance_m: f64,
}

impl Default for SphericalSpreading {
    fn default() -> Self {
        SphericalSpreading {
            reference_distance_m: 1.0,
            minimum_distance_m: 0.25,
        }
    }
}

impl SphericalSpreading {
    /// Creates a spreading model with the given reference distance (gain = 1 there).
    pub fn new(reference_distance_m: f64) -> Self {
        SphericalSpreading {
            reference_distance_m: reference_distance_m.max(1e-6),
            minimum_distance_m: 0.25,
        }
    }

    /// Amplitude gain at `distance_m` metres from the source.
    pub fn gain_at(&self, distance_m: f64) -> f64 {
        self.reference_distance_m / distance_m.max(self.minimum_distance_m)
    }

    /// Attenuation in dB (positive numbers mean loss) at `distance_m`.
    pub fn attenuation_db(&self, distance_m: f64) -> f64 {
        -20.0 * self.gain_at(distance_m).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_is_unity_at_reference_distance() {
        let m = SphericalSpreading::new(2.0);
        assert!((m.gain_at(2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_distance_law() {
        let m = SphericalSpreading::default();
        assert!((m.gain_at(5.0) - 0.2).abs() < 1e-12);
        assert!((m.attenuation_db(10.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn close_distances_are_clamped() {
        let m = SphericalSpreading::default();
        assert_eq!(m.gain_at(0.0), m.gain_at(0.1));
        assert!(m.gain_at(0.0).is_finite());
    }
}
