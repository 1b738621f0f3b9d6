//! Azimuth tracking with a constant-velocity Kalman filter.
//!
//! The "t" in SELD(t) — tracking — smooths the per-frame DOA estimates of a moving
//! source (e.g. an approaching emergency vehicle) and bridges frames where the
//! detector is uncertain.

/// A 1-D constant-velocity Kalman filter on the azimuth angle (degrees), with
/// wrap-around handling at ±180°.
///
/// # Example
///
/// ```
/// use ispot_ssl::tracking::AzimuthKalmanTracker;
///
/// let mut tracker = AzimuthKalmanTracker::new(1.0, 25.0);
/// tracker.update(10.0);
/// tracker.update(12.0);
/// let state = tracker.update(14.0);
/// assert!((state.azimuth_deg - 13.0).abs() < 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AzimuthKalmanTracker {
    /// Process-noise variance (deg^2 per step) on the velocity.
    process_noise: f64,
    /// Measurement-noise variance (deg^2).
    measurement_noise: f64,
    state: Option<TrackState>,
    /// State covariance matrix entries [p00, p01, p10, p11].
    covariance: [f64; 4],
}

/// The tracked state: azimuth and azimuth rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackState {
    /// Smoothed azimuth in degrees, wrapped to `(-180, 180]`.
    pub azimuth_deg: f64,
    /// Azimuth rate in degrees per update step.
    pub rate_deg_per_step: f64,
}

impl AzimuthKalmanTracker {
    /// Creates a tracker with the given process and measurement noise variances.
    pub fn new(process_noise: f64, measurement_noise: f64) -> Self {
        AzimuthKalmanTracker {
            process_noise: process_noise.max(1e-9),
            measurement_noise: measurement_noise.max(1e-9),
            state: None,
            covariance: [100.0, 0.0, 0.0, 100.0],
        }
    }

    /// Returns the current state, if any update has been received.
    pub fn state(&self) -> Option<TrackState> {
        self.state
    }

    /// Resets the tracker to its uninitialized state.
    pub fn reset(&mut self) {
        self.state = None;
        self.covariance = [100.0, 0.0, 0.0, 100.0];
    }

    /// Incorporates one azimuth measurement (degrees) and returns the smoothed state.
    pub fn update(&mut self, measurement_deg: f64) -> TrackState {
        let measurement = wrap_deg(measurement_deg);
        let Some(prev) = self.state else {
            let state = TrackState {
                azimuth_deg: measurement,
                rate_deg_per_step: 0.0,
            };
            self.state = Some(state);
            return state;
        };
        // Predict.
        let pred_az = prev.azimuth_deg + prev.rate_deg_per_step;
        let pred_rate = prev.rate_deg_per_step;
        let [p00, p01, p10, p11] = self.covariance;
        // P = F P F' + Q with F = [[1, 1], [0, 1]].
        let q = self.process_noise;
        let np00 = p00 + p01 + p10 + p11 + q * 0.25;
        let np01 = p01 + p11 + q * 0.5;
        let np10 = p10 + p11 + q * 0.5;
        let np11 = p11 + q;
        // Update with the measurement (H = [1, 0]), handling wrap-around in the
        // innovation.
        let innovation = wrap_deg(measurement - pred_az);
        let s = np00 + self.measurement_noise;
        let k0 = np00 / s;
        let k1 = np10 / s;
        let new_az = wrap_deg(pred_az + k0 * innovation);
        let new_rate = pred_rate + k1 * innovation;
        self.covariance = [
            (1.0 - k0) * np00,
            (1.0 - k0) * np01,
            np10 - k1 * np00,
            np11 - k1 * np01,
        ];
        let state = TrackState {
            azimuth_deg: new_az,
            rate_deg_per_step: new_rate,
        };
        self.state = Some(state);
        state
    }

    /// Advances the filter one step **without** a measurement: the state moves
    /// along its constant-velocity prediction and the covariance inflates by the
    /// process noise. Returns the predicted state, or `None` if the filter has
    /// never been initialized by an update.
    ///
    /// This is the coasting step of multi-target tracking
    /// ([`crate::multitrack`]): a track whose source is momentarily occluded (or
    /// merged with another SRP lobe) keeps moving along its estimated rate until
    /// a gated measurement re-associates with it or it times out.
    pub fn coast(&mut self) -> Option<TrackState> {
        let prev = self.state?;
        let [p00, p01, p10, p11] = self.covariance;
        let q = self.process_noise;
        self.covariance = [
            p00 + p01 + p10 + p11 + q * 0.25,
            p01 + p11 + q * 0.5,
            p10 + p11 + q * 0.5,
            p11 + q,
        ];
        let state = TrackState {
            azimuth_deg: wrap_deg(prev.azimuth_deg + prev.rate_deg_per_step),
            rate_deg_per_step: prev.rate_deg_per_step,
        };
        self.state = Some(state);
        Some(state)
    }

    /// Processes a whole sequence of measurements, returning the smoothed azimuths.
    pub fn smooth(&mut self, measurements_deg: &[f64]) -> Vec<f64> {
        measurements_deg
            .iter()
            .map(|&m| self.update(m).azimuth_deg)
            .collect()
    }
}

/// Wraps an angle in degrees to `(-180, 180]`.
pub fn wrap_deg(angle: f64) -> f64 {
    let mut a = angle % 360.0;
    if a > 180.0 {
        a -= 360.0;
    }
    if a <= -180.0 {
        a += 360.0;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{angular_error_deg, mean_angular_error_deg};

    #[test]
    fn wrapping_behaviour() {
        assert_eq!(wrap_deg(190.0), -170.0);
        assert_eq!(wrap_deg(-190.0), 170.0);
        assert_eq!(wrap_deg(360.0), 0.0);
        assert_eq!(wrap_deg(180.0), 180.0);
    }

    #[test]
    fn tracker_reduces_measurement_noise() {
        // Ground truth: azimuth moves linearly from -60 to +60 degrees.
        let steps = 120;
        let truth: Vec<f64> = (0..steps).map(|i| -60.0 + i as f64).collect();
        // Deterministic pseudo-noise.
        let noisy: Vec<f64> = truth
            .iter()
            .enumerate()
            .map(|(i, &t)| t + 12.0 * ((i as f64 * 2.399).sin()))
            .collect();
        let mut tracker = AzimuthKalmanTracker::new(0.5, 144.0);
        let smoothed = tracker.smooth(&noisy);
        // Compare errors over the second half (after convergence).
        let raw_err = mean_angular_error_deg(&noisy[60..], &truth[60..]);
        let smooth_err = mean_angular_error_deg(&smoothed[60..], &truth[60..]);
        assert!(
            smooth_err < raw_err * 0.7,
            "smoothed {smooth_err} vs raw {raw_err}"
        );
    }

    #[test]
    fn tracker_follows_wraparound_crossing() {
        // Azimuth increases through +180 and wraps to -180.
        let truth: Vec<f64> = (0..80).map(|i| wrap_deg(150.0 + i as f64)).collect();
        let mut tracker = AzimuthKalmanTracker::new(1.0, 4.0);
        let smoothed = tracker.smooth(&truth);
        let err = mean_angular_error_deg(&smoothed[40..], &truth[40..]);
        assert!(err < 5.0, "error across the wrap {err}");
    }

    #[test]
    fn first_update_initializes_state() {
        let mut tracker = AzimuthKalmanTracker::new(1.0, 10.0);
        assert!(tracker.state().is_none());
        let s = tracker.update(42.0);
        assert_eq!(s.azimuth_deg, 42.0);
        assert_eq!(s.rate_deg_per_step, 0.0);
        tracker.reset();
        assert!(tracker.state().is_none());
    }

    #[test]
    fn innovation_wraps_across_plus_minus_180() {
        // Regression pin: a measurement sequence stepping over the ±180° seam
        // (178° then -179°) must be treated as a +3° innovation through the
        // seam, never as a -357° swing that drags the state through 0°.
        let mut tracker = AzimuthKalmanTracker::new(1.0, 25.0);
        tracker.update(178.0);
        let state = tracker.update(-179.0);
        // The smoothed azimuth stays in the seam neighbourhood...
        assert!(
            angular_error_deg(state.azimuth_deg, 180.0) < 3.0,
            "state spun to {}",
            state.azimuth_deg
        );
        // ...and the estimated rate is the small positive step, not a full turn.
        assert!(
            state.rate_deg_per_step.abs() < 10.0,
            "rate exploded to {}",
            state.rate_deg_per_step
        );
        // Continuing around the circle keeps tracking tightly through the wrap.
        for i in 0..40 {
            let truth = wrap_deg(-179.0 + 3.0 * (i + 1) as f64);
            let s = tracker.update(truth);
            assert!(
                angular_error_deg(s.azimuth_deg, truth) < 8.0,
                "step {i}: tracked {} vs truth {truth}",
                s.azimuth_deg
            );
        }
    }

    #[test]
    fn coast_advances_prediction_and_inflates_covariance() {
        let mut tracker = AzimuthKalmanTracker::new(0.5, 1.0);
        assert_eq!(tracker.coast(), None, "uninitialized filter cannot coast");
        for i in 0..30 {
            tracker.update(i as f64 * 2.0);
        }
        let before = tracker.state().unwrap();
        let coasted = tracker.coast().unwrap();
        assert!(
            (coasted.azimuth_deg - (before.azimuth_deg + before.rate_deg_per_step)).abs() < 1e-9
        );
        assert_eq!(coasted.rate_deg_per_step, before.rate_deg_per_step);
        // Coasting across the seam wraps the prediction.
        let mut seam = AzimuthKalmanTracker::new(0.5, 1.0);
        for i in 0..40 {
            seam.update(wrap_deg(170.0 + 3.0 * i as f64));
        }
        let prev = seam.state().unwrap();
        let next = seam.coast().unwrap();
        assert!((-180.0..=180.0).contains(&next.azimuth_deg));
        assert!(
            angular_error_deg(next.azimuth_deg, prev.azimuth_deg + prev.rate_deg_per_step) < 1e-9
        );
    }

    #[test]
    fn estimated_rate_matches_true_motion() {
        let mut tracker = AzimuthKalmanTracker::new(0.5, 1.0);
        for i in 0..100 {
            tracker.update(i as f64 * 2.0);
        }
        let state = tracker.state().unwrap();
        assert!(
            (state.rate_deg_per_step - 2.0).abs() < 0.5,
            "rate {}",
            state.rate_deg_per_step
        );
        assert!(angular_error_deg(state.azimuth_deg, 198.0) < 5.0);
    }
}
