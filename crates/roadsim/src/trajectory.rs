//! Source trajectories.
//!
//! pyroadacoustics supports "arbitrary trajectories with arbitrary speed" (Sec. IV-A);
//! this module provides static positions, straight-line passes, piecewise-linear
//! waypoint paths and cubic Bézier curves, all parameterized by time.

use crate::error::RoadSimError;
use crate::geometry::Position;

/// A time-parameterized source trajectory.
///
/// # Example
///
/// ```
/// use ispot_roadsim::{geometry::Position, trajectory::Trajectory};
///
/// // Drive-by at 10 m/s along the x axis.
/// let t = Trajectory::linear(Position::new(-50.0, 3.0, 0.7), Position::new(50.0, 3.0, 0.7), 10.0);
/// assert_eq!(t.position_at(0.0).x, -50.0);
/// assert_eq!(t.position_at(5.0).x, 0.0);
/// assert_eq!(t.duration(), Some(10.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Trajectory {
    /// A source that does not move.
    Static {
        /// Fixed source position.
        position: Position,
    },
    /// Constant-speed motion along a straight segment; the source stops at the end.
    Linear {
        /// Start position.
        start: Position,
        /// End position.
        end: Position,
        /// Speed in m/s.
        speed: f64,
    },
    /// Constant-speed motion along a piecewise-linear path through waypoints.
    Waypoints {
        /// Path vertices (at least two).
        points: Vec<Position>,
        /// Speed in m/s.
        speed: f64,
    },
    /// Constant-parameter-rate motion along a cubic Bézier curve traversed in
    /// `duration` seconds (used to emulate curved manoeuvres and varying relative
    /// speed).
    Bezier {
        /// First control point (start).
        p0: Position,
        /// Second control point.
        p1: Position,
        /// Third control point.
        p2: Position,
        /// Fourth control point (end).
        p3: Position,
        /// Traversal time in seconds.
        duration: f64,
    },
}

impl Trajectory {
    /// Creates a static trajectory.
    pub fn fixed(position: Position) -> Self {
        Trajectory::Static { position }
    }

    /// Creates a straight-line trajectory from `start` to `end` at `speed` m/s.
    pub fn linear(start: Position, end: Position, speed: f64) -> Self {
        Trajectory::Linear { start, end, speed }
    }

    /// Creates a waypoint trajectory visiting `points` in order at `speed` m/s.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than two points are given or the speed is not
    /// positive.
    pub fn waypoints(points: Vec<Position>, speed: f64) -> Result<Self, RoadSimError> {
        if points.len() < 2 {
            return Err(RoadSimError::invalid_parameter(
                "points",
                "waypoint trajectory needs at least two points",
            ));
        }
        if speed <= 0.0 {
            return Err(RoadSimError::invalid_parameter("speed", "must be positive"));
        }
        Ok(Trajectory::Waypoints { points, speed })
    }

    /// Creates a cubic Bézier trajectory traversed in `duration` seconds.
    ///
    /// # Errors
    ///
    /// Returns an error if `duration` is not positive.
    pub fn bezier(
        p0: Position,
        p1: Position,
        p2: Position,
        p3: Position,
        duration: f64,
    ) -> Result<Self, RoadSimError> {
        if duration <= 0.0 {
            return Err(RoadSimError::invalid_parameter(
                "duration",
                "must be positive",
            ));
        }
        Ok(Trajectory::Bezier {
            p0,
            p1,
            p2,
            p3,
            duration,
        })
    }

    /// Returns the source position at time `t` seconds (clamped to the trajectory's
    /// start/end).
    pub fn position_at(&self, t: f64) -> Position {
        let t = t.max(0.0);
        match self {
            Trajectory::Static { position } => *position,
            Trajectory::Linear { start, end, speed } => {
                let total = start.distance_to(*end);
                if total <= f64::EPSILON || *speed <= 0.0 {
                    return *start;
                }
                let travelled = (speed * t).min(total);
                start.lerp(*end, travelled / total)
            }
            Trajectory::Waypoints { points, speed } => {
                let mut remaining = speed * t;
                for w in points.windows(2) {
                    let seg = w[0].distance_to(w[1]);
                    if remaining <= seg {
                        if seg <= f64::EPSILON {
                            return w[0];
                        }
                        return w[0].lerp(w[1], remaining / seg);
                    }
                    remaining -= seg;
                }
                *points
                    .last()
                    .expect("validated to have at least two points")
            }
            Trajectory::Bezier {
                p0,
                p1,
                p2,
                p3,
                duration,
            } => {
                let u = (t / duration).clamp(0.0, 1.0);
                let v = 1.0 - u;
                // Cubic Bézier: v^3 p0 + 3 v^2 u p1 + 3 v u^2 p2 + u^3 p3.
                *p0 * (v * v * v)
                    + *p1 * (3.0 * v * v * u)
                    + *p2 * (3.0 * v * u * u)
                    + *p3 * (u * u * u)
            }
        }
    }

    /// Returns the source velocity vector (m/s) at time `t`, estimated by central
    /// differences.
    pub fn velocity_at(&self, t: f64) -> Position {
        let h = 1e-4;
        let a = self.position_at((t - h).max(0.0));
        let b = self.position_at(t + h);
        let dt = (t + h) - (t - h).max(0.0);
        (b - a) * (1.0 / dt)
    }

    /// Returns the time (seconds) after which the source stops moving, or `None` for a
    /// static trajectory.
    pub fn duration(&self) -> Option<f64> {
        match self {
            Trajectory::Static { .. } => None,
            Trajectory::Linear { start, end, speed } => {
                if *speed <= 0.0 {
                    None
                } else {
                    Some(start.distance_to(*end) / speed)
                }
            }
            Trajectory::Waypoints { points, speed } => {
                let total: f64 = points.windows(2).map(|w| w[0].distance_to(w[1])).sum();
                Some(total / speed)
            }
            Trajectory::Bezier { duration, .. } => Some(*duration),
        }
    }

    /// Samples the trajectory at `fs` Hz for `num_samples` samples, returning one
    /// position per audio sample. This is the form consumed by the simulation engine.
    pub fn sample(&self, fs: f64, num_samples: usize) -> Vec<Position> {
        (0..num_samples)
            .map(|n| self.position_at(n as f64 / fs))
            .collect()
    }

    /// Checks the trajectory invariants that the convenience constructors enforce,
    /// for values built directly from the (public) enum variants.
    ///
    /// The scene builder calls this for every source, so a degenerate trajectory — a
    /// zero-duration linear pass (`speed <= 0` over a non-zero segment), a
    /// single-waypoint path, a non-positive Bézier traversal time — is rejected with a
    /// typed error before the engine ever samples it.
    ///
    /// # Errors
    ///
    /// Returns [`RoadSimError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), RoadSimError> {
        match self {
            Trajectory::Static { .. } => Ok(()),
            Trajectory::Linear { start, end, speed } => {
                if !speed.is_finite() {
                    return Err(RoadSimError::invalid_parameter("speed", "must be finite"));
                }
                if start.distance_to(*end) > f64::EPSILON && *speed <= 0.0 {
                    return Err(RoadSimError::invalid_parameter(
                        "speed",
                        "zero-duration trajectory: speed must be positive over a non-zero segment",
                    ));
                }
                Ok(())
            }
            Trajectory::Waypoints { points, speed } => {
                if points.len() < 2 {
                    return Err(RoadSimError::invalid_parameter(
                        "points",
                        "waypoint trajectory needs at least two points",
                    ));
                }
                if !(speed.is_finite() && *speed > 0.0) {
                    return Err(RoadSimError::invalid_parameter("speed", "must be positive"));
                }
                Ok(())
            }
            Trajectory::Bezier { duration, .. } => {
                if !(duration.is_finite() && *duration > 0.0) {
                    return Err(RoadSimError::invalid_parameter(
                        "duration",
                        "must be positive",
                    ));
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_trajectory_never_moves() {
        let p = Position::new(1.0, 2.0, 3.0);
        let t = Trajectory::fixed(p);
        assert_eq!(t.position_at(0.0), p);
        assert_eq!(t.position_at(100.0), p);
        assert_eq!(t.duration(), None);
        assert!(t.velocity_at(5.0).length() < 1e-9);
    }

    #[test]
    fn linear_trajectory_moves_at_requested_speed() {
        let t = Trajectory::linear(
            Position::new(0.0, 0.0, 0.0),
            Position::new(100.0, 0.0, 0.0),
            20.0,
        );
        let p = t.position_at(2.5);
        assert!((p.x - 50.0).abs() < 1e-9);
        let v = t.velocity_at(1.0);
        assert!((v.x - 20.0).abs() < 1e-3);
        assert_eq!(t.duration(), Some(5.0));
    }

    #[test]
    fn linear_trajectory_clamps_at_end() {
        let t = Trajectory::linear(
            Position::new(0.0, 0.0, 0.0),
            Position::new(10.0, 0.0, 0.0),
            1.0,
        );
        assert_eq!(t.position_at(100.0), Position::new(10.0, 0.0, 0.0));
    }

    #[test]
    fn waypoints_follow_segments_in_order() {
        let t = Trajectory::waypoints(
            vec![
                Position::new(0.0, 0.0, 0.0),
                Position::new(10.0, 0.0, 0.0),
                Position::new(10.0, 10.0, 0.0),
            ],
            10.0,
        )
        .unwrap();
        assert_eq!(t.position_at(0.5), Position::new(5.0, 0.0, 0.0));
        assert_eq!(t.position_at(1.5), Position::new(10.0, 5.0, 0.0));
        assert_eq!(t.position_at(10.0), Position::new(10.0, 10.0, 0.0));
        assert_eq!(t.duration(), Some(2.0));
    }

    #[test]
    fn bezier_interpolates_endpoints() {
        let t = Trajectory::bezier(
            Position::new(0.0, 0.0, 0.0),
            Position::new(0.0, 10.0, 0.0),
            Position::new(10.0, 10.0, 0.0),
            Position::new(10.0, 0.0, 0.0),
            4.0,
        )
        .unwrap();
        assert_eq!(t.position_at(0.0), Position::new(0.0, 0.0, 0.0));
        assert_eq!(t.position_at(4.0), Position::new(10.0, 0.0, 0.0));
        // Midpoint of this symmetric curve lies at x = 5.
        assert!((t.position_at(2.0).x - 5.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_trajectories_are_rejected() {
        assert!(Trajectory::waypoints(vec![Position::ORIGIN], 1.0).is_err());
        assert!(Trajectory::waypoints(vec![Position::ORIGIN, Position::ORIGIN], 0.0).is_err());
        assert!(Trajectory::bezier(
            Position::ORIGIN,
            Position::ORIGIN,
            Position::ORIGIN,
            Position::ORIGIN,
            0.0
        )
        .is_err());
    }

    #[test]
    fn validate_accepts_constructor_built_and_rejects_degenerate_values() {
        assert!(Trajectory::fixed(Position::ORIGIN).validate().is_ok());
        assert!(
            Trajectory::linear(Position::ORIGIN, Position::new(10.0, 0.0, 0.0), 5.0)
                .validate()
                .is_ok()
        );
        // A linear pass over a non-zero segment at zero speed never arrives: the
        // constructors allow it (the enum is public) but validation names it.
        let stuck = Trajectory::linear(Position::ORIGIN, Position::new(10.0, 0.0, 0.0), 0.0);
        assert!(stuck.validate().is_err());
        // Zero-length segments degenerate to a static source; that is fine.
        assert!(Trajectory::linear(Position::ORIGIN, Position::ORIGIN, 0.0)
            .validate()
            .is_ok());
        let one_point = Trajectory::Waypoints {
            points: vec![Position::ORIGIN],
            speed: 1.0,
        };
        assert!(one_point.validate().is_err());
        let frozen_bezier = Trajectory::Bezier {
            p0: Position::ORIGIN,
            p1: Position::ORIGIN,
            p2: Position::ORIGIN,
            p3: Position::ORIGIN,
            duration: 0.0,
        };
        assert!(frozen_bezier.validate().is_err());
    }

    #[test]
    fn sample_produces_one_position_per_audio_sample() {
        let t = Trajectory::linear(
            Position::new(0.0, 0.0, 0.0),
            Position::new(16.0, 0.0, 0.0),
            16.0,
        );
        let samples = t.sample(16.0, 17);
        assert_eq!(samples.len(), 17);
        assert!((samples[8].x - 8.0).abs() < 1e-9);
    }
}
