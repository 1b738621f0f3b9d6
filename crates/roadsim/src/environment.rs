//! Environmental geometry: street-canyon walls and occluding screens.
//!
//! Real streets are not free fields. This module adds the two geometry features
//! that dominate urban siren propagation:
//!
//! * [`StreetCanyon`] — two vertical building façades parallel to the road.
//!   Each façade contributes a **first-order image-source reflection** per
//!   source–microphone pair (mirror the source across the wall plane, render a
//!   delayed, attenuated copy), so a canyon scene carries the characteristic
//!   early multipath that stresses localization.
//! * [`Occluder`] — a vertical screen (a building corner, a parked truck)
//!   between source and array. A blocked ray is attenuated to a residual
//!   **diffraction leakage** gain, with a smooth shadow-boundary transition so
//!   a moving source never produces a gain step — the "hearing what you cannot
//!   see" around-the-corner regime.
//!
//! Both features compose with the engine's parallel, bit-exact, linear
//! renderer: each wall reflection is just another per-source propagation path,
//! and occlusion is a pure per-sample gain factor, so an N-source render stays
//! exactly equal to the sum of the N single-source renders.

use crate::error::RoadSimError;
use crate::geometry::Position;

/// A street canyon: two vertical building façades at `y = ±width/2`, parallel
/// to the road (x) axis and extending from the ground up.
///
/// Each façade reflects with a flat (frequency-independent) amplitude gain —
/// a first-order approximation of the mostly specular, mildly lossy reflection
/// off masonry and glass. Higher-order (wall-to-wall) reflections are not
/// rendered; the first-order images already carry the early multipath that
/// matters for localization stress.
///
/// # Example
///
/// ```
/// use ispot_roadsim::environment::StreetCanyon;
///
/// let canyon = StreetCanyon::new(20.0, 0.5).unwrap();
/// assert_eq!(canyon.wall_ys(), [-10.0, 10.0]);
/// assert!(canyon.contains_y(9.0));
/// assert!(!canyon.contains_y(10.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreetCanyon {
    half_width_m: f64,
    reflection_gain: f64,
}

impl StreetCanyon {
    /// Creates a canyon of the given total `width_m` (façade-to-façade) whose
    /// walls reflect with amplitude `reflection_gain`.
    ///
    /// # Errors
    ///
    /// Returns [`RoadSimError::InvalidParameter`] unless `width_m` is finite
    /// and positive and `reflection_gain` lies in `[0, 1]`.
    pub fn new(width_m: f64, reflection_gain: f64) -> Result<Self, RoadSimError> {
        if !(width_m.is_finite() && width_m > 0.0) {
            return Err(RoadSimError::invalid_parameter(
                "width_m",
                "canyon width must be finite and positive",
            ));
        }
        if !(0.0..=1.0).contains(&reflection_gain) {
            return Err(RoadSimError::invalid_parameter(
                "reflection_gain",
                "wall reflection gain must lie in [0, 1]",
            ));
        }
        Ok(StreetCanyon {
            half_width_m: width_m / 2.0,
            reflection_gain,
        })
    }

    /// Façade-to-façade width in metres.
    pub fn width_m(&self) -> f64 {
        self.half_width_m * 2.0
    }

    /// Flat amplitude gain of one wall reflection.
    pub fn reflection_gain(&self) -> f64 {
        self.reflection_gain
    }

    /// The y coordinates of the two façades.
    pub fn wall_ys(&self) -> [f64; 2] {
        [-self.half_width_m, self.half_width_m]
    }

    /// Whether a lateral coordinate lies strictly inside the canyon.
    pub fn contains_y(&self, y: f64) -> bool {
        y.abs() < self.half_width_m
    }

    /// Mirror image of `pos` across the vertical wall plane at `wall_y`,
    /// i.e. the first-order image source for that façade.
    pub fn image_across_wall(pos: Position, wall_y: f64) -> Position {
        Position::new(pos.x, 2.0 * wall_y - pos.y, pos.z)
    }
}

/// A vertical occluding screen standing on the road surface: the segment from
/// `a` to `b` in the road plane, extruded from `z = 0` up to `height_m`.
///
/// Occlusion is modelled as a per-ray amplitude factor: a ray that passes the
/// screen keeps gain 1.0; a ray deep in the geometric shadow is attenuated to
/// the residual `transmission` gain (the energy that still arrives by
/// diffraction around the edges); near the shadow boundary the factor blends
/// smoothly over `edge_softness_m` of clearance, so a source sweeping across
/// the boundary never steps the gain (which would click).
///
/// # Example
///
/// ```
/// use ispot_roadsim::environment::Occluder;
/// use ispot_roadsim::geometry::Position;
///
/// // A building corner: a 6 m tall wall along x = 4 for y in [2, 30].
/// let wall = Occluder::screen(
///     Position::new(4.0, 2.0, 0.0),
///     Position::new(4.0, 30.0, 0.0),
///     6.0,
/// );
/// let mic = Position::new(0.0, 0.0, 1.0);
/// // A source behind the wall is strongly attenuated...
/// assert!(wall.gain(Position::new(20.0, 12.0, 1.0), mic) < 0.3);
/// // ...while one on the open side of the corner is untouched.
/// assert_eq!(wall.gain(Position::new(20.0, -12.0, 1.0), mic), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occluder {
    a: Position,
    b: Position,
    height_m: f64,
    transmission: f64,
    edge_softness_m: f64,
}

/// Default residual amplitude gain of a fully occluded ray (~ −17 dB, in the
/// range measured for single-edge diffraction around building corners).
pub const DEFAULT_TRANSMISSION: f64 = 0.14;

/// Default shadow-boundary softness in metres of edge clearance.
pub const DEFAULT_EDGE_SOFTNESS_M: f64 = 0.75;

impl Occluder {
    /// Creates a screen over the ground segment `a`–`b` (z components are
    /// ignored; the screen spans `z` in `[0, height_m]`) with the default
    /// diffraction transmission and edge softness.
    pub fn screen(a: Position, b: Position, height_m: f64) -> Self {
        Occluder {
            a: Position::new(a.x, a.y, 0.0),
            b: Position::new(b.x, b.y, 0.0),
            height_m,
            transmission: DEFAULT_TRANSMISSION,
            edge_softness_m: DEFAULT_EDGE_SOFTNESS_M,
        }
    }

    /// Overrides the residual amplitude gain of a fully occluded ray.
    pub fn with_transmission(mut self, transmission: f64) -> Self {
        self.transmission = transmission;
        self
    }

    /// Overrides the shadow-boundary softness (metres of clearance over which
    /// the gain blends from occluded to clear).
    pub fn with_edge_softness(mut self, softness_m: f64) -> Self {
        self.edge_softness_m = softness_m;
        self
    }

    /// Screen endpoints (on the road surface) and height.
    pub fn endpoints(&self) -> (Position, Position) {
        (self.a, self.b)
    }

    /// Screen height in metres.
    pub fn height_m(&self) -> f64 {
        self.height_m
    }

    /// Residual amplitude gain of a fully occluded ray.
    pub fn transmission(&self) -> f64 {
        self.transmission
    }

    /// Checks the screen invariants.
    ///
    /// # Errors
    ///
    /// Returns [`RoadSimError::InvalidParameter`] if the endpoints coincide or
    /// are non-finite, the height is not positive, the transmission lies
    /// outside `[0, 1]` or the edge softness is not positive.
    pub fn validate(&self) -> Result<(), RoadSimError> {
        let finite = |p: Position| p.x.is_finite() && p.y.is_finite();
        if !finite(self.a) || !finite(self.b) {
            return Err(RoadSimError::invalid_parameter(
                "endpoints",
                "occluder endpoints must be finite",
            ));
        }
        if self.a.distance_to(self.b) <= f64::EPSILON {
            return Err(RoadSimError::invalid_parameter(
                "endpoints",
                "occluder endpoints must be distinct",
            ));
        }
        if !(self.height_m.is_finite() && self.height_m > 0.0) {
            return Err(RoadSimError::invalid_parameter(
                "height_m",
                "occluder height must be finite and positive",
            ));
        }
        if !(0.0..=1.0).contains(&self.transmission) {
            return Err(RoadSimError::invalid_parameter(
                "transmission",
                "occluder transmission must lie in [0, 1]",
            ));
        }
        if !(self.edge_softness_m.is_finite() && self.edge_softness_m > 0.0) {
            return Err(RoadSimError::invalid_parameter(
                "edge_softness_m",
                "edge softness must be finite and positive",
            ));
        }
        Ok(())
    }

    /// Amplitude factor for the straight ray from `source` to `mic`: 1.0 when
    /// the ray clears the screen, [`Self::transmission`] deep in the shadow,
    /// blended smoothly near the boundary.
    ///
    /// For reflected paths the caller passes the **image source** position;
    /// the unfolded ray's height is mirrored below the road before the bounce,
    /// so the crossing height is compared by absolute value.
    pub fn gain(&self, source: Position, mic: Position) -> f64 {
        let rx = mic.x - source.x;
        let ry = mic.y - source.y;
        let wx = self.b.x - self.a.x;
        let wy = self.b.y - self.a.y;
        let denom = rx * wy - ry * wx;
        if denom.abs() <= f64::EPSILON {
            // Ray parallel to the screen: treat as clear.
            return 1.0;
        }
        let dx = self.a.x - source.x;
        let dy = self.a.y - source.y;
        // Ray parameter t in [0, 1] between source and mic; wall parameter s
        // along the segment a -> b.
        let t = (dx * wy - dy * wx) / denom;
        let s = (dx * ry - dy * rx) / denom;
        if !(0.0..=1.0).contains(&t) {
            // The wall's infinite line is not between the endpoints.
            return 1.0;
        }
        // Vertical clearance: how far above the top edge the ray crosses the
        // wall plane (negative below the edge). Image sources sit mirrored
        // below the road, so the physical ray height is |z|.
        let z_cross = source.z + t * (mic.z - source.z);
        let v_clear = z_cross.abs() - self.height_m;
        // Lateral clearance: distance from the crossing point to the nearer
        // screen end, positive outside the segment, negative inside.
        let wall_len = (wx * wx + wy * wy).sqrt();
        let s_m = s * wall_len;
        let l_clear = if (0.0..=1.0).contains(&s) {
            -(s_m.min(wall_len - s_m))
        } else if s < 0.0 {
            -s_m
        } else {
            s_m - wall_len
        };
        // The ray escapes over the top OR around either side: the largest
        // clearance decides.
        let clearance = v_clear.max(l_clear);
        let u = (clearance / self.edge_softness_m).clamp(-1.0, 1.0);
        let shade = smoothstep01((u + 1.0) * 0.5);
        self.transmission + (1.0 - self.transmission) * shade
    }
}

/// Cubic smoothstep on `[0, 1]` (assumes the input is already clamped).
fn smoothstep01(u: f64) -> f64 {
    u * u * (3.0 - 2.0 * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canyon_validates_and_mirrors() {
        assert!(StreetCanyon::new(0.0, 0.5).is_err());
        assert!(StreetCanyon::new(-3.0, 0.5).is_err());
        assert!(StreetCanyon::new(f64::NAN, 0.5).is_err());
        assert!(StreetCanyon::new(20.0, 1.5).is_err());
        assert!(StreetCanyon::new(20.0, -0.1).is_err());
        let c = StreetCanyon::new(16.0, 0.4).unwrap();
        assert_eq!(c.width_m(), 16.0);
        assert_eq!(c.reflection_gain(), 0.4);
        let img = StreetCanyon::image_across_wall(Position::new(3.0, 2.0, 1.0), 8.0);
        assert_eq!(img, Position::new(3.0, 14.0, 1.0));
        let img = StreetCanyon::image_across_wall(Position::new(3.0, 2.0, 1.0), -8.0);
        assert_eq!(img, Position::new(3.0, -18.0, 1.0));
    }

    #[test]
    fn occluder_validation_rejects_degenerate_screens() {
        let good = Occluder::screen(Position::ORIGIN, Position::new(1.0, 0.0, 0.0), 2.0);
        assert!(good.validate().is_ok());
        let same = Occluder::screen(Position::ORIGIN, Position::ORIGIN, 2.0);
        assert!(same.validate().is_err());
        let flat = Occluder::screen(Position::ORIGIN, Position::new(1.0, 0.0, 0.0), 0.0);
        assert!(flat.validate().is_err());
        assert!(good.with_transmission(1.5).validate().is_err());
        assert!(good.with_transmission(-0.1).validate().is_err());
        assert!(good.with_edge_softness(0.0).validate().is_err());
        let nan = Occluder::screen(
            Position::new(f64::NAN, 0.0, 0.0),
            Position::new(1.0, 0.0, 0.0),
            2.0,
        );
        assert!(nan.validate().is_err());
    }

    #[test]
    fn blocked_ray_is_attenuated_and_clear_ray_is_not() {
        // Wall along y in [-5, 5] at x = 5, 4 m tall.
        let wall = Occluder::screen(
            Position::new(5.0, -5.0, 0.0),
            Position::new(5.0, 5.0, 0.0),
            4.0,
        );
        let mic = Position::new(0.0, 0.0, 1.0);
        // Straight through the middle of the wall: deep shadow.
        let deep = wall.gain(Position::new(10.0, 0.0, 1.0), mic);
        assert!((deep - DEFAULT_TRANSMISSION).abs() < 1e-9, "deep {deep}");
        // Source on the same side as the mic: wall not between them.
        assert_eq!(wall.gain(Position::new(2.0, 0.0, 1.0), mic), 1.0);
        // Way around the side: clear.
        assert_eq!(wall.gain(Position::new(10.0, 40.0, 1.0), mic), 1.0);
        // Far over the top: a high source clears the 4 m edge.
        assert_eq!(wall.gain(Position::new(10.0, 0.0, 40.0), mic), 1.0);
        // Ray parallel to the wall plane never crosses it.
        assert_eq!(
            wall.gain(
                Position::new(10.0, 8.0, 1.0),
                Position::new(-10.0, 8.0, 1.0)
            ),
            1.0
        );
    }

    #[test]
    fn shadow_boundary_is_smooth_and_monotonic() {
        let wall = Occluder::screen(
            Position::new(5.0, -5.0, 0.0),
            Position::new(5.0, 5.0, 0.0),
            4.0,
        );
        let mic = Position::new(0.0, 0.0, 1.0);
        // Sweep a source laterally across the y = +5 corner: the gain must
        // rise monotonically from shadow to clear with no step larger than
        // what the 0.1 m sweep resolution explains.
        let mut last = 0.0;
        let mut max_step = 0.0f64;
        for k in 0..200 {
            let y = -2.0 + 0.1 * k as f64;
            let g = wall.gain(Position::new(10.0, y, 1.0), mic);
            if k > 0 {
                assert!(g >= last - 1e-12, "gain dipped at y = {y}");
                max_step = max_step.max(g - last);
            }
            last = g;
        }
        assert_eq!(last, 1.0, "sweep ends in the clear");
        assert!(max_step < 0.2, "shadow boundary steps too hard: {max_step}");
    }

    #[test]
    fn image_source_rays_use_absolute_height() {
        let wall = Occluder::screen(
            Position::new(5.0, -5.0, 0.0),
            Position::new(5.0, 5.0, 0.0),
            4.0,
        );
        let mic = Position::new(0.0, 0.0, 1.0);
        // A road-reflection image source at z = -40: the unfolded ray crosses
        // the wall plane far below -4 m, i.e. |z| far above the wall height,
        // which the physical bounced ray would clear only if the crossing were
        // near the bounce point -- by |z| it is treated like the +40 case.
        let below = wall.gain(Position::new(10.0, 0.0, -40.0), mic);
        let above = wall.gain(Position::new(10.0, 0.0, 40.0), mic);
        assert_eq!(below, above);
    }
}
