//! Three-dimensional geometry primitives.
//!
//! The coordinate convention follows pyroadacoustics: `x` and `y` span the road plane,
//! `z` is the height above the asphalt surface (`z = 0`).

use std::ops::{Add, Mul, Sub};

/// A point (or vector) in 3-D space, in metres.
///
/// # Example
///
/// ```
/// use ispot_roadsim::geometry::Position;
///
/// let a = Position::new(0.0, 0.0, 1.0);
/// let b = Position::new(3.0, 4.0, 1.0);
/// assert_eq!(a.distance_to(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// Coordinate along the road direction, metres.
    pub x: f64,
    /// Coordinate across the road, metres.
    pub y: f64,
    /// Height above the asphalt plane, metres.
    pub z: f64,
}

impl Position {
    /// The origin.
    pub const ORIGIN: Position = Position {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a position from its coordinates in metres.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Position { x, y, z }
    }

    /// Euclidean distance to another position.
    pub fn distance_to(self, other: Position) -> f64 {
        (self - other).length()
    }

    /// Vector length.
    pub fn length(self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Dot product.
    pub fn dot(self, other: Position) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Returns the unit vector in the same direction; the zero vector is returned
    /// unchanged.
    pub fn normalized(self) -> Position {
        let l = self.length();
        if l <= f64::EPSILON {
            self
        } else {
            self * (1.0 / l)
        }
    }

    /// Mirror image of this position across the road plane `z = 0`, used to build the
    /// image source for the asphalt reflection (Fig. 3 of the paper).
    pub fn reflected_across_road(self) -> Position {
        Position::new(self.x, self.y, -self.z)
    }

    /// Linear interpolation between `self` and `other` with parameter `t` in `[0, 1]`.
    pub fn lerp(self, other: Position, t: f64) -> Position {
        self + (other - self) * t
    }

    /// Azimuth angle (radians) of this position as seen from `origin`, measured in the
    /// road plane from the +x axis towards +y, in `(-pi, pi]`.
    pub fn azimuth_from(self, origin: Position) -> f64 {
        let d = self - origin;
        d.y.atan2(d.x)
    }

    /// Elevation angle (radians) above the road plane as seen from `origin`.
    pub fn elevation_from(self, origin: Position) -> f64 {
        let d = self - origin;
        let horiz = (d.x * d.x + d.y * d.y).sqrt();
        d.z.atan2(horiz)
    }
}

impl Add for Position {
    type Output = Position;
    fn add(self, rhs: Position) -> Position {
        Position::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for Position {
    type Output = Position;
    fn sub(self, rhs: Position) -> Position {
        Position::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f64> for Position {
    type Output = Position;
    fn mul(self, rhs: f64) -> Position {
        Position::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

/// Total path length of the road-reflected ray from `source` to `microphone`,
/// i.e. `d2 + d3` in Fig. 3 of the paper, computed via the image-source construction.
pub fn reflected_path_length(source: Position, microphone: Position) -> f64 {
    source.reflected_across_road().distance_to(microphone)
}

/// Coordinates of the specular reflection point on the road surface for the ray from
/// `source` to `microphone`.
///
/// Both endpoints are assumed to be above the road (`z >= 0`); if both lie exactly on
/// the road the midpoint is returned.
pub fn reflection_point(source: Position, microphone: Position) -> Position {
    let zs = source.z.max(0.0);
    let zm = microphone.z.max(0.0);
    let denom = zs + zm;
    let t = if denom <= f64::EPSILON {
        0.5
    } else {
        zs / denom
    };
    Position::new(
        source.x + (microphone.x - source.x) * t,
        source.y + (microphone.y - source.y) * t,
        0.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_triangle_inequality_holds() {
        let a = Position::new(1.0, 2.0, 3.0);
        let b = Position::new(-2.0, 0.5, 1.0);
        let c = Position::new(4.0, -1.0, 0.0);
        assert!((a.distance_to(b) - b.distance_to(a)).abs() < 1e-12);
        assert!(a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-12);
    }

    #[test]
    fn reflection_across_road_flips_z_only() {
        let p = Position::new(1.0, 2.0, 3.0);
        assert_eq!(p.reflected_across_road(), Position::new(1.0, 2.0, -3.0));
    }

    #[test]
    fn reflected_path_is_longer_than_direct_path() {
        let s = Position::new(-10.0, 3.0, 1.2);
        let m = Position::new(0.0, 0.0, 1.0);
        assert!(reflected_path_length(s, m) > s.distance_to(m));
    }

    #[test]
    fn reflected_path_length_equals_sum_of_segments() {
        let s = Position::new(-5.0, 2.0, 1.5);
        let m = Position::new(3.0, -1.0, 0.8);
        let r = reflection_point(s, m);
        assert!(r.z.abs() < 1e-12);
        let via_point = s.distance_to(r) + r.distance_to(m);
        assert!((via_point - reflected_path_length(s, m)).abs() < 1e-9);
    }

    #[test]
    fn specular_reflection_has_equal_angles() {
        let s = Position::new(-4.0, 0.0, 2.0);
        let m = Position::new(6.0, 0.0, 3.0);
        let r = reflection_point(s, m);
        let incidence = (s.z / s.distance_to(r)).asin();
        let departure = (m.z / m.distance_to(r)).asin();
        assert!((incidence - departure).abs() < 1e-9);
    }

    #[test]
    fn azimuth_and_elevation() {
        let origin = Position::ORIGIN;
        let p = Position::new(0.0, 5.0, 0.0);
        assert!((p.azimuth_from(origin) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        let q = Position::new(1.0, 0.0, 1.0);
        assert!((q.elevation_from(origin) - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Position::new(0.0, 0.0, 0.0);
        let b = Position::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Position::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn normalized_has_unit_length() {
        let v = Position::new(3.0, 4.0, 12.0);
        assert!((v.normalized().length() - 1.0).abs() < 1e-12);
        assert_eq!(Position::ORIGIN.normalized(), Position::ORIGIN);
    }
}
