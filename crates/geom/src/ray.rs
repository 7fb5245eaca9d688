//! Rays and left/right side tests.
//!
//! The "either-hand rule" of §4 commits a packet to the left- or
//! right-hand side of the ray `ud` around an unsafe area. [`Ray::side_of`]
//! is the orientation predicate that choice is built on.

use crate::{Point, Vec2};

/// Which side of a directed ray a point lies on, looking along the ray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Counter-clockwise of the ray direction.
    Left,
    /// Exactly collinear with the ray line.
    On,
    /// Clockwise of the ray direction.
    Right,
}

impl Side {
    /// The mirrored side; `On` is its own mirror.
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::On => Side::On,
            Side::Right => Side::Left,
        }
    }
}

/// A directed half-line: origin plus direction.
///
/// ```
/// use sp_geom::{Point, Ray, Side};
/// let r = Ray::through(Point::new(0.0, 0.0), Point::new(10.0, 0.0)).unwrap();
/// assert_eq!(r.side_of(Point::new(5.0, 3.0)), Side::Left);
/// assert_eq!(r.side_of(Point::new(5.0, -3.0)), Side::Right);
/// assert_eq!(r.side_of(Point::new(7.0, 0.0)), Side::On);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    origin: Point,
    direction: Vec2,
}

impl Ray {
    /// Ray from `origin` along `direction`.
    ///
    /// Returns `None` for a zero direction, which cannot orient anything.
    pub fn new(origin: Point, direction: Vec2) -> Option<Ray> {
        if direction.is_zero() {
            None
        } else {
            Some(Ray { origin, direction })
        }
    }

    /// Ray from `origin` through another point.
    ///
    /// Returns `None` when the points coincide.
    pub fn through(origin: Point, target: Point) -> Option<Ray> {
        Ray::new(origin, target - origin)
    }

    /// The ray's origin.
    #[inline]
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// The (non-zero, not necessarily unit) direction.
    #[inline]
    pub fn direction(&self) -> Vec2 {
        self.direction
    }

    /// Orientation of `p` relative to the ray's supporting line,
    /// looking along the direction.
    pub fn side_of(&self, p: Point) -> Side {
        let c = self.direction.cross(p - self.origin);
        if c > 0.0 {
            Side::Left
        } else if c < 0.0 {
            Side::Right
        } else {
            Side::On
        }
    }

    /// Signed scalar projection of `p` onto the ray: positive ahead of
    /// the origin, negative behind, in units of the direction's length.
    pub fn project(&self, p: Point) -> f64 {
        self.direction.dot(p - self.origin) / self.direction.norm_sq()
    }

    /// The point at parameter `t` (in units of the direction vector).
    pub fn at(&self, t: f64) -> Point {
        self.origin + self.direction * t
    }

    /// True when `p` lies on the closed half-line (collinear and not
    /// behind the origin), within tolerance `eps` on collinearity.
    pub fn contains(&self, p: Point, eps: f64) -> bool {
        let v = p - self.origin;
        let cross = self.direction.cross(v).abs();
        // Scale tolerance by the segment lengths involved.
        let scale = self.direction.norm() * v.norm().max(1.0);
        cross <= eps * scale.max(1.0) && self.direction.dot(v) >= 0.0
    }
}

impl std::fmt::Display for Ray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ray {} -> {}", self.origin, self.direction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_direction_rejected() {
        assert!(Ray::new(Point::ORIGIN, Vec2::ZERO).is_none());
        assert!(Ray::through(Point::new(1.0, 2.0), Point::new(1.0, 2.0)).is_none());
    }

    #[test]
    fn side_tests_match_orientation() {
        // Diagonal ray NE from origin.
        let r = Ray::through(Point::ORIGIN, Point::new(1.0, 1.0)).unwrap();
        assert_eq!(r.side_of(Point::new(0.0, 1.0)), Side::Left);
        assert_eq!(r.side_of(Point::new(1.0, 0.0)), Side::Right);
        assert_eq!(r.side_of(Point::new(2.0, 2.0)), Side::On);
        // Behind the origin but collinear is still On (line test).
        assert_eq!(r.side_of(Point::new(-1.0, -1.0)), Side::On);
    }

    #[test]
    fn side_opposite_mirrors() {
        assert_eq!(Side::Left.opposite(), Side::Right);
        assert_eq!(Side::Right.opposite(), Side::Left);
        assert_eq!(Side::On.opposite(), Side::On);
    }

    #[test]
    fn projection_and_at_are_inverse() {
        let r = Ray::through(Point::new(1.0, 1.0), Point::new(4.0, 5.0)).unwrap();
        for t in [0.0, 0.5, 1.0, 2.5] {
            let p = r.at(t);
            assert!((r.project(p) - t).abs() < 1e-12);
        }
        // A point behind the origin projects negatively.
        assert!(r.project(Point::new(-2.0, -3.0)) < 0.0);
    }

    #[test]
    fn contains_respects_half_line() {
        let r = Ray::through(Point::ORIGIN, Point::new(2.0, 0.0)).unwrap();
        assert!(r.contains(Point::new(5.0, 0.0), 1e-9));
        assert!(r.contains(Point::ORIGIN, 1e-9));
        assert!(!r.contains(Point::new(-1.0, 0.0), 1e-9)); // behind
        assert!(!r.contains(Point::new(5.0, 0.5), 1e-9)); // off line
    }
}
