//! Circles and the proximity witness used by graph planarization.
//!
//! The Gabriel graph keeps edge `(u, v)` only when no witness node lies in
//! the open disk with diameter `uv`. The predicate lives here so the
//! planarizer in `sp-net` stays purely combinatorial.

use crate::Point;

/// A circle (or closed disk, depending on the predicate used).
///
/// ```
/// use sp_geom::{Circle, Point};
/// let c = Circle::new(Point::new(0.0, 0.0), 5.0);
/// assert!(c.contains(Point::new(3.0, 4.0)));       // on boundary
/// assert!(!c.contains_strict(Point::new(3.0, 4.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center of the circle.
    pub center: Point,
    /// Radius; must be non-negative.
    pub radius: f64,
}

impl Circle {
    /// Circle from center and radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or NaN.
    pub fn new(center: Point, radius: f64) -> Circle {
        assert!(
            radius >= 0.0,
            "circle radius must be non-negative, got {radius}"
        );
        Circle { center, radius }
    }

    /// Closed-disk membership (boundary included).
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius
    }

    /// Open-disk membership (boundary excluded).
    pub fn contains_strict(&self, p: Point) -> bool {
        self.center.distance_sq(p) < self.radius * self.radius
    }

    /// Area of the disk.
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// True when the two closed disks share at least one point.
    pub fn intersects(&self, other: &Circle) -> bool {
        let r = self.radius + other.radius;
        self.center.distance_sq(other.center) <= r * r
    }
}

/// The Gabriel witness predicate: is `w` strictly inside the open disk with
/// diameter `(a, b)`?
///
/// Formulated via the dot product so no square roots are taken:
/// `w` is inside iff the angle `a-w-b` is obtuse.
pub fn in_gabriel_disk(a: Point, b: Point, w: Point) -> bool {
    (a - w).dot(b - w) < 0.0
}

impl std::fmt::Display for Circle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "circle({}, r={:.3})", self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gabriel_predicate_matches_disk() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let disk = Circle::new(a.midpoint(b), a.distance(b) / 2.0);
        let inside = Point::new(5.0, 2.0);
        let outside = Point::new(5.0, 6.0);
        let boundary = Point::new(5.0, 5.0);
        assert!(in_gabriel_disk(a, b, inside));
        assert!(disk.contains_strict(inside));
        assert!(!in_gabriel_disk(a, b, outside));
        assert!(!disk.contains_strict(outside));
        // The boundary is excluded: right angle at w.
        assert!(!in_gabriel_disk(a, b, boundary));
    }

    #[test]
    fn endpoints_are_not_their_own_witnesses() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 0.0);
        assert!(!in_gabriel_disk(a, b, a));
    }

    #[test]
    fn circle_intersection() {
        let a = Circle::new(Point::new(0.0, 0.0), 2.0);
        let b = Circle::new(Point::new(3.0, 0.0), 1.0);
        let c = Circle::new(Point::new(10.0, 0.0), 1.0);
        assert!(a.intersects(&b)); // touching counts
        assert!(!a.intersects(&c));
    }

    #[test]
    #[should_panic(expected = "radius must be non-negative")]
    fn negative_radius_rejected() {
        let _ = Circle::new(Point::ORIGIN, -1.0);
    }
}
