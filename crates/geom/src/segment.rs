//! Line segments: intersection tests and point distance.
//!
//! Segments back two substrates of the reproduction: deciding whether a
//! deployment edge crosses a forbidden area (FA model, §5) and walking
//! faces of the planarized graph in the perimeter-routing baseline.

use crate::Point;

/// A closed line segment between two points.
///
/// ```
/// use sp_geom::{Point, Segment};
/// let a = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0));
/// let b = Segment::new(Point::new(0.0, 4.0), Point::new(4.0, 0.0));
/// assert!(a.intersects(&b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

impl Segment {
    /// Segment between two endpoints (they may coincide).
    pub const fn new(a: Point, b: Point) -> Segment {
        Segment { a, b }
    }

    /// Segment length.
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Midpoint.
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(self.b)
    }

    /// True when the two closed segments share at least one point,
    /// including touching endpoints and collinear overlap.
    pub fn intersects(&self, other: &Segment) -> bool {
        let d1 = orient(other.a, other.b, self.a);
        let d2 = orient(other.a, other.b, self.b);
        let d3 = orient(self.a, self.b, other.a);
        let d4 = orient(self.a, self.b, other.b);

        if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
        {
            return true;
        }
        (d1 == 0.0 && on_segment(other.a, other.b, self.a))
            || (d2 == 0.0 && on_segment(other.a, other.b, self.b))
            || (d3 == 0.0 && on_segment(self.a, self.b, other.a))
            || (d4 == 0.0 && on_segment(self.a, self.b, other.b))
    }

    /// Proper crossing test: the interiors intersect in exactly one point
    /// (no shared endpoints, no collinear overlap).
    pub fn crosses_properly(&self, other: &Segment) -> bool {
        let d1 = orient(other.a, other.b, self.a);
        let d2 = orient(other.a, other.b, self.b);
        let d3 = orient(self.a, self.b, other.a);
        let d4 = orient(self.a, self.b, other.b);
        ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    }

    /// Intersection point of two properly-crossing segments, or the first
    /// shared endpoint for degenerate contact, or `None` when disjoint.
    pub fn intersection_point(&self, other: &Segment) -> Option<Point> {
        if self.crosses_properly(other) {
            let r = self.b - self.a;
            let s = other.b - other.a;
            let denom = r.cross(s);
            // crosses_properly guarantees denom != 0.
            let t = (other.a - self.a).cross(s) / denom;
            return Some(self.a + r * t);
        }
        if !self.intersects(other) {
            return None;
        }
        // Touching or collinear: return a witness contact point.
        for p in [self.a, self.b] {
            if on_segment(other.a, other.b, p) && orient(other.a, other.b, p) == 0.0 {
                return Some(p);
            }
        }
        [other.a, other.b]
            .into_iter()
            .find(|&p| on_segment(self.a, self.b, p) && orient(self.a, self.b, p) == 0.0)
    }

    /// Smallest distance from `p` to the closed segment.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        p.distance(self.closest_point(p))
    }

    /// The point of the closed segment closest to `p`.
    pub fn closest_point(&self, p: Point) -> Point {
        let v = self.b - self.a;
        let len_sq = v.norm_sq();
        if len_sq == 0.0 {
            return self.a;
        }
        let t = (v.dot(p - self.a) / len_sq).clamp(0.0, 1.0);
        self.a + v * t
    }
}

impl std::fmt::Display for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -- {}", self.a, self.b)
    }
}

/// Twice the signed area of triangle `(a, b, c)`: positive when `c` is
/// left of directed line `a -> b`.
fn orient(a: Point, b: Point, c: Point) -> f64 {
    (b - a).cross(c - a)
}

/// Assuming `p` collinear with segment `(a, b)`, is it within the
/// bounding box of the segment?
fn on_segment(a: Point, b: Point, p: Point) -> bool {
    p.x >= a.x.min(b.x) && p.x <= a.x.max(b.x) && p.y >= a.y.min(b.y) && p.y <= a.y.max(b.y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proper_crossing_detected() {
        let a = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0));
        let b = Segment::new(Point::new(0.0, 4.0), Point::new(4.0, 0.0));
        assert!(a.intersects(&b));
        assert!(a.crosses_properly(&b));
        let p = a.intersection_point(&b).unwrap();
        assert!((p.x - 2.0).abs() < 1e-12 && (p.y - 2.0).abs() < 1e-12);
    }

    #[test]
    fn touching_endpoint_is_intersecting_but_not_proper() {
        let a = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        let b = Segment::new(Point::new(2.0, 0.0), Point::new(2.0, 5.0));
        assert!(a.intersects(&b));
        assert!(!a.crosses_properly(&b));
        assert_eq!(a.intersection_point(&b), Some(Point::new(2.0, 0.0)));
    }

    #[test]
    fn collinear_overlap_intersects() {
        let a = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
        let b = Segment::new(Point::new(2.0, 0.0), Point::new(6.0, 0.0));
        assert!(a.intersects(&b));
        assert!(!a.crosses_properly(&b));
    }

    #[test]
    fn disjoint_segments_do_not_intersect() {
        let a = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let b = Segment::new(Point::new(3.0, 3.0), Point::new(4.0, 2.0));
        assert!(!a.intersects(&b));
        assert!(a.intersection_point(&b).is_none());
    }

    #[test]
    fn distance_to_point_clamps_to_endpoints() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.distance_to_point(Point::new(5.0, 3.0)), 3.0);
        assert_eq!(s.distance_to_point(Point::new(-4.0, 3.0)), 5.0);
        assert_eq!(s.distance_to_point(Point::new(13.0, 4.0)), 5.0);
    }

    #[test]
    fn degenerate_segment_is_a_point() {
        let s = Segment::new(Point::new(1.0, 1.0), Point::new(1.0, 1.0));
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.distance_to_point(Point::new(4.0, 5.0)), 5.0);
    }
}
