//! Axis-aligned rectangles in the paper's `[x1 : x2, y1 : y2]` notation.
//!
//! §3 of the paper defines `[x1 : x2, y1 : y2]` as the rectangle with the
//! four corners `(x1, y1)`, `(x1, y2)`, `(x2, y2)`, `(x2, y1)` — the corner
//! order is arbitrary, so the constructor normalizes. Rectangles appear in
//! two roles:
//!
//! * the **request zone** `Z_k(u, d) = [x_u : x_d, y_u : y_d]` of LAR
//!   scheme 1, with `u` and `d` at opposite corners;
//! * the **unsafe-area shape estimate**
//!   `E_i(u) = [x_u : x_{u(1)}, y_u : y_{u(2)}]` of Algo. 2.
//!
//! Membership is inclusive of the border, matching the paper's use of the
//! zone as the candidate filter `v ∈ Z_k(u, d) ∩ N(u)`.

use crate::Point;

/// An axis-aligned rectangle with inclusive borders.
///
/// ```
/// use sp_geom::{Point, Rect};
/// // Corners may come in any order; `[x_u : x_d, y_u : y_d]` notation.
/// let z = Rect::from_corners(Point::new(10.0, 2.0), Point::new(4.0, 8.0));
/// assert_eq!(z.min(), Point::new(4.0, 2.0));
/// assert_eq!(z.max(), Point::new(10.0, 8.0));
/// assert!(z.contains(Point::new(4.0, 8.0))); // borders inclusive
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Rectangle spanned by two opposite corners, in any order.
    pub fn from_corners(a: Point, b: Point) -> Rect {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Rectangle from its lower-left corner and extents.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative or NaN.
    pub fn from_origin_size(origin: Point, width: f64, height: f64) -> Rect {
        assert!(
            width >= 0.0 && height >= 0.0,
            "rect extents must be non-negative, got {width} x {height}"
        );
        Rect {
            min: origin,
            max: Point::new(origin.x + width, origin.y + height),
        }
    }

    /// The paper's request zone `Z_k(u, d)`: `u` and `d` at opposite
    /// corners. Alias of [`Rect::from_corners`] kept for call-site clarity.
    pub fn request_zone(u: Point, d: Point) -> Rect {
        Rect::from_corners(u, d)
    }

    /// Lower-left corner.
    #[inline]
    pub fn min(&self) -> Point {
        self.min
    }

    /// Upper-right corner.
    #[inline]
    pub fn max(&self) -> Point {
        self.max
    }

    /// Width (`x` extent), always `≥ 0`.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (`y` extent), always `≥ 0`.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area. Zero for degenerate (segment or point) rectangles.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// The four corners in counter-clockwise order starting from `min`:
    /// `(x1,y1), (x2,y1), (x2,y2), (x1,y2)`.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }

    /// Perimeter length.
    pub fn perimeter(&self) -> f64 {
        2.0 * (self.width() + self.height())
    }

    /// Border-inclusive membership, matching `v ∈ Z_k(u, d)`.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Membership excluding the border.
    pub fn contains_strict(&self, p: Point) -> bool {
        p.x > self.min.x && p.x < self.max.x && p.y > self.min.y && p.y < self.max.y
    }

    /// True when the two rectangles share at least one point
    /// (borders count).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// The intersection rectangle, or `None` when disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            min: Point::new(self.min.x.max(other.min.x), self.min.y.max(other.min.y)),
            max: Point::new(self.max.x.min(other.max.x), self.max.y.min(other.max.y)),
        })
    }

    /// Smallest rectangle containing both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// True when `other` lies entirely inside `self` (borders allowed).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
    }

    /// The rectangle grown by `margin` on every side (shrunk when
    /// `margin < 0`; collapses to its center if over-shrunk).
    pub fn inflate(&self, margin: f64) -> Rect {
        let min = Point::new(self.min.x - margin, self.min.y - margin);
        let max = Point::new(self.max.x + margin, self.max.y + margin);
        if min.x > max.x || min.y > max.y {
            let c = self.center();
            Rect { min: c, max: c }
        } else {
            Rect { min, max }
        }
    }

    /// Closest point of the rectangle to `p` (is `p` itself when inside).
    pub fn clamp_point(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Distance from `p` to the rectangle; zero when `p` is inside.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        p.distance(self.clamp_point(p))
    }

    /// Uniformly-spaced sample point by fractional coordinates
    /// (`fx`, `fy` in `[0, 1]`).
    pub fn lerp(&self, fx: f64, fy: f64) -> Point {
        Point::new(
            self.min.x + fx * self.width(),
            self.min.y + fy * self.height(),
        )
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:.3}:{:.3}, {:.3}:{:.3}]",
            self.min.x, self.max.x, self.min.y, self.max.y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_normalize() {
        let r1 = Rect::from_corners(Point::new(5.0, 1.0), Point::new(1.0, 5.0));
        let r2 = Rect::from_corners(Point::new(1.0, 1.0), Point::new(5.0, 5.0));
        assert_eq!(r1, r2);
        assert_eq!(r1.width(), 4.0);
        assert_eq!(r1.height(), 4.0);
        assert_eq!(r1.area(), 16.0);
    }

    #[test]
    fn request_zone_holds_endpoints() {
        let u = Point::new(12.0, 30.0);
        let d = Point::new(-3.0, 7.5);
        let z = Rect::request_zone(u, d);
        assert!(z.contains(u));
        assert!(z.contains(d));
        assert!(z.contains(u.midpoint(d)));
    }

    #[test]
    fn degenerate_rects_are_fine() {
        let p = Point::new(2.0, 3.0);
        let r = Rect::from_corners(p, p);
        assert_eq!(r.area(), 0.0);
        assert!(r.contains(p));
        assert!(!r.contains(Point::new(2.0, 3.1)));
    }

    #[test]
    fn border_inclusive_strict_exclusive() {
        let r = Rect::from_corners(Point::ORIGIN, Point::new(10.0, 10.0));
        let edge = Point::new(0.0, 5.0);
        assert!(r.contains(edge));
        assert!(!r.contains_strict(edge));
        assert!(r.contains_strict(Point::new(5.0, 5.0)));
    }

    #[test]
    fn intersection_and_union() {
        let a = Rect::from_corners(Point::new(0.0, 0.0), Point::new(4.0, 4.0));
        let b = Rect::from_corners(Point::new(2.0, 2.0), Point::new(6.0, 6.0));
        let i = a.intersection(&b).unwrap();
        assert_eq!(
            i,
            Rect::from_corners(Point::new(2.0, 2.0), Point::new(4.0, 4.0))
        );
        let u = a.union(&b);
        assert_eq!(
            u,
            Rect::from_corners(Point::new(0.0, 0.0), Point::new(6.0, 6.0))
        );
        let far = Rect::from_corners(Point::new(9.0, 9.0), Point::new(10.0, 10.0));
        assert!(a.intersection(&far).is_none());
        assert!(!a.intersects(&far));
        // Touching borders count as intersecting.
        let touch = Rect::from_corners(Point::new(4.0, 0.0), Point::new(5.0, 4.0));
        assert!(a.intersects(&touch));
    }

    #[test]
    fn contains_rect_requires_full_inclusion() {
        let outer = Rect::from_corners(Point::ORIGIN, Point::new(10.0, 10.0));
        let inner = Rect::from_corners(Point::new(1.0, 1.0), Point::new(9.0, 9.0));
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer));
    }

    #[test]
    fn inflate_grows_and_collapses() {
        let r = Rect::from_corners(Point::ORIGIN, Point::new(2.0, 2.0));
        let big = r.inflate(1.0);
        assert_eq!(big.min(), Point::new(-1.0, -1.0));
        assert_eq!(big.max(), Point::new(3.0, 3.0));
        let collapsed = r.inflate(-5.0);
        assert_eq!(collapsed.area(), 0.0);
        assert_eq!(collapsed.center(), r.center());
    }

    #[test]
    fn clamp_and_distance() {
        let r = Rect::from_corners(Point::ORIGIN, Point::new(10.0, 10.0));
        assert_eq!(r.distance_to_point(Point::new(5.0, 5.0)), 0.0);
        assert_eq!(r.distance_to_point(Point::new(13.0, 14.0)), 5.0);
        assert_eq!(r.clamp_point(Point::new(-3.0, 4.0)), Point::new(0.0, 4.0));
    }

    #[test]
    fn corners_are_ccw() {
        let r = Rect::from_corners(Point::ORIGIN, Point::new(4.0, 2.0));
        let c = r.corners();
        // Shoelace area of CCW polygon is positive.
        let mut twice_area = 0.0;
        for i in 0..4 {
            let p = c[i];
            let q = c[(i + 1) % 4];
            twice_area += p.x * q.y - q.x * p.y;
        }
        assert!(twice_area > 0.0);
        assert_eq!(twice_area / 2.0, r.area());
        assert_eq!(r.perimeter(), 12.0);
    }

    #[test]
    fn lerp_spans_rect() {
        let r = Rect::from_corners(Point::new(2.0, 4.0), Point::new(6.0, 8.0));
        assert_eq!(r.lerp(0.0, 0.0), r.min());
        assert_eq!(r.lerp(1.0, 1.0), r.max());
        assert_eq!(r.lerp(0.5, 0.5), r.center());
    }

    #[test]
    fn display_matches_paper_notation() {
        let r = Rect::from_corners(Point::ORIGIN, Point::new(1.0, 2.0));
        assert_eq!(r.to_string(), "[0.000:1.000, 0.000:2.000]");
    }
}
