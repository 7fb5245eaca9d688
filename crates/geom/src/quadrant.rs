//! The four forwarding-zone types `Q_1..Q_4` of the paper (§3, Fig. 2).
//!
//! Every routing decision in the paper is typed by the quadrant that the
//! destination occupies relative to the current node: quadrant I is the
//! Northeast, II the Northwest, III the Southwest and IV the Southeast. The
//! paper leaves boundary inclusion unspecified; we fix a half-open
//! convention so that every point other than the origin belongs to
//! exactly one quadrant:
//!
//! * `Q1`: `dx ≥ 0 ∧ dy ≥ 0`
//! * `Q2`: `dx < 0 ∧ dy ≥ 0`
//! * `Q3`: `dx < 0 ∧ dy < 0`
//! * `Q4`: `dx ≥ 0 ∧ dy < 0`

use crate::{Angle, Point, Vec2};

/// A forwarding-zone type: the quadrant of the destination relative to the
/// current node.
///
/// The numeric value (`1..=4`) matches the paper's type index `i` in
/// `Q_i(u)`, `Z_i(u, d)`, `S_i(u)` and `E_i(u)`.
///
/// ```
/// use sp_geom::{Point, Quadrant};
/// let u = Point::new(0.0, 0.0);
/// assert_eq!(Quadrant::of(u, Point::new(1.0, 1.0)), Some(Quadrant::I));
/// assert_eq!(Quadrant::of(u, Point::new(-1.0, 1.0)), Some(Quadrant::II));
/// assert_eq!(Quadrant::of(u, Point::new(-1.0, -1.0)), Some(Quadrant::III));
/// assert_eq!(Quadrant::of(u, Point::new(1.0, -1.0)), Some(Quadrant::IV));
/// assert_eq!(Quadrant::of(u, u), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Quadrant {
    /// Type 1 — Northeast.
    I = 1,
    /// Type 2 — Northwest.
    II = 2,
    /// Type 3 — Southwest.
    III = 3,
    /// Type 4 — Southeast.
    IV = 4,
}

/// All four quadrants in type order, for iteration over status tuples.
pub const ALL_QUADRANTS: [Quadrant; 4] = [Quadrant::I, Quadrant::II, Quadrant::III, Quadrant::IV];

impl Quadrant {
    /// All four quadrants in type order.
    pub const ALL: [Quadrant; 4] = ALL_QUADRANTS;

    /// Quadrant of `target` relative to `origin`, or `None` when the two
    /// points coincide exactly.
    pub fn of(origin: Point, target: Point) -> Option<Quadrant> {
        let v = target - origin;
        if v.is_zero() {
            None
        } else {
            Some(Quadrant::of_vec(v))
        }
    }

    /// Quadrant of a non-zero displacement vector.
    ///
    /// The zero vector is mapped to `Q1` (its `dx ≥ 0 ∧ dy ≥ 0` bucket);
    /// callers that care should test [`Vec2::is_zero`] first, as
    /// [`Quadrant::of`] does.
    pub fn of_vec(v: Vec2) -> Quadrant {
        match (v.x >= 0.0, v.y >= 0.0) {
            (true, true) => Quadrant::I,
            (false, true) => Quadrant::II,
            (false, false) => Quadrant::III,
            (true, false) => Quadrant::IV,
        }
    }

    /// The paper's type index, `1..=4`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Zero-based index, `0..=3`, for array storage of status tuples.
    #[inline]
    pub fn array_index(self) -> usize {
        self as usize - 1
    }

    /// Quadrant from the paper's type index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not in `1..=4`.
    pub fn from_index(index: usize) -> Quadrant {
        match index {
            1 => Quadrant::I,
            2 => Quadrant::II,
            3 => Quadrant::III,
            4 => Quadrant::IV,
            _ => panic!("quadrant index must be 1..=4, got {index}"), // sp-analyze: allow(panic, documented contract of from_index; callers pass paper-notation constants)
        }
    }

    /// The opposite quadrant, `k' = (k + 2) mod 4` in the paper's
    /// 1-based arithmetic (§4: the destination is type-`k'` safe).
    ///
    /// ```
    /// use sp_geom::Quadrant;
    /// assert_eq!(Quadrant::I.opposite(), Quadrant::III);
    /// assert_eq!(Quadrant::IV.opposite(), Quadrant::II);
    /// ```
    pub fn opposite(self) -> Quadrant {
        match self {
            Quadrant::I => Quadrant::III,
            Quadrant::II => Quadrant::IV,
            Quadrant::III => Quadrant::I,
            Quadrant::IV => Quadrant::II,
        }
    }

    /// The next quadrant counter-clockwise.
    pub fn next_ccw(self) -> Quadrant {
        match self {
            Quadrant::I => Quadrant::II,
            Quadrant::II => Quadrant::III,
            Quadrant::III => Quadrant::IV,
            Quadrant::IV => Quadrant::I,
        }
    }

    /// Angular window `[start, end]` of the quadrant, counter-clockwise
    /// from east: `Q1 = [0, π/2]`, `Q2 = [π/2, π]`, `Q3 = [π, 3π/2]`,
    /// `Q4 = [3π/2, 2π)`.
    pub fn angle_range(self) -> (Angle, Angle) {
        use std::f64::consts::FRAC_PI_2;
        let start = (self.array_index() as f64) * FRAC_PI_2;
        (Angle::new(start), Angle::new(start + FRAC_PI_2))
    }

    /// Unit vector along the axis that bounds the quadrant clockwise —
    /// the direction a counter-clockwise scan of the quadrant starts from,
    /// so the scan sweeps the quadrant without leaving it: east for `Q1`,
    /// north for `Q2`, west for `Q3`, south for `Q4`.
    pub fn scan_start_axis(self) -> Vec2 {
        match self {
            Quadrant::I => Vec2::new(1.0, 0.0),
            Quadrant::II => Vec2::new(0.0, 1.0),
            Quadrant::III => Vec2::new(-1.0, 0.0),
            Quadrant::IV => Vec2::new(0.0, -1.0),
        }
    }

    /// Signs `(sx, sy)` of displacements into this quadrant, each `±1.0`.
    ///
    /// Useful for building quadrant-generic rectangle extents: a point
    /// `p = origin + (sx·a, sy·b)` with `a, b ≥ 0` lies in the quadrant.
    pub fn signs(self) -> (f64, f64) {
        match self {
            Quadrant::I => (1.0, 1.0),
            Quadrant::II => (-1.0, 1.0),
            Quadrant::III => (-1.0, -1.0),
            Quadrant::IV => (1.0, -1.0),
        }
    }

    /// True when `target` lies in this quadrant of `origin`
    /// (strictly: `target ≠ origin` and the half-open rules hold).
    pub fn contains(self, origin: Point, target: Point) -> bool {
        Quadrant::of(origin, target) == Some(self)
    }
}

impl std::fmt::Display for Quadrant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Quadrant::I => "Q1(NE)",
            Quadrant::II => "Q2(NW)",
            Quadrant::III => "Q3(SW)",
            Quadrant::IV => "Q4(SE)",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_points_follow_half_open_convention() {
        let o = Point::ORIGIN;
        // Positive x-axis (dy = 0) is Q1; negative x-axis is Q2.
        assert_eq!(Quadrant::of(o, Point::new(5.0, 0.0)), Some(Quadrant::I));
        assert_eq!(Quadrant::of(o, Point::new(-5.0, 0.0)), Some(Quadrant::II));
        // Positive y-axis is Q1; negative y-axis is Q4.
        assert_eq!(Quadrant::of(o, Point::new(0.0, 5.0)), Some(Quadrant::I));
        assert_eq!(Quadrant::of(o, Point::new(0.0, -5.0)), Some(Quadrant::IV));
    }

    #[test]
    fn every_nonorigin_point_has_exactly_one_quadrant() {
        let o = Point::ORIGIN;
        for i in 0..100 {
            let t = i as f64 * crate::TAU / 100.0;
            let p = Point::new(3.0 * t.cos(), 3.0 * t.sin());
            let q = Quadrant::of(o, p).expect("non-origin point must classify");
            let hits = Quadrant::ALL.iter().filter(|c| c.contains(o, p)).count();
            assert_eq!(hits, 1, "point {p} claimed by {hits} quadrants (got {q})");
        }
    }

    #[test]
    fn opposite_matches_paper_arithmetic() {
        // k' = (k + 2) mod 4 with 1-based types (0 mapped to 4).
        for q in Quadrant::ALL {
            let k = q.index();
            let expect = {
                let m = (k + 2) % 4;
                if m == 0 {
                    4
                } else {
                    m
                }
            };
            assert_eq!(q.opposite().index(), expect);
        }
    }

    #[test]
    fn opposite_is_involution_and_ccw_cycles() {
        for q in Quadrant::ALL {
            assert_eq!(q.opposite().opposite(), q);
            assert_eq!(
                q.next_ccw().next_ccw().next_ccw().next_ccw(),
                q,
                "four CCW steps must return to start"
            );
        }
    }

    #[test]
    fn angle_ranges_tile_the_circle() {
        use std::f64::consts::FRAC_PI_2;
        for q in Quadrant::ALL {
            let (s, e) = q.angle_range();
            assert!((e.ccw_from(s) - FRAC_PI_2).abs() < 1e-12);
        }
        let (s1, _) = Quadrant::I.angle_range();
        assert_eq!(s1.radians(), 0.0);
    }

    #[test]
    fn scan_start_axis_lies_in_quadrant_angle_range() {
        for q in Quadrant::ALL {
            let (s, e) = q.angle_range();
            let a = Angle::of_vec(q.scan_start_axis());
            assert!(a.in_ccw_range(s, e), "{q}: start axis outside range");
        }
    }

    #[test]
    fn signs_generate_quadrant_members() {
        let o = Point::new(10.0, 10.0);
        for q in Quadrant::ALL {
            let (sx, sy) = q.signs();
            let p = Point::new(o.x + sx * 3.0, o.y + sy * 2.0);
            assert_eq!(Quadrant::of(o, p), Some(q));
        }
    }

    #[test]
    fn index_roundtrip() {
        for q in Quadrant::ALL {
            assert_eq!(Quadrant::from_index(q.index()), q);
        }
    }

    #[test]
    #[should_panic(expected = "quadrant index must be 1..=4")]
    fn from_index_rejects_out_of_range() {
        let _ = Quadrant::from_index(5);
    }

    #[test]
    fn display_names() {
        assert_eq!(Quadrant::I.to_string(), "Q1(NE)");
        assert_eq!(Quadrant::III.to_string(), "Q3(SW)");
    }
}
