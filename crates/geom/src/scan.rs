//! Counter-clockwise angular scans around a node.
//!
//! Two of the paper's mechanisms are angular sweeps:
//!
//! * the perimeter phase of LGF/SLGF/SLGF2 "rotates the ray `ud`
//!   counter-clockwise until the first untried node `v ∈ N(u)` is hit"
//!   (Algo. 1 step 4) — [`AngularSweep`] enumerates neighbors in exactly
//!   that order;
//! * Algo. 2 step 3 picks "the first and the last type-i unsafe neighbors
//!   hit by a ray from `u` when scanning `Q_i(u)` in counter-clockwise
//!   order" — [`ccw_order_in_quadrant`] produces that order, starting from
//!   the quadrant's clockwise boundary axis
//!   ([`Quadrant::scan_start_axis`]).
//!
//! Ordering is total and deterministic: by CCW rotation from the start
//! direction, then by distance (nearer first — the rotating ray hits the
//! nearer of two collinear nodes first), then by id.

use crate::{Angle, Point, Quadrant, Vec2};

/// Neighbors of an origin sorted in counter-clockwise sweep order from a
/// start direction.
///
/// ```
/// use sp_geom::{AngularSweep, Point, Vec2};
/// let u = Point::new(0.0, 0.0);
/// let sweep = AngularSweep::new(
///     u,
///     Vec2::new(1.0, 0.0), // start east, rotate CCW
///     vec![
///         (10, Point::new(0.0, 5.0)),  // north: 90°
///         (11, Point::new(5.0, 5.0)),  // northeast: 45°
///         (12, Point::new(-5.0, 0.0)), // west: 180°
///     ],
/// );
/// let order: Vec<usize> = sweep.ids().collect();
/// assert_eq!(order, vec![11, 10, 12]);
/// ```
#[derive(Debug, Clone)]
pub struct AngularSweep {
    entries: Vec<SweepEntry>,
}

/// One candidate in an [`AngularSweep`], with its rotation from the
/// sweep's start direction.
#[derive(Debug, Clone, Copy)]
pub struct SweepEntry {
    /// Caller-supplied identifier (typically a node id).
    pub id: usize,
    /// The candidate's location.
    pub point: Point,
    /// CCW rotation from the start direction, in `[0, 2π)`.
    pub rotation: f64,
    /// Distance from the sweep origin.
    pub distance: f64,
}

impl AngularSweep {
    /// Builds the sweep. Candidates located exactly at `origin` are
    /// skipped (they have no direction). A zero `start` direction is
    /// replaced by east.
    pub fn new(
        origin: Point,
        start: Vec2,
        candidates: impl IntoIterator<Item = (usize, Point)>,
    ) -> AngularSweep {
        let start_angle = if start.is_zero() {
            Angle::new(0.0)
        } else {
            Angle::of_vec(start)
        };
        let mut entries: Vec<SweepEntry> = candidates
            .into_iter()
            .filter(|&(_, p)| p != origin)
            .map(|(id, p)| {
                let v = p - origin;
                SweepEntry {
                    id,
                    point: p,
                    rotation: Angle::of_vec(v).ccw_from(start_angle),
                    distance: v.norm(),
                }
            })
            .collect();
        entries.sort_by(|a, b| {
            a.rotation
                .total_cmp(&b.rotation)
                .then_with(|| a.distance.total_cmp(&b.distance))
                .then_with(|| a.id.cmp(&b.id))
        });
        AngularSweep { entries }
    }

    /// Candidates in sweep order.
    pub fn entries(&self) -> &[SweepEntry] {
        &self.entries
    }

    /// Ids in sweep order.
    pub fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.iter().map(|e| e.id)
    }

    /// The first candidate not rejected by `tried` — the perimeter-routing
    /// successor ("first untried node hit by the rotating ray").
    pub fn first_untried(&self, mut tried: impl FnMut(usize) -> bool) -> Option<&SweepEntry> {
        self.entries.iter().find(|e| !tried(e.id))
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the sweep has no candidates.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// First candidate hit when rotating a ray counter-clockwise from
/// `start`, or `None` when there are no candidates off-origin.
pub fn ccw_scan_from(
    origin: Point,
    start: Vec2,
    candidates: impl IntoIterator<Item = (usize, Point)>,
) -> Option<usize> {
    AngularSweep::new(origin, start, candidates)
        .entries()
        .first()
        .map(|e| e.id)
}

/// Candidates inside `quadrant` of `origin`, in the counter-clockwise
/// scan order of Algo. 2: starting from the quadrant's clockwise boundary
/// axis. Candidates outside the quadrant are dropped.
///
/// The returned ids give the paper's "first … and the last type-i …
/// neighbors hit by a ray from u when scanning `Q_i(u)`" as the first and
/// last elements.
///
/// ```
/// use sp_geom::{ccw_order_in_quadrant, Point, Quadrant};
/// let u = Point::new(0.0, 0.0);
/// let order = ccw_order_in_quadrant(
///     u,
///     Quadrant::I,
///     vec![
///         (0, Point::new(1.0, 4.0)),  // near north
///         (1, Point::new(4.0, 1.0)),  // near east -> scanned first
///         (2, Point::new(-1.0, 1.0)), // wrong quadrant, dropped
///     ],
/// );
/// assert_eq!(order, vec![1, 0]);
/// ```
pub fn ccw_order_in_quadrant(
    origin: Point,
    quadrant: Quadrant,
    candidates: impl IntoIterator<Item = (usize, Point)>,
) -> Vec<usize> {
    let filtered: Vec<(usize, Point)> = candidates
        .into_iter()
        .filter(|&(_, p)| Quadrant::of(origin, p) == Some(quadrant))
        .collect();
    AngularSweep::new(origin, quadrant.scan_start_axis(), filtered)
        .ids()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_orders_by_rotation() {
        let u = Point::ORIGIN;
        let sweep = AngularSweep::new(
            u,
            Vec2::new(0.0, 1.0), // start north
            vec![
                (0, Point::new(1.0, 0.0)),  // east = 270° CCW from north
                (1, Point::new(-1.0, 0.0)), // west = 90°
                (2, Point::new(0.0, -1.0)), // south = 180°
                (3, Point::new(0.0, 2.0)),  // north = 0°
            ],
        );
        let order: Vec<usize> = sweep.ids().collect();
        assert_eq!(order, vec![3, 1, 2, 0]);
    }

    #[test]
    fn collinear_candidates_near_first() {
        let u = Point::ORIGIN;
        let sweep = AngularSweep::new(
            u,
            Vec2::new(1.0, 0.0),
            vec![(7, Point::new(4.0, 4.0)), (3, Point::new(2.0, 2.0))],
        );
        let order: Vec<usize> = sweep.ids().collect();
        assert_eq!(order, vec![3, 7], "nearer collinear node is hit first");
    }

    #[test]
    fn first_untried_skips() {
        let u = Point::ORIGIN;
        let sweep = AngularSweep::new(
            u,
            Vec2::new(1.0, 0.0),
            vec![
                (0, Point::new(1.0, 0.1)),
                (1, Point::new(1.0, 1.0)),
                (2, Point::new(0.0, 1.0)),
            ],
        );
        let tried = [0usize, 1];
        let next = sweep.first_untried(|id| tried.contains(&id)).unwrap();
        assert_eq!(next.id, 2);
        assert!(sweep.first_untried(|_| true).is_none());
    }

    #[test]
    fn origin_coincident_candidates_skipped() {
        let u = Point::new(3.0, 3.0);
        let sweep = AngularSweep::new(u, Vec2::new(1.0, 0.0), vec![(0, u)]);
        assert!(sweep.is_empty());
        assert_eq!(sweep.len(), 0);
    }

    #[test]
    fn quadrant_scan_matches_paper_example_orientation() {
        // Fig. 3(b): in Q1, the first-scanned neighbor hugs the x-axis,
        // the last hugs the y-axis.
        let u = Point::ORIGIN;
        let order = ccw_order_in_quadrant(
            u,
            Quadrant::I,
            vec![
                (0, Point::new(1.0, 3.0)),
                (1, Point::new(3.0, 1.0)),
                (2, Point::new(2.0, 2.0)),
            ],
        );
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn quadrant_scan_q3_starts_from_west() {
        let u = Point::ORIGIN;
        let order = ccw_order_in_quadrant(
            u,
            Quadrant::III,
            vec![
                (0, Point::new(-1.0, -3.0)), // nearer south
                (1, Point::new(-3.0, -1.0)), // nearer west -> first
            ],
        );
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn quadrant_scan_drops_outsiders() {
        let u = Point::new(5.0, 5.0);
        let order = ccw_order_in_quadrant(
            u,
            Quadrant::II,
            vec![
                (0, Point::new(9.0, 9.0)),
                (1, Point::new(1.0, 9.0)),
                (2, Point::new(1.0, 1.0)),
                (3, u),
            ],
        );
        assert_eq!(order, vec![1]);
    }

    #[test]
    fn ccw_scan_from_finds_minimum_rotation() {
        let u = Point::ORIGIN;
        let id = ccw_scan_from(
            u,
            Vec2::new(-1.0, 0.0), // start west
            vec![(0, Point::new(1.0, 0.0)), (1, Point::new(-1.0, -1.0))],
        );
        // From west rotating CCW: southwest (225°) comes before east (180°
        // CCW? no: east is 180° from west CCW, southwest is 45°).
        assert_eq!(id, Some(1));
    }

    #[test]
    fn axis_boundary_nodes_have_zero_rotation_in_own_quadrant() {
        let u = Point::ORIGIN;
        // A node exactly east is Q1 with rotation 0 in the Q1 scan.
        let order = ccw_order_in_quadrant(
            u,
            Quadrant::I,
            vec![(0, Point::new(4.0, 0.0)), (1, Point::new(4.0, 0.5))],
        );
        assert_eq!(order, vec![0, 1]);
        // A node exactly north is also Q1 (half-open convention) and is
        // scanned last.
        let order2 = ccw_order_in_quadrant(
            u,
            Quadrant::I,
            vec![(0, Point::new(0.0, 4.0)), (1, Point::new(4.0, 0.5))],
        );
        assert_eq!(order2, vec![1, 0]);
    }
}
