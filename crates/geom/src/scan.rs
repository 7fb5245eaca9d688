//! Counter-clockwise angular scans around a node.
//!
//! The paper's rotating ray is one rule applied three ways. Each is one
//! pass over the same sweep order, with no sorting and no allocation.
//! The order is by counter-clockwise rotation from a start direction,
//! then by distance (the rotating ray hits the nearer of two collinear
//! nodes first), then by id. Candidates at the origin have no direction
//! and are skipped.
//!
//! * The hand rule ([`ccw_scan_from`]): the perimeter phase of
//!   LGF/SLGF/SLGF2 "rotates the ray `ud` counter-clockwise until the
//!   first untried node `v ∈ N(u)` is hit" (Algo. 1 step 4). Every
//!   hand-committed hop takes this first entry, its clockwise mirror
//!   included.
//! * The chain ends ([`quadrant_ends`]): Algo. 2 step 3 picks "the first
//!   and the last type-i unsafe neighbors hit by a ray from `u` when
//!   scanning `Q_i(u)` in counter-clockwise order", starting from the
//!   quadrant's clockwise boundary axis ([`Quadrant::scan_start_axis`]).
//! * The face pivot ([`face_pivot`]): the right-hand rule of the
//!   face-routing baselines (Bose et al. \[2\]) and of BOUNDHOLE's hole
//!   walks takes the first edge counter-clockwise from the arriving one,
//!   with candidates collinear with the start direction last.

use crate::{Angle, Point, Quadrant, Vec2};

/// One candidate of a sweep, with its rotation from the sweep's start
/// direction.
#[derive(Debug, Clone, Copy)]
struct SweepEntry {
    /// Caller-supplied identifier (typically a node id).
    id: usize,
    /// CCW rotation from the start direction, in `[0, 2π)`.
    rotation: f64,
    /// Distance from the sweep origin.
    distance: f64,
}

impl SweepEntry {
    /// The sweep order: rotation, then distance, then id.
    fn order(&self, other: &SweepEntry) -> std::cmp::Ordering {
        self.rotation
            .total_cmp(&other.rotation)
            .then_with(|| self.distance.total_cmp(&other.distance))
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// The candidates of a sweep from `origin`, each with its rotation from
/// `start` (east when `start` is zero) and its distance; candidates at
/// `origin` itself have no direction and are skipped.
fn sweep_entries(
    origin: Point,
    start: Vec2,
    candidates: impl IntoIterator<Item = (usize, Point)>,
) -> impl Iterator<Item = SweepEntry> {
    let start_angle = if start.is_zero() {
        Angle::new(0.0)
    } else {
        Angle::of_vec(start)
    };
    candidates
        .into_iter()
        .filter(move |&(_, p)| p != origin)
        .map(move |(id, p)| {
            let v = p - origin;
            SweepEntry {
                id,
                rotation: Angle::of_vec(v).ccw_from(start_angle),
                distance: v.norm(),
            }
        })
}

/// First candidate hit when rotating a ray counter-clockwise from
/// `start` — the first entry of the sweep order, found in one pass
/// without sorting or allocating — or `None` when there are no
/// candidates off-origin.
pub fn ccw_scan_from(
    origin: Point,
    start: Vec2,
    candidates: impl IntoIterator<Item = (usize, Point)>,
) -> Option<usize> {
    sweep_entries(origin, start, candidates)
        .min_by(SweepEntry::order)
        .map(|e| e.id)
}

/// The first and the last candidates inside `quadrant` of `origin` hit
/// by a ray scanning the quadrant counter-clockwise from its clockwise
/// boundary axis — Algo. 2's `v_1` and `v_2` — or `None` when no
/// candidate lies in the quadrant. One pass, no allocation.
///
/// ```
/// use sp_geom::{quadrant_ends, Point, Quadrant};
/// let u = Point::new(0.0, 0.0);
/// let ends = quadrant_ends(
///     u,
///     Quadrant::I,
///     vec![
///         (0, Point::new(1.0, 4.0)),  // near north -> scanned last
///         (1, Point::new(4.0, 1.0)),  // near east -> scanned first
///         (2, Point::new(-1.0, 1.0)), // wrong quadrant, dropped
///     ],
/// );
/// assert_eq!(ends, Some((1, 0)));
/// ```
pub fn quadrant_ends(
    origin: Point,
    quadrant: Quadrant,
    candidates: impl IntoIterator<Item = (usize, Point)>,
) -> Option<(usize, usize)> {
    let inside = candidates
        .into_iter()
        .filter(move |&(_, p)| Quadrant::of(origin, p) == Some(quadrant));
    let mut entries = sweep_entries(origin, quadrant.scan_start_axis(), inside);
    let seed = entries.next()?;
    let (first, last) = entries.fold((seed, seed), |(first, last), e| {
        let first = if e.order(&first).is_lt() { e } else { first };
        let last = if e.order(&last).is_lt() { last } else { e };
        (first, last)
    });
    Some((first.id, last.id))
}

/// Rotation up to which a [`face_pivot`] candidate counts as collinear
/// with the start direction.
const COLLINEAR: f64 = 1e-12;

/// The right-hand face-walk pivot: the candidate with the least
/// counter-clockwise rotation from `start`, never `exclude` (the node
/// the walk arrived from), or `None` when no other candidate lies off
/// `origin` — a dead end, where the caller bounces back.
///
/// Candidates collinear with `start` (rotation ≤ 1e-12) come after
/// every other candidate, nearest first: taking them eagerly would trap
/// a walk in collinear triangles, and planarization usually removes
/// such pairs but the pivot must not rely on it.
///
/// ```
/// use sp_geom::{face_pivot, Point, Vec2};
/// let x = Point::new(0.0, 0.0);
/// let cands = vec![
///     (0, Point::new(5.0, 0.0)),  // east: the arriving edge
///     (1, Point::new(0.0, 5.0)),  // north: 90°
///     (2, Point::new(9.0, 0.0)),  // east again, collinear: deferred
///     (3, Point::new(-5.0, 0.0)), // west: 180°
/// ];
/// let east = Vec2::new(1.0, 0.0);
/// assert_eq!(face_pivot(x, east, Some(0), cands.clone()), Some(1));
/// assert_eq!(face_pivot(x, east, Some(1), cands[1..].to_vec()), Some(3));
/// assert_eq!(face_pivot(x, east, Some(0), vec![cands[0], cands[2]]), Some(2));
/// assert_eq!(face_pivot(x, east, Some(0), vec![cands[0]]), None);
/// ```
pub fn face_pivot(
    origin: Point,
    start: Vec2,
    exclude: Option<usize>,
    candidates: impl IntoIterator<Item = (usize, Point)>,
) -> Option<usize> {
    sweep_entries(origin, start, candidates)
        .filter(|e| Some(e.id) != exclude)
        .min_by(|a, b| {
            (a.rotation <= COLLINEAR)
                .cmp(&(b.rotation <= COLLINEAR))
                .then_with(|| a.order(b))
        })
        .map(|e| e.id)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole sweep order, one `ccw_scan_from` pick at a time.
    fn picks(origin: Point, start: Vec2, mut cands: Vec<(usize, Point)>) -> Vec<usize> {
        let mut order = Vec::new();
        while let Some(id) = ccw_scan_from(origin, start, cands.iter().copied()) {
            order.push(id);
            cands.retain(|&(c, _)| c != id);
        }
        order
    }

    #[test]
    fn sweep_orders_by_rotation() {
        let order = picks(
            Point::ORIGIN,
            Vec2::new(0.0, 1.0), // start north
            vec![
                (0, Point::new(1.0, 0.0)),  // east = 270° CCW from north
                (1, Point::new(-1.0, 0.0)), // west = 90°
                (2, Point::new(0.0, -1.0)), // south = 180°
                (3, Point::new(0.0, 2.0)),  // north = 0°
            ],
        );
        assert_eq!(order, vec![3, 1, 2, 0]);
    }

    #[test]
    fn collinear_candidates_near_first() {
        let order = picks(
            Point::ORIGIN,
            Vec2::new(1.0, 0.0),
            vec![(7, Point::new(4.0, 4.0)), (3, Point::new(2.0, 2.0))],
        );
        assert_eq!(order, vec![3, 7], "nearer collinear node is hit first");
    }

    #[test]
    fn first_untried_skips() {
        let cands = [
            (0, Point::new(1.0, 0.1)),
            (1, Point::new(1.0, 1.0)),
            (2, Point::new(0.0, 1.0)),
        ];
        let tried = [0usize, 1];
        let untried = cands.iter().copied().filter(|(id, _)| !tried.contains(id));
        let east = Vec2::new(1.0, 0.0);
        assert_eq!(ccw_scan_from(Point::ORIGIN, east, untried), Some(2));
        assert_eq!(ccw_scan_from(Point::ORIGIN, east, []), None);
    }

    #[test]
    fn origin_coincident_candidates_skipped() {
        let u = Point::new(3.0, 3.0);
        let east = Vec2::new(1.0, 0.0);
        assert_eq!(ccw_scan_from(u, east, [(0, u)]), None);
        assert_eq!(face_pivot(u, east, None, [(0, u)]), None);
        for q in Quadrant::ALL {
            assert_eq!(quadrant_ends(u, q, [(0, u)]), None);
        }
    }

    #[test]
    fn quadrant_scan_matches_paper_example_orientation() {
        // Fig. 3(b): in Q1, the first-scanned neighbor hugs the x-axis,
        // the last hugs the y-axis.
        let ends = quadrant_ends(
            Point::ORIGIN,
            Quadrant::I,
            vec![
                (0, Point::new(1.0, 3.0)),
                (1, Point::new(3.0, 1.0)),
                (2, Point::new(2.0, 2.0)),
            ],
        );
        assert_eq!(ends, Some((1, 0)));
    }

    #[test]
    fn quadrant_scan_q3_starts_from_west() {
        let ends = quadrant_ends(
            Point::ORIGIN,
            Quadrant::III,
            vec![
                (0, Point::new(-1.0, -3.0)), // nearer south
                (1, Point::new(-3.0, -1.0)), // nearer west -> first
            ],
        );
        assert_eq!(ends, Some((1, 0)));
    }

    #[test]
    fn quadrant_scan_drops_outsiders() {
        let u = Point::new(5.0, 5.0);
        let ends = quadrant_ends(
            u,
            Quadrant::II,
            vec![
                (0, Point::new(9.0, 9.0)),
                (1, Point::new(1.0, 9.0)),
                (2, Point::new(1.0, 1.0)),
                (3, u),
            ],
        );
        assert_eq!(ends, Some((1, 1)));
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
        let ends = quadrant_ends(
            u,
            Quadrant::I,
            vec![(0, Point::new(4.0, 0.0)), (1, Point::new(4.0, 0.5))],
        );
        assert_eq!(ends, Some((0, 1)));
        // A node exactly north is also Q1 (half-open convention) and is
        // scanned last.
        let ends = quadrant_ends(
            u,
            Quadrant::I,
            vec![(0, Point::new(0.0, 4.0)), (1, Point::new(4.0, 0.5))],
        );
        assert_eq!(ends, Some((1, 0)));
    }
}
