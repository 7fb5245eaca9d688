//! Critical/forbidden regions and the either-hand rule (§4).
//!
//! Contribution (a) of the paper: "According to
//! `E_i(v) : [x_v : x_{v^{(1)}}, y_v : y_{v^{(2)}}]`, `Q_i(v)` is divided
//! by the ray `(x_v, y_v)(x_{v^{(1)}}, y_{v^{(2)}})` into two parts. The
//! region with `d` is called critical region and the other is called
//! forbidden region … The access of forbidden region will be avoided when
//! the destination is inside the critical region."
//!
//! The same ray decides the *either-hand rule*: the packet routes around
//! `E_i(v)` on the destination's side of the blockage, by committing to a
//! left- or right-hand traversal and sticking with it (Algo. 3 steps
//! 3–5). Our deterministic realisation takes the side whose
//! around-the-rectangle detour is shorter ([`choose_hand`]).

use crate::ShapeEstimate;
use sp_geom::{AngularSweep, Point, Quadrant, Ray, Side};

/// A committed traversal direction for the either-hand rule.
///
/// `Ccw` rotates the search ray counter-clockwise from `ud` — the
/// "right-hand rule" of the paper's perimeter phase (Algo. 1 step 4) —
/// and `Cw` is its mirror, the "left-hand rule".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hand {
    /// Rotate candidates counter-clockwise from the destination ray
    /// (right-hand rule).
    Ccw,
    /// Rotate candidates clockwise from the destination ray (left-hand
    /// rule).
    Cw,
}

impl Hand {
    /// The mirrored hand.
    pub fn opposite(self) -> Hand {
        match self {
            Hand::Ccw => Hand::Cw,
            Hand::Cw => Hand::Ccw,
        }
    }
}

impl std::fmt::Display for Hand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Hand::Ccw => "right-hand (ccw)",
            Hand::Cw => "left-hand (cw)",
        })
    }
}

/// The split of `Q_i(v)` into critical (destination-side) and forbidden
/// regions, anchored at unsafe node `v`.
#[derive(Debug, Clone, Copy)]
pub struct RegionSplit {
    anchor: Point,
    quadrant: Quadrant,
    ray: Ray,
    critical_side: Side,
}

impl RegionSplit {
    /// Builds the split for the estimate `E_q(v)` of unsafe node `v` at
    /// `anchor`, with destination `d`.
    ///
    /// Returns `None` when the split constrains nothing:
    /// * `d` is outside `Q_q(v)` (the estimate does not block this
    ///   routing),
    /// * the estimate is degenerate (`v^{(1)} = v^{(2)} = v`), or
    /// * `d` lies exactly on the dividing ray.
    pub fn new(anchor: Point, q: Quadrant, est: &ShapeEstimate, d: Point) -> Option<RegionSplit> {
        if Quadrant::of(anchor, d) != Some(q) {
            return None;
        }
        let ray = Ray::through(anchor, est.far_corner)?;
        let critical_side = match ray.side_of(d) {
            Side::On => return None,
            side => side,
        };
        Some(RegionSplit {
            anchor,
            quadrant: q,
            ray,
            critical_side,
        })
    }

    /// Is `p` inside the critical region (the destination's side of the
    /// dividing ray, within `Q_q(v)`)?
    pub fn in_critical(&self, p: Point) -> bool {
        Quadrant::of(self.anchor, p) == Some(self.quadrant)
            && self.ray.side_of(p) == self.critical_side
    }

    /// Is `p` inside the forbidden region?
    pub fn in_forbidden(&self, p: Point) -> bool {
        Quadrant::of(self.anchor, p) == Some(self.quadrant)
            && self.ray.side_of(p) == self.critical_side.opposite()
    }

    /// Which side of the dividing ray the destination occupies.
    pub fn critical_side(&self) -> Side {
        self.critical_side
    }
}

/// Deterministic either-hand choice at `u` against blocking estimate
/// `est`, heading for `d`: compare the detour cost around the
/// x-extent corner of `E` with the cost around the y-extent corner, and
/// rotate toward the cheaper corner's side of the ray `ud`.
///
/// Falls back to [`Hand::Ccw`] (the right-hand tradition of Algo. 1) when
/// the geometry is degenerate.
pub fn choose_hand(u: Point, d: Point, est: &ShapeEstimate) -> Hand {
    let Some(ray) = Ray::through(u, d) else {
        return Hand::Ccw;
    };
    // The estimate's anchor corner is the rect corner diagonally opposite
    // `far_corner` (the unsafe node the estimate was collected from).
    let far = est.far_corner;
    let anchor = Point::new(
        if far.x == est.rect.min().x {
            est.rect.max().x
        } else {
            est.rect.min().x
        },
        if far.y == est.rect.min().y {
            est.rect.max().y
        } else {
            est.rect.min().y
        },
    );
    // The two rectangle corners adjacent to the anchor corner of E.
    let corner_x = Point::new(far.x, anchor.y);
    let corner_y = Point::new(anchor.x, far.y);
    let cost_x = u.distance(corner_x) + corner_x.distance(d);
    let cost_y = u.distance(corner_y) + corner_y.distance(d);
    let cheaper = if cost_x <= cost_y { corner_x } else { corner_y };
    match ray.side_of(cheaper) {
        Side::Left => Hand::Ccw,
        Side::Right => Hand::Cw,
        Side::On => Hand::Ccw,
    }
}

/// Candidates ordered by the committed hand: rotating the ray `u -> d`
/// counter-clockwise (`Hand::Ccw`) or clockwise (`Hand::Cw`), nearest
/// rotation first. Returns candidate ids in traversal order.
pub fn hand_order(
    u: Point,
    d: Point,
    hand: Hand,
    candidates: impl IntoIterator<Item = (usize, Point)>,
) -> Vec<usize> {
    let dir = d - u;
    match hand {
        Hand::Ccw => AngularSweep::new(u, dir, candidates).ids().collect(),
        Hand::Cw => {
            // Mirror the plane about the horizontal through u: a CW sweep
            // of the original is a CCW sweep of the mirror.
            let mirrored: Vec<(usize, Point)> = candidates
                .into_iter()
                .map(|(id, p)| (id, Point::new(p.x, 2.0 * u.y - p.y)))
                .collect();
            let mdir = sp_geom::Vec2::new(dir.x, -dir.y);
            AngularSweep::new(u, mdir, mirrored).ids().collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_geom::Rect;
    use sp_net::NodeId;

    fn ne_estimate(v: Point, far: Point) -> ShapeEstimate {
        ShapeEstimate {
            first_far: NodeId(1),
            last_far: NodeId(2),
            rect: Rect::from_corners(v, far),
            far_corner: far,
        }
    }

    #[test]
    fn split_identifies_critical_and_forbidden() {
        // v at origin, E_1(v) = [0:10, 0:10]; destination high up north.
        let v = Point::new(0.0, 0.0);
        let est = ne_estimate(v, Point::new(10.0, 10.0));
        let d = Point::new(5.0, 30.0); // above the diagonal -> Left side
        let split = RegionSplit::new(v, Quadrant::I, &est, d).unwrap();
        assert_eq!(split.critical_side(), Side::Left);
        // A candidate east of the diagonal is forbidden.
        assert!(split.in_forbidden(Point::new(20.0, 3.0)));
        assert!(!split.in_critical(Point::new(20.0, 3.0)));
        // A candidate north of the diagonal is critical.
        assert!(split.in_critical(Point::new(3.0, 20.0)));
        // Points outside Q1(v) are in neither region.
        assert!(!split.in_forbidden(Point::new(-5.0, 5.0)));
        assert!(!split.in_critical(Point::new(-5.0, 5.0)));
    }

    #[test]
    fn split_inactive_when_destination_elsewhere() {
        let v = Point::new(0.0, 0.0);
        let est = ne_estimate(v, Point::new(10.0, 10.0));
        // d southwest: the NE estimate does not constrain this routing.
        assert!(RegionSplit::new(v, Quadrant::I, &est, Point::new(-5.0, -5.0)).is_none());
        // d exactly on the dividing ray: no constraint either.
        assert!(RegionSplit::new(v, Quadrant::I, &est, Point::new(20.0, 20.0)).is_none());
        // Degenerate estimate (far corner == v).
        let degenerate = ne_estimate(v, v);
        assert!(RegionSplit::new(v, Quadrant::I, &degenerate, Point::new(5.0, 30.0)).is_none());
    }

    #[test]
    fn hand_choice_follows_cheaper_corner() {
        let u = Point::new(0.0, 0.0);
        let est = ne_estimate(u, Point::new(10.0, 10.0));
        // Destination far north: going around the y-extent corner (0,10)
        // is cheaper; that corner is Left of ray ud? d = (5,30):
        // ray dir (5,30); corner (0,10): cross = 5*10 - 30*0 = 50 > 0 Left
        // -> CCW.
        assert_eq!(choose_hand(u, Point::new(5.0, 30.0), &est), Hand::Ccw);
        // Destination far east: corner (10,0) cheaper; cross of dir
        // (30,5) with (10,0): 30*0 - 5*10 = -50 Right -> CW.
        assert_eq!(choose_hand(u, Point::new(30.0, 5.0), &est), Hand::Cw);
    }

    #[test]
    fn hand_choice_degenerate_destination() {
        let u = Point::new(0.0, 0.0);
        let est = ne_estimate(u, Point::new(10.0, 10.0));
        assert_eq!(choose_hand(u, u, &est), Hand::Ccw);
    }

    #[test]
    fn hand_order_ccw_and_cw_mirror() {
        let u = Point::new(0.0, 0.0);
        let d = Point::new(10.0, 0.0); // east
        let cands = vec![
            (0, Point::new(5.0, 5.0)),  // NE, 45° CCW
            (1, Point::new(5.0, -5.0)), // SE, 45° CW (=315° CCW)
            (2, Point::new(-5.0, 0.0)), // W, 180°
        ];
        let ccw = hand_order(u, d, Hand::Ccw, cands.clone());
        assert_eq!(ccw, vec![0, 2, 1]);
        let cw = hand_order(u, d, Hand::Cw, cands);
        assert_eq!(cw, vec![1, 2, 0]);
    }

    #[test]
    fn hand_opposite_is_involution() {
        assert_eq!(Hand::Ccw.opposite(), Hand::Cw);
        assert_eq!(Hand::Cw.opposite().opposite(), Hand::Cw);
        assert_ne!(Hand::Ccw.to_string(), Hand::Cw.to_string());
    }
}
