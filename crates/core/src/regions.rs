//! The either-hand rule (§4).
//!
//! Contribution (a) of the paper divides `Q_i(v)` by "the ray
//! `(x_v, y_v)(x_{v^{(1)}}, y_{v^{(2)}})`" of the estimate
//! `E_i(v) : [x_v : x_{v^{(1)}}, y_v : y_{v^{(2)}}]` into a critical
//! region holding `d` and a forbidden one, and the packet routes around
//! `E_i(v)` on the destination's side, committing to a left- or
//! right-hand traversal and sticking with it (Algo. 3 steps 3–5).
//!
//! The code realises that side choice without building the two regions.
//! [`choose_hand`] compares the detours around the two corners of
//! `E_i(v)` beside `v`'s own, `(x_f, y_v)` and `(x_v, y_f)` for the far
//! corner `f`, and commits to the hand that turns the ray `ud` toward
//! the cheaper one. Every hand-committed hop (SLGF2's backup and
//! perimeter phases, the LGF/SLGF perimeter sweep) then takes the first
//! candidate the committed hand's rotating ray hits ([`hand_first`]):
//! one pass of [`sp_geom::ccw_scan_from`], mirrored for the left hand.
//! SLGF2's safe forwarding applies the superseding rule to the estimate
//! rectangles themselves (see [`crate::Slgf2Router`]).

use crate::ShapeEstimate;
use sp_geom::{ccw_scan_from, Point, Ray, Side, Vec2};

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

/// The first candidate the committed hand's sweep hits: rotating the
/// ray `u -> d` counter-clockwise (`Hand::Ccw`) or clockwise
/// (`Hand::Cw`), least rotation first, then nearest, then lowest id.
/// One pass over the candidates, no allocation.
pub fn hand_first(
    u: Point,
    d: Point,
    hand: Hand,
    candidates: impl IntoIterator<Item = (usize, Point)>,
) -> Option<usize> {
    let dir = d - u;
    match hand {
        Hand::Ccw => ccw_scan_from(u, dir, candidates),
        // Mirror the plane about the horizontal through u: a CW sweep
        // of the original is a CCW sweep of the mirror.
        Hand::Cw => ccw_scan_from(
            u,
            Vec2::new(dir.x, -dir.y),
            candidates
                .into_iter()
                .map(|(id, p)| (id, Point::new(p.x, 2.0 * u.y - p.y))),
        ),
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
    fn hand_first_ccw_and_cw_mirror() {
        let u = Point::new(0.0, 0.0);
        let d = Point::new(10.0, 0.0); // east
        let cands = vec![
            (0, Point::new(5.0, 5.0)),  // NE, 45° CCW
            (1, Point::new(5.0, -5.0)), // SE, 45° CW (=315° CCW)
            (2, Point::new(-5.0, 0.0)), // W, 180°
        ];
        assert_eq!(hand_first(u, d, Hand::Ccw, cands.clone()), Some(0));
        assert_eq!(hand_first(u, d, Hand::Cw, cands.clone()), Some(1));
        // Without the first hit, each hand reaches W before the other
        // diagonal.
        assert_eq!(hand_first(u, d, Hand::Ccw, cands[1..].to_vec()), Some(2));
        assert_eq!(
            hand_first(u, d, Hand::Cw, vec![cands[0], cands[2]]),
            Some(2)
        );
        assert_eq!(hand_first(u, d, Hand::Cw, vec![(3, u)]), None);
    }

    #[test]
    fn hand_opposite_is_involution() {
        assert_eq!(Hand::Ccw.opposite(), Hand::Cw);
        assert_eq!(Hand::Cw.opposite().opposite(), Hand::Cw);
        assert_ne!(Hand::Ccw.to_string(), Hand::Cw.to_string());
    }
}
