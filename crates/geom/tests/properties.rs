//! Property-based tests for the geometry kernel.

use proptest::prelude::*;
use sp_geom::{
    ccw_order_in_quadrant, ccw_scan_from, convex_hull, normalize_angle, point_in_polygon,
    pseudo_angle, Angle, Point, Quadrant, Ray, Rect, Segment, Side, Vec2, TAU,
};

fn finite_coord() -> impl Strategy<Value = f64> {
    -1e4..1e4f64
}

fn arb_point() -> impl Strategy<Value = Point> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #[test]
    fn quadrant_partition_is_total_and_disjoint(o in arb_point(), p in arb_point()) {
        if o == p {
            prop_assert!(Quadrant::of(o, p).is_none());
        } else {
            let q = Quadrant::of(o, p).unwrap();
            let claims = Quadrant::ALL.iter().filter(|c| c.contains(o, p)).count();
            prop_assert_eq!(claims, 1);
            prop_assert!(q.contains(o, p));
        }
    }

    #[test]
    fn quadrant_of_destination_and_back_are_opposite_for_strict_interior(
        o in arb_point(), dx in 0.001..1e3f64, dy in 0.001..1e3f64,
        q in prop::sample::select(vec![Quadrant::I, Quadrant::II, Quadrant::III, Quadrant::IV]),
    ) {
        // For points strictly inside a quadrant (no axis contact), the view
        // back from the target is the opposite type.
        let (sx, sy) = q.signs();
        let p = Point::new(o.x + sx * dx, o.y + sy * dy);
        prop_assert_eq!(Quadrant::of(o, p), Some(q));
        prop_assert_eq!(Quadrant::of(p, o), Some(q.opposite()));
    }

    #[test]
    fn rect_from_corners_is_order_invariant(a in arb_point(), b in arb_point()) {
        let r1 = Rect::from_corners(a, b);
        let r2 = Rect::from_corners(b, a);
        let r3 = Rect::from_corners(Point::new(a.x, b.y), Point::new(b.x, a.y));
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(r1, r3);
        prop_assert!(r1.contains(a) && r1.contains(b));
        prop_assert!(r1.contains(a.midpoint(b)));
    }

    #[test]
    fn rect_intersection_is_contained_in_both(
        a in arb_point(), b in arb_point(), c in arb_point(), d in arb_point()
    ) {
        let r1 = Rect::from_corners(a, b);
        let r2 = Rect::from_corners(c, d);
        if let Some(i) = r1.intersection(&r2) {
            prop_assert!(r1.contains_rect(&i));
            prop_assert!(r2.contains_rect(&i));
        } else {
            prop_assert!(!r1.intersects(&r2));
        }
        let u = r1.union(&r2);
        prop_assert!(u.contains_rect(&r1) && u.contains_rect(&r2));
    }

    #[test]
    fn normalize_angle_lands_in_range(a in -100.0..100.0f64) {
        let n = normalize_angle(a);
        prop_assert!((0.0..TAU).contains(&n));
        // Same direction: difference is a multiple of 2π.
        let k = (a - n) / TAU;
        prop_assert!((k - k.round()).abs() < 1e-9);
    }

    #[test]
    fn pseudo_angle_orders_like_true_angle(t1 in 0.0..TAU, t2 in 0.0..TAU) {
        let v1 = Vec2::new(t1.cos(), t1.sin());
        let v2 = Vec2::new(t2.cos(), t2.sin());
        let true_order = t1.partial_cmp(&t2).unwrap();
        let pseudo_order = pseudo_angle(v1).partial_cmp(&pseudo_angle(v2)).unwrap();
        // Angles that are distinct enough must order identically.
        if (t1 - t2).abs() > 1e-9 && (t1 - t2).abs() < TAU - 1e-9 {
            prop_assert_eq!(true_order, pseudo_order);
        }
    }

    #[test]
    fn angle_ccw_from_is_consistent_with_in_range(
        s in 0.0..TAU, e in 0.0..TAU, x in 0.0..TAU
    ) {
        let (s, e, x) = (Angle::new(s), Angle::new(e), Angle::new(x));
        if x.in_ccw_range(s, e) {
            prop_assert!(x.ccw_from(s) <= e.ccw_from(s) + 1e-12);
        }
    }

    #[test]
    fn ray_side_flips_with_direction(o in arb_point(), d in arb_point(), p in arb_point()) {
        prop_assume!(o != d);
        let fwd = Ray::through(o, d).unwrap();
        let back = Ray::through(d, o);
        if let Some(back) = back {
            let s = fwd.side_of(p);
            prop_assert_eq!(s.opposite(), back.side_of(p));
        }
    }

    #[test]
    fn segment_intersection_is_symmetric(
        a in arb_point(), b in arb_point(), c in arb_point(), d in arb_point()
    ) {
        let s1 = Segment::new(a, b);
        let s2 = Segment::new(c, d);
        prop_assert_eq!(s1.intersects(&s2), s2.intersects(&s1));
        prop_assert_eq!(s1.crosses_properly(&s2), s2.crosses_properly(&s1));
        if s1.crosses_properly(&s2) {
            let p = s1.intersection_point(&s2).unwrap();
            // The crossing point is near both segments.
            prop_assert!(s1.distance_to_point(p) < 1e-6);
            prop_assert!(s2.distance_to_point(p) < 1e-6);
        }
    }

    #[test]
    fn hull_contains_every_input_point(
        pts in prop::collection::vec(arb_point(), 3..40)
    ) {
        let hull = convex_hull(&pts);
        prop_assume!(hull.len() >= 3);
        let poly: Vec<Point> = hull.iter().map(|&i| pts[i]).collect();
        for &p in &pts {
            prop_assert!(
                point_in_polygon(p, &poly),
                "point {} outside its own hull", p
            );
        }
    }

    #[test]
    fn quadrant_scan_returns_subset_in_ccw_order(
        o in arb_point(),
        pts in prop::collection::vec(arb_point(), 0..30),
        q in prop::sample::select(vec![Quadrant::I, Quadrant::II, Quadrant::III, Quadrant::IV]),
    ) {
        let cands: Vec<(usize, Point)> = pts.iter().copied().enumerate().collect();
        let order = ccw_order_in_quadrant(o, q, cands.clone());
        // The one-pass scan finds the sorted sweep's first entry.
        let inside = cands.into_iter().filter(|&(_, p)| Quadrant::of(o, p) == Some(q));
        prop_assert_eq!(ccw_scan_from(o, q.scan_start_axis(), inside), order.first().copied());
        // Every returned id is in the quadrant.
        for &id in &order {
            prop_assert_eq!(Quadrant::of(o, pts[id]), Some(q));
        }
        // Rotations from the scan start axis are non-decreasing.
        let start = Angle::of_vec(q.scan_start_axis());
        let rots: Vec<f64> = order
            .iter()
            .map(|&id| Angle::of_vec(pts[id] - o).ccw_from(start))
            .collect();
        for w in rots.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        // And each rotation stays within the quadrant's quarter turn.
        for r in rots {
            prop_assert!(r <= std::f64::consts::FRAC_PI_2 + 1e-12);
        }
    }

    #[test]
    fn side_of_is_antisymmetric_under_swap(o in arb_point(), d in arb_point(), p in arb_point()) {
        prop_assume!(o != d);
        let ray = Ray::through(o, d).unwrap();
        match ray.side_of(p) {
            Side::Left => {
                // Mirror p across the ray line: cheap check via double cross sign.
                let v = d - o;
                let w = p - o;
                prop_assert!(v.cross(w) > 0.0);
            }
            Side::Right => {
                let v = d - o;
                let w = p - o;
                prop_assert!(v.cross(w) < 0.0);
            }
            Side::On => {
                let v = d - o;
                let w = p - o;
                prop_assert_eq!(v.cross(w), 0.0);
            }
        }
    }
}
