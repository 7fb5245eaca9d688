//! GFG/GPSR — greedy forwarding with *full* planar face routing.
//!
//! The paper's perimeter phase cites Bose, Morin & Stojmenovic \[2\]:
//! "the packet is routed by the 'right-hand rule' counter-clockwise along
//! a face of the planar graph that represents the same connectivity as
//! the original network, until it reaches a node that is closer to the
//! destination than that stuck node". This module implements that scheme
//! in full — including the **face changes** the simplified untried-sweep
//! perimeter of LGF/SLGF omits:
//!
//! * greedy mode forwards to the strictly-closer neighbor with the most
//!   progress;
//! * at a local minimum the packet records the stuck position `L_p` and
//!   walks the face of the Gabriel planarization intersected by the
//!   segment `L_p → d` using the right-hand rule;
//! * whenever the edge about to be walked crosses `L_p → d` strictly
//!   closer to `d` than the current best crossing `L_f`, the packet
//!   switches to the adjacent face (the FACE-2 rule of \[2\], as adopted by
//!   GPSR's perimeter mode);
//! * greedy forwarding resumes at the first node strictly closer to `d`
//!   than `L_p`;
//! * retraversing the first edge of the current face means the
//!   destination is unreachable and the walk reports failure instead of
//!   looping.
//!
//! On a connected planar subgraph this scheme has the guaranteed-delivery
//! property of \[2\] — the strongest baseline in the suite, used by the
//! extended comparison A8 (`repro-figures a8`).

use sp_core::{closer_neighbors, greedy_pick, FaceState, Mode, PacketState, RoutePhase, Routing};
use sp_geom::Segment;
use sp_net::{Network, NodeId, PlanarGraph};

/// Greedy-Face-Greedy router (GFG \[2\] / GPSR) over the Gabriel
/// planarization of the network.
///
/// ```
/// use sp_baselines::GfgRouter;
/// use sp_core::Routing;
/// use sp_net::{deploy::DeploymentConfig, Network, NodeId};
///
/// let cfg = DeploymentConfig::paper_default(500);
/// let net = Network::from_positions(cfg.deploy_uniform(4), cfg.radius, cfg.area);
/// let gfg = GfgRouter::new(&net);
/// let r = gfg.route(&net, NodeId(0), NodeId(250));
/// assert_eq!(r.path.first(), Some(&NodeId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct GfgRouter {
    planar: PlanarGraph,
}

impl GfgRouter {
    /// Builds the router over the Gabriel planarization of `net`.
    pub fn new(net: &Network) -> GfgRouter {
        GfgRouter {
            planar: PlanarGraph::build(net),
        }
    }

    /// The planar graph the face walks run on.
    pub fn planar(&self) -> &PlanarGraph {
        &self.planar
    }

    /// One face-mode hop from `u`: right-hand pivot, then the FACE-2
    /// face-change sweep. Returns `None` when the face tour closed
    /// without progress (unreachable destination) or `u` is isolated in
    /// the planar graph.
    ///
    /// Public so that hybrid schemes (e.g. [`crate::Slgf2FaceRouter`])
    /// can borrow the guaranteed face walk as their recovery phase; the
    /// packet must carry a [`FaceState`] (set `pkt.face` before the
    /// entering call).
    pub fn face_step(
        &self,
        net: &Network,
        pkt: &mut PacketState,
        entering: bool,
    ) -> Option<NodeId> {
        let u = pkt.current;
        let pu = self.planar.position(u);
        let pd = net.position(pkt.dst);
        let face = pkt.face.as_mut()?;

        // Right-hand entry or continuation.
        let mut next = match pkt.prev {
            Some(prev) if !entering && self.planar.has_edge(u, prev) => {
                self.planar.next_ccw(u, prev)?
            }
            _ => self.planar.first_from_direction(u, pd - pu)?,
        };

        // FACE-2 face-change sweep: while the edge about to be traversed
        // crosses anchor->d strictly closer to d than the best crossing
        // so far, rotate past it into the adjacent face. Bounded by the
        // planar degree of u.
        let goal = Segment::new(face.anchor, pd);
        let best = face.crossing.distance(pd);
        let mut remaining = self.planar.neighbors(u).len();
        while remaining > 0 {
            remaining -= 1;
            let edge = Segment::new(pu, self.planar.position(next));
            let Some(x) = edge.intersection_point(&goal) else {
                break;
            };
            // Crossings at u itself re-detect the entry point: ignore.
            if x.distance(pu) <= 1e-9 {
                break;
            }
            if x.distance(pd) + 1e-9 < face.crossing.distance(pd).min(best) {
                face.crossing = x;
                face.entry_edge = None; // new face, new tour
                let rotated = self.planar.next_ccw(u, next)?;
                if rotated == next {
                    break; // single planar neighbor: nothing to rotate to
                }
                next = rotated;
            } else {
                break;
            }
        }

        // Unreachable-destination detection: the first edge of this face
        // tour is about to be traversed a second time.
        match face.entry_edge {
            Some(e0) if e0 == (u, next) => None,
            Some(_) => Some(next),
            None => {
                face.entry_edge = Some((u, next));
                Some(next)
            }
        }
    }
}

impl Routing for GfgRouter {
    fn name(&self) -> &'static str {
        "GFG"
    }

    fn next_hop(&self, net: &Network, pkt: &mut PacketState) -> Option<NodeId> {
        let u = pkt.current;
        let d = pkt.dst;

        if net.has_edge(u, d) {
            pkt.resume_greedy();
            pkt.phase = RoutePhase::Greedy;
            return Some(d);
        }

        // Perimeter exit (GPSR rule): strictly closer than the anchor.
        if let Mode::Perimeter { entry_dist } = pkt.mode {
            let du = net.position(u).distance(net.position(d));
            if du < entry_dist {
                pkt.resume_greedy();
            }
        }

        if pkt.mode == Mode::Greedy {
            if let Some(v) = greedy_pick(net, d, closer_neighbors(net, u, d)) {
                pkt.phase = RoutePhase::Greedy;
                return Some(v);
            }
            // Local minimum: enter face routing anchored here.
            let pu = net.position(u);
            let du = pu.distance(net.position(d));
            pkt.enter_perimeter(du);
            pkt.face = Some(FaceState::new(pu));
            pkt.phase = RoutePhase::Perimeter;
            return self.face_step(net, pkt, true);
        }

        pkt.phase = RoutePhase::Perimeter;
        self.face_step(net, pkt, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::RouteOutcome;
    use sp_geom::{Point, Rect};
    use sp_net::DeploymentConfig;

    fn area() -> Rect {
        Rect::from_corners(Point::new(0.0, 0.0), Point::new(200.0, 200.0))
    }

    #[test]
    fn straight_line_is_pure_greedy() {
        let net = Network::from_positions(
            (0..10)
                .map(|i| Point::new(12.0 * i as f64, 0.3 * i as f64))
                .collect(),
            14.0,
            area(),
        );
        let r = GfgRouter::new(&net).route(&net, NodeId(0), NodeId(9));
        assert!(r.delivered());
        assert_eq!(r.perimeter_entries, 0);
        assert_eq!(r.hops(), 9);
    }

    /// A U-shaped trap: greedy walks to the bottom of the U and must
    /// face-route around one arm.
    fn u_trap() -> Network {
        let mut pos = vec![
            Point::new(60.0, 120.0),  // 0 = src
            Point::new(140.0, 120.0), // 1 = dst
        ];
        // The U: left arm down, bottom, right arm up — a wall the packet
        // is inside of.
        for i in 0..5 {
            pos.push(Point::new(70.0, 120.0 - 10.0 * i as f64)); // 2..6 left arm
        }
        for i in 1..7 {
            pos.push(Point::new(70.0 + 10.0 * i as f64, 80.0)); // 7..12 bottom
        }
        for i in 1..5 {
            pos.push(Point::new(130.0, 80.0 + 10.0 * i as f64)); // 13..16 right arm
        }
        Network::from_positions(pos, 14.0, area())
    }

    #[test]
    fn u_trap_is_escaped_by_face_routing() {
        let net = u_trap();
        let r = GfgRouter::new(&net).route(&net, NodeId(0), NodeId(1));
        assert!(r.delivered(), "outcome {:?} path {:?}", r.outcome, r.path);
        assert!(r.perimeter_entries >= 1, "phases {:?}", r.phases);
    }

    #[test]
    fn delivery_is_guaranteed_on_connected_pairs_ia() {
        // The headline property of [2]: on a connected planar subgraph
        // GFG always delivers. Exercise it over seeded deployments and
        // many pairs.
        for seed in 0..4 {
            let cfg = DeploymentConfig::paper_default(450);
            let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
            let gfg = GfgRouter::new(&net);
            let comp = net.largest_component();
            for k in 1..8 {
                let s = comp[(k * 97) % comp.len()];
                let d = comp[(k * 211) % comp.len()];
                if s == d {
                    continue;
                }
                let r = gfg.route(&net, s, d);
                assert!(
                    r.delivered(),
                    "seed {seed} pair {s}->{d}: {:?} path len {}",
                    r.outcome,
                    r.path.len()
                );
            }
        }
    }

    #[test]
    fn delivery_is_guaranteed_on_connected_pairs_fa() {
        use sp_net::FaModel;
        for seed in 0..4 {
            let cfg = DeploymentConfig::paper_default(500);
            let fa = FaModel::paper_default();
            let obstacles = fa.generate_obstacles(&cfg, seed);
            let net = Network::from_positions(
                cfg.deploy_with_obstacles(&obstacles, seed),
                cfg.radius,
                cfg.area,
            );
            let gfg = GfgRouter::new(&net);
            let comp = net.largest_component();
            for k in 1..8 {
                let s = comp[(k * 131) % comp.len()];
                let d = comp[(k * 173) % comp.len()];
                if s == d {
                    continue;
                }
                let r = gfg.route(&net, s, d);
                assert!(
                    r.delivered(),
                    "seed {seed} pair {s}->{d}: {:?} hops {}",
                    r.outcome,
                    r.hops()
                );
            }
        }
    }

    #[test]
    fn disconnected_destination_terminates_with_failure() {
        // Two clusters out of range: the face tour around the source's
        // cluster must close and report failure, not spin until TTL.
        let net = Network::from_positions(
            vec![
                Point::new(10.0, 10.0),
                Point::new(20.0, 10.0),
                Point::new(15.0, 18.0),
                Point::new(150.0, 150.0), // unreachable dst
            ],
            14.0,
            area(),
        );
        let r = GfgRouter::new(&net).route(&net, NodeId(0), NodeId(3));
        assert!(
            matches!(r.outcome, RouteOutcome::Stuck(_)),
            "{:?}",
            r.outcome
        );
        // The tour is short: no TTL-scale wandering.
        assert!(r.hops() <= 2 * net.len(), "hops {}", r.hops());
    }

    #[test]
    fn isolated_source_is_stuck_immediately() {
        let net = Network::from_positions(
            vec![Point::new(10.0, 10.0), Point::new(150.0, 150.0)],
            14.0,
            area(),
        );
        let r = GfgRouter::new(&net).route(&net, NodeId(0), NodeId(1));
        assert_eq!(r.outcome, RouteOutcome::Stuck(NodeId(0)));
        assert_eq!(r.hops(), 0);
    }
}
