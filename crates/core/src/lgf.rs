//! LGF routing — Algorithm 1 of the paper.
//!
//! The *limited geographic greedy routing*: successors are restricted to
//! the request zone `Z_k(u, d)` of LAR scheme 1; when none exists the
//! packet falls back to perimeter routing "by simply rotating the ray
//! `ud` counter-clockwise until the first untried node `v ∈ N(u)` is hit
//! by the ray". The perimeter phase ends when the packet is closer to the
//! destination than the stuck node that started it (the standard
//! greedy/perimeter alternation of \[2\]). The alternation itself is the
//! shared [`greedy_with_recovery`] hop; LGF supplies the zone-limited
//! greedy pick and the counter-clockwise sweep.

use crate::{
    greedy_pick, greedy_with_recovery, perimeter_sweep, zone_candidates, Hand, PacketState, Routing,
};
use sp_net::{Network, NodeId};

/// Algorithm 1: zone-limited greedy forwarding with right-hand perimeter
/// recovery.
///
/// ```
/// use sp_core::{LgfRouter, Routing};
/// use sp_net::{deploy::DeploymentConfig, Network, NodeId};
///
/// let cfg = DeploymentConfig::paper_default(500);
/// let net = Network::from_positions(cfg.deploy_uniform(7), cfg.radius, cfg.area);
/// let result = LgfRouter::new().route(&net, NodeId(0), NodeId(1));
/// assert_eq!(result.path.first(), Some(&NodeId(0)));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct LgfRouter {
    _private: (),
}

impl LgfRouter {
    /// Creates the router (stateless: all state lives in the packet).
    pub fn new() -> LgfRouter {
        LgfRouter::default()
    }
}

impl Routing for LgfRouter {
    fn name(&self) -> &'static str {
        "LGF"
    }

    fn next_hop(&self, net: &Network, pkt: &mut PacketState) -> Option<NodeId> {
        greedy_with_recovery(
            net,
            pkt,
            |u, d| greedy_pick(net, d, zone_candidates(net, u, d)),
            |pkt, _| perimeter_sweep(net, pkt, Hand::Ccw),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RouteOutcome, RoutePhase};
    use sp_geom::{Point, Rect};

    fn area() -> Rect {
        Rect::from_corners(Point::new(0.0, 0.0), Point::new(200.0, 200.0))
    }

    #[test]
    fn straight_corridor_routes_greedily() {
        let net = Network::from_positions(
            (0..8)
                .map(|i| Point::new(10.0 * i as f64, 0.5 * i as f64))
                .collect(),
            12.0,
            area(),
        );
        let r = LgfRouter::new().route(&net, NodeId(0), NodeId(7));
        assert!(r.delivered());
        assert_eq!(r.hops(), 7);
        assert_eq!(r.perimeter_entries, 0);
        assert!(r.phases.iter().all(|&p| p == RoutePhase::Greedy));
    }

    #[test]
    fn last_hop_uses_direct_delivery() {
        let net = Network::from_positions(
            vec![Point::new(0.0, 0.0), Point::new(9.0, 0.0)],
            12.0,
            area(),
        );
        let r = LgfRouter::new().route(&net, NodeId(0), NodeId(1));
        assert!(r.delivered());
        assert_eq!(r.path, vec![NodeId(0), NodeId(1)]);
    }

    /// A hole scenario: the zone toward the destination is empty at n1,
    /// forcing a perimeter detour over the top.
    ///
    /// ```text
    ///            n3(22,12)
    ///  n0(0,0) n1(10,0)    [hole]    n4(34,2) n2(46,2) = d
    /// ```
    /// n1 has no neighbor in Z(n1, d) (n3 is outside the zone: y=12 > 2),
    /// so LGF must rotate CCW and climb through n3.
    #[test]
    fn hole_forces_perimeter_detour() {
        let net = Network::from_positions(
            vec![
                Point::new(0.0, 0.0),   // 0
                Point::new(10.0, 0.0),  // 1 stuck toward d
                Point::new(46.0, 2.0),  // 2 = d (far)
                Point::new(22.0, 12.0), // 3 detour node (reaches 1 and 4)
                Point::new(34.0, 2.0),  // 4 approach node
            ],
            17.0,
            area(),
        );
        // Sanity: n1 cannot see n4 (24 > 17) and n3 is adjacent to both.
        assert!(!net.has_edge(NodeId(1), NodeId(4)));
        assert!(net.has_edge(NodeId(1), NodeId(3)));
        assert!(net.has_edge(NodeId(3), NodeId(4)));
        let r = LgfRouter::new().route(&net, NodeId(0), NodeId(2));
        assert!(r.delivered(), "outcome {:?}", r.outcome);
        assert!(
            r.path.contains(&NodeId(3)),
            "must detour via n3: {:?}",
            r.path
        );
        assert!(r.perimeter_entries >= 1);
        assert!(r.hops_in_phase(RoutePhase::Perimeter) >= 1);
    }

    #[test]
    fn disconnected_pair_gets_stuck_not_looping() {
        let net = Network::from_positions(
            vec![Point::new(0.0, 0.0), Point::new(100.0, 100.0)],
            10.0,
            area(),
        );
        let r = LgfRouter::new().route(&net, NodeId(0), NodeId(1));
        assert_eq!(r.outcome, RouteOutcome::Stuck(NodeId(0)));
    }

    #[test]
    fn zone_forwarding_strictly_approaches_destination() {
        // Greedy hops within the request zone shrink |vd| monotonically.
        let cfg = sp_net::DeploymentConfig::paper_default(500);
        let net = Network::from_positions(cfg.deploy_uniform(13), cfg.radius, cfg.area);
        let r = LgfRouter::new().route(&net, NodeId(3), NodeId(444));
        let pd = net.position(NodeId(444));
        let mut prev = f64::INFINITY;
        for (i, &u) in r.path.iter().enumerate() {
            if i > 0 && r.phases[i - 1] == RoutePhase::Greedy {
                let du = net.position(u).distance(pd);
                assert!(du < prev, "greedy hop failed to approach d");
                prev = du;
            } else {
                prev = net.position(u).distance(pd);
            }
        }
    }
}
