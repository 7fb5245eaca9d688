//! GF routing — geographic greedy forwarding with perimeter recovery.
//!
//! The baseline of the paper's evaluation: pure greedy advance (any
//! neighbor strictly closer to the destination, most progress first)
//! falling back, at a local minimum, to hole-boundary traversal using
//! the BOUNDHOLE "boundary information \[5\]" that §5 constructs before
//! routing. When the stuck node lies on no detected boundary, the router
//! falls back to right-hand face routing on the Gabriel planarization
//! (Bose et al. \[2\], as in GPSR). Recovery ends when the packet is
//! closer to the destination than the stuck node was. The alternation
//! is sp-core's [`greedy_with_recovery`], the same hop LGF and SLGF run;
//! GF supplies the unrestricted greedy pick and its recovery step.
//!
//! The face walk implements the greedy/face alternation without GPSR's
//! mid-face edge-crossing restarts; the rare topologies where that
//! matters are caught by the walker's TTL and reported as failures
//! rather than mis-measured.

use crate::boundhole::HoleAtlas;
use sp_core::{closer_neighbors, greedy_pick, greedy_with_recovery, PacketState, Routing};
use sp_net::{Network, NodeId, PlanarGraph, Planarization};

/// How GF recovers from a local minimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Follow the precomputed BOUNDHOLE boundary through the stuck node,
    /// falling back to the planar face walk off-boundary (the paper's
    /// §5 setup).
    HoleBoundary,
    /// Always use right-hand face routing on the Gabriel graph.
    PlanarFace,
}

/// The GF baseline router. Holds the per-network precomputed recovery
/// structures (hole atlas + planar graph), mirroring the paper's
/// "boundary information is constructed for GF routings" setup step.
///
/// ```
/// use sp_baselines::GfRouter;
/// use sp_core::Routing;
/// use sp_net::{deploy::DeploymentConfig, Network, NodeId};
///
/// let cfg = DeploymentConfig::paper_default(500);
/// let net = Network::from_positions(cfg.deploy_uniform(4), cfg.radius, cfg.area);
/// let gf = GfRouter::new(&net);
/// let r = gf.route(&net, NodeId(0), NodeId(250));
/// assert_eq!(r.path.first(), Some(&NodeId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct GfRouter {
    planar: PlanarGraph,
    atlas: HoleAtlas,
    recovery: RecoveryMode,
}

impl GfRouter {
    /// Builds the router with the paper's recovery setup
    /// ([`RecoveryMode::HoleBoundary`]).
    pub fn new(net: &Network) -> GfRouter {
        GfRouter::with_recovery(net, RecoveryMode::HoleBoundary)
    }

    /// Builds the router with an explicit recovery mode.
    pub fn with_recovery(net: &Network, recovery: RecoveryMode) -> GfRouter {
        GfRouter {
            planar: PlanarGraph::build(net, Planarization::Gabriel),
            atlas: HoleAtlas::build(net),
            recovery,
        }
    }

    /// The hole atlas constructed for this network.
    pub fn atlas(&self) -> &HoleAtlas {
        &self.atlas
    }

    /// The recovery mode in use.
    pub fn recovery(&self) -> RecoveryMode {
        self.recovery
    }

    /// One recovery hop.
    fn recovery_step(&self, net: &Network, pkt: &PacketState, entering: bool) -> Option<NodeId> {
        let u = pkt.current;
        if self.recovery == RecoveryMode::HoleBoundary {
            if let Some(b) = self.atlas.boundary_of(u) {
                // Continue the loop along the edge we arrived on; an arm
                // of the hole visits nodes twice, so the (prev, current)
                // pair — not current alone — selects the next hop.
                let prev_on_loop = pkt.prev.filter(|&p| b.position_of(p).is_some());
                if let Some(next) = b.next_after(prev_on_loop, u) {
                    if net.has_edge(u, next) {
                        return Some(next);
                    }
                }
            }
        }
        // Planar right-hand face walk (entry: rotate CCW from the
        // destination direction; continuation: pivot about the previous
        // node).
        let dir = net.position(pkt.dst) - net.position(u);
        match pkt.prev {
            Some(prev) if !entering && self.planar.has_edge(u, prev) => {
                self.planar.next_ccw(u, prev)
            }
            _ => self.planar.first_from_direction(u, dir, true),
        }
    }
}

impl Routing for GfRouter {
    fn name(&self) -> &'static str {
        "GF"
    }

    fn next_hop(&self, net: &Network, pkt: &mut PacketState) -> Option<NodeId> {
        greedy_with_recovery(
            net,
            pkt,
            |u, d| greedy_pick(net, d, closer_neighbors(net, u, d)),
            |pkt, entering| self.recovery_step(net, pkt, entering),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::RouteOutcome;
    use sp_geom::{Point, Rect};

    fn area() -> Rect {
        Rect::from_corners(Point::new(0.0, 0.0), Point::new(200.0, 200.0))
    }

    #[test]
    fn greedy_line_delivers_without_recovery() {
        let net = Network::from_positions(
            (0..10).map(|i| Point::new(12.0 * i as f64, 0.0)).collect(),
            15.0,
            area(),
        );
        let gf = GfRouter::new(&net);
        let r = gf.route(&net, NodeId(0), NodeId(9));
        assert!(r.delivered());
        assert_eq!(r.hops(), 9);
        assert_eq!(r.perimeter_entries, 0);
    }

    #[test]
    fn greedy_takes_most_progress() {
        // Two forward options: GF must take the one closest to d.
        let net = Network::from_positions(
            vec![
                Point::new(0.0, 0.0),  // 0 src
                Point::new(10.0, 4.0), // 1 less progress
                Point::new(13.0, 0.0), // 2 more progress
                Point::new(26.0, 0.0), // 3 dst
            ],
            14.0,
            area(),
        );
        let gf = GfRouter::new(&net);
        let r = gf.route(&net, NodeId(0), NodeId(3));
        assert!(r.delivered());
        assert_eq!(r.path, vec![NodeId(0), NodeId(2), NodeId(3)]);
    }

    /// A C-shaped wall of nodes between source and destination: greedy
    /// advances to the wall center, gets stuck (nothing beyond the wall
    /// is in range), and must recover around the rim.
    fn c_trap() -> Network {
        let mut pos = vec![
            Point::new(80.0, 100.0),  // 0 = src at the C mouth
            Point::new(150.0, 100.0), // 1 = dst beyond the wall
        ];
        // The wall: a vertical line at x=90 from y=60..=140, with arms
        // reaching back toward -x at top and bottom (the C shape).
        for i in 0..9 {
            pos.push(Point::new(90.0, 60.0 + 10.0 * i as f64));
        }
        for i in 1..4 {
            pos.push(Point::new(90.0 - 10.0 * i as f64, 60.0));
            pos.push(Point::new(90.0 - 10.0 * i as f64, 140.0));
        }
        // Fields behind the wall along both rims.
        for i in 0..5 {
            pos.push(Point::new(100.0 + 10.0 * i as f64, 140.0));
            pos.push(Point::new(100.0 + 10.0 * i as f64, 60.0));
        }
        // Descent chains from both rims down/up to the destination.
        for (x, y) in [
            (145.0, 130.0),
            (148.0, 118.0),
            (150.0, 105.0),
            (145.0, 70.0),
            (148.0, 82.0),
            (150.0, 95.0),
        ] {
            pos.push(Point::new(x, y));
        }
        Network::from_positions(pos, 14.0, area())
    }

    #[test]
    fn c_trap_requires_and_survives_recovery() {
        let net = c_trap();
        let gf = GfRouter::new(&net);
        let r = gf.route(&net, NodeId(0), NodeId(1));
        assert!(r.delivered(), "outcome {:?} path {:?}", r.outcome, r.path);
        assert!(
            r.perimeter_entries >= 1,
            "the C wall must trigger recovery: {:?}",
            r.phases
        );
        // The detour leaves the greedy path noticeably longer than the
        // straight line.
        assert!(r.length(&net) > net.position(NodeId(0)).distance(net.position(NodeId(1))));
    }

    #[test]
    fn planar_face_mode_also_delivers_on_the_trap() {
        let net = c_trap();
        let gf = GfRouter::with_recovery(&net, RecoveryMode::PlanarFace);
        assert_eq!(gf.recovery(), RecoveryMode::PlanarFace);
        let r = gf.route(&net, NodeId(0), NodeId(1));
        assert!(r.delivered(), "outcome {:?} path {:?}", r.outcome, r.path);
    }

    #[test]
    fn disconnected_destination_fails_finitely() {
        let net = Network::from_positions(
            vec![Point::new(0.0, 0.0), Point::new(190.0, 190.0)],
            10.0,
            area(),
        );
        let gf = GfRouter::new(&net);
        let r = gf.route(&net, NodeId(0), NodeId(1));
        assert!(matches!(
            r.outcome,
            RouteOutcome::Stuck(_) | RouteOutcome::TtlExhausted
        ));
    }

    #[test]
    fn random_dense_networks_mostly_deliver() {
        let cfg = sp_net::DeploymentConfig::paper_default(600);
        let mut delivered = 0;
        let mut total = 0;
        for seed in 0..5 {
            let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
            let gf = GfRouter::new(&net);
            let comp = net.largest_component();
            for k in 0..4 {
                let s = comp[k * comp.len() / 7];
                let d = comp[comp.len() - 1 - k * comp.len() / 9];
                if s == d {
                    continue;
                }
                total += 1;
                if gf.route(&net, s, d).delivered() {
                    delivered += 1;
                }
            }
        }
        assert!(
            delivered * 10 >= total * 9,
            "GF delivery too low: {delivered}/{total}"
        );
    }
}
