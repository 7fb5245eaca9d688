//! SLGF routing — the safety-information LGF of the authors' earlier
//! work \[7\], reconstructed from this paper's §2–§3.
//!
//! SLGF is LGF with the safe-forwarding filter: the successor must be
//! safe with respect to *its own* request zone toward the destination
//! (`S_k̄(v) = 1`). Theorem 1 then guarantees the greedy advance is never
//! blocked while safe nodes are used. When no safe successor exists
//! (unsafe source neighborhood or unsafe destination), SLGF falls back to
//! the same right-hand perimeter routing as LGF — the gap SLGF2 closes
//! with its backup-path and shape-estimate machinery. Both run the
//! shared [`greedy_with_recovery`] hop and differ only in the pick.

use crate::{
    greedy_pick, greedy_with_recovery, perimeter_sweep, zone_candidates, Hand, PacketState,
    Routing, SafetyInfo,
};
use sp_geom::Quadrant;
use sp_net::{Network, NodeId};

/// The safety-information LGF routing of \[7\].
///
/// ```
/// use sp_core::{SafetyInfo, SlgfRouter, Routing};
/// use sp_net::{deploy::DeploymentConfig, Network, NodeId};
///
/// let cfg = DeploymentConfig::paper_default(450);
/// let net = Network::from_positions(cfg.deploy_uniform(3), cfg.radius, cfg.area);
/// let info = SafetyInfo::build(&net);
/// let r = SlgfRouter::new(&info).route(&net, NodeId(10), NodeId(20));
/// assert_eq!(r.path.first(), Some(&NodeId(10)));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SlgfRouter<'a> {
    info: &'a SafetyInfo,
}

impl<'a> SlgfRouter<'a> {
    /// Creates the router over prebuilt safety information.
    pub fn new(info: &'a SafetyInfo) -> SlgfRouter<'a> {
        SlgfRouter { info }
    }

    /// The safety information in use.
    pub fn info(&self) -> &SafetyInfo {
        self.info
    }

    /// The safe-forwarding pick: the zone candidate closest to `d` among
    /// those that are safe toward `d` from their own position.
    fn safe_pick(&self, net: &Network, u: NodeId, d: NodeId) -> Option<NodeId> {
        let pd = net.position(d);
        let safe = zone_candidates(net, u, d).filter(|&v| {
            match Quadrant::of(net.position(v), pd) {
                // Co-located with d: the next hop delivers.
                None => true,
                Some(k_bar) => self.info.is_safe(v, k_bar),
            }
        });
        greedy_pick(net, d, safe)
    }
}

impl Routing for SlgfRouter<'_> {
    fn name(&self) -> &'static str {
        "SLGF"
    }

    fn next_hop(&self, net: &Network, pkt: &mut PacketState) -> Option<NodeId> {
        greedy_with_recovery(
            net,
            pkt,
            |u, d| self.safe_pick(net, u, d),
            |pkt, _| perimeter_sweep(net, pkt, Hand::Ccw),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutePhase;
    use sp_geom::{Point, Rect};
    use sp_net::DeploymentConfig;

    fn area() -> Rect {
        Rect::from_corners(Point::new(0.0, 0.0), Point::new(200.0, 200.0))
    }

    #[test]
    fn safe_forwarding_never_meets_a_local_minimum() {
        // Theorem 1 consequence: while only safe nodes are used, the
        // greedy advance is never blocked. Count perimeter entries on
        // dense uniform networks with pinned hulls: whenever the route
        // stays in phase Greedy it must deliver.
        let cfg = DeploymentConfig::paper_default(600);
        for seed in 0..3 {
            let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
            let info = SafetyInfo::build(&net);
            let router = SlgfRouter::new(&info);
            let comp = net.largest_component();
            let (s, d) = (comp[1], comp[comp.len() - 2]);
            let r = router.route(&net, s, d);
            if r.phases.iter().all(|&p| p == RoutePhase::Greedy) {
                assert!(r.delivered(), "pure safe forwarding must deliver");
            }
        }
    }

    /// A type-1 unsafe trap on the diagonal with a safe corridor flanking
    /// it *inside* the request zone: SLGF routes around greedily with no
    /// perimeter entry, while LGF greedily dives into the trap and needs
    /// perimeter recovery.
    ///
    /// ```text
    ///                             d(90,90)
    ///                        g7(87,80)
    ///                      g6(84,72)
    ///          t3(56,56)  g5(80,58)      t1..t3: dead-end trap
    ///        t2(44,44)   g4(74,44)       g1..g7: safe corridor
    ///      t1(32,32)  g3(64,32)
    ///    s(20,20) g1(36,22) g2(50,26)
    /// ```
    #[test]
    fn unsafe_wedge_is_avoided_by_safe_forwarding() {
        let pos = vec![
            Point::new(20.0, 20.0), // 0 = s
            Point::new(32.0, 32.0), // 1 = t1 (trap)
            Point::new(44.0, 44.0), // 2 = t2 (trap)
            Point::new(56.0, 56.0), // 3 = t3 (trap tip: empty NE)
            Point::new(36.0, 22.0), // 4 = g1
            Point::new(50.0, 26.0), // 5 = g2
            Point::new(64.0, 32.0), // 6 = g3
            Point::new(74.0, 44.0), // 7 = g4
            Point::new(80.0, 58.0), // 8 = g5
            Point::new(84.0, 72.0), // 9 = g6
            Point::new(87.0, 80.0), // 10 = g7
            Point::new(90.0, 90.0), // 11 = d
        ];
        let net = Network::from_positions(pos, 17.0, area());
        // Pin only the destination as an edge node: the corridor derives
        // its type-1 safety from the chain g1 -> ... -> g7 -> d.
        let mut pinned = vec![false; net.len()];
        pinned[11] = true;
        let info = SafetyInfo::build_with_pinned(&net, pinned);

        // The trap is type-1 unsafe, the corridor type-1 safe.
        for t in [1, 2, 3] {
            assert!(
                !info.is_safe(NodeId(t), sp_geom::Quadrant::I),
                "t{t} must be unsafe"
            );
        }
        for g in [4, 5, 6, 7, 8, 9, 10] {
            assert!(
                info.is_safe(NodeId(g), sp_geom::Quadrant::I),
                "g{g} must be safe"
            );
        }

        // SLGF: safe forwarding all the way around, no perimeter.
        let router = SlgfRouter::new(&info);
        let r = router.route(&net, NodeId(0), NodeId(11));
        assert!(r.delivered(), "outcome {:?} path {:?}", r.outcome, r.path);
        assert_eq!(r.perimeter_entries, 0, "phases {:?}", r.phases);
        for t in [1, 2, 3] {
            assert!(
                !r.path.contains(&NodeId(t)),
                "SLGF must avoid the trap: {:?}",
                r.path
            );
        }

        // LGF on the same network greedily dives into the trap.
        let lgf = crate::LgfRouter::new().route(&net, NodeId(0), NodeId(11));
        assert!(
            lgf.path.contains(&NodeId(3)),
            "LGF dives in: {:?}",
            lgf.path
        );
        assert!(lgf.perimeter_entries >= 1);
    }

    #[test]
    fn falls_back_to_perimeter_when_no_safe_successor() {
        // An isolated chain where everything is unsafe: SLGF must still
        // find the destination via perimeter steps.
        let net = Network::from_positions(
            vec![
                Point::new(50.0, 50.0),
                Point::new(62.0, 50.0),
                Point::new(74.0, 50.0),
            ],
            14.0,
            area(),
        );
        let info = SafetyInfo::build_with_pinned(&net, vec![false; 3]);
        // The middle node is unsafe in all four types (chain), so safe
        // forwarding fails immediately.
        let router = SlgfRouter::new(&info);
        let r = router.route(&net, NodeId(0), NodeId(2));
        assert!(r.delivered());
        assert!(r.perimeter_entries >= 1);
    }

    #[test]
    fn name_is_slgf() {
        let cfg = DeploymentConfig::paper_default(50);
        let net = Network::from_positions(cfg.deploy_uniform(0), cfg.radius, cfg.area);
        let info = SafetyInfo::build(&net);
        assert_eq!(Routing::name(&SlgfRouter::new(&info)), "SLGF");
        assert_eq!(SlgfRouter::new(&info).info().rounds(), info.rounds());
    }
}
