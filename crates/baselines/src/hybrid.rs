//! SLGF2-F — SLGF2 with a guaranteed-delivery face-routing recovery.
//!
//! The paper's §6 names the perimeter phase as the place to improve:
//! "we will extend our approach and search for a new balance point …
//! so that fewer perimeter routing phases are needed". This router is
//! that extension, built from parts the repository already has:
//!
//! * phases 1–4 of Algorithm 3 (direct delivery, safe forwarding with
//!   the superseding rule, backup-path escort) run unchanged via
//!   [`Slgf2Router`];
//! * phase 5 — the paper's *untried-neighbor sweep*, which can dead-end
//!   and lose the packet — is replaced by the FACE-2 planar face walk of
//!   [`GfgRouter`], which cannot;
//! * unlike SLGF2's sticky-until-delivery perimeter, the face recovery
//!   exits back to safe forwarding as soon as the packet is strictly
//!   closer to the destination than the node where recovery began (the
//!   greedy/face alternation of \[2\]), so the safety information keeps
//!   steering the path after every recovery.
//!
//! The result keeps SLGF2's path quality where SLGF2 already works and
//! adds the delivery guarantee of GFG on connected planarizable
//! networks — measured as ablation A12.

use crate::GfgRouter;
use sp_core::{
    closer_than_entry, FaceState, Mode, PacketState, RoutePhase, Routing, SafetyInfo, Slgf2Router,
};
use sp_net::{Network, NodeId};

/// SLGF2 with FACE-2 recovery (the "SLGF2-F" curve of ablation A12).
///
/// ```
/// use sp_baselines::Slgf2FaceRouter;
/// use sp_core::{Routing, SafetyInfo};
/// use sp_net::{deploy::DeploymentConfig, Network, NodeId};
///
/// let cfg = DeploymentConfig::paper_default(500);
/// let net = Network::from_positions(cfg.deploy_uniform(4), cfg.radius, cfg.area);
/// let info = SafetyInfo::build(&net);
/// let router = Slgf2FaceRouter::new(&net, &info);
/// let r = router.route(&net, NodeId(0), NodeId(250));
/// assert_eq!(r.path.first(), Some(&NodeId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct Slgf2FaceRouter<'a> {
    slgf2: Slgf2Router<'a>,
    face: GfgRouter,
}

impl<'a> Slgf2FaceRouter<'a> {
    /// Builds the hybrid: Algorithm-3 phases over `info`, face recovery
    /// over the Gabriel planarization of `net`.
    pub fn new(net: &Network, info: &'a SafetyInfo) -> Slgf2FaceRouter<'a> {
        Slgf2FaceRouter::with_face_router(info, GfgRouter::new(net))
    }

    /// Builds the hybrid from a prebuilt face router (avoids
    /// re-planarizing when one already exists for the network).
    pub fn with_face_router(info: &'a SafetyInfo, face: GfgRouter) -> Slgf2FaceRouter<'a> {
        Slgf2FaceRouter {
            slgf2: Slgf2Router::new(info),
            face,
        }
    }

    /// The underlying safety information.
    pub fn info(&self) -> &SafetyInfo {
        self.slgf2.info()
    }
}

impl Routing for Slgf2FaceRouter<'_> {
    fn name(&self) -> &'static str {
        "SLGF2-F"
    }

    fn next_hop(&self, net: &Network, pkt: &mut PacketState) -> Option<NodeId> {
        let u = pkt.current;
        let d = pkt.dst;

        // Face recovery in progress.
        if matches!(pkt.mode, Mode::Perimeter { .. }) {
            if net.has_edge(u, d) {
                pkt.resume_greedy();
                pkt.phase = RoutePhase::Greedy;
                return Some(d);
            }
            // Exit rule of [2]: strictly closer than the recovery anchor
            // hands control back to the information-based phases.
            if closer_than_entry(net, pkt) {
                pkt.resume_greedy();
            } else {
                pkt.phase = RoutePhase::Perimeter;
                return self.face.face_step(net, pkt, false);
            }
        }

        // Phases 1-4 of Algorithm 3.
        let decision = self.slgf2.next_hop(net, pkt);
        if matches!(pkt.mode, Mode::Perimeter { .. }) {
            // SLGF2 just fell through to its phase 5; supersede the
            // untried sweep with the guaranteed face walk, anchored at
            // the node where recovery begins.
            pkt.face = Some(FaceState::new(net.position(u)));
            pkt.phase = RoutePhase::Perimeter;
            return self.face.face_step(net, pkt, true);
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sp_net::{DeploymentConfig, FaModel};

    fn random_pairs(net: &Network, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
        let comp = net.largest_component();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        while out.len() < count && comp.len() >= 2 {
            let s = comp[rng.random_range(0..comp.len())];
            let d = comp[rng.random_range(0..comp.len())];
            if s != d {
                out.push((s, d));
            }
        }
        out
    }

    #[test]
    fn hybrid_delivers_every_connected_pair() {
        let cfg = DeploymentConfig::paper_default(500);
        let fa = FaModel::paper_default();
        for seed in 0..4u64 {
            let obstacles = fa.generate_obstacles(&cfg, seed);
            let net = Network::from_positions(
                cfg.deploy_with_obstacles(&obstacles, seed),
                cfg.radius,
                cfg.area,
            );
            let info = SafetyInfo::build(&net);
            let router = Slgf2FaceRouter::new(&net, &info);
            for (s, d) in random_pairs(&net, 10, seed ^ 0x51f2) {
                let r = router.route(&net, s, d);
                assert!(
                    r.delivered(),
                    "seed {seed} {s}->{d}: {:?} after {} hops",
                    r.outcome,
                    r.hops()
                );
            }
        }
    }

    #[test]
    fn hybrid_matches_slgf2_when_no_perimeter_is_needed() {
        let cfg = DeploymentConfig::paper_default(700);
        let net = Network::from_positions(cfg.deploy_uniform(8), cfg.radius, cfg.area);
        let info = SafetyInfo::build(&net);
        let hybrid = Slgf2FaceRouter::new(&net, &info);
        let slgf2 = sp_core::Slgf2Router::new(&info);
        let mut compared = 0;
        for (s, d) in random_pairs(&net, 15, 99) {
            let rh = hybrid.route(&net, s, d);
            let r2 = slgf2.route(&net, s, d);
            if r2.perimeter_entries == 0 && r2.delivered() {
                assert_eq!(rh.path, r2.path, "{s}->{d}");
                compared += 1;
            }
        }
        assert!(
            compared >= 10,
            "dense IA pairs rarely need recovery: {compared}"
        );
    }

    #[test]
    fn hybrid_saves_routes_plain_slgf2_loses() {
        let cfg = DeploymentConfig::paper_default(420);
        let fa = FaModel {
            obstacle_count: 5,
            min_size_radii: 2.0,
            max_size_radii: 4.0,
        };
        let mut slgf2_failures = 0;
        let mut hybrid_saves = 0;
        for seed in 0..6u64 {
            let obstacles = fa.generate_obstacles(&cfg, seed);
            let net = Network::from_positions(
                cfg.deploy_with_obstacles(&obstacles, seed),
                cfg.radius,
                cfg.area,
            );
            let info = SafetyInfo::build(&net);
            let slgf2 = sp_core::Slgf2Router::new(&info);
            let hybrid = Slgf2FaceRouter::new(&net, &info);
            for (s, d) in random_pairs(&net, 12, seed ^ 0x5af3) {
                if !slgf2.route(&net, s, d).delivered() {
                    slgf2_failures += 1;
                    if hybrid.route(&net, s, d).delivered() {
                        hybrid_saves += 1;
                    }
                }
            }
        }
        assert_eq!(
            slgf2_failures, hybrid_saves,
            "face recovery must save every route the sweep loses"
        );
    }

    #[test]
    fn disconnected_pair_fails_finitely() {
        let area = sp_geom::Rect::from_corners(
            sp_geom::Point::new(0.0, 0.0),
            sp_geom::Point::new(200.0, 200.0),
        );
        let net = Network::from_positions(
            vec![
                sp_geom::Point::new(10.0, 10.0),
                sp_geom::Point::new(20.0, 10.0),
                sp_geom::Point::new(180.0, 180.0),
            ],
            15.0,
            area,
        );
        let info = SafetyInfo::build_with_pinned(&net, vec![false; 3]);
        let router = Slgf2FaceRouter::new(&net, &info);
        let r = router.route(&net, NodeId(0), NodeId(2));
        assert!(!r.delivered());
        assert!(r.hops() <= 6, "tour must close quickly: {}", r.hops());
    }
}
