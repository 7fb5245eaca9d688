//! [`SafetyInfo`]: the complete safety information model of §3.
//!
//! Bundles the stabilized safety tuples ([`SafetyMap`]) with the
//! unsafe-area shape estimates ([`ShapeMap`]) behind one query facade —
//! exactly the per-node state that SLGF reads and SLGF2 extends.

use crate::{greedy_region, SafetyMap, SafetyTuple, ShapeEstimate, ShapeMap};
use sp_geom::Quadrant;
use sp_net::{Network, NodeId};

/// Safety tuples + shape estimates for a network snapshot.
///
/// ```
/// use sp_core::SafetyInfo;
/// use sp_net::{deploy::DeploymentConfig, Network};
///
/// let cfg = DeploymentConfig::paper_default(400);
/// let net = Network::from_positions(cfg.deploy_uniform(1), cfg.radius, cfg.area);
/// let info = SafetyInfo::build(&net);
/// assert!(info.rounds() >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct SafetyInfo {
    safety: SafetyMap,
    shapes: ShapeMap,
}

impl SafetyInfo {
    /// Labels the network (Definition 1) and derives every shape
    /// estimate (Algo. 2), centrally.
    pub fn build(net: &Network) -> SafetyInfo {
        let safety = SafetyMap::label(net);
        let shapes = ShapeMap::build(net, &safety);
        SafetyInfo { safety, shapes }
    }

    /// Same, but with an explicit pinned mask (no automatic hull
    /// pinning) — used by unit scenarios and ablations.
    pub fn build_with_pinned(net: &Network, pinned: Vec<bool>) -> SafetyInfo {
        let safety = SafetyMap::label_with_pinned(net, pinned);
        let shapes = ShapeMap::build(net, &safety);
        SafetyInfo { safety, shapes }
    }

    /// Labels the network and derives **exact** unsafe-area shapes (the
    /// tight bounding box of every greedy region) instead of the
    /// Algorithm-2 two-chain estimates — the §6 future-work oracle used
    /// by ablation A14.
    pub fn build_exact(net: &Network) -> SafetyInfo {
        let safety = SafetyMap::label(net);
        let shapes = ShapeMap::build_exact(net, &safety);
        SafetyInfo { safety, shapes }
    }

    /// Wraps precomputed parts (used by the distributed construction).
    pub fn from_parts(safety: SafetyMap, shapes: ShapeMap) -> SafetyInfo {
        SafetyInfo { safety, shapes }
    }

    /// `S_i(u)`.
    #[inline]
    pub fn is_safe(&self, u: NodeId, q: Quadrant) -> bool {
        self.safety.is_safe(u, q)
    }

    /// The full tuple of `u`.
    #[inline]
    pub fn tuple(&self, u: NodeId) -> SafetyTuple {
        self.safety.tuple(u)
    }

    /// `E_i(u)` with chain metadata, when `u` is type-`q` unsafe.
    #[inline]
    pub fn estimate(&self, u: NodeId, q: Quadrant) -> Option<&ShapeEstimate> {
        self.shapes.estimate(u, q)
    }

    /// The underlying safety map.
    pub fn safety(&self) -> &SafetyMap {
        &self.safety
    }

    /// The underlying shape map.
    pub fn shapes(&self) -> &ShapeMap {
        &self.shapes
    }

    /// Rounds the labeling took to stabilize: the paper's round count
    /// after a full build, the repair's rounds for an epoch that
    /// [`crate::ServiceSnapshot::derive`] derived from the previous one
    /// (see [`SafetyMap::rounds`]).
    pub fn rounds(&self) -> usize {
        self.safety.rounds()
    }

    /// Exact greedy region `G_i(u)` (test/diagnostic helper).
    pub fn greedy_region(&self, net: &Network, u: NodeId, q: Quadrant) -> Vec<NodeId> {
        greedy_region(net, &self.safety, u, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_net::DeploymentConfig;
    use sp_net::Network;

    #[test]
    fn build_is_consistent_between_parts() {
        let cfg = DeploymentConfig::paper_default(350);
        let net = Network::from_positions(cfg.deploy_uniform(2), cfg.radius, cfg.area);
        let info = SafetyInfo::build(&net);
        assert!(info.safety().check_fixed_point(&net).is_none());
        for u in net.node_ids() {
            for q in Quadrant::ALL {
                assert_eq!(info.is_safe(u, q), info.tuple(u).is_safe(q));
                assert_eq!(info.estimate(u, q).is_some(), !info.is_safe(u, q));
            }
        }
    }

    #[test]
    fn from_parts_round_trips() {
        let cfg = DeploymentConfig::paper_default(120);
        let net = Network::from_positions(cfg.deploy_uniform(6), cfg.radius, cfg.area);
        let safety = SafetyMap::label(&net);
        let shapes = ShapeMap::build(&net, &safety);
        let rounds = safety.rounds();
        let info = SafetyInfo::from_parts(safety, shapes);
        assert_eq!(info.rounds(), rounds);
    }
}
