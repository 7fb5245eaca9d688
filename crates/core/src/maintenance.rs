//! Incremental maintenance of safety information under node failures.
//!
//! The paper's §1 lists the dynamic factors that create local minima at
//! runtime — "node failures, signal fading, communication jamming, power
//! exhaustion, interference, and node mobility" — and §6 names more
//! adaptive information as future work. This module provides the
//! centralized counterpart of the distributed repair that
//! [`crate::distributed`] performs via `on_neighbor_failed`: when a node
//! dies, the Definition-1 labeling is **repaired in place** instead of
//! recomputed from scratch.
//!
//! Both directions are repairs. A kill or a revival changes only the
//! neighborhoods of the node itself and its neighbors, so the one
//! labeling engine of [`crate::labeling`] runs from the current labels,
//! seeded with just those nodes, and touches only the neighborhood the
//! change actually influenced. Definition 1 has a single fixed point per
//! pinned mask, which the engine reaches from any start (the labeling
//! module docs give the acyclicity argument), so the repair lands on
//! exactly the labels a full rebuild produces — the equivalence the
//! property tests check.

use crate::labeling::relabel;
use crate::{SafetyInfo, SafetyMap, SafetyTuple, ShapeMap};
use sp_net::{edge_nodes::edge_node_mask, Network, NodeId};

/// What one [`InfoMaintainer::kill`] repair did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Safety statuses flipped (excluding the victim's); after a kill,
    /// every flip is safe → unsafe.
    pub flipped_statuses: usize,
    /// Distinct nodes whose tuple changed (excluding the victim).
    pub relabeled_nodes: usize,
    /// Node evaluations the labeling engine ran, summed over its rounds
    /// (a proxy for repair cost).
    pub work_items: usize,
}

/// Safety information that tracks node failures incrementally.
///
/// Holds the current *ghost network* (dead nodes keep their ids but lose
/// every edge), the pinned mask, and the maintained safety tuples. Shape
/// estimates are derived on demand by [`InfoMaintainer::info`].
///
/// ```
/// use sp_core::{InfoMaintainer, Slgf2Router, Routing};
/// use sp_net::{deploy::DeploymentConfig, Network, NodeId};
///
/// let cfg = DeploymentConfig::paper_default(400);
/// let net = Network::from_positions(cfg.deploy_uniform(2), cfg.radius, cfg.area);
/// let mut maint = InfoMaintainer::new(net);
/// let report = maint.kill(NodeId(100));
/// let info = maint.info();
/// let r = Slgf2Router::new(&info).route(maint.network(), NodeId(0), NodeId(399));
/// assert_eq!(r.path.first(), Some(&NodeId(0)));
/// # let _ = report;
/// ```
#[derive(Debug, Clone)]
pub struct InfoMaintainer {
    net: Network,
    original: Network,
    pinned: Vec<bool>,
    original_pinned: Vec<bool>,
    tuples: Vec<SafetyTuple>,
    dead: Vec<bool>,
    repairs: usize,
}

impl InfoMaintainer {
    /// Builds initial information for `net` with hull pinning (the §3
    /// interest-area convention).
    pub fn new(net: Network) -> InfoMaintainer {
        let pinned = edge_node_mask(&net, net.radius());
        InfoMaintainer::with_pinned(net, pinned)
    }

    /// Builds initial information with an explicit pinned mask.
    ///
    /// # Panics
    ///
    /// Panics if `pinned.len() != net.len()`.
    pub fn with_pinned(net: Network, pinned: Vec<bool>) -> InfoMaintainer {
        let map = SafetyMap::label_with_pinned(&net, pinned.clone());
        let tuples = map.tuples().to_vec();
        InfoMaintainer {
            dead: vec![false; net.len()],
            original: net.clone(),
            net,
            original_pinned: pinned.clone(),
            pinned,
            tuples,
            repairs: 0,
        }
    }

    /// The current ghost network (dead nodes isolated, ids preserved).
    /// Route over this, not the original deployment.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Whether `u` has been killed.
    pub fn is_dead(&self, u: NodeId) -> bool {
        self.dead[u.index()]
    }

    /// Number of kills applied so far.
    pub fn repairs(&self) -> usize {
        self.repairs
    }

    /// The maintained tuple of `u` (all-unsafe for dead nodes).
    pub fn tuple(&self, u: NodeId) -> SafetyTuple {
        self.tuples[u.index()]
    }

    /// Kills `victim` and repairs the labeling incrementally.
    /// Killing an already-dead node is a no-op.
    ///
    /// A node flips at most one status per kill: a type-`q` flip at `u`
    /// traces back along type-`q` support edges to the victim, and
    /// quadrant cones are transitive, so the victim lies in `Q_q(u)`,
    /// and it lies in one quadrant only. So the engine's flips are
    /// distinct nodes and the report counts them exactly.
    ///
    /// # Panics
    ///
    /// Panics if `victim` is out of range.
    pub fn kill(&mut self, victim: NodeId) -> RepairReport {
        if self.dead[victim.index()] {
            return RepairReport::default();
        }
        self.repairs += 1;
        self.dead[victim.index()] = true;
        self.pinned[victim.index()] = false;
        self.tuples[victim.index()] = SafetyTuple::all_unsafe();
        let net = self.net.without_nodes(&[victim]);
        // The victim's neighbors lose an edge: they seed the repair.
        let seeds = self.net.neighbors(victim).iter().copied();
        let (_, report) = relabel(&net, &self.pinned, &mut self.tuples, seeds);
        self.net = net;
        report
    }

    /// Revives a previously-killed node, restoring its original edges
    /// (and hull pinning, when the node was pinned at construction), and
    /// repairs the labeling incrementally: statuses may flip back to
    /// safe, and the engine reaches the new fixed point from the current
    /// labels, seeded with the revived node and its restored neighbors.
    /// Reviving a live node is a no-op.
    pub fn revive(&mut self, node: NodeId) {
        if !self.dead[node.index()] {
            return;
        }
        self.dead[node.index()] = false;
        let dead_now: Vec<NodeId> = self
            .dead
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d)
            .map(|(i, _)| NodeId::new(i))
            .collect();
        self.net = self.original.without_nodes(&dead_now);
        if self.original_pinned[node.index()] {
            self.pinned[node.index()] = true;
            self.tuples[node.index()] = SafetyTuple::all_safe();
        }
        let seeds = std::iter::once(node).chain(self.net.neighbors(node).iter().copied());
        relabel(&self.net, &self.pinned, &mut self.tuples, seeds);
    }

    /// Kills several nodes, folding the repair reports.
    pub fn kill_many(&mut self, victims: &[NodeId]) -> RepairReport {
        let mut total = RepairReport::default();
        for &v in victims {
            let r = self.kill(v);
            total.flipped_statuses += r.flipped_statuses;
            total.relabeled_nodes += r.relabeled_nodes;
            total.work_items += r.work_items;
        }
        total
    }

    /// Assembles a routable [`SafetyInfo`] snapshot: the maintained
    /// tuples plus freshly derived shape estimates over the ghost
    /// network.
    pub fn info(&self) -> SafetyInfo {
        let map = SafetyMap::from_tuples(self.tuples.clone(), self.pinned.clone(), 0);
        let shapes = ShapeMap::build(&self.net, &map);
        SafetyInfo::from_parts(map, shapes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_geom::Quadrant;
    use sp_net::DeploymentConfig;

    fn built(nodes: usize, seed: u64) -> (Network, InfoMaintainer) {
        let cfg = DeploymentConfig::paper_default(nodes);
        let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
        let maint = InfoMaintainer::new(net.clone());
        (net, maint)
    }

    /// Incremental repair must equal a full rebuild on the ghost network
    /// with dead nodes unpinned.
    fn assert_matches_rebuild(maint: &InfoMaintainer) {
        let rebuilt = SafetyMap::label_with_pinned(
            maint.network(),
            (0..maint.network().len())
                .map(|i| maint.pinned[i])
                .collect(),
        );
        for u in maint.network().node_ids() {
            if maint.is_dead(u) {
                assert!(
                    maint.tuple(u).fully_unsafe(),
                    "dead node {u} must be all-unsafe"
                );
                continue;
            }
            assert_eq!(
                maint.tuple(u),
                rebuilt.tuple(u),
                "incremental != rebuild at {u}"
            );
        }
    }

    #[test]
    fn single_kill_matches_full_rebuild() {
        let (net, mut maint) = built(300, 1);
        // Kill a well-connected interior node.
        let victim = net
            .node_ids()
            .max_by_key(|&u| net.degree(u))
            .expect("non-empty");
        let report = maint.kill(victim);
        assert!(maint.is_dead(victim));
        assert!(report.work_items >= net.degree(victim));
        assert_matches_rebuild(&maint);
    }

    #[test]
    fn sequential_kills_match_full_rebuild() {
        let (net, mut maint) = built(250, 7);
        let victims: Vec<NodeId> = net.node_ids().step_by(17).take(12).collect();
        let report = maint.kill_many(&victims);
        assert_eq!(maint.repairs(), victims.len());
        for &v in &victims {
            assert!(maint.is_dead(v));
        }
        assert_matches_rebuild(&maint);
        let _ = report;
    }

    #[test]
    fn killing_twice_is_a_noop() {
        let (_, mut maint) = built(150, 3);
        let first = maint.kill(NodeId(10));
        let second = maint.kill(NodeId(10));
        assert_eq!(second, RepairReport::default());
        assert_eq!(maint.repairs(), 1);
        let _ = first;
    }

    #[test]
    fn killing_a_pinned_hull_node_unpins_it() {
        let (net, mut maint) = built(200, 5);
        let hull = net
            .node_ids()
            .find(|&u| maint.pinned[u.index()])
            .expect("hull nodes exist");
        maint.kill(hull);
        assert!(maint.tuple(hull).fully_unsafe());
        assert_matches_rebuild(&maint);
    }

    #[test]
    fn repair_is_local_for_redundant_neighborhoods() {
        // In a dense network, killing one node rarely flips anyone else:
        // every neighbor has other safe support. The report shows the
        // repair touched only the 1-hop neighborhood.
        let (net, mut maint) = built(700, 11);
        let victim = net
            .node_ids()
            .max_by_key(|&u| net.degree(u))
            .expect("non-empty");
        let deg = net.degree(victim);
        let report = maint.kill(victim);
        assert!(
            report.work_items <= 8 * deg.max(1),
            "repair should stay near the victim: {report:?} (deg {deg})"
        );
        assert_matches_rebuild(&maint);
    }

    #[test]
    fn info_snapshot_estimates_match_rebuild() {
        let (net, mut maint) = built(220, 13);
        let victims: Vec<NodeId> = net.node_ids().step_by(31).take(6).collect();
        maint.kill_many(&victims);
        let info = maint.info();
        let central = SafetyInfo::build_with_pinned(maint.network(), maint.pinned.clone());
        for u in maint.network().node_ids() {
            if maint.is_dead(u) {
                continue;
            }
            assert_eq!(info.tuple(u), central.tuple(u), "tuple at {u}");
            for q in Quadrant::ALL {
                match (info.estimate(u, q), central.estimate(u, q)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.rect, b.rect, "estimate at {u} {q}");
                    }
                    _ => panic!("estimate presence mismatch at {u} {q}"),
                }
            }
        }
    }

    #[test]
    fn revive_restores_the_pre_kill_state() {
        let (net, mut maint) = built(200, 21);
        let reference = InfoMaintainer::new(net.clone());
        let victim = net
            .node_ids()
            .max_by_key(|&u| net.degree(u))
            .expect("non-empty");
        maint.kill(victim);
        assert!(maint.is_dead(victim));
        maint.revive(victim);
        assert!(!maint.is_dead(victim));
        for u in net.node_ids() {
            assert_eq!(
                maint.tuple(u),
                reference.tuple(u),
                "tuple mismatch at {u} after kill+revive"
            );
        }
        assert_eq!(
            maint.network().edge_count(),
            net.edge_count(),
            "all edges restored"
        );
    }

    #[test]
    fn revive_with_other_nodes_still_dead_matches_rebuild() {
        let (net, mut maint) = built(180, 23);
        let victims: Vec<NodeId> = net.node_ids().step_by(13).take(5).collect();
        maint.kill_many(&victims);
        maint.revive(victims[2]);
        assert!(!maint.is_dead(victims[2]));
        for (i, &v) in victims.iter().enumerate() {
            if i != 2 {
                assert!(maint.is_dead(v));
                assert!(maint.tuple(v).fully_unsafe());
            }
        }
        assert_matches_rebuild(&maint);
        // Reviving a live node is a no-op.
        let before = maint.tuple(victims[2]);
        maint.revive(victims[2]);
        assert_eq!(maint.tuple(victims[2]), before);
    }

    #[test]
    fn routing_works_on_maintained_info() {
        use crate::{Routing, Slgf2Router};
        let (net, mut maint) = built(500, 17);
        let comp = net.largest_component();
        let (s, d) = (comp[0], comp[comp.len() - 1]);
        let victims: Vec<NodeId> = comp
            .iter()
            .copied()
            .filter(|&u| u != s && u != d)
            .step_by(41)
            .take(8)
            .collect();
        maint.kill_many(&victims);
        if !maint.network().connected(s, d) {
            return; // topology break, not a routing concern
        }
        let info = maint.info();
        let r = Slgf2Router::new(&info).route(maint.network(), s, d);
        assert!(r.delivered(), "outcome {:?}", r.outcome);
        for &v in &victims {
            assert!(!r.path.contains(&v), "routed through dead node {v}");
        }
    }
}
