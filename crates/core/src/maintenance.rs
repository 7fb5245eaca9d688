//! Incremental maintenance of safety information under node failures.
//!
//! The paper's §1 lists the dynamic factors that create local minima at
//! runtime — "node failures, signal fading, communication jamming, power
//! exhaustion, interference, and node mobility" — and §6 names more
//! adaptive information as future work. A failure, a revival, a cut
//! window and a mobility batch all change the links of a known set of
//! nodes, so they share one repair: a [`sp_net::TopologyDelta`] applied
//! by [`crate::ServiceSnapshot::derive`]. The topology is repaired
//! around the nodes the delta requeries ([`sp_net::Network::derive`]),
//! and the Definition-1 labeling and the shape estimates are **repaired
//! in place** from the previous epoch's instead of recomputed: the one
//! labeling engine of [`crate::labeling`] runs from the current labels,
//! seeded with the nodes whose links changed, and touches only the
//! neighborhood the change actually influenced. Definition 1 has a
//! single fixed point per pinned mask, which the engine reaches from any
//! start (the labeling module docs give the acyclicity argument), so the
//! repair lands on exactly the labels a full rebuild produces — the
//! equivalence the property tests check. This module's [`RepairReport`]
//! says what one repair did; the distributed counterpart is
//! [`crate::distributed`]'s `on_neighbor_failed`.
//!
//! A node going down loses its pin (Definition 1 labels healthy nodes)
//! and every link, so it turns all-unsafe, and its former neighbors seed
//! the repair. A node coming back regains its links and, if it is an
//! edge node, its pin; statuses may flip back to safe.

/// What one labeling repair did
/// ([`crate::ServiceSnapshot::derive`]).
///
/// After a failure a node flips at most one status, the failed node
/// itself aside: a type-`q` flip at `u` traces back along type-`q`
/// support edges to the failed node, and quadrant cones are transitive,
/// so the failed node lies in `Q_q(u)`, and it lies in one quadrant
/// only. The failed node has no links left, so it flips once, in the
/// first round. So after a failure the engine's flips are distinct
/// nodes, and the report counts exactly the tuples that changed, the
/// failed node's own included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Safety statuses flipped, summed over the repair's rounds.
    pub flipped_statuses: usize,
    /// Nodes whose tuple flipped, counted once per round in which they
    /// flip.
    pub relabeled_nodes: usize,
    /// Node evaluations the labeling engine ran, summed over its rounds
    /// (a proxy for repair cost).
    pub work_items: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SafetyInfo, ServiceSnapshot};
    use sp_geom::Quadrant;
    use sp_net::{DeploymentConfig, Network, NodeId, TopologyDelta};

    fn built(nodes: usize, seed: u64) -> (Network, ServiceSnapshot) {
        let cfg = DeploymentConfig::paper_default(nodes);
        let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
        let snap = ServiceSnapshot::build(net.clone());
        (net, snap)
    }

    fn kill(snap: &ServiceSnapshot, victims: &[NodeId]) -> (ServiceSnapshot, RepairReport) {
        snap.derive(&TopologyDelta {
            down: victims.to_vec(),
            ..TopologyDelta::default()
        })
    }

    fn revive(snap: &ServiceSnapshot, node: NodeId) -> (ServiceSnapshot, RepairReport) {
        snap.derive(&TopologyDelta {
            up: vec![node],
            ..TopologyDelta::default()
        })
    }

    /// The repaired epoch equals a full rebuild of its network, in which
    /// the down nodes are unpinned and all-unsafe.
    fn assert_matches_rebuild(snap: &ServiceSnapshot) {
        let (net, info) = (snap.network(), snap.info());
        let rebuilt = SafetyInfo::build(net);
        for u in net.node_ids() {
            if net.is_down(u) {
                assert!(info.tuple(u).fully_unsafe(), "down node {u} all-unsafe");
                assert!(!info.safety().is_pinned(u), "down node {u} unpinned");
            }
            assert_eq!(
                info.tuple(u),
                rebuilt.tuple(u),
                "incremental != rebuild at {u}"
            );
            assert_eq!(info.safety().is_pinned(u), rebuilt.safety().is_pinned(u));
        }
    }

    #[test]
    fn single_kill_matches_full_rebuild() {
        let (net, snap) = built(300, 1);
        // Kill a well-connected interior node.
        let victim = net
            .node_ids()
            .max_by_key(|&u| net.degree(u))
            .expect("non-empty");
        let (snap, report) = kill(&snap, &[victim]);
        assert!(snap.network().is_down(victim));
        assert!(report.work_items >= net.degree(victim));
        assert_matches_rebuild(&snap);
    }

    #[test]
    fn sequential_kills_match_full_rebuild() {
        let (net, mut snap) = built(250, 7);
        let victims: Vec<NodeId> = net.node_ids().step_by(17).take(12).collect();
        for &v in &victims {
            snap = kill(&snap, &[v]).0;
        }
        assert_eq!(snap.network().down(), victims.as_slice());
        assert_matches_rebuild(&snap);
    }

    #[test]
    fn killing_twice_is_a_noop() {
        let (_, snap) = built(150, 3);
        let (first, _) = kill(&snap, &[NodeId(10)]);
        let (second, report) = kill(&first, &[NodeId(10)]);
        assert_eq!(report, RepairReport::default());
        assert_eq!(second.network().down(), &[NodeId(10)]);
        assert_eq!(second.network().adjacency(), first.network().adjacency());
    }

    #[test]
    fn killing_a_pinned_hull_node_unpins_it() {
        let (net, snap) = built(200, 5);
        let hull = net
            .node_ids()
            .find(|&u| snap.info().safety().is_pinned(u))
            .expect("hull nodes exist");
        let (snap, _) = kill(&snap, &[hull]);
        assert!(snap.info().tuple(hull).fully_unsafe());
        assert!(!snap.info().safety().is_pinned(hull));
        assert_matches_rebuild(&snap);
    }

    #[test]
    fn repair_is_local_for_redundant_neighborhoods() {
        // In a dense network, killing one node rarely flips anyone else:
        // every neighbor has other safe support. The report shows the
        // repair touched only the 1-hop neighborhood.
        let (net, snap) = built(700, 11);
        let victim = net
            .node_ids()
            .max_by_key(|&u| net.degree(u))
            .expect("non-empty");
        let deg = net.degree(victim);
        let (snap, report) = kill(&snap, &[victim]);
        assert!(
            report.work_items <= 8 * deg.max(1),
            "repair should stay near the victim: {report:?} (deg {deg})"
        );
        assert_matches_rebuild(&snap);
    }

    #[test]
    fn info_snapshot_estimates_match_rebuild() {
        let (net, snap) = built(220, 13);
        let victims: Vec<NodeId> = net.node_ids().step_by(31).take(6).collect();
        let (snap, _) = kill(&snap, &victims);
        let central = SafetyInfo::build(snap.network());
        for u in snap.network().node_ids() {
            assert_eq!(snap.info().tuple(u), central.tuple(u), "tuple at {u}");
            for q in Quadrant::ALL {
                match (snap.info().estimate(u, q), central.estimate(u, q)) {
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
        let (net, reference) = built(200, 21);
        let victim = net
            .node_ids()
            .max_by_key(|&u| net.degree(u))
            .expect("non-empty");
        let (snap, _) = kill(&reference, &[victim]);
        assert!(snap.network().is_down(victim));
        let (snap, _) = revive(&snap, victim);
        assert!(!snap.network().is_down(victim));
        for u in net.node_ids() {
            assert_eq!(
                snap.info().tuple(u),
                reference.info().tuple(u),
                "tuple mismatch at {u} after kill+revive"
            );
        }
        assert_eq!(
            snap.network().adjacency(),
            net.adjacency(),
            "all edges restored"
        );
    }

    #[test]
    fn revive_with_other_nodes_still_dead_matches_rebuild() {
        let (net, snap) = built(180, 23);
        let victims: Vec<NodeId> = net.node_ids().step_by(13).take(5).collect();
        let (snap, _) = kill(&snap, &victims);
        let (snap, _) = revive(&snap, victims[2]);
        assert!(!snap.network().is_down(victims[2]));
        for (i, &v) in victims.iter().enumerate() {
            if i != 2 {
                assert!(snap.network().is_down(v));
                assert!(snap.info().tuple(v).fully_unsafe());
            }
        }
        assert_matches_rebuild(&snap);
        // Reviving a live node is a no-op.
        let (again, report) = revive(&snap, victims[2]);
        assert_eq!(report, RepairReport::default());
        assert_eq!(
            again.info().tuple(victims[2]),
            snap.info().tuple(victims[2])
        );
    }

    #[test]
    fn routing_works_on_maintained_info() {
        use crate::Routing;
        let (net, snap) = built(500, 17);
        let comp = net.largest_component();
        let (s, d) = (comp[0], comp[comp.len() - 1]);
        let victims: Vec<NodeId> = comp
            .iter()
            .copied()
            .filter(|&u| u != s && u != d)
            .step_by(41)
            .take(8)
            .collect();
        let (snap, _) = kill(&snap, &victims);
        if !snap.network().connected(s, d) {
            return; // topology break, not a routing concern
        }
        let r = snap.router().route(snap.network(), s, d);
        assert!(r.delivered(), "outcome {:?}", r.outcome);
        for &v in &victims {
            assert!(!r.path.contains(&v), "routed through dead node {v}");
        }
    }
}
