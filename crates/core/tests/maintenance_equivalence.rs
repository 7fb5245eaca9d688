//! Property tests: incremental repair of the safety information under
//! node failures is indistinguishable from a full rebuild.
//!
//! `InfoMaintainer::kill` repairs the Definition-1 labeling with a
//! monotone worklist; these tests drive it with randomized deployments
//! and kill sequences and compare against `SafetyMap::label_with_pinned`
//! on the degraded (ghost) network, for both tuples and the derived
//! shape estimates.

use proptest::prelude::*;
use sp_core::{InfoMaintainer, SafetyInfo, SafetyMap};
use sp_geom::Quadrant;
use sp_net::{DeploymentConfig, Network, NodeId};

fn network(n: usize, seed: u64) -> Network {
    let cfg = DeploymentConfig::paper_default(n);
    Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area)
}

fn ghost_pinned(maint: &InfoMaintainer) -> Vec<bool> {
    // The maintainer unpins dead nodes; mirror that for the rebuild.
    maint
        .network()
        .node_ids()
        .map(|u| !maint.is_dead(u) && maint.info().safety().is_pinned(u))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tuples after arbitrary kill sequences equal a fresh rebuild.
    #[test]
    fn incremental_tuples_match_rebuild(
        seed in 0u64..500,
        n in 120usize..280,
        kills in prop::collection::vec(0usize..120, 1..10),
    ) {
        let net = network(n, seed);
        let mut maint = InfoMaintainer::new(net.clone());
        for k in kills {
            maint.kill(NodeId::new(k % n));
        }
        let rebuilt = SafetyMap::label_with_pinned(maint.network(), ghost_pinned(&maint));
        for u in maint.network().node_ids() {
            if maint.is_dead(u) {
                prop_assert!(maint.tuple(u).fully_unsafe());
            } else {
                prop_assert_eq!(maint.tuple(u), rebuilt.tuple(u), "at {}", u);
            }
        }
    }

    /// The assembled info (estimates included) matches a centralized
    /// build over the ghost network.
    #[test]
    fn incremental_estimates_match_rebuild(
        seed in 0u64..200,
        kills in prop::collection::vec(0usize..150, 1..6),
    ) {
        let n = 150;
        let net = network(n, seed);
        let mut maint = InfoMaintainer::new(net);
        for k in kills {
            maint.kill(NodeId::new(k % n));
        }
        let info = maint.info();
        let central = SafetyInfo::build_with_pinned(
            maint.network(),
            ghost_pinned(&maint),
        );
        for u in maint.network().node_ids() {
            if maint.is_dead(u) {
                continue;
            }
            for q in Quadrant::ALL {
                match (info.estimate(u, q), central.estimate(u, q)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.rect, b.rect, "estimate at {} {}", u, q);
                        prop_assert_eq!(a.first_far, b.first_far);
                        prop_assert_eq!(a.last_far, b.last_far);
                    }
                    (a, b) => {
                        prop_assert!(false, "presence mismatch at {} {}: {:?} vs {:?}", u, q, a, b);
                    }
                }
            }
        }
    }

    /// Kill order never matters (the fixed point is unique).
    #[test]
    fn kill_order_is_irrelevant(
        seed in 0u64..200,
        mut victims in prop::collection::btree_set(0usize..140, 2..8),
    ) {
        let n = 140;
        let net = network(n, seed);
        let forward: Vec<NodeId> = victims.iter().map(|&v| NodeId::new(v)).collect();
        let mut a = InfoMaintainer::new(net.clone());
        a.kill_many(&forward);
        let backward: Vec<NodeId> = victims.iter().rev().map(|&v| NodeId::new(v)).collect();
        let mut b = InfoMaintainer::new(net);
        b.kill_many(&backward);
        for u in a.network().node_ids() {
            prop_assert_eq!(a.tuple(u), b.tuple(u), "at {}", u);
        }
        victims.clear(); // silence unused-mut lint paths
    }
}

/// The distributed on_neighbor_failed repair and the centralized
/// maintainer agree after the same failure.
#[test]
fn distributed_and_centralized_repair_agree() {
    use sp_core::construct_with;
    use sp_net::edge_nodes::edge_node_mask;
    use sp_sim::ChaosPlan;

    let net = network(220, 9);
    let pinned = edge_node_mask(&net, net.radius());
    let victim = net
        .node_ids()
        .find(|&u| !pinned[u.index()] && net.degree(u) > 4)
        .expect("interior node");

    // Distributed: kill after stabilization (round 200 >> diameter).
    let mut plan = ChaosPlan::new();
    plan.kill_at(200, victim);
    let dist = construct_with(&net, pinned.clone(), plan, 1).expect("quiesces");

    // Centralized maintainer.
    let mut maint = InfoMaintainer::with_pinned(net, pinned);
    maint.kill(victim);

    for u in maint.network().node_ids() {
        if u == victim {
            continue;
        }
        assert_eq!(
            dist.info.tuple(u),
            maint.tuple(u),
            "distributed vs maintained tuple at {u}"
        );
    }
}
