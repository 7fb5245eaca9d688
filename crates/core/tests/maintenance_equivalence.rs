//! Property tests: incremental repair of the safety information under
//! node failures is indistinguishable from a full rebuild.
//!
//! A failure or a revival is a `TopologyDelta` applied by
//! `ServiceSnapshot::derive`, which repairs the Definition-1 labeling
//! with the one worklist engine; these tests drive it with randomized
//! deployments and kill/revive sequences and compare against
//! `SafetyInfo::build` of the same network, which carries its down set
//! (down nodes are never pinned), for both tuples and the derived shape
//! estimates.
//!
//! The labeling engine itself is checked against `jacobi_reference`, the
//! synchronous sweep the library used to run, in tuples and in rounds.

use proptest::prelude::*;
use sp_core::{RepairReport, SafetyInfo, SafetyMap, SafetyTuple, ServiceSnapshot};
use sp_geom::{Point, Quadrant};
use sp_net::{DeploymentConfig, FaModel, Network, NodeId, TopologyDelta};

fn network(n: usize, seed: u64) -> Network {
    let cfg = DeploymentConfig::paper_default(n);
    Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area)
}

/// The synchronous (Jacobi) sweep `SafetyMap::label_with_pinned` used to
/// run, kept verbatim as the engine's reference: every round clones the
/// tuple array and re-evaluates every node. Returns the tuples and the
/// number of rounds that changed something.
fn jacobi_reference(net: &Network, pinned: &[bool]) -> (Vec<SafetyTuple>, usize) {
    let n = net.len();
    let mut tuples = vec![SafetyTuple::all_safe(); n];
    let mut rounds = 0;
    loop {
        let mut next = tuples.clone();
        let mut changed = false;
        for u in net.node_ids() {
            if pinned[u.index()] {
                continue;
            }
            let pu = net.position(u);
            for q in Quadrant::ALL {
                if !tuples[u.index()].is_safe(q) {
                    continue;
                }
                let has_safe_forward = net.neighbors(u).iter().any(|&v| {
                    Quadrant::of(pu, net.position(v)) == Some(q) && tuples[v.index()].is_safe(q)
                });
                if !has_safe_forward {
                    next[u.index()].mark_unsafe(q);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        tuples = next;
        rounds += 1;
    }
    (tuples, rounds)
}

/// An IA or FA (`fa`) deployment, snapped to a `grid`-metre lattice when
/// `grid > 0`, so co-located nodes and axis-aligned neighbors (the
/// `Quadrant::of` boundary cases) occur.
fn field(n: usize, seed: u64, fa: bool, grid: f64) -> Network {
    let cfg = DeploymentConfig::paper_default(n);
    let positions = if fa {
        let obstacles = FaModel::paper_default().generate_obstacles(&cfg, seed);
        cfg.deploy_with_obstacles(&obstacles, seed)
    } else {
        cfg.deploy_uniform(seed)
    };
    let snap = |x: f64| {
        if grid > 0.0 {
            (x / grid).round() * grid
        } else {
            x
        }
    };
    let positions = positions
        .into_iter()
        .map(|p| Point::new(snap(p.x), snap(p.y)))
        .collect();
    Network::from_positions(positions, cfg.radius, cfg.area)
}

/// A pinned mask: the hull nodes when `hull`, plus every `every`-th node
/// (none for `every == 0`).
fn pin_mask(net: &Network, hull: bool, every: usize) -> Vec<bool> {
    let edge = sp_net::edge_nodes::edge_node_mask(net, net.radius());
    net.node_ids()
        .map(|u| (hull && edge[u.index()]) || (every > 0 && u.index() % every == 0))
        .collect()
}

fn kill(snap: &ServiceSnapshot, victim: NodeId) -> (ServiceSnapshot, RepairReport) {
    snap.derive(&TopologyDelta {
        down: vec![victim],
        ..TopologyDelta::default()
    })
}

fn revive(snap: &ServiceSnapshot, node: NodeId) -> ServiceSnapshot {
    let up = TopologyDelta {
        up: vec![node],
        ..TopologyDelta::default()
    };
    snap.derive(&up).0
}

/// The maintained tuples equal `SafetyMap::label` of the same network,
/// and dead nodes are all-unsafe.
fn tuples_match_rebuild(snap: &ServiceSnapshot) -> Result<(), TestCaseError> {
    let net = snap.network();
    let rebuilt = SafetyMap::label(net);
    for u in net.node_ids() {
        if net.is_down(u) {
            prop_assert!(snap.info().tuple(u).fully_unsafe());
        } else {
            prop_assert_eq!(snap.info().tuple(u), rebuilt.tuple(u), "at {}", u);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tuples along arbitrary kill sequences, with revivals interleaved,
    /// equal a fresh rebuild after every step. After kill `i`, the
    /// `revivals[i]`-th node still dead is revived, when there is one.
    #[test]
    fn incremental_tuples_match_rebuild(
        seed in 0u64..500,
        n in 120usize..280,
        kills in prop::collection::vec(0usize..120, 1..10),
        revivals in prop::collection::vec(0usize..6, 9..10),
    ) {
        let net = network(n, seed);
        let mut snap = ServiceSnapshot::build(net);
        let mut dead = Vec::new();
        for (k, r) in kills.into_iter().zip(revivals) {
            let victim = NodeId::new(k % n);
            snap = kill(&snap, victim).0;
            if !dead.contains(&victim) {
                dead.push(victim);
            }
            tuples_match_rebuild(&snap)?;
            if r < dead.len() {
                snap = revive(&snap, dead.swap_remove(r));
                tuples_match_rebuild(&snap)?;
            }
        }
    }

    /// The derived info (estimates included) matches a centralized
    /// build over the same network.
    #[test]
    fn incremental_estimates_match_rebuild(
        seed in 0u64..200,
        kills in prop::collection::vec(0usize..150, 1..6),
    ) {
        let n = 150;
        let net = network(n, seed);
        let mut snap = ServiceSnapshot::build(net);
        for k in kills {
            snap = kill(&snap, NodeId::new(k % n)).0;
        }
        let info = snap.info();
        let central = SafetyInfo::build(snap.network());
        for u in snap.network().node_ids() {
            if snap.network().is_down(u) {
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
        let mut a = ServiceSnapshot::build(net.clone());
        for &v in &forward {
            a = kill(&a, v).0;
        }
        let backward: Vec<NodeId> = victims.iter().rev().map(|&v| NodeId::new(v)).collect();
        let mut b = ServiceSnapshot::build(net);
        for &v in &backward {
            b = kill(&b, v).0;
        }
        for u in a.network().node_ids() {
            prop_assert_eq!(a.info().tuple(u), b.info().tuple(u), "at {}", u);
        }
        victims.clear(); // silence unused-mut lint paths
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The labeling engine equals the Jacobi reference in tuples and in
    /// rounds on IA and FA fields, gridded or not, under random pinned
    /// masks, and its output is a Definition-1 fixed point.
    #[test]
    fn engine_matches_the_jacobi_reference(
        seed in 0u64..1000,
        n in 60usize..320,
        fa in 0u8..2,
        grid in prop::sample::select(vec![0.0, 2.0, 8.0]),
        hull in 0u8..2,
        every in 0usize..12,
    ) {
        let net = field(n, seed, fa == 1, grid);
        let pinned = pin_mask(&net, hull == 1, every);
        let (tuples, rounds) = jacobi_reference(&net, &pinned);
        let map = SafetyMap::label_with_pinned(&net, pinned);
        prop_assert_eq!(map.tuples(), &tuples[..]);
        prop_assert_eq!(map.rounds(), rounds);
        prop_assert_eq!(map.check_fixed_point(&net), None);
    }

    /// Each kill's report counts exactly the statuses and the nodes whose
    /// tuple the kill changed (the victim's own included: it is unpinned
    /// and relabeled all-unsafe by the same repair), statuses only flip
    /// safe → unsafe, and every repaired labeling is a fixed point.
    #[test]
    fn repair_reports_count_the_tuple_differences(
        seed in 0u64..500,
        n in 100usize..260,
        fa in 0u8..2,
        grid in prop::sample::select(vec![0.0, 8.0]),
        kills in prop::collection::vec(0usize..260, 1..12),
    ) {
        let net = field(n, seed, fa == 1, grid);
        let mut snap = ServiceSnapshot::build(net.clone());
        for k in kills {
            let victim = NodeId::new(k % n);
            let before: Vec<SafetyTuple> = snap.info().safety().tuples().to_vec();
            let report;
            (snap, report) = kill(&snap, victim);
            let (mut nodes, mut statuses) = (0, 0);
            for u in net.node_ids() {
                let (old, new) = (before[u.index()], snap.info().tuple(u));
                prop_assert!(new.safe_types().all(|q| old.is_safe(q)), "{} regained a status", u);
                let flipped = Quadrant::ALL.iter().filter(|&&q| old.is_safe(q) != new.is_safe(q)).count();
                nodes += usize::from(flipped > 0);
                statuses += flipped;
            }
            prop_assert_eq!(report.relabeled_nodes, nodes, "kill of {}", victim);
            prop_assert_eq!(report.flipped_statuses, statuses, "kill of {}", victim);
            prop_assert_eq!(snap.info().safety().check_fixed_point(snap.network()), None);
        }
    }
}

/// The distributed on_neighbor_failed repair and the centralized
/// derive agree after the same failure.
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

    // Centralized derive; its hull pins are the same mask.
    let snap = ServiceSnapshot::build(net);
    assert_eq!(snap.info().safety().pinned(), pinned.as_slice());
    let (snap, _) = kill(&snap, victim);

    for u in snap.network().node_ids() {
        if u == victim {
            continue;
        }
        assert_eq!(
            dist.info.tuple(u),
            snap.info().tuple(u),
            "distributed vs maintained tuple at {u}"
        );
    }
}
