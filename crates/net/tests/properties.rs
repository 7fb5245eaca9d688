//! Property-based tests for the network substrate.

use proptest::prelude::*;
use sp_geom::{Point, Rect};
use sp_net::{
    deploy::DeploymentConfig, edge_nodes::edge_node_mask, FaModel, Network, NodeId, PlanarGraph,
};

fn paper_cfg(n: usize) -> DeploymentConfig {
    DeploymentConfig::paper_default(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn udg_adjacency_matches_distance_predicate(seed in 0u64..500, n in 50usize..250) {
        let cfg = paper_cfg(n);
        let pos = cfg.deploy_uniform(seed);
        let net = Network::from_positions(pos.clone(), cfg.radius, cfg.area);
        // Spot-check a deterministic subset against brute force.
        for i in (0..n).step_by(13) {
            let u = NodeId::new(i);
            let mut want: Vec<NodeId> = (0..n)
                .filter(|&j| j != i && pos[i].distance(pos[j]) <= cfg.radius)
                .map(NodeId::new)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(net.neighbors(u), &want[..]);
        }
    }

    #[test]
    fn bfs_hops_are_triangle_consistent(seed in 0u64..500) {
        let cfg = paper_cfg(150);
        let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
        let hops = net.bfs_hops(NodeId(0));
        for (i, h) in hops.iter().enumerate() {
            if let Some(h) = h {
                for &v in net.neighbors(NodeId::new(i)) {
                    if let Some(hv) = hops[v.index()] {
                        prop_assert!(hv + 1 >= *h, "BFS level jump at edge {i}-{v}");
                    }
                }
            }
        }
    }

    #[test]
    fn dijkstra_no_longer_than_any_probe_path(seed in 0u64..200) {
        let cfg = paper_cfg(120);
        let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
        let comp = net.largest_component();
        prop_assume!(comp.len() >= 2);
        let s = comp[0];
        let d = comp[comp.len() - 1];
        let (path, len) = net.shortest_path(s, d).unwrap();
        prop_assert_eq!(*path.first().unwrap(), s);
        prop_assert_eq!(*path.last().unwrap(), d);
        // Consecutive hops are edges.
        for w in path.windows(2) {
            prop_assert!(net.has_edge(w[0], w[1]));
        }
        // Straight-line distance is a lower bound; BFS hop count gives an
        // upper bound of hops * radius.
        let euclid = net.position(s).distance(net.position(d));
        prop_assert!(len + 1e-9 >= euclid);
        let hops = net.bfs_hops(s)[d.index()].unwrap() as f64;
        prop_assert!(len <= hops * net.radius() + 1e-9);
    }

    /// The tentpole invariant of the SpatialIndex refactor: the
    /// grid-derived unit-disk adjacency equals the brute-force O(n²)
    /// adjacency, node for node, across sparse, paper-scale, and dense
    /// deployments (~5, ~20, and ~47 expected neighbors in the paper's
    /// 200 m x 200 m area).
    #[test]
    fn spatial_index_adjacency_equals_brute_force(seed in 0u64..10_000) {
        for n in [120usize, 500, 1200] {
            let cfg = paper_cfg(n);
            let pos = cfg.deploy_uniform(seed);
            let fast = Network::from_positions(pos.clone(), cfg.radius, cfg.area);
            let brute = Network::from_positions_brute_force(pos, cfg.radius, cfg.area);
            prop_assert_eq!(fast.edge_count(), brute.edge_count(), "edge count at n={}", n);
            for u in fast.node_ids() {
                prop_assert_eq!(
                    fast.neighbors(u),
                    brute.neighbors(u),
                    "adjacency mismatch at n={}, node {}",
                    n,
                    u
                );
            }
        }
    }

    #[test]
    fn spatial_index_nearest_agrees_with_exhaustive_argmin(seed in 0u64..10_000) {
        let cfg = paper_cfg(250);
        let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
        let probes = [
            Point::new(0.0, 0.0),
            Point::new(100.0, 100.0),
            Point::new(200.0, 0.0),
            Point::new(37.5, 141.0),
        ];
        for q in probes {
            let got = net.index().nearest(q).unwrap();
            let want = net
                .node_ids()
                .min_by(|&a, &b| {
                    net.position(a)
                        .distance_sq(q)
                        .total_cmp(&net.position(b).distance_sq(q))
                        .then(a.cmp(&b))
                })
                .unwrap();
            prop_assert_eq!(got, want, "nearest mismatch at probe {}", q);
        }
    }

    #[test]
    fn planar_subgraph_has_no_proper_crossings(seed in 0u64..100) {
        let cfg = paper_cfg(90);
        let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
        let gg = PlanarGraph::build(&net);
        let edges: Vec<(NodeId, NodeId)> = (0..net.len())
            .map(NodeId::new)
            .flat_map(|u| {
                gg.neighbors(u)
                    .iter()
                    .copied()
                    .filter(move |&v| u < v)
                    .map(move |v| (u, v))
            })
            .collect();
        for (i, &(a, b)) in edges.iter().enumerate() {
            let s1 = sp_geom::Segment::new(net.position(a), net.position(b));
            for &(c, d) in &edges[i + 1..] {
                if a == c || a == d || b == c || b == d {
                    continue;
                }
                let s2 = sp_geom::Segment::new(net.position(c), net.position(d));
                prop_assert!(
                    !s1.crosses_properly(&s2),
                    "Gabriel edges {a}-{b} and {c}-{d} cross"
                );
            }
        }
    }

    #[test]
    fn fa_deployment_leaves_holes_node_free(seed in 0u64..200) {
        let cfg = paper_cfg(200);
        let fa = FaModel::paper_default();
        let obstacles = fa.generate_obstacles(&cfg, seed);
        let pos = cfg.deploy_with_obstacles(&obstacles, seed);
        for p in &pos {
            for o in &obstacles {
                prop_assert!(!o.contains(*p));
            }
        }
    }

    #[test]
    fn edge_mask_covers_extremes(seed in 0u64..200) {
        let cfg = paper_cfg(150);
        let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
        let mask = edge_node_mask(&net, net.radius());
        // The nodes with extreme coordinates are necessarily hull members.
        let (mut lo, mut hi) = (NodeId(0), NodeId(0));
        for u in net.node_ids() {
            if net.position(u).x < net.position(lo).x {
                lo = u;
            }
            if net.position(u).x > net.position(hi).x {
                hi = u;
            }
        }
        prop_assert!(mask[lo.index()]);
        prop_assert!(mask[hi.index()]);
    }
}

/// `edge_node_mask` as it was before its sort-free path: the strict
/// convex hull's vertices plus every node not strictly inside the area
/// shrunk by `margin`.
fn hull_plus_band(net: &Network, margin: f64) -> Vec<bool> {
    let mut mask = vec![false; net.len()];
    for &i in &sp_geom::convex_hull(&net.positions_vec()) {
        mask[i] = true;
    }
    let inner = net.area().inflate(-margin);
    for u in net.node_ids() {
        if !inner.contains_strict(net.position(u)) {
            mask[u.index()] = true;
        }
    }
    mask
}

/// Whether `edge_node_mask` may skip the hull: each corner of the shrunk
/// area has band nodes in all four open quadrants around it.
fn corners_enclosed(net: &Network, margin: f64) -> bool {
    let inner = net.area().inflate(-margin);
    let (lo, hi) = (inner.min(), inner.max());
    let corners = [lo, Point::new(hi.x, lo.y), hi, Point::new(lo.x, hi.y)];
    corners.iter().all(|c| {
        let band = net
            .node_ids()
            .map(|u| net.position(u))
            .filter(|&p| !inner.contains_strict(p) && p.x != c.x && p.y != c.y);
        let mut seen = [false; 4];
        for p in band {
            seen[usize::from(p.x < c.x) + 2 * usize::from(p.y < c.y)] = true;
        }
        seen == [true; 4]
    })
}

/// The edge mask equals the hull-plus-band reference on IA and FA
/// fields of 8 to 10⁴ nodes, at the paper's fixed area and at its
/// density, lattice-snapped or not, with the default margin and with
/// margins that leave a thin band or no interior at all. The mix takes
/// both of the mask's paths.
#[test]
fn edge_mask_equals_hull_plus_band() {
    let mut paths = [0usize; 2];
    for n in [8usize, 13, 30, 90, 300, 1_000, 3_000, 10_000] {
        for (fa, dense, grid) in [
            (false, false, 0.0),
            (false, true, 2.0),
            (true, false, 8.0),
            (true, true, 0.0),
            (false, false, 8.0),
            (true, true, 2.0),
        ] {
            let seed = n as u64 + 31 * u64::from(fa) + 7 * u64::from(dense);
            let cfg = if dense {
                DeploymentConfig::paper_density(n)
            } else {
                paper_cfg(n)
            };
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
            let positions = positions.iter().map(|p| Point::new(snap(p.x), snap(p.y)));
            let net = Network::from_positions(positions.collect(), cfg.radius, cfg.area);
            for margin in [cfg.radius, 1.0, 0.0, 1e4] {
                assert_eq!(
                    edge_node_mask(&net, margin),
                    hull_plus_band(&net, margin),
                    "n {n}, fa {fa}, dense {dense}, grid {grid}, margin {margin}"
                );
                paths[usize::from(corners_enclosed(&net, margin))] += 1;
            }
        }
    }
    eprintln!("{} fields took the sort, {} skipped it", paths[0], paths[1]);
    assert!(
        paths.iter().all(|&p| p > 0),
        "sort / sort-free fields: {paths:?}"
    );
}

#[test]
fn paper_density_regime_is_connected_enough() {
    // At the paper's densest setting the giant component should dominate.
    let cfg = DeploymentConfig::paper_default(800);
    let net = Network::from_positions(cfg.deploy_uniform(0), cfg.radius, cfg.area);
    let comp = net.largest_component();
    assert!(
        comp.len() as f64 > 0.99 * net.len() as f64,
        "giant component only {}/{}",
        comp.len(),
        net.len()
    );
    // Average degree near the analytic estimate n·πr²/A.
    let expect = 800.0 * std::f64::consts::PI * 400.0 / 40_000.0;
    let got = net.avg_degree();
    assert!(
        (got - expect).abs() < expect * 0.25,
        "avg degree {got} far from estimate {expect}"
    );
}

#[test]
fn networks_are_cloneable_and_send() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Network>();
    let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
    let net = Network::from_positions(vec![Point::new(1.0, 1.0)], 5.0, area);
    let copy = net.clone();
    assert_eq!(copy.len(), net.len());
}
