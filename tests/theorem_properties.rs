//! Cross-crate property tests for the paper's theorems and the
//! equivalence of the centralized and distributed constructions.

use proptest::prelude::*;
use straightpath::core::{construct_distributed, zone_type};
use straightpath::net::Network as Net;
use straightpath::prelude::*;

fn build_net(n: usize, seed: u64) -> Net {
    let cfg = DeploymentConfig::paper_default(n);
    Net::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Definition 1 fixed-point invariants on random networks of random
    /// density (the backbone of Theorem 1).
    #[test]
    fn labeling_fixed_point_holds(seed in 0u64..10_000, n in 120usize..500) {
        let net = build_net(n, seed);
        let info = SafetyInfo::build(&net);
        prop_assert!(info.safety().check_fixed_point(&net).is_none());
    }

    /// Theorem 1 (safe direction): a route whose every intermediate node
    /// is safe toward the destination is never blocked — SLGF/SLGF2
    /// routes that stay in the Greedy phase always deliver.
    #[test]
    fn safe_only_routes_always_deliver(seed in 0u64..10_000) {
        let net = build_net(420, seed);
        let info = SafetyInfo::build(&net);
        let comp = net.largest_component();
        prop_assume!(comp.len() >= 10);
        let router = Slgf2Router::new(&info);
        for (a, b) in [(0, comp.len() - 1), (1, comp.len() / 2), (2, comp.len() - 3)] {
            let (s, d) = (comp[a], comp[b]);
            if s == d {
                continue;
            }
            let r = router.route(&net, s, d);
            if r.phases.iter().all(|&p| p == RoutePhase::Greedy) {
                prop_assert!(
                    r.delivered(),
                    "pure safe forwarding blocked at {:?} (path {:?})",
                    r.outcome,
                    r.path
                );
            }
        }
    }

    /// Theorem 1 (unsafe direction): type-i forwarding from a type-i
    /// unsafe node can only reach type-i unsafe nodes and terminates
    /// blocked (the greedy region is closed and finite).
    #[test]
    fn unsafe_quadrant_forwarding_always_blocks(seed in 0u64..10_000) {
        let net = build_net(300, seed);
        let info = SafetyInfo::build(&net);
        for u in net.node_ids() {
            for q in Quadrant::ALL {
                if info.is_safe(u, q) {
                    continue;
                }
                // Every forwarding-zone neighbor is itself unsafe …
                let pu = net.position(u);
                for &v in net.neighbors(u) {
                    if Quadrant::of(pu, net.position(v)) == Some(q) {
                        prop_assert!(
                            !info.is_safe(v, q),
                            "unsafe {u} has safe {q} successor {v}"
                        );
                    }
                }
                // … and the greedy region is finite: it never contains a
                // safe node.
                for w in info.greedy_region(&net, u, q) {
                    prop_assert!(!info.is_safe(w, q));
                }
            }
        }
    }

    /// The distributed Algorithm 2 reproduces the centralized
    /// information exactly (tuples, estimates, chain endpoints).
    #[test]
    fn distributed_equals_centralized(seed in 0u64..10_000, n in 100usize..300) {
        let net = build_net(n, seed);
        let run = construct_distributed(&net).expect("quiesces");
        let central = SafetyInfo::build(&net);
        for u in net.node_ids() {
            prop_assert_eq!(run.info.tuple(u), central.tuple(u));
            for q in Quadrant::ALL {
                match (run.info.estimate(u, q), central.estimate(u, q)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.rect, b.rect);
                        prop_assert_eq!(a.first_far, b.first_far);
                        prop_assert_eq!(a.last_far, b.last_far);
                    }
                    (a, b) => prop_assert!(false, "presence mismatch {a:?} {b:?}"),
                }
            }
        }
    }

    /// Routing is a pure function: identical inputs give identical
    /// traces for every scheme.
    #[test]
    fn routing_is_deterministic(seed in 0u64..10_000) {
        let net = build_net(350, seed);
        let info = SafetyInfo::build(&net);
        let gf = GfRouter::new(&net);
        let comp = net.largest_component();
        prop_assume!(comp.len() >= 2);
        let (s, d) = (comp[0], comp[comp.len() - 1]);
        let lgf = LgfRouter::new();
        let slgf = SlgfRouter::new(&info);
        let slgf2 = Slgf2Router::new(&info);
        let routers: [&dyn Routing; 4] = [&gf, &lgf, &slgf, &slgf2];
        for r in routers {
            let a = r.route(&net, s, d);
            let b = r.route(&net, s, d);
            prop_assert_eq!(a.path, b.path, "{} not deterministic", r.name());
            prop_assert_eq!(a.outcome, b.outcome);
        }
    }

    /// Greedy-phase hops strictly shrink the distance to the destination
    /// for the whole LGF family (the request zone guarantees it).
    #[test]
    fn zone_hops_strictly_approach(seed in 0u64..10_000) {
        let net = build_net(400, seed);
        let info = SafetyInfo::build(&net);
        let comp = net.largest_component();
        prop_assume!(comp.len() >= 2);
        let (s, d) = (comp[comp.len() / 3], comp[2 * comp.len() / 3]);
        prop_assume!(s != d);
        let pd = net.position(d);
        for r in [
            LgfRouter::new().route(&net, s, d),
            SlgfRouter::new(&info).route(&net, s, d),
            Slgf2Router::new(&info).route(&net, s, d),
        ] {
            for (i, phase) in r.phases.iter().enumerate() {
                if *phase == RoutePhase::Greedy {
                    let before = net.position(r.path[i]).distance(pd);
                    let after = net.position(r.path[i + 1]).distance(pd);
                    prop_assert!(
                        after < before + 1e-9,
                        "greedy hop moved away from d at step {i}"
                    );
                }
            }
        }
    }

    /// Perimeter entries in the LGF family happen at nodes that are
    /// genuinely blocked in their request zone (no zone candidate).
    #[test]
    fn perimeter_entries_are_zone_blocked(seed in 0u64..10_000) {
        let net = build_net(300, seed);
        let comp = net.largest_component();
        prop_assume!(comp.len() >= 2);
        let (s, d) = (comp[0], comp[comp.len() - 1]);
        let r = LgfRouter::new().route(&net, s, d);
        for (i, phase) in r.phases.iter().enumerate() {
            let first_of_episode =
                *phase == RoutePhase::Perimeter && (i == 0 || r.phases[i - 1] != RoutePhase::Perimeter);
            if first_of_episode {
                let u = r.path[i];
                if net.has_edge(u, d) {
                    continue;
                }
                let zone_empty =
                    straightpath::core::zone_candidates(&net, u, d).next().is_none();
                prop_assert!(
                    zone_empty,
                    "perimeter entered at {u} though its zone has candidates"
                );
            }
        }
        // Sanity use of zone_type to keep the import exercised.
        let _ = zone_type(&net, s, d);
    }
}

/// Theorem 2 flavor: every estimate `E_q(u)` spans from `u` to the far
/// corner assembled from its chain endpoints — x extent from the
/// x-axis-hugging chain, y extent from the y-axis-hugging one (the
/// per-type corner mapping of the `sp_core::shape` module docs).
#[test]
fn estimates_assemble_far_corner_from_chains() {
    for seed in [3u64, 17, 99] {
        let net = build_net(450, seed);
        let info = SafetyInfo::build(&net);
        for u in net.node_ids() {
            for q in Quadrant::ALL {
                let Some(est) = info.estimate(u, q) else {
                    continue;
                };
                assert!(est.rect.contains(net.position(u)));
                assert!(est.rect.contains(est.far_corner));
                let pf = net.position(est.first_far);
                let pl = net.position(est.last_far);
                match q {
                    Quadrant::I | Quadrant::III => {
                        assert_eq!(est.far_corner.x, pf.x, "{u} {q}");
                        assert_eq!(est.far_corner.y, pl.y, "{u} {q}");
                    }
                    Quadrant::II | Quadrant::IV => {
                        assert_eq!(est.far_corner.x, pl.x, "{u} {q}");
                        assert_eq!(est.far_corner.y, pf.y, "{u} {q}");
                    }
                }
            }
        }
    }
}

/// Theorem 2 soundness as a routing filter: a neighbor of the unsafe
/// node `u` that lies strictly inside `E_q(u)` and in `Q_q(u)` is
/// itself type-q unsafe — using it blocks, exactly as the theorem
/// states. (A safe node strictly inside the estimate would contradict
/// the "blocked iff any node inside E_i(u) is used" claim.)
#[test]
fn estimate_interiors_contain_no_safe_forwarding() {
    for seed in [7u64, 23, 61] {
        let net = build_net(400, seed);
        let info = SafetyInfo::build(&net);
        for u in net.node_ids() {
            let pu = net.position(u);
            for q in Quadrant::ALL {
                let Some(est) = info.estimate(u, q) else {
                    continue;
                };
                for &v in net.neighbors(u) {
                    let pv = net.position(v);
                    if Quadrant::of(pu, pv) == Some(q) && est.rect.contains_strict(pv) {
                        assert!(
                            !info.is_safe(v, q),
                            "safe node {v} strictly inside E_{q}({u}) = {}",
                            est.rect
                        );
                    }
                }
            }
        }
    }
}

/// The exact greedy-region box always contains the two-chain estimate,
/// and both contain `u` — the §6 accuracy relationship (A14) stated as
/// an invariant.
#[test]
fn exact_region_boxes_contain_estimates() {
    use straightpath::core::{SafetyMap, ShapeMap};
    for seed in [5u64, 41] {
        let net = build_net(350, seed);
        let safety = SafetyMap::label(&net);
        let est = ShapeMap::build(&net, &safety);
        let exact = ShapeMap::build_exact(&net, &safety);
        for u in net.node_ids() {
            for q in Quadrant::ALL {
                match (est.estimate(u, q), exact.estimate(u, q)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert!(b.rect.contains_rect(&a.rect), "at {u} {q}");
                        assert!(a.rect.contains(net.position(u)));
                    }
                    _ => panic!("estimate presence mismatch at {u} {q}"),
                }
            }
        }
    }
}
