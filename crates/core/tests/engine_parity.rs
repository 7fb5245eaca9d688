//! Engine-parity property tests: the zero-copy / frontier / threaded
//! round engine must reproduce the frozen pre-optimization engine
//! **bit for bit** — same [`sp_sim::SimStats`] counters, same round
//! count, and a `construct_distributed` result equal to the
//! centralized [`SafetyInfo`] — across thread counts and failure
//! plans. This is the acceptance property behind the
//! `distributed_construction` benchmark: the speedup is only real if
//! the fast engine computes the same thing.

use proptest::prelude::*;
use sp_core::{construct_legacy, construct_with, ConstructionRun, SafetyInfo};
use sp_geom::Quadrant;
use sp_net::{deploy::DeploymentConfig, edge_nodes::edge_node_mask, Network, NodeId};
use sp_sim::ChaosPlan;

/// Deterministic LCG step (the same constants the unit tests use).
fn lcg(state: u64) -> u64 {
    state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// Asserts two construction runs carry identical stats and identical
/// per-node information.
fn assert_runs_identical(a: &ConstructionRun, b: &ConstructionRun, net: &Network, tag: &str) {
    assert_eq!(a.stats, b.stats, "{tag}: SimStats diverged");
    for u in net.node_ids() {
        assert_eq!(a.info.tuple(u), b.info.tuple(u), "{tag}: tuple at {u}");
        for q in Quadrant::ALL {
            match (a.info.estimate(u, q), b.info.estimate(u, q)) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.rect, y.rect, "{tag}: E_{q}({u}) rect");
                    assert_eq!(x.first_far, y.first_far, "{tag}: u(1) at {u} {q}");
                    assert_eq!(x.last_far, y.last_far, "{tag}: u(2) at {u} {q}");
                }
                _ => panic!("{tag}: estimate presence mismatch at {u} {q}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random deployments, random failure plans, every thread count:
    /// the optimized engine's `SimStats` (rounds, broadcasts, unicasts,
    /// receptions, quiescence) and the assembled `SafetyInfo` equal the
    /// legacy engine's exactly.
    #[test]
    fn threaded_frontier_engine_matches_legacy_engine(
        seed in 0u64..4_000,
        kills in 0usize..4,
        first_kill_round in 1usize..60,
    ) {
        let cfg = DeploymentConfig::paper_default(220);
        let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
        let pinned = edge_node_mask(&net, net.radius());

        let mut plan = ChaosPlan::new();
        let mut state = seed ^ 0x5ca1_ab1e;
        for k in 0..kills {
            state = lcg(state);
            let victim = NodeId::new((state >> 33) as usize % net.len());
            plan.kill_at(first_kill_round + 7 * k, victim);
        }

        let legacy = construct_legacy(&net, pinned.clone(), plan.clone())
            .expect("legacy engine quiesces");
        for threads in [1usize, 2, 3, 8] {
            let run = construct_with(&net, pinned.clone(), plan.clone(), threads)
                .expect("optimized engine quiesces");
            assert_runs_identical(&legacy, &run, &net, &format!("threads={threads}"));
        }
    }

    /// Without failures the (threaded) distributed construction also
    /// equals the centralized fixed point — the Algorithm-2 correctness
    /// anchor, now held at every thread count.
    #[test]
    fn threaded_construction_matches_centralized(seed in 0u64..4_000) {
        let cfg = DeploymentConfig::paper_default(180);
        let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
        let pinned = edge_node_mask(&net, net.radius());
        let central = SafetyInfo::build_with_pinned(&net, pinned.clone());
        for threads in [1usize, 4] {
            let run = construct_with(&net, pinned.clone(), ChaosPlan::new(), threads)
                .expect("quiesces");
            for u in net.node_ids() {
                prop_assert_eq!(
                    run.info.tuple(u),
                    central.tuple(u),
                    "centralized tuple mismatch at {} (threads {})",
                    u,
                    threads
                );
                for q in Quadrant::ALL {
                    match (run.info.estimate(u, q), central.estimate(u, q)) {
                        (None, None) => {}
                        (Some(a), Some(b)) => prop_assert_eq!(a.rect, b.rect),
                        _ => panic!("estimate presence mismatch at {u} {q}"),
                    }
                }
            }
        }
    }
}
