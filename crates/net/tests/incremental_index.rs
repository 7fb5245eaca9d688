//! Property tests for the parallel + incremental `SpatialIndex` paths:
//! incremental move batches must be indistinguishable from a full
//! brute-force rebuild, and row-sharded adjacency must be bit-identical
//! to the serial scan at every thread count.

use proptest::prelude::*;
use sp_geom::Point;
use sp_net::{deploy::DeploymentConfig, Network, NodeId, SpatialIndex};

fn paper_cfg(n: usize) -> DeploymentConfig {
    DeploymentConfig::paper_default(n)
}

/// Deterministic LCG step (the same constants the unit tests use).
fn lcg(state: u64) -> u64 {
    state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// A uniform draw inside `cfg.area` from two LCG steps.
fn draw_point(state: &mut u64, cfg: &DeploymentConfig) -> Point {
    *state = lcg(*state);
    let fx = ((*state >> 16) % 10_000) as f64 / 10_000.0;
    *state = lcg(*state);
    let fy = ((*state >> 16) % 10_000) as f64 / 10_000.0;
    let min = cfg.area.min();
    Point::new(
        min.x + fx * cfg.area.width(),
        min.y + fy * cfg.area.height(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole invariant of the incremental path: after any number
    /// of random move batches repaired by `Network::apply_moves`, the
    /// network carries the same sorted edge set — node for node — as a
    /// full `from_positions_brute_force` rebuild at the final
    /// positions, and its grid buckets every node where a fresh
    /// `SpatialIndex::build` does, in the same order, although movers
    /// jump anywhere in the field in both directions.
    #[test]
    fn incremental_moves_match_brute_force_rebuild(
        seed in 0u64..5_000,
        batches in 1usize..4,
        movers in 5usize..40,
    ) {
        let cfg = paper_cfg(220);
        let mut pos = cfg.deploy_uniform(seed);
        let mut net = Network::from_positions(pos.clone(), cfg.radius, cfg.area);
        let mut state = seed ^ 0xfeed_5eed;
        for _ in 0..batches {
            // Random movers; id collisions inside a batch are allowed
            // (apply_moves must tolerate duplicates).
            let mut moves = Vec::with_capacity(movers);
            for _ in 0..movers {
                state = lcg(state);
                let id = (state >> 33) as usize % pos.len();
                let p = draw_point(&mut state, &cfg);
                pos[id] = p;
                moves.push((NodeId::new(id), p));
            }
            net.apply_moves(&moves);
            let brute = Network::from_positions_brute_force(pos.clone(), cfg.radius, cfg.area);
            prop_assert_eq!(net.edge_count(), brute.edge_count());
            for u in net.node_ids() {
                prop_assert_eq!(
                    net.neighbors(u),
                    brute.neighbors(u),
                    "adjacency diverged at node {} after incremental batch",
                    u
                );
                prop_assert_eq!(net.position(u), brute.position(u));
            }
            let fresh = SpatialIndex::build(&pos, cfg.area, cfg.radius);
            prop_assert_eq!(net.index().spatial_order(), fresh.spatial_order());
        }
    }

    /// Row-sharded parallel adjacency is bit-identical to the serial
    /// scan for every thread count, including counts far above the row
    /// count (clamped) and above the machine's core count.
    #[test]
    fn threaded_adjacency_equals_serial_across_thread_counts(seed in 0u64..5_000) {
        let cfg = paper_cfg(400);
        let pos = cfg.deploy_uniform(seed);
        let index = SpatialIndex::build(&pos, cfg.area, cfg.radius);
        let serial = index.adjacency_within(cfg.radius);
        for threads in [2usize, 3, 4, 8, 32] {
            prop_assert_eq!(
                &index.adjacency_within_threaded(cfg.radius, threads),
                &serial,
                "{}-thread adjacency diverged from serial",
                threads
            );
        }
    }

    /// The threaded scan also agrees with serial when the query radius
    /// differs from the grid cell size (wider offset windows).
    #[test]
    fn threaded_adjacency_handles_radius_above_cell_size(seed in 0u64..2_000) {
        let cfg = paper_cfg(150);
        let pos = cfg.deploy_uniform(seed);
        let index = SpatialIndex::build(&pos, cfg.area, cfg.radius / 2.5);
        let radius = cfg.radius;
        prop_assert_eq!(
            index.adjacency_within_threaded(radius, 4),
            index.adjacency_within(radius)
        );
    }
}

/// A large batch, 612 movers among 2,000 nodes, so that many movers
/// neighbor other movers, still matches a from-scratch rebuild exactly.
#[test]
fn auto_threaded_repair_above_threshold_matches_rebuild() {
    let cfg = paper_cfg(2_000);
    let mut pos = cfg.deploy_uniform(7);
    let mut net = Network::from_positions(pos.clone(), cfg.radius, cfg.area);
    let movers = 612;
    let mut state = 0xbead_feedu64;
    let mut moves = Vec::with_capacity(movers);
    for _ in 0..movers {
        state = lcg(state);
        let id = (state >> 33) as usize % pos.len();
        let p = draw_point(&mut state, &cfg);
        pos[id] = p;
        moves.push((NodeId::new(id), p));
    }
    net.apply_moves(&moves);
    let rebuilt = Network::from_positions(pos, cfg.radius, cfg.area);
    assert_eq!(net.edge_count(), rebuilt.edge_count());
    for u in net.node_ids() {
        assert_eq!(net.neighbors(u), rebuilt.neighbors(u), "node {u}");
    }
}

/// Incremental snapshots across a long mobility run stay identical to
/// from-scratch rebuilds (the `RandomWaypoint` integration of the same
/// invariant, at a deterministic seed).
#[test]
fn mobility_incremental_equals_full_rebuild_over_long_run() {
    let cfg = paper_cfg(300);
    let start = cfg.deploy_uniform(99);
    let mut rw = sp_net::RandomWaypoint::new(start, cfg.area, cfg.radius, 1.0, 3.0, 0.5, 99);
    for _ in 0..12 {
        rw.step(4.0);
        let full = rw.snapshot();
        let inc = rw.snapshot_incremental();
        assert_eq!(inc.edge_count(), full.edge_count());
        for u in full.node_ids() {
            assert_eq!(inc.neighbors(u), full.neighbors(u), "node {u}");
        }
    }
}
