//! CSR-vs-legacy equivalence properties (the PR-6 acceptance gate).
//!
//! The CSR arena build (`adjacency_within{,_threaded}` via
//! `CsrAdjacency::from_pair_rows`) must reproduce the legacy
//! per-node-`Vec` accumulate-then-sort adjacency
//! (`adjacency_lists_within`) exactly — across deployment models, after
//! incremental move batches, and at every thread count the banded
//! sharding may run with. The spatial-sort remap must be a relabeling
//! isomorphism whose external ids round-trip.

use proptest::prelude::*;
use sp_geom::Point;
use sp_net::{
    deploy::DeploymentConfig, CityBlockModel, ClusterModel, CsrAdjacency, Network, NodeId,
    SpatialIndex,
};

fn paper_cfg(n: usize) -> DeploymentConfig {
    DeploymentConfig::paper_default(n)
}

/// The legacy adjacency, order-normalized (each list sorted) and
/// packed into an arena.
fn legacy_csr(index: &SpatialIndex, radius: f64) -> CsrAdjacency {
    let mut lists = index.adjacency_lists_within(radius);
    for l in &mut lists {
        l.sort_unstable();
    }
    CsrAdjacency::from_lists(&lists)
}

/// A deterministic mover batch: every `stride`-th node displaced by a
/// seed-dependent fraction of the radius (far enough to rewire edges).
fn mover_batch(
    cfg: &DeploymentConfig,
    pos: &[Point],
    seed: u64,
    stride: usize,
) -> Vec<(NodeId, Point)> {
    pos.iter()
        .enumerate()
        .step_by(stride.max(1))
        .map(|(i, p)| {
            let f = 0.3 + 0.1 * ((seed % 7) as f64);
            let x = (p.x + f * cfg.radius).min(cfg.area.max().x);
            let y = (p.y + 0.5 * f * cfg.radius).min(cfg.area.max().y);
            (NodeId::new(i), Point::new(x, y))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// CSR build == legacy build, list for list, across deployment
    /// models and the thread counts the atomic-cursor sharding can run
    /// with (1 = serial fast path, 2/3 = uneven band splits, 8 =
    /// oversubscribed on this container).
    #[test]
    fn csr_equals_legacy_at_every_thread_count(seed in 0u64..5_000, n in 80usize..400) {
        let cfg = paper_cfg(n);
        let deployments = [
            cfg.deploy_uniform(seed),
            cfg.deploy_clustered(&ClusterModel::paper_default(), seed),
            cfg.deploy_city_block(&CityBlockModel::paper_default(), seed),
        ];
        for pos in deployments {
            let index = SpatialIndex::build(&pos, cfg.area, cfg.radius);
            let want = legacy_csr(&index, cfg.radius);
            for threads in [1usize, 2, 3, 8] {
                let csr = index.adjacency_within_threaded(cfg.radius, threads);
                prop_assert_eq!(
                    &csr,
                    &want,
                    "CSR != legacy at n={}, threads={}",
                    n,
                    threads
                );
            }
        }
    }

    /// After a batch of moves lands, the network's CSR equals a
    /// from-scratch legacy build of the moved positions — and a second
    /// (inverse) batch restores the original, twice over.
    #[test]
    fn csr_stays_equivalent_through_move_batches(seed in 0u64..2_000) {
        let n = 300;
        let cfg = paper_cfg(n);
        let pos = cfg.deploy_uniform(seed);
        let mut net = Network::from_positions(pos.clone(), cfg.radius, cfg.area);
        let moves = mover_batch(&cfg, &pos, seed, 17);
        let inverse: Vec<(NodeId, Point)> = moves
            .iter()
            .map(|&(id, _)| (id, pos[id.index()]))
            .collect();
        for round in 0..2 {
            net.apply_moves(&moves);
            let moved_index = SpatialIndex::build(&net.positions_vec(), cfg.area, cfg.radius);
            let want = legacy_csr(&moved_index, cfg.radius);
            prop_assert_eq!(net.adjacency(), &want, "forward batch, round {}", round);
            net.apply_moves(&inverse);
        }
        let back_index = SpatialIndex::build(&pos, cfg.area, cfg.radius);
        prop_assert_eq!(net.adjacency(), &legacy_csr(&back_index, cfg.radius));
    }

    /// `spatially_sorted` is a relabeling isomorphism: mapping the
    /// sorted network's lists back through the remap reproduces the
    /// original adjacency, and the remap round-trips both ways.
    #[test]
    fn spatial_sort_remap_round_trips(seed in 0u64..5_000, n in 50usize..300) {
        let cfg = paper_cfg(n);
        let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
        let (sorted, remap) = net.spatially_sorted();
        prop_assert_eq!(sorted.len(), net.len());
        for i in 0..n {
            let ext = NodeId::new(i);
            prop_assert_eq!(remap.to_external(remap.to_internal(ext)), ext);
            let int = NodeId::new(i);
            prop_assert_eq!(remap.to_internal(remap.to_external(int)), int);
            // Positions follow their node through the relabeling.
            prop_assert_eq!(sorted.position(remap.to_internal(ext)), net.position(ext));
        }
        for i in 0..n {
            let int = NodeId::new(i);
            let ext = remap.to_external(int);
            let mut got: Vec<NodeId> = sorted
                .neighbors(int)
                .iter()
                .map(|&v| remap.to_external(v))
                .collect();
            got.sort_unstable();
            prop_assert_eq!(&got[..], sorted_copy(net.neighbors(ext)).as_slice(), "node {}", ext);
        }
    }
}

fn sorted_copy(xs: &[NodeId]) -> Vec<NodeId> {
    let mut v = xs.to_vec();
    v.sort_unstable();
    v
}

/// The serial path and the banded threaded path must agree bit for bit
/// at a scale where several bands per thread actually form (the
/// ISSUE's "spatially-partitioned sharding bit-identical to serial").
#[test]
fn banded_sharding_is_bit_identical_to_serial_at_scale() {
    let cfg = DeploymentConfig::paper_density(20_000);
    let pos = cfg.deploy_uniform(23);
    let index = SpatialIndex::build(&pos, cfg.area, cfg.radius);
    let serial = index.adjacency_within(cfg.radius);
    for threads in [2usize, 3, 8] {
        assert_eq!(
            serial,
            index.adjacency_within_threaded(cfg.radius, threads),
            "threaded adjacency diverged at threads={threads}"
        );
    }
}
