//! Snapshot-consistency properties of the epoch-versioned
//! [`RoutingService`].
//!
//! Two guarantees the serving shape stands on, both exercised with real
//! threads over random topologies and mobility schedules:
//!
//! 1. **Epoch integrity under racing publishes** — readers querying
//!    concurrently with `apply_moves` always observe a fully-formed
//!    snapshot: every answer's path is valid against **exactly** the
//!    adjacency of the epoch stamped on it (never a blend of two
//!    epochs), and no stamp ever exceeds an epoch the publisher has
//!    admitted. This is the thread-level counterpart of the
//!    schedule-exhaustive `EpochSwap` model in `sp-sync`'s
//!    interleavings suite.
//! 2. **Batch determinism for a fixed epoch schedule** — along a
//!    mobility schedule, a `TrafficEngine` batch over each epoch's
//!    pinned snapshot is bit-identical between serial and any thread
//!    count, and agrees answer for answer with a live session.

use proptest::prelude::*;
use sp_core::{RoutingService, ServiceSnapshot, TrafficEngine, TrafficReport};
use sp_geom::Point;
use sp_net::{deploy::DeploymentConfig, Network, NodeId};

const NODES: usize = 150;
/// Thread counts the determinism property sweeps (the workspace's
/// usual serial / small / odd / oversubscribed set).
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn prepared(seed: u64) -> Network {
    let cfg = DeploymentConfig::paper_default(NODES);
    Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area)
}

/// Deterministic query pairs over the largest component of `net`.
fn queries(net: &Network, count: usize, salt: usize) -> Vec<(NodeId, NodeId)> {
    let comp = net.largest_component();
    (0..count)
        .map(|k| {
            (
                comp[(k * 53 + salt) % comp.len()],
                comp[(k * 101 + salt * 7 + 17) % comp.len()],
            )
        })
        .filter(|(s, d)| s != d)
        .collect()
}

/// One deterministic jitter batch: `movers` round-robin nodes nudged by
/// `delta`, clamped to the area.
fn jitter(net: &Network, round: usize, movers: usize, delta: f64) -> Vec<(NodeId, Point)> {
    let hi = net.area().max();
    (0..movers)
        .map(|j| {
            let u = NodeId::new((round * movers + j) % net.len());
            let p = net.position(u);
            let q = Point::new(
                (p.x + delta).clamp(0.0, hi.x),
                (p.y + delta * 0.5).clamp(0.0, hi.y),
            );
            (u, q)
        })
        .collect()
}

/// One reader's traced answer: epoch, source, destination, delivered,
/// hop path.
type Traced = (u64, NodeId, NodeId, bool, Vec<NodeId>);

/// A batch pinned to the service's current epoch: `queries` through a
/// `TrafficEngine` with `threads` workers over the pinned snapshot,
/// tagged with that epoch.
fn pinned_batch(
    service: &RoutingService,
    queries: &[(NodeId, NodeId)],
    threads: usize,
) -> (u64, TrafficReport) {
    let pin = service.snapshot();
    let report = TrafficEngine::new(pin.value.network())
        .with_threads(threads)
        .run(&pin.value.router(), queries);
    (pin.epoch, report)
}

/// A path answered at epoch `e` must be walkable on exactly epoch
/// `e`'s adjacency: consecutive hops are edges *of that network*, the
/// walk starts at the source, and a delivered walk ends at the
/// destination.
fn assert_path_valid_on(
    net: &Network,
    epoch: u64,
    src: NodeId,
    dst: NodeId,
    delivered: bool,
    path: &[NodeId],
) {
    assert_eq!(path.first(), Some(&src), "epoch {epoch}: wrong start");
    for w in path.windows(2) {
        assert!(
            net.has_edge(w[0], w[1]),
            "epoch {epoch}: hop {:?}->{:?} is not an edge of its stamped epoch",
            w[0],
            w[1]
        );
    }
    if delivered {
        assert_eq!(
            path.last(),
            Some(&dst),
            "epoch {epoch}: delivered but did not end at the destination"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Guarantee 1: readers racing live publishes only ever see
    /// internally consistent (epoch, path) pairs.
    #[test]
    fn racing_readers_observe_fully_formed_snapshots(
        seed in 0u64..1000,
        epochs in 1usize..4,
        movers in 5usize..30,
    ) {
        let net = prepared(seed);
        let service = RoutingService::new(net);
        let qs = queries(service.snapshot().value.network(), 24, seed as usize % 13);
        prop_assume!(qs.len() >= 4);

        // Publisher keeps each epoch's snapshot pinned so paths can be
        // validated against exactly the epoch they claim; readers
        // trace-route the query list concurrently.
        let mut traced: Vec<Vec<Traced>> = Vec::new();
        let mut published = vec![service.snapshot()];
        std::thread::scope(|s| {
            let publisher = s.spawn(|| {
                let mut history = Vec::with_capacity(epochs);
                for round in 0..epochs {
                    let moves =
                        jitter(service.snapshot().value.network(), round, movers, 2.0);
                    let e = service.apply_moves(&moves);
                    // Single publisher: the pin taken right after the
                    // publish is the epoch just published.
                    let pin = service.snapshot();
                    assert_eq!(pin.epoch, e, "another publisher raced the test");
                    history.push(pin);
                }
                history
            });
            let readers: Vec<_> = (0..2)
                .map(|r| {
                    let qs = &qs;
                    let service = &service;
                    s.spawn(move || {
                        let mut session = service.session();
                        let mut out = Vec::with_capacity(2 * qs.len());
                        for pass in 0..2 {
                            for &(src, dst) in qs.iter().skip((r + pass) % 2) {
                                let a = session.route(src, dst);
                                let epoch = session.epoch();
                                assert!(
                                    epoch <= service.epoch(),
                                    "stamp ran ahead of the service epoch"
                                );
                                let path = session.last_path().to_vec();
                                out.push((epoch, src, dst, a.delivered(), path));
                            }
                        }
                        out
                    })
                })
                .collect();
            for r in readers {
                traced.push(r.join().expect("reader panicked"));
            }
            published.extend(publisher.join().expect("publisher panicked"));
        });

        prop_assert_eq!(published.len(), epochs + 1);
        for (e, pin) in published.iter().enumerate() {
            prop_assert_eq!(pin.epoch, e as u64, "publisher history has a gap");
        }
        for (epoch, src, dst, delivered, path) in traced.into_iter().flatten() {
            let pin = &published[epoch as usize];
            assert_path_valid_on(pin.value.network(), epoch, src, dst, delivered, &path);
        }
    }

    /// Guarantee 2: for a fixed mobility schedule, batches over each
    /// epoch's pinned snapshot are bit-identical between serial and
    /// threaded execution at every epoch along the schedule.
    #[test]
    fn pinned_batches_are_deterministic_across_threads_per_epoch(
        seed in 0u64..1000,
        epochs in 1usize..4,
    ) {
        let net = prepared(seed);
        let qs = queries(&net, 40, 3);
        prop_assume!(qs.len() >= 8);
        let service = RoutingService::new(net);

        for round in 0..=epochs {
            let (epoch, want) = pinned_batch(&service, &qs, THREADS[0]);
            prop_assert_eq!(epoch, round as u64);
            prop_assert_eq!(want.records.len(), qs.len());
            for &t in &THREADS[1..] {
                let (_, got) = pinned_batch(&service, &qs, t);
                prop_assert_eq!(&want, &got, "threads={} epoch={}", t, round);
            }
            if round < epochs {
                let moves = jitter(service.snapshot().value.network(), round, 10, 1.5);
                prop_assert_eq!(service.apply_moves(&moves), round as u64 + 1);
            }
        }
    }
}

/// The batch path and the session path agree answer-for-answer on a
/// churned topology (not just the fresh epoch-0 deployment).
#[test]
fn session_and_batch_agree_after_churn() {
    let net = prepared(77);
    let service = RoutingService::new(net);
    for round in 0..3 {
        let moves = jitter(service.snapshot().value.network(), round, 12, 2.5);
        service.apply_moves(&moves);
    }
    let qs = queries(service.snapshot().value.network(), 30, 5);
    let (epoch, batch) = pinned_batch(&service, &qs, 3);
    assert_eq!(epoch, 3);
    let mut session = service.session();
    for (i, &(src, dst)) in qs.iter().enumerate() {
        assert_eq!(batch.records[i], session.route(src, dst), "query {i}");
        assert_eq!(session.epoch(), epoch, "query {i}");
    }
}

/// `ServiceSnapshot::build` + `from_snapshot` is the same service as
/// `new` — the snapshot constructor is the publish path's building
/// block, so the two entry points must agree.
#[test]
fn from_snapshot_matches_new() {
    let net = prepared(5);
    let qs = queries(&net, 12, 1);
    let a = RoutingService::new(net.clone());
    let b = RoutingService::from_snapshot(ServiceSnapshot::build(net));
    assert_eq!(pinned_batch(&a, &qs, 2), pinned_batch(&b, &qs, 2));
}
