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
//!
//! A third property holds the publish path to the paper's definitions:
//! every epoch `apply_moves` derives from the previous one equals a full
//! `SafetyInfo::build` of its network, in tuples, pinned mask and every
//! shape estimate, and its adjacency equals a brute-force rebuild at
//! the moved positions while the pinned previous epoch stays as it was.
//! A fourth holds writers to each other: two threads applying moves at
//! once lose none of them.

use proptest::prelude::*;
use sp_core::{RoutingService, SafetyInfo, ServiceSnapshot, TrafficEngine, TrafficReport};
use sp_geom::{Point, Quadrant};
use sp_net::{deploy::DeploymentConfig, FaModel, Network, NodeId};

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

/// SplitMix64: the seeded generator behind the random fields and
/// mobility batches of [`derived_epochs_equal_full_builds`].
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[lo, hi]`.
    fn within(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / ((1u64 << 53) - 1) as f64)
    }
}

/// An IA or FA field of `n` nodes, at the paper's fixed 200 m area or at
/// its density, snapped to a `grid`-metre lattice when `grid > 0`.
fn mobility_field(n: usize, seed: u64, fa: bool, dense: bool, grid: f64) -> Network {
    let cfg = if dense {
        DeploymentConfig::paper_density(n)
    } else {
        DeploymentConfig::paper_default(n)
    };
    let positions = if fa {
        let obstacles = FaModel::paper_default().generate_obstacles(&cfg, seed);
        cfg.deploy_with_obstacles(&obstacles, seed)
    } else {
        cfg.deploy_uniform(seed)
    };
    let positions = positions.into_iter().map(|p| snap(p, grid)).collect();
    Network::from_positions(positions, cfg.radius, cfg.area)
}

fn snap(p: Point, grid: f64) -> Point {
    if grid > 0.0 {
        Point::new((p.x / grid).round() * grid, (p.y / grid).round() * grid)
    } else {
        p
    }
}

/// One random batch of 1–8 movers, each jumping to a random point, onto
/// the area's border, onto another node, or 30 m away.
fn random_batch(net: &Network, rng: &mut SplitMix, grid: f64) -> Vec<(NodeId, Point)> {
    let (lo, hi) = (net.area().min(), net.area().max());
    (0..1 + rng.below(8))
        .map(|_| {
            let u = NodeId::new(rng.below(net.len()));
            let p = net.position(u);
            let to = match rng.below(4) {
                0 => Point::new(rng.within(lo.x, hi.x), rng.within(lo.y, hi.y)),
                1 => {
                    let along = rng.within(0.0, 1.0);
                    let (x, y) = (lo.x + along * (hi.x - lo.x), lo.y + along * (hi.y - lo.y));
                    match rng.below(4) {
                        0 => Point::new(lo.x, y),
                        1 => Point::new(hi.x, y),
                        2 => Point::new(x, lo.y),
                        _ => Point::new(x, hi.y),
                    }
                }
                2 => net.position(NodeId::new(rng.below(net.len()))),
                _ => {
                    let angle = rng.within(0.0, std::f64::consts::TAU);
                    let x = (p.x + 30.0 * angle.cos()).clamp(lo.x, hi.x);
                    let y = (p.y + 30.0 * angle.sin()).clamp(lo.y, hi.y);
                    Point::new(x, y)
                }
            };
            (u, snap(to, grid))
        })
        .collect()
}

/// The published snapshot equals a full build of its network: every
/// tuple, the pinned mask and every `(node, type)` estimate.
fn assert_equals_full_build(snapshot: &ServiceSnapshot, case: &str) {
    let net = snapshot.network();
    let (got, want) = (snapshot.info(), SafetyInfo::build(net));
    for u in net.node_ids() {
        let (safety, full) = (got.safety(), want.safety());
        assert_eq!(safety.is_pinned(u), full.is_pinned(u), "{case}: pin of {u}");
        assert_eq!(safety.tuple(u), full.tuple(u), "{case}: tuple of {u}");
        for q in Quadrant::ALL {
            assert_eq!(
                got.estimate(u, q),
                want.estimate(u, q),
                "{case}: estimate at {u} {q}"
            );
        }
    }
}

/// Every epoch `apply_moves` derives from the previous one is
/// bit-identical to a full build, over IA and FA fields of 20–420 nodes
/// at both densities, lattice-snapped or not, and random batches whose
/// movers jump anywhere. The sweep must also change pins, including a
/// pin of a node that did not move (a hull vertex appears or vanishes),
/// since that is where a derived epoch departs most from its parent. It
/// is a seeded sweep rather than a `proptest!` block so that it can count
/// those pin changes over all of its batches.
#[test]
fn derived_epochs_equal_full_builds() {
    const FIELDS: u64 = 160;
    const BATCHES: usize = 6;
    let mut rng = SplitMix(0x5EED);
    let (mut batches, mut pin_changed, mut bystander_pin_changed) = (0, 0, 0);
    for field in 0..FIELDS {
        let n = 20 + rng.below(401);
        let (fa, dense) = (field % 2 == 1, field % 4 >= 2);
        let grid = [0.0, 0.0, 2.0, 8.0][rng.below(4)];
        let service = RoutingService::new(mobility_field(n, field, fa, dense, grid));
        for batch in 0..BATCHES {
            let before = service.snapshot();
            let old = before.value.network();
            let (old_adjacency, old_positions) = (old.adjacency().clone(), old.positions_vec());
            let moves = random_batch(old, &mut rng, grid);
            service.apply_moves(&moves);
            let after = service.snapshot();
            let case = format!(
                "field {field} (n {n}, fa {fa}, dense {dense}, grid {grid}), batch {batch}"
            );
            assert_equals_full_build(&after.value, &case);
            let mut positions = old_positions.clone();
            for &(u, to) in &moves {
                positions[u.index()] = to;
            }
            let net = after.value.network();
            assert_eq!(net.positions_vec(), positions, "{case}: positions");
            let brute = Network::from_positions_brute_force(positions, net.radius(), net.area());
            for u in net.node_ids() {
                assert_eq!(
                    net.neighbors(u),
                    brute.neighbors(u),
                    "{case}: neighbors of {u}"
                );
            }
            assert_eq!(old.adjacency(), &old_adjacency, "{case}: pinned adjacency");
            assert_eq!(
                old.positions_vec(),
                old_positions,
                "{case}: pinned positions"
            );
            let (was, is) = (before.value.info().safety(), after.value.info().safety());
            let repinned: Vec<NodeId> = before
                .value
                .network()
                .node_ids()
                .filter(|&u| was.is_pinned(u) != is.is_pinned(u))
                .collect();
            batches += 1;
            pin_changed += usize::from(!repinned.is_empty());
            let moved = |u: &NodeId| moves.iter().any(|(m, _)| m == u);
            bystander_pin_changed += usize::from(repinned.iter().any(|u| !moved(u)));
        }
    }
    eprintln!(
        "{batches} batches: {pin_changed} changed a pin, {bystander_pin_changed} a non-mover's pin"
    );
    assert!(pin_changed > 0, "no batch changed a pin");
    assert!(
        bystander_pin_changed > 0,
        "no batch changed a non-mover's pin"
    );
}

/// Two threads applying single-node moves at once lose none of them:
/// each publish derives from the epoch the other's last publish left,
/// so after 100 moves the service is at epoch 100 with every node at
/// its target.
#[test]
fn concurrent_movers_lose_no_moves() {
    let cfg = DeploymentConfig::paper_default(400);
    let net = Network::from_positions(cfg.deploy_uniform(11), cfg.radius, cfg.area);
    let targets: Vec<(NodeId, Point)> = (0..100)
        .map(|k| {
            let u = NodeId::new(4 * k);
            let p = net.position(u);
            (u, net.area().clamp_point(Point::new(p.x + 3.0, p.y - 2.0)))
        })
        .collect();
    let service = RoutingService::new(net);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for half in targets.chunks(50) {
            let (service, start) = (&service, &start);
            s.spawn(move || {
                start.wait();
                for &mv in half {
                    service.apply_moves(&[mv]);
                }
            });
        }
    });
    let pin = service.snapshot();
    let lost: Vec<NodeId> = targets
        .iter()
        .filter(|&&(u, to)| pin.value.network().position(u) != to)
        .map(|&(u, _)| u)
        .collect();
    assert_eq!((pin.epoch, lost.len()), (100, 0), "moves lost: {lost:?}");
}
