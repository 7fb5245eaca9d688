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
//! every epoch a MOVE or a CHAOS derives from the previous one equals a
//! full `SafetyInfo::build` of its network, in tuples, pinned mask and
//! every shape estimate, and its adjacency equals a brute-force
//! reference at the moved positions without the down nodes' links and
//! the links an open cut chord meets, while the pinned previous epoch
//! stays as it was. A fourth holds writers to each other: two threads
//! applying moves at once lose none of them. A fifth holds CHAOS and
//! MOVE to one world: a CHAOS keeps earlier moves, and a MOVE keeps the
//! plan in force.

use proptest::prelude::*;
use sp_core::{
    RoutingService, SafetyInfo, ServiceSnapshot, ShapeEstimate, TrafficEngine, TrafficReport,
};
use sp_geom::{Point, Quadrant, Segment};
use sp_net::{deploy::DeploymentConfig, FaModel, Network, NodeId};
use sp_sim::{ChaosPlan, CutWindow};

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

/// Every `(node, type)` estimate of `snapshot`, in node and type order.
fn estimates_of(snapshot: &ServiceSnapshot) -> Vec<Option<ShapeEstimate>> {
    let info = snapshot.info();
    (snapshot.network().node_ids())
        .flat_map(|u| Quadrant::ALL.map(|q| info.estimate(u, q).copied()))
        .collect()
}

/// A random plan over `net`: one to six kills in rounds 0–5, about half
/// of them revived one to three rounds later, and one or two cut
/// windows of one to three rounds, each chord spanning the area
/// across, spanning it top to bottom, or joining two random points
/// around it.
fn random_plan(net: &Network, rng: &mut SplitMix) -> ChaosPlan {
    let mut plan = ChaosPlan::new();
    for _ in 0..1 + rng.below(6) {
        let (u, at) = (NodeId::new(rng.below(net.len())), rng.below(6));
        plan.kill_at(at, u);
        if rng.below(2) == 0 {
            plan.revive_at(at + 1 + rng.below(3), u);
        }
    }
    let (lo, hi) = (net.area().min(), net.area().max());
    for _ in 0..1 + rng.below(2) {
        let (a, b) = match rng.below(3) {
            0 => {
                let y = rng.within(lo.y, hi.y);
                (Point::new(lo.x - 10.0, y), Point::new(hi.x + 10.0, y))
            }
            1 => {
                let x = rng.within(lo.x, hi.x);
                (Point::new(x, lo.y - 10.0), Point::new(x, hi.y + 10.0))
            }
            _ => {
                let mut around = || {
                    let x = rng.within(lo.x - 20.0, hi.x + 20.0);
                    Point::new(x, rng.within(lo.y - 20.0, hi.y + 20.0))
                };
                (around(), around())
            }
        };
        let from_round = rng.below(6);
        let until_round = from_round + 1 + rng.below(3);
        plan.add_cut(CutWindow {
            a,
            b,
            from_round,
            until_round,
        });
    }
    plan
}

/// `p` mirrored across the line through chord `c`.
fn reflect(p: Point, c: Segment) -> Point {
    let d = c.b - c.a;
    let foot = c.a + d * ((p - c.a).dot(d) / d.norm_sq());
    foot + (foot - p)
}

/// Movers that test a plan in force: one jumping across an open chord
/// and one landing beside a down node, when `net` has them.
fn plan_movers(net: &Network, rng: &mut SplitMix, grid: f64) -> Vec<(NodeId, Point)> {
    let mut out = Vec::new();
    if let Some(&c) = net.chords().first() {
        let u = NodeId::new(rng.below(net.len()));
        let to = net.area().clamp_point(reflect(net.position(u), c));
        out.push((u, snap(to, grid)));
    }
    if let Some(&d) = net.down().get(rng.below(net.down().len().max(1))) {
        let (u, p) = (NodeId::new(rng.below(net.len())), net.position(d));
        let to = net
            .area()
            .clamp_point(Point::new(p.x + 0.3 * net.radius(), p.y));
        out.push((u, snap(to, grid)));
    }
    out
}

/// The reference adjacency, pair by pair: `u` and `v` are linked when
/// they are at most `radius` apart, neither is down, and no open chord
/// meets the segment between them.
fn reference_lists(
    positions: &[Point],
    radius: f64,
    down: &[NodeId],
    chords: &[Segment],
) -> Vec<Vec<NodeId>> {
    let mut lists = vec![Vec::new(); positions.len()];
    let up = |i: usize| !down.contains(&NodeId::new(i));
    for i in (0..positions.len()).filter(|&i| up(i)) {
        for j in (i + 1..positions.len()).filter(|&j| up(j)) {
            let link = Segment::new(positions[i], positions[j]);
            let cut = chords.iter().any(|c| link.intersects(c));
            if positions[i].distance_sq(positions[j]) <= radius * radius && !cut {
                lists[i].push(NodeId::new(j));
                lists[j].push(NodeId::new(i));
            }
        }
    }
    lists
}

/// What the mixed sweep of [`derived_epochs_equal_full_builds`]
/// exercised.
#[derive(Debug, Default)]
struct Sweep {
    moves: usize,
    chaos: usize,
    pin_changed: usize,
    bystander_pin_changed: usize,
    opened: usize,
    closed: usize,
    revived: usize,
    crossed_chord: usize,
    beside_down: usize,
}

/// Every epoch a MOVE or a CHAOS derives from the previous one is
/// bit-identical to a full build, over IA and FA fields of 20–420 nodes
/// at both densities, lattice-snapped or not. MOVE batches jump movers
/// anywhere, across an open chord and next to a down node; CHAOS
/// publishes move the field to a random plan's state at a random round
/// (or to a quiet plan's), so nodes go down and come back and cut
/// windows open and close in any order. After every publish the
/// adjacency equals [`reference_lists`] at the tracked positions, down
/// set and open chords, and the pinned previous epoch is unchanged. The
/// sweep must also change pins, including a pin of a node that did not
/// move (a hull vertex appears or vanishes), since that is where a
/// derived epoch departs most from its parent. It is a seeded sweep
/// rather than a `proptest!` block so that it can count what it
/// exercised over all of its publishes.
#[test]
fn derived_epochs_equal_full_builds() {
    const FIELDS: u64 = 160;
    const STEPS: usize = 9;
    let mut rng = SplitMix(0x5EED);
    let mut sweep = Sweep::default();
    for field in 0..FIELDS {
        let n = 20 + rng.below(401);
        let (fa, dense) = (field % 2 == 1, field % 4 >= 2);
        let grid = [0.0, 0.0, 2.0, 8.0][rng.below(4)];
        let service = RoutingService::new(mobility_field(n, field, fa, dense, grid));
        let plan = random_plan(service.snapshot().value.network(), &mut rng);
        // The down nodes and open chords the last CHAOS left in force.
        let (mut down, mut chords) = (Vec::new(), Vec::new());
        for step in 0..STEPS {
            let before = service.snapshot();
            let old = before.value.network();
            let (old_adjacency, old_positions) = (old.adjacency().clone(), old.positions_vec());
            let old_estimates = estimates_of(&before.value);
            let (old_down, old_chords) = (old.down().to_vec(), old.chords().to_vec());
            let mut moves = Vec::new();
            let what = if step % 3 == 1 {
                let round = rng.below(9);
                let plan = if rng.below(4) == 0 {
                    ChaosPlan::new()
                } else {
                    plan.clone()
                };
                down = plan.dead_as_of(round);
                chords = (plan.cuts().iter())
                    .filter(|c| c.active_at(round))
                    .map(|c| Segment::new(c.a, c.b))
                    .collect();
                service.apply_chaos(|_| plan, round);
                sweep.chaos += 1;
                format!("chaos at round {round}")
            } else {
                moves = random_batch(old, &mut rng, grid);
                moves.extend(plan_movers(old, &mut rng, grid));
                service.apply_moves(&moves);
                sweep.moves += 1;
                format!("moves {moves:?}")
            };
            let after = service.snapshot();
            let case = format!(
                "field {field} (n {n}, fa {fa}, dense {dense}, grid {grid}), step {step}: {what}"
            );
            assert_equals_full_build(&after.value, &case);
            let mut positions = old_positions.clone();
            for &(u, to) in &moves {
                positions[u.index()] = to;
            }
            let net = after.value.network();
            assert_eq!(net.positions_vec(), positions, "{case}: positions");
            assert_eq!(net.down(), down.as_slice(), "{case}: down set");
            assert_eq!(net.chords().len(), chords.len(), "{case}: open chords");
            assert!(chords.iter().all(|c| net.chords().contains(c)), "{case}");
            let reference = reference_lists(&positions, net.radius(), &down, &chords);
            for u in net.node_ids() {
                assert_eq!(
                    net.neighbors(u),
                    reference[u.index()].as_slice(),
                    "{case}: neighbors of {u}"
                );
            }
            assert_eq!(old.adjacency(), &old_adjacency, "{case}: pinned adjacency");
            assert_eq!(
                old.positions_vec(),
                old_positions,
                "{case}: pinned positions"
            );
            assert_eq!(old.down(), old_down.as_slice(), "{case}: pinned down set");
            assert_eq!(old.chords(), old_chords.as_slice(), "{case}: pinned chords");
            assert_eq!(
                estimates_of(&before.value),
                old_estimates,
                "{case}: pinned estimates"
            );

            sweep.opened += usize::from(chords.iter().any(|c| !old_chords.contains(c)));
            sweep.closed += usize::from(old_chords.iter().any(|c| !chords.contains(c)));
            sweep.revived += usize::from(old_down.iter().any(|u| !down.contains(u)));
            for &(u, to) in moves.iter().filter(|(u, _)| !down.contains(u)) {
                let path = Segment::new(old_positions[u.index()], to);
                sweep.crossed_chord += usize::from(chords.iter().any(|c| path.intersects(c)));
                let beside =
                    |d: &NodeId| *d != u && positions[d.index()].distance(to) <= net.radius();
                sweep.beside_down += usize::from(down.iter().any(beside));
            }
            if moves.is_empty() {
                continue;
            }
            let (was, is) = (before.value.info().safety(), after.value.info().safety());
            let repinned: Vec<NodeId> = net
                .node_ids()
                .filter(|&u| was.is_pinned(u) != is.is_pinned(u))
                .collect();
            sweep.pin_changed += usize::from(!repinned.is_empty());
            let moved = |u: &NodeId| moves.iter().any(|(m, _)| m == u);
            sweep.bystander_pin_changed += usize::from(repinned.iter().any(|u| !moved(u)));
        }
    }
    eprintln!("{sweep:?}");
    assert!(sweep.pin_changed > 0, "no batch changed a pin");
    assert!(
        sweep.bystander_pin_changed > 0,
        "no batch changed a non-mover's pin"
    );
    assert!(
        sweep.opened > 0 && sweep.closed > 0,
        "no chord opened or closed"
    );
    assert!(sweep.revived > 0, "no node came back");
    assert!(sweep.crossed_chord > 0, "no mover crossed an open chord");
    assert!(sweep.beside_down > 0, "no mover landed beside a down node");
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

/// The neighbors of every node in `net` equal those in `want`.
fn assert_same_adjacency(net: &Network, want: &Network, case: &str) {
    for u in net.node_ids() {
        assert_eq!(
            net.neighbors(u),
            want.neighbors(u),
            "{case}: neighbors of {u}"
        );
    }
}

/// A CHAOS degrades the topology at the current positions: even a quiet
/// plan after a MOVE publishes the mover where it moved to, with the
/// adjacency of a rebuild there.
#[test]
fn chaos_after_move_keeps_the_move() {
    let net = prepared(41);
    let mover = NodeId(7);
    let p = net.position(mover);
    let to = net.area().clamp_point(Point::new(p.x + 9.0, p.y + 4.0));
    let service = RoutingService::new(net);
    service.apply_moves(&[(mover, to)]);
    service.apply_chaos(|_| ChaosPlan::new(), 0);
    let pin = service.snapshot();
    let net = pin.value.network();
    assert_eq!(net.position(mover), to, "the CHAOS reverted the MOVE");
    let rebuilt =
        Network::from_positions_brute_force(net.positions_vec(), net.radius(), net.area());
    assert_same_adjacency(net, &rebuilt, "quiet chaos after a move");
    assert_equals_full_build(&pin.value, "quiet chaos after a move");
}

/// A MOVE after a CHAOS keeps the plan in force: a node moved next to a
/// killed one gives it no edge, the topology equals the plan applied to
/// a rebuild at the moved positions, and the derived labels equal a
/// full build.
#[test]
fn move_after_chaos_keeps_the_dead_isolated() {
    let net = prepared(43);
    let victim = net.largest_component()[0];
    let mut plan = ChaosPlan::new();
    plan.kill_at(1, victim);
    let service = RoutingService::new(net.clone());
    service.apply_chaos(|_| plan.clone(), 1);
    let mover = net
        .node_ids()
        .find(|&u| u != victim && !net.has_edge(u, victim))
        .expect("a node out of the victim's range");
    let pv = net.position(victim);
    let to = net.area().clamp_point(Point::new(pv.x + 1.0, pv.y + 1.0));
    service.apply_moves(&[(mover, to)]);
    let pin = service.snapshot();
    let moved = pin.value.network();
    assert_eq!(moved.degree(victim), 0, "the dead node got an edge");
    let rebuilt = Network::from_positions(moved.positions_vec(), moved.radius(), moved.area());
    let degraded = rebuilt.derive(&plan.delta(&rebuilt, 1)).0;
    assert_same_adjacency(moved, &degraded, "move after chaos");
    assert_equals_full_build(&pin.value, "move after chaos");
}
