//! Unsafe-area shape estimation — `G_i(u)`, `u^{(1)}`, `u^{(2)}`, `E_i(u)`.
//!
//! §3: for a type-i unsafe node `u`, the *greedy region* `G_i(u)` holds
//! every type-i unsafe node reachable from `u` by type-i forwarding.
//! Scanning `G_i(u)` counter-clockwise, `u^{(1)}` and `u^{(2)}` are "the
//! farthest nodes that can be reached on the first and the last greedy
//! forwarding paths", and the unsafe area near `u` is estimated as the
//! rectangle `E_i(u) = [x_u : x_{u^{(1)}}, y_u : y_{u^{(2)}}]`.
//!
//! Algo. 2 computes the chains distributively: when `N(u) ∩ Q_i(u) = ∅`
//! then `u^{(1)} = u^{(2)} = u`; otherwise `u^{(1)} = v_1^{(1)}` and
//! `u^{(2)} = v_2^{(2)}` where `v_1`/`v_2` are the first/last type-i
//! unsafe neighbors in the counter-clockwise scan of `Q_i(u)`. We compute
//! the identical values centrally with one deepest-first engine: a
//! max-heap pops nodes in decreasing quadrant depth (every chain step
//! strictly increases `s_x·x + s_y·y`, so a node's chain targets settle
//! before it), and a node whose estimate changed queues its unsafe
//! predecessors. Each pop reads `v_1` and `v_2` in one pass
//! ([`sp_geom::quadrant_ends`]), without sorting. [`ShapeMap::build`]
//! seeds it with every unsafe node; a mobility epoch seeds it with the
//! nodes its batch touched, starting from the previous epoch's
//! estimates.
//!
//! The paper spells out the corner assignment for type 1 only, where the
//! first-scanned chain hugs the x-axis and the last hugs the y-axis. For
//! types 2 and 4 the scan starts at the *y*-axis, so the roles swap:
//! there the x-extent comes from `u^{(2)}` and the y-extent from
//! `u^{(1)}`. In every type, the chain nearer the x-axis supplies the
//! x-extent. That rule lives in one constructor, `ShapeEstimate::new`,
//! which the estimate engine, the exact oracle
//! ([`ShapeMap::build_exact`]) and the distributed protocol's assembly
//! ([`crate::distributed`]) all call.

use crate::SafetyMap;
use sp_geom::{quadrant_ends, Point, Quadrant, Rect, Vec2};
use sp_net::{Network, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The estimated shape of the unsafe area seen from one type-i unsafe
/// node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeEstimate {
    /// `u^{(1)}`: far end of the first-scanned greedy chain.
    pub first_far: NodeId,
    /// `u^{(2)}`: far end of the last-scanned greedy chain.
    pub last_far: NodeId,
    /// `E_i(u)`: the rectangle estimating the unsafe area.
    pub rect: Rect,
    /// The corner of `E_i(u)` opposite `u`.
    pub far_corner: Point,
}

impl ShapeEstimate {
    /// `E_q(u)` for a type-`q` unsafe node at `pu` whose chains end at
    /// `first` (`u^{(1)}`) and `last` (`u^{(2)}`), each with its location.
    /// This is the one home of the per-type corner rule: the chain nearer
    /// the x-axis supplies the x-extent. For types I/III the scan starts
    /// on the x-axis, so that is the *first* chain; for types II/IV the
    /// scan starts on the y-axis, so it is the *last*.
    pub(crate) fn new(
        q: Quadrant,
        pu: Point,
        first: (NodeId, Point),
        last: (NodeId, Point),
    ) -> ShapeEstimate {
        let ((first_far, pf), (last_far, pl)) = (first, last);
        let far_corner = match q {
            Quadrant::I | Quadrant::III => Point::new(pf.x, pl.y),
            Quadrant::II | Quadrant::IV => Point::new(pl.x, pf.y),
        };
        ShapeEstimate {
            first_far,
            last_far,
            rect: Rect::from_corners(pu, far_corner),
            far_corner,
        }
    }
}

/// Shape estimates for every (node, type) pair that is unsafe.
///
/// Only type-i unsafe nodes carry `E_i(u)` (§3), and on paper fields
/// they are a few percent of the (node, type) pairs. So each type keeps
/// the estimates that exist in one dense arena, plus one `u32` slot a
/// node pointing into it: a derived epoch clones 16 bytes a node of
/// slots and the estimates themselves, and a lookup is two loads.
#[derive(Debug, Clone)]
pub struct ShapeMap {
    per_type: [Estimates; 4],
}

/// One type's estimates: `slot[u]` is `u`'s place in `arena`, or
/// [`NO_SLOT`] when `u` carries none. The arena is in no particular
/// order: removing an entry moves the last one into its place.
#[derive(Debug, Clone)]
struct Estimates {
    slot: Vec<u32>,
    arena: Vec<(NodeId, ShapeEstimate)>,
}

/// The slot of a node without an estimate. No arena grows this long,
/// so looking the slot up finds nothing.
const NO_SLOT: u32 = u32::MAX;

impl Estimates {
    /// No estimates over `n` nodes, with room for `capacity` of them.
    fn empty(n: usize, capacity: usize) -> Estimates {
        Estimates {
            slot: vec![NO_SLOT; n],
            arena: Vec::with_capacity(capacity),
        }
    }

    fn get(&self, u: NodeId) -> Option<&ShapeEstimate> {
        let at = self.slot[u.index()];
        self.arena.get(at as usize).map(|(_, estimate)| estimate)
    }

    fn set(&mut self, u: NodeId, estimate: ShapeEstimate) {
        let at = &mut self.slot[u.index()];
        match self.arena.get_mut(*at as usize) {
            Some(entry) => entry.1 = estimate,
            None => {
                *at = self.arena.len() as u32;
                self.arena.push((u, estimate));
            }
        }
    }

    fn remove(&mut self, u: NodeId) {
        let at = std::mem::replace(&mut self.slot[u.index()], NO_SLOT) as usize;
        if at < self.arena.len() {
            self.arena.swap_remove(at);
            if let Some(&(moved, _)) = self.arena.get(at) {
                self.slot[moved.index()] = at as u32;
            }
        }
    }
}

impl ShapeMap {
    /// Computes every estimate from a stabilized [`SafetyMap`]: the
    /// estimate engine seeded with every unsafe `(node, type)` pair over
    /// an empty map.
    pub fn build(net: &Network, safety: &SafetyMap) -> ShapeMap {
        let per_type = Quadrant::ALL.map(|q| {
            let seeds = safety.unsafe_nodes(q);
            let mut estimates = Estimates::empty(net.len(), seeds.len());
            settle(net, safety, q, &mut estimates, seeds);
            estimates
        });
        ShapeMap { per_type }
    }

    /// Epoch `k + 1`'s estimates over `net` and `safety`, derived from
    /// `self`, epoch `k`'s estimates. `touched` lists every node whose
    /// neighborhood the topology delta changed: the requeried nodes and
    /// their neighbors in both epochs. `flipped` lists every node whose
    /// tuple the labeling repair changed in some round, plus the nodes a
    /// new pin raised to all-safe before it (`SafetyMap::derive`), so it
    /// holds every node whose tuple differs between the epochs. A node
    /// that flipped and flipped back is only an extra seed.
    ///
    /// Flipped nodes that are type-`q` safe lose their estimate. The
    /// engine is seeded with the type-`q` unsafe nodes of `touched` and
    /// `flipped`. Any other node keeps its neighborhood and the statuses
    /// of its `Q_q` neighbors: a type-`q` unsafe node with a `Q_q`
    /// neighbor whose status differs either is `touched` or has flipped
    /// itself (Definition 1). So its estimate can only change through a
    /// chain target's, which the engine propagates.
    pub(crate) fn derive(
        &self,
        net: &Network,
        safety: &SafetyMap,
        touched: &[NodeId],
        flipped: &[NodeId],
    ) -> ShapeMap {
        let mut shapes = self.clone();
        for q in Quadrant::ALL {
            let estimates = &mut shapes.per_type[q.array_index()];
            for &u in flipped {
                if safety.is_safe(u, q) {
                    estimates.remove(u);
                }
            }
            let seeds = touched.iter().chain(flipped).copied();
            let seeds = seeds.filter(|&u| !safety.is_safe(u, q));
            settle(net, safety, q, estimates, seeds);
        }
        shapes
    }

    /// Computes the **exact** unsafe-area shapes: for every unsafe
    /// `(u, q)` the tight bounding box of the true greedy region
    /// `G_q(u)`, instead of the two-chain estimate of Algorithm 2.
    ///
    /// This is the paper's §6 future work ("a further study on more
    /// accurate information for unsafe areas") made concrete, and the
    /// oracle that ablation A14 measures the two-chain estimate
    /// against. The chain endpoints reported are the region nodes
    /// attaining the box extremes, mapped with the same per-type corner
    /// convention as [`ShapeMap::build`], so the result is a drop-in
    /// replacement (the estimate rectangle is always contained in the
    /// exact one — the chains walk inside the region).
    pub fn build_exact(net: &Network, safety: &SafetyMap) -> ShapeMap {
        let per_type = Quadrant::ALL.map(|q| {
            // The first-scanned chain hugs the scan's start axis and the
            // last one the axis a quarter turn on, so the region nodes
            // deepest along those axes stand in for `u^{(1)}` and
            // `u^{(2)}`.
            let start = q.scan_start_axis();
            let end = start.perp();
            let unsafe_nodes = safety.unsafe_nodes(q);
            let mut estimates = Estimates::empty(net.len(), unsafe_nodes.len());
            for u in unsafe_nodes {
                let region = greedy_region(net, safety, u, q);
                let pu = net.position(u);
                // The region node deepest along `axis`; ties break by id
                // for determinism.
                let deepest = |axis: Vec2| -> (NodeId, Point) {
                    let depth = |p: Point| axis.x * p.x + axis.y * p.y;
                    let mut best = (u, pu);
                    for &v in &region {
                        let pv = net.position(v);
                        if depth(pv) > depth(best.1) + 1e-12 {
                            best = (v, pv);
                        }
                    }
                    best
                };
                estimates.set(u, ShapeEstimate::new(q, pu, deepest(start), deepest(end)));
            }
            estimates
        });
        ShapeMap { per_type }
    }

    /// Wraps estimates computed elsewhere (the distributed protocol of
    /// [`crate::distributed`] produces them via message passing), one
    /// dense vector a type indexed by node id, packed into the sparse
    /// store.
    ///
    /// # Panics
    ///
    /// Panics if the four per-type vectors have different lengths.
    pub fn from_estimates(per_type: [Vec<Option<ShapeEstimate>>; 4]) -> ShapeMap {
        let n = per_type[0].len();
        assert!(
            per_type.iter().all(|v| v.len() == n),
            "per-type estimate vectors must have equal lengths"
        );
        let per_type = per_type.map(|dense| {
            let mut estimates = Estimates::empty(n, dense.iter().flatten().count());
            for (i, estimate) in dense.into_iter().enumerate() {
                if let Some(estimate) = estimate {
                    estimates.set(NodeId::new(i), estimate);
                }
            }
            estimates
        });
        ShapeMap { per_type }
    }

    /// `E_i(u)` and its chain endpoints, or `None` when `u` is type-`q`
    /// safe (safe nodes carry no estimate). Two loads, no allocation:
    /// SLGF2 reads it for `u` and every neighbor on each safe hop.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    // sp-analyze: allow(index, the array has one entry per quadrant and `u` is a node of this map)
    pub fn estimate(&self, u: NodeId, q: Quadrant) -> Option<&ShapeEstimate> {
        self.per_type[q.array_index()].get(u)
    }

    /// Number of (node, type) estimates stored.
    pub fn len(&self) -> usize {
        self.per_type.iter().map(|e| e.arena.len()).sum()
    }

    /// True when no node is unsafe in any type.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held by the slots and the estimate arenas (by length,
    /// not capacity, so the metric is layout-determined and stable).
    pub fn heap_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(NodeId, ShapeEstimate)>();
        (self.per_type.iter())
            .map(|e| e.slot.len() * std::mem::size_of::<u32>() + e.arena.len() * entry)
            .sum()
    }
}

/// The estimate engine behind [`ShapeMap::build`] and
/// [`ShapeMap::derive`], for type `q`: pops the deepest queued node,
/// recomputes its estimate from its chain targets' (Algo. 2), and when
/// the estimate changed, queues the node's type-`q` unsafe predecessors.
///
/// A chain step goes strictly deeper (see [`Deepest`]), so every node
/// the popped one depends on is final by then. Each node pops at most
/// once: anything queued later is a predecessor of a node popped
/// earlier, so it is shallower than every node popped so far. Every
/// type-`q` unsafe node outside `seeds` must hold its estimate for
/// `safety` unless a chain target's estimate changes.
fn settle(
    net: &Network,
    safety: &SafetyMap,
    q: Quadrant,
    estimates: &mut Estimates,
    seeds: impl IntoIterator<Item = NodeId>,
) {
    let mut queued = vec![false; net.len()];
    let mut heap = BinaryHeap::new();
    for u in seeds {
        if !std::mem::replace(&mut queued[u.index()], true) {
            heap.push(Deepest::of(net, q, u));
        }
    }
    while let Some(Deepest { node: u, .. }) = heap.pop() {
        let pu = net.position(u);
        let unsafe_zone = net
            .neighbor_points(u)
            .filter(|&(v, _)| !safety.is_safe(NodeId::new(v), q));
        let (first, last) = match quadrant_ends(pu, q, unsafe_zone) {
            Some((v1, v2)) => {
                let first = estimates
                    .get(NodeId::new(v1))
                    .expect("chain target settled first (depth order)"); // sp-analyze: allow(panic, the deepest-first heap settles chain targets before their dependents)
                let last = estimates
                    .get(NodeId::new(v2))
                    .expect("chain target settled first (depth order)"); // sp-analyze: allow(panic, the deepest-first heap settles chain targets before their dependents)
                (first.first_far, last.last_far)
            }
            // Empty type-i forwarding zone: u is its own bound.
            None => (u, u),
        };
        let (pf, pl) = (net.position(first), net.position(last));
        let estimate = ShapeEstimate::new(q, pu, (first, pf), (last, pl));
        if estimates.get(u) != Some(&estimate) {
            estimates.set(u, estimate);
            // A full build queued every unsafe node up front: testing
            // `queued` first spares it the quadrant test.
            for (w, pw) in net.neighbor_points(u) {
                let w = NodeId::new(w);
                if !queued[w.index()] && !safety.is_safe(w, q) && Quadrant::of(pw, pu) == Some(q) {
                    queued[w.index()] = true;
                    heap.push(Deepest::of(net, q, w));
                }
            }
        }
    }
}

/// A node's place in [`settle`]'s deepest-first order for one type:
/// by the quadrant potential `s_x·x + s_y·y`, ties broken by `s_x·x`,
/// then `s_y·y`, then the smaller id. A chain step `u → v` with
/// `v ∈ Q_q(u)` never lowers `s_x·x` or `s_y·y` and raises one of them,
/// so `v` is strictly deeper even where the potential's sum rounds to a
/// tie.
#[derive(Debug, Clone, Copy)]
struct Deepest {
    key: [f64; 3],
    node: NodeId,
}

impl Deepest {
    fn of(net: &Network, q: Quadrant, node: NodeId) -> Deepest {
        let (sx, sy) = q.signs();
        let p = net.position(node);
        Deepest {
            key: [sx * p.x + sy * p.y, sx * p.x, sy * p.y],
            node,
        }
    }
}

impl Ord for Deepest {
    fn cmp(&self, other: &Deepest) -> Ordering {
        let [a, b] = [self.key, other.key];
        a[0].total_cmp(&b[0])
            .then(a[1].total_cmp(&b[1]))
            .then(a[2].total_cmp(&b[2]))
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Deepest {
    fn partial_cmp(&self, other: &Deepest) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Deepest {
    fn eq(&self, other: &Deepest) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Deepest {}

/// The exact greedy region `G_i(u)`: all type-`q` unsafe nodes reachable
/// from `u` through type-`q` unsafe nodes by steps into `Q_q` (used by
/// tests to validate the distributed chain computation; `u` itself is
/// included).
pub fn greedy_region(net: &Network, safety: &SafetyMap, u: NodeId, q: Quadrant) -> Vec<NodeId> {
    if safety.is_safe(u, q) {
        return Vec::new();
    }
    let mut seen = vec![false; net.len()];
    seen[u.index()] = true;
    let mut stack = vec![u];
    let mut out = vec![u];
    while let Some(a) = stack.pop() {
        let pa = net.position(a);
        for &b in net.neighbors(a) {
            if seen[b.index()] || safety.is_safe(b, q) {
                continue;
            }
            if Quadrant::of(pa, net.position(b)) == Some(q) {
                seen[b.index()] = true;
                out.push(b);
                stack.push(b);
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_geom::Rect as GRect;

    fn area() -> GRect {
        GRect::from_corners(Point::new(0.0, 0.0), Point::new(200.0, 200.0))
    }

    /// Fig. 3(b)-style: u at the SW tip of a NE-pointing unsafe wedge.
    ///
    /// Radius 17. Adjacency: u–n1, u–n2, n1–n2, n1–n4, n2–n3; the tips
    /// n3/n4 have empty NE zones, so type-1 unsafety cascades back to u.
    ///
    /// ```text
    ///        n3(20,34)          <- far end of the "last" (north) chain
    ///    n2(15,22)
    ///  u=n0(10,10) n1(22,15) n4(34,20)  <- far end of "first" (east) chain
    /// ```
    fn wedge() -> (Network, SafetyMap) {
        let net = Network::from_positions(
            vec![
                Point::new(10.0, 10.0), // 0 = u
                Point::new(22.0, 15.0), // 1 first chain hop (nearer east)
                Point::new(15.0, 22.0), // 2 last chain hop (nearer north)
                Point::new(20.0, 34.0), // 3 far north tip
                Point::new(34.0, 20.0), // 4 far east tip
            ],
            17.0,
            area(),
        );
        let map = SafetyMap::label_with_pinned(&net, vec![false; 5]);
        (net, map)
    }

    #[test]
    fn wedge_is_type1_unsafe_throughout() {
        let (net, map) = wedge();
        for u in net.node_ids() {
            assert!(
                !map.is_safe(u, Quadrant::I),
                "{u} should be type-1 unsafe: {}",
                map.tuple(u)
            );
        }
    }

    #[test]
    fn chains_follow_first_and_last_scan() {
        let (net, map) = wedge();
        let shapes = ShapeMap::build(&net, &map);
        let est = shapes.estimate(NodeId(0), Quadrant::I).expect("unsafe");
        // Check adjacency assumptions: u(0) sees 1 and 2 only.
        assert_eq!(net.neighbors(NodeId(0)).len(), 2);
        // First chain: 0 -> 1 -> 4 (east-hugging); last: 0 -> 2 -> 3.
        assert_eq!(est.first_far, NodeId(4));
        assert_eq!(est.last_far, NodeId(3));
        // E_1(u) = [x_u : x_{u(1)}, y_u : y_{u(2)}] = [10:34, 10:34].
        assert_eq!(
            est.rect,
            Rect::from_corners(Point::new(10.0, 10.0), Point::new(34.0, 34.0))
        );
        assert_eq!(est.far_corner, Point::new(34.0, 34.0));
    }

    #[test]
    fn tip_nodes_estimate_is_degenerate() {
        let (net, map) = wedge();
        let shapes = ShapeMap::build(&net, &map);
        // n3 and n4 have empty NE zones: their own location bounds.
        for tip in [NodeId(3), NodeId(4)] {
            let est = shapes.estimate(tip, Quadrant::I).unwrap();
            assert_eq!(est.first_far, tip);
            assert_eq!(est.last_far, tip);
            assert_eq!(est.rect.area(), 0.0);
        }
    }

    #[test]
    fn safe_nodes_have_no_estimate() {
        let (net, map) = wedge();
        let shapes = ShapeMap::build(&net, &map);
        // Type III looking back southwest: node 0 has no SW neighbor ->
        // type-3 unsafe; but nodes deeper in the wedge see 0.
        // Regardless: for a type where a node is safe, no estimate.
        for u in net.node_ids() {
            for q in Quadrant::ALL {
                assert_eq!(
                    shapes.estimate(u, q).is_some(),
                    !map.is_safe(u, q),
                    "estimate presence must match unsafety at {u} {q}"
                );
            }
        }
    }

    #[test]
    fn greedy_region_contains_chain_endpoints() {
        let (net, map) = wedge();
        let shapes = ShapeMap::build(&net, &map);
        let region = greedy_region(&net, &map, NodeId(0), Quadrant::I);
        assert_eq!(
            region,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        let est = shapes.estimate(NodeId(0), Quadrant::I).unwrap();
        assert!(region.contains(&est.first_far));
        assert!(region.contains(&est.last_far));
    }

    #[test]
    fn greedy_region_of_safe_node_is_empty() {
        let cfg = sp_net::DeploymentConfig::paper_default(300);
        let net = Network::from_positions(cfg.deploy_uniform(4), cfg.radius, cfg.area);
        let map = SafetyMap::label(&net);
        let safe = net
            .node_ids()
            .find(|&u| map.tuple(u).fully_safe())
            .expect("dense net has safe nodes");
        assert!(greedy_region(&net, &map, safe, Quadrant::I).is_empty());
    }

    #[test]
    fn estimates_on_random_networks_are_well_formed() {
        let cfg = sp_net::DeploymentConfig::paper_default(450);
        for seed in 0..3 {
            let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
            let map = SafetyMap::label(&net);
            let shapes = ShapeMap::build(&net, &map);
            for u in net.node_ids() {
                for q in Quadrant::ALL {
                    let Some(est) = shapes.estimate(u, q) else {
                        continue;
                    };
                    let region = greedy_region(&net, &map, u, q);
                    assert!(region.contains(&est.first_far), "u(1) outside G_i(u)");
                    assert!(region.contains(&est.last_far), "u(2) outside G_i(u)");
                    assert!(est.rect.contains(net.position(u)));
                    assert!(est.rect.contains(est.far_corner));
                    // Chain endpoints are themselves type-q unsafe.
                    assert!(!map.is_safe(est.first_far, q));
                    assert!(!map.is_safe(est.last_far, q));
                }
            }
        }
    }

    #[test]
    fn exact_shapes_contain_the_chain_estimates() {
        // The chains walk inside G_i(u), so the Algorithm-2 rectangle is
        // always a sub-rectangle of the exact bounding box.
        let cfg = sp_net::DeploymentConfig::paper_default(400);
        for seed in 0..3 {
            let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
            let map = SafetyMap::label(&net);
            let est = ShapeMap::build(&net, &map);
            let exact = ShapeMap::build_exact(&net, &map);
            let mut total = 0usize;
            let mut equal = 0usize;
            for u in net.node_ids() {
                for q in Quadrant::ALL {
                    match (est.estimate(u, q), exact.estimate(u, q)) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            total += 1;
                            assert!(
                                b.rect.contains_rect(&a.rect),
                                "estimate {} not inside exact {} at {u} {q}",
                                a.rect,
                                b.rect
                            );
                            if a.rect == b.rect {
                                equal += 1;
                            }
                        }
                        _ => panic!("presence mismatch at {u} {q}"),
                    }
                }
            }
            // Theorem 2 calls the estimate "accurate": most shapes
            // must coincide exactly with the true region box.
            assert!(
                equal * 2 > total,
                "seed {seed}: only {equal}/{total} estimates exact"
            );
        }
    }

    #[test]
    fn exact_shape_on_wedge_matches_estimate() {
        let (net, map) = wedge();
        let est = ShapeMap::build(&net, &map)
            .estimate(NodeId(0), Quadrant::I)
            .copied();
        let exact = ShapeMap::build_exact(&net, &map)
            .estimate(NodeId(0), Quadrant::I)
            .copied();
        // The wedge's chains reach both extremes: estimate == exact.
        assert_eq!(est.unwrap().rect, exact.unwrap().rect);
        assert_eq!(est.unwrap().far_corner, exact.unwrap().far_corner);
    }

    #[test]
    fn removing_from_the_middle_of_an_arena_keeps_the_rest() {
        let cfg = sp_net::DeploymentConfig::paper_default(450);
        let net = Network::from_positions(cfg.deploy_uniform(5), cfg.radius, cfg.area);
        let map = SafetyMap::label(&net);
        let full = ShapeMap::build(&net, &map);
        let unsafe_pairs = net
            .node_ids()
            .flat_map(|u| Quadrant::ALL.map(|q| !map.is_safe(u, q)))
            .filter(|&unsafe_pair| unsafe_pair)
            .count();
        assert_eq!(full.len(), unsafe_pairs);
        let mut shapes = full.clone();
        let estimates = &mut shapes.per_type[Quadrant::I.array_index()];
        assert!(estimates.arena.len() >= 3, "too few type-1 estimates");
        let (gone, _) = estimates.arena[estimates.arena.len() / 2];
        estimates.remove(gone);
        assert_eq!(shapes.len(), unsafe_pairs - 1);
        for u in net.node_ids() {
            for q in Quadrant::ALL {
                let want = full
                    .estimate(u, q)
                    .filter(|_| (u, q) != (gone, Quadrant::I));
                assert_eq!(shapes.estimate(u, q), want, "estimate at {u} {q}");
            }
        }
    }

    #[test]
    fn even_type_corner_mapping_swaps_roles() {
        // The wedge mirrored about x = 100 points northwest (type II).
        let net = Network::from_positions(
            vec![
                Point::new(190.0, 10.0), // 0 = u
                Point::new(178.0, 15.0), // 1 west-hugging chain hop
                Point::new(185.0, 22.0), // 2 north-hugging chain hop
                Point::new(180.0, 34.0), // 3 far north tip
                Point::new(166.0, 20.0), // 4 far west tip
            ],
            17.0,
            area(),
        );
        let map = SafetyMap::label_with_pinned(&net, vec![false; 5]);
        assert!(!map.is_safe(NodeId(0), Quadrant::II));
        let shapes = ShapeMap::build(&net, &map);
        let est = shapes.estimate(NodeId(0), Quadrant::II).unwrap();
        // Q2's CCW scan starts at north: first = north-hugging n2 chain
        // (ending n3), last = west-hugging n1 chain (ending n4).
        assert_eq!(est.first_far, NodeId(3));
        assert_eq!(est.last_far, NodeId(4));
        // x-extent from the last (west-hugging) chain, y-extent from the
        // first (north-hugging) chain.
        assert_eq!(est.far_corner, Point::new(166.0, 34.0));
        assert_eq!(
            est.rect,
            Rect::from_corners(Point::new(190.0, 10.0), Point::new(166.0, 34.0))
        );
    }
}
