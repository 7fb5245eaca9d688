//! The unit-disk-graph [`Network`] type.
//!
//! `G = (V, E)` of §3: vertices are deployed nodes, an undirected edge
//! joins every pair within communication range. The type also provides the
//! *reference* measurements the evaluation needs — BFS hop distances and
//! Dijkstra Euclidean shortest paths ("ideal routing path" in Fig. 1(a)) —
//! and connectivity queries used to filter valid source/destination pairs.
//!
//! The dynamic factors of §1 — node failures, jamming, mobility — all
//! change the links of a known set of nodes, so one [`TopologyDelta`]
//! carries each of them (movers, nodes going down, nodes coming back,
//! cut chords opened or closed) and one repair applies it
//! ([`Network::derive`]). A network records its down nodes and open
//! chords, so every later delta keeps them in force: an edge exists
//! exactly when its endpoints are in range, both are up, and no open
//! chord meets it.

use crate::{CsrAdjacency, NodeId, NodeRemap, PositionTable, SpatialIndex};
use sp_geom::{Point, Rect, Segment};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// An immutable wireless ad hoc sensor network snapshot.
///
/// Construction bucket-indexes the positions into a [`SpatialIndex`]
/// (cell size = radio radius) and materializes one sorted
/// [`CsrAdjacency`] edge arena from `O(n · k)` cell lookups; the index
/// stays attached to the network ([`Network::index`]) so
/// planarization, routing heuristics, and deployment tooling can issue
/// further range queries without rebuilding anything. All
/// queries are read-only, so a `Network` can be shared freely across
/// threads.
///
/// ```
/// use sp_net::Network;
/// use sp_geom::{Point, Rect};
///
/// let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
/// let net = Network::from_positions(
///     vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(25.0, 0.0)],
///     20.0,
///     area,
/// );
/// assert!(net.has_edge(sp_net::NodeId(0), sp_net::NodeId(1)));
/// assert!(!net.has_edge(sp_net::NodeId(0), sp_net::NodeId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    // One contiguous CSR arena; `neighbors(u)` is a slice into it.
    adjacency: CsrAdjacency,
    // The position table lives in (and is shared with) the index; all
    // position accessors delegate, so incremental moves applied through
    // the index are never observed half-synced.
    index: SpatialIndex,
    // The nodes down, ascending, and the open cut chords: every delta
    // keeps them in force until a later one lifts them.
    down: Vec<NodeId>,
    chords: Vec<Segment>,
    radius: f64,
    area: Rect,
}

impl Network {
    /// Builds the UDG over `positions` with communication `radius`,
    /// deployed in `area` (the paper's interest area).
    ///
    /// Adjacency is derived from a [`SpatialIndex`] with cell size
    /// `radius`, so construction is `O(n · k)` in the mean cell
    /// occupancy `k` rather than `O(n²)` pairwise checks (the
    /// brute-force reference survives as
    /// [`Network::from_positions_brute_force`]). Above
    /// [`sp_sync::PARALLEL_NODE_THRESHOLD`] nodes the cell-pair scan is
    /// sharded across threads ([`sp_sync::auto_threads`]) with output
    /// identical to the serial scan.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive.
    pub fn from_positions(positions: Vec<Point>, radius: f64, area: Rect) -> Network {
        Network::from_position_table(
            Arc::new(PositionTable::from_points(&positions)),
            radius,
            area,
        )
    }

    /// [`Network::from_positions`] over an already-shared
    /// structure-of-arrays [`PositionTable`], so callers holding an
    /// `Arc` (mobility snapshot scratch, repeated re-index of one
    /// deployment) skip the extra copy.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive.
    pub fn from_position_table(positions: Arc<PositionTable>, radius: f64, area: Rect) -> Network {
        assert!(radius > 0.0, "communication radius must be positive");
        let index = SpatialIndex::build_table(positions, area, radius);
        let threads = sp_sync::auto_threads(index.len());
        let adjacency = index.adjacency_within_threaded(radius, threads);
        Network {
            adjacency,
            index,
            down: Vec::new(),
            chords: Vec::new(),
            radius,
            area,
        }
    }

    /// The `O(n²)` pairwise reference construction.
    ///
    /// Kept *only* as the ground truth for equivalence tests and the
    /// `grid_vs_bruteforce` benchmark; production code paths must use
    /// [`Network::from_positions`].
    #[doc(hidden)]
    pub fn from_positions_brute_force(positions: Vec<Point>, radius: f64, area: Rect) -> Network {
        assert!(radius > 0.0, "communication radius must be positive");
        let r_sq = radius * radius;
        let mut lists: Vec<Vec<NodeId>> = vec![Vec::new(); positions.len()];
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                if positions[i].distance_sq(positions[j]) <= r_sq {
                    lists[i].push(NodeId::new(j));
                    lists[j].push(NodeId::new(i));
                }
            }
        }
        for list in &mut lists {
            list.sort_unstable();
        }
        let index = SpatialIndex::build_table(
            Arc::new(PositionTable::from_points(&positions)),
            area,
            radius,
        );
        Network {
            adjacency: CsrAdjacency::from_lists(&lists),
            index,
            down: Vec::new(),
            chords: Vec::new(),
            radius,
            area,
        }
    }

    /// The spatial index the network was built from (cell size =
    /// communication radius). Shared by planarization, mobility
    /// snapshots, and any caller needing range queries over the
    /// deployment:
    ///
    /// ```
    /// use sp_net::{deploy::DeploymentConfig, Network};
    /// use sp_geom::Point;
    ///
    /// let cfg = DeploymentConfig::paper_default(300);
    /// let net = Network::from_positions(cfg.deploy_uniform(1), cfg.radius, cfg.area);
    /// let gateway = net.index().within_radius(Point::new(0.0, 0.0), 2.0 * cfg.radius).next().unwrap();
    /// assert!(net.index().within_radius(net.position(gateway), cfg.radius).count() >= 1);
    /// ```
    pub fn index(&self) -> &SpatialIndex {
        &self.index
    }

    /// The CSR adjacency arena itself — for memory accounting and
    /// equivalence tests; routing code should go through
    /// [`Network::neighbors`].
    pub fn adjacency(&self) -> &CsrAdjacency {
        &self.adjacency
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The communication radius shared by all nodes.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The interest area the network was deployed in.
    pub fn area(&self) -> Rect {
        self.area
    }

    /// The nodes down, ascending. A down node keeps its id and position
    /// (the [`SpatialIndex`] still answers geometric queries over it) but
    /// has no links.
    pub fn down(&self) -> &[NodeId] {
        &self.down
    }

    /// Whether `u` is down.
    pub fn is_down(&self, u: NodeId) -> bool {
        self.down.binary_search(&u).is_ok()
    }

    /// The open cut chords: no link whose segment meets one exists.
    pub fn chords(&self) -> &[Segment] {
        &self.chords
    }

    /// Location `L(u)` of a node.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn position(&self, u: NodeId) -> Point {
        self.index.position(u)
    }

    /// All node positions in structure-of-arrays form, indexed by
    /// [`NodeId`].
    pub fn position_table(&self) -> &PositionTable {
        self.index.positions()
    }

    /// All node positions materialized as an array of points
    /// (allocates; prefer [`Network::position`] or
    /// [`Network::position_table`] in hot paths).
    pub fn positions_vec(&self) -> Vec<Point> {
        self.index.positions().to_points()
    }

    /// Neighbor set `N(u)`, sorted by id — a slice straight out of the
    /// CSR arena.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        self.adjacency.neighbors(u)
    }

    /// Neighbors of `u` paired with their positions — the candidate tuple
    /// shape the angular-scan helpers expect.
    pub fn neighbor_points(&self, u: NodeId) -> impl Iterator<Item = (usize, Point)> + '_ {
        self.adjacency
            .neighbors(u)
            .iter()
            .map(|&v| (v.index(), self.index.position(v)))
    }

    /// Degree `|N(u)|`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adjacency.degree(u)
    }

    /// Mean degree over all nodes (0 for an empty network).
    pub fn avg_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.adjacency.directed_len() as f64 / self.len() as f64
    }

    /// True when `(u, v)` is an edge (binary search on sorted adjacency).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adjacency.neighbors(u).binary_search(&v).is_ok()
    }

    /// Euclidean length of edge-or-not pair `(u, v)`.
    pub fn distance(&self, u: NodeId, v: NodeId) -> f64 {
        self.position(u).distance(self.position(v))
    }

    /// All undirected edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.len()).flat_map(move |i| {
            let u = NodeId::new(i);
            self.adjacency
                .neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.edge_count()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len()).map(NodeId::new)
    }

    /// BFS hop distance from `source` to every node
    /// (`None` = unreachable).
    pub fn bfs_hops(&self, source: NodeId) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.len()];
        let mut queue = std::collections::VecDeque::new();
        dist[source.index()] = Some(0);
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("queued nodes have distances"); // sp-analyze: allow(panic, BFS assigns dist before enqueueing every node)
            for &v in self.neighbors(u) {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// True when `s` and `d` are in the same connected component.
    pub fn connected(&self, s: NodeId, d: NodeId) -> bool {
        self.bfs_hops(s)[d.index()].is_some()
    }

    /// Ids of the largest connected component, sorted ascending.
    pub fn largest_component(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.len()];
        let mut best: Vec<NodeId> = Vec::new();
        for start in 0..self.len() {
            if seen[start] {
                continue;
            }
            let mut comp = vec![NodeId::new(start)];
            seen[start] = true;
            let mut head = 0;
            while head < comp.len() {
                let u = comp[head];
                head += 1;
                for &v in self.neighbors(u) {
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        comp.push(v);
                    }
                }
            }
            if comp.len() > best.len() {
                best = comp;
            }
        }
        best.sort_unstable();
        best
    }

    /// Dijkstra shortest path by Euclidean edge weight — the "ideal
    /// routing path" baseline of Fig. 1(a). Returns the node sequence
    /// (inclusive of both endpoints) and its length, or `None` when
    /// unreachable.
    pub fn shortest_path(&self, s: NodeId, d: NodeId) -> Option<(Vec<NodeId>, f64)> {
        #[derive(PartialEq)]
        struct Entry {
            cost: f64,
            node: NodeId,
        }
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Min-heap via reversed comparison; costs are finite.
                other
                    .cost
                    .total_cmp(&self.cost)
                    .then_with(|| other.node.cmp(&self.node))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = self.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[s.index()] = 0.0;
        heap.push(Entry { cost: 0.0, node: s });
        while let Some(Entry { cost, node }) = heap.pop() {
            if cost > dist[node.index()] {
                continue;
            }
            if node == d {
                break;
            }
            for &v in self.neighbors(node) {
                let next = cost + self.distance(node, v);
                if next < dist[v.index()] {
                    dist[v.index()] = next;
                    prev[v.index()] = Some(node);
                    heap.push(Entry {
                        cost: next,
                        node: v,
                    });
                }
            }
        }
        if dist[d.index()].is_infinite() {
            return None;
        }
        let mut path = vec![d];
        let mut cur = d;
        while let Some(p) = prev[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path.first(), Some(&s));
        Some((path, dist[d.index()]))
    }

    /// Total Euclidean length of a node sequence in this network.
    pub fn path_length(&self, path: &[NodeId]) -> f64 {
        path.windows(2).map(|w| self.distance(w[0], w[1])).sum()
    }

    /// A copy of the network with the given nodes also down (one
    /// [`Network::derive`]): ids and positions are preserved, so
    /// precomputed per-node information stays index-aligned, but every
    /// edge touching a down node is removed. Used by the
    /// failure-robustness experiments.
    pub fn without_nodes(&self, dead: &[NodeId]) -> Network {
        let delta = TopologyDelta {
            down: dead.to_vec(),
            ..TopologyDelta::default()
        };
        self.derive(&delta).0
    }

    /// The delta that takes this network to exactly `down` down and
    /// exactly `chords` open.
    pub fn delta_to(&self, down: &[NodeId], chords: &[Segment]) -> TopologyDelta {
        let mut target = down.to_vec();
        target.sort_unstable();
        fn missing<T: Copy>(from: &[T], lacks: impl Fn(&T) -> bool) -> Vec<T> {
            from.iter().copied().filter(|x| lacks(x)).collect()
        }
        TopologyDelta {
            moves: Vec::new(),
            down: missing(&target, |u| !self.is_down(*u)),
            up: missing(&self.down, |u| target.binary_search(u).is_err()),
            opened: missing(chords, |c| !self.chords.contains(c)),
            closed: missing(&self.chords, |c| !chords.contains(c)),
        }
    }

    /// A copy of the network relabeled into *spatial storage order*:
    /// node ids follow the grid cells row-major, so every grid-row tile
    /// occupies one contiguous id range in the position table and the
    /// CSR arena. Banded thread shards and frontier sweeps then touch
    /// disjoint, contiguous cache ranges. The returned [`NodeRemap`]
    /// translates between the original (external) ids and the sorted
    /// (internal) ids; the relabeled graph is isomorphic to the
    /// original under it.
    pub fn spatially_sorted(&self) -> (Network, NodeRemap) {
        let order = self.index.spatial_order();
        let positions = self.index.positions().permuted_by(&order);
        let remap = NodeRemap::from_order(order);
        let adjacency = self.adjacency.permuted(&remap);
        let index =
            SpatialIndex::build_table(Arc::new(positions), self.area, self.index.cell_size());
        let mut down: Vec<NodeId> = self.down.iter().map(|&u| remap.to_internal(u)).collect();
        down.sort_unstable();
        (
            Network {
                adjacency,
                index,
                down,
                chords: self.chords.clone(),
                radius: self.radius,
                area: self.area,
            },
            remap,
        )
    }

    /// Moves the given nodes to new positions and repairs adjacency
    /// incrementally (the [`Network::next_snapshot`] of `self`, put in
    /// its place): the grid cells are re-bucketed in one pass
    /// ([`SpatialIndex::moved`]), each distinct mover is range-queried
    /// once at its final position, and the arena is rewritten in one
    /// pass in which only the movers and their old and new neighbors do
    /// more than copy. A mobility tick where `m` of `n` nodes moved
    /// costs `m` range queries plus those copies instead of the
    /// rebuild's cell scan over all `n` nodes, and the result is
    /// identical to rebuilding from scratch at the new positions, with
    /// the down nodes and open chords kept in force. Duplicate ids are
    /// tolerated; the last position wins.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn apply_moves(&mut self, moves: &[(NodeId, Point)]) {
        *self = self.next_snapshot(moves);
    }

    /// The off-to-the-side mobility handoff for epoch-versioned
    /// serving: the next snapshot with `moves` applied (as by
    /// [`Network::apply_moves`]), leaving `self` untouched — readers
    /// keep routing on the old topology for as long as they hold it
    /// while the next epoch builds beside them.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn next_snapshot(&self, moves: &[(NodeId, Point)]) -> Network {
        self.derive(&TopologyDelta::moving(moves)).0
    }

    /// The next epoch with `delta` applied, leaving `self` untouched,
    /// and the nodes the repair requeried, ascending: every link that
    /// differs from this epoch's has one of them as an endpoint, so the
    /// safety information can be repaired around them. The adjacency equals a
    /// rebuild at the new positions with every link touching a down
    /// node and every link meeting an open chord removed. The next
    /// epoch's grid cells ([`SpatialIndex::moved`]) and arena are each
    /// written in one pass over this epoch's, copying every run that
    /// the delta leaves alone whole, and its position table is copied
    /// once a move lands.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn derive(&self, delta: &TopologyDelta) -> (Network, Vec<NodeId>) {
        let mut next = Network {
            adjacency: CsrAdjacency::empty(0),
            index: self.index.moved(&delta.moves),
            down: self.down.clone(),
            chords: self.chords.clone(),
            ..*self
        };
        let requeried = next.repair(&self.adjacency, delta);
        (next, requeried)
    }

    /// Writes the adjacency `old` becomes under `delta`, with the down
    /// set and open chords it leaves, and returns the requeried nodes,
    /// ascending. The index must already hold `delta`'s moves. The
    /// result is identical to a rebuild at the new positions without
    /// the links that touch a down node or meet an open chord.
    ///
    /// The requeried nodes are the movers, the nodes whose liveness
    /// flips, and the nodes within one radius of a chord that opens or
    /// closes: a link the chord meets is at most one radius long, so both
    /// its endpoints lie that close to the chord, and they are found from
    /// the grid cells along it ([`SpatialIndex::near_segment`]). Each
    /// requeried node that is up takes a fresh range query at its final
    /// position, keeping the neighbors that are up and linked across
    /// every open chord; a down one gets no links. The next arena is
    /// written in one pass over `old` ([`CsrAdjacency::patched`]): each
    /// run of untouched nodes is copied whole, a requeried node takes
    /// its fresh list, and every other node drops its requeried
    /// neighbors and merges in the ones now linked to it. Any other link
    /// keeps both its endpoints, their liveness and every chord it could
    /// meet, so it stays as it was.
    fn repair(&mut self, old: &CsrAdjacency, delta: &TopologyDelta) -> Vec<NodeId> {
        let mut requeried: Vec<NodeId> = delta.moves.iter().map(|&(u, _)| u).collect();
        let mut up = delta.up.clone();
        up.sort_unstable();
        let was_down = std::mem::take(&mut self.down);
        let failed = was_down.iter().chain(&delta.down).copied();
        let mut down: Vec<NodeId> = failed.filter(|u| up.binary_search(u).is_err()).collect();
        down.sort_unstable();
        down.dedup();
        let flipped =
            |u: &&NodeId| was_down.binary_search(*u).is_ok() != down.binary_search(*u).is_ok();
        requeried.extend(delta.down.iter().chain(&up).filter(flipped));
        self.down = down;
        self.chords.retain(|c| !delta.closed.contains(c));
        self.chords.extend_from_slice(&delta.opened);
        for &c in delta.closed.iter().chain(&delta.opened) {
            requeried.extend(self.index.near_segment(c, self.radius));
        }
        requeried.sort_unstable();
        requeried.dedup();

        // Whether up node `u` links to `v` in range: `v` is up, and the
        // link meets no open chord (tested from the smaller id, as a
        // rebuild lists it).
        let linked = |u: NodeId, v: NodeId| {
            let (a, b) = (u.min(v), u.max(v));
            let link = Segment::new(self.position(a), self.position(b));
            v != u && !self.is_down(v) && !self.chords.iter().any(|c| link.intersects(c))
        };
        let mut touch = vec![Touch::None; old.node_count()];
        for &u in &requeried {
            touch[u.index()] = Touch::Requeried;
        }
        // `(owner, neighbor)` pairs sorted by owner: each requeried
        // node's fresh list, and each other node's requeried nodes now
        // linked.
        let mut fresh: Vec<(NodeId, NodeId)> = Vec::new();
        let mut gained: Vec<(NodeId, NodeId)> = Vec::new();
        // Every node whose list is written rather than copied.
        let mut written = requeried.clone();
        for &u in &requeried {
            let start = fresh.len();
            if !self.is_down(u) {
                let found = self.index.within_radius(self.position(u), self.radius);
                fresh.extend(found.filter(|&v| linked(u, v)).map(|v| (u, v)));
                fresh[start..].sort_unstable();
            }
            let fresh_neighbors = fresh[start..].iter().map(|&(_, v)| v);
            for v in fresh_neighbors.chain(old.neighbors(u).iter().copied()) {
                if touch[v.index()] == Touch::None {
                    touch[v.index()] = Touch::Near;
                    written.push(v);
                }
            }
            for &(_, v) in &fresh[start..] {
                if touch[v.index()] != Touch::Requeried {
                    gained.push((v, u));
                }
            }
        }
        gained.sort_unstable();
        written.sort_unstable();
        let capacity = old.directed_len() + 2 * fresh.len();
        let (mut fresh, mut gained) = (fresh.as_slice(), gained.as_slice());
        self.adjacency = old.patched(&written, capacity, |v, edges| {
            match touch[v.index()] {
                Touch::Requeried => edges.extend(take_run(&mut fresh, v)),
                _ => {
                    // Merge the neighbors that stayed with the requeried
                    // nodes now linked; both runs are sorted.
                    let mut joined = take_run(&mut gained, v).peekable();
                    for &w in old.neighbors(v) {
                        if touch[w.index()] != Touch::Requeried {
                            while let Some(u) = joined.next_if(|&u| u < w) {
                                edges.push(u);
                            }
                            edges.push(w);
                        }
                    }
                    edges.extend(joined);
                }
            }
        });
        requeried
    }

    /// Byte-level accounting of the topology storage — the numbers the
    /// `bytes_per_node` bench metric reports and the CI gate watches.
    pub fn memory_footprint(&self) -> TopologyFootprint {
        TopologyFootprint {
            nodes: self.len(),
            csr_bytes: self.adjacency.heap_bytes(),
            position_bytes: self.position_table().heap_bytes(),
            grid_bytes: self.index.grid_heap_bytes(),
        }
    }
}

/// One epoch's change to a [`Network`]'s topology, from any writer:
/// mobility moves nodes, failures take nodes down and bring them back,
/// and partitions open and close cut chords. [`Network::derive`]
/// applies it in one repair, and the network keeps its down set and
/// open chords in force for every later delta.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopologyDelta {
    /// Nodes moving, with their new positions; the last entry per node
    /// wins.
    pub moves: Vec<(NodeId, Point)>,
    /// Nodes going down: they keep their ids and positions but lose
    /// every link.
    pub down: Vec<NodeId>,
    /// Nodes coming back up. Revivals land after failures, so a node in
    /// both lists ends up.
    pub up: Vec<NodeId>,
    /// Cut chords opening: while one is open, no link whose segment
    /// meets it exists.
    pub opened: Vec<Segment>,
    /// Cut chords closing: every open chord equal to one closes.
    pub closed: Vec<Segment>,
}

impl TopologyDelta {
    /// A delta that only moves nodes.
    pub fn moving(moves: &[(NodeId, Point)]) -> TopologyDelta {
        TopologyDelta {
            moves: moves.to_vec(),
            ..TopologyDelta::default()
        }
    }
}

/// What one delta does to a node's list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Touch {
    /// No requeried node among its old or new neighbors: the list is
    /// copied with its run of untouched nodes.
    None,
    /// An old or new neighbor of a requeried node: its requeried
    /// neighbors drop out and the ones now linked to it join.
    Near,
    /// Requeried: the list is a fresh range query.
    Requeried,
}

/// The values `owner` holds at the front of `pairs` (sorted by owner),
/// advancing `pairs` past them.
pub(crate) fn take_run<'a, K: Copy + PartialEq, V: Copy>(
    pairs: &mut &'a [(K, V)],
    owner: K,
) -> impl Iterator<Item = V> + 'a {
    let run = pairs.iter().take_while(|&&(o, _)| o == owner).count();
    let (mine, rest) = pairs.split_at(run);
    *pairs = rest;
    mine.iter().map(|&(_, v)| v)
}

/// Heap-byte breakdown of one [`Network`]'s topology storage, from
/// [`Network::memory_footprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyFootprint {
    /// Node count the per-node ratios divide by.
    pub nodes: usize,
    /// The CSR offset table plus edge arena.
    pub csr_bytes: usize,
    /// The structure-of-arrays position table.
    pub position_bytes: usize,
    /// The spatial-index grid cells.
    pub grid_bytes: usize,
}

impl TopologyFootprint {
    /// Total topology bytes per node (CSR adjacency + positions +
    /// grid); 0 for an empty network.
    pub fn bytes_per_node(&self) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        (self.csr_bytes + self.position_bytes + self.grid_bytes) as f64 / self.nodes as f64
    }

    /// CSR adjacency bytes per node alone — the arena the tentpole
    /// refactor shrank; 0 for an empty network.
    pub fn adjacency_bytes_per_node(&self) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        self.csr_bytes as f64 / self.nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area() -> Rect {
        Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    /// A 5-node line: 0-1-2-3 connected at spacing 10 (radius 15),
    /// node 4 isolated far away.
    fn line_net() -> Network {
        Network::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(20.0, 0.0),
                Point::new(30.0, 0.0),
                Point::new(90.0, 90.0),
            ],
            15.0,
            area(),
        )
    }

    #[test]
    fn adjacency_is_symmetric_and_sorted() {
        let net = line_net();
        for u in net.node_ids() {
            let neigh = net.neighbors(u);
            for w in neigh.windows(2) {
                assert!(w[0] < w[1], "adjacency must be sorted");
            }
            for &v in neigh {
                assert!(net.has_edge(v, u), "edge {u}-{v} must be symmetric");
                assert!(net.distance(u, v) <= net.radius());
            }
        }
    }

    #[test]
    fn no_self_loops() {
        let net = line_net();
        for u in net.node_ids() {
            assert!(!net.has_edge(u, u));
        }
    }

    #[test]
    fn edge_list_counts_each_edge_once() {
        let net = line_net();
        let edges: Vec<_> = net.edges().collect();
        assert_eq!(edges.len(), net.edge_count());
        // Spacing 10, radius 15: only consecutive line nodes are adjacent.
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(3)),
            ]
        );
    }

    #[test]
    fn edge_count_exact() {
        let net = line_net();
        assert_eq!(net.edge_count(), 3);
        assert_eq!(net.degree(NodeId(1)), 2);
        assert_eq!(net.degree(NodeId(4)), 0);
    }

    #[test]
    fn bfs_hops_line() {
        let net = line_net();
        let d = net.bfs_hops(NodeId(0));
        assert_eq!(d[0], Some(0));
        assert_eq!(d[1], Some(1));
        assert_eq!(d[2], Some(2));
        assert_eq!(d[3], Some(3));
        assert_eq!(d[4], None);
        assert!(net.connected(NodeId(0), NodeId(3)));
        assert!(!net.connected(NodeId(0), NodeId(4)));
    }

    #[test]
    fn largest_component_picks_line() {
        let net = line_net();
        let comp = net.largest_component();
        assert_eq!(comp, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn dijkstra_prefers_shorter_geometry() {
        // Square with a diagonal shortcut.
        let net = Network::from_positions(
            vec![
                Point::new(0.0, 0.0),   // 0
                Point::new(10.0, 0.0),  // 1
                Point::new(10.0, 10.0), // 2
                Point::new(0.0, 10.0),  // 3
                Point::new(7.0, 7.0),   // 4 shortcut
            ],
            12.0,
            area(),
        );
        let (path, len) = net.shortest_path(NodeId(0), NodeId(2)).unwrap();
        // Direct through 4: |0-4| + |4-2| = 9.899.. + 4.24.. ≈ 14.14;
        // around the square: 20. The diagonal may also be direct 0->2?
        // |0-2| = 14.14 > 12, not an edge.
        assert!(path.contains(&NodeId(4)) || path.len() == 2);
        assert!(len < 15.0);
        assert!((net.path_length(&path) - len).abs() < 1e-9);
    }

    #[test]
    fn dijkstra_unreachable_is_none() {
        let net = line_net();
        assert!(net.shortest_path(NodeId(0), NodeId(4)).is_none());
    }

    #[test]
    fn dijkstra_trivial_path() {
        let net = line_net();
        let (path, len) = net.shortest_path(NodeId(2), NodeId(2)).unwrap();
        assert_eq!(path, vec![NodeId(2)]);
        assert_eq!(len, 0.0);
    }

    #[test]
    fn avg_degree_matches_hand_count() {
        let net = line_net();
        // degrees: 1, 2, 2, 1, 0 -> 6/5
        assert!((net.avg_degree() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn neighbor_points_align_with_positions() {
        let net = line_net();
        for (idx, p) in net.neighbor_points(NodeId(1)) {
            assert_eq!(net.position(NodeId::new(idx)), p);
        }
    }

    #[test]
    fn apply_moves_matches_full_rebuild() {
        let mut net = line_net();
        // The far node joins the line's tail; the head leaves for the
        // far corner — degrees, edges, and positions must all match a
        // from-scratch rebuild at the new layout.
        net.apply_moves(&[
            (NodeId(4), Point::new(40.0, 0.0)),
            (NodeId(0), Point::new(90.0, 90.0)),
        ]);
        let rebuilt = Network::from_positions(net.positions_vec(), net.radius(), net.area());
        for u in net.node_ids() {
            assert_eq!(net.neighbors(u), rebuilt.neighbors(u), "node {u}");
        }
        assert!(net.has_edge(NodeId(3), NodeId(4)));
        assert_eq!(net.degree(NodeId(0)), 0);
        assert_eq!(net.position(NodeId(0)), Point::new(90.0, 90.0));
        assert_eq!(net.index().position(NodeId(4)), Point::new(40.0, 0.0));
    }

    #[test]
    fn apply_moves_tolerates_duplicates_and_noops() {
        let mut net = line_net();
        let before: Vec<_> = net.edges().collect();
        // Moving a node onto its own position twice changes nothing.
        let p1 = net.position(NodeId(1));
        net.apply_moves(&[(NodeId(1), p1), (NodeId(1), p1)]);
        assert_eq!(net.edges().collect::<Vec<_>>(), before);
    }

    #[test]
    fn without_nodes_isolates_but_keeps_ids() {
        let net = line_net();
        let degraded = net.without_nodes(&[NodeId(1)]);
        assert_eq!(degraded.len(), net.len());
        assert_eq!(degraded.position(NodeId(3)), net.position(NodeId(3)));
        assert_eq!(degraded.degree(NodeId(1)), 0);
        assert!(!degraded.has_edge(NodeId(0), NodeId(1)));
        assert!(degraded.has_edge(NodeId(2), NodeId(3)));
        // The line is now split at node 1.
        assert!(!degraded.connected(NodeId(0), NodeId(2)));
    }

    #[test]
    fn down_nodes_stay_isolated_under_moves_until_revived() {
        let mut net = line_net().without_nodes(&[NodeId(1)]);
        assert_eq!(net.down(), &[NodeId(1)]);
        // Node 4 lands next to the down node: it links to 0 and 2 only.
        net.apply_moves(&[(NodeId(4), Point::new(10.0, 5.0))]);
        assert_eq!(net.degree(NodeId(1)), 0);
        assert_eq!(net.neighbors(NodeId(4)), &[NodeId(0), NodeId(2)]);
        let up = TopologyDelta {
            up: vec![NodeId(1)],
            ..TopologyDelta::default()
        };
        let (revived, requeried) = net.derive(&up);
        assert_eq!(requeried, vec![NodeId(1)]);
        assert!(revived.down().is_empty());
        let rebuilt = Network::from_positions(revived.positions_vec(), 15.0, area());
        assert_eq!(revived.adjacency(), rebuilt.adjacency());
        // Reviving a node that is up, or failing one twice, requeries
        // nothing.
        assert!(revived.derive(&up).1.is_empty());
        assert!(net.without_nodes(&[NodeId(1)]).down() == [NodeId(1)]);
    }

    #[test]
    fn edges_crossing_finds_exactly_the_cut_links() {
        let net = line_net();
        // A vertical chord between x=10 and x=20 meets only edge 1–2:
        // that is the one link an opened chord severs.
        let chord = Segment::new(Point::new(15.0, -5.0), Point::new(15.0, 5.0));
        let (cut, requeried) = net.derive(&TopologyDelta {
            opened: vec![chord],
            ..TopologyDelta::default()
        });
        assert_eq!(requeried, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(cut.chords(), &[chord]);
        let kept: Vec<_> = cut.edges().collect();
        let severed: Vec<_> = net.edges().filter(|e| !kept.contains(e)).collect();
        assert_eq!(severed, vec![(NodeId(1), NodeId(2))]);
        // A chord off to the side requeries nothing and cuts nothing.
        let aside = TopologyDelta {
            opened: vec![Segment::new(
                Point::new(200.0, 0.0),
                Point::new(200.0, 50.0),
            )],
            ..TopologyDelta::default()
        };
        let (same, requeried) = net.derive(&aside);
        assert!(requeried.is_empty());
        assert_eq!(same.adjacency(), net.adjacency());
    }

    #[test]
    fn without_edges_degrades_connectivity_only() {
        let net = line_net();
        let chord = Segment::new(Point::new(15.0, -5.0), Point::new(15.0, 5.0));
        let (cut, _) = net.derive(&TopologyDelta {
            opened: vec![chord],
            ..TopologyDelta::default()
        });
        // The severed link goes; every node, position and other link stays.
        assert_eq!(cut.len(), net.len());
        assert!(!cut.has_edge(NodeId(1), NodeId(2)));
        assert!(cut.has_edge(NodeId(0), NodeId(1)));
        assert!(cut.has_edge(NodeId(2), NodeId(3)));
        assert!(!cut.connected(NodeId(0), NodeId(3)));
        for u in net.node_ids() {
            assert_eq!(cut.position(u), net.position(u), "position of {u}");
        }
    }

    #[test]
    fn a_chord_stays_open_under_moves_until_closed() {
        let net = line_net();
        let chord = Segment::new(Point::new(15.0, -5.0), Point::new(15.0, 5.0));
        let mut cut = net.derive(&TopologyDelta {
            opened: vec![chord],
            ..TopologyDelta::default()
        });
        // Node 4 lands across the chord from node 1: no link to it.
        cut.0.apply_moves(&[(NodeId(4), Point::new(18.0, 0.0))]);
        assert_eq!(cut.0.neighbors(NodeId(4)), &[NodeId(2), NodeId(3)]);
        assert_eq!(cut.0.delta_to(&[], &[chord]), TopologyDelta::default());
        let close = cut.0.delta_to(&[], &[]);
        assert_eq!(close.closed, vec![chord]);
        cut = cut.0.derive(&close);
        assert!(cut.0.chords().is_empty());
        let rebuilt = Network::from_positions(cut.0.positions_vec(), 15.0, area());
        assert_eq!(cut.0.adjacency(), rebuilt.adjacency());
    }

    #[test]
    fn spatially_sorted_is_isomorphic() {
        let net = line_net();
        let (sorted, remap) = net.spatially_sorted();
        assert_eq!(sorted.len(), net.len());
        assert_eq!(sorted.edge_count(), net.edge_count());
        for u in net.node_ids() {
            let iu = remap.to_internal(u);
            assert_eq!(sorted.position(iu), net.position(u), "position of {u}");
            let mut mapped: Vec<NodeId> = net
                .neighbors(u)
                .iter()
                .map(|&v| remap.to_internal(v))
                .collect();
            mapped.sort_unstable();
            assert_eq!(sorted.neighbors(iu), mapped.as_slice(), "edges of {u}");
        }
    }

    #[test]
    fn memory_footprint_beats_legacy_layout() {
        let net = line_net();
        let fp = net.memory_footprint();
        assert_eq!(fp.nodes, 5);
        // 6 offsets × 4B + 6 directed edges × 4B.
        assert_eq!(fp.csr_bytes, 6 * 4 + 6 * 4);
        assert_eq!(fp.position_bytes, 5 * 16);
        // A per-node-Vec layout would hold one 24-byte header per node
        // plus the same ids.
        assert!(fp.csr_bytes < 5 * 24 + 6 * 4);
        assert!(fp.bytes_per_node() > 0.0);
    }
}
