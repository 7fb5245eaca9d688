//! Graph planarization (Gabriel / RNG) and face-walk pivots.
//!
//! Perimeter routing "by the right-hand rule … along a face of the planar
//! graph that represents the same connectivity as the original network"
//! (§1, citing Bose et al. \[2\]) needs two ingredients this module
//! provides: a planar connected spanning subgraph of the UDG, and the
//! angular pivot that picks "the first edge counter-clockwise about `x`
//! from edge `(x, u)`".

use crate::{Network, NodeId};
use sp_geom::{in_gabriel_disk, in_rng_lune, AngularSweep, Point, Vec2};

/// Which planar subgraph to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Planarization {
    /// Gabriel graph: keep `(u, v)` iff no witness lies strictly inside
    /// the disk with diameter `uv`.
    Gabriel,
    /// Relative neighborhood graph: keep `(u, v)` iff no witness `w` has
    /// `max(|uw|, |wv|) < |uv|`. A subgraph of the Gabriel graph.
    Rng,
}

/// A planar spanning subgraph of a [`Network`], with the angular pivots
/// used by face traversal.
///
/// ```
/// use sp_net::{Network, NodeId, PlanarGraph, Planarization};
/// use sp_geom::{Point, Rect};
///
/// let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
/// let net = Network::from_positions(
///     vec![
///         Point::new(0.0, 0.0),
///         Point::new(10.0, 0.0),
///         Point::new(5.0, 1.0), // witness inside the 0-1 Gabriel disk
///     ],
///     20.0,
///     area,
/// );
/// let pg = PlanarGraph::build(&net, Planarization::Gabriel);
/// assert!(!pg.has_edge(NodeId(0), NodeId(1))); // removed by the witness
/// assert!(pg.has_edge(NodeId(0), NodeId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct PlanarGraph {
    adjacency: Vec<Vec<NodeId>>,
    positions: Vec<Point>,
    kind: Planarization,
}

impl PlanarGraph {
    /// Extracts the planar subgraph of `net`.
    ///
    /// Witness candidates come from the network's
    /// [`SpatialIndex`](crate::spatial::SpatialIndex)
    /// ([`Network::index`]): a Gabriel witness lies inside the disk of
    /// diameter `uv` — i.e. within `|uv|/2` of the edge midpoint — and
    /// an RNG witness lies within `|uv|` of `u`, so a single range
    /// query per edge bounds the scan to the cells covering that disk
    /// instead of the full neighbor list (or, worse, all `n` points).
    /// The exact geometric predicates then filter the pruned candidates.
    ///
    /// A candidate only counts as a witness if it is a *neighbor of
    /// `u`* — the same rule the classic `N(u)` scan applies. In a fully
    /// live unit disk graph the distinction is vacuous (anything inside
    /// the disk/lune is in range of `u`), but on degraded networks
    /// ([`Network::without_nodes`]) the index still holds dead nodes'
    /// positions, and a dead node must not delete planar edges between
    /// live ones — that would disconnect the planar subgraph face
    /// routing relies on.
    pub fn build(net: &Network, kind: Planarization) -> PlanarGraph {
        let n = net.len();
        let index = net.index();
        let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for u in net.node_ids() {
            let pu = net.position(u);
            for &v in net.neighbors(u) {
                if v < u {
                    continue; // handle each undirected edge once
                }
                let pv = net.position(v);
                let blocked = match kind {
                    Planarization::Gabriel => {
                        let mid = Point::new((pu.x + pv.x) / 2.0, (pu.y + pv.y) / 2.0);
                        // Inflate the pruning radius a hair: the exact
                        // dot-product predicate and the distance-to-
                        // midpoint query round differently, and the
                        // query must stay a *superset* of the predicate
                        // for witnesses within ulps of the circle.
                        let half = pu.distance(pv) / 2.0 * (1.0 + 1e-9);
                        index.within_radius(mid, half).any(|w| {
                            w != u
                                && w != v
                                && net.has_edge(u, w)
                                && in_gabriel_disk(pu, pv, net.position(w))
                        })
                    }
                    Planarization::Rng => {
                        let len = pu.distance(pv);
                        index.within_radius(pu, len).any(|w| {
                            w != u
                                && w != v
                                && net.has_edge(u, w)
                                && in_rng_lune(pu, pv, net.position(w))
                        })
                    }
                };
                if !blocked {
                    adjacency[u.index()].push(v);
                    adjacency[v.index()].push(u);
                }
            }
        }
        for list in &mut adjacency {
            list.sort_unstable();
        }
        PlanarGraph {
            adjacency,
            positions: net.positions_vec(),
            kind,
        }
    }

    /// Which planarization produced this graph.
    pub fn kind(&self) -> Planarization {
        self.kind
    }

    /// Number of nodes (same id space as the source network).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Neighbors of `u` in the planar subgraph, sorted by id.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adjacency[u.index()]
    }

    /// True when `(u, v)` survived planarization.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adjacency[u.index()].binary_search(&v).is_ok()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Node location.
    pub fn position(&self, u: NodeId) -> Point {
        self.positions[u.index()]
    }

    /// The right-hand-rule pivot: the first neighbor counter-clockwise
    /// about `x` starting from the direction of `from`, excluding `from`
    /// itself unless it is the only neighbor (dead-end bounce).
    ///
    /// Returns `None` only when `x` has no neighbors at all.
    pub fn next_ccw(&self, x: NodeId, from: NodeId) -> Option<NodeId> {
        self.pivot(x, self.position(from) - self.position(x), Some(from), true)
    }

    /// The left-hand-rule pivot: first neighbor clockwise about `x` from
    /// the direction of `from`.
    pub fn next_cw(&self, x: NodeId, from: NodeId) -> Option<NodeId> {
        self.pivot(x, self.position(from) - self.position(x), Some(from), false)
    }

    /// First neighbor counter-clockwise (or clockwise when `ccw` is
    /// false) about `x` starting from an arbitrary direction; used to
    /// enter a face walk along the `x -> d` line.
    pub fn first_from_direction(&self, x: NodeId, dir: Vec2, ccw: bool) -> Option<NodeId> {
        self.pivot(x, dir, None, ccw)
    }

    fn pivot(&self, x: NodeId, dir: Vec2, exclude: Option<NodeId>, ccw: bool) -> Option<NodeId> {
        let px = self.position(x);
        let neigh = self.neighbors(x);
        if neigh.is_empty() {
            return None;
        }
        // For a clockwise pivot, mirror the rotation by sweeping from the
        // mirrored direction over mirrored points; equivalently, use the
        // CW rotation = TAU - CCW rotation. Implemented by negating the y
        // axis of both direction and displacement.
        let items: Vec<(usize, Point)> = neigh
            .iter()
            .map(|&v| {
                let p = self.position(v);
                if ccw {
                    (v.index(), p)
                } else {
                    (v.index(), Point::new(p.x, 2.0 * px.y - p.y))
                }
            })
            .collect();
        let sweep_dir = if ccw { dir } else { Vec2::new(dir.x, -dir.y) };
        let sweep = AngularSweep::new(px, sweep_dir, items);
        // Pass 1: strictly-rotated candidates. Zero-rotation candidates
        // are collinear with the start direction; taking them eagerly
        // would trap face walks in collinear triangles, so they wait for
        // pass 2 (planarization usually removes such pairs, but the
        // pivot must not rely on it).
        const EPS: f64 = 1e-12;
        for e in sweep.entries() {
            if e.rotation <= EPS || Some(NodeId::new(e.id)) == exclude {
                continue;
            }
            return Some(NodeId::new(e.id));
        }
        // Pass 2: collinear candidates (nearest first), then the
        // dead-end bounce back to the predecessor.
        for e in sweep.entries() {
            if Some(NodeId::new(e.id)) != exclude {
                return Some(NodeId::new(e.id));
            }
        }
        exclude.filter(|f| neigh.contains(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_geom::Rect;

    fn area() -> Rect {
        Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    /// Cross of 5 nodes around a center.
    fn cross_net() -> Network {
        Network::from_positions(
            vec![
                Point::new(50.0, 50.0), // 0 center
                Point::new(60.0, 50.0), // 1 east
                Point::new(50.0, 60.0), // 2 north
                Point::new(40.0, 50.0), // 3 west
                Point::new(50.0, 40.0), // 4 south
            ],
            15.0,
            area(),
        )
    }

    #[test]
    fn planar_graphs_are_subgraphs() {
        let cfg = crate::DeploymentConfig::paper_default(200);
        let net = Network::from_positions(cfg.deploy_uniform(5), cfg.radius, cfg.area);
        let gg = PlanarGraph::build(&net, Planarization::Gabriel);
        let rng = PlanarGraph::build(&net, Planarization::Rng);
        for u in net.node_ids() {
            for &v in gg.neighbors(u) {
                assert!(net.has_edge(u, v), "GG edge {u}-{v} not in UDG");
            }
            for &v in rng.neighbors(u) {
                assert!(gg.has_edge(u, v), "RNG edge {u}-{v} not in GG");
            }
        }
        assert!(rng.edge_count() <= gg.edge_count());
        assert!(gg.edge_count() <= net.edge_count());
    }

    #[test]
    fn planarization_preserves_connectivity() {
        let cfg = crate::DeploymentConfig::paper_default(400);
        let positions = cfg.deploy_uniform(9);
        let net = Network::from_positions(positions.clone(), cfg.radius, cfg.area);
        let comp = net.largest_component();
        let gg = PlanarGraph::build(&net, Planarization::Gabriel);
        // BFS over the planar graph restricted to the big component.
        let start = comp[0];
        let mut seen = vec![false; net.len()];
        seen[start.index()] = true;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for &v in gg.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        for &u in &comp {
            assert!(seen[u.index()], "GG disconnected node {u}");
        }
    }

    #[test]
    fn index_pruned_witness_search_matches_neighbor_scan() {
        // The pre-SpatialIndex implementation scanned N(u) for
        // witnesses; in a UDG that set contains every possible witness.
        // The index-pruned query must select exactly the same edges.
        let cfg = crate::DeploymentConfig::paper_default(300);
        let net = Network::from_positions(cfg.deploy_uniform(31), cfg.radius, cfg.area);
        for kind in [Planarization::Gabriel, Planarization::Rng] {
            let fast = PlanarGraph::build(&net, kind);
            for u in net.node_ids() {
                let pu = net.position(u);
                for &v in net.neighbors(u) {
                    if v < u {
                        continue;
                    }
                    let pv = net.position(v);
                    let blocked = net.neighbors(u).iter().any(|&w| {
                        if w == u || w == v {
                            return false;
                        }
                        let pw = net.position(w);
                        match kind {
                            Planarization::Gabriel => in_gabriel_disk(pu, pv, pw),
                            Planarization::Rng => in_rng_lune(pu, pv, pw),
                        }
                    });
                    assert_eq!(
                        fast.has_edge(u, v),
                        !blocked,
                        "{kind:?} edge {u}-{v} disagrees with neighbor-scan witnesses"
                    );
                }
            }
        }
    }

    #[test]
    fn dead_nodes_do_not_witness_on_degraded_networks() {
        // Node 2 sits inside the Gabriel disk of edge 0-1. Alive, it
        // removes that edge; dead (removed via without_nodes), it must
        // not — its position lingers in the spatial index, but a failed
        // node cannot relay, so it cannot justify pruning a live edge.
        let net = Network::from_positions(
            vec![
                Point::new(40.0, 50.0),
                Point::new(50.0, 50.0),
                Point::new(45.0, 50.5),
            ],
            15.0,
            area(),
        );
        let live = PlanarGraph::build(&net, Planarization::Gabriel);
        assert!(!live.has_edge(NodeId(0), NodeId(1)), "live witness prunes");

        let degraded = net.without_nodes(&[NodeId(2)]);
        for kind in [Planarization::Gabriel, Planarization::Rng] {
            let pg = PlanarGraph::build(&degraded, kind);
            assert!(
                pg.has_edge(NodeId(0), NodeId(1)),
                "{kind:?}: dead node 2 must not delete the live 0-1 edge"
            );
        }
    }

    #[test]
    fn gabriel_removes_witnessed_edge() {
        let net = Network::from_positions(
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(5.0, 1.0),
            ],
            20.0,
            area(),
        );
        let gg = PlanarGraph::build(&net, Planarization::Gabriel);
        assert!(!gg.has_edge(NodeId(0), NodeId(1)));
        assert!(gg.has_edge(NodeId(0), NodeId(2)));
        assert!(gg.has_edge(NodeId(2), NodeId(1)));
        assert_eq!(gg.kind(), Planarization::Gabriel);
    }

    #[test]
    fn ccw_pivot_walks_around_cross() {
        let net = cross_net();
        let pg = PlanarGraph::build(&net, Planarization::Gabriel);
        // At the center, arriving from east: next CCW edge after east is
        // north, then west, then south.
        assert_eq!(pg.next_ccw(NodeId(0), NodeId(1)), Some(NodeId(2)));
        assert_eq!(pg.next_ccw(NodeId(0), NodeId(2)), Some(NodeId(3)));
        assert_eq!(pg.next_ccw(NodeId(0), NodeId(3)), Some(NodeId(4)));
        assert_eq!(pg.next_ccw(NodeId(0), NodeId(4)), Some(NodeId(1)));
    }

    #[test]
    fn cw_pivot_reverses_ccw() {
        let net = cross_net();
        let pg = PlanarGraph::build(&net, Planarization::Gabriel);
        assert_eq!(pg.next_cw(NodeId(0), NodeId(1)), Some(NodeId(4)));
        assert_eq!(pg.next_cw(NodeId(0), NodeId(4)), Some(NodeId(3)));
        assert_eq!(pg.next_cw(NodeId(0), NodeId(3)), Some(NodeId(2)));
        assert_eq!(pg.next_cw(NodeId(0), NodeId(2)), Some(NodeId(1)));
    }

    #[test]
    fn dead_end_bounces_back() {
        let net = Network::from_positions(
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            15.0,
            area(),
        );
        let pg = PlanarGraph::build(&net, Planarization::Gabriel);
        // Node 1's only neighbor is 0; arriving from 0 we must bounce.
        assert_eq!(pg.next_ccw(NodeId(1), NodeId(0)), Some(NodeId(0)));
        assert_eq!(pg.next_cw(NodeId(1), NodeId(0)), Some(NodeId(0)));
    }

    #[test]
    fn first_from_direction_enters_face() {
        let net = cross_net();
        let pg = PlanarGraph::build(&net, Planarization::Gabriel);
        // From the center looking halfway between east and north (45°),
        // the first CCW edge is north; the first CW edge is east.
        let dir = Vec2::new(1.0, 1.0);
        assert_eq!(
            pg.first_from_direction(NodeId(0), dir, true),
            Some(NodeId(2))
        );
        assert_eq!(
            pg.first_from_direction(NodeId(0), dir, false),
            Some(NodeId(1))
        );
    }

    #[test]
    fn isolated_node_has_no_pivot() {
        let net = Network::from_positions(
            vec![Point::new(0.0, 0.0), Point::new(90.0, 90.0)],
            10.0,
            area(),
        );
        let pg = PlanarGraph::build(&net, Planarization::Gabriel);
        assert_eq!(
            pg.first_from_direction(NodeId(0), Vec2::new(1.0, 0.0), true),
            None
        );
    }
}
