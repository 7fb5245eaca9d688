//! BOUNDHOLE — hole-boundary construction (Fang, Gao & Guibas,
//! INFOCOM 2004, ref. \[5\] of the paper).
//!
//! From every TENT-stuck node, a boundary walk sweeps around the hole:
//! starting into the wide angular gap's counter-clockwise edge, each step
//! pivots counter-clockwise about the current node from the reverse of
//! the arriving edge — the classic right-hand traversal on the full unit
//! disk graph. The pivot ([`pivot_ccw`]) is the rule the planar face
//! walks use, [`sp_geom::face_pivot`], applied to every UDG neighbor.
//! Walks close back at their starting edge; the set of closed walks
//! forms the hole atlas the GF baseline uses for recovery.
//!
//! The published algorithm additionally repairs self-crossing boundaries;
//! our walker instead caps the walk length and discards non-closing
//! walks, which on UDGs at the paper's densities yields the same loops
//! (the discarded cases are rare and fall back to planar-face recovery in
//! [`crate::GfRouter`]).

use crate::tent::{wide_gaps, TENT_THRESHOLD};
use sp_geom::face_pivot;
use sp_net::{Network, NodeId};

/// A closed hole boundary: node loop without the repeated first node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Boundary {
    nodes: Vec<NodeId>,
}

impl Boundary {
    /// The loop's nodes in traversal order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Loop length in hops.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the boundary has no nodes (never constructed in
    /// practice; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Position of `node` in the loop.
    pub fn position_of(&self, node: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == node)
    }

    /// The node `steps` hops after `node` along the loop (first
    /// occurrence when the loop visits `node` more than once; prefer
    /// [`Boundary::next_after`] during traversal).
    pub fn successor(&self, node: NodeId, steps: usize) -> Option<NodeId> {
        let i = self.position_of(node)?;
        Some(self.nodes[(i + steps) % self.nodes.len()])
    }

    /// The next loop node after `current`, disambiguated by the node the
    /// walker arrived from. Boundaries are closed walks, not necessarily
    /// simple cycles — an arm of a hole appears as `…, a, tip, a, …` —
    /// so continuing a traversal must match the `(prev, current)` edge,
    /// not just `current`.
    pub fn next_after(&self, prev: Option<NodeId>, current: NodeId) -> Option<NodeId> {
        let n = self.nodes.len();
        if n == 0 {
            return None;
        }
        let occurrences = (0..n).filter(|&i| self.nodes[i] == current);
        let mut fallback = None;
        for i in occurrences {
            let before = self.nodes[(i + n - 1) % n];
            if fallback.is_none() {
                fallback = Some(self.nodes[(i + 1) % n]);
            }
            if prev == Some(before) {
                return Some(self.nodes[(i + 1) % n]);
            }
        }
        fallback
    }
}

/// All hole boundaries of a network, with a node → boundary index.
#[derive(Debug, Clone)]
pub struct HoleAtlas {
    boundaries: Vec<Boundary>,
    membership: Vec<Option<usize>>,
}

impl HoleAtlas {
    /// Runs BOUNDHOLE from every stuck node and dedups the resulting
    /// loops.
    pub fn build(net: &Network) -> HoleAtlas {
        let mut boundaries: Vec<Boundary> = Vec::new();
        let mut membership: Vec<Option<usize>> = vec![None; net.len()];
        for u in net.node_ids() {
            for gap in wide_gaps(net, u, TENT_THRESHOLD) {
                if gap.from == u {
                    continue; // isolated or leaf: no boundary to walk
                }
                if membership[u.index()].is_some() {
                    continue; // already on a known boundary
                }
                if let Some(loop_nodes) = walk_boundary(net, u, gap.to) {
                    // Dedup: a rotation of an existing loop is the same
                    // hole.
                    let is_new = !boundaries.iter().any(|b| same_loop(&b.nodes, &loop_nodes));
                    if is_new {
                        let idx = boundaries.len();
                        for &n in &loop_nodes {
                            membership[n.index()].get_or_insert(idx);
                        }
                        boundaries.push(Boundary { nodes: loop_nodes });
                    }
                }
            }
        }
        HoleAtlas {
            boundaries,
            membership,
        }
    }

    /// The boundary `node` lies on, if any.
    pub fn boundary_of(&self, node: NodeId) -> Option<&Boundary> {
        self.membership[node.index()].map(|i| &self.boundaries[i])
    }

    /// All boundaries.
    pub fn boundaries(&self) -> &[Boundary] {
        &self.boundaries
    }

    /// Number of distinct holes found.
    pub fn len(&self) -> usize {
        self.boundaries.len()
    }

    /// True when the network has no detected holes.
    pub fn is_empty(&self) -> bool {
        self.boundaries.is_empty()
    }
}

/// Right-hand pivot on the **full** UDG: first neighbor of `x`
/// counter-clockwise from the direction of `from`
/// ([`sp_geom::face_pivot`]), excluding `from` unless it is the only
/// neighbor.
pub fn pivot_ccw(net: &Network, x: NodeId, from: NodeId) -> Option<NodeId> {
    let px = net.position(x);
    let dir = net.position(from) - px;
    let next = face_pivot(px, dir, Some(from.index()), net.neighbor_points(x));
    // Dead end: bounce back.
    next.map(NodeId::new)
        .or_else(|| Some(from).filter(|f| net.neighbors(x).contains(f)))
}

/// One boundary walk from stuck node `start` entering at `first`.
/// Returns the closed loop (without repetition) or `None` when the walk
/// does not close within `4·|V|` steps.
fn walk_boundary(net: &Network, start: NodeId, first: NodeId) -> Option<Vec<NodeId>> {
    if !net.neighbors(start).contains(&first) {
        return None;
    }
    let mut nodes = vec![start];
    let mut prev = start;
    let mut cur = first;
    let cap = 4 * net.len();
    for _ in 0..cap {
        if cur == start {
            // Closed: do we re-enter along the starting edge?
            return if nodes.len() >= 3 { Some(nodes) } else { None };
        }
        nodes.push(cur);
        let next = pivot_ccw(net, cur, prev)?;
        prev = cur;
        cur = next;
    }
    None
}

/// Two node loops describe the same cycle (up to rotation and
/// direction).
fn same_loop(a: &[NodeId], b: &[NodeId]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut sa: Vec<NodeId> = a.to_vec();
    let mut sb: Vec<NodeId> = b.to_vec();
    sa.sort_unstable();
    sb.sort_unstable();
    sa == sb
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_geom::{Point, Rect};

    fn area() -> Rect {
        Rect::from_corners(Point::new(0.0, 0.0), Point::new(200.0, 200.0))
    }

    /// A ring of nodes around an empty center: one clean hole.
    fn ring_net(n: usize, radius: f64) -> Network {
        let c = Point::new(100.0, 100.0);
        let pos: Vec<Point> = (0..n)
            .map(|i| {
                let t = i as f64 * std::f64::consts::TAU / n as f64;
                Point::new(c.x + radius * t.cos(), c.y + radius * t.sin())
            })
            .collect();
        Network::from_positions(
            pos,
            2.2 * radius * (std::f64::consts::PI / n as f64).sin(),
            area(),
        )
    }

    #[test]
    fn ring_produces_one_boundary_with_all_nodes() {
        let net = ring_net(12, 30.0);
        // Each ring node sees exactly its two ring neighbors.
        assert!(net.node_ids().all(|u| net.degree(u) == 2));
        let atlas = HoleAtlas::build(&net);
        assert_eq!(atlas.len(), 1, "boundaries: {:?}", atlas.boundaries());
        let b = &atlas.boundaries()[0];
        assert_eq!(b.len(), 12);
        for u in net.node_ids() {
            assert!(atlas.boundary_of(u).is_some());
        }
    }

    #[test]
    fn boundary_successor_wraps() {
        let net = ring_net(8, 30.0);
        let atlas = HoleAtlas::build(&net);
        let b = &atlas.boundaries()[0];
        let first = b.nodes()[0];
        let back_around = b.successor(first, b.len()).unwrap();
        assert_eq!(back_around, first);
        assert_ne!(b.successor(first, 1).unwrap(), first);
    }

    #[test]
    fn pivot_ccw_walks_the_ring_consistently() {
        let net = ring_net(10, 30.0);
        // Starting along edge (0,1), ten pivots traverse the whole ring
        // and return to the starting edge.
        let a = NodeId(0);
        let b = NodeId(1);
        let mut prev = a;
        let mut cur = b;
        let mut seen = vec![cur];
        for _ in 0..10 {
            let next = pivot_ccw(&net, cur, prev).unwrap();
            prev = cur;
            cur = next;
            seen.push(cur);
        }
        assert_eq!((prev, cur), (NodeId(0), NodeId(1)));
        // All ten ring nodes were visited exactly once before wrapping.
        let mut distinct: Vec<NodeId> = seen[..10].to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 10);
    }

    #[test]
    fn dense_uniform_network_has_bounded_holes() {
        let cfg = sp_net::DeploymentConfig::paper_default(600);
        let net = Network::from_positions(cfg.deploy_uniform(2), cfg.radius, cfg.area);
        let atlas = HoleAtlas::build(&net);
        // Sanity: every boundary is a valid closed walk over edges.
        for b in atlas.boundaries() {
            let n = b.len();
            assert!(n >= 3);
            for i in 0..n {
                let u = b.nodes()[i];
                let v = b.nodes()[(i + 1) % n];
                assert!(net.has_edge(u, v), "boundary hop {u}-{v} not an edge");
            }
        }
    }

    #[test]
    fn forbidden_area_produces_a_hole() {
        use sp_geom::Circle;
        use sp_net::{FaModel, Obstacle};
        let cfg = sp_net::DeploymentConfig::paper_default(500);
        // One big central disk obstacle.
        let obstacles = vec![Obstacle::Circle(Circle::new(
            Point::new(100.0, 100.0),
            35.0,
        ))];
        let pos = cfg.deploy_with_obstacles(&obstacles, 11);
        let net = Network::from_positions(pos, cfg.radius, cfg.area);
        let atlas = HoleAtlas::build(&net);
        // At least one boundary should hug the obstacle: it has a node
        // within 1.5 radii of the disk edge and loops around many nodes.
        let hugs = atlas.boundaries().iter().any(|b| {
            b.len() >= 6
                && b.nodes().iter().any(|&u| {
                    (net.position(u).distance(Point::new(100.0, 100.0)) - 35.0).abs()
                        < 1.5 * cfg.radius
                })
        });
        assert!(
            hugs,
            "no boundary hugs the forbidden disk; found {}",
            atlas.len()
        );
        let _ = FaModel::paper_default();
    }
}
