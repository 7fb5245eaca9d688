//! The labeling process of Definition 1 (centralized fixed point).
//!
//! > "Initially, each healthy node u sets its status `S_i(u)` to 1. Any
//! > status, say `S_i(u)`, will change to unsafe if there is no type-i
//! > safe neighbor in the type-i forwarding zone; that is,
//! > `∀v ∈ N(u) ∩ Q_i(u), S_i(v) = 0`."
//!
//! Edge nodes of the interest area are *pinned* to `(1,1,1,1)` (§3: "each
//! edge node will always keep its status tuple as (1,1,1,1)"), preventing
//! the area border from cascading unsafe labels inward.
//!
//! **One fixed point.** A type-`q` support edge `u → v` (`v ∈ Q_q(u)`)
//! strictly raises a potential: `x + y` for type 1, `y − x` for type 2,
//! `−x − y` for type 3 and `x − y` for type 4. The quadrant test decides
//! on the signs of `dx` and `dy`, and the sign of a float difference is
//! exact, so this holds in floating point too. Each type's
//! support graph is therefore acyclic, and Definition 1 has exactly one
//! fixed point per pinned mask, which
//! [`SafetyMap::check_fixed_point`] characterises completely.
//!
//! **One engine, any start.** `relabel` is the only loop that iterates
//! the rule ([`SafetyTuple::support`]). It is a level-synchronous
//! worklist: round `r` re-evaluates only the neighbors of nodes that
//! flipped in round `r − 1` (every seed in round 1), sets each of them to
//! its support read from round `r − 1`'s tuples, and applies the round's
//! flips together. A node none of whose neighbors flipped has the same
//! support as when it was last evaluated, so as long as every unpinned
//! node outside the seeds starts equal to its support, a synchronous
//! (Jacobi) sweep over every node would flip exactly the same statuses
//! in each round. Because the support graphs are acyclic, that sweep
//! reaches the one fixed point from *any* start: a node with no
//! type-`q` successor is final after one round, and a node whose longest
//! support chain has `h` edges after `h + 1`. Statuses may therefore
//! rise as well as fall, and the engine has two callers:
//!
//! * the full build ([`SafetyMap::label_with_pinned`]): all-safe, every
//!   node seeded; [`SafetyMap::rounds`] is then the paper's round count,
//!   comparable with the distributed protocol in [`crate::distributed`];
//! * the one derive behind every epoch writer (`SafetyMap::derive`, run
//!   by [`crate::ServiceSnapshot::derive`] for MOVE batches, CHAOS
//!   publishes and node failures alike): the previous epoch's labels on
//!   the next epoch's network, seeded with the nodes whose links the
//!   [`sp_net::TopologyDelta`] changed.
//!
//! **Down nodes are never pinned.** Definition 1 labels *healthy* nodes,
//! so [`SafetyMap::label`] pins the edge nodes that are up. The edge
//! mask stays a function of positions alone, so a node going down or
//! coming back changes only its own pin. A down node has no links, so
//! it holds all-unsafe, and no live node's support reads it.

use crate::{RepairReport, SafetyTuple};
use sp_geom::Quadrant;
use sp_net::{edge_nodes::edge_node_mask, Network, NodeId};

/// Definition 1's rule at `u`, reading the neighbors' statuses from
/// `tuples`.
fn support(net: &Network, tuples: &[SafetyTuple], u: NodeId) -> SafetyTuple {
    let neighbors = net.neighbors(u).iter();
    SafetyTuple::support(
        net.position(u),
        neighbors.map(|&v| (net.position(v), tuples[v.index()])),
    )
}

/// Runs Definition 1 from `tuples` to its fixed point and returns the
/// number of rounds that flipped a status, with what the run did:
/// `work_items` counts node evaluations, `relabeled_nodes` counts a node
/// once per round in which it flips, and `flipped_statuses` counts the
/// quadrant bits those flips changed. Each round's flipped nodes are
/// appended to `flipped`, so a node appears once per round it flips in.
///
/// Pinned nodes must hold all-safe, and every unpinned node outside
/// `seeds` must already agree with its support: `tuples` is all-safe
/// with every node seeded, or a previous fixed point seeded with every
/// node whose neighborhood or own pin changed.
pub(crate) fn relabel(
    net: &Network,
    pinned: &[bool],
    tuples: &mut [SafetyTuple],
    seeds: impl IntoIterator<Item = NodeId>,
    flipped: &mut Vec<NodeId>,
) -> (usize, RepairReport) {
    let mut queued = vec![false; net.len()];
    let mut frontier = Vec::new();
    enqueue(&mut frontier, &mut queued, pinned, seeds);
    let mut flips = Vec::new();
    let mut rounds = 0;
    let mut report = RepairReport::default();
    while !frontier.is_empty() {
        report.work_items += frontier.len();
        flips.clear();
        for &u in &frontier {
            queued[u.index()] = false;
            let new = support(net, tuples, u);
            if new != tuples[u.index()] {
                flips.push((u, new));
            }
        }
        if flips.is_empty() {
            break;
        }
        rounds += 1;
        for &(u, new) in &flips {
            let old = std::mem::replace(&mut tuples[u.index()], new);
            let differs = |q: &Quadrant| old.is_safe(*q) != new.is_safe(*q);
            report.flipped_statuses += Quadrant::ALL.into_iter().filter(differs).count();
        }
        report.relabeled_nodes += flips.len();
        flipped.extend(flips.iter().map(|&(u, _)| u));
        // A flip may change the support of every neighbor of the flipped
        // node.
        frontier.clear();
        let touched = flips.iter().flat_map(|&(u, _)| net.neighbors(u));
        enqueue(&mut frontier, &mut queued, pinned, touched.copied());
    }
    (rounds, report)
}

/// Appends the unpinned nodes of `nodes` not queued yet to `frontier`.
fn enqueue(
    frontier: &mut Vec<NodeId>,
    queued: &mut [bool],
    pinned: &[bool],
    nodes: impl IntoIterator<Item = NodeId>,
) {
    for v in nodes {
        if !pinned[v.index()] && !std::mem::replace(&mut queued[v.index()], true) {
            frontier.push(v);
        }
    }
}

/// The pin rule of [`SafetyMap::label`]: the interest-area edge nodes
/// (margin = radio radius) that are up.
fn pin_mask(net: &Network) -> Vec<bool> {
    let mut pinned = edge_node_mask(net, net.radius());
    net.down().iter().for_each(|u| pinned[u.index()] = false);
    pinned
}

/// The stabilized safety tuples of every node, plus convergence metadata.
#[derive(Debug, Clone)]
pub struct SafetyMap {
    tuples: Vec<SafetyTuple>,
    pinned: Vec<bool>,
    rounds: usize,
}

impl SafetyMap {
    /// Runs Definition 1 to its fixed point over `net`, pinning the
    /// interest-area edge nodes found with margin = radio radius that
    /// are up: a down node is never pinned (see the module docs).
    pub fn label(net: &Network) -> SafetyMap {
        SafetyMap::label_with_pinned(net, pin_mask(net))
    }

    /// Runs Definition 1 with an explicit pinned mask (exposed for tests
    /// and for studying the border-effect ablation).
    ///
    /// # Panics
    ///
    /// Panics if `pinned.len() != net.len()`.
    pub fn label_with_pinned(net: &Network, pinned: Vec<bool>) -> SafetyMap {
        assert_eq!(pinned.len(), net.len(), "pinned mask must cover all nodes");
        let mut tuples = vec![SafetyTuple::all_safe(); net.len()];
        let (rounds, _) = relabel(net, &pinned, &mut tuples, net.node_ids(), &mut Vec::new());
        SafetyMap {
            tuples,
            pinned,
            rounds,
        }
    }

    /// Epoch `k + 1`'s labeling of `net`, derived from `self`, epoch
    /// `k`'s labeling, with what the repair did and the nodes it
    /// flipped. `touched` lists every node whose links the topology
    /// delta changed.
    ///
    /// The engine starts from epoch `k`'s tuples under epoch `k + 1`'s
    /// pinned mask ([`SafetyMap::label`]'s rule), with newly pinned nodes
    /// raised to all-safe. It is seeded with `touched`, every node whose
    /// pin changed and that node's neighbors: a hull change can pin a
    /// node no delta touched, and raising its tuple changes its
    /// neighbors' support. Every other node keeps its links and its
    /// neighbors' tuples, so it still agrees with its support, and the
    /// engine lands on the same fixed point as [`SafetyMap::label`].
    ///
    /// The flipped nodes are the newly pinned ones and every node the
    /// engine flipped in some round, so every node whose tuple differs
    /// from epoch `k`'s is among them; a node that flipped back, or was
    /// pinned while all-safe, is listed too.
    pub(crate) fn derive(
        &self,
        net: &Network,
        touched: &[NodeId],
    ) -> (SafetyMap, RepairReport, Vec<NodeId>) {
        let pinned = pin_mask(net);
        let mut tuples = self.tuples.clone();
        let (mut repinned, mut flipped) = (Vec::new(), Vec::new());
        for (i, (&was, &is)) in self.pinned.iter().zip(&pinned).enumerate() {
            if was != is {
                repinned.push(NodeId::new(i));
                if is {
                    tuples[i] = SafetyTuple::all_safe();
                    flipped.push(NodeId::new(i));
                }
            }
        }
        let around_repinned = repinned
            .iter()
            .flat_map(|&u| std::iter::once(u).chain(net.neighbors(u).iter().copied()));
        let seeds = touched.iter().copied().chain(around_repinned);
        let (rounds, report) = relabel(net, &pinned, &mut tuples, seeds, &mut flipped);
        let map = SafetyMap {
            tuples,
            pinned,
            rounds,
        };
        (map, report, flipped)
    }

    /// Builds a map directly from tuples (used by the distributed
    /// protocol once it quiesces).
    pub fn from_tuples(tuples: Vec<SafetyTuple>, pinned: Vec<bool>, rounds: usize) -> SafetyMap {
        assert_eq!(tuples.len(), pinned.len());
        SafetyMap {
            tuples,
            pinned,
            rounds,
        }
    }

    /// `S_i(u)`.
    #[inline]
    pub fn is_safe(&self, u: NodeId, q: Quadrant) -> bool {
        self.tuples[u.index()].is_safe(q)
    }

    /// The whole tuple of `u`.
    #[inline]
    pub fn tuple(&self, u: NodeId) -> SafetyTuple {
        self.tuples[u.index()]
    }

    /// All tuples, indexed by node id.
    pub fn tuples(&self) -> &[SafetyTuple] {
        &self.tuples
    }

    /// Whether `u` was pinned as an interest-area edge node.
    pub fn is_pinned(&self, u: NodeId) -> bool {
        self.pinned[u.index()]
    }

    /// The pinned mask.
    pub fn pinned(&self) -> &[bool] {
        &self.pinned
    }

    /// Synchronous rounds until the fixed point stabilized: the rounds
    /// in which some status flipped. For a map labeled from all-safe
    /// ([`SafetyMap::label`]) this is the paper's round count. A map that
    /// [`crate::ServiceSnapshot::derive`] derived from the previous epoch
    /// reports the rounds its repair took instead.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Ids of nodes unsafe in `q`, ascending.
    pub fn unsafe_nodes(&self, q: Quadrant) -> Vec<NodeId> {
        self.tuples
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_safe(q))
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// Count of nodes with at least one unsafe type.
    pub fn partially_unsafe_count(&self) -> usize {
        self.tuples.iter().filter(|t| !t.fully_safe()).count()
    }

    /// Verifies the Definition-1 fixed point (used by tests and
    /// debug assertions): a pinned node is all-safe, and an unpinned
    /// node's tuple equals its support — safe in `q` exactly when a
    /// type-`q` safe neighbor lies in `Q_q(u)`. The fixed point is
    /// unique (see the module docs), so a map passing this check is the
    /// labeling.
    ///
    /// Returns the first violating `(node, quadrant)` if any.
    pub fn check_fixed_point(&self, net: &Network) -> Option<(NodeId, Quadrant)> {
        net.node_ids().find_map(|u| {
            let expected = if self.pinned[u.index()] {
                SafetyTuple::all_safe()
            } else {
                support(net, &self.tuples, u)
            };
            Quadrant::ALL
                .into_iter()
                .find(|&q| self.is_safe(u, q) != expected.is_safe(q))
                .map(|q| (u, q))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_geom::{Point, Rect};

    fn area() -> Rect {
        Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    /// Fig. 3(a)-style scenario: a wedge of nodes whose NE quadrants are
    /// empty, so type-1 unsafety cascades backward.
    ///
    /// Layout (radius 15):
    /// ```text
    ///   u(10,10) -- u1(20,18) / u2(18,20) -- (nothing further NE)
    ///   plus a pinned far-east node so the rest of the tuple stays sane
    /// ```
    fn wedge() -> (Network, Vec<bool>) {
        let net = Network::from_positions(
            vec![
                Point::new(10.0, 10.0), // 0 = u
                Point::new(20.0, 18.0), // 1 = u1 (stuck: empty NE)
                Point::new(18.0, 20.0), // 2 = u2 (stuck: empty NE)
            ],
            15.0,
            area(),
        );
        // Nothing pinned: we want the raw cascade.
        let pinned = vec![false; 3];
        (net, pinned)
    }

    #[test]
    fn stuck_nodes_labeled_in_first_round_then_cascade() {
        let (net, pinned) = wedge();
        let map = SafetyMap::label_with_pinned(&net, pinned);
        // u1 and u2 have empty type-1 forwarding zones -> unsafe.
        assert!(!map.is_safe(NodeId(1), Quadrant::I));
        assert!(!map.is_safe(NodeId(2), Quadrant::I));
        // u's only NE neighbors are u1, u2, both type-1 unsafe -> unsafe.
        assert!(!map.is_safe(NodeId(0), Quadrant::I));
        // The cascade needed at least two rounds.
        assert!(map.rounds() >= 2, "rounds = {}", map.rounds());
        assert!(map.check_fixed_point(&net).is_none());
    }

    #[test]
    fn pinned_nodes_never_flip() {
        let (net, _) = wedge();
        let map = SafetyMap::label_with_pinned(&net, vec![true; 3]);
        for u in net.node_ids() {
            assert!(map.tuple(u).fully_safe());
            assert!(map.is_pinned(u));
        }
        assert_eq!(map.rounds(), 0);
    }

    #[test]
    fn isolated_node_is_fully_unsafe() {
        let net = Network::from_positions(vec![Point::new(50.0, 50.0)], 10.0, area());
        let map = SafetyMap::label_with_pinned(&net, vec![false]);
        assert!(map.tuple(NodeId(0)).fully_unsafe());
        assert_eq!(map.unsafe_nodes(Quadrant::II), vec![NodeId(0)]);
        assert_eq!(map.partially_unsafe_count(), 1);
    }

    #[test]
    fn default_label_pins_the_hull() {
        let cfg = sp_net::DeploymentConfig::paper_default(500);
        let net = Network::from_positions(cfg.deploy_uniform(3), cfg.radius, cfg.area);
        let map = SafetyMap::label(&net);
        assert!(map.check_fixed_point(&net).is_none());
        // In the paper's dense uniform regime most nodes are safe.
        let unsafe_frac = map.partially_unsafe_count() as f64 / net.len() as f64;
        assert!(
            unsafe_frac < 0.5,
            "IA deployment should be mostly safe, got {unsafe_frac}"
        );
    }

    #[test]
    fn safe_nodes_chain_to_destination_quadrantwise() {
        // Every safe-in-q node must have a safe-in-q successor in Q_q,
        // unless pinned: exactly the invariant behind Theorem 1.
        let cfg = sp_net::DeploymentConfig::paper_default(400);
        let net = Network::from_positions(cfg.deploy_uniform(8), cfg.radius, cfg.area);
        let map = SafetyMap::label(&net);
        for u in net.node_ids() {
            if map.is_pinned(u) {
                continue;
            }
            for q in Quadrant::ALL {
                if map.is_safe(u, q) {
                    let pu = net.position(u);
                    assert!(
                        net.neighbors(u).iter().any(|&v| {
                            Quadrant::of(pu, net.position(v)) == Some(q) && map.is_safe(v, q)
                        }),
                        "safe node {u} lacks a safe successor in {q}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pinned mask must cover all nodes")]
    fn pinned_mask_length_checked() {
        let (net, _) = wedge();
        let _ = SafetyMap::label_with_pinned(&net, vec![false; 2]);
    }
}
