//! Cache-dense adjacency storage: one contiguous CSR edge arena.
//!
//! The per-node `Vec<NodeId>` adjacency that carried the stack to 10⁵
//! nodes pointer-chases on every neighbor scan: each list is its own
//! heap allocation, so walking a routing path touches as many cache
//! lines for Vec headers as for ids. [`CsrAdjacency`] replaces that
//! with the classic compressed-sparse-row layout — a single `Vec<u32>`
//! offset table (length `n + 1`) plus one contiguous [`NodeId`] edge
//! arena — so `neighbors(u)` is two loads into the same hot arrays for
//! every `u`, and a full frontier sweep streams the arena linearly.
//!
//! A topology change never edits an arena in place: a
//! [`TopologyDelta`](crate::TopologyDelta) — movers, failures,
//! revivals, cut chords — writes the next arena in one pass over the
//! current one ([`Network::derive`](crate::Network::derive)), so the
//! arena stays one contiguous block and a pinned epoch keeps its own.
//!
//! [`NodeRemap`] rounds the module out with the id permutation produced
//! by the construction-time spatial sort
//! ([`Network::spatially_sorted`](crate::Network::spatially_sorted)):
//! grid-row tiles map to contiguous id ranges, so the banded thread
//! shards of construction and delivery touch disjoint cache ranges.

use crate::NodeId;

/// Compressed-sparse-row adjacency: `neighbors(u)` is the arena slice
/// `edges[offsets[u] .. offsets[u + 1]]`, sorted ascending by id.
///
/// Offsets are `u32` — a deliberate cap of 2³²−1 *directed* edges
/// (≈ 2 × 10⁹), two orders of magnitude above the 10⁶-node,
/// average-degree-16 deployments the roadmap targets, and half the
/// metadata bytes of `usize` offsets.
///
/// ```
/// use sp_net::{CsrAdjacency, NodeId};
/// let csr = CsrAdjacency::from_lists(&[
///     vec![NodeId(1), NodeId(2)],
///     vec![NodeId(0)],
///     vec![NodeId(0)],
/// ]);
/// assert_eq!(csr.neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
/// assert_eq!(csr.degree(NodeId(1)), 1);
/// assert_eq!(csr.edge_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrAdjacency {
    /// `n + 1` monotone offsets into `edges`; `offsets[0] == 0`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists.
    edges: Vec<NodeId>,
}

impl CsrAdjacency {
    /// An adjacency with `n` nodes and no edges.
    pub fn empty(n: usize) -> CsrAdjacency {
        CsrAdjacency {
            offsets: vec![0; n + 1],
            edges: Vec::new(),
        }
    }

    /// Packs per-node lists into one arena. Lists are copied
    /// as-is (callers keep them sorted).
    pub fn from_lists(lists: &[Vec<NodeId>]) -> CsrAdjacency {
        let total = lists.iter().map(Vec::len).sum();
        CsrAdjacency::from_fn(lists.len(), total, |u, edges| {
            edges.extend_from_slice(&lists[u.index()]);
        })
    }

    /// Writes an arena node by node: `fill(u, edges)` appends `u`'s
    /// sorted list to `edges`, for every `u` in id order. `capacity` is
    /// the expected directed edge count.
    pub(crate) fn from_fn(
        n: usize,
        capacity: usize,
        mut fill: impl FnMut(NodeId, &mut Vec<NodeId>),
    ) -> CsrAdjacency {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(capacity);
        offsets.push(0u32);
        for u in 0..n {
            fill(NodeId::new(u), &mut edges);
            assert!(
                edges.len() <= u32::MAX as usize,
                "directed edge count {} overflows the u32 offset table",
                edges.len()
            );
            offsets.push(edges.len() as u32);
        }
        CsrAdjacency { offsets, edges }
    }

    /// Builds the arena directly from unordered undirected pair
    /// buffers — the shape the sharded cell-row scan emits — without
    /// ever materializing per-node `Vec`s: one counting pass, a prefix
    /// sum, one scatter pass, then an in-place sort of every node's
    /// range. The result is identical to accumulating per-node lists
    /// and sorting each (the legacy construction), because both end in
    /// the same sorted multiset per node.
    pub fn from_pair_rows(n: usize, rows: &[Vec<(NodeId, NodeId)>]) -> CsrAdjacency {
        let mut degree = vec![0u32; n];
        for row in rows {
            for &(u, v) in row {
                degree[u.index()] += 1;
                degree[v.index()] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc: u64 = 0;
        offsets.push(0u32);
        for &d in &degree {
            acc += u64::from(d);
            assert!(
                acc <= u64::from(u32::MAX),
                "directed edge count {acc} overflows the u32 offset table"
            );
            offsets.push(acc as u32);
        }
        // Scatter through per-node write cursors (reusing the degree
        // buffer as the cursor array), then sort each range.
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut edges = vec![NodeId(0); acc as usize];
        for row in rows {
            for &(u, v) in row {
                edges[cursor[u.index()] as usize] = v;
                cursor[u.index()] += 1;
                edges[cursor[v.index()] as usize] = u;
                cursor[v.index()] += 1;
            }
        }
        let mut csr = CsrAdjacency { offsets, edges };
        csr.sort_ranges();
        csr
    }

    fn sort_ranges(&mut self) {
        for u in 0..self.node_count() {
            let (start, end) = self.range(u);
            self.edges[start..end].sort_unstable();
        }
    }

    #[inline]
    fn range(&self, u: usize) -> (usize, usize) {
        (self.offsets[u] as usize, self.offsets[u + 1] as usize)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Sorted neighbor slice of `u`, straight out of the arena.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let (start, end) = self.range(u.index());
        &self.edges[start..end]
    }

    /// Degree `|N(u)|`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let (start, end) = self.range(u.index());
        end - start
    }

    /// Total directed entries (twice the undirected edge count).
    #[inline]
    pub fn directed_len(&self) -> usize {
        self.edges.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len() / 2
    }

    /// Relabels the adjacency under `remap`: internal node `k` takes
    /// the edges of external node `remap.to_external(k)`, with every
    /// neighbor id translated to internal and each range re-sorted.
    pub fn permuted(&self, remap: &NodeRemap) -> CsrAdjacency {
        let n = self.node_count();
        assert_eq!(n, remap.len(), "remap length must match node count");
        CsrAdjacency::from_fn(n, self.edges.len(), |k, edges| {
            let start = edges.len();
            let external = self.neighbors(remap.to_external(k));
            edges.extend(external.iter().map(|&v| remap.to_internal(v)));
            edges[start..].sort_unstable();
        })
    }

    /// Heap bytes held by the offset table and edge arena (by length,
    /// not capacity, so the metric is layout-determined and stable).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.edges.len() * std::mem::size_of::<NodeId>()
    }
}

/// The bijection between *external* (caller-visible, stable) node ids
/// and *internal* (spatially sorted) storage order.
///
/// [`Network::spatially_sorted`](crate::Network::spatially_sorted)
/// reorders nodes so each grid-row tile occupies a contiguous id
/// range; the remap lets callers keep addressing nodes by their
/// original deployment ids.
///
/// ```
/// use sp_net::{NodeId, NodeRemap};
/// let remap = NodeRemap::from_order(vec![NodeId(2), NodeId(0), NodeId(1)]);
/// assert_eq!(remap.to_internal(NodeId(2)), NodeId(0));
/// assert_eq!(remap.to_external(NodeId(0)), NodeId(2));
/// for ext in 0..3 {
///     let ext = NodeId(ext);
///     assert_eq!(remap.to_external(remap.to_internal(ext)), ext);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRemap {
    /// `to_external[internal] = external` — the placement order itself.
    to_external: Vec<NodeId>,
    /// `to_internal[external] = internal` — the inverse permutation.
    to_internal: Vec<NodeId>,
}

impl NodeRemap {
    /// Builds the remap from a placement order: `order[k]` is the
    /// external id stored at internal position `k`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_order(order: Vec<NodeId>) -> NodeRemap {
        let n = order.len();
        let mut to_internal = vec![NodeId(u32::MAX); n];
        for (k, &ext) in order.iter().enumerate() {
            assert!(
                ext.index() < n && to_internal[ext.index()] == NodeId(u32::MAX),
                "order must be a permutation of 0..{n}"
            );
            to_internal[ext.index()] = NodeId::new(k);
        }
        NodeRemap {
            to_external: order,
            to_internal,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.to_external.len()
    }

    /// True for a zero-node remap.
    pub fn is_empty(&self) -> bool {
        self.to_external.is_empty()
    }

    /// The internal (storage) id of an external node.
    #[inline]
    pub fn to_internal(&self, external: NodeId) -> NodeId {
        self.to_internal[external.index()]
    }

    /// The external (stable) id of an internal node.
    #[inline]
    pub fn to_external(&self, internal: NodeId) -> NodeId {
        self.to_external[internal.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_lists() -> Vec<Vec<NodeId>> {
        vec![
            vec![NodeId(1), NodeId(3)],
            vec![NodeId(0), NodeId(2)],
            vec![NodeId(1)],
            vec![NodeId(0)],
        ]
    }

    #[test]
    fn lists_roundtrip_through_arena() {
        let lists = demo_lists();
        let csr = CsrAdjacency::from_lists(&lists);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.directed_len(), 6);
        assert_eq!(csr.edge_count(), 3);
        for (u, list) in lists.iter().enumerate() {
            assert_eq!(csr.neighbors(NodeId::new(u)), list.as_slice());
        }
        assert_eq!(csr.degree(NodeId(2)), 1);
    }

    #[test]
    fn pair_rows_match_list_accumulation() {
        // Same edge set delivered as two unordered pair rows.
        let rows = vec![
            vec![(NodeId(1), NodeId(0)), (NodeId(0), NodeId(3))],
            vec![(NodeId(2), NodeId(1))],
        ];
        let csr = CsrAdjacency::from_pair_rows(4, &rows);
        assert_eq!(csr, CsrAdjacency::from_lists(&demo_lists()));
    }

    #[test]
    fn remap_roundtrips() {
        let remap = NodeRemap::from_order(vec![NodeId(3), NodeId(1), NodeId(0), NodeId(2)]);
        for i in 0..4 {
            let ext = NodeId(i);
            assert_eq!(remap.to_external(remap.to_internal(ext)), ext);
            let int = NodeId(i);
            assert_eq!(remap.to_internal(remap.to_external(int)), int);
        }
    }

    #[test]
    fn permuted_relabels_edges() {
        let csr = CsrAdjacency::from_lists(&demo_lists());
        let remap = NodeRemap::from_order(vec![NodeId(3), NodeId(1), NodeId(0), NodeId(2)]);
        let permuted = csr.permuted(&remap);
        // Every external edge (u, v) must appear as (int(u), int(v)).
        for u in 0..4 {
            let ext = NodeId(u);
            let int = remap.to_internal(ext);
            let mut mapped: Vec<NodeId> = csr
                .neighbors(ext)
                .iter()
                .map(|&v| remap.to_internal(v))
                .collect();
            mapped.sort_unstable();
            assert_eq!(permuted.neighbors(int), mapped.as_slice(), "node {ext}");
        }
    }

    #[test]
    fn memory_layouts_compared() {
        let csr = CsrAdjacency::from_lists(&demo_lists());
        // 5 offsets × 4B + 6 ids × 4B, under the per-node-Vec layout's
        // 4 Vec headers × 24B + 6 × 4B.
        assert_eq!(csr.heap_bytes(), 5 * 4 + 6 * 4);
        assert!(csr.heap_bytes() < 4 * 24 + 6 * 4);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_order_rejected() {
        let _ = NodeRemap::from_order(vec![NodeId(0), NodeId(0)]);
    }
}
