//! The uniform-grid [`SpatialIndex`] behind every radius-bounded
//! neighbor query in the stack.
//!
//! Unit-disk-graph construction, planarization witness tests, and
//! mobility re-snapshots all need "the points within distance `r` of
//! here". Bucketing points into square cells whose side equals the
//! radio radius bounds each query to a 3×3 cell neighborhood, so graph
//! construction costs `O(n · k)` (k = mean cell occupancy) instead of
//! `O(n²)` — the difference between milliseconds and seconds at the
//! paper's 800-node, 100-network sweeps, and the enabling structure for
//! the 10⁴–10⁶-node deployments the roadmap targets.
//!
//! The index is exposed on every [`Network`](crate::Network) via
//! [`Network::index`](crate::Network::index), so routing layers and
//! deployment tooling share one structure instead of re-deriving ad hoc
//! scans.
//!
//! Three scale features keep topology refresh off the hot path of
//! large mobile sweeps: positions live in one structure-of-arrays
//! [`PositionTable`] so the cell-pair scan streams two dense `f64`
//! arrays; bulk adjacency construction emits straight into a
//! [`CsrAdjacency`] arena, sharding contiguous *bands* of cell rows
//! across threads ([`SpatialIndex::adjacency_within_threaded`],
//! automatic above [`sp_sync::PARALLEL_NODE_THRESHOLD`] nodes) so each worker
//! touches a disjoint cache range; and points
//! relocate incrementally in `O(1)` ([`SpatialIndex::move_point`]) so a
//! mobility tick re-buckets only the nodes that moved instead of
//! rebuilding the grid.

use crate::{CsrAdjacency, NodeId, PositionTable};
use sp_geom::{Point, Rect, Segment};
use sp_sync::WorkQueue;
use std::sync::Arc;

/// Contiguous row-bands handed to each construction worker are sized
/// so roughly this many land on every thread: small enough to balance
/// uneven rows, large enough that a worker's touched cache range stays
/// contiguous.
const BANDS_PER_THREAD: usize = 4;

/// A uniform grid over a bounding rectangle with square cells.
///
/// Build once over a position snapshot, then issue any number of
/// range ([`within_radius`](SpatialIndex::within_radius)) queries. All
/// queries compare true Euclidean distances — the grid only prunes
/// candidates — so results are exact, not approximate.
///
/// ```
/// use sp_net::SpatialIndex;
/// use sp_geom::{Point, Rect};
///
/// let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
/// let pts = vec![Point::new(10.0, 10.0), Point::new(15.0, 10.0), Point::new(90.0, 90.0)];
/// let index = SpatialIndex::build(&pts, area, 20.0);
/// let near: Vec<usize> = index.within_radius(Point::new(12.0, 10.0), 20.0).map(|id| id.index()).collect();
/// assert!(near.contains(&0) && near.contains(&1) && !near.contains(&2));
/// let far: Vec<usize> = index.within_radius(Point::new(80.0, 80.0), 15.0).map(|id| id.index()).collect();
/// assert_eq!(far, [2]);
/// ```
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    cells: Vec<Vec<NodeId>>,
    // Shared with the owning Network (when built through one), so a
    // deployment's positions exist once no matter how many snapshots
    // or index clones reference them.
    positions: Arc<PositionTable>,
    origin: Point,
    cell_size: f64,
    cols: usize,
    rows: usize,
}

impl SpatialIndex {
    /// Builds the index over a copy of `points` with the given
    /// `cell_size` (normally the radio radius, so radius queries scan
    /// 3×3 cells).
    ///
    /// Points outside `bounds` are clamped into the border cells, so the
    /// index remains correct (queries still compare true distances).
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive.
    pub fn build(points: &[Point], bounds: Rect, cell_size: f64) -> SpatialIndex {
        SpatialIndex::build_table(
            Arc::new(PositionTable::from_points(points)),
            bounds,
            cell_size,
        )
    }

    /// Builds the index over an already-shared position table without
    /// copying it — [`Network::from_positions`](crate::Network) uses
    /// this so the network and its index reference one allocation.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive.
    pub fn build_table(
        positions: Arc<PositionTable>,
        bounds: Rect,
        cell_size: f64,
    ) -> SpatialIndex {
        assert!(
            cell_size > 0.0,
            "spatial index cell size must be positive, got {cell_size}"
        );
        let cols = ((bounds.width() / cell_size).ceil() as usize).max(1);
        let rows = ((bounds.height() / cell_size).ceil() as usize).max(1);
        let mut cells = vec![Vec::new(); cols * rows];
        let origin = bounds.min();
        let mut index = SpatialIndex {
            cells: Vec::new(),
            positions,
            origin,
            cell_size,
            cols,
            rows,
        };
        for i in 0..index.positions.len() {
            let c = index.cell_of(index.positions.get(i));
            cells[c].push(NodeId::new(i));
        }
        index.cells = cells;
        index
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Side length of the square cells.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The indexed position of a node.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn position(&self, u: NodeId) -> Point {
        self.positions.get(u.index())
    }

    /// The structure-of-arrays position table, by node id.
    pub fn positions(&self) -> &PositionTable {
        &self.positions
    }

    /// Relocates one point to `new_pos` in `O(1)`: the position table is
    /// updated in place and the point moves between grid cells (cells
    /// keep ascending id order, so range queries stay deterministic).
    ///
    /// When the position table is still shared with other index or
    /// network clones, the first move copies it once (copy-on-write);
    /// every subsequent move on this index is allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    // sp-analyze: allow(index, cell indices come from cell_of over the clamped grid; id is a live bounds-checked node)
    pub fn move_point(&mut self, id: NodeId, new_pos: Point) {
        let old_cell = self.cell_of(self.positions.get(id.index()));
        let new_cell = self.cell_of(new_pos);
        Arc::make_mut(&mut self.positions).set(id.index(), new_pos);
        if old_cell != new_cell {
            let cell = &mut self.cells[old_cell];
            let at = cell
                .binary_search(&id)
                .expect("moved point is bucketed in its old cell"); // sp-analyze: allow(panic, the grid invariant buckets every live id in its cell; checked by debug assertions in tests)
            cell.remove(at);
            let cell = &mut self.cells[new_cell];
            let at = cell
                .binary_search(&id)
                .expect_err("moved point cannot already be in its new cell");
            cell.insert(at, id);
        }
    }

    fn cell_coords(&self, p: Point) -> (usize, usize) {
        let cx = ((p.x - self.origin.x) / self.cell_size).floor();
        let cy = ((p.y - self.origin.y) / self.cell_size).floor();
        let cx = (cx.max(0.0) as usize).min(self.cols - 1);
        let cy = (cy.max(0.0) as usize).min(self.rows - 1);
        (cx, cy)
    }

    fn cell_of(&self, p: Point) -> usize {
        let (cx, cy) = self.cell_coords(p);
        cy * self.cols + cx
    }

    /// All indexed points within `radius` of `center` (inclusive), in
    /// ascending id order within each scanned cell.
    ///
    /// The query radius may differ from the build cell size; the scan
    /// window widens accordingly.
    pub fn within_radius(&self, center: Point, radius: f64) -> impl Iterator<Item = NodeId> + '_ {
        let reach = (radius / self.cell_size).ceil() as isize;
        let (cx, cy) = self.cell_coords(center);
        let (cx, cy) = (cx as isize, cy as isize);
        let r_sq = radius * radius;
        let cols = self.cols as isize;
        let rows = self.rows as isize;
        (-reach..=reach)
            .flat_map(move |dy| (-reach..=reach).map(move |dx| (cx + dx, cy + dy)))
            .filter(move |&(x, y)| x >= 0 && x < cols && y >= 0 && y < rows)
            .flat_map(move |(x, y)| self.cells[(y * cols + x) as usize].iter().copied())
            .filter(move |id| self.positions.distance_sq_to(id.index(), center) <= r_sq)
    }

    /// Every indexed point within `radius` of the closed segment `seg`,
    /// ascending by id — the nodes a cut chord can separate, since a link
    /// no longer than `radius` that meets the chord has both endpoints
    /// that close to it.
    ///
    /// Only the cells along the segment are scanned. Row by row, the
    /// part of the segment that can lie within reach of the row (border
    /// rows reach outward without bound, as clamped points live there)
    /// bounds the columns scanned, widened by the reach; the reach keeps
    /// one cell of slack for rounding. The distance test itself allows a
    /// relative `1e-9` over `radius`, so a link the segment test reports
    /// as meeting the chord is never missed to rounding.
    pub fn near_segment(&self, seg: Segment, radius: f64) -> Vec<NodeId> {
        let reach = ((radius / self.cell_size).ceil() + 1.0) * self.cell_size;
        let near =
            |id: &&NodeId| seg.distance_to_point(self.position(**id)) <= radius * (1.0 + 1e-9);
        let (a, d) = (seg.a, seg.b - seg.a);
        let mut found = Vec::new();
        for row in 0..self.rows {
            // The segment parameters whose ordinate lies within reach.
            let top = self.origin.y + row as f64 * self.cell_size;
            let (lo, hi) = (top - reach, top + self.cell_size + reach);
            let lo = if row == 0 { f64::MIN } else { lo };
            let hi = if row + 1 < self.rows { hi } else { f64::MAX };
            let (t0, t1) = match ((lo - a.y) / d.y, (hi - a.y) / d.y) {
                _ if d.y == 0.0 => (0.0, if (lo..=hi).contains(&a.y) { 1.0 } else { -1.0 }),
                (s, e) => (s.min(e).max(0.0), s.max(e).min(1.0)),
            };
            if t0 > t1 {
                continue;
            }
            let (x0, x1) = (a.x + d.x * t0, a.x + d.x * t1);
            let col_of = |x: f64| self.cell_coords(Point::new(x, top)).0;
            for col in col_of(x0.min(x1) - reach)..=col_of(x0.max(x1) + reach) {
                found.extend(self.cells[row * self.cols + col].iter().filter(near));
            }
        }
        found.sort_unstable();
        found
    }

    /// The sorted CSR adjacency of the radius graph over all indexed
    /// points — the bulk form of [`within_radius`](Self::within_radius)
    /// that unit-disk-graph construction uses.
    ///
    /// Works cell-pairwise: points inside one cell are paired `i < j`,
    /// and each unordered pair of nearby cells is visited exactly once
    /// (cell pairs whose minimum separation exceeds `radius` are pruned
    /// up front), so every candidate pair costs one distance test and
    /// no per-point iterator setup. Self-loops are never produced. The
    /// pair stream lands directly in one [`CsrAdjacency`] arena
    /// (count → prefix-sum → scatter → per-range sort) — no per-node
    /// `Vec` is ever allocated.
    pub fn adjacency_within(&self, radius: f64) -> CsrAdjacency {
        self.adjacency_within_threaded(radius, 1)
    }

    /// [`adjacency_within`](Self::adjacency_within) sharded across
    /// `threads` worker threads by contiguous *bands* of grid rows.
    ///
    /// Workers pull row-bands from the shared [`sp_sync::WorkQueue`]
    /// (the workspace's one audited atomic-cursor primitive). Bands are
    /// contiguous spatial regions balanced by per-row point counts, so
    /// each worker streams a disjoint, cache-local range of the
    /// position table — the locality-aware partitioning that makes the
    /// construction-time spatial sort
    /// ([`Network::spatially_sorted`](crate::Network::spatially_sorted))
    /// pay off. Each band emits its edge pairs into per-row buffers;
    /// buffers are merged in row order and every arena range is sorted,
    /// so the output is bit-identical to the serial path at any thread
    /// count. `threads` is clamped to `[1, rows]`; `threads <= 1` runs
    /// inline without spawning.
    pub fn adjacency_within_threaded(&self, radius: f64, threads: usize) -> CsrAdjacency {
        let r_sq = radius * radius;
        let offsets = self.forward_offsets(radius);
        let threads = threads.clamp(1, self.rows.max(1));
        let bands = if threads <= 1 {
            vec![(0, self.rows)]
        } else {
            self.row_bands(threads * BANDS_PER_THREAD)
        };
        let per_band = WorkQueue::new().run(threads, bands.len(), |b| {
            let (start, end) = bands[b];
            let mut mine: Vec<(usize, Vec<(NodeId, NodeId)>)> = Vec::with_capacity(end - start);
            for cy in start..end {
                let mut buf = Vec::new();
                self.row_edges(cy as isize, &offsets, r_sq, &mut buf);
                mine.push((cy, buf));
            }
            mine
        });
        let mut row_bufs: Vec<Vec<(NodeId, NodeId)>> = Vec::new();
        row_bufs.resize_with(self.rows, Vec::new);
        for (cy, buf) in per_band.into_iter().flatten() {
            row_bufs[cy] = buf;
        }
        CsrAdjacency::from_pair_rows(self.positions.len(), &row_bufs)
    }

    /// The legacy per-node-`Vec` adjacency construction, accumulating
    /// and sorting one list per node.
    ///
    /// Kept *only* as the reference the CSR equivalence property tests
    /// compare against; production paths use
    /// [`adjacency_within`](Self::adjacency_within).
    #[doc(hidden)]
    pub fn adjacency_lists_within(&self, radius: f64) -> Vec<Vec<NodeId>> {
        let r_sq = radius * radius;
        let offsets = self.forward_offsets(radius);
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); self.positions.len()];
        let mut buf = Vec::new();
        for cy in 0..self.rows {
            buf.clear();
            self.row_edges(cy as isize, &offsets, r_sq, &mut buf);
            for &(u, v) in &buf {
                adj[u.index()].push(v);
                adj[v.index()].push(u);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        adj
    }

    /// Splits the grid rows into at most `parts` contiguous bands of
    /// roughly equal point count — the unit of work the threaded
    /// construction scan hands to each worker. Always covers
    /// `0..rows`; never returns an empty band.
    fn row_bands(&self, parts: usize) -> Vec<(usize, usize)> {
        let row_weight: Vec<usize> = (0..self.rows)
            .map(|cy| {
                self.cells[cy * self.cols..(cy + 1) * self.cols]
                    .iter()
                    .map(Vec::len)
                    .sum()
            })
            .collect();
        let total: usize = row_weight.iter().sum();
        let target = total.div_ceil(parts.max(1)).max(1);
        let mut bands = Vec::new();
        let mut start = 0;
        let mut acc = 0;
        for (cy, &w) in row_weight.iter().enumerate() {
            acc += w;
            if acc >= target {
                bands.push((start, cy + 1));
                start = cy + 1;
                acc = 0;
            }
        }
        if start < self.rows {
            bands.push((start, self.rows));
        }
        if bands.is_empty() {
            bands.push((0, self.rows));
        }
        bands
    }

    /// Node ids in row-major grid-cell order (ascending id inside each
    /// cell) — the placement order
    /// [`Network::spatially_sorted`](crate::Network::spatially_sorted)
    /// uses to map grid-row tiles onto contiguous id ranges.
    pub fn spatial_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.positions.len());
        for cell in &self.cells {
            order.extend_from_slice(cell);
        }
        order
    }

    /// Forward cell offsets covering each unordered pair of nearby cells
    /// exactly once; `(0, 0)` is handled by the in-cell `i < j` loop.
    /// Cell pairs whose minimum separation exceeds `radius` are pruned.
    fn forward_offsets(&self, radius: f64) -> Vec<(isize, isize)> {
        let r_sq = radius * radius;
        let reach = (radius / self.cell_size).ceil() as isize;
        let mut offsets: Vec<(isize, isize)> = Vec::new();
        for dy in 0..=reach {
            let dxs = if dy == 0 { 1..=reach } else { -reach..=reach };
            for dx in dxs {
                // Minimum separation between cells (dx, dy) apart.
                let gx = (dx.abs() - 1).max(0) as f64 * self.cell_size;
                let gy = (dy - 1).max(0) as f64 * self.cell_size;
                if gx * gx + gy * gy <= r_sq {
                    offsets.push((dx, dy));
                }
            }
        }
        offsets
    }

    /// Emits every radius-edge whose *lower-numbered row* is `cy` as an
    /// unordered pair: in-cell `i < j` pairs plus each forward-offset
    /// cell pair, so the union over all rows is the full edge set with
    /// each edge produced exactly once.
    fn row_edges(
        &self,
        cy: isize,
        offsets: &[(isize, isize)],
        r_sq: f64,
        out: &mut Vec<(NodeId, NodeId)>,
    ) {
        let cols = self.cols as isize;
        let rows = self.rows as isize;
        let pos = &*self.positions;
        for cx in 0..cols {
            let cell = &self.cells[(cy * cols + cx) as usize];
            for (i, &u) in cell.iter().enumerate() {
                let pu = pos.get(u.index());
                for &v in &cell[i + 1..] {
                    if pos.distance_sq_to(v.index(), pu) <= r_sq {
                        out.push((u, v));
                    }
                }
            }
            for &(dx, dy) in offsets {
                let (nx, ny) = (cx + dx, cy + dy);
                if nx < 0 || nx >= cols || ny < 0 || ny >= rows {
                    continue;
                }
                let other = &self.cells[(ny * cols + nx) as usize];
                for &u in cell {
                    let pu = pos.get(u.index());
                    for &v in other {
                        if pos.distance_sq_to(v.index(), pu) <= r_sq {
                            out.push((u, v));
                        }
                    }
                }
            }
        }
    }

    /// Heap bytes held by the grid cells (headers plus bucketed ids).
    pub fn grid_heap_bytes(&self) -> usize {
        self.cells.len() * 3 * std::mem::size_of::<usize>()
            + self
                .cells
                .iter()
                .map(|c| c.len() * std::mem::size_of::<NodeId>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_area() -> Rect {
        Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
    }

    /// Deterministic pseudo-random scatter without pulling in rand.
    fn scatter(n: usize, seed: u64) -> Vec<Point> {
        let mut pts = Vec::new();
        let mut state = seed;
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = ((state >> 16) % 10000) as f64 / 100.0;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = ((state >> 16) % 10000) as f64 / 100.0;
            pts.push(Point::new(x, y));
        }
        pts
    }

    #[test]
    fn matches_brute_force() {
        let pts = scatter(300, 12345);
        let index = SpatialIndex::build(&pts, demo_area(), 20.0);
        for (qi, &q) in pts.iter().enumerate().step_by(17) {
            let mut got: Vec<usize> = index.within_radius(q, 20.0).map(|n| n.index()).collect();
            got.sort_unstable();
            let mut want: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.distance_sq(q) <= 400.0)
                .map(|(i, _)| i)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "query {qi} mismatch");
        }
    }

    #[test]
    fn includes_center_point_itself() {
        let pts = vec![Point::new(50.0, 50.0)];
        let index = SpatialIndex::build(&pts, demo_area(), 10.0);
        let hits: Vec<NodeId> = index.within_radius(Point::new(50.0, 50.0), 10.0).collect();
        assert_eq!(hits, vec![NodeId(0)]);
    }

    #[test]
    fn radius_larger_than_cell_size() {
        let pts = vec![Point::new(5.0, 5.0), Point::new(95.0, 95.0)];
        let index = SpatialIndex::build(&pts, demo_area(), 10.0);
        let hits: Vec<NodeId> = index.within_radius(Point::new(50.0, 50.0), 200.0).collect();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn out_of_bounds_points_still_found() {
        let pts = vec![Point::new(-5.0, -5.0), Point::new(105.0, 105.0)];
        let index = SpatialIndex::build(&pts, demo_area(), 10.0);
        let hits: Vec<NodeId> = index.within_radius(Point::new(-3.0, -3.0), 5.0).collect();
        assert_eq!(hits, vec![NodeId(0)]);
    }

    #[test]
    fn empty_index() {
        let index = SpatialIndex::build(&[], demo_area(), 10.0);
        assert!(index.is_empty());
        assert_eq!(index.within_radius(Point::new(1.0, 1.0), 50.0).count(), 0);
        assert!(index.spatial_order().is_empty());
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_size_rejected() {
        let _ = SpatialIndex::build(&[], demo_area(), 0.0);
    }

    #[test]
    fn threaded_adjacency_equals_serial() {
        let pts = scatter(400, 777);
        let index = SpatialIndex::build(&pts, demo_area(), 20.0);
        let serial = index.adjacency_within(20.0);
        for threads in [1, 2, 3, 4, 8, 64] {
            assert_eq!(
                index.adjacency_within_threaded(20.0, threads),
                serial,
                "{threads}-thread shard diverged"
            );
        }
    }

    #[test]
    fn csr_adjacency_equals_legacy_lists() {
        let pts = scatter(350, 31337);
        let index = SpatialIndex::build(&pts, demo_area(), 20.0);
        let csr = index.adjacency_within(20.0);
        let lists = index.adjacency_lists_within(20.0);
        assert_eq!(csr, CsrAdjacency::from_lists(&lists));
    }

    #[test]
    fn move_point_relocates_between_cells() {
        let pts = vec![Point::new(5.0, 5.0), Point::new(95.0, 95.0)];
        let mut index = SpatialIndex::build(&pts, demo_area(), 10.0);
        index.move_point(NodeId(0), Point::new(93.0, 93.0));
        assert_eq!(index.position(NodeId(0)), Point::new(93.0, 93.0));
        let mut near: Vec<NodeId> = index.within_radius(Point::new(94.0, 94.0), 5.0).collect();
        near.sort_unstable();
        assert_eq!(near, vec![NodeId(0), NodeId(1)]);
        assert_eq!(index.within_radius(Point::new(5.0, 5.0), 5.0).count(), 0);
    }

    #[test]
    fn move_point_copies_shared_points_once() {
        let pts = scatter(50, 31);
        let index = SpatialIndex::build(&pts, demo_area(), 20.0);
        let mut moved = index.clone(); // shares the position table
        moved.move_point(NodeId(7), Point::new(1.0, 2.0));
        assert_eq!(moved.position(NodeId(7)), Point::new(1.0, 2.0));
        // The original never observes the move.
        assert_eq!(index.position(NodeId(7)), pts[7]);
        // Cells stay sorted so queries remain deterministic.
        let mut ids: Vec<NodeId> = moved.within_radius(Point::new(1.0, 2.0), 1.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![NodeId(7)]);
    }

    #[test]
    fn moved_index_adjacency_matches_fresh_build() {
        let mut pts = scatter(200, 55);
        let mut index = SpatialIndex::build(&pts, demo_area(), 20.0);
        let mut state = 9000u64;
        for step in 0..60 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = (state >> 33) as usize % pts.len();
            let target = scatter(1, state ^ step)[0];
            pts[id] = target;
            index.move_point(NodeId::new(id), target);
        }
        let fresh = SpatialIndex::build(&pts, demo_area(), 20.0);
        assert_eq!(index.adjacency_within(20.0), fresh.adjacency_within(20.0));
    }

    #[test]
    fn spatial_order_is_a_permutation_in_row_major_cell_order() {
        let pts = scatter(150, 97);
        let index = SpatialIndex::build(&pts, demo_area(), 20.0);
        let order = index.spatial_order();
        assert_eq!(order.len(), pts.len());
        let mut seen = vec![false; pts.len()];
        let mut last_cell = 0usize;
        for &u in &order {
            assert!(!seen[u.index()], "{u} appeared twice");
            seen[u.index()] = true;
            let c = index.cell_of(pts[u.index()]);
            assert!(c >= last_cell, "order must walk cells row-major");
            last_cell = c;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn row_bands_cover_all_rows_contiguously() {
        let pts = scatter(400, 2024);
        let index = SpatialIndex::build(&pts, demo_area(), 10.0);
        for parts in [1usize, 2, 3, 7, 100] {
            let bands = index.row_bands(parts);
            assert_eq!(bands.first().map(|b| b.0), Some(0));
            assert_eq!(bands.last().map(|b| b.1), Some(index.rows));
            for w in bands.windows(2) {
                assert_eq!(w[0].1, w[1].0, "bands must tile the rows");
            }
        }
    }

    #[test]
    fn near_segment_matches_brute_force() {
        let pts = scatter(400, 31);
        // Off-area points live clamped in the border cells.
        let pts: Vec<Point> = pts
            .into_iter()
            .chain([Point::new(-30.0, 50.0), Point::new(120.0, 130.0)])
            .collect();
        let index = SpatialIndex::build(&pts, demo_area(), 20.0);
        let segments = [
            Segment::new(Point::new(0.0, 50.0), Point::new(100.0, 50.0)),
            Segment::new(Point::new(10.0, 90.0), Point::new(95.0, 5.0)),
            Segment::new(Point::new(50.0, -40.0), Point::new(50.0, 140.0)),
            Segment::new(Point::new(-60.0, 40.0), Point::new(-20.0, 60.0)),
            Segment::new(Point::new(33.0, 33.0), Point::new(33.0, 33.0)),
        ];
        for seg in segments {
            for radius in [5.0, 20.0, 35.0] {
                let brute: Vec<NodeId> = (0..pts.len())
                    .filter(|&i| seg.distance_to_point(pts[i]) <= radius)
                    .map(NodeId::new)
                    .collect();
                assert_eq!(index.near_segment(seg, radius), brute, "{seg} r={radius}");
            }
        }
    }

    #[test]
    fn auto_threads_serial_below_threshold() {
        // The rule `Network::from_positions` hands the bulk scan.
        use sp_sync::{auto_threads, PARALLEL_NODE_THRESHOLD};
        assert_eq!(auto_threads(100), 1);
        assert_eq!(auto_threads(PARALLEL_NODE_THRESHOLD - 1), 1);
        assert!(auto_threads(PARALLEL_NODE_THRESHOLD) >= 1);
    }

    #[test]
    fn grid_shape_reflects_bounds() {
        let index = SpatialIndex::build(&[], demo_area(), 20.0);
        assert_eq!((index.cols, index.rows), (5, 5));
        assert_eq!(index.cell_size(), 20.0);
    }
}
