//! Per-packet routing state and results.
//!
//! Every routing scheme in the paper is "presented via their forwarding
//! node selection at an intermediate node" (§3); the packet carries the
//! little state those selections need: the visited set (the perimeter
//! phase forwards to the "first *untried* node"), the committed hand rule
//! ("stick with the same hand-rule", Algo. 3), and the current phase.

use crate::Hand;
use sp_geom::{Point, Rect};
use sp_net::{Network, NodeId};

/// Which of the three SLGF2 phases (§4) produced a hop. LGF/SLGF use only
/// `Greedy` and `Perimeter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutePhase {
    /// Greedy advance inside the request zone (safe forwarding for the
    /// safety-aware schemes).
    Greedy,
    /// Backup-path forwarding around an unsafe area (SLGF2 only).
    Backup,
    /// Perimeter routing.
    Perimeter,
}

/// Forwarding mode of the packet walker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Normal (safe/greedy) forwarding.
    Greedy,
    /// Escorting around an unsafe area on a committed hand (SLGF2).
    Backup,
    /// Perimeter routing; `entry_dist` is the distance to the
    /// destination at the stuck node where this phase began (the exit
    /// test of the LGF/SLGF recovery).
    Perimeter {
        /// `|L(u_stuck) - L(d)|` at perimeter entry.
        entry_dist: f64,
    },
}

/// Per-face-walk state for planar face routing (GPSR perimeter mode,
/// Bose et al. \[2\]). Carried by the packet while a face-routing scheme is
/// in its recovery phase; `None` otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaceState {
    /// `L_p`: where the packet entered perimeter mode (the stuck node's
    /// position). Face changes are tested against the segment from here
    /// to the destination, and greedy forwarding resumes once the packet
    /// is strictly closer to the destination than this anchor.
    pub anchor: Point,
    /// `L_f`: the point on the anchor-destination segment where the
    /// packet entered the current face. A face change requires the
    /// crossing to be strictly closer to the destination than this.
    pub crossing: Point,
    /// `e_0`: the first directed edge traversed on the current face;
    /// traversing it a second time means the destination is unreachable
    /// (the face tour closed without progress).
    pub entry_edge: Option<(NodeId, NodeId)>,
}

impl FaceState {
    /// Starts a face walk anchored at the stuck node's position.
    pub fn new(anchor: Point) -> FaceState {
        FaceState {
            anchor,
            crossing: anchor,
            entry_edge: None,
        }
    }
}

/// The packet's visited ("tried") set, generation-stamped so reuse
/// across packets is O(1): a slot counts as visited only when its stamp
/// equals the current epoch, and [`VisitedSet::reset`] starts a fresh
/// packet by bumping the epoch instead of clearing `n` slots. This is
/// what makes a reused [`crate::RouteBuffer`] cost O(path) per route
/// where a fresh `vec![false; n]` costs O(n).
#[derive(Debug, Clone, Default)]
pub struct VisitedSet {
    stamps: Vec<u32>,
    epoch: u32,
}

impl VisitedSet {
    /// An empty set sized for a network of `n` nodes.
    pub fn new(n: usize) -> VisitedSet {
        let mut set = VisitedSet::default();
        set.reset(n);
        set
    }

    /// Starts a new generation covering `n` nodes: every slot reads
    /// unvisited again. O(1) unless the set has to grow — or, once per
    /// `u32::MAX` resets, when the epoch counter wraps and the stamps
    /// are bulk-cleared to keep stale generations unreadable.
    pub fn reset(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks `v` visited in the current generation.
    #[inline]
    pub fn insert(&mut self, v: NodeId) {
        self.stamps[v.index()] = self.epoch;
    }

    /// Unmarks `v` (exposed for tests constructing packet states).
    #[inline]
    pub fn remove(&mut self, v: NodeId) {
        self.stamps[v.index()] = 0;
    }

    /// True when `v` was visited in the current generation.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.stamps[v.index()] == self.epoch
    }

    /// Slots the set can address (the `n` of the last reset or larger).
    pub fn capacity(&self) -> usize {
        self.stamps.len()
    }
}

/// Retained-capacity per-hop scratch vectors for the schemes' hops.
///
/// A hop decision like [`crate::Slgf2Router`]'s safe forwarding filters
/// the zone candidates, collects nearby unsafe-area estimate
/// rectangles, and re-filters against them — three short-lived vectors
/// per hop. Routing millions of packets, those per-hop allocations
/// dominate the allocator traffic, so the scratch lives in the
/// [`crate::RouteBuffer`] alongside the visited set and rides into each
/// [`PacketState`] through [`crate::walk_into`]: each vector is cleared
/// (capacity retained) before reuse, so a warm buffer's hops allocate
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct HopScratch {
    /// Primary candidate list (e.g. the safe zone candidates).
    pub ids: Vec<NodeId>,
    /// Secondary candidate list (e.g. the superseding-filtered subset).
    pub filtered: Vec<NodeId>,
    /// Unsafe-area estimate rectangles collected near the current node.
    pub rects: Vec<Rect>,
}

/// Mutable state carried by one packet during a route computation.
#[derive(Debug, Clone)]
pub struct PacketState {
    /// The destination node.
    pub dst: NodeId,
    /// The node currently holding the packet.
    pub current: NodeId,
    /// The node the packet arrived from (`None` at the source) — face
    /// walks pivot around it.
    pub prev: Option<NodeId>,
    /// Nodes already visited ("tried") by this packet.
    pub visited: VisitedSet,
    /// The committed either-hand rule, once chosen.
    pub hand: Option<Hand>,
    /// Current forwarding mode.
    pub mode: Mode,
    /// Face-walk state while a planar face-routing scheme is recovering
    /// (`None` outside such a phase).
    pub face: Option<FaceState>,
    /// Phase of the hop most recently decided (set by the scheme's
    /// [`crate::Routing::next_hop`]).
    pub phase: RoutePhase,
    /// How many times a perimeter phase was entered.
    pub perimeter_entries: usize,
    /// How many times a backup phase was entered (SLGF2).
    pub backup_entries: usize,
    /// Retained-capacity per-hop scratch for the scheme's hop.
    pub scratch: HopScratch,
}

impl PacketState {
    /// Fresh packet at `src` heading for `dst` in a network of `n` nodes.
    pub fn new(n: usize, src: NodeId, dst: NodeId) -> PacketState {
        PacketState::with_visited(VisitedSet::default(), n, src, dst)
    }

    /// Packet reusing a caller-owned [`VisitedSet`] (the allocation-free
    /// path of [`crate::walk_into`]): the set is re-generationed for `n`
    /// nodes, so nothing from earlier packets leaks through.
    pub fn with_visited(
        mut visited: VisitedSet,
        n: usize,
        src: NodeId,
        dst: NodeId,
    ) -> PacketState {
        visited.reset(n);
        visited.insert(src);
        PacketState {
            dst,
            current: src,
            prev: None,
            visited,
            hand: None,
            mode: Mode::Greedy,
            face: None,
            phase: RoutePhase::Greedy,
            perimeter_entries: 0,
            backup_entries: 0,
            scratch: HopScratch::default(),
        }
    }

    /// True when the packet already visited `v`.
    #[inline]
    pub fn tried(&self, v: NodeId) -> bool {
        self.visited.contains(v)
    }

    /// Switches to perimeter mode (counting the entry) anchored at the
    /// given stuck-node distance.
    pub fn enter_perimeter(&mut self, entry_dist: f64) {
        if !matches!(self.mode, Mode::Perimeter { .. }) {
            self.perimeter_entries += 1;
        }
        self.mode = Mode::Perimeter { entry_dist };
    }

    /// Switches to backup mode (counting the entry).
    pub fn enter_backup(&mut self) {
        if self.mode != Mode::Backup {
            self.backup_entries += 1;
        }
        self.mode = Mode::Backup;
    }

    /// Returns to greedy/safe forwarding, releasing the hand commitment
    /// ("until it escapes from the unsafe area and finds a safe
    /// forwarding") and any face-walk state.
    pub fn resume_greedy(&mut self) {
        self.mode = Mode::Greedy;
        self.hand = None;
        self.face = None;
    }
}

/// Why a route computation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// The packet reached the destination.
    Delivered,
    /// The forwarding policy had no successor (local minimum with all
    /// recovery options exhausted).
    Stuck(NodeId),
    /// The hop budget ran out (treated as a loop/failure).
    TtlExhausted,
}

/// The full trace of one route computation.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteResult {
    /// Terminal status.
    pub outcome: RouteOutcome,
    /// Visited node sequence from source (inclusive) to last holder.
    pub path: Vec<NodeId>,
    /// Phase that produced each hop (`path.len() - 1` entries).
    pub phases: Vec<RoutePhase>,
    /// Number of distinct perimeter-phase entries.
    pub perimeter_entries: usize,
    /// Number of distinct backup-phase entries.
    pub backup_entries: usize,
}

impl RouteResult {
    /// True when the packet was delivered.
    pub fn delivered(&self) -> bool {
        self.outcome == RouteOutcome::Delivered
    }

    /// Hop count of the path walked so far.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// Euclidean length of the walked path in `net`.
    pub fn length(&self, net: &Network) -> f64 {
        net.path_length(&self.path)
    }

    /// Hops spent in a given phase.
    pub fn hops_in_phase(&self, phase: RoutePhase) -> usize {
        self.phases.iter().filter(|&&p| p == phase).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visited_set_reset_starts_a_new_generation() {
        let mut set = VisitedSet::new(4);
        set.insert(NodeId(1));
        assert!(set.contains(NodeId(1)));
        set.reset(4);
        assert!(!set.contains(NodeId(1)), "old generation must not leak");
        set.insert(NodeId(2));
        set.remove(NodeId(2));
        assert!(!set.contains(NodeId(2)));
        set.reset(6);
        assert_eq!(set.capacity(), 6);
        assert!(!set.contains(NodeId(5)));
    }

    #[test]
    fn visited_set_epoch_wraparound_clears_stale_stamps() {
        let mut set = VisitedSet::new(3);
        set.insert(NodeId(0));
        // Force the wrap: the next reset must bulk-clear, otherwise the
        // old stamp could alias a future epoch.
        set.epoch = u32::MAX;
        set.reset(3);
        assert!(!set.contains(NodeId(0)));
        set.insert(NodeId(1));
        assert!(set.contains(NodeId(1)));
    }

    #[test]
    fn reused_visited_set_is_indistinguishable_from_fresh() {
        let recycled = PacketState::new(5, NodeId(0), NodeId(4)).visited;
        let pkt = PacketState::with_visited(recycled, 5, NodeId(2), NodeId(4));
        assert!(pkt.tried(NodeId(2)));
        assert!(
            !pkt.tried(NodeId(0)),
            "previous packet's marks must be gone"
        );
    }

    #[test]
    fn new_packet_marks_source_tried() {
        let pkt = PacketState::new(5, NodeId(2), NodeId(4));
        assert!(pkt.tried(NodeId(2)));
        assert!(!pkt.tried(NodeId(4)));
        assert_eq!(pkt.mode, Mode::Greedy);
        assert_eq!(pkt.perimeter_entries, 0);
    }

    #[test]
    fn phase_entries_count_transitions_not_hops() {
        let mut pkt = PacketState::new(3, NodeId(0), NodeId(2));
        pkt.enter_perimeter(10.0);
        pkt.enter_perimeter(8.0); // still the same episode
        assert_eq!(pkt.perimeter_entries, 1);
        pkt.resume_greedy();
        pkt.enter_perimeter(6.0);
        assert_eq!(pkt.perimeter_entries, 2);
        pkt.enter_backup();
        pkt.enter_backup();
        assert_eq!(pkt.backup_entries, 1);
    }

    #[test]
    fn resume_greedy_releases_hand() {
        let mut pkt = PacketState::new(3, NodeId(0), NodeId(2));
        pkt.hand = Some(Hand::Cw);
        pkt.enter_backup();
        pkt.resume_greedy();
        assert_eq!(pkt.hand, None);
        assert_eq!(pkt.mode, Mode::Greedy);
    }

    #[test]
    fn result_accessors() {
        let r = RouteResult {
            outcome: RouteOutcome::Delivered,
            path: vec![NodeId(0), NodeId(1), NodeId(2)],
            phases: vec![RoutePhase::Greedy, RoutePhase::Perimeter],
            perimeter_entries: 1,
            backup_entries: 0,
        };
        assert!(r.delivered());
        assert_eq!(r.hops(), 2);
        assert_eq!(r.hops_in_phase(RoutePhase::Perimeter), 1);
        assert_eq!(r.hops_in_phase(RoutePhase::Backup), 0);
    }

    #[test]
    fn empty_result_is_zero_hops() {
        let r = RouteResult {
            outcome: RouteOutcome::Stuck(NodeId(0)),
            path: vec![NodeId(0)],
            phases: vec![],
            perimeter_entries: 0,
            backup_entries: 0,
        };
        assert_eq!(r.hops(), 0);
        assert!(!r.delivered());
    }
}
