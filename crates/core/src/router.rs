//! The routing trait, the shared packet walker and the Algorithm-1 hop
//! skeleton.
//!
//! Every scheme — GF and GFG in `sp-baselines`, LGF/SLGF/SLGF2 here —
//! implements the one [`Routing`] trait so the experiment harness can
//! sweep them uniformly. A scheme supplies its [`Routing::name`] and its
//! per-hop choice, [`Routing::next_hop`], which picks one successor from
//! purely local state; the provided [`Routing::route_into`] hands it to
//! [`walk_into`], which moves the packet until delivery, a dead end, or
//! TTL exhaustion. `walk_into` is generic over the scheme, so each
//! scheme's per-hop call is dispatched statically.
//!
//! LGF, SLGF and GF share one hop, [`greedy_with_recovery`]: deliver to a
//! neighboring destination, advance greedily while the scheme's pick
//! succeeds, and at a local minimum hand the hop to the scheme's
//! recovery until the packet is closer to the destination than where it
//! got stuck (the greedy/perimeter alternation of Bose et al. \[2\]).
//!
//! Routing is buffered: [`Routing::route_into`] writes the trace into a
//! caller-owned [`RouteBuffer`] and returns a borrowed [`RouteRef`], so
//! a streaming workload routing millions of packets reuses one
//! generation-stamped visited set and two retained-capacity vectors
//! instead of allocating an O(n) `PacketState` per packet.
//! [`Routing::route`] stays as the one-shot convenience wrapper.

use crate::{
    hand_first, Hand, HopScratch, Mode, PacketState, RouteOutcome, RoutePhase, RouteResult,
    VisitedSet,
};
use sp_geom::{Quadrant, Rect};
use sp_net::{Network, NodeId};

/// Reusable per-packet scratch: the generation-stamped visited set,
/// retained-capacity path/phase vectors, and the [`HopScratch`] the
/// schemes decide successors with. One buffer serves any number
/// of consecutive [`Routing::route_into`] calls (on any networks — it
/// regrows as needed); reuse costs O(path walked), not O(n).
#[derive(Debug, Clone, Default)]
pub struct RouteBuffer {
    pub(crate) visited: VisitedSet,
    pub(crate) path: Vec<NodeId>,
    pub(crate) phases: Vec<RoutePhase>,
    pub(crate) scratch: HopScratch,
}

impl RouteBuffer {
    /// An empty buffer; it sizes itself on first use.
    pub fn new() -> RouteBuffer {
        RouteBuffer::default()
    }

    /// A buffer whose visited set is pre-sized for networks of `n`
    /// nodes, so the first route pays no O(n) growth. The path/phase
    /// vectors still size themselves on first use (a route's length
    /// isn't known up front) and retain that capacity afterwards.
    pub fn with_capacity(n: usize) -> RouteBuffer {
        RouteBuffer {
            visited: VisitedSet::new(n),
            path: Vec::new(),
            phases: Vec::new(),
            scratch: HopScratch::default(),
        }
    }

    /// The path of the route most recently written into this buffer.
    pub fn path(&self) -> &[NodeId] {
        &self.path
    }

    /// Moves the buffered trace out as an owned [`RouteResult`],
    /// leaving the buffer's vectors empty (the visited set is kept).
    /// Used by the one-shot [`Routing::route`] wrapper so the compat
    /// path clones nothing.
    pub(crate) fn take_result(
        &mut self,
        outcome: RouteOutcome,
        perimeter_entries: usize,
        backup_entries: usize,
    ) -> RouteResult {
        RouteResult {
            outcome,
            path: std::mem::take(&mut self.path),
            phases: std::mem::take(&mut self.phases),
            perimeter_entries,
            backup_entries,
        }
    }
}

/// A borrowed view of one route trace inside a [`RouteBuffer`] — what
/// [`Routing::route_into`] returns. Copyable and cheap; call
/// [`RouteRef::to_result`] only when an owned [`RouteResult`] must
/// outlive the buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteRef<'a> {
    /// Terminal status.
    pub outcome: RouteOutcome,
    /// Visited node sequence from source (inclusive) to last holder.
    pub path: &'a [NodeId],
    /// Phase that produced each hop (`path.len() - 1` entries).
    pub phases: &'a [RoutePhase],
    /// Number of distinct perimeter-phase entries.
    pub perimeter_entries: usize,
    /// Number of distinct backup-phase entries.
    pub backup_entries: usize,
}

impl RouteRef<'_> {
    /// True when the packet was delivered.
    pub fn delivered(&self) -> bool {
        self.outcome == RouteOutcome::Delivered
    }

    /// Hop count of the path walked.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// Euclidean length of the walked path in `net`.
    pub fn length(&self, net: &Network) -> f64 {
        net.path_length(self.path)
    }

    /// Hops spent in a given phase.
    pub fn hops_in_phase(&self, phase: RoutePhase) -> usize {
        self.phases.iter().filter(|&&p| p == phase).count()
    }

    /// Clones the borrowed trace into an owned [`RouteResult`].
    pub fn to_result(&self) -> RouteResult {
        RouteResult {
            outcome: self.outcome,
            path: self.path.to_vec(),
            phases: self.phases.to_vec(),
            perimeter_entries: self.perimeter_entries,
            backup_entries: self.backup_entries,
        }
    }
}

/// A complete routing scheme: source to destination, full trace out.
///
/// A scheme implements [`Routing::name`] and [`Routing::next_hop`];
/// [`Routing::route_into`] walks the packet with them and
/// [`Routing::route`] wraps that in a one-shot buffer.
pub trait Routing {
    /// Scheme name as used in the paper's figures ("GF", "LGF", …).
    fn name(&self) -> &'static str;

    /// Chooses the successor at `pkt.current`, mutating packet mode /
    /// hand / phase bookkeeping. `None` means stuck: no recovery option
    /// remains at this node.
    fn next_hop(&self, net: &Network, pkt: &mut PacketState) -> Option<NodeId>;

    /// The hop budget on `net`: [`default_ttl`] unless the scheme sets
    /// its own.
    fn ttl(&self, net: &Network) -> usize {
        default_ttl(net)
    }

    /// Routes one packet into a caller-owned buffer; never panics on
    /// disconnected pairs (reports [`RouteOutcome::Stuck`] or TTL
    /// exhaustion instead). This is the hot-path entry: reusing `buf`
    /// across calls makes routing allocation-free after warm-up.
    fn route_into<'b>(
        &self,
        net: &Network,
        src: NodeId,
        dst: NodeId,
        buf: &'b mut RouteBuffer,
    ) -> RouteRef<'b> {
        walk_into(self, net, src, dst, self.ttl(net), buf)
    }

    /// One-shot convenience: routes through a fresh [`RouteBuffer`] and
    /// returns the owned trace. Prefer [`Routing::route_into`] with a
    /// reused buffer (or a [`crate::TrafficEngine`] batch) anywhere
    /// more than one packet flows.
    fn route(&self, net: &Network, src: NodeId, dst: NodeId) -> RouteResult {
        let mut buf = RouteBuffer::new();
        let r = self.route_into(net, src, dst, &mut buf);
        let (outcome, pe, be) = (r.outcome, r.perimeter_entries, r.backup_entries);
        buf.take_result(outcome, pe, be)
    }
}

/// References to routers route too — this lets registries hand out
/// `Box<dyn Routing + 'a>` over routers owned elsewhere (e.g. the
/// prebuilt GF/GFG recovery structures of a prepared network) without
/// cloning them.
impl<T: Routing + ?Sized> Routing for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn next_hop(&self, net: &Network, pkt: &mut PacketState) -> Option<NodeId> {
        (**self).next_hop(net, pkt)
    }

    fn ttl(&self, net: &Network) -> usize {
        (**self).ttl(net)
    }

    fn route_into<'b>(
        &self,
        net: &Network,
        src: NodeId,
        dst: NodeId,
        buf: &'b mut RouteBuffer,
    ) -> RouteRef<'b> {
        (**self).route_into(net, src, dst, buf)
    }
}

/// Boxed routers (what the scheme registry builds) route directly too.
impl<T: Routing + ?Sized> Routing for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn next_hop(&self, net: &Network, pkt: &mut PacketState) -> Option<NodeId> {
        (**self).next_hop(net, pkt)
    }

    fn ttl(&self, net: &Network) -> usize {
        (**self).ttl(net)
    }

    fn route_into<'b>(
        &self,
        net: &Network,
        src: NodeId,
        dst: NodeId,
        buf: &'b mut RouteBuffer,
    ) -> RouteRef<'b> {
        (**self).route_into(net, src, dst, buf)
    }
}

/// Default hop budget: generous enough that only genuine loops hit it.
pub fn default_ttl(net: &Network) -> usize {
    4 * net.len().max(1)
}

/// Walks a packet from `src` to `dst` with `router`'s
/// [`Routing::next_hop`] into a caller-owned buffer — the engine behind
/// [`Routing::route_into`]. The buffer's visited set is re-generationed
/// (not cleared) and its vectors keep their capacity, so a warm buffer
/// allocates nothing.
pub fn walk_into<'b, R: Routing + ?Sized>(
    router: &R,
    net: &Network,
    src: NodeId,
    dst: NodeId,
    ttl: usize,
    buf: &'b mut RouteBuffer,
) -> RouteRef<'b> {
    let visited = std::mem::take(&mut buf.visited);
    let mut pkt = PacketState::with_visited(visited, net.len(), src, dst);
    pkt.scratch = std::mem::take(&mut buf.scratch);
    buf.path.clear();
    buf.phases.clear();
    buf.path.push(src);
    let mut outcome = RouteOutcome::TtlExhausted;
    if src == dst {
        outcome = RouteOutcome::Delivered;
    } else {
        for _ in 0..ttl {
            match router.next_hop(net, &mut pkt) {
                None => {
                    outcome = RouteOutcome::Stuck(pkt.current);
                    break;
                }
                Some(next) => {
                    debug_assert!(
                        net.has_edge(pkt.current, next),
                        "{}: illegal hop {} -> {}",
                        router.name(),
                        pkt.current,
                        next
                    );
                    buf.phases.push(pkt.phase);
                    pkt.visited.insert(next);
                    pkt.prev = Some(pkt.current);
                    pkt.current = next;
                    buf.path.push(next);
                    if next == dst {
                        outcome = RouteOutcome::Delivered;
                        break;
                    }
                }
            }
        }
    }
    buf.visited = pkt.visited; // hand the set back for the next packet
    buf.scratch = pkt.scratch; // and the hop scratch with it
    RouteRef {
        outcome,
        path: &buf.path,
        phases: &buf.phases,
        perimeter_entries: pkt.perimeter_entries,
        backup_entries: pkt.backup_entries,
    }
}

/// Neighbors of `u` inside the request zone `Z_k(u, d)` (LAR scheme 1):
/// the rectangle with `u` and `d` at opposite corners, borders inclusive,
/// `u` itself excluded.
pub fn zone_candidates<'a>(
    net: &'a Network,
    u: NodeId,
    d: NodeId,
) -> impl Iterator<Item = NodeId> + 'a {
    let pu = net.position(u);
    let pd = net.position(d);
    let zone = Rect::request_zone(pu, pd);
    net.neighbors(u)
        .iter()
        .copied()
        .filter(move |&v| v != u && zone.contains(net.position(v)))
}

/// Neighbors of `u` strictly closer to `d` than `u` itself — the
/// candidates of unrestricted greedy forwarding (GF, GFG).
pub fn closer_neighbors<'a>(
    net: &'a Network,
    u: NodeId,
    d: NodeId,
) -> impl Iterator<Item = NodeId> + 'a {
    let pd = net.position(d);
    let du = net.position(u).distance_sq(pd);
    net.neighbors(u)
        .iter()
        .copied()
        .filter(move |&v| net.position(v).distance_sq(pd) < du)
}

/// Greedy pick: the candidate closest to the destination, ties broken by
/// id (the "greedy advance" inside the request zone).
pub fn greedy_pick(
    net: &Network,
    d: NodeId,
    candidates: impl IntoIterator<Item = NodeId>,
) -> Option<NodeId> {
    let pd = net.position(d);
    candidates.into_iter().min_by(|&a, &b| {
        net.position(a)
            .distance_sq(pd)
            .total_cmp(&net.position(b).distance_sq(pd))
            .then_with(|| a.cmp(&b))
    })
}

/// The forwarding type at `u` toward `d`: the quadrant of the request
/// zone `Z_k(u, d)`. `None` when the two locations coincide exactly.
pub fn zone_type(net: &Network, u: NodeId, d: NodeId) -> Option<Quadrant> {
    Quadrant::of(net.position(u), net.position(d))
}

/// The perimeter-phase sweep of Algo. 1 step 4: rotate the ray `ud`
/// counter-clockwise (or clockwise, per the committed hand) and take the
/// first *untried* neighbor hit.
pub fn perimeter_sweep(net: &Network, pkt: &PacketState, hand: Hand) -> Option<NodeId> {
    let u = pkt.current;
    let untried = net
        .neighbor_points(u)
        .filter(|&(v, _)| !pkt.tried(NodeId::new(v)));
    hand_first(net.position(u), net.position(pkt.dst), hand, untried).map(NodeId::new)
}

/// Shared perimeter-exit test of the face recovery: leave perimeter
/// mode when strictly closer to the destination than at the stuck node.
pub fn closer_than_entry(net: &Network, pkt: &PacketState) -> bool {
    match pkt.mode {
        Mode::Perimeter { entry_dist } => {
            net.position(pkt.current).distance(net.position(pkt.dst)) < entry_dist
        }
        _ => false,
    }
}

/// One hop of Algorithm 1's greedy-then-recover alternation, the
/// skeleton LGF, SLGF and GF share; the scheme supplies its greedy
/// `pick` (called with the current node and the destination) and its
/// `recover` hop (called with `entering` true on the hop that enters
/// recovery).
///
/// 1. A neighboring destination is delivered to directly (Algo. 1
///    step 1).
/// 2. In recovery, once the packet is strictly closer to the
///    destination than the anchor where it got stuck, a successful
///    `pick` resumes greedy forwarding; a failed one tightens the
///    anchor to the current distance.
/// 3. In greedy mode, `pick` advances the packet (steps 2-3); at a
///    local minimum the packet enters recovery anchored here (step 4).
/// 4. Otherwise the hop is `recover`'s.
pub fn greedy_with_recovery(
    net: &Network,
    pkt: &mut PacketState,
    pick: impl Fn(NodeId, NodeId) -> Option<NodeId>,
    recover: impl FnOnce(&mut PacketState, bool) -> Option<NodeId>,
) -> Option<NodeId> {
    let (u, d) = (pkt.current, pkt.dst);
    if net.has_edge(u, d) {
        pkt.resume_greedy();
        pkt.phase = RoutePhase::Greedy;
        return Some(d);
    }
    let du = net.position(u).distance(net.position(d));
    if let Mode::Perimeter { entry_dist } = pkt.mode {
        if du < entry_dist {
            if let Some(v) = pick(u, d) {
                pkt.resume_greedy();
                pkt.phase = RoutePhase::Greedy;
                return Some(v);
            }
            pkt.mode = Mode::Perimeter { entry_dist: du };
        }
    }
    let entering = pkt.mode == Mode::Greedy;
    if entering {
        if let Some(v) = pick(u, d) {
            pkt.phase = RoutePhase::Greedy;
            return Some(v);
        }
        pkt.enter_perimeter(du);
    }
    pkt.phase = RoutePhase::Perimeter;
    recover(pkt, entering)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_geom::{Point, Rect};

    fn net() -> Network {
        let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        Network::from_positions(
            vec![
                Point::new(10.0, 10.0), // 0
                Point::new(20.0, 12.0), // 1 in zone toward 3
                Point::new(14.0, 22.0), // 2 in zone toward 3 (farther from d)
                Point::new(40.0, 40.0), // 3 destination
                Point::new(4.0, 4.0),   // 4 behind u (not in zone)
            ],
            16.0,
            area,
        )
    }

    #[test]
    fn zone_candidates_respect_rectangle() {
        let n = net();
        let got: Vec<NodeId> = zone_candidates(&n, NodeId(0), NodeId(3)).collect();
        assert_eq!(got, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn greedy_pick_takes_closest_to_destination() {
        let n = net();
        let pick = greedy_pick(&n, NodeId(3), zone_candidates(&n, NodeId(0), NodeId(3)));
        // |1 - 3| = |(20,12)-(40,40)| = sqrt(400+784) ≈ 34.4
        // |2 - 3| = |(14,22)-(40,40)| = sqrt(676+324) ≈ 31.6 -> closer
        assert_eq!(pick, Some(NodeId(2)));
        assert_eq!(greedy_pick(&n, NodeId(3), std::iter::empty()), None);
    }

    #[test]
    fn zone_type_matches_quadrant() {
        let n = net();
        assert_eq!(zone_type(&n, NodeId(0), NodeId(3)), Some(Quadrant::I));
        assert_eq!(zone_type(&n, NodeId(3), NodeId(0)), Some(Quadrant::III));
        assert_eq!(zone_type(&n, NodeId(0), NodeId(0)), None);
    }

    /// A scheme that never finds a successor.
    struct Never;

    impl Routing for Never {
        fn name(&self) -> &'static str {
            "never"
        }

        fn next_hop(&self, _net: &Network, _pkt: &mut PacketState) -> Option<NodeId> {
            None
        }
    }

    #[test]
    fn walk_trivial_same_node() {
        let n = net();
        let r = Never.route(&n, NodeId(0), NodeId(0));
        assert!(r.delivered());
        assert_eq!(r.hops(), 0);
    }

    #[test]
    fn walk_stuck_reports_position() {
        let n = net();
        let r = Never.route(&n, NodeId(0), NodeId(3));
        assert_eq!(r.outcome, RouteOutcome::Stuck(NodeId(0)));
        assert_eq!(r.path, vec![NodeId(0)]);
    }

    #[test]
    fn walk_ttl_stops_loops() {
        /// Bounces between 0 and 1 forever, with a hop budget of 7.
        struct PingPong;

        impl Routing for PingPong {
            fn name(&self) -> &'static str {
                "pingpong"
            }

            fn next_hop(&self, _net: &Network, pkt: &mut PacketState) -> Option<NodeId> {
                Some(if pkt.current == NodeId(0) {
                    NodeId(1)
                } else {
                    NodeId(0)
                })
            }

            fn ttl(&self, _net: &Network) -> usize {
                7
            }
        }
        let n = net();
        let r = PingPong.route(&n, NodeId(0), NodeId(3));
        assert_eq!(r.outcome, RouteOutcome::TtlExhausted);
        assert_eq!(r.hops(), 7);
        // A boxed router walks with the boxed scheme's own budget.
        let boxed: Box<dyn Routing> = Box::new(PingPong);
        assert_eq!(boxed.route(&n, NodeId(0), NodeId(3)).hops(), 7);
    }

    #[test]
    fn perimeter_sweep_skips_tried() {
        let n = net();
        let mut pkt = PacketState::new(n.len(), NodeId(0), NodeId(3));
        // Mark the straight-ahead candidate as tried.
        pkt.visited.insert(NodeId(2));
        pkt.visited.remove(NodeId(1));
        let nxt = perimeter_sweep(&n, &pkt, Hand::Ccw).unwrap();
        assert_ne!(nxt, NodeId(2));
        // Everything tried -> None.
        for v in 0..n.len() {
            pkt.visited.insert(NodeId::new(v));
        }
        assert_eq!(perimeter_sweep(&n, &pkt, Hand::Ccw), None);
    }
}
