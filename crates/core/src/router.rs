//! The routing trait and the shared packet walker.
//!
//! All schemes — GF in `sp-baselines`, LGF/SLGF/SLGF2 here — expose the
//! same [`Routing`] interface so the experiment harness can sweep them
//! uniformly. The LGF family shares the [`HopPolicy`] walker: a policy
//! picks one successor per hop from purely local state, and
//! [`walk_into`] moves the packet until delivery, a dead end, or TTL
//! exhaustion.
//!
//! Routing is buffered: [`Routing::route_into`] writes the trace into a
//! caller-owned [`RouteBuffer`] and returns a borrowed [`RouteRef`], so
//! a streaming workload routing millions of packets reuses one
//! generation-stamped visited set and two retained-capacity vectors
//! instead of allocating an O(n) `PacketState` per packet.
//! [`Routing::route`] stays as the one-shot convenience wrapper.

use crate::{HopScratch, Mode, PacketState, RouteOutcome, RoutePhase, RouteResult, VisitedSet};
use sp_geom::{Point, Quadrant, Rect};
use sp_net::{Network, NodeId};

/// Reusable per-packet scratch: the generation-stamped visited set,
/// retained-capacity path/phase vectors, and the [`HopScratch`] the
/// hop policies decide successors with. One buffer serves any number
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
pub trait Routing {
    /// Scheme name as used in the paper's figures ("GF", "LGF", …).
    fn name(&self) -> &'static str;

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
    ) -> RouteRef<'b>;

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

    fn route_into<'b>(
        &self,
        net: &Network,
        src: NodeId,
        dst: NodeId,
        buf: &'b mut RouteBuffer,
    ) -> RouteRef<'b> {
        (**self).route_into(net, src, dst, buf)
    }

    fn route(&self, net: &Network, src: NodeId, dst: NodeId) -> RouteResult {
        (**self).route(net, src, dst)
    }
}

/// Boxed routers (what the scheme registry builds) route directly too.
impl<T: Routing + ?Sized> Routing for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
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

    fn route(&self, net: &Network, src: NodeId, dst: NodeId) -> RouteResult {
        (**self).route(net, src, dst)
    }
}

/// Per-hop successor policy for the LGF-family walker.
pub trait HopPolicy {
    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// Chooses the successor at `pkt.current`, mutating packet mode /
    /// hand / phase bookkeeping. `None` means stuck: no recovery option
    /// remains at this node.
    fn next_hop(&self, net: &Network, pkt: &mut PacketState) -> Option<NodeId>;
}

/// Default hop budget: generous enough that only genuine loops hit it.
pub fn default_ttl(net: &Network) -> usize {
    4 * net.len().max(1)
}

/// Drives a [`HopPolicy`] from `src` to `dst` into a caller-owned
/// buffer — the engine behind every scheme's
/// [`Routing::route_into`]. The buffer's visited set is re-generationed
/// (not cleared) and its vectors keep their capacity, so a warm buffer
/// allocates nothing.
pub fn walk_into<'b>(
    policy: &dyn HopPolicy,
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
            match policy.next_hop(net, &mut pkt) {
                None => {
                    outcome = RouteOutcome::Stuck(pkt.current);
                    break;
                }
                Some(next) => {
                    debug_assert!(
                        net.has_edge(pkt.current, next),
                        "{}: illegal hop {} -> {}",
                        policy.name(),
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

/// One-shot [`walk_into`]: routes through a fresh buffer and moves the
/// trace out (the compat shape every scheme's [`Routing::route`] had
/// before buffered routing).
pub fn walk(
    policy: &dyn HopPolicy,
    net: &Network,
    src: NodeId,
    dst: NodeId,
    ttl: usize,
) -> RouteResult {
    let mut buf = RouteBuffer::new();
    let r = walk_into(policy, net, src, dst, ttl, &mut buf);
    let (outcome, pe, be) = (r.outcome, r.perimeter_entries, r.backup_entries);
    buf.take_result(outcome, pe, be)
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
pub fn perimeter_sweep(net: &Network, pkt: &PacketState, hand: crate::Hand) -> Option<NodeId> {
    let u = pkt.current;
    let pu = net.position(u);
    let pd = net.position(pkt.dst);
    let candidates: Vec<(usize, Point)> = net
        .neighbor_points(u)
        .filter(|&(v, _)| !pkt.tried(NodeId::new(v)))
        .collect();
    crate::hand_order(pu, pd, hand, candidates)
        .first()
        .map(|&id| NodeId::new(id))
}

/// Shared perimeter-exit test of the LGF/SLGF recovery: leave perimeter
/// mode when strictly closer to the destination than at the stuck node.
pub fn closer_than_entry(net: &Network, pkt: &PacketState) -> bool {
    match pkt.mode {
        Mode::Perimeter { entry_dist } => {
            net.position(pkt.current).distance(net.position(pkt.dst)) < entry_dist
        }
        _ => false,
    }
}

/// Marks the hop being decided with its phase (helper keeping policies
/// terse).
pub fn set_phase(pkt: &mut PacketState, phase: RoutePhase) {
    pkt.phase = phase;
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

    #[test]
    fn walk_trivial_same_node() {
        struct Never;
        impl HopPolicy for Never {
            fn name(&self) -> &'static str {
                "never"
            }
            fn next_hop(&self, _net: &Network, _pkt: &mut PacketState) -> Option<NodeId> {
                None
            }
        }
        let n = net();
        let r = walk(&Never, &n, NodeId(0), NodeId(0), 10);
        assert!(r.delivered());
        assert_eq!(r.hops(), 0);
    }

    #[test]
    fn walk_stuck_reports_position() {
        struct Never;
        impl HopPolicy for Never {
            fn name(&self) -> &'static str {
                "never"
            }
            fn next_hop(&self, _net: &Network, _pkt: &mut PacketState) -> Option<NodeId> {
                None
            }
        }
        let n = net();
        let r = walk(&Never, &n, NodeId(0), NodeId(3), 10);
        assert_eq!(r.outcome, RouteOutcome::Stuck(NodeId(0)));
        assert_eq!(r.path, vec![NodeId(0)]);
    }

    #[test]
    fn walk_ttl_stops_loops() {
        struct PingPong;
        impl HopPolicy for PingPong {
            fn name(&self) -> &'static str {
                "pingpong"
            }
            fn next_hop(&self, _net: &Network, pkt: &mut PacketState) -> Option<NodeId> {
                // Bounce between 0 and 1 forever.
                Some(if pkt.current == NodeId(0) {
                    NodeId(1)
                } else {
                    NodeId(0)
                })
            }
        }
        let n = net();
        let r = walk(&PingPong, &n, NodeId(0), NodeId(3), 7);
        assert_eq!(r.outcome, RouteOutcome::TtlExhausted);
        assert_eq!(r.hops(), 7);
    }

    #[test]
    fn perimeter_sweep_skips_tried() {
        let n = net();
        let mut pkt = PacketState::new(n.len(), NodeId(0), NodeId(3));
        // Mark the straight-ahead candidate as tried.
        pkt.visited.insert(NodeId(2));
        pkt.visited.remove(NodeId(1));
        let nxt = perimeter_sweep(&n, &pkt, crate::Hand::Ccw).unwrap();
        assert_ne!(nxt, NodeId(2));
        // Everything tried -> None.
        for v in 0..n.len() {
            pkt.visited.insert(NodeId::new(v));
        }
        assert_eq!(perimeter_sweep(&n, &pkt, crate::Hand::Ccw), None);
    }
}
