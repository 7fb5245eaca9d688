//! Routing as a service: the epoch-snapshot [`RoutingService`].
//!
//! Everything before this module is batch-and-discard: the harness
//! builds a [`Network`], routes a batch through
//! [`crate::TrafficEngine`], and throws both away. A deployment serving
//! a million users is the opposite shape — a **long-lived** process
//! answering a sustained query stream *while the topology churns* under
//! node mobility. This module is that serving shape:
//!
//! * [`RoutingService`] owns an epoch-versioned [`ServiceSnapshot`]
//!   (topology + safety information) behind an
//!   [`sp_sync::EpochCell`]: every writer builds the **next** snapshot
//!   off to the side and publishes it with one `Arc` swap, so readers
//!   never wait on a rebuild. Every writer is one
//!   [`ServiceSnapshot::derive`] of a [`TopologyDelta`]: the topology is
//!   repaired around the nodes the delta requeries
//!   ([`Network::derive`]), and the labels, pinned mask and shape
//!   estimates are derived from the pinned epoch's, repairing only
//!   around the change, and equal a full [`SafetyInfo::build`] bit for
//!   bit;
//! * [`ServiceSession`] is the per-worker reader: it pins a snapshot,
//!   reuses one [`RouteBuffer`] (generation-stamped visited set, warm
//!   path/phase vectors) across queries, and re-pins only when the
//!   service's epoch counter moved — the steady-state query path is
//!   one atomic load plus the route walk, no locks, no allocation;
//! * every query answers with the same [`RouteRecord`] an offline
//!   [`crate::TrafficEngine`] batch produces, and the epoch it was
//!   computed against is [`ServiceSession::epoch`] read right after
//!   the call (a session has one owner, so nothing re-pins it in
//!   between). Consistency is checkable end to end: that epoch never
//!   exceeds [`RoutingService::epoch`], and the answer's path is valid
//!   against exactly that epoch's adjacency (property-tested in
//!   `tests/service_consistency.rs`);
//! * CHAOS and MOVE compose into one world: the network itself carries
//!   its down nodes and open cut chords, so
//!   [`RoutingService::apply_chaos`] moves the current epoch to the
//!   plan's state and every later [`RoutingService::apply_moves`] keeps
//!   that state in force, until the next CHAOS or a full
//!   [`RoutingService::publish`] replaces it.
//!
//! A batch pinned to one epoch is a [`crate::TrafficEngine`] run over
//! a [`RoutingService::snapshot`] pin — the pinned snapshot's network
//! and router — tagged with the pin's epoch. A publish racing the batch
//! affects the *next* pin, never tears this one, and the answers are
//! bit-identical to serial execution at any thread count.
//!
//! The `service_latency` bench drives this module with worker threads
//! querying under a background churner and gates sustained
//! queries/sec plus p50/p95/p99 per-query latency in CI
//! (`BENCH_service.json`).

use crate::{
    LgfRouter, RepairReport, RouteBuffer, RouteRecord, Routing, SafetyInfo, Slgf2Router, SlgfRouter,
};
use sp_geom::Point;
use sp_net::{Network, NodeId, TopologyDelta};
use sp_sim::ChaosPlan;
use sp_sync::{EpochCell, Pinned};

/// One immutable epoch of the served world: the topology and the
/// safety information SLGF2 routes with, built together so a query can
/// never see a network from one epoch and labels from another.
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    net: Network,
    info: SafetyInfo,
}

impl ServiceSnapshot {
    /// Builds the snapshot for `net` from scratch: labels the network
    /// and derives the shape estimates ([`SafetyInfo::build`]). This is
    /// the expensive step, paid **off to the side** before the `Arc`
    /// swap makes the snapshot visible, by epoch 0 and
    /// [`RoutingService::publish`], which have no delta relative to the
    /// previous epoch. Every other epoch is a
    /// [`ServiceSnapshot::derive`].
    pub fn build(net: Network) -> ServiceSnapshot {
        let info = SafetyInfo::build(&net);
        ServiceSnapshot { net, info }
    }

    /// The next epoch: `delta` applied to the topology in one repair
    /// ([`Network::derive`]), with the safety information derived from
    /// this epoch's around the nodes the repair requeried, and what the
    /// labeling repair did. Movers, failures, revivals and cut windows
    /// all take this one path, and the result equals
    /// [`ServiceSnapshot::build`] of its network in tuples, pinned mask
    /// and estimates (property-tested in `tests/service_consistency.rs`);
    /// only [`SafetyInfo::rounds`] reports the repair's rounds instead of
    /// the paper's. It costs the change, not the field: labels and
    /// estimates are repaired only around the requeried nodes, their
    /// neighbors in both epochs and any node whose pin changed.
    ///
    /// # Panics
    ///
    /// Panics if any id in `delta` is out of range.
    pub fn derive(&self, delta: &TopologyDelta) -> (ServiceSnapshot, RepairReport) {
        let (net, requeried) = self.net.derive(delta);
        // Every node whose links the delta changed: the requeried nodes
        // and their neighbors in both epochs.
        let touched: Vec<NodeId> = (requeried.iter())
            .flat_map(|&u| {
                let around = self.net.neighbors(u).iter().chain(net.neighbors(u));
                std::iter::once(u).chain(around.copied())
            })
            .collect();
        let (was, shapes) = (self.info.safety(), self.info.shapes());
        let (safety, report, flipped) = was.derive(&net, &touched);
        let shapes = shapes.derive(&net, &safety, &touched, &flipped);
        let info = SafetyInfo::from_parts(safety, shapes);
        (ServiceSnapshot { net, info }, report)
    }

    /// The epoch's topology.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The epoch's safety information.
    pub fn info(&self) -> &SafetyInfo {
        &self.info
    }

    /// The epoch's router: SLGF2 (Algorithm 3) over this snapshot's
    /// safety information. Construction is a copy of four words — built
    /// per query without cost.
    pub fn router(&self) -> Slgf2Router<'_> {
        Slgf2Router::new(&self.info)
    }
}

/// The routing schemes a [`ServiceSession`] can answer with. The
/// service's safety information supports the whole family the paper
/// compares, so per-query scheme selection costs nothing: every router
/// here is a few words constructed on the spot over the pinned
/// snapshot.
///
/// The discriminants are stable wire codes — the `sp-serve` TCP front
/// end carries them verbatim in its `QUERY` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum ServiceScheme {
    /// SLGF2 (Algorithm 3) — the paper's contribution and the default.
    #[default]
    Slgf2 = 0,
    /// SLGF (the earlier safe-label greedy forwarding \[7\]).
    Slgf = 1,
    /// LGF (Algorithm 1) — plain location greedy forwarding.
    Lgf = 2,
}

impl ServiceScheme {
    /// Every servable scheme, in wire-code order.
    pub const ALL: [ServiceScheme; 3] = [
        ServiceScheme::Slgf2,
        ServiceScheme::Slgf,
        ServiceScheme::Lgf,
    ];

    /// The stable wire code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a wire code; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<ServiceScheme> {
        ServiceScheme::ALL.into_iter().find(|s| s.code() == code)
    }

    /// The scheme's display name.
    pub fn name(self) -> &'static str {
        match self {
            ServiceScheme::Slgf2 => "SLGF2",
            ServiceScheme::Slgf => "SLGF",
            ServiceScheme::Lgf => "LGF",
        }
    }
}

/// The long-lived routing service: an epoch-versioned topology owner
/// answering queries while mobility churns underneath.
///
/// ```
/// use sp_core::RoutingService;
/// use sp_net::{deploy::DeploymentConfig, Network, NodeId};
///
/// let cfg = DeploymentConfig::paper_default(300);
/// let net = Network::from_positions(cfg.deploy_uniform(7), cfg.radius, cfg.area);
/// let service = RoutingService::new(net);
///
/// let mut session = service.session();
/// let a = session.route(NodeId(0), NodeId(299));
/// assert_eq!((a.src, session.epoch()), (NodeId(0), 0));
///
/// // Mobility: build epoch 1 off to the side, publish, keep serving.
/// let p = service.snapshot().value.network().position(NodeId(5));
/// let moved = service.apply_moves(&[(NodeId(5), sp_geom::Point::new(p.x + 1.0, p.y))]);
/// assert_eq!(moved, 1);
/// session.route(NodeId(0), NodeId(299));
/// assert_eq!(session.epoch(), 1);
/// ```
#[derive(Debug)]
pub struct RoutingService {
    cell: EpochCell<ServiceSnapshot>,
}

impl RoutingService {
    /// A service over `net` at epoch 0.
    pub fn new(net: Network) -> RoutingService {
        RoutingService::from_snapshot(ServiceSnapshot::build(net))
    }

    /// A service over an already-built epoch-0 snapshot.
    pub fn from_snapshot(snapshot: ServiceSnapshot) -> RoutingService {
        RoutingService {
            cell: EpochCell::new(snapshot),
        }
    }

    /// The current epoch — one atomic load. Monotonic; every epoch a
    /// [`ServiceSession`] ever answered from is `<=` this.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Pins the current snapshot: the `(epoch, Arc)` pair, consistent
    /// by construction. Holding the pin keeps the snapshot alive across
    /// any number of later publishes.
    pub fn snapshot(&self) -> Pinned<ServiceSnapshot> {
        self.cell.load()
    }

    /// Applies a mobility tick: derives the next epoch from the current
    /// one ([`ServiceSnapshot::derive`] of the moves), publishes it with
    /// one `Arc` swap, and returns the new epoch number. Readers pinned
    /// to earlier epochs are never blocked and never see a half-built
    /// snapshot. Concurrent writers serialize ([`EpochCell::update`]):
    /// each tick derives from the epoch the previous one published, so
    /// no batch is lost. Down nodes and open cut chords stay in force.
    ///
    /// # Panics
    ///
    /// Panics if any moved id is out of range.
    pub fn apply_moves(&self, moves: &[(NodeId, Point)]) -> u64 {
        self.cell
            .update(|prev| prev.derive(&TopologyDelta::moving(moves)).0)
    }

    /// Publishes a fully rebuilt topology as the next epoch (the
    /// non-incremental handoff — e.g. a re-deployment), with the down
    /// nodes and chords `net` carries. Returns the new epoch number.
    pub fn publish(&self, net: Network) -> u64 {
        self.cell.publish(ServiceSnapshot::build(net))
    }

    /// Applies a chaos tick: `plan` draws the chaos plan on the epoch
    /// it will degrade (under the writer lock, so a MOVE landing first
    /// is seen by it), and the next epoch is derived from that one in
    /// the plan's state as of `round` ([`ChaosPlan::delta`]): down
    /// exactly the nodes [`ChaosPlan::dead_as_of`] names, and every link
    /// crossing a cut active that round severed. Returns the new epoch
    /// number.
    ///
    /// Chaos is not monotone: a revived node takes a fresh range query,
    /// so a flapped node's links come *back*, and a closed cut gives its
    /// links back. Earlier MOVEs are kept, and later ones keep the plan's
    /// state in force ([`RoutingService::apply_moves`]). Quiet plans
    /// still publish — an undamaged epoch at the current positions.
    pub fn apply_chaos(&self, plan: impl FnOnce(&Network) -> ChaosPlan, round: usize) -> u64 {
        self.cell.update(|prev| {
            let plan = plan(prev.network());
            prev.derive(&plan.delta(prev.network(), round)).0
        })
    }

    /// A new reader session pinned to the current snapshot. Sessions
    /// are cheap; give each worker thread its own and it will reuse one
    /// warm [`RouteBuffer`] across every query it serves.
    pub fn session(&self) -> ServiceSession<'_> {
        let pinned = self.cell.load();
        let cap = pinned.value.network().len();
        ServiceSession {
            service: self,
            pinned,
            buf: RouteBuffer::with_capacity(cap),
        }
    }
}

/// A per-worker reader of the service: one pinned snapshot, one reused
/// [`RouteBuffer`]. The steady-state query path — epoch unchanged — is
/// a single atomic load plus the route walk; when the service
/// published, the next query transparently re-pins first.
#[derive(Debug)]
pub struct ServiceSession<'s> {
    service: &'s RoutingService,
    pinned: Pinned<ServiceSnapshot>,
    buf: RouteBuffer,
}

impl ServiceSession<'_> {
    /// The epoch this session currently serves from. Read right after
    /// a `route*` call, it is the epoch that answer was computed
    /// against.
    pub fn epoch(&self) -> u64 {
        self.pinned.epoch
    }

    /// The pinned snapshot this session currently serves from.
    pub fn snapshot(&self) -> &ServiceSnapshot {
        &self.pinned.value
    }

    /// Re-pins to the current snapshot if the service published since
    /// the last pin. Returns `true` when the pin moved. Called
    /// automatically by [`ServiceSession::route`]; exposed for callers
    /// that want several queries against one consistent epoch
    /// ([`ServiceSession::route_pinned`]).
    pub fn refresh(&mut self) -> bool {
        if self.service.epoch() == self.pinned.epoch {
            return false;
        }
        self.pinned = self.service.snapshot();
        true
    }

    /// Answers one SLGF2 query against the **current** epoch
    /// (re-pinning first if the service published since the last
    /// query).
    pub fn route(&mut self, src: NodeId, dst: NodeId) -> RouteRecord {
        self.route_with(ServiceScheme::Slgf2, src, dst)
    }

    /// Answers one SLGF2 query against the epoch already pinned,
    /// without checking for a newer one — the building block for
    /// multi-query consistency (pin once via
    /// [`ServiceSession::refresh`], then ask related queries against
    /// one world).
    pub fn route_pinned(&mut self, src: NodeId, dst: NodeId) -> RouteRecord {
        self.answer(ServiceScheme::Slgf2, src, dst)
    }

    /// [`ServiceSession::route`] with per-query scheme selection —
    /// the entry point the `sp-serve` wire front end dispatches `QUERY`
    /// frames through. Identical epoch semantics.
    pub fn route_with(&mut self, scheme: ServiceScheme, src: NodeId, dst: NodeId) -> RouteRecord {
        self.refresh();
        self.answer(scheme, src, dst)
    }

    /// Routes one query with `scheme` against the pinned snapshot. The
    /// trace stays behind in the session's buffer
    /// ([`ServiceSession::last_path`]) so callers that stream it out —
    /// the `sp-serve` `TRACE` responses — never clone the path.
    fn answer(&mut self, scheme: ServiceScheme, src: NodeId, dst: NodeId) -> RouteRecord {
        let snap = &*self.pinned.value;
        let (net, buf) = (snap.network(), &mut self.buf);
        let r = match scheme {
            ServiceScheme::Slgf2 => snap.router().route_into(net, src, dst, buf),
            ServiceScheme::Slgf => SlgfRouter::new(snap.info()).route_into(net, src, dst, buf),
            ServiceScheme::Lgf => LgfRouter::new().route_into(net, src, dst, buf),
        };
        RouteRecord::from_trace(net, src, dst, &r)
    }

    /// The hop trace of the most recent query answered by this session,
    /// borrowed from the session's reused buffer: source inclusive,
    /// valid against [`ServiceSession::epoch`]. Lets trace consumers
    /// stream the path without an owned [`crate::RouteResult`]
    /// allocation.
    pub fn last_path(&self) -> &[NodeId] {
        self.buf.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_net::deploy::DeploymentConfig;

    fn prepared(n: usize, seed: u64) -> Network {
        let cfg = DeploymentConfig::paper_default(n);
        Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area)
    }

    fn some_queries(net: &Network, count: usize) -> Vec<(NodeId, NodeId)> {
        let comp = net.largest_component();
        (0..count)
            .map(|k| {
                (
                    comp[(k * 53) % comp.len()],
                    comp[(k * 101 + 17) % comp.len()],
                )
            })
            .filter(|(s, d)| s != d)
            .collect()
    }

    /// A small deterministic jitter batch: every 7th node shifts a
    /// little, staying inside the area.
    fn jitter(net: &Network, magnitude: f64) -> Vec<(NodeId, Point)> {
        net.node_ids()
            .filter(|u| u.index() % 7 == 0)
            .map(|u| {
                let p = net.position(u);
                let q = Point::new(
                    (p.x + magnitude).min(net.area().max().x),
                    (p.y + magnitude * 0.5).min(net.area().max().y),
                );
                (u, q)
            })
            .collect()
    }

    #[test]
    fn fresh_service_serves_epoch_zero() {
        let net = prepared(200, 3);
        let service = RoutingService::new(net);
        assert_eq!(service.epoch(), 0);
        let mut session = service.session();
        for (s, d) in some_queries(service.snapshot().value.network(), 10) {
            let a = session.route(s, d);
            assert_eq!(session.epoch(), 0);
            assert_eq!((a.src, a.dst), (s, d));
        }
    }

    #[test]
    fn session_answers_match_the_offline_router() {
        let net = prepared(300, 5);
        let queries = some_queries(&net, 25);
        let service = RoutingService::new(net.clone());
        let info = SafetyInfo::build(&net);
        let router = Slgf2Router::new(&info);
        let mut session = service.session();
        for (s, d) in queries {
            let a = session.route(s, d);
            let offline = router.route(&net, s, d);
            assert_eq!(a.outcome, offline.outcome, "{s}->{d}");
            assert_eq!(a.hops, offline.hops(), "{s}->{d}");
            assert_eq!(a.length, offline.length(&net), "{s}->{d}");
        }
    }

    #[test]
    fn publish_rolls_the_epoch_and_sessions_follow() {
        let net = prepared(250, 7);
        let service = RoutingService::new(net);
        let mut session = service.session();
        let (s, d) = some_queries(session.snapshot().network(), 1)[0];
        session.route(s, d);
        assert_eq!(session.epoch(), 0);

        let moves = jitter(session.snapshot().network(), 2.0);
        assert!(!moves.is_empty());
        assert_eq!(service.apply_moves(&moves), 1);
        assert_eq!(service.epoch(), 1);

        // The stale session transparently re-pins on its next query.
        assert_eq!(session.epoch(), 0);
        session.route(s, d);
        assert_eq!(session.epoch(), 1);
    }

    #[test]
    fn pinned_routing_stays_on_its_epoch_across_publishes() {
        let net = prepared(250, 9);
        let service = RoutingService::new(net);
        let mut session = service.session();
        let queries = some_queries(session.snapshot().network(), 8);
        let moves = jitter(session.snapshot().network(), 3.0);
        service.apply_moves(&moves);
        // route_pinned never refreshes: all answers stay at epoch 0
        // even though the service moved on.
        for &(s, d) in &queries {
            session.route_pinned(s, d);
            assert_eq!(session.epoch(), 0);
        }
        assert_eq!(service.epoch(), 1);
        assert!(session.refresh());
        session.route_pinned(queries[0].0, queries[0].1);
        assert_eq!(session.epoch(), 1);
    }

    #[test]
    fn answers_never_outrun_the_service_epoch() {
        let net = prepared(200, 17);
        let service = RoutingService::new(net);
        let mut session = service.session();
        let queries = some_queries(session.snapshot().network(), 6);
        for round in 0..4u64 {
            for &(s, d) in &queries {
                session.route(s, d);
                assert!(session.epoch() <= service.epoch());
                assert_eq!(session.epoch(), round);
            }
            let moves = jitter(session.snapshot().network(), 1.5);
            service.apply_moves(&moves);
        }
    }

    #[test]
    fn apply_chaos_publishes_degraded_then_recovered_epochs() {
        let base = prepared(150, 23);
        let victim = base.largest_component()[0];
        let mut chaos = ChaosPlan::new();
        chaos.kill_at(1, victim);
        chaos.revive_at(3, victim);
        let service = RoutingService::new(base.clone());

        let e1 = service.apply_chaos(|_| chaos.clone(), 1);
        assert_eq!(e1, 1);
        let down = service.snapshot();
        assert_eq!(down.value.network().degree(victim), 0, "victim isolated");

        // After the revival round the degraded topology heals: the
        // revived node is requeried at its position, so the flapped
        // node's edges come back.
        let e2 = service.apply_chaos(|_| chaos.clone(), 3);
        assert_eq!(e2, 2);
        let up = service.snapshot();
        assert_eq!(
            up.value.network().degree(victim),
            base.degree(victim),
            "edges restored on revival"
        );
    }

    #[test]
    fn chaos_plans_are_drawn_on_the_epoch_they_degrade() {
        let base = prepared(150, 29);
        let mover = NodeId(3);
        let p = base.position(mover);
        let to = base.area().clamp_point(Point::new(p.x + 12.0, p.y - 7.0));
        let service = RoutingService::new(base.clone());
        service.apply_moves(&[(mover, to)]);
        let mut plan = ChaosPlan::new();
        service.apply_chaos(
            |net| {
                // A region recipe would pick its victims from here.
                assert_eq!(net.position(mover), to, "the builder saw a stale epoch");
                plan.kill_at(2, mover);
                plan.kill_at(4, NodeId(9));
                plan.revive_at(3, mover);
                plan.clone()
            },
            4,
        );
        let pin = service.snapshot();
        let net = pin.value.network();
        assert_eq!(net.down(), plan.dead_as_of(4).as_slice());
        assert_eq!(net.down(), &[NodeId(9)]);
        assert_eq!(net.position(mover), to);
    }

    #[test]
    fn quiet_chaos_epoch_matches_plain_publish() {
        let base = prepared(80, 5);
        let service = RoutingService::new(base.clone());
        service.apply_chaos(|_| ChaosPlan::new(), 0);
        let chaotic = service.snapshot();
        let plain = RoutingService::new(base.clone());
        plain.publish(base);
        let reference = plain.snapshot();
        assert_eq!(
            chaotic.value.network().len(),
            reference.value.network().len(),
            "a quiet plan publishes the same topology"
        );
        let queries = some_queries(reference.value.network(), 8);
        let mut a = service.session();
        let mut b = plain.session();
        for &(s, d) in &queries {
            let (ra, rb) = (a.route(s, d), b.route(s, d));
            assert_eq!(ra.outcome, rb.outcome);
            assert_eq!(ra.hops, rb.hops);
            assert_eq!(ra.length, rb.length);
        }
    }
}
