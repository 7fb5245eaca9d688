//! The lock-step round scheduler.
//!
//! This is the scale-optimized engine: broadcasts are delivered by
//! shared handle out of a per-round message arena (one buffered message
//! per transmission, never per edge), rounds only visit the *frontier*
//! of nodes that actually received mail, steady-state rounds reuse all
//! scratch buffers, and large frontiers can be sharded across threads
//! with output bit-identical to the serial path. Node callbacks, kills
//! and revivals run on the node runtime it shares with
//! [`crate::AsyncEngine`], and every copy passes the same link-chaos
//! rule. The pre-optimization engine survives as [`crate::LegacyEngine`]
//! so benchmarks and equivalence tests can always compare against it.

use crate::chaos::LinkChaos;
use crate::nodes::{receivers, Nodes, Outbox};
use crate::{ChaosPlan, Ctx, NodeProcess, RoundLog, SimStats};
use sp_net::{Network, NodeId};
use sp_sync::WorkQueue;

/// Node count at which [`auto_threads`] starts asking for more than one
/// thread. Below this, rounds are small enough that thread spawn and
/// merge overhead dominates any sharding win.
pub const PARALLEL_NODE_THRESHOLD: usize = 8_192;

/// Frontier size below which a round is processed inline even when the
/// engine is configured with multiple threads — quiescing-tail rounds
/// with a handful of active nodes never pay a thread spawn.
const MIN_PARALLEL_FRONTIER: usize = 32;

/// The thread count [`Engine::new`] configures by default: 1 below
/// [`PARALLEL_NODE_THRESHOLD`] nodes, otherwise
/// [`sp_sync::default_threads`] (the host's available parallelism). Any
/// count yields bit-identical results; it only trades wall-clock.
pub fn auto_threads(node_count: usize) -> usize {
    if node_count < PARALLEL_NODE_THRESHOLD {
        return 1;
    }
    sp_sync::default_threads()
}

/// An outbox drained by a worker shard, tagged with the node that
/// emitted it (merged back in ascending node order).
type TaggedOutbox<M> = (u32, Outbox<M>);

/// Errors the engine can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The protocol was still exchanging messages when the round budget
    /// ran out — usually a non-terminating protocol bug.
    RoundLimitExceeded {
        /// The budget that was exhausted.
        limit: usize,
    },
    /// The asynchronous engine popped `limit` events without draining
    /// its queue.
    EventLimitExceeded {
        /// The budget that was exhausted.
        limit: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::RoundLimitExceeded { limit } => {
                write!(f, "protocol did not quiesce within {limit} rounds")
            }
            SimError::EventLimitExceeded { limit } => {
                write!(f, "protocol did not quiesce within {limit} events")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Synchronous executor of one [`NodeProcess`] instance per network node.
///
/// Semantics per round:
/// 1. scheduled failures (if any) are applied and neighbors notified;
/// 2. every message buffered in the previous round is delivered;
/// 3. every live node with a non-empty inbox runs
///    [`NodeProcess::on_round`]; its outgoing messages are buffered for
///    the next round.
///
/// The run quiesces when no messages are in flight and no failures
/// remain scheduled.
///
/// # Delivery layer
///
/// Buffered messages live in a per-round arena (`one` entry per
/// broadcast or unicast); inboxes record `(sender, arena index)`
/// handles, so delivering a broadcast to `d` neighbors costs `d` small
/// handle pushes instead of `d` message clones. Only nodes that
/// received mail (the *frontier*) are visited in the processing phase,
/// and all per-round buffers (inboxes, outboxes, the arena) are
/// recycled, so steady-state rounds allocate nothing per message or
/// per node — a single pre-sized inbox-ref scratch per round aside
/// (it borrows the round's arena, so it cannot outlive the round).
///
/// # Threaded rounds
///
/// With [`Engine::set_threads`] (or [`auto_threads`] on a large
/// network) above 1, the processing phase shards the
/// frontier across scoped worker threads over disjoint
/// `split_at_mut` node ranges and merges outboxes in ascending node
/// order — the buffered-message order, [`SimStats`], [`RoundLog`], and
/// every process state are bit-identical to the serial path at any
/// thread count (property-tested against [`crate::LegacyEngine`]).
///
/// Because stepping *may* shard, [`Engine::step`] and
/// [`Engine::run_until_quiescent`] require `P: Send` and
/// `P::Msg: Send + Sync` even at one thread (the bounds live on those
/// methods only — construction, accessors, and failure injection have
/// none). A process built on `Rc`/`RefCell` state cannot step this
/// engine; make its state thread-safe (every process in this
/// workspace already is).
pub struct Engine<'n, P: NodeProcess> {
    nodes: Nodes<'n, P>,
    /// Messages buffered during the current round, delivered at the
    /// start of the next one. One entry per transmission.
    pending: Vec<(NodeId, Option<NodeId>, P::Msg)>,
    /// The arena of messages being delivered this round (last round's
    /// `pending`); the two buffers swap each round so neither is ever
    /// reallocated in steady state.
    delivering: Vec<(NodeId, Option<NodeId>, P::Msg)>,
    /// Per-node `(sender, arena index)` handles into `delivering`.
    inboxes: Vec<Vec<(NodeId, u32)>>,
    /// Nodes with a non-empty inbox this round, sorted ascending before
    /// processing.
    frontier: Vec<u32>,
    in_frontier: Vec<bool>,
    due_scratch: Vec<NodeId>,
    /// Capacity carried between rounds for the per-round inbox-ref
    /// scratch (the vector itself borrows the round's arena, so it
    /// cannot be stored; re-allocating at the remembered capacity
    /// avoids growth reallocations).
    refs_capacity: usize,
    threads: usize,
    stats: SimStats,
    log: RoundLog,
    chaos: LinkChaos,
    round: usize,
}

impl<'n, P: NodeProcess> Engine<'n, P> {
    /// Creates one process per node with the given factory. The thread
    /// count defaults to [`auto_threads`]; pin it with
    /// [`Engine::set_threads`].
    pub fn new(net: &'n Network, make: impl FnMut(NodeId) -> P) -> Engine<'n, P> {
        let n = net.len();
        Engine {
            nodes: Nodes::new(net, make),
            pending: Vec::new(),
            delivering: Vec::new(),
            inboxes: vec![Vec::new(); n],
            frontier: Vec::new(),
            in_frontier: vec![false; n],
            due_scratch: Vec::new(),
            refs_capacity: 0,
            threads: auto_threads(n),
            stats: SimStats::default(),
            log: RoundLog::new(),
            chaos: LinkChaos::new(ChaosPlan::new()),
            round: 0,
        }
    }

    /// Installs a chaos plan (replacing any previous one): scheduled
    /// kills and revivals, partition cut windows, and per-delivery
    /// drops, all sampled from a dedicated RNG seeded by the plan — the
    /// engine's own behavior at any thread count is unchanged by a
    /// quiet plan ([`ChaosPlan::is_quiet`]). Rounds are counted from
    /// the first [`Engine::step`] after initialization.
    pub fn set_chaos_plan(&mut self, plan: ChaosPlan) {
        self.chaos = LinkChaos::new(plan);
    }

    /// The installed chaos plan (quiet by default).
    pub fn chaos_plan(&self) -> &ChaosPlan {
        self.chaos.plan()
    }

    /// Pins the number of worker threads the processing phase may use
    /// (clamped to at least 1). Results are identical at every count.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Immutable access to the per-node processes.
    pub fn nodes(&self) -> &[P] {
        &self.nodes.procs
    }

    /// The process running on one node.
    pub fn node(&self, u: NodeId) -> &P {
        &self.nodes.procs[u.index()]
    }

    /// Whether a node is still alive.
    pub fn is_alive(&self, u: NodeId) -> bool {
        self.nodes.alive[u.index()]
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Per-round transmission trace.
    pub fn round_log(&self) -> &RoundLog {
        &self.log
    }

    /// The network being simulated.
    pub fn network(&self) -> &Network {
        self.nodes.net
    }

    /// Kills a node immediately and notifies its live neighbors.
    pub fn kill_node(&mut self, victim: NodeId) {
        if self.nodes.kill(victim) {
            self.inboxes[victim.index()].clear();
            // Drop in-flight messages from/to the victim.
            self.pending
                .retain(|(from, to, _)| *from != victim && *to != Some(victim));
            self.nodes.notify_failed(victim, |ctx| {
                queue_outbox(&mut self.pending, &mut self.stats, ctx.id, &mut ctx.outbox)
            });
        }
    }

    /// Revives a previously-killed node (flapping recovery): the node
    /// runs [`NodeProcess::on_rejoin`], then its live neighbors run
    /// [`NodeProcess::on_neighbor_recovered`] — the same local-repair
    /// path `on_neighbor_failed` uses, in the other direction. Reviving
    /// a live node is a no-op.
    pub fn revive_node(&mut self, node: NodeId) {
        debug_assert!(self.inboxes[node.index()].is_empty());
        self.nodes.revive(node, |ctx| {
            queue_outbox(&mut self.pending, &mut self.stats, ctx.id, &mut ctx.outbox)
        });
    }

    /// Runs [`NodeProcess::on_init`] on every live node. Called
    /// automatically by the run/step methods; calling it twice is a no-op.
    pub fn init(&mut self) {
        self.nodes
            .init(|ctx| queue_outbox(&mut self.pending, &mut self.stats, ctx.id, &mut ctx.outbox));
    }

    fn pending_activity(&self) -> bool {
        !self.pending.is_empty()
            || self
                .chaos
                .plan()
                .last_round()
                .is_some_and(|last| last >= self.round)
    }
}

/// The stepping methods. Only these carry `Send`/`Sync` bounds — they
/// are where rounds may shard across threads; construction, accessors,
/// and failure injection stay available to any process type.
impl<'n, P> Engine<'n, P>
where
    P: NodeProcess + Send,
    P::Msg: Send + Sync,
{
    /// Executes one round. Returns `true` while the system is still
    /// active (messages delivered or failures applied this round).
    // sp-analyze: allow(index, all indices are u32 node ids bounded by the construction-time node count; per-node arrays share that length)
    pub fn step(&mut self) -> bool {
        self.init();
        let chaos_round = self.round;
        self.due_scratch.clear();
        self.due_scratch
            .extend_from_slice(self.chaos.plan().kills_due_at(self.round));
        let mut had_events = !self.due_scratch.is_empty();
        for k in 0..self.due_scratch.len() {
            let v = self.due_scratch[k];
            self.kill_node(v);
        }
        // Flapping recovery: revivals fire after this round's kills, so
        // a node killed and revived at the same round ends up alive.
        self.due_scratch.clear();
        self.due_scratch
            .extend_from_slice(self.chaos.plan().revivals_due_at(self.round));
        had_events |= !self.due_scratch.is_empty();
        for k in 0..self.due_scratch.len() {
            let v = self.due_scratch[k];
            self.revive_node(v);
        }

        if self.pending.is_empty() && !had_events {
            // Idle round: if chaos events are still scheduled ahead,
            // time must advance toward them; otherwise the system is
            // quiescent.
            if self
                .chaos
                .plan()
                .last_round()
                .is_some_and(|last| last > chaos_round)
            {
                self.round += 1;
                self.stats.rounds = self.round;
                self.log.record(0);
                return true;
            }
            return false;
        }
        self.round += 1;
        self.stats.rounds = self.round;

        // Deliver: this round's transmissions become the message arena;
        // receivers get (sender, arena index) handles, so a broadcast
        // costs one buffered message no matter the degree. Nodes that
        // receive mail enter the frontier exactly once.
        std::mem::swap(&mut self.pending, &mut self.delivering);
        debug_assert!(self.pending.is_empty());
        assert!(
            self.delivering.len() <= u32::MAX as usize,
            "more than u32::MAX transmissions in one round"
        );
        let tx_this_round = self.delivering.len();
        // Link chaos gates the delivery path only when the plan is
        // active this round, so a quiet plan leaves the hot loop (and
        // the RNG stream: no draws happen) untouched. Delivery is
        // serial, so drop draws occur in arena order at every thread
        // count.
        let perturbed = self.chaos.plan().links_perturbed_at(chaos_round);
        let net = self.nodes.net;
        for (idx, (from, to, _)) in self.delivering.iter().enumerate() {
            for v in receivers(net, &self.nodes.alive, *from, to) {
                if perturbed
                    && self
                        .chaos
                        .lost(chaos_round, net.position(*from), net.position(v))
                {
                    continue;
                }
                self.inboxes[v.index()].push((*from, idx as u32));
                self.stats.receptions += 1;
                if !self.in_frontier[v.index()] {
                    self.in_frontier[v.index()] = true;
                    self.frontier.push(v.index() as u32);
                }
            }
        }
        self.log.record(tx_this_round);

        // Process only the frontier, in ascending node order (the same
        // order the full scan used to visit).
        self.frontier.sort_unstable();
        if self.threads > 1 && self.frontier.len() >= MIN_PARALLEL_FRONTIER {
            self.process_frontier_threaded();
        } else {
            self.process_frontier_serial();
        }

        // Reset per-round state, retaining every allocation.
        for k in 0..self.frontier.len() {
            let i = self.frontier[k] as usize;
            self.inboxes[i].clear();
            self.in_frontier[i] = false;
        }
        self.frontier.clear();
        self.delivering.clear();
        true
    }

    fn process_frontier_serial(&mut self) {
        let mut refs: Vec<(NodeId, &P::Msg)> = Vec::with_capacity(self.refs_capacity);
        for k in 0..self.frontier.len() {
            let i = self.frontier[k] as usize;
            if self.inboxes[i].is_empty() {
                continue;
            }
            refs.clear();
            refs.extend(
                self.inboxes[i]
                    .iter()
                    .map(|&(from, m)| (from, &self.delivering[m as usize].2)),
            );
            self.nodes.run(
                NodeId::new(i),
                |ctx| queue_outbox(&mut self.pending, &mut self.stats, ctx.id, &mut ctx.outbox),
                |p, ctx| p.on_round(ctx, &refs),
            );
        }
        self.refs_capacity = refs.capacity();
    }

    /// The processing phase sharded across worker threads. The sorted
    /// frontier is cut into contiguous chunks; each chunk *owns* the
    /// `split_at_mut` node range covering it (ranges are disjoint
    /// because the frontier is sorted and deduplicated), so no two
    /// workers claiming chunks off the shared [`sp_sync::WorkQueue`]
    /// ever touch the same process. Outboxes are merged in chunk order
    /// — ascending node order — which reproduces the serial
    /// buffered-message order exactly.
    fn process_frontier_threaded(&mut self) {
        let threads = self.threads.min(self.frontier.len());
        let chunk_len = self.frontier.len().div_ceil(threads);
        let frontier = &self.frontier;
        let inboxes = &self.inboxes;
        let delivering = &self.delivering;
        let alive = &self.nodes.alive;
        let net = self.nodes.net;
        // One owned work item per chunk: its frontier ids, the disjoint
        // mutable node range covering them, and the range's base id.
        let mut chunks: Vec<(&[u32], &mut [P], usize)> = Vec::with_capacity(threads);
        let mut rest: &mut [P] = &mut self.nodes.procs;
        let mut offset = 0usize;
        for ids in frontier.chunks(chunk_len) {
            let lo = ids[0] as usize;
            let hi = *ids.last().expect("chunks are non-empty") as usize; // sp-analyze: allow(panic, chunks() never yields an empty slice)
            let tail = rest.split_at_mut(lo - offset).1;
            let (mine, tail) = tail.split_at_mut(hi - lo + 1);
            rest = tail;
            offset = hi + 1;
            chunks.push((ids, mine, lo));
        }
        let mut merged: Vec<Vec<TaggedOutbox<P::Msg>>> =
            WorkQueue::new().run_owned(threads, chunks, |(ids, mine, lo)| {
                let mut out: Vec<TaggedOutbox<P::Msg>> = Vec::with_capacity(ids.len());
                let mut refs: Vec<(NodeId, &P::Msg)> = Vec::new();
                for &id in ids {
                    let i = id as usize;
                    if !alive[i] || inboxes[i].is_empty() {
                        continue;
                    }
                    refs.clear();
                    refs.extend(
                        inboxes[i]
                            .iter()
                            .map(|&(from, m)| (from, &delivering[m as usize].2)),
                    );
                    let mut ctx = Ctx {
                        id: NodeId::new(i),
                        net,
                        alive,
                        outbox: Vec::new(),
                    };
                    mine[i - lo].on_round(&mut ctx, &refs);
                    if !ctx.outbox.is_empty() {
                        out.push((id, ctx.outbox));
                    }
                }
                out
            });
        for shard in &mut merged {
            for (id, outbox) in shard.iter_mut() {
                queue_outbox(
                    &mut self.pending,
                    &mut self.stats,
                    NodeId::new(*id as usize),
                    outbox,
                );
                // Workers allocate their own buffers; the runtime keeps
                // a bounded number for the serial paths.
                self.nodes.recycle(std::mem::take(outbox));
            }
        }
    }

    /// Runs until quiescence (no in-flight messages, no pending
    /// failures) or until `max_rounds` is exceeded.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimitExceeded`] when the protocol is
    /// still active after `max_rounds` rounds.
    pub fn run_until_quiescent(&mut self, max_rounds: usize) -> Result<SimStats, SimError> {
        self.init();
        while self.pending_activity() {
            if self.round >= max_rounds {
                return Err(SimError::RoundLimitExceeded { limit: max_rounds });
            }
            self.step();
        }
        self.stats.quiesced = true;
        Ok(self.stats)
    }
}

/// Drains `outbox` into the engine's buffered-message queue, counting
/// transmissions. A free function so callers can hold disjoint borrows
/// of other engine fields (e.g. the message arena) while queueing.
fn queue_outbox<M>(
    pending: &mut Vec<(NodeId, Option<NodeId>, M)>,
    stats: &mut SimStats,
    from: NodeId,
    outbox: &mut Outbox<M>,
) {
    for (to, msg) in outbox.drain(..) {
        match to {
            None => stats.broadcasts += 1,
            Some(_) => stats.unicasts += 1,
        }
        pending.push((from, to, msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LegacyEngine;
    use sp_geom::{Point, Rect};

    fn line_net(n: usize) -> Network {
        let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(1000.0, 10.0));
        Network::from_positions(
            (0..n).map(|i| Point::new(10.0 * i as f64, 0.0)).collect(),
            15.0,
            area,
        )
    }

    /// Counts how many rounds until it saw a token passed hop by hop.
    struct Relay {
        has_token: bool,
    }

    impl NodeProcess for Relay {
        type Msg = u64;
        fn on_init(&mut self, ctx: &mut Ctx<'_, u64>) {
            if ctx.id() == NodeId(0) {
                self.has_token = true;
                // Unicast to the next node on the line.
                ctx.send(NodeId(1), 1);
            }
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, &u64)]) {
            if self.has_token {
                return;
            }
            if let Some(&(_, &hops)) = inbox.first() {
                self.has_token = true;
                let next = NodeId::new(ctx.id().index() + 1);
                if next.index() < ctx.net_len() {
                    ctx.send(next, hops + 1);
                }
            }
        }
    }

    impl<'a, M> Ctx<'a, M> {
        fn net_len(&self) -> usize {
            self.net.len()
        }
    }

    #[test]
    fn token_relay_takes_one_round_per_hop() {
        let net = line_net(6);
        let mut engine = Engine::new(&net, |_| Relay { has_token: false });
        let stats = engine.run_until_quiescent(100).unwrap();
        assert!(engine.nodes().iter().all(|n| n.has_token));
        assert_eq!(stats.rounds, 5, "five hops of unicast");
        assert_eq!(stats.unicasts, 5);
        assert_eq!(stats.broadcasts, 0);
        assert!(stats.quiesced);
        assert_eq!(engine.round_log().per_round(), &[1, 1, 1, 1, 1]);
    }

    struct Gossip {
        value: u64,
    }

    impl NodeProcess for Gossip {
        type Msg = u64;
        fn on_init(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.broadcast(self.value);
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, &u64)]) {
            let best = inbox.iter().map(|&(_, &v)| v).max().unwrap_or(0);
            if best > self.value {
                self.value = best;
                ctx.broadcast(best);
            }
        }
    }

    #[test]
    fn max_gossip_converges_to_global_max() {
        let net = line_net(8);
        let mut engine = Engine::new(&net, |id| Gossip {
            value: (id.index() as u64) * 10,
        });
        let stats = engine.run_until_quiescent(100).unwrap();
        assert!(stats.quiesced);
        for n in engine.nodes() {
            assert_eq!(n.value, 70);
        }
    }

    #[test]
    fn killed_node_partitions_relay() {
        let net = line_net(6);
        let mut engine = Engine::new(&net, |_| Relay { has_token: false });
        let mut plan = ChaosPlan::new();
        plan.kill_at(2, NodeId(3));
        engine.set_chaos_plan(plan);
        let stats = engine.run_until_quiescent(100).unwrap();
        assert!(stats.quiesced);
        assert!(!engine.node(NodeId(4)).has_token, "token blocked at n3");
        assert!(!engine.is_alive(NodeId(3)));
        assert!(engine.node(NodeId(2)).has_token);
    }

    struct Chatterbox;
    impl NodeProcess for Chatterbox {
        type Msg = ();
        fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.broadcast(());
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, ()>, _inbox: &[(NodeId, &())]) {
            ctx.broadcast(()); // never stops
        }
    }

    #[test]
    fn round_limit_detects_livelock() {
        let net = line_net(3);
        let mut engine = Engine::new(&net, |_| Chatterbox);
        let err = engine.run_until_quiescent(10).unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 10 });
        assert!(err.to_string().contains("10 rounds"));
    }

    #[test]
    fn unicast_to_non_neighbor_is_dropped() {
        struct Shouter;
        impl NodeProcess for Shouter {
            type Msg = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.id() == NodeId(0) {
                    ctx.send(NodeId(2), ()); // two hops away: out of range
                }
            }
            fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>, _inbox: &[(NodeId, &())]) {}
        }
        let net = line_net(3);
        let mut engine = Engine::new(&net, |_| Shouter);
        let stats = engine.run_until_quiescent(10).unwrap();
        assert_eq!(stats.unicasts, 1, "transmission happened");
        assert_eq!(stats.receptions, 0, "but nobody heard it");
    }

    #[test]
    fn immediate_quiescence_when_nobody_talks() {
        struct Mute;
        impl NodeProcess for Mute {
            type Msg = ();
            fn on_init(&mut self, _ctx: &mut Ctx<'_, ()>) {}
            fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>, _inbox: &[(NodeId, &())]) {}
        }
        let net = line_net(4);
        let mut engine = Engine::new(&net, |_| Mute);
        let stats = engine.run_until_quiescent(10).unwrap();
        assert_eq!(stats.rounds, 0);
        assert!(stats.quiesced);
    }

    /// The tentpole invariant at unit-test scale: every thread count
    /// (including ones far above the frontier size) reproduces the
    /// legacy engine's stats, round log, and final states, with and
    /// without failures.
    #[test]
    fn threaded_engine_matches_legacy_bit_for_bit() {
        let net = line_net(40);
        let run_legacy = |plan: &ChaosPlan| {
            let mut engine = LegacyEngine::new(&net, |id| Gossip {
                value: (id.index() as u64) * 3,
            });
            engine.set_chaos_plan(plan.clone());
            let stats = engine.run_until_quiescent(1000).unwrap();
            let values: Vec<u64> = engine.nodes().iter().map(|g| g.value).collect();
            (stats, engine.round_log().per_round().to_vec(), values)
        };
        let run_new = |plan: &ChaosPlan, threads: usize| {
            let mut engine = Engine::new(&net, |id| Gossip {
                value: (id.index() as u64) * 3,
            });
            engine.set_chaos_plan(plan.clone());
            engine.set_threads(threads);
            let stats = engine.run_until_quiescent(1000).unwrap();
            let values: Vec<u64> = engine.nodes().iter().map(|g| g.value).collect();
            (stats, engine.round_log().per_round().to_vec(), values)
        };
        let mut plans = vec![ChaosPlan::new()];
        let mut failing = ChaosPlan::new();
        failing.kill_at(2, NodeId(7));
        failing.kill_at(5, NodeId(20));
        plans.push(failing);
        for plan in &plans {
            let want = run_legacy(plan);
            for threads in [1usize, 2, 3, 8, 64] {
                assert_eq!(run_new(plan, threads), want, "threads={threads}");
            }
        }
    }

    #[test]
    fn quiet_chaos_plan_is_bit_identical_to_no_plan() {
        let net = line_net(30);
        let run = |with_plan: bool| {
            let mut engine = Engine::new(&net, |id| Gossip {
                value: (id.index() as u64) * 5,
            });
            if with_plan {
                engine.set_chaos_plan(ChaosPlan::new().with_seed(42));
            }
            let stats = engine.run_until_quiescent(1000).unwrap();
            let values: Vec<u64> = engine.nodes().iter().map(|g| g.value).collect();
            (stats, engine.round_log().per_round().to_vec(), values)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn drop_probability_one_blackholes_every_delivery() {
        let net = line_net(6);
        let mut engine = Engine::new(&net, |id| Gossip {
            value: id.index() as u64,
        });
        engine.set_chaos_plan(ChaosPlan::new().with_drop(1.0));
        let stats = engine.run_until_quiescent(100).unwrap();
        assert_eq!(stats.receptions, 0, "every delivery dropped");
        assert_eq!(engine.node(NodeId(0)).value, 0, "nothing propagated");
    }

    #[test]
    fn cut_window_partitions_the_line_while_active() {
        let net = line_net(6);
        let mut engine = Engine::new(&net, |_| Relay { has_token: false });
        let mut plan = ChaosPlan::new();
        // Sever the link between x=20 and x=30 for the whole run.
        plan.add_cut(crate::CutWindow {
            a: Point::new(25.0, -5.0),
            b: Point::new(25.0, 5.0),
            from_round: 0,
            until_round: 8,
        });
        engine.set_chaos_plan(plan);
        let stats = engine.run_until_quiescent(100).unwrap();
        assert!(stats.quiesced);
        assert!(engine.node(NodeId(2)).has_token, "west side relayed");
        assert!(!engine.node(NodeId(3)).has_token, "cut blocked the token");
    }

    struct FlapProbe {
        rejoined: usize,
        recovered: Vec<NodeId>,
    }
    impl NodeProcess for FlapProbe {
        type Msg = ();
        fn on_init(&mut self, _ctx: &mut Ctx<'_, ()>) {}
        fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>, _inbox: &[(NodeId, &())]) {}
        fn on_rejoin(&mut self, ctx: &mut Ctx<'_, ()>) {
            self.rejoined += 1;
            ctx.broadcast(());
        }
        fn on_neighbor_recovered(&mut self, _ctx: &mut Ctx<'_, ()>, recovered: NodeId) {
            self.recovered.push(recovered);
        }
    }

    #[test]
    fn flapping_node_rejoins_and_neighbors_hear_about_it() {
        let net = line_net(5);
        let mut engine = Engine::new(&net, |_| FlapProbe {
            rejoined: 0,
            recovered: Vec::new(),
        });
        let mut plan = ChaosPlan::new();
        plan.kill_at(1, NodeId(2));
        plan.revive_at(3, NodeId(2));
        engine.set_chaos_plan(plan);
        let stats = engine.run_until_quiescent(100).unwrap();
        assert!(stats.quiesced);
        assert!(engine.is_alive(NodeId(2)), "revived");
        assert_eq!(engine.node(NodeId(2)).rejoined, 1);
        assert_eq!(engine.node(NodeId(1)).recovered, vec![NodeId(2)]);
        assert_eq!(engine.node(NodeId(3)).recovered, vec![NodeId(2)]);
        assert!(
            stats.broadcasts >= 1,
            "the rejoin announcement was transmitted"
        );
        assert!(stats.receptions >= 2, "both neighbors heard the rejoin");
    }

    #[test]
    fn chaos_drops_are_deterministic_per_seed_and_thread_count() {
        let net = line_net(40);
        let run = |threads: usize| {
            let mut engine = Engine::new(&net, |id| Gossip {
                value: (id.index() as u64) * 3,
            });
            let mut plan = ChaosPlan::new().with_seed(7).with_drop(0.3);
            plan.kill_at(2, NodeId(11));
            plan.revive_at(5, NodeId(11));
            engine.set_chaos_plan(plan);
            engine.set_threads(threads);
            let stats = engine.run_until_quiescent(1000).unwrap();
            let values: Vec<u64> = engine.nodes().iter().map(|g| g.value).collect();
            (stats, engine.round_log().per_round().to_vec(), values)
        };
        let want = run(1);
        for threads in [2usize, 3, 8] {
            assert_eq!(run(threads), want, "threads={threads}");
        }
    }
}
