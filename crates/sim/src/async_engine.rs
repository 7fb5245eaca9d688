//! Event-driven asynchronous executor.
//!
//! §3 of the paper: "All the schemes presented in this paper can be
//! extended easily to an asynchronous round based system." This engine
//! makes that claim testable: the same [`NodeProcess`] state machines run
//! with **per-message random delivery delays** instead of lock-step
//! rounds. Messages are delivered one at a time in virtual-time order;
//! each copy of a broadcast takes its own independently-sampled delay, so
//! no two nodes ever observe a synchronized "round".
//!
//! Two scale features keep large runs cheap: broadcast payloads are
//! stored once behind an [`Arc`] and every queued copy shares the
//! handle (one allocation per transmission, not per edge), and the
//! event loop drains all heap entries sharing the minimal timestamp in
//! one batch — equal-time events are delivered in enqueue (`seq`)
//! order, exactly as repeated single pops would, so trajectories are
//! unchanged.
//!
//! The equivalence tests in `sp-core::distributed` run the Algorithm-2
//! labeling protocol on this engine and verify the stabilized information
//! is **identical** to the synchronous and centralized constructions for
//! every seed — the protocol is self-stabilizing under reordering because
//! statuses flip monotonically and recomputation is idempotent over the
//! cached neighbor view.

use crate::{ChaosPlan, Ctx, NodeProcess, SimError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sp_net::{Network, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Delivery-delay configuration of the asynchronous engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncConfig {
    /// RNG seed for delay sampling (runs are reproducible per seed).
    pub seed: u64,
    /// Smallest per-message delivery delay (virtual time units).
    pub min_delay: f64,
    /// Largest per-message delivery delay.
    pub max_delay: f64,
}

impl AsyncConfig {
    /// A widely-jittered default: delays uniform in `[0.5, 3.5)`, so a
    /// message sent later routinely overtakes one sent earlier.
    pub fn jittered(seed: u64) -> AsyncConfig {
        AsyncConfig {
            seed,
            min_delay: 0.5,
            max_delay: 3.5,
        }
    }

    fn validate(&self) {
        assert!(
            self.min_delay > 0.0 && self.max_delay >= self.min_delay,
            "delays must satisfy 0 < min <= max"
        );
    }
}

impl Default for AsyncConfig {
    fn default() -> AsyncConfig {
        AsyncConfig::jittered(0)
    }
}

/// Counters of one asynchronous run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AsyncStats {
    /// Messages delivered (each broadcast copy counts once).
    pub deliveries: usize,
    /// Broadcast transmissions.
    pub broadcasts: usize,
    /// Unicast transmissions.
    pub unicasts: usize,
    /// Virtual time of the last delivery.
    pub virtual_time: f64,
    /// Whether the run drained its event queue (vs hitting the limit).
    pub quiesced: bool,
}

impl AsyncStats {
    /// Total transmissions of any kind.
    pub fn transmissions(&self) -> usize {
        self.broadcasts + self.unicasts
    }
}

/// An event's message payload: unicasts move the message inline (no
/// extra allocation over the pre-sharing engine), broadcast copies
/// share one `Arc` so the payload is allocated once per transmission
/// regardless of degree.
enum Payload<M> {
    Owned(M),
    Shared(Arc<M>),
}

impl<M> Payload<M> {
    fn get(&self) -> &M {
        match self {
            Payload::Owned(m) => m,
            Payload::Shared(m) => m,
        }
    }
}

struct Event<M> {
    time: f64,
    seq: u64,
    to: NodeId,
    from: NodeId,
    msg: Payload<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Asynchronous executor of one [`NodeProcess`] per node.
///
/// Each queued message is delivered alone, at its own randomly-delayed
/// virtual time; the receiving process sees an inbox of exactly one
/// message. Quiescence is an empty event queue.
///
/// ```
/// use sp_net::{Network, NodeId};
/// use sp_sim::{AsyncConfig, AsyncEngine, Ctx, NodeProcess};
/// use sp_geom::{Point, Rect};
///
/// struct Flood { seen: bool }
/// impl NodeProcess for Flood {
///     type Msg = ();
///     fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
///         if ctx.id() == NodeId(0) {
///             self.seen = true;
///             ctx.broadcast(());
///         }
///     }
///     fn on_round(&mut self, ctx: &mut Ctx<'_, ()>, _inbox: &[(NodeId, &())]) {
///         if !self.seen {
///             self.seen = true;
///             ctx.broadcast(());
///         }
///     }
/// }
///
/// let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(50.0, 50.0));
/// let net = Network::from_positions(
///     vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(20.0, 0.0)],
///     15.0,
///     area,
/// );
/// let mut engine = AsyncEngine::new(&net, AsyncConfig::jittered(7), |_| Flood { seen: false });
/// let stats = engine.run_until_quiescent(10_000).unwrap();
/// assert!(stats.quiesced);
/// assert!(engine.nodes().iter().all(|n| n.seen));
/// ```
pub struct AsyncEngine<'n, P: NodeProcess> {
    net: &'n Network,
    nodes: Vec<P>,
    alive: Vec<bool>,
    queue: BinaryHeap<Event<P::Msg>>,
    /// Scratch for the equal-timestamp batch drained per step.
    batch: Vec<Event<P::Msg>>,
    neighbor_scratch: Vec<NodeId>,
    /// `notify_neighbors`' own neighbor scratch — it dispatches outboxes
    /// mid-iteration, which clobbers `neighbor_scratch`.
    notify_scratch: Vec<NodeId>,
    /// Recycled outbox buffers handed to `Ctx` (one delivery at a time,
    /// so the pool stays tiny).
    outbox_pool: Vec<Vec<(Option<NodeId>, P::Msg)>>,
    rng: StdRng,
    /// Link-chaos state: the plan's drop/jitter/cut classes, sampled
    /// from a dedicated RNG so the base delay stream (`rng`) is
    /// untouched — a quiet plan is bit-identical to no plan.
    chaos: ChaosPlan,
    chaos_rng: Option<StdRng>,
    cfg: AsyncConfig,
    stats: AsyncStats,
    seq: u64,
    now: f64,
    initialized: bool,
}

impl<'n, P: NodeProcess> AsyncEngine<'n, P> {
    /// Creates one process per node.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has non-positive or inverted delays.
    pub fn new(net: &'n Network, cfg: AsyncConfig, mut make: impl FnMut(NodeId) -> P) -> Self {
        cfg.validate();
        let n = net.len();
        AsyncEngine {
            net,
            nodes: (0..n).map(|i| make(NodeId::new(i))).collect(),
            alive: vec![true; n],
            queue: BinaryHeap::new(),
            batch: Vec::new(),
            neighbor_scratch: Vec::new(),
            notify_scratch: Vec::new(),
            outbox_pool: Vec::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
            chaos: ChaosPlan::new(),
            chaos_rng: None,
            cfg,
            stats: AsyncStats::default(),
            seq: 0,
            now: 0.0,
            initialized: false,
        }
    }

    /// Immutable access to the per-node processes.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// The process running on one node.
    pub fn node(&self, u: NodeId) -> &P {
        &self.nodes[u.index()]
    }

    /// Whether a node is alive.
    pub fn is_alive(&self, u: NodeId) -> bool {
        self.alive[u.index()]
    }

    /// Statistics so far.
    pub fn stats(&self) -> AsyncStats {
        self.stats
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The network being simulated.
    pub fn network(&self) -> &Network {
        self.net
    }

    /// Installs a chaos plan. The asynchronous engine honors the **link
    /// classes**: per-copy Bernoulli drops, extra delay jitter (uniform
    /// in `[0, jitter]`, added on top of the config's base delay), and
    /// partition cuts — whose round window is interpreted in **virtual
    /// time units** (`from_round <= now < until_round`). Node kills and
    /// revivals are driven explicitly via [`AsyncEngine::kill_node`] /
    /// [`AsyncEngine::revive_node`] since the engine has no round clock.
    pub fn set_chaos_plan(&mut self, plan: ChaosPlan) {
        self.chaos_rng = if plan.drop_p() > 0.0 || plan.jitter() > 0.0 {
            Some(StdRng::seed_from_u64(plan.seed() ^ 0xc4a0_5eed))
        } else {
            None
        };
        self.chaos = plan;
    }

    /// The installed chaos plan (quiet by default).
    pub fn chaos_plan(&self) -> &ChaosPlan {
        &self.chaos
    }

    fn sample_delay(&mut self) -> f64 {
        if self.cfg.min_delay == self.cfg.max_delay {
            self.cfg.min_delay
        } else {
            self.rng
                .random_range(self.cfg.min_delay..self.cfg.max_delay)
        }
    }

    /// Whether link chaos swallows a copy addressed `from -> to` right
    /// now: an active cut severing the link, or a Bernoulli drop. Quiet
    /// plans short-circuit without touching any RNG.
    fn chaos_blocks(&mut self, from: NodeId, to: NodeId) -> bool {
        let tick = self.now as usize;
        if !self.chaos.links_perturbed_at(tick) {
            return false;
        }
        if self
            .chaos
            .severed_at(tick, self.net.position(from), self.net.position(to))
        {
            return true;
        }
        let p = self.chaos.drop_p();
        p > 0.0
            && self
                .chaos_rng
                .as_mut()
                .is_some_and(|rng| rng.random_bool(p))
    }

    fn enqueue(&mut self, from: NodeId, to: NodeId, msg: Payload<P::Msg>) {
        if self.chaos_blocks(from, to) {
            return;
        }
        let mut delay = self.sample_delay();
        let jitter = self.chaos.jitter();
        if jitter > 0.0 {
            if let Some(rng) = self.chaos_rng.as_mut() {
                delay += rng.random_range(0.0..jitter);
            }
        }
        self.seq += 1;
        self.queue.push(Event {
            time: self.now + delay,
            seq: self.seq,
            to,
            from,
            msg,
        });
    }

    /// Drains `outbox` into the event queue; the caller returns the
    /// emptied buffer to `outbox_pool`.
    fn dispatch_outbox(&mut self, from: NodeId, outbox: &mut Vec<(Option<NodeId>, P::Msg)>) {
        for (to, msg) in outbox.drain(..) {
            match to {
                None => {
                    self.stats.broadcasts += 1;
                    // One shared payload allocation per broadcast; every
                    // copy still takes its own delay — the defining
                    // difference from the synchronous engine.
                    let msg = Arc::new(msg);
                    self.neighbor_scratch.clear();
                    self.neighbor_scratch.extend(
                        self.net
                            .neighbors(from)
                            .iter()
                            .copied()
                            .filter(|v| self.alive[v.index()]),
                    );
                    for k in 0..self.neighbor_scratch.len() {
                        let v = self.neighbor_scratch[k];
                        self.enqueue(from, v, Payload::Shared(Arc::clone(&msg)));
                    }
                }
                Some(v) => {
                    self.stats.unicasts += 1;
                    if self.alive[v.index()] && self.net.has_edge(from, v) {
                        self.enqueue(from, v, Payload::Owned(msg));
                    }
                }
            }
        }
    }

    /// Kills a node immediately: its queued deliveries are dropped and
    /// live neighbors get [`NodeProcess::on_neighbor_failed`].
    pub fn kill_node(&mut self, victim: NodeId) {
        if !self.alive[victim.index()] {
            return;
        }
        self.alive[victim.index()] = false;
        let keep: Vec<Event<P::Msg>> = self
            .queue
            .drain()
            .filter(|e| e.to != victim && e.from != victim)
            .collect();
        self.queue = keep.into_iter().collect();
        self.notify_neighbors(victim, |p, ctx| p.on_neighbor_failed(ctx, victim));
    }

    /// Revives a previously-killed node (flapping recovery): the node
    /// runs [`NodeProcess::on_rejoin`], then its live neighbors run
    /// [`NodeProcess::on_neighbor_recovered`]. Reviving a live node is
    /// a no-op.
    pub fn revive_node(&mut self, node: NodeId) {
        if self.alive[node.index()] {
            return;
        }
        self.alive[node.index()] = true;
        self.run_callback(node, |p, ctx| p.on_rejoin(ctx));
        self.notify_neighbors(node, |p, ctx| p.on_neighbor_recovered(ctx, node));
    }

    /// Runs `callback` on every live neighbor of `node` — the one local
    /// repair path that kills and revivals share.
    fn notify_neighbors(&mut self, node: NodeId, callback: impl Fn(&mut P, &mut Ctx<'_, P::Msg>)) {
        self.notify_scratch.clear();
        self.notify_scratch
            .extend_from_slice(self.net.neighbors(node));
        for k in 0..self.notify_scratch.len() {
            let v = self.notify_scratch[k];
            if self.alive[v.index()] {
                self.run_callback(v, &callback);
            }
        }
    }

    /// Runs one process callback with a pooled outbox and dispatches
    /// what it sent.
    fn run_callback(&mut self, id: NodeId, callback: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>)) {
        let mut ctx = Ctx {
            id,
            net: self.net,
            alive: &self.alive,
            outbox: self.outbox_pool.pop().unwrap_or_default(),
        };
        callback(&mut self.nodes[id.index()], &mut ctx);
        let mut outbox = ctx.outbox;
        self.dispatch_outbox(id, &mut outbox);
        self.outbox_pool.push(outbox);
    }

    /// Runs [`NodeProcess::on_init`] on every node (idempotent).
    pub fn init(&mut self) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        for i in 0..self.nodes.len() {
            if self.alive[i] {
                self.run_callback(NodeId::new(i), |p, ctx| p.on_init(ctx));
            }
        }
    }

    /// Delivers every event at the next pending timestamp (usually one;
    /// several under fixed-delay configs). Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_batch(usize::MAX) > 0
    }

    /// Drains up to `budget` heap entries sharing the minimal timestamp
    /// and delivers them in `seq` order — the exact order repeated
    /// single pops would produce, minus the per-event heap rebalances.
    /// Events beyond the budget stay queued (they resume at the same
    /// timestamp on the next call), so delivery budgets are honored to
    /// the event, not to the batch. Returns the number of events
    /// popped.
    fn step_batch(&mut self, budget: usize) -> usize {
        if budget == 0 {
            return 0;
        }
        self.init();
        let Some(ev) = self.queue.pop() else {
            return 0;
        };
        let time = ev.time;
        self.batch.clear();
        self.batch.push(ev);
        while self.batch.len() < budget && self.queue.peek().is_some_and(|next| next.time == time) {
            let next = self.queue.pop().expect("peeked event exists"); // sp-analyze: allow(panic, pop follows a successful peek under exclusive access)
            self.batch.push(next);
        }
        self.now = time;
        self.stats.virtual_time = time;
        let popped = self.batch.len();
        let mut batch = std::mem::take(&mut self.batch);
        for ev in batch.drain(..) {
            if !self.alive[ev.to.index()] {
                continue; // message into the void
            }
            self.stats.deliveries += 1;
            let inbox = [(ev.from, ev.msg.get())];
            self.run_callback(ev.to, |p, ctx| p.on_round(ctx, &inbox));
        }
        self.batch = batch;
        popped
    }

    /// Runs until the event queue drains or `max_events` deliveries.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] when the protocol is
    /// still exchanging messages after `max_events` deliveries.
    pub fn run_until_quiescent(&mut self, max_events: usize) -> Result<AsyncStats, SimError> {
        self.init();
        let mut delivered = 0usize;
        while !self.queue.is_empty() {
            if delivered >= max_events {
                return Err(SimError::EventLimitExceeded { limit: max_events });
            }
            delivered += self.step_batch(max_events - delivered);
        }
        self.stats.quiesced = true;
        Ok(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_geom::{Point, Rect};

    fn line_net(n: usize) -> Network {
        let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(1000.0, 10.0));
        Network::from_positions(
            (0..n).map(|i| Point::new(10.0 * i as f64, 0.0)).collect(),
            15.0,
            area,
        )
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
    fn max_gossip_converges_despite_reordering() {
        let net = line_net(8);
        for seed in 0..5 {
            let mut engine = AsyncEngine::new(&net, AsyncConfig::jittered(seed), |id| Gossip {
                value: (id.index() as u64) * 10,
            });
            let stats = engine.run_until_quiescent(100_000).unwrap();
            assert!(stats.quiesced);
            assert!(stats.virtual_time > 0.0);
            for n in engine.nodes() {
                assert_eq!(n.value, 70, "seed {seed}");
            }
        }
    }

    #[test]
    fn same_seed_same_trajectory() {
        let net = line_net(6);
        let run = |seed| {
            let mut engine = AsyncEngine::new(&net, AsyncConfig::jittered(seed), |id| Gossip {
                value: id.index() as u64,
            });
            engine.run_until_quiescent(100_000).unwrap()
        };
        assert_eq!(run(3), run(3));
        // Different seeds almost surely deliver in different orders;
        // final state is the same but the trace differs.
        let a = run(1);
        let b = run(2);
        assert_ne!(
            (a.deliveries, a.virtual_time),
            (b.deliveries, b.virtual_time)
        );
    }

    #[test]
    fn event_limit_detects_livelock() {
        struct Chatterbox;
        impl NodeProcess for Chatterbox {
            type Msg = ();
            fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.broadcast(());
            }
            fn on_round(&mut self, ctx: &mut Ctx<'_, ()>, _inbox: &[(NodeId, &())]) {
                ctx.broadcast(());
            }
        }
        let net = line_net(3);
        let mut engine = AsyncEngine::new(&net, AsyncConfig::jittered(0), |_| Chatterbox);
        let err = engine.run_until_quiescent(50).unwrap_err();
        assert_eq!(err, SimError::EventLimitExceeded { limit: 50 });
        assert!(err.to_string().contains("50"));
    }

    #[test]
    fn killed_node_stops_receiving_and_notifies() {
        struct Watcher {
            lost: Vec<NodeId>,
        }
        impl NodeProcess for Watcher {
            type Msg = ();
            fn on_init(&mut self, _ctx: &mut Ctx<'_, ()>) {}
            fn on_round(&mut self, _ctx: &mut Ctx<'_, ()>, _inbox: &[(NodeId, &())]) {}
            fn on_neighbor_failed(&mut self, _ctx: &mut Ctx<'_, ()>, failed: NodeId) {
                self.lost.push(failed);
            }
        }
        let net = line_net(3);
        let mut engine =
            AsyncEngine::new(&net, AsyncConfig::jittered(1), |_| Watcher { lost: vec![] });
        engine.init();
        engine.kill_node(NodeId(1));
        assert!(!engine.is_alive(NodeId(1)));
        assert_eq!(engine.node(NodeId(0)).lost, vec![NodeId(1)]);
        assert_eq!(engine.node(NodeId(2)).lost, vec![NodeId(1)]);
        let stats = engine.run_until_quiescent(1000).unwrap();
        assert!(stats.quiesced);
    }

    #[test]
    fn fixed_delay_behaves_like_fifo_per_link() {
        // With equal delays, per-sender order is preserved (seq ties
        // break by enqueue order): gossip converges with the same final
        // state and the engine stays deterministic. This is also the
        // config where per-timestamp batching actually batches: every
        // wave of messages shares one delivery instant.
        let net = line_net(5);
        let cfg = AsyncConfig {
            seed: 9,
            min_delay: 1.0,
            max_delay: 1.0,
        };
        let mut engine = AsyncEngine::new(&net, cfg, |id| Gossip {
            value: id.index() as u64,
        });
        let stats = engine.run_until_quiescent(100_000).unwrap();
        assert!(stats.quiesced);
        for n in engine.nodes() {
            assert_eq!(n.value, 4);
        }
    }

    #[test]
    fn batched_step_counts_every_equal_time_event() {
        // Fixed delays: the init wave of 3 broadcasts lands as one
        // batch of 4 same-time deliveries (2 + 2 line endpoints share
        // middles...), and one `step` call consumes the whole instant.
        let net = line_net(3);
        let cfg = AsyncConfig {
            seed: 1,
            min_delay: 2.0,
            max_delay: 2.0,
        };
        let mut engine = AsyncEngine::new(&net, cfg, |id| Gossip {
            value: id.index() as u64,
        });
        engine.init();
        assert!(engine.step(), "first instant delivers");
        // All init-wave copies share time 2.0: 0->1, 1->0, 1->2, 2->1.
        assert_eq!(engine.stats().deliveries, 4);
        assert_eq!(engine.now(), 2.0);
    }

    #[test]
    fn event_budget_is_exact_even_under_fixed_delay_batches() {
        // Fixed delays make whole waves share a timestamp; the budget
        // must still be honored to the event, exactly like the
        // pre-batching engine: one event short of the true total errs,
        // the true total succeeds.
        let net = line_net(4);
        let cfg = AsyncConfig {
            seed: 5,
            min_delay: 1.0,
            max_delay: 1.0,
        };
        let total = {
            let mut engine = AsyncEngine::new(&net, cfg, |id| Gossip {
                value: id.index() as u64,
            });
            let stats = engine.run_until_quiescent(100_000).unwrap();
            // `deliveries` excludes messages into the void; with no
            // failures every popped event is delivered, so the count
            // equals the events the run needs.
            stats.deliveries
        };
        let run = |budget| {
            let mut engine = AsyncEngine::new(&net, cfg, |id| Gossip {
                value: id.index() as u64,
            });
            engine.run_until_quiescent(budget)
        };
        assert_eq!(
            run(total - 1).unwrap_err(),
            SimError::EventLimitExceeded { limit: total - 1 }
        );
        assert!(run(total).unwrap().quiesced);
    }

    #[test]
    fn quiet_chaos_plan_is_bit_identical_to_no_plan() {
        let net = line_net(12);
        let run = |plan: Option<ChaosPlan>| {
            let mut engine = AsyncEngine::new(&net, AsyncConfig::jittered(17), |id| Gossip {
                value: id.index() as u64,
            });
            if let Some(plan) = plan {
                engine.set_chaos_plan(plan);
            }
            let stats = engine.run_until_quiescent(100_000).unwrap();
            let values: Vec<u64> = engine.nodes().iter().map(|n| n.value).collect();
            (stats, values)
        };
        // A seeded but eventless plan must not perturb the delay stream.
        assert_eq!(run(None), run(Some(ChaosPlan::new().with_seed(99))));
    }

    #[test]
    fn async_drop_probability_one_swallows_every_copy() {
        let net = line_net(6);
        let mut engine = AsyncEngine::new(&net, AsyncConfig::jittered(3), |id| Gossip {
            value: id.index() as u64,
        });
        engine.set_chaos_plan(ChaosPlan::new().with_seed(8).with_drop(1.0));
        let stats = engine.run_until_quiescent(100_000).unwrap();
        assert!(stats.quiesced);
        assert_eq!(stats.deliveries, 0, "every copy drops at enqueue");
        for (i, n) in engine.nodes().iter().enumerate() {
            assert_eq!(n.value, i as u64, "nobody ever heard a neighbor");
        }
    }

    #[test]
    fn async_cut_window_severs_in_virtual_time() {
        // A vertical cut through the middle of the line for the whole
        // run: the halves converge independently.
        let net = line_net(6);
        let mut engine = AsyncEngine::new(&net, AsyncConfig::jittered(5), |id| Gossip {
            value: id.index() as u64,
        });
        let mut plan = ChaosPlan::new().with_seed(2);
        plan.add_cut(crate::CutWindow {
            a: Point::new(25.0, -5.0),
            b: Point::new(25.0, 15.0),
            from_round: 0,
            until_round: usize::MAX,
        });
        engine.set_chaos_plan(plan);
        let stats = engine.run_until_quiescent(100_000).unwrap();
        assert!(stats.quiesced);
        // Left half (0..=2) gossips to 2; right half (3..=5) to 5.
        let values: Vec<u64> = engine.nodes().iter().map(|n| n.value).collect();
        assert_eq!(values, vec![2, 2, 2, 5, 5, 5]);
    }

    #[test]
    fn async_jitter_changes_the_trace_but_not_convergence() {
        let net = line_net(8);
        let run = |jitter: f64| {
            let mut engine = AsyncEngine::new(&net, AsyncConfig::jittered(11), |id| Gossip {
                value: id.index() as u64,
            });
            if jitter > 0.0 {
                engine.set_chaos_plan(ChaosPlan::new().with_seed(4).with_jitter(jitter));
            }
            let stats = engine.run_until_quiescent(100_000).unwrap();
            assert!(stats.quiesced);
            for n in engine.nodes() {
                assert_eq!(n.value, 7);
            }
            stats.virtual_time
        };
        assert_ne!(run(0.0), run(3.0), "jitter stretches the schedule");
    }

    #[test]
    #[should_panic(expected = "delays must satisfy")]
    fn invalid_delay_config_panics() {
        let net = line_net(2);
        let cfg = AsyncConfig {
            seed: 0,
            min_delay: 2.0,
            max_delay: 1.0,
        };
        let _ = AsyncEngine::new(&net, cfg, |_| Gossip { value: 0 });
    }
}
