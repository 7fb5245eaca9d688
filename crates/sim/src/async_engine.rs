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
//! Only the delay heap is this engine's own. Node callbacks, kills and
//! revivals run on the node runtime it shares with [`crate::Engine`],
//! every copy passes the same link-chaos rule, and a run reports the
//! same [`SimStats`].
//!
//! The equivalence tests in `sp-core::distributed` run the Algorithm-2
//! labeling protocol on this engine and verify the stabilized information
//! is **identical** to the synchronous and centralized constructions for
//! every seed — the protocol is self-stabilizing under reordering because
//! statuses flip monotonically and recomputation is idempotent over the
//! cached neighbor view.

use crate::chaos::LinkChaos;
use crate::nodes::{receivers, Nodes};
use crate::{ChaosPlan, Ctx, NodeProcess, SimError, SimStats};
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

/// One message copy in flight. Every copy of a transmission shares its
/// payload.
struct Event<M> {
    time: f64,
    seq: u64,
    to: NodeId,
    from: NodeId,
    msg: Arc<M>,
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

/// The copies in flight, and everything that times them.
struct DelayHeap<M> {
    events: BinaryHeap<Event<M>>,
    /// Samples the base delays; link chaos draws from its own RNG, so a
    /// quiet plan leaves this stream untouched.
    rng: StdRng,
    cfg: AsyncConfig,
    chaos: LinkChaos,
    stats: SimStats,
    seq: u64,
    now: f64,
}

impl<M> DelayHeap<M> {
    /// Drains a callback's outbox onto the heap: one shared payload per
    /// transmission, one independently delayed copy per live receiver
    /// the link rule lets through. Each copy draws its link fate, then
    /// its delay, then its jitter. Cut windows read the virtual time as
    /// rounds.
    fn push(&mut self, ctx: &mut Ctx<'_, M>) {
        let (from, net, alive) = (ctx.id, ctx.net, ctx.alive);
        let tick = self.now as usize;
        for (to, msg) in ctx.outbox.drain(..) {
            match to {
                None => self.stats.broadcasts += 1,
                Some(_) => self.stats.unicasts += 1,
            }
            let msg = Arc::new(msg);
            for v in receivers(net, alive, from, &to) {
                if self.chaos.lost(tick, net.position(from), net.position(v)) {
                    continue;
                }
                let base = if self.cfg.min_delay == self.cfg.max_delay {
                    self.cfg.min_delay
                } else {
                    self.rng
                        .random_range(self.cfg.min_delay..self.cfg.max_delay)
                };
                let delay = base + self.chaos.jitter();
                self.seq += 1;
                self.events.push(Event {
                    time: self.now + delay,
                    seq: self.seq,
                    to: v,
                    from,
                    msg: Arc::clone(&msg),
                });
            }
        }
    }
}

/// Asynchronous executor of one [`NodeProcess`] per node.
///
/// Each queued message is delivered alone, at its own randomly-delayed
/// virtual time; the receiving process sees an inbox of exactly one
/// message. Quiescence is an empty event queue. The reported
/// [`SimStats`] count no rounds; the virtual clock is
/// [`AsyncEngine::now`].
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
    nodes: Nodes<'n, P>,
    heap: DelayHeap<P::Msg>,
}

impl<'n, P: NodeProcess> AsyncEngine<'n, P> {
    /// Creates one process per node.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has non-positive or inverted delays.
    pub fn new(net: &'n Network, cfg: AsyncConfig, make: impl FnMut(NodeId) -> P) -> Self {
        cfg.validate();
        AsyncEngine {
            nodes: Nodes::new(net, make),
            heap: DelayHeap {
                events: BinaryHeap::new(),
                rng: StdRng::seed_from_u64(cfg.seed),
                cfg,
                chaos: LinkChaos::new(ChaosPlan::new()),
                stats: SimStats::default(),
                seq: 0,
                now: 0.0,
            },
        }
    }

    /// Immutable access to the per-node processes.
    pub fn nodes(&self) -> &[P] {
        &self.nodes.procs
    }

    /// The process running on one node.
    pub fn node(&self, u: NodeId) -> &P {
        &self.nodes.procs[u.index()]
    }

    /// Whether a node is alive.
    pub fn is_alive(&self, u: NodeId) -> bool {
        self.nodes.alive[u.index()]
    }

    /// Statistics so far. `rounds` stays 0: this engine has no rounds.
    pub fn stats(&self) -> SimStats {
        self.heap.stats
    }

    /// Current virtual time: the timestamp of the last delivered event.
    pub fn now(&self) -> f64 {
        self.heap.now
    }

    /// The network being simulated.
    pub fn network(&self) -> &Network {
        self.nodes.net
    }

    /// Installs a chaos plan. The asynchronous engine honors the **link
    /// classes**: per-copy Bernoulli drops, extra delay jitter (uniform
    /// in `[0, jitter]`, added on top of the config's base delay), and
    /// partition cuts — whose round window is interpreted in **virtual
    /// time units** (`from_round <= now < until_round`). Node kills and
    /// revivals are driven explicitly via [`AsyncEngine::kill_node`] /
    /// [`AsyncEngine::revive_node`] since the engine has no round clock.
    pub fn set_chaos_plan(&mut self, plan: ChaosPlan) {
        self.heap.chaos = LinkChaos::new(plan);
    }

    /// The installed chaos plan (quiet by default).
    pub fn chaos_plan(&self) -> &ChaosPlan {
        self.heap.chaos.plan()
    }

    /// Kills a node immediately: its queued deliveries are dropped and
    /// live neighbors get [`NodeProcess::on_neighbor_failed`].
    pub fn kill_node(&mut self, victim: NodeId) {
        if self.nodes.kill(victim) {
            self.heap
                .events
                .retain(|e| e.to != victim && e.from != victim);
            self.nodes.notify_failed(victim, |ctx| self.heap.push(ctx));
        }
    }

    /// Revives a previously-killed node (flapping recovery): the node
    /// runs [`NodeProcess::on_rejoin`], then its live neighbors run
    /// [`NodeProcess::on_neighbor_recovered`]. Reviving a live node is
    /// a no-op.
    pub fn revive_node(&mut self, node: NodeId) {
        self.nodes.revive(node, |ctx| self.heap.push(ctx));
    }

    /// Runs [`NodeProcess::on_init`] on every node (idempotent).
    pub fn init(&mut self) {
        self.nodes.init(|ctx| self.heap.push(ctx));
    }

    /// Delivers every event at the next pending timestamp (usually one;
    /// several under fixed-delay configs). Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        self.init();
        let Some(time) = self.heap.events.peek().map(|e| e.time) else {
            return false;
        };
        // Delays are strictly positive, so no delivery schedules an
        // event at the instant being drained.
        while self.heap.events.peek().is_some_and(|e| e.time == time) {
            self.deliver_next();
        }
        true
    }

    /// Pops the earliest event and delivers it, unless its receiver died
    /// after the copy was sent. Returns `false` when the queue is empty.
    fn deliver_next(&mut self) -> bool {
        let Some(ev) = self.heap.events.pop() else {
            return false;
        };
        self.heap.now = ev.time;
        let inbox = [(ev.from, &*ev.msg)];
        if self.nodes.run(
            ev.to,
            |ctx| self.heap.push(ctx),
            |p, ctx| p.on_round(ctx, &inbox),
        ) {
            self.heap.stats.receptions += 1;
        }
        true
    }

    /// Runs until the event queue drains or `max_events` events have
    /// been popped, copies addressed to nodes that died after sending
    /// included.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] when the protocol is
    /// still exchanging messages after `max_events` events.
    pub fn run_until_quiescent(&mut self, max_events: usize) -> Result<SimStats, SimError> {
        self.init();
        for _ in 0..max_events {
            if !self.deliver_next() {
                break;
            }
        }
        if !self.heap.events.is_empty() {
            return Err(SimError::EventLimitExceeded { limit: max_events });
        }
        self.heap.stats.quiesced = true;
        Ok(self.heap.stats)
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
            assert!(engine.now() > 0.0);
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
            let stats = engine.run_until_quiescent(100_000).unwrap();
            (stats, engine.now())
        };
        assert_eq!(run(3), run(3));
        // Different seeds almost surely deliver in different orders;
        // final state is the same but the trace differs.
        let a = run(1);
        let b = run(2);
        assert_ne!((a.0.receptions, a.1), (b.0.receptions, b.1));
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
        assert_eq!(engine.stats().receptions, 4);
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
            // `receptions` excludes messages into the void; with no
            // failures every popped event is delivered, so the count
            // equals the events the run needs.
            stats.receptions
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
            (stats, engine.now(), values)
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
        assert_eq!(stats.receptions, 0, "every copy drops at enqueue");
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
            engine.now()
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
