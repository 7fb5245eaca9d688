//! The pre-optimization lock-step scheduler, frozen.
//!
//! [`LegacyEngine`] is the engine as it existed before the zero-copy /
//! frontier / threaded-round rework of [`crate::Engine`]: broadcasts
//! are cloned **once per neighbor edge** at delivery, every round scans
//! all `n` nodes, and each callback gets freshly allocated inbox and
//! outbox buffers. It is kept (not doc-hidden) for two jobs:
//!
//! * the `distributed_construction` benchmark measures the optimized
//!   engine's speedup against it — the committed
//!   `BENCH_distributed.json` baseline records the ratio on every CI
//!   run, so the "pre-PR engine" stays measurable forever;
//! * the engine-parity property tests assert that [`crate::Engine`]
//!   reproduces its [`SimStats`], [`RoundLog`], and final process
//!   states bit-for-bit at every thread count.
//!
//! Production call sites must use [`crate::Engine`]. The only
//! departure from the historical code is forced by the by-reference
//! inbox API: messages are still cloned per edge into owned inboxes,
//! and a per-node reference slice is built on top before each
//! [`NodeProcess::on_round`] call.

use crate::{ChaosPlan, Ctx, NodeProcess, RoundLog, SimError, SimStats};
use sp_net::{Network, NodeId};

/// The seed synchronous executor: clone-per-edge delivery, full-table
/// round scans, no buffer reuse. See the module docs for why it is
/// retained.
pub struct LegacyEngine<'n, P: NodeProcess> {
    net: &'n Network,
    nodes: Vec<P>,
    alive: Vec<bool>,
    inboxes: Vec<Vec<(NodeId, P::Msg)>>,
    pending: Vec<(NodeId, Option<NodeId>, P::Msg)>,
    stats: SimStats,
    log: RoundLog,
    failures: ChaosPlan,
    round: usize,
    initialized: bool,
}

impl<'n, P: NodeProcess> LegacyEngine<'n, P> {
    /// Creates one process per node with the given factory.
    pub fn new(net: &'n Network, mut make: impl FnMut(NodeId) -> P) -> LegacyEngine<'n, P> {
        let n = net.len();
        LegacyEngine {
            net,
            nodes: (0..n).map(|i| make(NodeId::new(i))).collect(),
            alive: vec![true; n],
            inboxes: vec![Vec::new(); n],
            pending: Vec::new(),
            stats: SimStats::default(),
            log: RoundLog::new(),
            failures: ChaosPlan::new(),
            round: 0,
            initialized: false,
        }
    }

    /// Installs a failure plan (replacing any previous one). Only the
    /// plan's kills apply — the pre-optimization engine predates
    /// revivals, cuts and drops, so parity runs schedule kills alone.
    pub fn set_chaos_plan(&mut self, plan: ChaosPlan) {
        self.failures = plan;
    }

    /// Immutable access to the per-node processes.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// The process running on one node.
    pub fn node(&self, u: NodeId) -> &P {
        &self.nodes[u.index()]
    }

    /// Whether a node is still alive.
    pub fn is_alive(&self, u: NodeId) -> bool {
        self.alive[u.index()]
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
        self.net
    }

    /// Kills a node immediately and notifies its live neighbors.
    pub fn kill_node(&mut self, victim: NodeId) {
        if !self.alive[victim.index()] {
            return;
        }
        self.alive[victim.index()] = false;
        self.inboxes[victim.index()].clear();
        self.pending
            .retain(|(from, to, _)| *from != victim && *to != Some(victim));
        let neighbors: Vec<NodeId> = self.net.neighbors(victim).to_vec();
        for v in neighbors {
            if !self.alive[v.index()] {
                continue;
            }
            let mut ctx = Ctx {
                id: v,
                net: self.net,
                alive: &self.alive,
                outbox: Vec::new(),
            };
            self.nodes[v.index()].on_neighbor_failed(&mut ctx, victim);
            let outbox = ctx.outbox;
            self.queue_outbox(v, outbox);
        }
    }

    fn queue_outbox(&mut self, from: NodeId, outbox: Vec<(Option<NodeId>, P::Msg)>) {
        for (to, msg) in outbox {
            match to {
                None => self.stats.broadcasts += 1,
                Some(_) => self.stats.unicasts += 1,
            }
            self.pending.push((from, to, msg));
        }
    }

    /// Runs [`NodeProcess::on_init`] on every live node (idempotent).
    pub fn init(&mut self) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        for i in 0..self.nodes.len() {
            if !self.alive[i] {
                continue;
            }
            let mut ctx = Ctx {
                id: NodeId::new(i),
                net: self.net,
                alive: &self.alive,
                outbox: Vec::new(),
            };
            self.nodes[i].on_init(&mut ctx);
            let outbox = ctx.outbox;
            self.queue_outbox(NodeId::new(i), outbox);
        }
    }

    /// Executes one round. Returns `true` while the system is still
    /// active.
    pub fn step(&mut self) -> bool {
        self.init();
        let due: Vec<NodeId> = self.failures.kills_due_at(self.round).to_vec();
        let had_failures = !due.is_empty();
        for v in due {
            self.kill_node(v);
        }

        if self.pending.is_empty() && !had_failures {
            if self.last_kill_round().is_some_and(|last| last > self.round) {
                self.round += 1;
                self.stats.rounds = self.round;
                self.log.record(0);
                return true;
            }
            return false;
        }
        self.round += 1;
        self.stats.rounds = self.round;

        // Deliver: one message clone per receiving edge.
        let pending = std::mem::take(&mut self.pending);
        let tx_this_round = pending.len();
        for (from, to, msg) in pending {
            match to {
                None => {
                    for &v in self.net.neighbors(from) {
                        if self.alive[v.index()] {
                            self.inboxes[v.index()].push((from, msg.clone()));
                            self.stats.receptions += 1;
                        }
                    }
                }
                Some(v) => {
                    if self.alive[v.index()] && self.net.has_edge(from, v) {
                        self.inboxes[v.index()].push((from, msg));
                        self.stats.receptions += 1;
                    }
                }
            }
        }
        self.log.record(tx_this_round);

        // Process: full scan over all n nodes.
        for i in 0..self.nodes.len() {
            if !self.alive[i] || self.inboxes[i].is_empty() {
                continue;
            }
            let inbox = std::mem::take(&mut self.inboxes[i]);
            let refs: Vec<(NodeId, &P::Msg)> = inbox.iter().map(|(f, m)| (*f, m)).collect();
            let mut ctx = Ctx {
                id: NodeId::new(i),
                net: self.net,
                alive: &self.alive,
                outbox: Vec::new(),
            };
            self.nodes[i].on_round(&mut ctx, &refs);
            let outbox = ctx.outbox;
            self.queue_outbox(NodeId::new(i), outbox);
        }
        true
    }

    /// Runs until quiescence or until `max_rounds` is exceeded.
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

    fn pending_activity(&self) -> bool {
        !self.pending.is_empty()
            || self
                .last_kill_round()
                .is_some_and(|last| last >= self.round)
    }

    fn last_kill_round(&self) -> Option<usize> {
        self.failures.kills().last().map(|e| e.0)
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
    fn legacy_gossip_still_converges() {
        let net = line_net(8);
        let mut engine = LegacyEngine::new(&net, |id| Gossip {
            value: (id.index() as u64) * 10,
        });
        let stats = engine.run_until_quiescent(100).unwrap();
        assert!(stats.quiesced);
        for n in engine.nodes() {
            assert_eq!(n.value, 70);
        }
    }

    #[test]
    fn legacy_failure_plan_still_applies() {
        let net = line_net(5);
        let mut engine = LegacyEngine::new(&net, |id| Gossip {
            value: id.index() as u64,
        });
        let mut plan = ChaosPlan::new();
        plan.kill_at(1, NodeId(2));
        engine.set_chaos_plan(plan);
        let stats = engine.run_until_quiescent(100).unwrap();
        assert!(stats.quiesced);
        assert!(!engine.is_alive(NodeId(2)));
        assert!(engine.node(NodeId(0)).value < 4, "line cut at node 2");
        assert_eq!(engine.network().len(), 5);
    }
}
