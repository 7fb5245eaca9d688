//! Distributed information construction — Algorithm 2 over `sp-sim`.
//!
//! > "the safety status and the estimated shape information are collected
//! > and distributed via information exchanges among neighbors. Such an
//! > exchange is implemented by broadcasting such information of a node
//! > that newly changes its safety status to all its neighbors."
//!
//! Each node runs a [`LabelingProcess`]: it caches the last announcement
//! of every neighbor, recomputes its own tuple (Definition 1) and chain
//! endpoints (`u^{(1)}`, `u^{(2)}`), and re-broadcasts only on change.
//! Because statuses flip monotonically safe→unsafe and chain dependencies
//! are acyclic, the protocol quiesces and — as the equivalence tests
//! verify — reproduces exactly the centralized [`SafetyInfo`].
//!
//! Node failures are handled incrementally: killing a node can only make
//! neighborhoods *less* safe, so the same monotone recomputation repairs
//! the information after each failure (ablation A6).

use crate::{SafetyInfo, SafetyMap, SafetyTuple, ShapeEstimate, ShapeMap};
use sp_geom::{ccw_order_in_quadrant, Point, Quadrant, Rect};
use sp_net::{edge_nodes::edge_node_mask, Network, NodeId};
use sp_sim::{
    AsyncConfig, AsyncEngine, AsyncStats, ChaosPlan, Ctx, Engine, NodeProcess, SimError, SimStats,
};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// One type's chain endpoints as carried in announcements: the ids and
/// locations of `u^{(1)}` and `u^{(2)}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainInfo {
    /// `u^{(1)}` and its location.
    pub first: (NodeId, Point),
    /// `u^{(2)}` and its location.
    pub last: (NodeId, Point),
}

/// The tuple + chain payload of one announcement. Kept behind an `Arc`
/// in [`Announce`], so the `d` neighbors caching one broadcast share a
/// single ~200-byte allocation instead of each cloning it — the
/// dominant per-edge memory term of construction at 10⁵ nodes shrinks
/// to one body per *distinct* broadcast plus 16 bytes per cache slot.
#[derive(Debug, Clone, PartialEq)]
struct AnnounceBody {
    tuple: SafetyTuple,
    chains: [Option<ChainInfo>; 4],
}

/// Returns the payload behind a shared handle, deduplicating the common
/// cases through a small interner: the all-safe/no-chain body — every
/// node's initial announcement and the steady state of every pinned or
/// fully-safe node — exists **once per process** regardless of network
/// size.
fn intern_body(tuple: SafetyTuple, chains: [Option<ChainInfo>; 4]) -> Arc<AnnounceBody> {
    static ALL_SAFE: OnceLock<Arc<AnnounceBody>> = OnceLock::new();
    if tuple == SafetyTuple::all_safe() && chains.iter().all(Option::is_none) {
        return Arc::clone(ALL_SAFE.get_or_init(|| {
            Arc::new(AnnounceBody {
                tuple: SafetyTuple::all_safe(),
                chains: [None; 4],
            })
        }));
    }
    Arc::new(AnnounceBody { tuple, chains })
}

/// The broadcast a node sends whenever its local information changes.
///
/// `seq` is a per-sender sequence number: under asynchronous delivery two
/// announcements on the same link can arrive out of order, and without
/// the number a stale "safe" announcement could overwrite a newer
/// "unsafe" one and freeze the protocol short of the fixed point. (The
/// synchronous engine delivers per-link FIFO, where the number is
/// redundant — the asynchronous extension the paper calls "easy" does
/// hide this one detail.)
///
/// The payload rides behind a shared `AnnounceBody`, so caching an
/// announcement costs 16 bytes per receiver, not a payload clone.
#[derive(Debug, Clone, PartialEq)]
pub struct Announce {
    seq: u64,
    body: Arc<AnnounceBody>,
}

/// The per-node state machine of Algorithm 2.
#[derive(Debug, Clone)]
pub struct LabelingProcess {
    pinned: bool,
    tuple: SafetyTuple,
    chains: [Option<ChainInfo>; 4],
    neighbor_view: BTreeMap<NodeId, Announce>,
    dead: Vec<NodeId>,
    last_sent: Option<Announce>,
    next_seq: u64,
}

impl LabelingProcess {
    /// Creates the process; `pinned` marks interest-area edge nodes that
    /// keep the tuple `(1,1,1,1)`.
    pub fn new(pinned: bool) -> LabelingProcess {
        LabelingProcess {
            pinned,
            tuple: SafetyTuple::all_safe(),
            chains: [None; 4],
            neighbor_view: BTreeMap::new(),
            dead: Vec::new(),
            last_sent: None,
            next_seq: 0,
        }
    }

    /// The stabilized tuple (meaningful once the engine quiesces).
    pub fn tuple(&self) -> SafetyTuple {
        self.tuple
    }

    /// The stabilized chain endpoints per type.
    pub fn chains(&self) -> &[Option<ChainInfo>; 4] {
        &self.chains
    }

    fn neighbor_tuple(&self, v: NodeId) -> SafetyTuple {
        // Unknown neighbors are still in their initial state (Def. 1
        // step 1): all safe.
        self.neighbor_view
            .get(&v)
            .map(|a| a.body.tuple)
            .unwrap_or_else(SafetyTuple::all_safe)
    }

    /// Recomputes tuple and chains from the cached neighborhood;
    /// broadcasts iff something changed since the last announcement.
    fn recompute_and_announce(&mut self, ctx: &mut Ctx<'_, Announce>) {
        let me = ctx.id();
        let my_pos = ctx.position();
        let live: Vec<(NodeId, Point)> = ctx
            .neighbors()
            .filter(|v| !self.dead.contains(v))
            .map(|v| (v, ctx.position_of(v)))
            .collect();

        if !self.pinned {
            let view = live.iter().map(|&(v, pv)| (pv, self.neighbor_tuple(v)));
            self.tuple = self.tuple & SafetyTuple::support(my_pos, view);
        }

        // Chain endpoints for every unsafe type (Algo. 2 step 3).
        for q in Quadrant::ALL {
            if self.tuple.is_safe(q) {
                self.chains[q.array_index()] = None;
                continue;
            }
            let in_zone: Vec<(usize, Point)> = live
                .iter()
                .filter(|&&(v, _)| !self.neighbor_tuple(v).is_safe(q))
                .map(|&(v, pv)| (v.index(), pv))
                .collect();
            let order = ccw_order_in_quadrant(my_pos, q, in_zone.iter().copied());
            let chain = match (order.first(), order.last()) {
                (Some(&f), Some(&l)) => {
                    let first = self.resolve_chain_end(NodeId::new(f), q, true, &in_zone);
                    let last = self.resolve_chain_end(NodeId::new(l), q, false, &in_zone);
                    ChainInfo { first, last }
                }
                _ => ChainInfo {
                    first: (me, my_pos),
                    last: (me, my_pos),
                },
            };
            self.chains[q.array_index()] = Some(chain);
        }

        let changed = match &self.last_sent {
            Some(prev) => prev.body.tuple != self.tuple || prev.body.chains != self.chains,
            None => true,
        };
        if changed {
            let announce = Announce {
                seq: self.next_seq,
                body: intern_body(self.tuple, self.chains),
            };
            self.next_seq += 1;
            self.last_sent = Some(announce.clone());
            ctx.broadcast(announce);
        }
    }

    /// `u^{(1)} = v_1^{(1)}` (or `u^{(2)} = v_2^{(2)}`): read the chain
    /// end from the neighbor's announcement, falling back to the
    /// neighbor itself until its chain arrives.
    fn resolve_chain_end(
        &self,
        v: NodeId,
        q: Quadrant,
        first: bool,
        in_zone: &[(usize, Point)],
    ) -> (NodeId, Point) {
        let fallback = in_zone
            .iter()
            .find(|&&(id, _)| id == v.index())
            .map(|&(id, p)| (NodeId::new(id), p))
            .expect("chain target comes from the in-zone candidate list"); // sp-analyze: allow(panic, v is drawn from the same in-zone list being searched)
        match self
            .neighbor_view
            .get(&v)
            .and_then(|a| a.body.chains[q.array_index()])
        {
            Some(chain) => {
                if first {
                    chain.first
                } else {
                    chain.last
                }
            }
            None => fallback,
        }
    }
}

impl NodeProcess for LabelingProcess {
    type Msg = Announce;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Announce>) {
        // Everyone announces the initial all-safe state; stuck nodes
        // discover their empty forwarding zones immediately.
        self.recompute_and_announce(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, Announce>, inbox: &[(NodeId, &Announce)]) {
        for &(from, msg) in inbox {
            // Reject announcements older than the freshest seen from this
            // sender (asynchronous delivery reorders messages per link).
            // The engine delivers broadcasts by shared reference, and
            // caching one clones only the 16-byte handle — the payload
            // stays the sender's single Arc allocation.
            let stale = self
                .neighbor_view
                .get(&from)
                .is_some_and(|seen| seen.seq >= msg.seq);
            if !stale {
                self.neighbor_view.insert(from, msg.clone()); // sp-analyze: allow(alloc, clones the 16-byte Arc handle only; the payload stays the sender's single allocation)
            }
        }
        self.recompute_and_announce(ctx);
    }

    fn on_neighbor_failed(&mut self, ctx: &mut Ctx<'_, Announce>, failed: NodeId) {
        self.neighbor_view.remove(&failed);
        if !self.dead.contains(&failed) {
            self.dead.push(failed);
        }
        self.recompute_and_announce(ctx);
    }

    fn on_rejoin(&mut self, ctx: &mut Ctx<'_, Announce>) {
        // A flapped node restarts Algorithm 2 from its initial state:
        // everything it cached went stale while it was down. Sequence
        // numbers keep counting up so neighbors do not discard the fresh
        // announcements as stale replays of pre-failure ones.
        self.tuple = SafetyTuple::all_safe();
        self.chains = [None; 4];
        self.neighbor_view.clear();
        self.dead.clear();
        self.last_sent = None;
        self.recompute_and_announce(ctx);
    }

    fn on_neighbor_recovered(&mut self, ctx: &mut Ctx<'_, Announce>, recovered: NodeId) {
        self.dead.retain(|&v| v != recovered);
        self.neighbor_view.remove(&recovered);
        // Re-announce unconditionally: the rejoined node cleared its
        // view and needs our current state to re-derive its labels.
        // (Labels stay monotone here — a rejoin can only be credited
        // after the recovered node re-announces safe quadrants itself.)
        self.last_sent = None;
        self.recompute_and_announce(ctx);
    }
}

/// Outcome of a distributed construction run.
#[derive(Debug, Clone)]
pub struct ConstructionRun {
    /// The assembled safety information (tuples + shape estimates).
    pub info: SafetyInfo,
    /// Simulation cost: rounds and message counts — the construction
    /// cost the paper cites as "proved to be the minimum in \[7\]".
    pub stats: SimStats,
}

/// Runs Algorithm 2 distributively and assembles the resulting
/// [`SafetyInfo`].
///
/// # Errors
///
/// Returns [`SimError::RoundLimitExceeded`] if the protocol fails to
/// quiesce within `4·|V| + 16` rounds (it always should; the bound is a
/// defensive backstop).
pub fn construct_distributed(net: &Network) -> Result<ConstructionRun, SimError> {
    construct_with(
        net,
        edge_node_mask(net, net.radius()),
        ChaosPlan::new(),
        sp_sim::auto_threads(net.len()),
    )
}

/// [`construct_distributed`] with an explicit pinned mask, a
/// [`ChaosPlan`] and an engine thread count. Kills (ablation A6 strikes
/// mid-construction or after it), flapping revivals, partition cut
/// windows and lossy links all perturb the protocol; a quiet plan (no
/// events, `drop_p == 0`, no jitter) is bit-identical to no plan.
/// Every thread count produces bit-identical [`SimStats`] and
/// [`SafetyInfo`] (the engine-parity property tests enforce this); the
/// count only trades wall-clock on multi-core hosts.
///
/// # Errors
///
/// Returns [`SimError::RoundLimitExceeded`] if the protocol fails to
/// quiesce within `4·|V| + 16` rounds past the last scheduled chaos
/// event.
pub fn construct_with(
    net: &Network,
    pinned: Vec<bool>,
    chaos: ChaosPlan,
    threads: usize,
) -> Result<ConstructionRun, SimError> {
    assert_eq!(pinned.len(), net.len(), "pinned mask must cover all nodes");
    let budget = round_budget(net, &chaos);
    let mut engine = Engine::new(net, |id| LabelingProcess::new(pinned[id.index()]));
    engine.set_chaos_plan(chaos);
    engine.set_threads(threads);
    let stats = engine.run_until_quiescent(budget)?;
    Ok(ConstructionRun {
        info: assemble(net, engine.nodes(), pinned, stats.rounds),
        stats,
    })
}

/// [`construct_with`] on the frozen pre-optimization
/// [`sp_sim::LegacyEngine`], which applies only the plan's kills — the
/// comparison baseline for the `distributed_construction` benchmark
/// and the engine-parity tests. Production call sites must use
/// [`construct_with`].
pub fn construct_legacy(
    net: &Network,
    pinned: Vec<bool>,
    chaos: ChaosPlan,
) -> Result<ConstructionRun, SimError> {
    assert_eq!(pinned.len(), net.len(), "pinned mask must cover all nodes");
    let budget = round_budget(net, &chaos);
    let mut engine = sp_sim::LegacyEngine::new(net, |id| LabelingProcess::new(pinned[id.index()]));
    engine.set_chaos_plan(chaos);
    let stats = engine.run_until_quiescent(budget)?;
    Ok(ConstructionRun {
        info: assemble(net, engine.nodes(), pinned, stats.rounds),
        stats,
    })
}

/// The round budget of a construction run: `4·|V| + 16` past the last
/// scheduled chaos event (the protocol always quiesces well inside it;
/// the bound is a defensive backstop).
fn round_budget(net: &Network, chaos: &ChaosPlan) -> usize {
    chaos.last_round().unwrap_or(0) + 4 * net.len() + 16
}

/// Outcome of an asynchronous construction run.
#[derive(Debug, Clone)]
pub struct AsyncConstructionRun {
    /// The assembled safety information.
    pub info: SafetyInfo,
    /// Event-level cost of the asynchronous execution.
    pub stats: AsyncStats,
}

/// Runs Algorithm 2 on the **asynchronous** engine: every message copy is
/// delivered with its own random delay, so no synchronized rounds exist.
/// The paper's §3 claims the schemes "can be extended easily to an
/// asynchronous round based system"; the equivalence tests check the
/// stabilized result is identical to [`construct_distributed`].
///
/// # Errors
///
/// Returns [`SimError::EventLimitExceeded`] if the protocol is still
/// active after a generous per-node event budget (it never should be:
/// statuses flip monotonically, so re-announcements are finite).
pub fn construct_async(net: &Network, seed: u64) -> Result<AsyncConstructionRun, SimError> {
    construct_async_with(
        net,
        edge_node_mask(net, net.radius()),
        AsyncConfig::jittered(seed),
    )
}

/// [`construct_async`] with an explicit pinned mask and delay model.
pub fn construct_async_with(
    net: &Network,
    pinned: Vec<bool>,
    cfg: AsyncConfig,
) -> Result<AsyncConstructionRun, SimError> {
    assert_eq!(pinned.len(), net.len(), "pinned mask must cover all nodes");
    let mut engine = AsyncEngine::new(net, cfg, |id| LabelingProcess::new(pinned[id.index()]));
    // Budget: every delivery can trigger at most one re-announcement and
    // each node's tuple changes at most 4 times, but transient chain
    // updates re-broadcast too; |V|² · degree is a safe ceiling for the
    // deployments in scope.
    let budget = (net.len() * net.len()).max(10_000) * 8;
    let stats = engine.run_until_quiescent(budget)?;
    Ok(AsyncConstructionRun {
        info: assemble(net, engine.nodes(), pinned, 0),
        stats,
    })
}

/// Folds stabilized per-node process state into a [`SafetyInfo`].
fn assemble(
    net: &Network,
    processes: &[LabelingProcess],
    pinned: Vec<bool>,
    rounds: usize,
) -> SafetyInfo {
    let tuples: Vec<SafetyTuple> = processes.iter().map(|p| p.tuple()).collect();
    let mut per_type: [Vec<Option<ShapeEstimate>>; 4] =
        std::array::from_fn(|_| vec![None; net.len()]);
    for (i, proc_state) in processes.iter().enumerate() {
        let pu = net.position(NodeId::new(i));
        for q in Quadrant::ALL {
            if let Some(chain) = proc_state.chains()[q.array_index()] {
                let (first_id, first_pos) = chain.first;
                let (last_id, last_pos) = chain.last;
                let far_corner = match q {
                    Quadrant::I | Quadrant::III => Point::new(first_pos.x, last_pos.y),
                    Quadrant::II | Quadrant::IV => Point::new(last_pos.x, first_pos.y),
                };
                per_type[q.array_index()][i] = Some(ShapeEstimate {
                    first_far: first_id,
                    last_far: last_id,
                    rect: Rect::from_corners(pu, far_corner),
                    far_corner,
                });
            }
        }
    }
    let safety = SafetyMap::from_tuples(tuples, pinned, rounds);
    let shapes = ShapeMap::from_estimates(per_type);
    SafetyInfo::from_parts(safety, shapes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_net::DeploymentConfig;

    fn equivalent(net: &Network, pinned: Vec<bool>) {
        let run = construct_with(net, pinned.clone(), ChaosPlan::new(), 1).unwrap();
        let central = SafetyInfo::build_with_pinned(net, pinned);
        for u in net.node_ids() {
            assert_eq!(run.info.tuple(u), central.tuple(u), "tuple mismatch at {u}");
            for q in Quadrant::ALL {
                let dist_est = run.info.estimate(u, q);
                let cent_est = central.estimate(u, q);
                match (dist_est, cent_est) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.rect, b.rect, "E_{q}({u}) mismatch");
                        assert_eq!(a.first_far, b.first_far, "u(1) mismatch at {u} {q}");
                        assert_eq!(a.last_far, b.last_far, "u(2) mismatch at {u} {q}");
                    }
                    _ => panic!("estimate presence mismatch at {u} {q}"),
                }
            }
        }
    }

    #[test]
    fn announce_caches_share_payload_allocations() {
        // A cached announcement is a 16-byte (seq, Arc) handle…
        assert_eq!(
            std::mem::size_of::<Announce>(),
            std::mem::size_of::<u64>() + std::mem::size_of::<usize>()
        );

        let cfg = DeploymentConfig::paper_default(200);
        let net = Network::from_positions(cfg.deploy_uniform(4), cfg.radius, cfg.area);
        let pinned = edge_node_mask(&net, net.radius());
        let mut engine = Engine::new(&net, |id| LabelingProcess::new(pinned[id.index()]));
        engine
            .run_until_quiescent(4 * net.len() + 16)
            .expect("construction quiesces");
        let procs = engine.nodes();

        // …and two receivers caching the same sender's last broadcast
        // hold the same allocation, not two payload clones.
        let mut shared_pairs = 0;
        for w in net.node_ids() {
            let nbrs = net.neighbors(w);
            for pair in nbrs.windows(2) {
                let (u, v) = (pair[0], pair[1]);
                if let (Some(a), Some(b)) = (
                    procs[u.index()].neighbor_view.get(&w),
                    procs[v.index()].neighbor_view.get(&w),
                ) {
                    if a.seq == b.seq {
                        assert!(
                            Arc::ptr_eq(&a.body, &b.body),
                            "{u} and {v} must share {w}'s announce body"
                        );
                        shared_pairs += 1;
                    }
                }
            }
        }
        assert!(shared_pairs > 0, "no shared cache entries exercised");

        // The interner collapses the all-safe/no-chain steady state to
        // one process-wide body even across *different* senders.
        let mut interned = Vec::new();
        for p in procs {
            for a in p.neighbor_view.values() {
                if a.body.tuple == SafetyTuple::all_safe()
                    && a.body.chains.iter().all(Option::is_none)
                {
                    interned.push(Arc::clone(&a.body));
                }
            }
        }
        assert!(interned.len() > 1, "dense IA nets have all-safe senders");
        for w in &interned[1..] {
            assert!(Arc::ptr_eq(&interned[0], w), "interned body must be unique");
        }
    }

    #[test]
    fn distributed_matches_centralized_on_uniform_networks() {
        let cfg = DeploymentConfig::paper_default(250);
        for seed in 0..3 {
            let net = Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area);
            let pinned = edge_node_mask(&net, net.radius());
            equivalent(&net, pinned);
        }
    }

    #[test]
    fn distributed_matches_centralized_without_pinning() {
        let cfg = DeploymentConfig::paper_default(120);
        let net = Network::from_positions(cfg.deploy_uniform(42), cfg.radius, cfg.area);
        equivalent(&net, vec![false; net.len()]);
    }

    #[test]
    fn construction_quiesces_and_counts_messages() {
        let cfg = DeploymentConfig::paper_default(300);
        let net = Network::from_positions(cfg.deploy_uniform(5), cfg.radius, cfg.area);
        let run = construct_distributed(&net).unwrap();
        assert!(run.stats.quiesced);
        // Everyone broadcasts at least once (the initial announcement).
        assert!(run.stats.broadcasts >= net.len());
        assert!(run.stats.receptions > 0);
    }

    #[test]
    fn async_construction_matches_centralized_across_seeds() {
        // The §3 claim, tested: the protocol stabilizes to the same
        // information under arbitrary per-message delays.
        let cfg = DeploymentConfig::paper_default(180);
        let net = Network::from_positions(cfg.deploy_uniform(3), cfg.radius, cfg.area);
        let pinned = edge_node_mask(&net, net.radius());
        let central = SafetyInfo::build_with_pinned(&net, pinned.clone());
        for seed in 0..4 {
            let run =
                construct_async_with(&net, pinned.clone(), sp_sim::AsyncConfig::jittered(seed))
                    .unwrap();
            assert!(run.stats.quiesced);
            for u in net.node_ids() {
                assert_eq!(
                    run.info.tuple(u),
                    central.tuple(u),
                    "async tuple mismatch at {u} (seed {seed})"
                );
                for q in Quadrant::ALL {
                    match (run.info.estimate(u, q), central.estimate(u, q)) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            assert_eq!(a.rect, b.rect, "async E_{q}({u}) mismatch seed {seed}");
                        }
                        _ => panic!("estimate presence mismatch at {u} {q} seed {seed}"),
                    }
                }
            }
        }
    }

    #[test]
    fn async_construction_costs_more_messages_than_sync() {
        // Asynchrony loses the free batching of lock-step rounds: nodes
        // react to messages one at a time, so transient states are
        // re-announced more often. The comparison is itself a result the
        // harness reports (A8).
        let cfg = DeploymentConfig::paper_default(150);
        let net = Network::from_positions(cfg.deploy_uniform(7), cfg.radius, cfg.area);
        let sync_run = construct_distributed(&net).unwrap();
        let async_run = construct_async(&net, 1).unwrap();
        assert!(async_run.stats.quiesced);
        assert!(
            async_run.stats.transmissions() >= sync_run.stats.transmissions(),
            "async {} < sync {}",
            async_run.stats.transmissions(),
            sync_run.stats.transmissions()
        );
    }

    #[test]
    fn failure_after_stabilization_triggers_monotone_repair() {
        let cfg = DeploymentConfig::paper_default(200);
        let net = Network::from_positions(cfg.deploy_uniform(9), cfg.radius, cfg.area);
        let pinned = edge_node_mask(&net, net.radius());

        // Kill an interior safe node late (after stabilization ~ |V|).
        let victim = net
            .node_ids()
            .find(|&u| !pinned[u.index()] && net.degree(u) > 3)
            .expect("some interior node exists");
        let mut plan = ChaosPlan::new();
        plan.kill_at(150, victim);

        let run = construct_with(&net, pinned.clone(), plan, 1).unwrap();
        assert!(run.stats.quiesced);

        // Compare with centralized labeling of the survivor network.
        let survivors: Vec<usize> = (0..net.len()).filter(|&i| i != victim.index()).collect();
        let positions: Vec<_> = survivors
            .iter()
            .map(|&i| net.position(NodeId::new(i)))
            .collect();
        let sub = Network::from_positions(positions, net.radius(), net.area());
        let sub_pinned: Vec<bool> = survivors.iter().map(|&i| pinned[i]).collect();
        let central = SafetyInfo::build_with_pinned(&sub, sub_pinned);
        for (new_idx, &old_idx) in survivors.iter().enumerate() {
            assert_eq!(
                run.info.tuple(NodeId::new(old_idx)),
                central.tuple(NodeId::new(new_idx)),
                "post-failure tuple mismatch at old node {old_idx}"
            );
        }
    }

    #[test]
    fn quiet_chaos_construction_is_bit_identical() {
        let cfg = DeploymentConfig::paper_default(200);
        let net = Network::from_positions(cfg.deploy_uniform(11), cfg.radius, cfg.area);
        let pinned = edge_node_mask(&net, net.radius());
        let plain = construct_distributed(&net).unwrap();
        let quiet = construct_with(&net, pinned, ChaosPlan::new().with_seed(99), 1).unwrap();
        assert_eq!(plain.stats, quiet.stats);
        for u in net.node_ids() {
            assert_eq!(plain.info.tuple(u), quiet.info.tuple(u), "tuple at {u}");
        }
    }

    #[test]
    fn flapped_construction_reconverges_conservatively() {
        let cfg = DeploymentConfig::paper_default(200);
        let net = Network::from_positions(cfg.deploy_uniform(8), cfg.radius, cfg.area);
        let pinned = edge_node_mask(&net, net.radius());
        let victim = net
            .node_ids()
            .max_by_key(|&u| net.degree(u))
            .expect("nonempty");
        let mut chaos = ChaosPlan::new();
        chaos.kill_at(2, victim);
        chaos.revive_at(6, victim);
        let run = construct_with(&net, pinned.clone(), chaos, 1).unwrap();
        assert!(run.stats.quiesced, "flap run quiesces");

        // Labels are monotone: the flapped run may only be *more*
        // conservative than the pristine construction, never less.
        let pristine = SafetyInfo::build_with_pinned(&net, pinned);
        for u in net.node_ids() {
            for q in Quadrant::ALL {
                if run.info.is_safe(u, q) {
                    assert!(
                        pristine.is_safe(u, q),
                        "flap run claims safe({u}, {q}) the pristine labels deny"
                    );
                }
            }
        }
    }
}
