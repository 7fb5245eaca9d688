//! Chaos trajectories pinned to recorded values.
//!
//! `engine_parity` compares the round engine against a reference that
//! applies kills only, and the determinism tests compare a run with
//! itself, so neither notices a change in how link chaos is sampled
//! (say, drawing the drop before checking the cut). These tests fix
//! the exact counters, virtual clock and final states of seeded runs
//! under drops, cuts, jitter, kills and revivals on both engines, so
//! any change to a trajectory fails here and has to be rebaselined on
//! purpose.

use sp_core::{construct_async, construct_with, SafetyInfo};
use sp_geom::{Point, Quadrant};
use sp_net::{edge_nodes::edge_node_mask, DeploymentConfig, Network, NodeId};
use sp_sim::{AsyncConfig, AsyncEngine, ChaosPlan, Ctx, CutWindow, Engine, NodeProcess, SimStats};

fn stats(rounds: usize, broadcasts: usize, unicasts: usize, receptions: usize) -> SimStats {
    SimStats {
        rounds,
        broadcasts,
        unicasts,
        receptions,
        quiesced: true,
    }
}

/// FNV-1a over little-endian words: a digest that stays the same
/// across toolchains and hosts.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn point(&mut self, p: Point) {
        self.word(p.x.to_bits());
        self.word(p.y.to_bits());
    }
}

fn network(n: usize, seed: u64) -> Network {
    let cfg = DeploymentConfig::paper_default(n);
    Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area)
}

/// A vertical cut along x = 100 m across the whole 200 m field.
fn cut(from_round: usize, until_round: usize) -> CutWindow {
    CutWindow {
        a: Point::new(100.0, -1.0),
        b: Point::new(100.0, 201.0),
        from_round,
        until_round,
    }
}

/// Every tuple and every shape estimate, folded into one word.
fn info_digest(info: &SafetyInfo, net: &Network) -> u64 {
    let mut h = Fnv::new();
    for u in net.node_ids() {
        for q in Quadrant::ALL {
            h.word(u64::from(info.tuple(u).is_safe(q)));
            match info.estimate(u, q) {
                None => h.word(u64::MAX),
                Some(e) => {
                    h.word(u64::from(e.first_far.0));
                    h.word(u64::from(e.last_far.0));
                    h.point(e.rect.min());
                    h.point(e.rect.max());
                    h.point(e.far_corner);
                }
            }
        }
    }
    h.0
}

/// Max-gossip that also unicasts: every improvement is broadcast and
/// sent once more to the highest-id live neighbor; failures and
/// rejoins re-announce. `heard` counts the messages a node handled.
struct Rumor {
    value: u64,
    heard: u64,
}

impl Rumor {
    fn new(id: NodeId) -> Rumor {
        Rumor {
            value: (u64::from(id.0) * 7919) % 1009,
            heard: 0,
        }
    }

    fn announce(&self, ctx: &mut Ctx<'_, u64>) {
        ctx.broadcast(self.value);
        if let Some(v) = ctx.neighbors().max() {
            ctx.send(v, self.value);
        }
    }
}

impl NodeProcess for Rumor {
    type Msg = u64;

    fn on_init(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.announce(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[(NodeId, &u64)]) {
        self.heard += inbox.len() as u64;
        let best = inbox.iter().map(|&(_, &v)| v).max().unwrap_or(0);
        if best > self.value {
            self.value = best;
            self.announce(ctx);
        }
    }

    fn on_neighbor_failed(&mut self, ctx: &mut Ctx<'_, u64>, _failed: NodeId) {
        ctx.broadcast(self.value);
    }

    fn on_rejoin(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.announce(ctx);
    }

    fn on_neighbor_recovered(&mut self, ctx: &mut Ctx<'_, u64>, recovered: NodeId) {
        ctx.send(recovered, self.value);
    }
}

fn rumor_digest<'a>(procs: impl IntoIterator<Item = &'a Rumor>) -> (u64, u64) {
    let mut h = Fnv::new();
    let mut heard = 0;
    for p in procs {
        h.word(p.value);
        h.word(p.heard);
        heard += p.heard;
    }
    (h.0, heard)
}

/// `construct_with` under drop p = 0.05, a cut over rounds 1..4 and a
/// node killed at round 2 and revived at round 5, at 1 and 4 threads.
#[test]
fn chaotic_construction_trajectory_is_pinned() {
    let net = network(300, 0);
    let pinned = edge_node_mask(&net, net.radius());
    let mut plan = ChaosPlan::new().with_seed(0).with_drop(0.05);
    plan.add_cut(cut(1, 4));
    plan.kill_at(2, NodeId(3));
    plan.revive_at(5, NodeId(3));
    for threads in [1usize, 4] {
        let run = construct_with(&net, pinned.clone(), plan.clone(), threads).unwrap();
        assert_eq!(run.stats, stats(9, 374, 0, 3058), "threads={threads}");
        assert_eq!(
            info_digest(&run.info, &net),
            0x94fb_889e_531f_2805,
            "threads={threads}"
        );
    }
}

/// The round engine on a protocol that unicasts too, so both delivery
/// paths draw drops, under a cut, a kill and a revival.
#[test]
fn chaotic_round_engine_trajectory_is_pinned() {
    let net = network(150, 4);
    let mut plan = ChaosPlan::new().with_seed(5).with_drop(0.1);
    plan.add_cut(cut(2, 6));
    plan.kill_at(3, NodeId(10));
    plan.revive_at(6, NodeId(10));
    for threads in [1usize, 4] {
        let mut engine = Engine::new(&net, Rumor::new);
        engine.set_chaos_plan(plan.clone());
        engine.set_threads(threads);
        let stats = engine.run_until_quiescent(10_000).unwrap();
        let log = {
            let mut h = Fnv::new();
            for &tx in engine.round_log().per_round() {
                h.word(tx as u64);
            }
            h.0
        };
        assert_eq!(stats, self::stats(25, 493, 490, 2370), "threads={threads}");
        assert_eq!(log, 0xf59d_0231_2ffd_a0ab, "threads={threads}");
        assert_eq!(
            rumor_digest(engine.nodes()),
            (0xed3c_46fc_7be2_20f1, 2370),
            "threads={threads}"
        );
    }
}

/// The asynchronous engine under drop, cut and jitter, with one kill
/// and one revival driven between steps.
#[test]
fn chaotic_async_engine_trajectory_is_pinned() {
    let net = network(150, 4);
    let mut plan = ChaosPlan::new()
        .with_seed(11)
        .with_drop(0.1)
        .with_jitter(0.75);
    plan.add_cut(cut(2, 6));
    let mut engine = AsyncEngine::new(&net, AsyncConfig::jittered(3), Rumor::new);
    engine.set_chaos_plan(plan);
    engine.init();
    while engine.now() < 3.0 && engine.step() {}
    engine.kill_node(NodeId(10));
    while engine.now() < 6.0 && engine.step() {}
    engine.revive_node(NodeId(10));
    let stats = engine.run_until_quiescent(1_000_000).unwrap();
    assert!(stats.quiesced);
    assert_eq!(
        (stats.broadcasts, stats.unicasts, stats.receptions),
        (574, 571, 2859)
    );
    assert_eq!(engine.now().to_bits(), 0x404c_d9ab_1be2_6352);
    assert_eq!(rumor_digest(engine.nodes()), (0xb607_3553_9e91_356b, 2859));
}

/// Algorithm 2 on the asynchronous engine: message counts per seed.
#[test]
fn async_construction_costs_are_pinned() {
    // (nodes, field seed, delay seed, transmissions, receptions, digest)
    let cases: [(usize, u64, u64, usize, usize, u64); 2] = [
        (400, 7, 1, 465, 5203, 0xfd84_512c_0f8e_58db),
        (250, 3, 2, 501, 3642, 0x4ddf_1cf8_357a_0945),
    ];
    for (n, net_seed, seed, tx, rx, digest) in cases {
        let net = network(n, net_seed);
        let run = construct_async(&net, seed).unwrap();
        assert!(run.stats.quiesced, "seed={seed}");
        assert_eq!(
            (run.stats.transmissions(), run.stats.receptions),
            (tx, rx),
            "seed={seed}"
        );
        assert_eq!(info_digest(&run.info, &net), digest, "seed={seed}");
    }
}
