//! Distributed construction at scale (ROADMAP "distributed
//! construction at scale"): the zero-copy / frontier / scratch-reuse
//! round engine versus the frozen pre-optimization [`LegacyEngine`],
//! and an n=10⁵ `construct_distributed` completion row.
//!
//! Three measurements, all at the paper's density (radius 20 m, ~500
//! nodes per 200 m × 200 m, area growing with `n`):
//!
//! 1. **Per-round message handling** (`round_msg_handling_*`): every
//!    node broadcasts an `Announce`-sized 240-byte payload each round
//!    for a fixed number of rounds at n=10⁴ — pure delivery + dispatch
//!    machinery, no protocol work. The acceptance bar is a ≥5x median
//!    speedup of the optimized engine over the legacy engine
//!    (`speedup_vs_legacy` in the emitted row).
//! 2. **Algorithm-2 construction** (`construct_*`): full
//!    `construct_distributed` at n=10⁴ on both engines (protocol
//!    recomputation now shares the cost, so the ratio is smaller).
//! 3. **Scale completion** (`construct_100k`): `construct_distributed`
//!    at n=10⁵ — the regime the seed engine could not reach in bench
//!    time — recording rounds, transmissions, and quiescence.
//!
//! Every legacy-vs-optimized pair is checked for identical `SimStats`
//! (and identical tuples for the construction pair) before anything is
//! timed. Results land in `BENCH_distributed.json` at the workspace
//! root; the committed copy is the CI `bench-gate` baseline.
//!
//! Run with: `cargo bench -p sp-bench --bench distributed_construction`

use sp_bench::{large_scale, memory_json_fields, sample_stats, write_artifact, MEDIAN_UNIT};
use sp_core::{construct_distributed, construct_legacy, construct_with};
use sp_net::{edge_nodes::edge_node_mask, DeploymentConfig, Network, NodeId};
use sp_sim::{ChaosPlan, Ctx, Engine, LegacyEngine, NodeProcess, SimStats};

/// Node count for the legacy-vs-optimized comparisons.
const COMPARE_N: usize = 10_000;
/// Node count for the scale-completion row.
const SCALE_N: usize = 100_000;
/// Node count for the large-scale row (`SP_BENCH_SCALE=large` only).
const LARGE_N: usize = 1_000_000;
/// Rounds of sustained broadcasting in the message-handling storm.
const STORM_ROUNDS: usize = 8;

/// An `Announce`-sized opaque payload (240 bytes), so the storm pays
/// the same per-clone cost Algorithm 2's real messages would.
#[derive(Clone)]
struct Payload([u64; 30]);

/// Broadcast storm: every node re-broadcasts a fresh payload each round
/// for [`STORM_ROUNDS`] rounds, then falls silent. The workload is pure
/// engine machinery — fan-out, inbox handling, outbox dispatch.
struct Storm {
    rounds_left: usize,
}

impl NodeProcess for Storm {
    type Msg = Payload;
    fn on_init(&mut self, ctx: &mut Ctx<'_, Payload>) {
        self.rounds_left -= 1;
        ctx.broadcast(Payload([ctx.id().index() as u64; 30]));
    }
    fn on_round(&mut self, ctx: &mut Ctx<'_, Payload>, inbox: &[(NodeId, &Payload)]) {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            let sum = inbox.iter().map(|&(_, p)| p.0[0]).sum::<u64>();
            ctx.broadcast(Payload([sum; 30]));
        }
    }
}

fn storm_stats_legacy(net: &Network) -> SimStats {
    let mut engine = LegacyEngine::new(net, |_| Storm {
        rounds_left: STORM_ROUNDS,
    });
    engine
        .run_until_quiescent(STORM_ROUNDS + 2)
        .expect("storm quiesces after its round budget")
}

fn storm_stats_engine(net: &Network) -> SimStats {
    let mut engine = Engine::new(net, |_| Storm {
        rounds_left: STORM_ROUNDS,
    });
    engine
        .run_until_quiescent(STORM_ROUNDS + 2)
        .expect("storm quiesces after its round budget")
}

fn storm_benches(rows: &mut Vec<String>) {
    let cfg = DeploymentConfig::paper_density(COMPARE_N);
    let net = Network::from_positions(cfg.deploy_uniform(11), cfg.radius, cfg.area);

    // Correctness gate before timing: both engines must do the exact
    // same message work.
    let legacy_stats = storm_stats_legacy(&net);
    let engine_stats = storm_stats_engine(&net);
    assert_eq!(legacy_stats, engine_stats, "storm stats diverged");
    let receptions = engine_stats.receptions;
    let rounds = engine_stats.rounds;

    let runs = 7;
    let legacy_s = sample_stats(runs, || storm_stats_legacy(&net));
    let engine_s = sample_stats(runs, || storm_stats_engine(&net));
    let speedup = legacy_s.median / engine_s.median;
    let msgs_per_sec = receptions as f64 / engine_s.median;
    eprintln!(
        "storm n={COMPARE_N}, {rounds} rounds, {receptions} receptions: \
         legacy {:.1} ms | engine {:.1} ms | {speedup:.1}x ({:.1}M msgs/s)",
        legacy_s.median * 1e3,
        engine_s.median * 1e3,
        msgs_per_sec / 1e6
    );
    rows.push(format!(
        "    {{\"case\": \"round_msg_handling_legacy\", \"n\": {COMPARE_N}, \"rounds\": {rounds}, \"receptions\": {receptions}, {}}}",
        legacy_s.json_fields("time")
    ));
    rows.push(format!(
        "    {{\"case\": \"round_msg_handling_engine\", \"n\": {COMPARE_N}, \"rounds\": {rounds}, \"receptions\": {receptions}, {}, \"speedup_vs_legacy\": {:.2}, \"msgs_per_sec\": {:.0}}}",
        engine_s.json_fields("time"),
        speedup,
        msgs_per_sec
    ));
}

fn construction_benches(rows: &mut Vec<String>) {
    let cfg = DeploymentConfig::paper_density(COMPARE_N);
    let net = Network::from_positions(cfg.deploy_uniform(13), cfg.radius, cfg.area);
    let pinned = edge_node_mask(&net, net.radius());
    let threads = sp_sync::auto_threads(net.len());

    // Correctness gate: identical stats and identical stabilized tuples.
    let legacy_run =
        construct_legacy(&net, pinned.clone(), ChaosPlan::new()).expect("legacy quiesces");
    let engine_run =
        construct_with(&net, pinned.clone(), ChaosPlan::new(), threads).expect("engine quiesces");
    assert_eq!(
        legacy_run.stats, engine_run.stats,
        "construction stats diverged"
    );
    for u in net.node_ids() {
        assert_eq!(
            legacy_run.info.tuple(u),
            engine_run.info.tuple(u),
            "tuple diverged at {u}"
        );
    }

    let runs = 5;
    let legacy_s = sample_stats(runs, || {
        construct_legacy(&net, pinned.clone(), ChaosPlan::new()).expect("quiesces")
    });
    let engine_s = sample_stats(runs, || {
        construct_with(&net, pinned.clone(), ChaosPlan::new(), threads).expect("quiesces")
    });
    let speedup = legacy_s.median / engine_s.median;
    eprintln!(
        "construct n={COMPARE_N} ({} rounds, {} tx): legacy {:.1} ms | engine {:.1} ms | {speedup:.1}x",
        engine_run.stats.rounds,
        engine_run.stats.transmissions(),
        legacy_s.median * 1e3,
        engine_s.median * 1e3
    );
    rows.push(format!(
        "    {{\"case\": \"construct_legacy\", \"n\": {COMPARE_N}, \"rounds\": {}, {}}}",
        engine_run.stats.rounds,
        legacy_s.json_fields("time")
    ));
    rows.push(format!(
        "    {{\"case\": \"construct_engine\", \"n\": {COMPARE_N}, \"rounds\": {}, {}, \"speedup_vs_legacy\": {:.2}}}",
        engine_run.stats.rounds,
        engine_s.json_fields("time"),
        speedup
    ));
}

fn scale_bench(rows: &mut Vec<String>) {
    scale_bench_at("construct_100k", SCALE_N, 5, rows);
    // The million-node regime the CSR arena + spatial sort open. Only
    // measured under SP_BENCH_SCALE=large: a 10⁶-node quiesced
    // construction takes tens of seconds per sample, so the row stays
    // out of quick local runs and in the (longer-timeout) CI gate job.
    if large_scale() {
        scale_bench_at("construct_1m", LARGE_N, 3, rows);
    } else {
        eprintln!("construct n={LARGE_N}: skipped (set SP_BENCH_SCALE=large to measure)");
    }
}

fn scale_bench_at(case: &str, n: usize, runs: usize, rows: &mut Vec<String>) {
    let cfg = DeploymentConfig::paper_density(n);
    let net = Network::from_positions(cfg.deploy_uniform(17), cfg.radius, cfg.area);
    // The large rows route through the construction-time spatial sort:
    // grid tiles map to contiguous id ranges, so the frontier delivery
    // walks the CSR arena nearly sequentially.
    let (net, _remap) = net.spatially_sorted();
    let footprint = net.memory_footprint();
    let run = construct_distributed(&net).expect("scale construction quiesces");
    assert!(run.stats.quiesced, "scale run must drain its messages");

    let scale_s = sample_stats(runs, || {
        construct_distributed(&net).expect("scale construction quiesces")
    });
    eprintln!(
        "construct n={n}: {} rounds, {} tx, {} rx, quiesced in {:.2} s, {:.1} B/node CSR",
        run.stats.rounds,
        run.stats.transmissions(),
        run.stats.receptions,
        scale_s.median,
        footprint.adjacency_bytes_per_node()
    );
    rows.push(format!(
        "    {{\"case\": \"{case}\", \"n\": {n}, \"rounds\": {}, \"transmissions\": {}, \"receptions\": {}, \"quiesced\": true, {}, {}}}",
        run.stats.rounds,
        run.stats.transmissions(),
        run.stats.receptions,
        scale_s.json_fields("time"),
        memory_json_fields("", &footprint)
    ));
}

fn main() {
    let mut rows = Vec::new();
    storm_benches(&mut rows);
    construction_benches(&mut rows);
    scale_bench(&mut rows);
    write_artifact(
        "BENCH_distributed.json",
        "distributed_construction",
        MEDIAN_UNIT,
        &rows,
    );
}
