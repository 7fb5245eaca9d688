//! The mobility re-snapshot hot path (ROADMAP "parallel + incremental
//! SpatialIndex"): incremental topology repair versus a full rebuild
//! when a small fraction of nodes moves, and row-sharded parallel bulk
//! adjacency versus the serial scan at 10⁵ nodes. The incremental
//! repair must beat the rebuild at least 3× at 10⁴ nodes, asserted
//! before the file is written.
//!
//! The write path of the routing service rides along: a 100-mover
//! `RoutingService::apply_moves` publish, whose labels, pinned mask and
//! shape estimates are derived from the previous epoch, beside a full
//! `ServiceSnapshot::build` of the same networks (`publish_delta` and
//! `publish_full` rows, at 10⁴ FA and 10⁵ IA, plus 10⁶ IA under
//! `SP_BENCH_SCALE=large`). Two chaos rows per field price a plan in
//! force, each timed interleaved with quiet `publish_delta` publishes so
//! host drift hits both: `publish_delta_chaos` is the same 100-mover
//! publish with 50 nodes down and one full-width cut open, and
//! `publish_chaos` a CHAOS publish alternating a 50-kill plan and a
//! quiet one (`RoutingService::apply_chaos`). Each reports its ratio to
//! the interleaved quiet publishes (`ratio_vs_quiet`).
//!
//! Deployments keep the paper's density (radius 20 m, ~500 nodes per
//! 200 m × 200 m) while the area grows with `n`. The measured
//! repeat-sample statistics (samples / median / stddev) land in
//! `BENCH_mobility.json` at the workspace root; the committed copy is
//! the CI `bench-gate` baseline. The incremental case is timed as an
//! apply-moves round trip (forward + inverse, halved), which is exactly
//! the steady-state cost `RandomWaypoint::snapshot_incremental` pays
//! per tick without the benchmark paying a network clone per sample.
//!
//! Run with: `cargo bench -p sp-bench --bench mobility_snapshot`

use sp_bench::{large_scale, sample_stats, write_artifact, SampleStats, MEDIAN_UNIT};
use sp_core::{RoutingService, ServiceSnapshot};
use sp_experiments::ChaosRecipe;
use sp_geom::{Point, Quadrant};
use sp_net::{DeploymentConfig, FaModel, Network, NodeId, SpatialIndex};
use sp_sim::ChaosPlan;
use std::time::Instant;

/// Node count for the incremental-vs-rebuild comparison.
const SNAPSHOT_N: usize = 10_000;
/// Fraction of nodes moving per tick (the acceptance scenario: 1%).
const MOVER_FRACTION: f64 = 0.01;
/// Node count for the serial-vs-parallel adjacency comparison.
const ADJACENCY_N: usize = 100_000;
/// The acceptance bar: at `SNAPSHOT_N` nodes the incremental tick must
/// beat the full rebuild at least this many times over.
const MIN_INCREMENTAL_SPEEDUP: f64 = 3.0;

/// Movers per publish in the write-path rows, each nudged 1 m: the
/// batch of perfbench's `publish_fa` workload.
const PUBLISH_MOVERS: usize = 100;
/// Publishes timed per write-path row, alternating nudge and return.
const PUBLISHES: usize = 120;
/// Publishes timed at 10⁶ nodes, where the row reports the median only.
const LARGE_PUBLISHES: usize = 16;
/// Node count of the `SP_BENCH_SCALE=large` write-path rows.
const LARGE_N: usize = 1_000_000;
/// Nodes a chaos plan of the chaos publish rows takes down.
const CHAOS_KILLS: usize = 50;

/// Every `1/MOVER_FRACTION`-th node displaced by one radio radius —
/// far enough that most movers change grid cells and rewire edges.
fn mover_batch(cfg: &DeploymentConfig, positions: &[Point]) -> Vec<(NodeId, Point)> {
    let stride = (1.0 / MOVER_FRACTION) as usize;
    positions
        .iter()
        .enumerate()
        .step_by(stride)
        .map(|(i, p)| {
            let x = (p.x + cfg.radius).min(cfg.area.max().x);
            let y = (p.y + 0.5 * cfg.radius).min(cfg.area.max().y);
            (NodeId::new(i), Point::new(x, y))
        })
        .collect()
}

fn snapshot_benches(rows: &mut Vec<String>) {
    let cfg = DeploymentConfig::paper_density(SNAPSHOT_N);
    let positions = cfg.deploy_uniform(13);
    let moves = mover_batch(&cfg, &positions);
    let movers = moves.len();
    let inverse: Vec<(NodeId, Point)> = moves
        .iter()
        .map(|&(id, _)| (id, positions[id.index()]))
        .collect();

    // Correctness gate before timing anything: the round trip must
    // reproduce the rebuilt topology exactly, both after the forward
    // and after the inverse batch.
    let mut net = Network::from_positions(positions.clone(), cfg.radius, cfg.area);
    let same_topology = |a: &Network, b: &Network, leg: &str| {
        for u in a.node_ids() {
            assert_eq!(a.neighbors(u), b.neighbors(u), "{leg} diverged at {u}");
        }
    };
    net.apply_moves(&moves);
    let rebuilt = Network::from_positions(net.positions_vec(), cfg.radius, cfg.area);
    same_topology(&net, &rebuilt, "forward");
    net.apply_moves(&inverse);
    let back = Network::from_positions(positions.clone(), cfg.radius, cfg.area);
    same_topology(&net, &back, "inverse");

    let runs = 7;
    let full_s = sample_stats(runs, || {
        Network::from_positions(positions.clone(), cfg.radius, cfg.area)
    });
    // Steady-state incremental tick: forward batch + inverse batch,
    // halved, so every sample does identical work on one owned network.
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            net.apply_moves(&moves);
            net.apply_moves(&inverse);
            start.elapsed().as_secs_f64() / 2.0
        })
        .collect();
    let inc_s = SampleStats::of(&samples);
    let speedup = full_s.median / inc_s.median;
    eprintln!(
        "n={SNAPSHOT_N}, movers={movers}: full {:.3} ms | incremental {:.3} ms | {speedup:.1}x",
        full_s.median * 1e3,
        inc_s.median * 1e3
    );
    assert!(
        speedup >= MIN_INCREMENTAL_SPEEDUP,
        "incremental speedup {speedup:.2}x at n={SNAPSHOT_N} is under the \
         {MIN_INCREMENTAL_SPEEDUP}x acceptance bar"
    );
    rows.push(format!(
        "    {{\"case\": \"snapshot_full_rebuild\", \"n\": {}, \"movers\": {}, {}}}",
        SNAPSHOT_N,
        movers,
        full_s.json_fields("time")
    ));
    rows.push(format!(
        "    {{\"case\": \"snapshot_incremental\", \"n\": {}, \"movers\": {}, {}, \"speedup_vs_full\": {:.2}}}",
        SNAPSHOT_N,
        movers,
        inc_s.json_fields("time"),
        speedup
    ));
}

fn adjacency_benches(rows: &mut Vec<String>) {
    let cfg = DeploymentConfig::paper_density(ADJACENCY_N);
    let positions = cfg.deploy_uniform(17);
    let index = SpatialIndex::build(&positions, cfg.area, cfg.radius);
    let threads = sp_sync::auto_threads(ADJACENCY_N);

    // Sharding must not change the output at the benchmarked scale.
    assert_eq!(
        index.adjacency_within_threaded(cfg.radius, threads),
        index.adjacency_within(cfg.radius),
        "threaded adjacency diverged at n={ADJACENCY_N}"
    );

    let runs = 5;
    let serial_s = sample_stats(runs, || index.adjacency_within(cfg.radius));
    let parallel_s = sample_stats(runs, || {
        index.adjacency_within_threaded(cfg.radius, threads)
    });
    let speedup = serial_s.median / parallel_s.median;
    eprintln!(
        "n={ADJACENCY_N}: serial {:.1} ms | {threads}-thread {:.1} ms | {speedup:.1}x",
        serial_s.median * 1e3,
        parallel_s.median * 1e3
    );
    rows.push(format!(
        "    {{\"case\": \"adjacency_serial\", \"n\": {}, \"threads\": 1, {}}}",
        ADJACENCY_N,
        serial_s.json_fields("time")
    ));
    rows.push(format!(
        "    {{\"case\": \"adjacency_parallel\", \"n\": {}, \"threads\": {}, {}, \"speedup_vs_serial\": {:.2}}}",
        ADJACENCY_N,
        threads,
        parallel_s.json_fields("time"),
        speedup
    ));
}

/// A field at the paper's density: uniform (IA), or with forbidden areas
/// at `FaModel::paper_default`'s density of 3 per 200 m × 200 m (FA).
fn publish_field(n: usize, fa: bool, seed: u64) -> Network {
    let cfg = DeploymentConfig::paper_density(n);
    let positions = if fa {
        let tile = FaModel::paper_default();
        let tiles = cfg.area.area() / (200.0 * 200.0);
        let model = FaModel {
            obstacle_count: (tile.obstacle_count as f64 * tiles).round() as usize,
            ..tile
        };
        cfg.deploy_with_obstacles(&model.generate_obstacles(&cfg, seed), seed)
    } else {
        cfg.deploy_uniform(seed)
    };
    Network::from_positions(positions, cfg.radius, cfg.area)
}

/// `PUBLISH_MOVERS` evenly spread nodes nudged 1 m, each in its own
/// direction and clamped to the area, and the batch that puts them back.
fn nudge_batches(net: &Network) -> [Vec<(NodeId, Point)>; 2] {
    let stride = net.len() / PUBLISH_MOVERS;
    let movers = (0..PUBLISH_MOVERS).map(|k| NodeId::new(k * stride));
    let nudge = movers
        .map(|u| {
            let (p, angle) = (net.position(u), u.index() as f64);
            let to = Point::new(p.x + angle.cos(), p.y + angle.sin());
            (u, net.area().clamp_point(to))
        })
        .collect::<Vec<_>>();
    let back = nudge.iter().map(|&(u, _)| (u, net.position(u))).collect();
    [nudge, back]
}

/// Asserts that the service's current epoch equals a full build of its
/// network in tuples, pinned mask and every shape estimate.
fn assert_equals_full_build(service: &RoutingService, what: &str) {
    let pin = service.snapshot();
    let net = pin.value.network();
    let full = ServiceSnapshot::build(net.clone());
    let (got, want) = (pin.value.info(), full.info());
    assert_eq!(
        got.safety().pinned(),
        want.safety().pinned(),
        "{what}: pinned mask"
    );
    assert_eq!(
        got.safety().tuples(),
        want.safety().tuples(),
        "{what}: tuples"
    );
    for u in net.node_ids() {
        for q in Quadrant::ALL {
            assert_eq!(
                got.estimate(u, q),
                want.estimate(u, q),
                "{what}: estimate at {u} {q}"
            );
        }
    }
}

/// The plan of the chaos rows, drawn by the chaos grammar: `CHAOS_KILLS`
/// seeded random nodes down at round 1 and, when `cut`, one seeded
/// full-width partition cut open then.
fn chaos_plan(net: &Network, cut: bool) -> ChaosPlan {
    let cut = if cut { "+partition:len=9@round1" } else { "" };
    let spec = format!("flap:n={CHAOS_KILLS},down=9@round1{cut}");
    // sp-analyze: allow(panic, a bench whose fixed recipe stops parsing must fail loudly)
    ChaosRecipe::parse(&spec).expect("chaos spec").build(net, 7)
}

/// One `publish_full` and one `publish_delta` row for `net`: a full
/// `ServiceSnapshot::build` against `publishes` timed
/// `RoutingService::apply_moves` calls alternating nudge and return.
/// The delta row carries the p90 when at least ten publishes lie beyond
/// it. Below 10⁶ nodes two chaos rows follow, each write timed right
/// after one quiet publish so host drift hits both, and each reports
/// its median against the quiet ones: `publish_delta_chaos`, the same
/// batches with [`chaos_plan`]'s kills and cut in force, and
/// `publish_chaos`, CHAOS publishes alternating its kills and a quiet
/// plan.
fn publish_rows(rows: &mut Vec<String>, field: &str, net: Network, publishes: usize) {
    let n = net.len();
    let batches = nudge_batches(&net);
    let full_runs = if n >= LARGE_N { 3 } else { 7 };
    let full: Vec<f64> = (0..full_runs)
        .map(|_| {
            let copy = net.clone();
            let start = Instant::now();
            std::hint::black_box(ServiceSnapshot::build(copy));
            start.elapsed().as_secs_f64()
        })
        .collect();
    let full_s = SampleStats::of(&full);

    // Writer 0 is the quiet publish, writers 1 and 2 the chaos rows'.
    let writers = if n < LARGE_N { 3 } else { 1 };
    let services: Vec<_> = (0..writers)
        .map(|_| RoutingService::new(net.clone()))
        .collect();
    let plans = [chaos_plan(&net, false), ChaosPlan::new()];
    drop(net);
    if let Some(service) = services.get(1) {
        service.apply_chaos(|net| chaos_plan(net, true), 1);
    }
    let write = |w: usize, k: usize| match w {
        2 => services[2].apply_chaos(|_| plans[k % 2].clone(), 1),
        _ => services[w].apply_moves(&batches[k % 2]),
    };
    // Correctness gate before timing: every derived epoch equals a full
    // build.
    for (w, service) in services.iter().enumerate() {
        for k in 0..2 {
            write(w, k);
            assert_equals_full_build(service, &format!("{field} n={n} writer {w}, {k}"));
        }
    }
    let mut samples = vec![Vec::with_capacity(publishes); writers];
    for k in 0..publishes {
        for (w, times) in samples.iter_mut().enumerate() {
            let start = Instant::now();
            write(w, k);
            times.push(start.elapsed().as_secs_f64());
        }
    }
    let stats: Vec<SampleStats> = samples.iter().map(|s| SampleStats::of(s)).collect();
    let delta_s = stats[0];
    let speedup = full_s.median / delta_s.median;
    eprintln!(
        "{field} n={n}, movers={PUBLISH_MOVERS}: full build {:.3} ms | derived publish {:.3} ms | {speedup:.1}x",
        full_s.median * 1e3,
        delta_s.median * 1e3
    );
    rows.push(format!(
        "    {{\"case\": \"publish_full\", \"field\": \"{field}\", \"n\": {n}, \"movers\": {PUBLISH_MOVERS}, {}}}",
        full_s.json_fields("time")
    ));
    let tail = if publishes >= 100 {
        samples[0].sort_by(f64::total_cmp);
        let at = (samples[0].len() * 9).div_ceil(10) - 1;
        format!(", \"p90_seconds\": {:.6}", samples[0][at])
    } else {
        String::new()
    };
    rows.push(format!(
        "    {{\"case\": \"publish_delta\", \"field\": \"{field}\", \"n\": {n}, \"movers\": {PUBLISH_MOVERS}, {}{tail}, \"speedup_vs_full\": {speedup:.2}}}",
        delta_s.json_fields("time")
    ));
    let chaos_rows = [
        (
            "publish_delta_chaos",
            format!("\"movers\": {PUBLISH_MOVERS}, \"kills\": {CHAOS_KILLS}, \"cuts\": 1"),
        ),
        ("publish_chaos", format!("\"kills\": {CHAOS_KILLS}")),
    ];
    for ((case, keys), s) in chaos_rows.iter().zip(&stats[1..]) {
        let ratio = s.median / delta_s.median;
        eprintln!(
            "{field} n={n} {case}: {:.3} ms | {ratio:.2}x the quiet publish",
            s.median * 1e3
        );
        rows.push(format!(
            "    {{\"case\": \"{case}\", \"field\": \"{field}\", \"n\": {n}, {keys}, {}, \"ratio_vs_quiet\": {ratio:.2}}}",
            s.json_fields("time")
        ));
    }
}

fn publish_benches(rows: &mut Vec<String>) {
    publish_rows(rows, "FA", publish_field(SNAPSHOT_N, true, 42), PUBLISHES);
    publish_rows(rows, "IA", publish_field(ADJACENCY_N, false, 43), PUBLISHES);
    if large_scale() {
        let net = publish_field(LARGE_N, false, 44);
        publish_rows(rows, "IA", net, LARGE_PUBLISHES);
    } else {
        eprintln!("n={LARGE_N} publish rows: skipped (set SP_BENCH_SCALE=large to measure)");
    }
}

fn main() {
    let mut rows = Vec::new();
    snapshot_benches(&mut rows);
    adjacency_benches(&mut rows);
    publish_benches(&mut rows);
    write_artifact(
        "BENCH_mobility.json",
        "mobility_snapshot",
        MEDIAN_UNIT,
        &rows,
    );
}
