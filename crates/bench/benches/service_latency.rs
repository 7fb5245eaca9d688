//! Serving latency: `RoutingService` query sessions under live
//! topology churn at n = 10⁴ (paper density).
//!
//! The other benches time closed batches over a frozen topology. This
//! one measures the **serving shape**: worker threads each hold a
//! `ServiceSession` and answer a sustained query stream while a
//! background churner keeps publishing new epochs (deterministic
//! jitter moves through `RoutingService::apply_moves` — repair the
//! topology off to the side, derive labels and shape estimates from the
//! previous epoch, one `Arc` swap). Four rows:
//!
//! * `service_steady` — no churn: the epoch check is always a hit, so
//!   this is the floor the epoch machinery must not lift;
//! * `service_churn` — the churner publishes continuously; sessions
//!   keep re-pinning and every answer is checked against the service
//!   invariant `answer.epoch <= service.epoch()`;
//! * `serve_steady` / `serve_churn` — the same mixes through the
//!   `sp-serve` wire path: an in-process loopback-TCP server over the
//!   same service, clients speaking framed `QUERY` (and the churner
//!   framed `MOVE`), so these rows price the full
//!   decode → route → encode hop and gate the wire-path p50/p95/p99
//!   next to the in-process floor.
//!
//! All four rows run the same loop; they differ only in how a worker
//! asks a query and how the churner publishes a batch. Each row
//! records sustained queries/sec plus per-query p50/p95/p99 (the
//! workers' `sp_sync::LatencyHistogram`s merged over every query of
//! every run) and the per-run wall median. The committed copy is the
//! CI `bench-gate` baseline (BENCH_service.json); the percentile keys
//! are gated with the tighter `--latency-slack` floor.
//!
//! Workers: one per available core (`sp_sync::default_threads`).
//!
//! Run with: `cargo bench -p sp-bench --bench service_latency`

use sp_bench::{latency_json_fields, write_artifact, SampleStats};
use sp_core::{RoutingService, ServiceScheme};
use sp_geom::Point;
use sp_net::{deploy::DeploymentConfig, Network, NodeId};
use sp_serve::{serve_with, ServeClient, ServeConfig};
use sp_sync::LatencyHistogram;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 10_000;
const QUERIES: usize = 8_192;
const RUNS: usize = 3;
/// Pause between epoch publishes, bounding the churn rate. A publish
/// derives its epoch from the previous one in about 2 ms at this size,
/// so without the pause the churn thread would publish back to back and
/// hold a whole core of a small host.
const CHURN_PAUSE: Duration = Duration::from_millis(2);
/// Movers per background epoch publish in the churn rows.
const CHURN_MOVERS: usize = 100;

/// Deterministic query mix over the largest component: alternating
/// local telemetry (2–4 radio ranges) and crossfield pairs, the same
/// regimes the throughput bench times.
fn query_mix(net: &Network) -> Vec<(NodeId, NodeId)> {
    let comp = net.largest_component();
    let mut queries = Vec::with_capacity(QUERIES);
    let mut k = 0usize;
    while queries.len() < QUERIES && k < 64 * QUERIES {
        let s = comp[(k * 7919) % comp.len()];
        k += 1;
        if queries.len() % 2 == 0 {
            let ps = net.position(s);
            if let Some(d) = comp.iter().skip(k % 37).step_by(97).copied().find(|&v| {
                let dist = net.position(v).distance(ps);
                v != s && dist > 25.0 && dist < 80.0
            }) {
                queries.push((s, d));
            }
        } else {
            let d = comp[(k * 104_729 + 13) % comp.len()];
            if d != s {
                queries.push((s, d));
            }
        }
    }
    assert!(queries.len() >= QUERIES / 2, "too few queries built");
    queries
}

/// The churner's next deterministic jitter batch: [`CHURN_MOVERS`]
/// nodes in round-robin order, each nudged ~1 m (direction flips with
/// the round parity so the field never drifts), clamped to the area.
fn churn_batch(net: &Network, round: u64) -> Vec<(NodeId, Point)> {
    let n = net.len();
    let hi = net.area().max();
    let delta = if round.is_multiple_of(2) { 1.0 } else { -1.0 };
    (0..CHURN_MOVERS)
        .map(|j| {
            let u = NodeId::new((round as usize * CHURN_MOVERS + j) % n);
            let p = net.position(u);
            let q = Point::new(
                (p.x + delta).clamp(0.0, hi.x),
                (p.y + delta * 0.5).clamp(0.0, hi.y),
            );
            (u, q)
        })
        .collect()
}

/// One measured run's outcome.
struct RunMeasure {
    /// Per-query serving latencies, every worker's histogram merged.
    latency: LatencyHistogram,
    /// Wall seconds from first query to last worker done (churner
    /// excluded — it is stopped after the workers finish).
    wall: f64,
    delivered: usize,
    /// Epochs the churner published while the workers were serving.
    epochs: u64,
}

/// Serves the query mix once. Each of `workers` threads opens its own
/// asker with `connect` and times every query of its share through it
/// (an asker returns the answer's epoch and whether it delivered).
/// With `churn`, a background thread opens a publisher and hands it
/// one jitter batch per round until the workers finish. Every answer
/// is asserted against the service epoch invariant.
fn measured_run<A, P>(
    service: &RoutingService,
    queries: &[(NodeId, NodeId)],
    workers: usize,
    churn: bool,
    connect: impl Fn() -> A + Sync,
    publisher: impl FnOnce() -> P + Send,
) -> RunMeasure
where
    A: FnMut(NodeId, NodeId) -> (u64, bool),
    P: FnMut(&[(NodeId, Point)]),
{
    let stop = AtomicBool::new(false);
    let epoch_before = service.epoch();
    let mut latency = LatencyHistogram::new();
    let mut delivered = 0usize;
    let mut wall = 0.0f64;
    std::thread::scope(|s| {
        let churner = churn.then(|| {
            let stop = &stop;
            s.spawn(move || {
                let mut publish = publisher();
                let mut round = service.epoch();
                while !stop.load(Ordering::Relaxed) {
                    publish(&churn_batch(service.snapshot().value.network(), round));
                    round += 1;
                    std::thread::sleep(CHURN_PAUSE);
                }
            })
        });
        let start = Instant::now();
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let connect = &connect;
                s.spawn(move || {
                    let mut ask = connect();
                    let mut latency = LatencyHistogram::new();
                    let mut delivered = 0usize;
                    for &(src, dst) in queries.iter().skip(w).step_by(workers) {
                        let t = Instant::now();
                        let (epoch, ok) = ask(src, dst);
                        latency.record(t.elapsed());
                        assert!(
                            epoch <= service.epoch(),
                            "answer epoch {epoch} ran ahead of the service"
                        );
                        delivered += usize::from(ok);
                    }
                    (latency, delivered)
                })
            })
            .collect();
        for h in handles {
            let (l, d) = h.join().expect("worker panicked");
            latency.merge(&l);
            delivered += d;
        }
        wall = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        if let Some(c) = churner {
            c.join().expect("churner panicked");
        }
    });
    RunMeasure {
        latency,
        wall,
        delivered,
        epochs: service.epoch() - epoch_before,
    }
}

/// Runs one row's configuration `RUNS` times and renders its JSON
/// object and progress line. Every row has the same key shape, so the
/// bench gate applies the same qps + latency-slack treatment to all.
fn row(case: &str, workers: usize, churn: bool, run: impl Fn(bool) -> RunMeasure) -> String {
    let runs: Vec<RunMeasure> = (0..RUNS).map(|_| run(churn)).collect();
    let walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
    let wall = SampleStats::of(&walls);
    let mut lat = LatencyHistogram::new();
    for r in &runs {
        lat.merge(&r.latency);
    }
    let served = lat.count() as usize;
    let delivered: usize = runs.iter().map(|r| r.delivered).sum();
    let epochs: u64 = runs.iter().map(|r| r.epochs).sum();
    let ratio = delivered as f64 / served.max(1) as f64;
    assert!(ratio > 0.95, "{case}: delivery collapsed to {ratio:.3}");
    if churn {
        assert!(epochs > 0, "{case}: churner never published an epoch");
    }
    let per_run = runs[0].latency.count();
    let qps = per_run as f64 / wall.median.max(1e-12);
    let us = |q| lat.quantile(q).as_secs_f64() * 1e6;
    eprintln!(
        "{case:15} x{workers} workers: {qps:.0} q/s | p50 {:.1} µs | p95 {:.1} µs | p99 {:.1} µs | {} epochs | delivery {ratio:.3}",
        us(0.50),
        us(0.95),
        us(0.99),
        epochs,
    );
    format!(
        "    {{\"case\": \"{case}\", \"scheme\": \"SLGF2\", \"nodes\": {NODES}, \"queries\": {per_run}, \"threads\": {workers}, \"runs\": {RUNS}, \"movers\": {}, \"epochs_advanced\": {epochs}, \"queries_per_sec\": {qps:.0}, \"delivery_ratio\": {ratio:.4}, {}, {}}}",
        if churn { CHURN_MOVERS } else { 0 },
        wall.json_fields("run"),
        latency_json_fields("query", &lat),
    )
}

fn main() {
    let cfg = DeploymentConfig::paper_density(NODES);
    let net = Network::from_positions(cfg.deploy_uniform(42), cfg.radius, cfg.area);
    let queries = query_mix(&net);
    let service = Arc::new(RoutingService::new(net.clone()));
    let workers = sp_sync::default_threads();

    // The wire rows hit the same service through a loopback sp-serve
    // front end with a matching worker-pool size.
    let server = serve_with(
        Arc::clone(&service),
        net.clone(),
        ServeConfig::ephemeral(workers),
    )
    .expect("bind loopback server");
    let addr = server.addr();

    // In process: a worker asks through its own session, and the
    // churner publishes straight through `apply_moves`.
    let in_process = |churn| {
        measured_run(
            &service,
            &queries,
            workers,
            churn,
            || {
                let mut session = service.session();
                move |src, dst| {
                    let a = session.route(src, dst);
                    (session.epoch(), a.delivered())
                }
            },
            || {
                |moves: &[(NodeId, Point)]| {
                    service.apply_moves(moves);
                }
            },
        )
    };
    // Over the wire: a worker asks through its own loopback client,
    // and the churner sends framed `MOVE` batches.
    let wire = |churn| {
        measured_run(
            &service,
            &queries,
            workers,
            churn,
            || {
                let mut client = ServeClient::connect(addr).expect("client connect");
                move |src, dst| {
                    let reply = client
                        .query(
                            src.index() as u32,
                            dst.index() as u32,
                            ServiceScheme::Slgf2,
                            false,
                        )
                        .expect("wire QUERY");
                    (reply.epoch, reply.delivered())
                }
            },
            || {
                let mut mover = ServeClient::connect(addr).expect("churner connect");
                let mut batch = Vec::with_capacity(CHURN_MOVERS);
                move |moves: &[(NodeId, Point)]| {
                    batch.clear();
                    batch.extend(moves.iter().map(|(u, p)| (u.index() as u32, p.x, p.y)));
                    mover.move_batch(&batch).expect("wire MOVE");
                }
            },
        )
    };
    let rows = [
        row("service_steady", workers, false, in_process),
        row("service_churn", workers, true, in_process),
        row("serve_steady", workers, false, wire),
        row("serve_churn", workers, true, wire),
    ];
    server.shutdown();
    server.join();

    write_artifact(
        "BENCH_service.json",
        "service_latency",
        "seconds (median over samples; percentiles over all queries)",
        &rows,
    );
}
