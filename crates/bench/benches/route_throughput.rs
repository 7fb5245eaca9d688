//! Routing throughput: the per-call `route()` path against batched
//! `TrafficEngine` execution at n = 10⁴ (paper density).
//!
//! The legacy path pays an O(n) `PacketState` — a zeroed 10 KB visited
//! map plus fresh path/phase vectors — for **every packet**, no matter
//! how short its route. The batched path routes through reused
//! generation-stamped buffers, so the per-packet cost is O(path). Three
//! flow classes span the streaming regimes:
//!
//! * `convergecast` — every sensor streams to an in-range aggregator
//!   (the canonical WASN data-collection hop): the route is one hop, so
//!   the O(n) state *is* the packet budget and reuse dominates;
//! * `local` — telemetry to an aggregator 2–4 hops away;
//! * `crossfield` — random connected pairs across the ~900 m field
//!   (tens of hops), where walk time dominates and reuse is a trim.
//!
//! Per class the JSON row records per-call / batched(1 thread) /
//! threaded medians, packets/sec, and the speedups; the committed copy
//! is the CI `bench-gate` baseline (BENCH_traffic.json).
//!
//! Run with: `cargo bench -p sp-bench --bench route_throughput`

use sp_bench::{large_scale, sample_stats, write_artifact, MEDIAN_UNIT};
use sp_core::{Routing, SafetyInfo, Slgf2Router, TrafficEngine};
use sp_net::{deploy::DeploymentConfig, Network, NodeId};

const NODES: usize = 10_000;
const FLOWS: usize = 4_096;
/// Node count for the `SP_BENCH_SCALE=large` batch row.
const LARGE_NODES: usize = 1_000_000;
/// Flows in the large batch (kept smaller: setup dominates otherwise).
const LARGE_FLOWS: usize = 2_048;

/// Deterministic flow batches per class over the largest component.
fn flow_classes(net: &Network) -> Vec<(&'static str, Vec<(NodeId, NodeId)>)> {
    let comp = net.largest_component();
    let mut convergecast = Vec::with_capacity(FLOWS);
    let mut local = Vec::with_capacity(FLOWS);
    let mut crossfield = Vec::with_capacity(FLOWS);
    let mut k = 0usize;
    while convergecast.len() < FLOWS && k < 16 * FLOWS {
        let s = comp[(k * 7919) % comp.len()];
        k += 1;
        let nb = net.neighbors(s);
        if nb.is_empty() {
            continue;
        }
        // One-hop: the aggregator is a direct radio neighbor.
        let d = nb[k % nb.len()];
        if d != s {
            convergecast.push((s, d));
        }
        // Local: a component node 2-4 radio ranges out.
        let ps = net.position(s);
        if let Some(d) = comp.iter().skip(k % 37).step_by(97).copied().find(|&v| {
            let dist = net.position(v).distance(ps);
            v != s && dist > 25.0 && dist < 80.0
        }) {
            local.push((s, d));
        }
        // Crossfield: an arbitrary far component node.
        let d = comp[(k * 104_729 + 13) % comp.len()];
        if d != s {
            crossfield.push((s, d));
        }
    }
    vec![
        ("convergecast", convergecast),
        ("local", local),
        ("crossfield", crossfield),
    ]
}

fn main() {
    let cfg = DeploymentConfig::paper_density(NODES);
    let net = Network::from_positions(cfg.deploy_uniform(42), cfg.radius, cfg.area);
    let info = SafetyInfo::build(&net);
    let router = Slgf2Router::new(&info);
    let serial = TrafficEngine::new(&net).with_threads(1);
    let auto = TrafficEngine::new(&net);

    let mut rows = Vec::new();
    for (class, flows) in flow_classes(&net) {
        // Identical results on every path (spot-check before timing).
        let report = serial.run(&router, &flows);
        assert_eq!(report.records.len(), flows.len(), "{class}");
        assert_eq!(auto.run(&router, &flows), report, "{class}: thread parity");
        let mean_hops = report.quality.mean_hops();
        assert!(report.quality.delivery_ratio() > 0.99, "{class}");

        // The legacy per-call path: a fresh O(n) allocation per packet.
        let per_call = sample_stats(15, || {
            let mut hops = 0usize;
            for &(s, d) in &flows {
                hops += router.route(&net, s, d).hops();
            }
            hops
        });
        // Batched on one thread: the allocation-reuse win in isolation
        // (run_map folds hops straight off the borrowed traces, like
        // the per-call loop above folds off its owned results).
        let batched = sample_stats(15, || {
            serial
                .run_map(&router, &flows, |_, _, r| r.hops())
                .into_iter()
                .sum::<usize>()
        });
        // Batched at the configured thread count (records `threads`; on
        // multi-core hosts this adds the sharding win on top).
        let threaded = sample_stats(15, || {
            auto.run_map(&router, &flows, |_, _, r| r.hops())
                .into_iter()
                .sum::<usize>()
        });

        let pps = |median: f64| flows.len() as f64 / median.max(1e-12);
        eprintln!(
            "{class:12} ({:.1} mean hops): per-call {:.2} ms | batched {:.2} ms ({:.2}x) | threaded x{} {:.2} ms ({:.2}x)",
            mean_hops,
            per_call.median * 1e3,
            batched.median * 1e3,
            per_call.median / batched.median,
            auto.threads(),
            threaded.median * 1e3,
            per_call.median / threaded.median,
        );
        rows.push(format!(
            "    {{\"case\": \"{class}\", \"scheme\": \"SLGF2\", \"nodes\": {NODES}, \"flows\": {}, \"mean_hops\": {:.2}, \"threads\": {}, {}, {}, {}, \"per_call_packets_per_sec\": {:.0}, \"batched_packets_per_sec\": {:.0}, \"threaded_packets_per_sec\": {:.0}, \"batched_speedup\": {:.2}, \"threaded_speedup\": {:.2}}}",
            flows.len(),
            mean_hops,
            auto.threads(),
            per_call.json_fields("per_call"),
            batched.json_fields("batched"),
            threaded.json_fields("threaded"),
            pps(per_call.median),
            pps(batched.median),
            pps(threaded.median),
            per_call.median / batched.median,
            per_call.median / threaded.median,
        ));
    }

    if large_scale() {
        large_batch_row(&mut rows);
    } else {
        eprintln!("n={LARGE_NODES} batch row: skipped (set SP_BENCH_SCALE=large to measure)");
    }

    write_artifact("BENCH_traffic.json", "route_throughput", MEDIAN_UNIT, &rows);
}

/// The million-node batch row: local telemetry flows (2–4 radio
/// ranges) routed through one reused-buffer `TrafficEngine` batch on a
/// spatially-sorted network, so neighbor scans hit the contiguous CSR
/// arena. Batched + threaded medians only — the per-call path would pay
/// a fresh O(n) = 4 MB visited map per packet, which is exactly the
/// regime the buffered API exists to avoid.
fn large_batch_row(rows: &mut Vec<String>) {
    let cfg = DeploymentConfig::paper_density(LARGE_NODES);
    let net = Network::from_positions(cfg.deploy_uniform(42), cfg.radius, cfg.area);
    let (net, _remap) = net.spatially_sorted();
    let info = SafetyInfo::build(&net);
    let router = Slgf2Router::new(&info);
    let serial = TrafficEngine::new(&net).with_threads(1);
    let auto = TrafficEngine::new(&net);

    let comp = net.largest_component();
    let mut flows: Vec<(NodeId, NodeId)> = Vec::with_capacity(LARGE_FLOWS);
    let mut k = 0usize;
    while flows.len() < LARGE_FLOWS && k < 64 * LARGE_FLOWS {
        let s = comp[(k * 7919) % comp.len()];
        k += 1;
        let ps = net.position(s);
        if let Some(d) = comp.iter().skip(k % 37).step_by(9973).copied().find(|&v| {
            let dist = net.position(v).distance(ps);
            v != s && dist > 25.0 && dist < 80.0
        }) {
            flows.push((s, d));
        }
    }
    assert!(flows.len() >= LARGE_FLOWS / 2, "too few large flows built");

    let report = serial.run(&router, &flows);
    let mean_hops = report.quality.mean_hops();
    assert!(
        report.quality.delivery_ratio() > 0.99,
        "large batch delivery"
    );

    let runs = 5;
    let batched = sample_stats(runs, || {
        serial
            .run_map(&router, &flows, |_, _, r| r.hops())
            .into_iter()
            .sum::<usize>()
    });
    let threaded = sample_stats(runs, || {
        auto.run_map(&router, &flows, |_, _, r| r.hops())
            .into_iter()
            .sum::<usize>()
    });
    let pps = |median: f64| flows.len() as f64 / median.max(1e-12);
    eprintln!(
        "local_1m ({:.1} mean hops, {} flows): batched {:.2} ms | threaded x{} {:.2} ms",
        mean_hops,
        flows.len(),
        batched.median * 1e3,
        auto.threads(),
        threaded.median * 1e3,
    );
    rows.push(format!(
        "    {{\"case\": \"local_1m\", \"scheme\": \"SLGF2\", \"nodes\": {LARGE_NODES}, \"flows\": {}, \"mean_hops\": {:.2}, \"threads\": {}, {}, {}, \"batched_packets_per_sec\": {:.0}, \"threaded_packets_per_sec\": {:.0}}}",
        flows.len(),
        mean_hops,
        auto.threads(),
        batched.json_fields("batched"),
        threaded.json_fields("threaded"),
        pps(batched.median),
        pps(threaded.median),
    ));
}
