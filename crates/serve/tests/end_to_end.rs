//! End-to-end serving: concurrent wire clients racing live epoch
//! churn, with every answer checked against the service's consistency
//! contract — `answer.epoch <= service.epoch()`, traced paths valid
//! against exactly their stamped epoch's adjacency — plus graceful
//! shutdown that never drops an in-flight reply, and `STATS` that
//! agree with an external tally.

use sp_core::ServiceScheme;
use sp_geom::Point;
use sp_net::{deploy::DeploymentConfig, Network, NodeId};
use sp_serve::{serve, ServeClient, ServeConfig};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn make_net(n: usize, seed: u64) -> Network {
    let cfg = DeploymentConfig::paper_default(n);
    Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area)
}

/// A deterministic jitter batch: every `stride`-th node shifts a
/// little, staying inside the area.
fn jitter(net: &Network, stride: usize, magnitude: f64) -> Vec<(NodeId, Point)> {
    net.node_ids()
        .filter(|u| u.index() % stride == 0)
        .map(|u| {
            let p = net.position(u);
            let q = Point::new(
                (p.x + magnitude).min(net.area().max().x),
                (p.y + magnitude * 0.5).min(net.area().max().y),
            );
            (u, q)
        })
        .collect()
}

/// Waits (bounded) for the churn thread to record `epoch`'s topology.
/// The publish happens inside `apply_moves`, the recording just after
/// it returns, so an answer can briefly outrun the map.
fn net_for_epoch(nets: &Mutex<HashMap<u64, Network>>, epoch: u64) -> Network {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(n) = nets.lock().unwrap().get(&epoch) {
            return n.clone();
        }
        assert!(
            Instant::now() < deadline,
            "epoch {epoch} was answered but never recorded by the churner"
        );
        std::thread::yield_now();
    }
}

/// Validates a traced path against the stamped epoch's adjacency.
fn assert_path_valid(net: &Network, src: u32, dst: u32, delivered: bool, path: &[NodeId]) {
    assert!(!path.is_empty(), "trace always includes the source");
    assert_eq!(path[0], NodeId(src), "trace starts at the source");
    for pair in path.windows(2) {
        assert!(
            net.neighbors(pair[0]).contains(&pair[1]),
            "hop {:?} -> {:?} is not an edge in the stamped epoch",
            pair[0],
            pair[1]
        );
    }
    if delivered {
        assert_eq!(*path.last().unwrap(), NodeId(dst), "delivered ends at dst");
    }
}

/// The headline race: three wire clients stream queries (every third
/// traced) while a churn thread publishes thirty mobility epochs
/// underneath them. Every answer must respect the epoch bound; every
/// traced path must be walkable in exactly its stamped epoch.
#[test]
fn concurrent_clients_stay_consistent_under_churn() {
    let base = make_net(300, 11);
    // Two workers, three client connections: more connections than
    // workers, so this also holds the stint multiplexing to account —
    // every connection must keep making progress.
    let handle = serve(base.clone(), ServeConfig::ephemeral(2)).expect("bind");
    let service = handle.service().clone();
    let nets: Mutex<HashMap<u64, Network>> = Mutex::new(HashMap::from([(0, base.clone())]));
    let nodes = base.len() as u32;

    std::thread::scope(|s| {
        let service_ref = &service;
        let nets_ref = &nets;
        s.spawn(move || {
            for _round in 0..30 {
                let snap = service_ref.snapshot();
                let moves = jitter(snap.value.network(), 9, 0.7);
                let epoch = service_ref.apply_moves(&moves);
                // Sole publisher: the snapshot right after a publish is
                // exactly that epoch's world.
                let published = service_ref.snapshot();
                assert_eq!(published.epoch, epoch);
                nets_ref
                    .lock()
                    .unwrap()
                    .insert(epoch, published.value.network().clone());
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        for c in 0..3u64 {
            let addr = handle.addr();
            s.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                let mut state = 0x1234_5678u64.wrapping_mul(c + 1);
                let mut lcg = move || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state >> 11
                };
                let mut last_epoch = 0u64;
                for k in 0..150usize {
                    let src = (lcg() % nodes as u64) as u32;
                    let dst = (lcg() % nodes as u64) as u32;
                    let trace = k % 3 == 0;
                    let scheme = ServiceScheme::ALL[k % 3];
                    let reply = client.query(src, dst, scheme, trace).expect("query");
                    // The wire-visible consistency contract.
                    assert!(
                        reply.epoch <= service_ref.epoch(),
                        "answer epoch {} outran service epoch",
                        reply.epoch
                    );
                    assert!(
                        reply.epoch >= last_epoch,
                        "per-connection epochs must be nondecreasing"
                    );
                    last_epoch = reply.epoch;
                    if trace {
                        let path = reply.path.as_deref().expect("trace requested");
                        assert_eq!(reply.hops as usize, path.len() - 1);
                        let world = net_for_epoch(nets_ref, reply.epoch);
                        assert_path_valid(&world, src, dst, reply.delivered(), path);
                    } else {
                        assert!(reply.path.is_none(), "no trace unless asked");
                    }
                }
            });
        }
    });

    let stats = handle.stats();
    assert_eq!(stats.queries, 3 * 150);
    assert_eq!(stats.traced, 3 * 50);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.latency_count, 3 * 150);
    assert!(service.epoch() >= 30);

    handle.shutdown();
    handle.join();
}

/// Wire-driven churn: `MOVE` and `CHAOS` frames publish epochs whose
/// answers validate against the published snapshots, and the node-id
/// space never changes (ids stay index-aligned across chaos).
#[test]
fn wire_moves_and_chaos_publish_epochs() {
    let base = make_net(200, 23);
    let handle = serve(base.clone(), ServeConfig::ephemeral(2)).expect("bind");
    let service = handle.service().clone();
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let (epoch0, nodes, workers) = client.info().expect("info");
    assert_eq!((epoch0, nodes as usize, workers), (0, base.len(), 2));

    // A wire MOVE batch: relocate three nodes, epoch rolls to 1.
    let moves: Vec<(u32, f64, f64)> = [4u32, 40, 140]
        .iter()
        .map(|&id| {
            let p = base.position(NodeId(id));
            (id, (p.x + 1.5).min(199.0), p.y)
        })
        .collect();
    let (epoch, applied) = client.move_batch(&moves).expect("move");
    assert_eq!((epoch, applied), (1, 3));
    assert_eq!(service.epoch(), 1);
    let world = service.snapshot();
    for &(id, x, y) in &moves {
        let p = world.value.network().position(NodeId(id));
        assert_eq!((p.x, p.y), (x, y), "wire move landed");
    }

    // A traced query on the new epoch walks the new adjacency.
    let reply = client
        .query(0, 199, ServiceScheme::Slgf2, true)
        .expect("query");
    assert_eq!(reply.epoch, 1);
    assert_path_valid(
        world.value.network(),
        0,
        199,
        reply.delivered(),
        reply.path.as_deref().unwrap(),
    );

    // A wire CHAOS recipe: epoch rolls again, node count is stable.
    let (epoch, clauses) = client.chaos(5, 99, "region:r=0.2@round5").expect("chaos");
    assert_eq!((epoch, clauses), (2, 1));
    let (_, nodes_after, _) = client.info().expect("info");
    assert_eq!(nodes_after, nodes, "ids stay index-aligned under chaos");
    let reply = client
        .query(0, 199, ServiceScheme::Slgf2, false)
        .expect("query");
    assert_eq!(reply.epoch, 2);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.epoch, 2);
    assert_eq!(stats.stats.move_batches, 1);
    assert_eq!(stats.stats.moved_nodes, 3);
    assert_eq!(stats.stats.chaos_batches, 1);
    assert_eq!(stats.stats.queries, 2);

    handle.shutdown();
    drop(client);
    handle.join();
}

/// Graceful shutdown: the `SHUTDOWN` requester is acknowledged, and a
/// connection that was already open keeps getting replies while it
/// drains — no in-flight request is ever dropped.
#[test]
fn shutdown_drains_open_connections() {
    let base = make_net(150, 31);
    let handle = serve(base, ServeConfig::ephemeral(2)).expect("bind");

    let mut survivor = ServeClient::connect(handle.addr()).expect("connect");
    survivor
        .query(0, 149, ServiceScheme::Slgf2, false)
        .expect("pre-shutdown query");

    let mut terminator = ServeClient::connect(handle.addr()).expect("connect");
    let epoch = terminator.shutdown().expect("shutdown acknowledged");
    assert_eq!(epoch, 0);
    assert!(handle.stopping());

    // The already-open connection still gets answers while draining.
    for k in 0..5 {
        let reply = survivor
            .query(k, 100 + k, ServiceScheme::Lgf, false)
            .expect("in-flight replies survive shutdown");
        assert_eq!(reply.epoch, 0);
    }

    let stats = handle.stats();
    assert_eq!(stats.queries, 6);

    drop(survivor);
    drop(terminator);
    let joined_by = Instant::now() + Duration::from_secs(10);
    handle.join();
    assert!(
        Instant::now() < joined_by,
        "join returned promptly after EOF"
    );
}

/// `STATS` agree with an external tally across two clients, and the
/// hop histogram + merged latency histogram account for every query.
/// The same queries routed offline through a `TrafficEngine` over the
/// server's epoch-0 snapshot fold to the same route quality.
#[test]
fn stats_match_an_external_tally() {
    let base = make_net(180, 41);
    let service = std::sync::Arc::new(sp_core::RoutingService::new(base.clone()));
    let epoch0 = service.snapshot();
    let handle = sp_serve::serve_with(service, base, ServeConfig::ephemeral(3)).expect("bind");

    let mut delivered = 0u64;
    let mut hops_hist = vec![0u64; sp_core::HOP_BUCKETS];
    let mut queries = Vec::new();
    for c in 0..2u32 {
        let mut client = ServeClient::connect(handle.addr()).expect("connect");
        for k in 0..60u32 {
            let (src, dst) = ((c * 61 + k * 7) % 180, (k * 13 + 5) % 180);
            let reply = client
                .query(src, dst, ServiceScheme::Slgf2, false)
                .expect("query");
            if reply.delivered() {
                delivered += 1;
            }
            let bucket = (reply.hops as usize).min(sp_core::HOP_BUCKETS - 1);
            hops_hist[bucket] += 1;
            queries.push((NodeId(src), NodeId(dst)));
        }
    }

    let stats = handle.stats();
    assert_eq!(stats.queries, 120);
    assert_eq!(stats.delivered, delivered);
    assert_eq!(stats.routing_failures(), 120 - delivered);
    assert_eq!(stats.hops_hist, hops_hist);
    assert_eq!(stats.latency_count, 120);
    assert!(stats.latency_p50 >= 0.0 && stats.latency_p50 <= stats.latency_p99);

    // Offline equals online: one fold, two producers.
    let offline = sp_core::TrafficEngine::new(epoch0.value.network())
        .run(&epoch0.value.router(), &queries)
        .quality;
    assert_eq!(stats.queries, offline.routes);
    assert_eq!(stats.delivered, offline.delivered);
    assert_eq!(stats.hops_hist, offline.hops_hist);

    // The wire STATS frame carries the same aggregation.
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let wire_stats = client.stats().expect("stats");
    assert_eq!(wire_stats.stats.queries, 120);
    assert_eq!(wire_stats.stats.delivered, delivered);
    assert_eq!(wire_stats.stats.hops_hist, hops_hist);

    handle.shutdown();
    drop(client);
    handle.join();
}

/// The telemetry exporter appends JSONL lines with the documented
/// fields, including a final line at shutdown.
#[test]
fn telemetry_exporter_writes_jsonl() {
    let path = std::env::temp_dir().join(format!(
        "sp-serve-telemetry-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    drop(std::fs::remove_file(&path));

    let base = make_net(150, 51);
    let cfg = ServeConfig::ephemeral(2).with_telemetry(
        path.to_string_lossy().into_owned(),
        Duration::from_millis(40),
    );
    let handle = serve(base, cfg).expect("bind");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    for k in 0..25u32 {
        client
            .query(k % 150, (k * 11) % 150, ServiceScheme::Slgf2, false)
            .expect("query");
    }
    std::thread::sleep(Duration::from_millis(120));
    handle.shutdown();
    drop(client);
    handle.join();

    let text = std::fs::read_to_string(&path).expect("exporter wrote the file");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "at least one export line");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "JSONL shape: {line}"
        );
        for key in [
            "\"ts_ms\":",
            "\"epoch\":",
            "\"queries\":",
            "\"latency_p99_s\":",
            "\"hops_hist\":[",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
    // The final line saw every query.
    assert!(
        lines.last().unwrap().contains("\"queries\":25"),
        "final line accounts for all queries: {:?}",
        lines.last()
    );
    drop(std::fs::remove_file(&path));
}
