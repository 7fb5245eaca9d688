//! Dynamic failures: the paper's §1 motivates unsafe areas with "node
//! failures, signal fading, communication jamming, power exhaustion".
//! This example builds the safety information with the *distributed*
//! protocol (Algorithm 2 over the round-based simulator), kills a batch
//! of nodes, lets the protocol repair itself incrementally, and shows
//! that SLGF2 keeps routing on the degraded network.
//!
//! ```sh
//! cargo run --example dynamic_failures
//! ```

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use straightpath::net::edge_nodes::edge_node_mask;
use straightpath::prelude::*;
use straightpath::sim::ChaosPlan;

fn main() {
    let cfg = DeploymentConfig::paper_default(550);
    let net = Network::from_positions(cfg.deploy_uniform(404), cfg.radius, cfg.area);
    let pinned = edge_node_mask(&net, net.radius());

    // Phase 1: construct the information distributively and report the
    // cost (the paper cites [7]'s proof that this cost is minimal).
    let clean = construct_distributed(&net).expect("construction quiesces");
    println!(
        "initial construction: {} rounds, {} broadcasts ({:.2}/node), {} receptions",
        clean.stats.rounds,
        clean.stats.broadcasts,
        clean.stats.broadcasts as f64 / net.len() as f64,
        clean.stats.receptions,
    );

    // Phase 2: schedule a burst of interior node failures *after*
    // stabilization and let the protocol repair incrementally.
    let mut rng = StdRng::seed_from_u64(99);
    let mut interior: Vec<NodeId> = net
        .node_ids()
        .filter(|&u| !pinned[u.index()] && net.degree(u) > 2)
        .collect();
    interior.shuffle(&mut rng);
    let victims: Vec<NodeId> = interior.into_iter().take(25).collect();
    let mut plan = ChaosPlan::new();
    for (i, &v) in victims.iter().enumerate() {
        plan.kill_at(clean.stats.rounds + 2 + i / 5, v);
    }
    let repaired =
        straightpath::core::construct_with(&net, pinned, plan, 1).expect("repair quiesces");
    println!(
        "with {} failures injected: {} total rounds, {} broadcasts \
         (repair overhead {} broadcasts)",
        victims.len(),
        repaired.stats.rounds,
        repaired.stats.broadcasts,
        repaired
            .stats
            .broadcasts
            .saturating_sub(clean.stats.broadcasts),
    );

    // Phase 3: route on the degraded network with the repaired info.
    let degraded = net.without_nodes(&victims);
    let more_unsafe = degraded
        .node_ids()
        .filter(|&u| !repaired.info.tuple(u).fully_safe() && clean.info.tuple(u).fully_safe())
        .count();
    println!("{more_unsafe} nodes became (partially) unsafe after the failures\n");

    let comp = degraded.largest_component();
    let (src, dst) = (comp[0], comp[comp.len() - 1]);
    let r_stale = Slgf2Router::new(&clean.info).route(&degraded, src, dst);
    let r_fresh = Slgf2Router::new(&repaired.info).route(&degraded, src, dst);
    println!(
        "SLGF2 {}->{} with stale info: delivered={} hops={} perimeter_entries={}",
        src,
        dst,
        r_stale.delivered(),
        r_stale.hops(),
        r_stale.perimeter_entries
    );
    println!(
        "SLGF2 {}->{} with repaired info: delivered={} hops={} perimeter_entries={}",
        src,
        dst,
        r_fresh.delivered(),
        r_fresh.hops(),
        r_fresh.perimeter_entries
    );
}
