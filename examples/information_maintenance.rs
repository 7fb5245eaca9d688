//! Keep the safety information alive while the network dies under it:
//! kill nodes one by one, each failure one `ServiceSnapshot::derive`
//! that repairs the labeling incrementally, and watch SLGF2 keep
//! routing — the dynamic-factors story of the paper's §1.
//!
//! ```sh
//! cargo run --example information_maintenance
//! ```

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use straightpath::prelude::*;

fn main() {
    let cfg = DeploymentConfig::paper_default(600);
    let net = Network::from_positions(cfg.deploy_uniform(77), cfg.radius, cfg.area);
    let comp = net.largest_component();
    // Route corner to corner across the interest area.
    let corner = |target: Point| {
        *comp
            .iter()
            .min_by(|&&a, &&b| {
                net.position(a)
                    .distance_sq(target)
                    .total_cmp(&net.position(b).distance_sq(target))
            })
            .expect("non-empty component")
    };
    let (src, dst) = (corner(net.area().min()), corner(net.area().max()));

    let mut snap = ServiceSnapshot::build(net.clone());
    println!(
        "initial network: {} nodes, {} with an unsafe type",
        net.len(),
        net.node_ids()
            .filter(|&u| !snap.info().tuple(u).fully_safe())
            .count()
    );

    // Kill 10% of the nodes in random order (sparing the endpoints).
    let mut rng = StdRng::seed_from_u64(0xdead);
    let mut victims: Vec<NodeId> = net.node_ids().filter(|&u| u != src && u != dst).collect();
    victims.shuffle(&mut rng);
    victims.truncate(60);

    println!(
        "\n{:<8} {:>9} {:>10} {:>12} {:>8}",
        "kill", "relabeled", "work items", "unsafe nodes", "hops"
    );
    let mut kill = TopologyDelta::default();
    for (i, &victim) in victims.iter().enumerate() {
        kill.down = vec![victim];
        let report;
        (snap, report) = snap.derive(&kill);
        let net = snap.network();
        if !net.connected(src, dst) {
            println!("network partitioned after kill #{i} — stopping");
            return;
        }
        // The victim's own flip to all-unsafe is one of the relabeled.
        if i % 10 == 0 || report.relabeled_nodes > 1 {
            let unsafe_count = net
                .node_ids()
                .filter(|&u| !net.is_down(u) && !snap.info().tuple(u).fully_safe())
                .count();
            let r = snap.router().route(net, src, dst);
            println!(
                "{:<8} {:>9} {:>10} {:>12} {:>7}{}",
                format!("#{i} {victim}"),
                report.relabeled_nodes,
                report.work_items,
                unsafe_count,
                r.hops(),
                if r.delivered() { "" } else { " FAILED" }
            );
        }
    }

    println!(
        "\nafter {} kills: {} nodes down, route still {} hops",
        victims.len(),
        snap.network().down().len(),
        snap.router().route(snap.network(), src, dst).hops()
    );
}
