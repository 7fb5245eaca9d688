//! Cross-crate integration of the extension features: maintenance +
//! mobility + face recovery + radio accounting + visualization, driven
//! through the `straightpath` facade the way a downstream user would.

use sp_baselines::Slgf2FaceRouter;
use sp_core::construct_async;
use sp_net::{interference_count, RadioModel, RandomWaypoint};
use sp_viz::ascii::{render_chart, ChartOptions};
use sp_viz::chart::{render_figure_svg, FigureSvgOptions};
use sp_viz::svg::{Scene, SceneOptions};
use straightpath::prelude::*;

#[test]
fn degraded_network_pipeline_end_to_end() {
    // Deploy -> build info -> kill nodes -> repair -> route -> account
    // energy/interference -> render the route.
    let cfg = DeploymentConfig::paper_default(450);
    let net = Network::from_positions(cfg.deploy_uniform(1), cfg.radius, cfg.area);
    let comp = net.largest_component();
    let (s, d) = (comp[1], comp[comp.len() - 2]);

    let victims: Vec<NodeId> = comp
        .iter()
        .copied()
        .filter(|&u| u != s && u != d)
        .step_by(29)
        .take(12)
        .collect();
    let (snap, _) = ServiceSnapshot::build(net.clone()).derive(&TopologyDelta {
        down: victims,
        ..TopologyDelta::default()
    });
    let net = snap.network();
    if !net.connected(s, d) {
        return;
    }

    let info = snap.info();
    let r = Slgf2Router::new(info).route(net, s, d);
    assert!(r.delivered(), "{:?}", r.outcome);

    let radio = RadioModel::first_order();
    let energy = radio.path_energy(net, &r.path, 1024.0);
    assert!(energy > 0.0);
    let overhearers = interference_count(net, &r.path);
    assert!(overhearers > 0, "dense networks always have bystanders");

    let svg = Scene::new(net, SceneOptions::default())
        .with_safety(info)
        .with_route("SLGF2 after failures", &r)
        .with_mark(s, "s")
        .with_mark(d, "d")
        .render();
    assert!(svg.contains("SLGF2 after failures"));
}

#[test]
fn mobile_snapshot_pipeline_end_to_end() {
    // Deploy -> move -> snapshot -> async construction on the snapshot
    // -> hybrid routing with guaranteed recovery.
    let cfg = DeploymentConfig::paper_default(400);
    let start = cfg.deploy_uniform(5);
    let mut rw = RandomWaypoint::new(start, cfg.area, cfg.radius, 1.0, 2.5, 1.0, 5);
    rw.step(25.0);
    // The incrementally-maintained snapshot must be the same topology
    // the from-scratch rebuild sees; route on the incremental one.
    let full = rw.snapshot();
    let snapshot = rw.snapshot_incremental().clone();
    for u in full.node_ids() {
        assert_eq!(snapshot.neighbors(u), full.neighbors(u), "node {u}");
    }

    let run = construct_async(&snapshot, 9).expect("async labeling quiesces");
    assert!(run.stats.quiesced);

    let router = Slgf2FaceRouter::new(&snapshot, &run.info);
    let comp = snapshot.largest_component();
    let mut delivered = 0;
    let mut attempted = 0;
    for k in 1..6 {
        let s = comp[(k * 83) % comp.len()];
        let d = comp[(k * 149) % comp.len()];
        if s == d {
            continue;
        }
        attempted += 1;
        if router.route(&snapshot, s, d).delivered() {
            delivered += 1;
        }
    }
    assert_eq!(delivered, attempted, "face recovery guarantees delivery");
}

#[test]
fn figures_render_in_both_chart_backends() {
    use sp_experiments::{figures, run_sweep, Scenario, Scheme, SweepConfig};
    let mut cfg = SweepConfig::quick(Scenario::Ia);
    cfg.node_counts = vec![400, 500];
    cfg.networks_per_point = 2;
    let results = run_sweep(&cfg, &Scheme::PAPER_SET);
    let fig = figures::fig6(&results);

    let ascii = render_chart(&fig, ChartOptions::default());
    assert!(ascii.contains("legend:"));
    for label in ["GF", "LGF", "SLGF", "SLGF2"] {
        assert!(ascii.contains(label));
    }

    let svg = render_figure_svg(&fig, FigureSvgOptions::default());
    assert!(svg.starts_with("<svg") && svg.ends_with("</svg>\n"));
    assert_eq!(svg.matches("<polyline").count(), 4);
}
