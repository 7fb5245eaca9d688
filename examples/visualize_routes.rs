//! Visualize a forbidden-area deployment and the routes the four schemes
//! take around its holes: writes SVG scenes to `target/viz/` and prints
//! an ASCII chart of a quick Fig. 6-style sweep.
//!
//! ```sh
//! cargo run --example visualize_routes
//! ```

use sp_experiments::{figures, run_sweep, Scenario, Scheme, SweepConfig};
use sp_viz::ascii::{render_chart, ChartOptions};
use sp_viz::svg::{Scene, SceneOptions};
use straightpath::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::path::Path::new("target/viz");
    std::fs::create_dir_all(out_dir)?;

    // An FA deployment: 550 nodes dodging random forbidden areas.
    let cfg = DeploymentConfig::paper_default(550);
    let fa = FaModel::paper_default();
    let seed = 42;
    let obstacles = fa.generate_obstacles(&cfg, seed);
    let net = Network::from_positions(
        cfg.deploy_with_obstacles(&obstacles, seed),
        cfg.radius,
        cfg.area,
    );
    let info = SafetyInfo::build(&net);
    println!(
        "FA network: {} nodes, {} obstacles, {} nodes with an unsafe type",
        net.len(),
        obstacles.len(),
        net.node_ids()
            .filter(|&u| !info.tuple(u).fully_safe())
            .count()
    );

    // The deployment itself, safety-colored.
    let deployment_svg = Scene::new(&net, SceneOptions::default())
        .with_safety(&info)
        .with_obstacles(&obstacles)
        .render();
    let path = out_dir.join("deployment.svg");
    std::fs::write(&path, deployment_svg)?;
    println!("wrote {}", path.display());

    // One route per scheme corner-to-corner across the component,
    // phases colored.
    let comp = net.largest_component();
    let sw = net.area().min();
    let ne = net.area().max();
    let src = *comp
        .iter()
        .min_by(|&&a, &&b| {
            net.position(a)
                .distance_sq(sw)
                .total_cmp(&net.position(b).distance_sq(sw))
        })
        .expect("non-empty component");
    let dst = *comp
        .iter()
        .min_by(|&&a, &&b| {
            net.position(a)
                .distance_sq(ne)
                .total_cmp(&net.position(b).distance_sq(ne))
        })
        .expect("non-empty component");
    let gf = GfRouter::new(&net);
    let lgf = LgfRouter::new();
    let slgf = SlgfRouter::new(&info);
    let slgf2 = Slgf2Router::new(&info);
    let schemes: [(&str, &dyn Routing); 4] = [
        ("gf", &gf),
        ("lgf", &lgf),
        ("slgf", &slgf),
        ("slgf2", &slgf2),
    ];
    for (name, router) in schemes {
        let r = router.route(&net, src, dst);
        println!(
            "{:<6} {:>4} hops, {:>7.1} m{}",
            name,
            r.hops(),
            r.length(&net),
            if r.delivered() { "" } else { "  [FAILED]" }
        );
        let svg = Scene::new(
            &net,
            SceneOptions {
                draw_edges: false,
                ..SceneOptions::default()
            },
        )
        .with_obstacles(&obstacles)
        .with_route(name, &r)
        .with_mark(src, "s")
        .with_mark(dst, "d")
        .render();
        let path = out_dir.join(format!("route_{name}.svg"));
        std::fs::write(&path, svg)?;
        println!("       wrote {}", path.display());
    }

    // A quick Fig. 6-style sweep rendered as an ASCII chart.
    let sweep_cfg = SweepConfig {
        node_counts: vec![400, 500, 600, 700, 800],
        networks_per_point: 4,
        pairs_per_network: 3,
        deployment: Scenario::Fa,
        base_seed: 7,
        chaos: None,
        mobility: None,
    };
    let results = run_sweep(&sweep_cfg, &Scheme::PAPER_SET);
    let fig6 = figures::fig6(&results);
    println!("\n{}", render_chart(&fig6, ChartOptions::default()));
    Ok(())
}
