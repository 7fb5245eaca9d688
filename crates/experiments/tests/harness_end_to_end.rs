//! End-to-end checks of the reproduction harness: determinism with the
//! extended scheme set, coherence between the figure families, and the
//! paper's qualitative shape claims at miniature scale.

use sp_experiments::{figures, run_sweep, Scenario, Scheme, SweepConfig};

fn mini(kind: Scenario, seed: u64) -> SweepConfig {
    SweepConfig {
        node_counts: vec![450, 650],
        networks_per_point: 5,
        pairs_per_network: 2,
        deployment: kind,
        base_seed: seed,
        chaos: None,
        mobility: None,
    }
}

#[test]
fn extended_sweep_is_deterministic_including_new_metrics() {
    let cfg = mini(Scenario::Fa, 3);
    let a = run_sweep(&cfg, &Scheme::EXTENDED_SET);
    let b = run_sweep(&cfg, &Scheme::EXTENDED_SET);
    for (pa, pb) in a.points.iter().zip(&b.points) {
        for (sa, sb) in pa.schemes.iter().zip(&pb.schemes) {
            assert_eq!(sa.scheme, sb.scheme);
            assert_eq!(sa.quality, sb.quality);
            assert_eq!(sa.delivered_routes, sb.delivered_routes);
        }
    }
}

#[test]
fn energy_orders_like_path_length() {
    // With a fixed packet size and near-uniform hop lengths, energy is a
    // monotone proxy of hop count: scheme ordering must agree between
    // fig7 (length) and A7 (energy) at every point, up to near-ties.
    let cfg = mini(Scenario::Ia, 11);
    let res = run_sweep(&cfg, &Scheme::PAPER_SET);
    let f7 = figures::fig7(&res);
    let fe = figures::energy_figure(&res);
    for x in f7.x_values() {
        let mut by_length: Vec<(&str, f64)> = f7
            .series
            .iter()
            .map(|s| (s.label.as_str(), s.y_at(x).unwrap()))
            .collect();
        let mut by_energy: Vec<(&str, f64)> = fe
            .series
            .iter()
            .map(|s| (s.label.as_str(), s.y_at(x).unwrap()))
            .collect();
        by_length.sort_by(|a, b| a.1.total_cmp(&b.1));
        by_energy.sort_by(|a, b| a.1.total_cmp(&b.1));
        // The cheapest-by-length scheme is within the two cheapest by
        // energy (hop-count granularity can swap near-ties).
        let cheapest = by_length[0].0;
        let top2: Vec<&str> = by_energy.iter().take(2).map(|e| e.0).collect();
        assert!(
            top2.contains(&cheapest),
            "x={x}: cheapest by length {cheapest} not among cheapest by energy {top2:?}"
        );
    }
}

#[test]
fn gfg_never_loses_a_route_in_the_sweep() {
    let cfg = mini(Scenario::Fa, 17);
    let res = run_sweep(&cfg, &[Scheme::Gfg]);
    for p in &res.points {
        let sp = p.scheme(Scheme::Gfg).unwrap();
        assert_eq!(
            sp.quality.delivered, sp.quality.routes,
            "GFG delivery must be perfect at n={}",
            p.node_count
        );
    }
}

#[test]
fn slgf2_beats_lgf_on_fa_deployments() {
    // The paper's headline (Figs. 6-7): the information-based routing
    // needs fewer hops than the zone-limited greedy without it. Mean
    // hops *of delivered routes* hides a survivor bias — LGF silently
    // fails the hard pairs SLGF2 completes — so compare (a) hops on the
    // pairs BOTH schemes delivered and (b) the delivery ratios.
    use sp_experiments::run_instance;
    let cfg = SweepConfig {
        node_counts: vec![400, 500, 600],
        networks_per_point: 12,
        pairs_per_network: 2,
        deployment: Scenario::Fa,
        base_seed: 29,
        chaos: None,
        mobility: None,
    };
    let schemes = [Scheme::Lgf, Scheme::Slgf2];
    let mut lgf_hops = 0usize;
    let mut slgf2_hops = 0usize;
    let mut both = 0usize;
    let mut lgf_delivered = 0usize;
    let mut slgf2_delivered = 0usize;
    let mut total = 0usize;
    for (i, &n) in cfg.node_counts.iter().enumerate() {
        for k in 0..cfg.networks_per_point {
            let recs = run_instance(&cfg, &schemes, n, cfg.instance_seed(i, k));
            // Records come out pair-by-pair in scheme order.
            for pair in recs.chunks(schemes.len()) {
                let [lgf, slgf2] = pair else { continue };
                total += 1;
                lgf_delivered += lgf.route.delivered() as usize;
                slgf2_delivered += slgf2.route.delivered() as usize;
                if lgf.route.delivered() && slgf2.route.delivered() {
                    both += 1;
                    lgf_hops += lgf.route.hops;
                    slgf2_hops += slgf2.route.hops;
                }
            }
        }
    }
    assert!(
        both * 2 >= total,
        "most pairs deliver under both: {both}/{total}"
    );
    assert!(
        slgf2_hops <= lgf_hops,
        "on commonly-delivered pairs SLGF2 ({slgf2_hops}) must not exceed LGF ({lgf_hops})"
    );
    assert!(
        slgf2_delivered >= lgf_delivered,
        "SLGF2 delivery {slgf2_delivered}/{total} must be at least LGF's {lgf_delivered}/{total}"
    );
}

#[test]
fn stretch_is_at_least_one_on_delivered_routes() {
    // No routing beats BFS hops or Dijkstra length; GFG (always
    // delivering) must report stretch >= 1 everywhere, and the paper
    // set too wherever it delivered.
    let cfg = mini(Scenario::Ia, 41);
    let res = run_sweep(&cfg, &Scheme::EXTENDED_SET);
    let fh = figures::hop_stretch_figure(&res);
    let fl = figures::length_stretch_figure(&res);
    for fig in [fh, fl] {
        for s in &fig.series {
            for &(x, y) in &s.points {
                assert!(
                    y >= 1.0 - 1e-9,
                    "{} stretch {y} < 1 at n={x} in {}",
                    s.label,
                    fig.title
                );
            }
        }
    }
}

#[test]
fn interference_grows_with_density() {
    // Denser networks have more overhearers per transmission: the A7
    // interference curves must rise with node count for every scheme.
    let cfg = SweepConfig {
        node_counts: vec![400, 800],
        networks_per_point: 8,
        pairs_per_network: 2,
        deployment: Scenario::Ia,
        base_seed: 31,
        chaos: None,
        mobility: None,
    };
    let res = run_sweep(&cfg, &Scheme::PAPER_SET);
    let fi = figures::interference_figure(&res);
    for s in &fi.series {
        let lo = s.y_at(400.0).unwrap();
        let hi = s.y_at(800.0).unwrap();
        assert!(
            hi > lo,
            "{}: interference should grow with density ({lo:.1} -> {hi:.1})",
            s.label
        );
    }
}
