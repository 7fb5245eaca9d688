//! End-to-end figure pipeline tests: reduced versions of the paper's
//! sweeps, checking that the regenerated curves have the *shape* the
//! paper reports (who wins, in which regime) and that the renderers
//! produce usable artifacts.

use straightpath::experiments::{figures, run_sweep, Scenario, Scheme, SweepConfig};
use straightpath::metrics::{render_csv, render_markdown, render_text};

fn quick(kind: Scenario, seed: u64) -> SweepConfig {
    // 24 networks x 2 pairs per point: the smallest sample at which the
    // paper's mean-hop ordering is stable against the heavy-tailed
    // recovery-walk outliers (a single ~90-hop escort in a 24-route
    // sample shifts the mean by several hops).
    SweepConfig {
        node_counts: vec![450, 650],
        networks_per_point: 24,
        pairs_per_network: 2,
        deployment: kind,
        base_seed: seed,
        chaos: None,
        mobility: None,
    }
}

#[test]
fn ia_panel_shape_holds() {
    let results = run_sweep(&quick(Scenario::Ia, 1), &Scheme::PAPER_SET);
    // Delivery: the safety-aware schemes deliver nearly always on IA.
    for p in &results.points {
        let slgf2 = p.scheme(Scheme::Slgf2).unwrap();
        assert!(
            slgf2.quality.delivery_ratio() >= 0.9,
            "SLGF2 delivery {:.2} at n={}",
            slgf2.quality.delivery_ratio(),
            p.node_count
        );
    }
    // Average hops: SLGF2 <= LGF (aggregated over points, the paper's
    // headline ordering), with a small noise margin.
    let mean_of = |s: Scheme| -> f64 {
        let fig = figures::fig6(&results);
        fig.series_by_label(s.name()).unwrap().mean_y()
    };
    assert!(
        mean_of(Scheme::Slgf2) <= mean_of(Scheme::Lgf) + 0.5,
        "SLGF2 {:.2} vs LGF {:.2}",
        mean_of(Scheme::Slgf2),
        mean_of(Scheme::Lgf)
    );
    assert!(
        mean_of(Scheme::Slgf2) <= mean_of(Scheme::Slgf) + 0.5,
        "SLGF2 {:.2} vs SLGF {:.2}",
        mean_of(Scheme::Slgf2),
        mean_of(Scheme::Slgf)
    );
}

#[test]
fn fa_panel_shape_holds() {
    let results = run_sweep(&quick(Scenario::Fa, 2), &Scheme::PAPER_SET);
    let fig6 = figures::fig6(&results);
    let fig7 = figures::fig7(&results);
    let mean6 = |name: &str| fig6.series_by_label(name).unwrap().mean_y();
    let mean7 = |name: &str| fig7.series_by_label(name).unwrap().mean_y();
    // The paper's FA ordering: SLGF2 at least matches SLGF, and both
    // beat LGF on hops and length.
    assert!(mean6("SLGF2") <= mean6("LGF") + 0.5);
    assert!(mean7("SLGF2") <= mean7("LGF") * 1.05 + 1.0);
    // Perimeter usage: the information-based routing enters perimeter
    // less often than LGF (that is its whole point).
    let a5 = figures::perimeter_figure(&results);
    let per = |name: &str| a5.series_by_label(name).unwrap().mean_y();
    assert!(
        per("SLGF2") <= per("LGF") + 0.05,
        "SLGF2 perimeter {:.3} vs LGF {:.3}",
        per("SLGF2"),
        per("LGF")
    );
}

#[test]
fn figure_renderers_produce_complete_artifacts() {
    let results = run_sweep(
        &SweepConfig {
            node_counts: vec![400],
            networks_per_point: 4,
            pairs_per_network: 1,
            deployment: Scenario::Ia,
            base_seed: 3,
            chaos: None,
            mobility: None,
        },
        &Scheme::PAPER_SET,
    );
    for fig in [
        figures::fig5(&results),
        figures::fig6(&results),
        figures::fig7(&results),
        figures::delivery_figure(&results),
    ] {
        let text = render_text(&fig);
        let md = render_markdown(&fig);
        let csv = render_csv(&fig);
        for scheme in Scheme::PAPER_SET {
            assert!(text.contains(scheme.name()), "text missing {scheme}");
            assert!(md.contains(scheme.name()), "md missing {scheme}");
            assert!(csv.contains(scheme.name()), "csv missing {scheme}");
        }
        assert!(csv.lines().count() >= 2);
    }
}

#[test]
fn max_hops_dominate_mean_hops() {
    let results = run_sweep(&quick(Scenario::Ia, 4), &Scheme::PAPER_SET);
    let f5 = figures::fig5(&results);
    let f6 = figures::fig6(&results);
    for scheme in Scheme::PAPER_SET {
        let s5 = f5.series_by_label(scheme.name()).unwrap();
        let s6 = f6.series_by_label(scheme.name()).unwrap();
        for (&(x, max), &(_, mean)) in s5.points.iter().zip(&s6.points) {
            assert!(max >= mean, "{scheme} at n={x}: max {max} < mean {mean}");
        }
    }
}

#[test]
fn ablation_schemes_flow_through_sweep() {
    let cfg = SweepConfig {
        node_counts: vec![500],
        networks_per_point: 8,
        pairs_per_network: 1,
        deployment: Scenario::Fa,
        base_seed: 9,
        chaos: None,
        mobility: None,
    };
    let schemes = [
        Scheme::Slgf2,
        Scheme::Slgf2NoSuperseding,
        Scheme::Slgf2NoBackup,
    ];
    let results = run_sweep(&cfg, &schemes);
    let p = &results.points[0];
    for s in schemes {
        let sp = p.scheme(s).unwrap();
        assert_eq!(sp.quality.routes, 8, "{s}");
        assert!(sp.quality.delivery_ratio() > 0.5, "{s} delivery too low");
    }
    // The full SLGF2 delivers at least as often as the backup-less
    // variant (removing a recovery mechanism cannot help delivery).
    let full = p.scheme(Scheme::Slgf2).unwrap().quality.delivery_ratio();
    let no_bp = p
        .scheme(Scheme::Slgf2NoBackup)
        .unwrap()
        .quality
        .delivery_ratio();
    assert!(full + 1e-9 >= no_bp - 0.13, "full {full} vs noBP {no_bp}");
}

#[test]
fn construction_cost_scales_with_density() {
    let cfg = SweepConfig {
        node_counts: vec![400, 700],
        networks_per_point: 1,
        pairs_per_network: 1,
        deployment: Scenario::Ia,
        base_seed: 11,
        chaos: None,
        mobility: None,
    };
    let fig = figures::construction_cost_figure(&cfg, 2);
    let bpn = fig.series_by_label("broadcasts/node").unwrap();
    // Every node broadcasts at least its initial announcement.
    for &(_, y) in &bpn.points {
        assert!(y >= 1.0, "broadcasts/node {y} < 1");
    }
}
