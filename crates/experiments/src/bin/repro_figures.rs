//! `repro-figures` — regenerate every figure of the paper (and the
//! ablations) from the command line.
//!
//! ```text
//! repro-figures [--quick] [--chart] [--svg] [--out DIR] [--spec SPEC | FIGURE...]
//!
//! FIGURE: 5a 5b 6a 6b 7a 7b a1..a15 a17 | all   (default: all)
//! --quick  reduced sweep (3 node counts, 8 networks/point) for smoke runs
//! --chart  also print each figure as an ASCII line chart
//! --svg    also write each figure as an SVG line chart
//! --out    directory for .md/.csv/.svg outputs (default: results/)
//! --spec   run one custom sweep instead of the paper figures, e.g.
//!          "scenario=corridor;nodes=400..800:50;nets=100;schemes=PAPER"
//!          (scenario and scheme names as the spec grammar takes them)
//! ```

use sp_experiments::{figures, run_sweep, Scenario, Scheme, SweepConfig, SweepResults, SweepSpec};
use sp_metrics::{render_csv, render_json, render_markdown, render_text, Figure};
use sp_viz::ascii::{render_chart, ChartOptions};
use sp_viz::chart::{render_figure_svg, FigureSvgOptions};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};

const ALL_FIGURES: [&str; 22] = [
    "5a", "5b", "6a", "6b", "7a", "7b", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9",
    "a10", "a11", "a12", "a13", "a14", "a15", "a17",
];

fn main() {
    let mut quick = false;
    let mut chart = false;
    let mut svg = false;
    let mut spec: Option<String> = None;
    let mut out_dir = PathBuf::from("results");
    let mut wanted: BTreeSet<String> = BTreeSet::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--chart" => chart = true,
            "--svg" => svg = true,
            "--out" => {
                out_dir = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a directory argument");
                    std::process::exit(2);
                }));
            }
            "--spec" => {
                spec = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--spec requires a spec-string argument");
                    std::process::exit(2);
                }));
            }
            "all" => {
                wanted.extend(ALL_FIGURES.iter().map(|s| s.to_string()));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro-figures [--quick] [--chart] [--svg] [--out DIR] [--spec SPEC | FIGURE...]"
                );
                eprintln!("FIGURE: {} | all", ALL_FIGURES.join(" "));
                return;
            }
            other if ALL_FIGURES.contains(&other) => {
                wanted.insert(other.to_string());
            }
            other => {
                eprintln!("unknown figure or flag: {other}");
                std::process::exit(2);
            }
        }
    }
    if wanted.is_empty() {
        wanted.extend(ALL_FIGURES.iter().map(|s| s.to_string()));
    }

    std::fs::create_dir_all(&out_dir).expect("create output directory");

    if let Some(spec) = spec {
        run_spec(&spec, quick, chart, svg, &out_dir);
        return;
    }

    let sweep_for = |scenario: Scenario| -> SweepConfig {
        if quick {
            SweepConfig::quick(scenario)
        } else {
            SweepConfig {
                deployment: scenario,
                ..SweepConfig::paper_ia()
            }
        }
    };

    // Everything derivable from the per-panel sweeps, which route every
    // scheme: the ablation variants give A3/A4, GFG gives A8.
    let panel_figures = ["a2", "a3", "a4", "a5", "a7", "a8", "a11", "a12"];
    let needs_ia = ["5a", "6a", "7a"]
        .iter()
        .chain(panel_figures.iter())
        .any(|f| wanted.contains(*f));
    let needs_fa = ["5b", "6b", "7b"]
        .iter()
        .chain(panel_figures.iter())
        .any(|f| wanted.contains(*f));

    let ia_results = needs_ia.then(|| {
        eprintln!("running IA sweep...");
        run_sweep(&sweep_for(Scenario::Ia), &Scheme::ALL)
    });
    let fa_results = needs_fa.then(|| {
        eprintln!("running FA sweep...");
        run_sweep(&sweep_for(Scenario::Fa), &Scheme::ALL)
    });

    let mut emitted = 0;
    for id in &wanted {
        let figs: Vec<Figure> = match id.as_str() {
            "5a" => vec![keep_paper_set(figures::fig5(ia_results.as_ref().unwrap()))],
            "5b" => vec![keep_paper_set(figures::fig5(fa_results.as_ref().unwrap()))],
            "6a" => vec![keep_paper_set(figures::fig6(ia_results.as_ref().unwrap()))],
            "6b" => vec![keep_paper_set(figures::fig6(fa_results.as_ref().unwrap()))],
            "7a" => vec![keep_paper_set(figures::fig7(ia_results.as_ref().unwrap()))],
            "7b" => vec![keep_paper_set(figures::fig7(fa_results.as_ref().unwrap()))],
            "a1" => {
                eprintln!("running construction-cost sweep...");
                let cfg = sweep_for(Scenario::Ia);
                let instances = if quick { 2 } else { 10 };
                vec![figures::construction_cost_figure(&cfg, instances)]
            }
            "a2" => collect_panels(&ia_results, &fa_results, figures::delivery_figure),
            "a3" => collect_panels(&ia_results, &fa_results, |r| ablation_figure(r, true)),
            "a4" => collect_panels(&ia_results, &fa_results, |r| ablation_figure(r, false)),
            "a5" => collect_panels(&ia_results, &fa_results, figures::perimeter_figure),
            "a6" => {
                eprintln!("running failure-robustness sweep...");
                let (inst, n) = if quick { (4, 400) } else { (30, 600) };
                vec![figures::failure_robustness_figure(
                    Scenario::Ia,
                    n,
                    inst,
                    &[0.0, 0.05, 0.10, 0.15, 0.20, 0.25],
                )]
            }
            "a7" => {
                let mut out = collect_panels(&ia_results, &fa_results, |r| {
                    keep_paper_set(figures::energy_figure(r))
                });
                out.extend(collect_panels(&ia_results, &fa_results, |r| {
                    keep_paper_set(figures::interference_figure(r))
                }));
                out
            }
            "a8" => collect_panels(&ia_results, &fa_results, gfg_figure),
            "a9" => {
                eprintln!("running maintenance-cost sweep...");
                let (inst, kills) = if quick { (2, 3) } else { (10, 10) };
                let counts: Vec<usize> = if quick {
                    vec![400, 800]
                } else {
                    (400..=800).step_by(100).collect()
                };
                vec![figures::maintenance_cost_figure(
                    Scenario::Ia,
                    &counts,
                    inst,
                    kills,
                )]
            }
            "a11" => {
                let mut out = collect_panels(&ia_results, &fa_results, |r| {
                    keep_paper_set(figures::hop_stretch_figure(r))
                });
                out.extend(collect_panels(&ia_results, &fa_results, |r| {
                    keep_paper_set(figures::length_stretch_figure(r))
                }));
                out
            }
            "a12" => collect_panels(&ia_results, &fa_results, slgf2_face_figure),
            "a13" => {
                eprintln!("running mobility-staleness sweep...");
                let (inst, pairs) = if quick { (3, 4) } else { (15, 8) };
                figures::mobility_staleness_figure(
                    500,
                    inst,
                    pairs,
                    &[0.0, 5.0, 10.0, 20.0, 40.0, 80.0],
                    (1.0, 3.0),
                )
            }
            "a15" => {
                eprintln!("running streaming-lifetime sweep...");
                let instances = if quick { 2 } else { 8 };
                let mut stream_cfg = sp_experiments::StreamingConfig::default_for_lifetime();
                if quick {
                    stream_cfg.node_energy_nj = 4.0e6;
                }
                vec![sp_experiments::lifetime_figure(
                    500,
                    instances,
                    &[
                        Scheme::Gf,
                        Scheme::Lgf,
                        Scheme::Slgf,
                        Scheme::Slgf2,
                        Scheme::Gfg,
                    ],
                    &stream_cfg,
                )]
            }
            "a14" => {
                eprintln!("running shape-estimate accuracy sweep...");
                let mut cfg = sweep_for(Scenario::Fa);
                let instances = if quick { 2 } else { 10 };
                if quick {
                    cfg.node_counts = vec![400, 600, 800];
                }
                vec![figures::estimate_accuracy_figure(&cfg, instances)]
            }
            "a10" => {
                eprintln!("running sync-vs-async construction sweep...");
                let mut cfg = sweep_for(Scenario::Ia);
                let instances = if quick { 2 } else { 8 };
                if quick {
                    cfg.node_counts = vec![400, 600, 800];
                }
                vec![figures::async_cost_figure(&cfg, instances)]
            }
            "a17" => {
                eprintln!("running delivery-vs-chaos family...");
                let instances = if quick { 2 } else { 10 };
                let n = if quick { 300 } else { 500 };
                figures::chaos_delivery_family(
                    Scenario::Ia,
                    n,
                    instances,
                    &figures::CHAOS_FAMILY_SCHEMES,
                )
            }
            _ => unreachable!("validated above"),
        };
        for fig in figs {
            println!("{}", render_text(&fig));
            if chart {
                println!("{}", render_chart(&fig, ChartOptions::default()));
            }
            write_outputs(&out_dir, id, &fig, svg);
            emitted += 1;
        }
    }
    eprintln!("wrote {emitted} figure(s) to {}", out_dir.display());
}

/// The A8 view: the paper's set plus the guaranteed-delivery GFG
/// face-routing baseline, on mean hops.
fn gfg_figure(results: &SweepResults) -> Figure {
    let mut fig = figures::fig6(results);
    fig.title = format!(
        "A8 GFG face-routing comparison ({} model)",
        results.deployment_tag
    );
    fig.series
        .retain(|s| Scheme::EXTENDED_SET.iter().any(|k| k.name() == s.label));
    fig
}

/// The A12 view: SLGF2 against SLGF2-F (face recovery) on delivery
/// ratio and mean hops.
fn slgf2_face_figure(results: &SweepResults) -> Figure {
    let hops = figures::fig6(results);
    let delivery = figures::delivery_figure(results);
    let mut fig = Figure::new(
        format!(
            "A12 SLGF2 vs SLGF2-F face recovery ({} model)",
            results.deployment_tag
        ),
        hops.x_label.clone(),
        "hops / delivery ratio",
    );
    for src in [&hops, &delivery] {
        for s in &src.series {
            if s.label == "SLGF2" || s.label == "SLGF2-F" {
                let mut renamed = s.clone();
                renamed.label = format!(
                    "{} {}",
                    s.label,
                    if std::ptr::eq(src, &hops) {
                        "hops"
                    } else {
                        "delivery"
                    }
                );
                fig.push_series(renamed);
            }
        }
    }
    fig
}

/// Restrict a figure to the paper's four curves (the sweep also carries
/// the ablation variants).
fn keep_paper_set(mut fig: Figure) -> Figure {
    fig.series
        .retain(|s| Scheme::PAPER_SET.iter().any(|k| k.name() == s.label));
    fig
}

/// The A3/A4 ablation view: SLGF2 against the variant with one
/// mechanism removed, on mean hops.
fn ablation_figure(results: &SweepResults, superseding: bool) -> Figure {
    let mut fig = figures::fig6(results);
    let (title, variant) = if superseding {
        ("A3 either-hand superseding rule ablation", "SLGF2-noEH")
    } else {
        ("A4 backup-path phase ablation", "SLGF2-noBP")
    };
    fig.title = format!("{title} ({} model)", results.deployment_tag);
    fig.series
        .retain(|s| s.label == "SLGF2" || s.label == variant);
    fig
}

/// `--spec` mode: resolve the spec, run the one sweep it describes, and
/// emit the standard metric views of it.
fn run_spec(spec: &str, quick: bool, chart: bool, svg: bool, out_dir: &Path) {
    let mut resolved = SweepSpec::parse(spec).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if quick {
        // Smoke-run bounds, mirroring SweepConfig::quick: at most 8
        // networks per point over at most 3 node counts (first, middle,
        // last of the requested axis).
        resolved.config.networks_per_point = resolved.config.networks_per_point.min(8);
        let counts = &mut resolved.config.node_counts;
        if counts.len() > 3 {
            *counts = vec![
                counts[0],
                counts[counts.len() / 2],
                counts[counts.len() - 1],
            ];
        }
    }
    let names: Vec<&str> = resolved.schemes.iter().map(|s| s.name()).collect();
    eprintln!(
        "running spec sweep: scenario={}, {} node counts x {} nets, schemes [{}]...",
        resolved.config.deployment,
        resolved.config.node_counts.len(),
        resolved.config.networks_per_point,
        names.join(", ")
    );
    let results = resolved.run();
    let tag = &results.deployment_tag;
    let views = [
        (figures::Metric::MaxHops, "maximum hops"),
        (figures::Metric::MeanHops, "average hops"),
        (figures::Metric::MeanLength, "average path length"),
        (figures::Metric::DeliveryRatio, "delivery ratio"),
    ];
    for (metric, label) in views {
        let fig =
            figures::figure_from_sweep(&results, metric, &format!("sweep {label} ({tag} model)"));
        println!("{}", render_text(&fig));
        if chart {
            println!("{}", render_chart(&fig, ChartOptions::default()));
        }
        write_outputs(out_dir, "sweep", &fig, svg);
    }
    eprintln!("wrote 4 figure(s) to {}", out_dir.display());
}

fn collect_panels(
    ia: &Option<SweepResults>,
    fa: &Option<SweepResults>,
    f: impl Fn(&SweepResults) -> Figure,
) -> Vec<Figure> {
    let mut out = Vec::new();
    if let Some(r) = ia {
        out.push(f(r));
    }
    if let Some(r) = fa {
        out.push(f(r));
    }
    out
}

fn write_outputs(dir: &Path, id: &str, fig: &Figure, svg: bool) {
    let tag = fig
        .title
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_lowercase();
    let stem = format!("{id}_{}", &tag[..tag.len().min(24)]);
    let md = dir.join(format!("{stem}.md"));
    let csv = dir.join(format!("{stem}.csv"));
    let mut f = std::fs::File::create(&md).expect("create md output");
    writeln!(f, "### {}\n", fig.title).unwrap();
    f.write_all(render_markdown(fig).as_bytes()).unwrap();
    std::fs::write(&csv, render_csv(fig)).expect("write csv output");
    let json = dir.join(format!("{stem}.json"));
    std::fs::write(&json, render_json(fig)).expect("write json output");
    if svg {
        let path = dir.join(format!("{stem}.svg"));
        std::fs::write(&path, render_figure_svg(fig, FigureSvgOptions::default()))
            .expect("write svg output");
    }
}
