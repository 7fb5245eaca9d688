//! Figure assembly: from sweep results to the paper's curves.
//!
//! Fig. 5 reports the **maximum** number of hops over the sampled
//! networks, Fig. 6 the **average** hops, Fig. 7 the **average path
//! length**; each figure has an IA panel (a) and an FA panel (b). The
//! ablation figures A1–A15 and A17 (`repro-figures a1` to `a17`)
//! extend the evaluation.
//!
//! Counts come from one estimator. A sweep point's delivery ratio, mean
//! hops and phase entries per route read its [`sp_core::RouteQuality`],
//! the fold a server's `STATS` reports, and the A6, A13 and A17 figures
//! fold their own routes into it the same way. Max hops, path length,
//! energy, interference and the stretches summarize the records of the
//! delivered routes.

use crate::runner::LinkLoss;
use crate::{
    ChaosRecipe, PreparedNetwork, Scenario, Scheme, SweepConfig, SweepRecord, SweepResults,
};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use sp_core::{
    construct_distributed, RouteBuffer, RouteOutcome, RouteQuality, RouteRecord, Routing,
    SafetyInfo, Slgf2Router,
};
use sp_metrics::{Figure, Series};
use sp_net::{Network, NodeId};

/// Which aggregate of a sweep a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Fig. 5: maximum hops over delivered routes.
    MaxHops,
    /// Fig. 6: mean hops over delivered routes.
    MeanHops,
    /// Fig. 7: mean Euclidean path length (meters).
    MeanLength,
    /// A2: delivered / attempted.
    DeliveryRatio,
    /// A5: mean perimeter-phase entries per route.
    PerimeterEntries,
    /// Extra: mean backup-phase entries per route (SLGF2 family).
    BackupEntries,
    /// A7: mean first-order radio energy per packet (µJ).
    MeanEnergy,
    /// A7: mean number of nodes overhearing the path.
    MeanInterference,
    /// A11: mean hops over the BFS minimum.
    MeanHopStretch,
    /// A11: mean length over the Dijkstra shortest path.
    MeanLengthStretch,
}

impl Metric {
    /// Y-axis label.
    pub fn y_label(&self) -> &'static str {
        match self {
            Metric::MaxHops | Metric::MeanHops => "hops",
            Metric::MeanLength => "meters",
            Metric::DeliveryRatio => "delivery ratio",
            Metric::PerimeterEntries | Metric::BackupEntries => "entries/route",
            Metric::MeanEnergy => "µJ/packet",
            Metric::MeanInterference => "overhearing nodes",
            Metric::MeanHopStretch | Metric::MeanLengthStretch => "stretch (walked/optimal)",
        }
    }
}

/// Builds one figure from sweep results.
pub fn figure_from_sweep(results: &SweepResults, metric: Metric, title: &str) -> Figure {
    let mut fig = Figure::new(title, "nodes", metric.y_label());
    let schemes: Vec<Scheme> = results
        .points
        .first()
        .map(|p| p.schemes.iter().map(|s| s.scheme).collect())
        .unwrap_or_default();
    for scheme in schemes {
        let mut series = Series::new(scheme.name());
        for point in &results.points {
            let Some(sp) = point.scheme(scheme) else {
                continue;
            };
            let q = &sp.quality;
            let per_route = |entries: u64| match q.routes {
                0 => 0.0,
                routes => entries as f64 / routes as f64,
            };
            let delivered = |f: fn(&SweepRecord) -> f64| {
                sp_metrics::Summary::of(&sp.delivered_routes.iter().map(f).collect::<Vec<_>>())
            };
            let y = match metric {
                Metric::DeliveryRatio => q.delivery_ratio(),
                Metric::MeanHops => q.mean_hops(),
                Metric::PerimeterEntries => per_route(q.perimeter_entries),
                Metric::BackupEntries => per_route(q.backup_entries),
                Metric::MaxHops => delivered(|r| r.route.hops as f64).max,
                Metric::MeanLength => delivered(|r| r.route.length).mean,
                Metric::MeanEnergy => delivered(|r| r.energy_uj).mean,
                Metric::MeanInterference => delivered(|r| r.interference as f64).mean,
                Metric::MeanHopStretch => delivered(|r| r.hop_stretch).mean,
                Metric::MeanLengthStretch => delivered(|r| r.length_stretch).mean,
            };
            series.push(point.node_count as f64, y);
        }
        fig.push_series(series);
    }
    fig
}

/// Fig. 5 (panel by deployment tag): maximum hops.
pub fn fig5(results: &SweepResults) -> Figure {
    let panel = if results.deployment_tag == "IA" {
        "a"
    } else {
        "b"
    };
    figure_from_sweep(
        results,
        Metric::MaxHops,
        &format!(
            "Fig. 5({panel}) maximum hops ({} model)",
            results.deployment_tag
        ),
    )
}

/// Fig. 6: average hops.
pub fn fig6(results: &SweepResults) -> Figure {
    let panel = if results.deployment_tag == "IA" {
        "a"
    } else {
        "b"
    };
    figure_from_sweep(
        results,
        Metric::MeanHops,
        &format!(
            "Fig. 6({panel}) average hops ({} model)",
            results.deployment_tag
        ),
    )
}

/// Fig. 7: average path length.
pub fn fig7(results: &SweepResults) -> Figure {
    let panel = if results.deployment_tag == "IA" {
        "a"
    } else {
        "b"
    };
    figure_from_sweep(
        results,
        Metric::MeanLength,
        &format!(
            "Fig. 7({panel}) average path length ({} model)",
            results.deployment_tag
        ),
    )
}

/// A2: delivery ratio per scheme.
pub fn delivery_figure(results: &SweepResults) -> Figure {
    figure_from_sweep(
        results,
        Metric::DeliveryRatio,
        &format!("A2 delivery ratio ({} model)", results.deployment_tag),
    )
}

/// A5: perimeter-phase entries per scheme.
pub fn perimeter_figure(results: &SweepResults) -> Figure {
    figure_from_sweep(
        results,
        Metric::PerimeterEntries,
        &format!(
            "A5 perimeter entries per route ({} model)",
            results.deployment_tag
        ),
    )
}

/// A7: per-packet radio energy (first-order model) — the paper's
/// "avoids wasting energy in detours" claim, quantified.
pub fn energy_figure(results: &SweepResults) -> Figure {
    figure_from_sweep(
        results,
        Metric::MeanEnergy,
        &format!("A7 packet energy ({} model)", results.deployment_tag),
    )
}

/// A7: path interference — the paper's "less interference … when fewer
/// nodes are involved" claim, quantified as the mean number of
/// overhearing nodes.
pub fn interference_figure(results: &SweepResults) -> Figure {
    figure_from_sweep(
        results,
        Metric::MeanInterference,
        &format!("A7 path interference ({} model)", results.deployment_tag),
    )
}

/// A11: path stretch against the ideal routing path — walked hops over
/// the BFS minimum, on delivered routes. The closer to 1, the more
/// "straightforward" the path, which is the paper's titular claim.
pub fn hop_stretch_figure(results: &SweepResults) -> Figure {
    figure_from_sweep(
        results,
        Metric::MeanHopStretch,
        &format!("A11 hop stretch ({} model)", results.deployment_tag),
    )
}

/// A11: length stretch against the Dijkstra shortest path (Fig. 1(a)'s
/// "ideal routing path").
pub fn length_stretch_figure(results: &SweepResults) -> Figure {
    figure_from_sweep(
        results,
        Metric::MeanLengthStretch,
        &format!("A11 length stretch ({} model)", results.deployment_tag),
    )
}

/// A13: information staleness under node mobility. Safety information
/// is constructed once at `t = 0`; nodes then move by random waypoint
/// (speeds in meters per time unit) and SLGF2 routes on topology
/// snapshots with the **stale** information, against rebuilding it at
/// every snapshot, with always-fresh GFG as the information-free
/// reference. The x-axis is elapsed time (`sample_times` must be
/// ascending: each instance advances one walker through them and takes
/// incremental topology snapshots).
pub fn mobility_staleness_figure(
    node_count: usize,
    instances: usize,
    pairs_per_snapshot: usize,
    sample_times: &[f64],
    speed: (f64, f64),
) -> Vec<Figure> {
    use sp_baselines::GfgRouter;
    let suffix = format!(
        "(IA model, n={node_count}, v={:.1}-{:.1} m/u)",
        speed.0, speed.1
    );
    let mut delivery_fig = Figure::new(
        format!("A13 SLGF2 delivery under mobility {suffix}"),
        "elapsed time (units)",
        "delivery ratio",
    );
    let mut hops_fig = Figure::new(
        format!("A13 SLGF2 hops under mobility {suffix}"),
        "elapsed time (units)",
        "hops",
    );
    let labels = ["SLGF2 stale info", "SLGF2 rebuilt info", "GFG (no info)"];
    let mut delivery: Vec<Series> = labels.iter().map(|&l| Series::new(l)).collect();
    let mut hops: Vec<Series> = labels.iter().map(|&l| Series::new(l)).collect();
    let dc = sp_net::deploy::DeploymentConfig::paper_default(node_count);
    // Each instance walks *one* trajectory through the ascending sample
    // times, taking incremental snapshots along the way — only the nodes
    // that moved since the previous sample are re-bucketed and re-wired
    // (RandomWaypoint::snapshot_incremental), not the whole topology.
    let mut quality = vec![<[RouteQuality; 3]>::default(); sample_times.len()];
    let mut buf = RouteBuffer::new();
    for k in 0..instances {
        let seed = 0xa13_000 + k as u64;
        let start = dc.deploy_uniform(seed);
        let net0 = Network::from_positions(start.clone(), dc.radius, dc.area);
        let info0 = SafetyInfo::build(&net0);
        let mut rw =
            sp_net::RandomWaypoint::new(start, dc.area, dc.radius, speed.0, speed.1, 0.0, seed);
        let mut prev_t = 0.0;
        for (&t, folds) in sample_times.iter().zip(&mut quality) {
            assert!(
                t >= prev_t,
                "sample times must be ascending (got {t} after {prev_t})"
            );
            rw.step(t - prev_t);
            prev_t = t;
            let snapshot = rw.snapshot_incremental();
            let fresh_info = SafetyInfo::build(snapshot);
            let stale = Slgf2Router::new(&info0);
            let fresh = Slgf2Router::new(&fresh_info);
            let gfg = GfgRouter::new(snapshot);
            let routers: [&dyn Routing; 3] = [&stale, &fresh, &gfg];
            let mut rng = StdRng::seed_from_u64(seed ^ 0x517e);
            let comp = snapshot.largest_component();
            for _ in 0..pairs_per_snapshot {
                let Some(pair) = crate::random_pair(&comp, &mut rng) else {
                    continue;
                };
                for (router, fold) in routers.iter().zip(folds.iter_mut()) {
                    fold.add(&record(*router, snapshot, pair, &mut buf));
                }
            }
        }
    }
    for (&t, folds) in sample_times.iter().zip(&quality) {
        for ((q, delivery), hops) in folds.iter().zip(&mut delivery).zip(&mut hops) {
            if q.routes > 0 {
                delivery.push(t, q.delivery_ratio());
                if q.delivered > 0 {
                    hops.push(t, q.mean_hops());
                }
            }
        }
    }
    for s in delivery {
        delivery_fig.push_series(s);
    }
    for s in hops {
        hops_fig.push_series(s);
    }
    vec![delivery_fig, hops_fig]
}

/// A14: accuracy of the Algorithm-2 two-chain shape estimate against
/// the exact greedy-region bounding box (the §6 "more accurate
/// information" oracle): the fraction of (node, type) shapes that
/// coincide exactly, the mean area ratio, and the SLGF2 mean hops under
/// each information variant.
pub fn estimate_accuracy_figure(cfg: &SweepConfig, instances: usize) -> Figure {
    use sp_core::{SafetyMap, ShapeMap};
    use sp_geom::Quadrant;
    let mut fig = Figure::new(
        format!(
            "A14 shape-estimate accuracy ({} model)",
            cfg.deployment.name()
        ),
        "nodes",
        "fraction / ratio / hops",
    );
    let mut exact_frac = Series::new("exact-match fraction");
    let mut area_ratio = Series::new("area ratio (estimate/exact)");
    let mut hops_est = Series::new("SLGF2 hops (estimate)");
    let mut hops_exact = Series::new("SLGF2 hops (exact)");
    for (i, &n) in cfg.node_counts.iter().enumerate() {
        let dc = cfg.deployment_config(n);
        let mut fracs = Vec::new();
        let mut ratios = Vec::new();
        let mut he = Vec::new();
        let mut hx = Vec::new();
        for k in 0..instances {
            let seed = cfg.instance_seed(i, k);
            let positions = cfg.deployment.deploy(&dc, seed);
            let net = Network::from_positions(positions, dc.radius, dc.area);
            let safety = SafetyMap::label(&net);
            let est = ShapeMap::build(&net, &safety);
            let exact = ShapeMap::build_exact(&net, &safety);
            let mut total = 0usize;
            let mut equal = 0usize;
            for u in net.node_ids() {
                for q in Quadrant::ALL {
                    if let (Some(a), Some(b)) = (est.estimate(u, q), exact.estimate(u, q)) {
                        total += 1;
                        if a.rect == b.rect {
                            equal += 1;
                        } else if b.rect.area() > 0.0 {
                            ratios.push(a.rect.area() / b.rect.area());
                        }
                    }
                }
            }
            if total > 0 {
                fracs.push(equal as f64 / total as f64);
            }
            // Route a few pairs under each information variant.
            let info_est =
                SafetyInfo::from_parts(SafetyMap::label(&net), ShapeMap::build(&net, &safety));
            let info_exact = SafetyInfo::from_parts(
                SafetyMap::label(&net),
                ShapeMap::build_exact(&net, &safety),
            );
            let mut rng = StdRng::seed_from_u64(seed ^ 0xa14);
            let comp = net.largest_component();
            for _ in 0..4 {
                let Some((s, d)) = crate::random_pair(&comp, &mut rng) else {
                    continue;
                };
                let re = Slgf2Router::new(&info_est).route(&net, s, d);
                let rx = Slgf2Router::new(&info_exact).route(&net, s, d);
                if re.delivered() && rx.delivered() {
                    he.push(re.hops() as f64);
                    hx.push(rx.hops() as f64);
                }
            }
        }
        exact_frac.push(n as f64, sp_metrics::Summary::of(&fracs).mean);
        if !ratios.is_empty() {
            area_ratio.push(n as f64, sp_metrics::Summary::of(&ratios).mean);
        }
        hops_est.push(n as f64, sp_metrics::Summary::of(&he).mean);
        hops_exact.push(n as f64, sp_metrics::Summary::of(&hx).mean);
    }
    fig.push_series(exact_frac);
    fig.push_series(area_ratio);
    fig.push_series(hops_est);
    fig.push_series(hops_exact);
    fig
}

/// A10: synchronous vs asynchronous construction cost — transmissions
/// per node until quiescence under lock-step rounds and under
/// per-message random delays (the §3 "easily extended to an
/// asynchronous system" claim, priced).
pub fn async_cost_figure(cfg: &SweepConfig, instances: usize) -> Figure {
    let mut fig = Figure::new(
        format!(
            "A10 sync vs async construction cost ({} model)",
            cfg.deployment.name()
        ),
        "nodes",
        "transmissions/node",
    );
    let mut sync_series = Series::new("synchronous tx/node");
    let mut async_series = Series::new("asynchronous tx/node");
    for (i, &n) in cfg.node_counts.iter().enumerate() {
        let dc = cfg.deployment_config(n);
        let mut sync_tx = Vec::new();
        let mut async_tx = Vec::new();
        for k in 0..instances {
            let seed = cfg.instance_seed(i, k);
            let positions = cfg.deployment.deploy(&dc, seed);
            let net = Network::from_positions(positions, dc.radius, dc.area);
            let sync_run = construct_distributed(&net).expect("labeling quiesces"); // sp-analyze: allow(panic, Algorithm 2 quiesces on every finite deployment)
            sync_tx.push(sync_run.stats.transmissions() as f64 / net.len() as f64);
            let async_run = sp_core::construct_async(&net, seed).expect("async labeling quiesces"); // sp-analyze: allow(panic, Algorithm 2 quiesces on every finite deployment)
            async_tx.push(async_run.stats.transmissions() as f64 / net.len() as f64);
        }
        sync_series.push(n as f64, sp_metrics::Summary::of(&sync_tx).mean);
        async_series.push(n as f64, sp_metrics::Summary::of(&async_tx).mean);
    }
    fig.push_series(sync_series);
    fig.push_series(async_series);
    fig
}

/// A9: incremental repair cost of the safety information per node
/// failure, against the cost of a full rebuild modelled as a
/// synchronous Definition-1 sweep (every node recomputed once per
/// round). Each instance kills `kills` random non-hull nodes one at a
/// time.
pub fn maintenance_cost_figure(
    scenario: Scenario,
    node_counts: &[usize],
    instances: usize,
    kills: usize,
) -> Figure {
    let mut fig = Figure::new(
        format!(
            "A9 incremental repair vs rebuild ({} model)",
            scenario.name()
        ),
        "nodes",
        "node recomputations per failure",
    );
    let mut incremental = Series::new("incremental repair");
    let mut rebuild = Series::new("full rebuild");
    for (i, &n) in node_counts.iter().enumerate() {
        let dc = sp_net::deploy::DeploymentConfig::paper_default(n);
        let mut inc_work = Vec::new();
        let mut full_work = Vec::new();
        for k in 0..instances {
            let seed = 0xa9_0000 ^ ((i as u64) << 20) ^ k as u64;
            let positions = scenario.deploy(&dc, seed);
            let net = Network::from_positions(positions, dc.radius, dc.area);
            let mut snap = sp_core::ServiceSnapshot::build(net.clone());
            let mut rng = StdRng::seed_from_u64(seed ^ 0xfa11);
            let mut victims: Vec<sp_net::NodeId> = net.node_ids().collect();
            victims.shuffle(&mut rng);
            let mut kill = sp_net::TopologyDelta::default();
            for &v in victims.iter().take(kills) {
                kill.down = vec![v];
                let report;
                (snap, report) = snap.derive(&kill);
                inc_work.push(report.work_items as f64);
                // The textbook cost of a synchronous (Jacobi) rebuild:
                // every node once per round. The library's labeling
                // engine re-evaluates only neighbors of flipped nodes,
                // so this series is a model, not a measured count.
                let fresh = sp_core::SafetyMap::label(snap.network());
                full_work.push((net.len() * fresh.rounds().max(1)) as f64);
            }
        }
        incremental.push(n as f64, sp_metrics::Summary::of(&inc_work).mean);
        rebuild.push(n as f64, sp_metrics::Summary::of(&full_work).mean);
    }
    fig.push_series(incremental);
    fig.push_series(rebuild);
    fig
}

/// A1: distributed information-construction cost (rounds to quiesce and
/// broadcasts per node), sampled over a few instances per node count.
pub fn construction_cost_figure(cfg: &SweepConfig, instances: usize) -> Figure {
    let mut fig = Figure::new(
        format!(
            "A1 information construction cost ({} model)",
            cfg.deployment.name()
        ),
        "nodes",
        "rounds / broadcasts-per-node",
    );
    let mut rounds_series = Series::new("rounds");
    let mut bpn_series = Series::new("broadcasts/node");
    let mut labeling_rounds = Series::new("centralized rounds");
    for (i, &n) in cfg.node_counts.iter().enumerate() {
        let dc = cfg.deployment_config(n);
        let mut rounds = Vec::new();
        let mut bpn = Vec::new();
        let mut central = Vec::new();
        for k in 0..instances {
            let seed = cfg.instance_seed(i, k);
            let positions = cfg.deployment.deploy(&dc, seed);
            let net = Network::from_positions(positions, dc.radius, dc.area);
            let run = construct_distributed(&net).expect("labeling always quiesces"); // sp-analyze: allow(panic, Algorithm 2 quiesces on every finite deployment)
            rounds.push(run.stats.rounds as f64);
            bpn.push(run.stats.broadcasts as f64 / net.len() as f64);
            central.push(SafetyInfo::build(&net).rounds() as f64);
        }
        rounds_series.push(n as f64, sp_metrics::Summary::of(&rounds).mean);
        bpn_series.push(n as f64, sp_metrics::Summary::of(&bpn).mean);
        labeling_rounds.push(n as f64, sp_metrics::Summary::of(&central).mean);
    }
    fig.push_series(rounds_series);
    fig.push_series(bpn_series);
    fig.push_series(labeling_rounds);
    fig
}

/// A6: SLGF2 delivery ratio under node failures, with stale vs rebuilt
/// safety information, as a function of the failed fraction.
pub fn failure_robustness_figure(
    scenario: Scenario,
    node_count: usize,
    instances: usize,
    kill_fractions: &[f64],
) -> Figure {
    let mut fig = Figure::new(
        format!(
            "A6 SLGF2 delivery under node failures ({} model, n={node_count})",
            scenario.name()
        ),
        "failed fraction (%)",
        "delivery ratio",
    );
    let mut stale = Series::new("SLGF2 stale info");
    let mut fresh = Series::new("SLGF2 rebuilt info");
    let dc = sp_net::deploy::DeploymentConfig::paper_default(node_count);
    let mut buf = RouteBuffer::new();
    for &frac in kill_fractions {
        let mut stale_q = RouteQuality::default();
        let mut fresh_q = RouteQuality::default();
        for k in 0..instances {
            let seed = 0xa6_0000 + k as u64;
            let positions = scenario.deploy(&dc, seed);
            let net = Network::from_positions(positions, dc.radius, dc.area);
            let info = SafetyInfo::build(&net);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
            let Some((s, d)) = crate::random_pair(&net.largest_component(), &mut rng) else {
                continue;
            };
            // Kill random nodes other than s and d.
            let mut victims: Vec<sp_net::NodeId> =
                net.node_ids().filter(|&u| u != s && u != d).collect();
            victims.shuffle(&mut rng);
            victims.truncate((frac * node_count as f64).round() as usize);
            let degraded = net.without_nodes(&victims);
            if !degraded.connected(s, d) {
                continue; // topology (not routing) failure: skip
            }
            let rebuilt = SafetyInfo::build(&degraded);
            for (info, fold) in [(&info, &mut stale_q), (&rebuilt, &mut fresh_q)] {
                fold.add(&record(
                    &Slgf2Router::new(info),
                    &degraded,
                    (s, d),
                    &mut buf,
                ));
            }
        }
        if stale_q.routes > 0 {
            stale.push(frac * 100.0, stale_q.delivery_ratio());
            fresh.push(frac * 100.0, fresh_q.delivery_ratio());
        }
    }
    fig.push_series(stale);
    fig.push_series(fresh);
    fig
}

/// The six schemes of the A17 delivery-vs-chaos family: the paper's
/// four, the GFG planar baseline, and the SLGF2+face hybrid.
pub const CHAOS_FAMILY_SCHEMES: [Scheme; 6] = [
    Scheme::Gf,
    Scheme::Lgf,
    Scheme::Slgf,
    Scheme::Slgf2,
    Scheme::Gfg,
    Scheme::Slgf2Face,
];

/// A17: the delivery-vs-chaos figure family — one panel per built-in
/// chaos class, chaos intensity on x, per-scheme delivery ratio on y.
///
/// Each panel climbs an intensity ladder of `chaos=` spec strings
/// (radius of the regional outage, number of partition cuts, link drop
/// probability, flapped node count), deploys `instances` seeded
/// networks per rung, degrades each at the class's evaluation round,
/// and routes one random connected pair per scheme. Every ladder starts
/// at the same pristine x = 0 rung (the same seeds and pairs, no chaos),
/// which is routed once and shared by all panels. Flapping is
/// evaluated **mid-outage** (at the kill round, before the scheduled
/// rejoin); the other classes at the chaos observation round — so the
/// flap panel shows the transient hole and the region panel the
/// permanent one. Pairs whose endpoint the chaos killed count as
/// undelivered: under chaos, topology failures *are* service failures.
pub fn chaos_delivery_family(
    scenario: Scenario,
    node_count: usize,
    instances: usize,
    schemes: &[Scheme],
) -> Vec<Figure> {
    // (panel tag, x label, chaotic rungs as (x, chaos spec), evaluate
    // mid-outage)
    type Panel = (&'static str, &'static str, Vec<(f64, &'static str)>, bool);
    let panels: [Panel; 4] = [
        (
            "A17a delivery vs regional outage",
            "outage radius (% of area side)",
            vec![
                (5.0, "region:r=0.05@round1"),
                (10.0, "region:r=0.1@round1"),
                (20.0, "region:r=0.2@round1"),
                (30.0, "region:r=0.3@round1"),
            ],
            false,
        ),
        (
            "A17b delivery vs partition cuts",
            "active cuts",
            vec![
                (1.0, "partition"),
                (2.0, "partition+partition"),
                (3.0, "partition+partition+partition"),
            ],
            false,
        ),
        (
            "A17c delivery vs lossy links",
            "drop probability (%)",
            vec![
                (0.5, "drop:p=0.005"),
                (1.0, "drop:p=0.01"),
                (2.0, "drop:p=0.02"),
                (5.0, "drop:p=0.05"),
            ],
            false,
        ),
        (
            "A17d delivery vs flapping nodes (mid-outage)",
            "flapped nodes",
            vec![(4.0, "flap:n=4"), (8.0, "flap:n=8"), (16.0, "flap:n=16")],
            true,
        ),
    ];
    let dc = sp_net::deploy::DeploymentConfig::paper_default(node_count);
    let mut buf = RouteBuffer::new();
    // One rung: each scheme's quality over `instances` seeded networks,
    // degraded by `recipe` (none for the pristine rung).
    let mut rung = |recipe: Option<&ChaosRecipe>, mid_outage: bool| {
        let mut quality = vec![RouteQuality::default(); schemes.len()];
        for k in 0..instances {
            let seed = 0xa17_0000 + k as u64;
            let net = Network::from_positions(scenario.deploy(&dc, seed), dc.radius, dc.area);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a0);
            let Some((s, d)) = crate::random_pair(&net.largest_component(), &mut rng) else {
                continue;
            };
            let (degraded, drop_p, endpoint_dead) = match recipe {
                None => (net, 0.0, false),
                Some(recipe) => {
                    let plan = recipe.build(&net, seed);
                    let round = if mid_outage {
                        plan.kills().last().map_or(0, |e| e.0)
                    } else {
                        crate::runner::observation_round(&plan)
                    };
                    let dead = plan.dead_as_of(round);
                    let endpoint_dead = dead.contains(&s) || dead.contains(&d);
                    let degraded = net.derive(&plan.delta(&net, round)).0;
                    (degraded, plan.drop_p(), endpoint_dead)
                }
            };
            if endpoint_dead {
                // Every scheme attempted the pair and none can deliver:
                // the packet never leaves its source.
                let lost = RouteRecord {
                    src: s,
                    dst: d,
                    outcome: RouteOutcome::Stuck(s),
                    hops: 0,
                    length: 0.0,
                    perimeter_entries: 0,
                    backup_entries: 0,
                };
                for fold in &mut quality {
                    fold.add(&lost);
                }
                continue;
            }
            let prepared = PreparedNetwork::new(degraded);
            let ctx = prepared.ctx();
            let mut loss = LinkLoss::new(seed, drop_p);
            for (&scheme, fold) in schemes.iter().zip(&mut quality) {
                let trace = scheme.build(&ctx).route_into(&prepared.net, s, d, &mut buf);
                let mut route = RouteRecord::from_trace(&prepared.net, s, d, &trace);
                loss.strike(&mut route, trace.path);
                fold.add(&route);
            }
        }
        quality
    };
    let pristine = rung(None, false);
    panels
        .into_iter()
        .map(|(tag, x_label, ladder, mid_outage)| {
            let mut fig = Figure::new(
                format!("{tag} ({} model, n={node_count})", scenario.name()),
                x_label,
                "delivery ratio",
            );
            let mut series: Vec<Series> = schemes.iter().map(|s| Series::new(s.name())).collect();
            let mut push = |x: f64, quality: &[RouteQuality]| {
                for (series, q) in series.iter_mut().zip(quality) {
                    if q.routes > 0 {
                        series.push(x, q.delivery_ratio());
                    }
                }
            };
            push(0.0, &pristine);
            for (x, spec) in ladder {
                // sp-analyze: allow(panic, static spec strings validated by the chaos grammar tests)
                let recipe = ChaosRecipe::parse(spec).expect("A17 ladder specs are well-formed");
                push(x, &rung(Some(&recipe), mid_outage));
            }
            for s in series {
                fig.push_series(s);
            }
            fig
        })
        .collect()
}

/// The record of routing `src` to `dst` with `router` over `net`.
fn record(
    router: &(impl Routing + ?Sized),
    net: &Network,
    (src, dst): (NodeId, NodeId),
    buf: &mut RouteBuffer,
) -> RouteRecord {
    RouteRecord::from_trace(net, src, dst, &router.route_into(net, src, dst, buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_sweep;

    fn tiny() -> SweepResults {
        let cfg = SweepConfig {
            node_counts: vec![450, 550],
            networks_per_point: 3,
            pairs_per_network: 1,
            deployment: Scenario::Ia,
            base_seed: 99,
            chaos: None,
            mobility: None,
        };
        run_sweep(&cfg, &Scheme::PAPER_SET)
    }

    #[test]
    fn chaos_family_renders_every_panel_and_scheme() {
        let figs = chaos_delivery_family(Scenario::Ia, 300, 2, &CHAOS_FAMILY_SCHEMES);
        assert_eq!(figs.len(), 4, "one panel per built-in chaos class");
        for fig in &figs {
            assert_eq!(fig.series.len(), 6, "{}", fig.title);
            for s in &fig.series {
                assert!(!s.points.is_empty(), "{}: {} is empty", fig.title, s.label);
                // The rate-0 rung routes the pristine topology.
                assert_eq!(s.points[0].0, 0.0, "{}", fig.title);
                for &(_, y) in &s.points {
                    assert!((0.0..=1.0).contains(&y), "{}: ratio {y}", fig.title);
                }
            }
        }
        // Chaos only hurts: the heaviest regional outage delivers no
        // more than the pristine rung (every scheme, both endpoints
        // alive or the attempt already counts as lost).
        let region = &figs[0];
        for s in &region.series {
            let base = s.points[0].1;
            let worst = s.points.last().unwrap().1;
            assert!(worst <= base + 1e-9, "{}: {worst} > {base}", s.label);
        }
    }

    #[test]
    fn figures_have_four_series_and_both_points() {
        let res = tiny();
        for fig in [fig5(&res), fig6(&res), fig7(&res), delivery_figure(&res)] {
            assert_eq!(fig.series.len(), 4);
            assert_eq!(fig.x_values(), vec![450.0, 550.0]);
        }
        assert!(fig5(&res).title.contains("5(a)"));
        assert!(fig5(&res).title.contains("IA"));
    }

    #[test]
    fn max_is_at_least_mean() {
        let res = tiny();
        let f5 = fig5(&res);
        let f6 = fig6(&res);
        for (s5, s6) in f5.series.iter().zip(&f6.series) {
            for (&(x5, y5), &(x6, y6)) in s5.points.iter().zip(&s6.points) {
                assert_eq!(x5, x6);
                assert!(y5 >= y6, "max {y5} < mean {y6} for {}", s5.label);
            }
        }
    }

    #[test]
    fn construction_cost_runs() {
        let cfg = SweepConfig {
            node_counts: vec![400],
            networks_per_point: 1,
            pairs_per_network: 1,
            deployment: Scenario::Ia,
            base_seed: 5,
            chaos: None,
            mobility: None,
        };
        let fig = construction_cost_figure(&cfg, 1);
        assert_eq!(fig.series.len(), 3);
        let rounds = fig.series_by_label("rounds").unwrap().y_at(400.0).unwrap();
        assert!(rounds >= 1.0);
    }

    #[test]
    fn energy_and_interference_track_hops() {
        // More hops -> more transmissions -> more energy and a larger
        // overhearing set, so the scheme ordering must broadly agree
        // between fig6 and the A7 figures.
        let res = tiny();
        let f6 = fig6(&res);
        let fe = energy_figure(&res);
        let fi = interference_figure(&res);
        assert_eq!(fe.series.len(), 4);
        assert_eq!(fi.series.len(), 4);
        assert!(fe.title.contains("A7"));
        for (s6, se) in f6.series.iter().zip(&fe.series) {
            assert_eq!(s6.label, se.label);
            for (&(_, hops), &(_, uj)) in s6.points.iter().zip(&se.points) {
                // 1024-bit packet, >= 50 nJ/bit electronics on both ends:
                // energy strictly grows with hop count.
                assert!(uj > hops * 2.0 * 50.0 * 1024.0 / 1000.0 * 0.9);
            }
        }
        for s in &fi.series {
            for &(_, overhearers) in &s.points {
                assert!(overhearers > 0.0, "someone always overhears");
            }
        }
    }

    #[test]
    fn async_cost_exceeds_sync_cost() {
        let cfg = SweepConfig {
            node_counts: vec![400],
            networks_per_point: 1,
            pairs_per_network: 1,
            deployment: Scenario::Ia,
            base_seed: 11,
            chaos: None,
            mobility: None,
        };
        let fig = async_cost_figure(&cfg, 2);
        assert_eq!(fig.series.len(), 2);
        let sync_tx = fig
            .series_by_label("synchronous tx/node")
            .unwrap()
            .y_at(400.0)
            .unwrap();
        let async_tx = fig
            .series_by_label("asynchronous tx/node")
            .unwrap()
            .y_at(400.0)
            .unwrap();
        assert!(sync_tx >= 1.0, "everyone announces at least once");
        assert!(async_tx >= sync_tx, "async loses round batching");
    }

    #[test]
    fn maintenance_repair_is_cheaper_than_rebuild() {
        let fig = maintenance_cost_figure(Scenario::Ia, &[400], 2, 3);
        assert_eq!(fig.series.len(), 2);
        let inc = fig
            .series_by_label("incremental repair")
            .unwrap()
            .y_at(400.0)
            .unwrap();
        let full = fig
            .series_by_label("full rebuild")
            .unwrap()
            .y_at(400.0)
            .unwrap();
        assert!(
            inc < full / 10.0,
            "incremental ({inc:.1}) should be far below rebuild ({full:.1})"
        );
    }

    #[test]
    fn extended_set_includes_gfg_curve() {
        let cfg = SweepConfig {
            node_counts: vec![450],
            networks_per_point: 2,
            pairs_per_network: 1,
            deployment: Scenario::Ia,
            base_seed: 23,
            chaos: None,
            mobility: None,
        };
        let res = run_sweep(&cfg, &Scheme::EXTENDED_SET);
        let f6 = fig6(&res);
        assert_eq!(f6.series.len(), 5);
        let gfg = f6.series_by_label("GFG").expect("GFG curve present");
        assert!(gfg.y_at(450.0).unwrap() >= 1.0);
    }

    #[test]
    fn mobility_staleness_has_three_series_and_fresh_wins() {
        let figs = mobility_staleness_figure(350, 2, 3, &[0.0, 30.0], (1.0, 2.0));
        assert_eq!(figs.len(), 2);
        let fig = &figs[0];
        assert_eq!(fig.series.len(), 3);
        let stale = fig.series_by_label("SLGF2 stale info").unwrap();
        let fresh = fig.series_by_label("SLGF2 rebuilt info").unwrap();
        // At t=0 stale == fresh (same information).
        assert_eq!(stale.y_at(0.0), fresh.y_at(0.0));
        // Rebuilt information can never do worse than stale at any t.
        for (&(t, ys), &(_, yf)) in stale.points.iter().zip(&fresh.points) {
            assert!(yf >= ys - 1e-9, "fresh {yf} < stale {ys} at t={t}");
        }
        // The hops panel carries the same labels.
        assert!(figs[1].series_by_label("GFG (no info)").is_some());
        assert!(figs[1].title.contains("hops"));
    }

    #[test]
    fn failure_robustness_reports_both_series() {
        let fig = failure_robustness_figure(Scenario::Ia, 400, 2, &[0.0, 0.1]);
        assert_eq!(fig.series.len(), 2);
        // With 0% failures both are perfect on connected pairs.
        let stale0 = fig.series_by_label("SLGF2 stale info").unwrap().y_at(0.0);
        assert_eq!(stale0, Some(1.0));
    }
}
