//! The parallel sweep runner.
//!
//! Fans network instances out over worker threads (the shared
//! [`sp_sync::WorkQueue`]) and routes every flow of an instance through
//! every scheme, in sweep order, with one reused [`RouteBuffer`]. Each
//! route becomes the same [`sp_core::RouteRecord`] a served query
//! answers with, plus the energy, interference and stretches only a
//! sweep measures ([`SweepRecord`]). Each point folds its records
//! through [`RouteQuality`], the fold behind a server's `STATS`, and
//! keeps the records of its delivered routes for the figures that
//! summarize more than counts.

use crate::{PreparedNetwork, Scheme, SweepConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sp_core::{RouteBuffer, RouteOutcome, RouteQuality, RouteRecord, Routing};
use sp_net::{interference_count, Network, NodeId, RadioModel};
use sp_sim::ChaosPlan;
use sp_sync::WorkQueue;

/// Packet size used for the A7 energy accounting, in bits. One short
/// sensor data frame; only the *relative* energy of the schemes matters.
pub const PACKET_BITS: f64 = 1024.0;

/// One routed flow of a sweep: the served record plus what only a
/// sweep measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRecord {
    /// The scheme that produced the route.
    pub scheme: Scheme,
    /// Node count of the instance (figure x value).
    pub node_count: usize,
    /// The route, recorded as a served query records it. A packet a
    /// lossy link dropped is [`RouteOutcome::Stuck`] at the node whose
    /// transmission was lost; its hops and length are still those of
    /// the route its scheme chose.
    pub route: RouteRecord,
    /// First-order radio energy of one [`PACKET_BITS`]-bit packet over
    /// the walked path, in microjoules (A7).
    pub energy_uj: f64,
    /// Nodes overhearing at least one transmission of the path (A7).
    pub interference: usize,
    /// Walked hops over the BFS-minimum hops for the pair (A11; ≥ 1 for
    /// delivered routes, 0 when undelivered).
    pub hop_stretch: f64,
    /// Walked length over the Dijkstra-shortest length — the "ideal
    /// routing path" of the paper's Fig. 1(a) (A11; 0 when
    /// undelivered).
    pub length_stretch: f64,
}

/// Aggregated per-(node count, scheme) statistics.
#[derive(Debug, Clone)]
pub struct SchemePoint {
    /// The scheme.
    pub scheme: Scheme,
    /// Every route of the point folded: routes, deliveries, delivered
    /// hops and phase entries, counted as a server's `STATS` counts
    /// them.
    pub quality: RouteQuality,
    /// The records of the delivered routes, in sweep order.
    pub delivered_routes: Vec<SweepRecord>,
}

/// One x-axis point of a sweep: all schemes at one node count.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Node count (x value).
    pub node_count: usize,
    /// Per-scheme aggregates, in the order the sweep was given.
    pub schemes: Vec<SchemePoint>,
}

impl SweepPoint {
    /// The aggregate for one scheme.
    pub fn scheme(&self, scheme: Scheme) -> Option<&SchemePoint> {
        self.schemes.iter().find(|s| s.scheme == scheme)
    }
}

/// A completed sweep.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// One entry per node count, ascending.
    pub points: Vec<SweepPoint>,
    /// The deployment scenario tag ("IA"/"FA"/"corridor"/…) for figure
    /// titles.
    pub deployment_tag: String,
}

/// Runs the sweep with `schemes` on every instance, in parallel.
///
/// Source/destination pairs are drawn uniformly from the largest
/// connected component (the paper routes between random nodes; sampling
/// connected pairs keeps "hops of delivered routes" well-defined while
/// delivery failures of the *routing* — not of the topology — still
/// show up in the A2 delivery-ratio ablation).
pub fn run_sweep(cfg: &SweepConfig, schemes: &[Scheme]) -> SweepResults {
    let mut jobs: Vec<(usize, usize, u64)> = Vec::new(); // (point idx, n, seed)
    for (i, &n) in cfg.node_counts.iter().enumerate() {
        for k in 0..cfg.networks_per_point {
            jobs.push((i, n, cfg.instance_seed(i, k)));
        }
    }

    let records = run_jobs(cfg, schemes, &jobs);

    let mut points: Vec<SweepPoint> = cfg
        .node_counts
        .iter()
        .map(|&n| SweepPoint {
            node_count: n,
            schemes: schemes
                .iter()
                .map(|&scheme| SchemePoint {
                    scheme,
                    quality: RouteQuality::default(),
                    delivered_routes: Vec::new(),
                })
                .collect(),
        })
        .collect();
    for (point_idx, recs) in records {
        for r in recs {
            let sp = points[point_idx]
                .schemes
                .iter_mut()
                .find(|s| s.scheme == r.scheme)
                .expect("record scheme was in the sweep set"); // sp-analyze: allow(panic, records are produced only from the schemes this sweep was given)
            sp.quality.add(&r.route);
            if r.route.delivered() {
                sp.delivered_routes.push(r);
            }
        }
    }
    SweepResults {
        points,
        deployment_tag: cfg.deployment.name().to_owned(),
    }
}

/// Executes the instance jobs across [`sp_sync::default_threads`]
/// worker threads.
///
/// Workers pull jobs off the shared [`sp_sync::WorkQueue`] cursor, so
/// load balances dynamically even when instance sizes differ widely;
/// results come back in job order regardless of worker count.
fn run_jobs(
    cfg: &SweepConfig,
    schemes: &[Scheme],
    jobs: &[(usize, usize, u64)],
) -> Vec<(usize, Vec<SweepRecord>)> {
    let workers = sp_sync::default_threads().min(jobs.len().max(1));
    WorkQueue::new().run(workers, jobs.len(), |i| {
        let (point_idx, n, seed) = jobs[i];
        (point_idx, run_instance(cfg, schemes, n, seed))
    })
}

/// Generates one network instance and routes every scheme over the same
/// source/destination flows.
///
/// The `pairs_per_network` flows are drawn up front; then each flow
/// routes through every scheme in turn, all through one reused
/// [`RouteBuffer`], so records come out flow-major: all schemes for
/// flow 0, then flow 1, …
///
/// When the config carries a [`crate::MobilityRecipe`] the deployed
/// positions are perturbed before the network is built; when it carries
/// a [`crate::ChaosRecipe`] the instance is **degraded at the chaos
/// observation round** (every scheduled outage struck, active partition
/// cuts severed) before routing, and each delivered route then survives
/// a per-hop lossy-link draw at the plan's drop probability. With both
/// fields `None` this function is bit-identical to the pristine runner.
pub fn run_instance(
    cfg: &SweepConfig,
    schemes: &[Scheme],
    node_count: usize,
    seed: u64,
) -> Vec<SweepRecord> {
    let dc = cfg.deployment_config(node_count);
    let mut positions = cfg.deployment.deploy(&dc, seed);
    if let Some(mobility) = &cfg.mobility {
        positions = mobility.perturb(&positions, &dc, seed);
    }
    let mut net = Network::from_positions(positions, dc.radius, dc.area);
    let mut drop_p = 0.0;
    if let Some(recipe) = &cfg.chaos {
        let plan = recipe.build(&net, seed);
        net = net.derive(&plan.delta(&net, observation_round(&plan))).0;
        drop_p = plan.drop_p();
    }
    let prepared = PreparedNetwork::new(net);
    let net = &prepared.net;
    let ctx = prepared.ctx();
    // Build each scheme's router once per instance, out of the
    // per-packet loop.
    let routers: Vec<_> = schemes.iter().map(|s| s.build(&ctx)).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a1c_5eed);
    let comp = net.largest_component();
    let flows: Vec<(NodeId, NodeId)> = (0..cfg.pairs_per_network)
        .filter_map(|_| random_pair(&comp, &mut rng))
        .collect();
    let radio = RadioModel::first_order();
    let mut loss = LinkLoss::new(seed, drop_p);
    let mut buf = RouteBuffer::with_capacity(net.len());
    let mut out = Vec::with_capacity(schemes.len() * flows.len());
    for &(src, dst) in &flows {
        // References for the stretch metrics: the BFS hop minimum and
        // the Dijkstra "ideal routing path" of Fig. 1(a).
        let min_hops = net.bfs_hops(src)[dst.index()].map(f64::from);
        let ideal_len = net.shortest_path(src, dst).map(|(_, len)| len);
        for (&scheme, router) in schemes.iter().zip(&routers) {
            let trace = router.route_into(net, src, dst, &mut buf);
            let mut route = RouteRecord::from_trace(net, src, dst, &trace);
            loss.strike(&mut route, trace.path);
            out.push(SweepRecord {
                scheme,
                node_count,
                route,
                energy_uj: radio.path_energy(net, trace.path, PACKET_BITS) / 1000.0,
                interference: interference_count(net, trace.path),
                hop_stretch: stretch(&route, route.hops as f64, min_hops),
                length_stretch: stretch(&route, route.length, ideal_len),
            });
        }
    }
    out
}

/// `walked` over `optimal` for a delivered `route`; 0 when the route
/// was not delivered or the optimum is unknown or zero.
fn stretch(route: &RouteRecord, walked: f64, optimal: Option<f64>) -> f64 {
    match optimal {
        Some(optimal) if route.delivered() && optimal > 0.0 => walked / optimal,
        _ => 0.0,
    }
}

/// Lossy links: each transmission of a delivered route is lost with a
/// plan's drop probability, drawn hop by hop on a stream of its own
/// salted from the instance seed. The stream is seeded only when the
/// probability is positive, so a rate-0 plan draws nothing and routes
/// bit-identically to no plan at all. The sweep, the A17 family and the
/// lifetime workload all draw through [`LinkLoss::lost_hop`].
pub(crate) struct LinkLoss(Option<(StdRng, f64)>);

impl LinkLoss {
    /// The loss stream of instance `seed` at drop probability `p`.
    pub(crate) fn new(seed: u64, p: f64) -> LinkLoss {
        LinkLoss((p > 0.0).then(|| (StdRng::seed_from_u64(seed ^ 0xd20b_5eed), p)))
    }

    /// The first of a route's `hops` transmissions whose link loses the
    /// packet. Draws stop at the first loss.
    pub(crate) fn lost_hop(&mut self, hops: usize) -> Option<usize> {
        let (drops, p) = self.0.as_mut()?;
        (0..hops).find(|_| drops.random_bool(*p))
    }

    /// Sends a delivered `route` over the links of `path`: a lost
    /// transmission leaves the packet stuck at its sender. An
    /// undelivered route draws nothing.
    pub(crate) fn strike(&mut self, route: &mut RouteRecord, path: &[NodeId]) {
        if !route.delivered() {
            return;
        }
        if let Some(hop) = self.lost_hop(route.hops) {
            route.outcome = RouteOutcome::Stuck(path[hop]);
        }
    }
}

/// A [`ChaosPlan`]'s **observation round**: the latest round any
/// scheduled kill, revival, or partition window opens. A sweep instance
/// degraded there routes on the topology as the survivors see it —
/// every outage struck, flapped nodes in their final state, and links
/// crossing any cut still active at that round severed.
pub(crate) fn observation_round(plan: &ChaosPlan) -> usize {
    let cuts_open = plan.cuts().iter().map(|c| c.from_round).max();
    plan.last_round().max(cuts_open).unwrap_or(0)
}

/// Draws a random distinct pair from `comp`, normally a network's
/// largest connected component, which the caller computes once per
/// network rather than once per draw. `None` when `comp` holds fewer
/// than two nodes; then nothing is drawn.
///
/// The destination is drawn from the `len - 1` indices other than the
/// source and shifted past it — uniform over distinct pairs and
/// terminating by construction, where the old rejection loop re-drew
/// `d` until it differed from `s` (unbounded on an unlucky RNG streak,
/// and forever on a degenerate one-value stream).
pub fn random_pair(comp: &[NodeId], rng: &mut StdRng) -> Option<(NodeId, NodeId)> {
    if comp.len() < 2 {
        return None;
    }
    let s_idx = rng.random_range(0..comp.len());
    let mut d_idx = rng.random_range(0..comp.len() - 1);
    if d_idx >= s_idx {
        d_idx += 1;
    }
    Some((comp[s_idx], comp[d_idx]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    fn tiny_sweep(scenario: Scenario) -> SweepConfig {
        SweepConfig {
            node_counts: vec![400, 500],
            networks_per_point: 3,
            pairs_per_network: 1,
            deployment: scenario,
            base_seed: 7,
            chaos: None,
            mobility: None,
        }
    }

    #[test]
    fn sweep_collects_all_points_and_schemes() {
        let cfg = tiny_sweep(Scenario::Ia);
        let res = run_sweep(&cfg, &Scheme::PAPER_SET);
        assert_eq!(res.points.len(), 2);
        assert_eq!(res.deployment_tag, "IA");
        for p in &res.points {
            assert_eq!(p.schemes.len(), 4);
            for sp in &p.schemes {
                assert_eq!(sp.quality.routes, 3, "{}", sp.scheme);
                assert!(sp.quality.delivery_ratio() > 0.0, "{}", sp.scheme);
            }
            assert!(p.scheme(Scheme::Slgf2).is_some());
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = tiny_sweep(Scenario::Fa);
        let a = run_sweep(&cfg, &[Scheme::Slgf2]);
        let b = run_sweep(&cfg, &[Scheme::Slgf2]);
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(
                pa.schemes[0].delivered_routes,
                pb.schemes[0].delivered_routes
            );
            assert_eq!(pa.schemes[0].quality, pb.schemes[0].quality);
        }
    }

    #[test]
    fn rate_zero_chaos_is_bit_identical_to_no_chaos() {
        let plain = tiny_sweep(Scenario::Ia);
        let mut quiet = plain.clone();
        // A parsed recipe whose plan schedules nothing and drops nothing:
        // the sweep must not be able to tell it apart from `chaos=None`.
        quiet.chaos = Some(crate::ChaosRecipe::parse("drop:p=0").unwrap());
        let seed = plain.instance_seed(0, 0);
        let a = run_instance(&plain, &Scheme::PAPER_SET, 400, seed);
        let b = run_instance(&quiet, &Scheme::PAPER_SET, 400, seed);
        assert_eq!(a, b);
    }

    #[test]
    fn lossy_links_at_probability_one_deliver_nothing() {
        let mut cfg = tiny_sweep(Scenario::Ia);
        cfg.chaos = Some(crate::ChaosRecipe::parse("drop:p=1").unwrap());
        let recs = run_instance(&cfg, &Scheme::PAPER_SET, 400, cfg.instance_seed(0, 0));
        assert!(!recs.is_empty());
        assert!(recs.iter().all(|r| !r.route.delivered()));
    }

    #[test]
    fn chaos_sweeps_are_deterministic_and_degrade_delivery() {
        let mut cfg = tiny_sweep(Scenario::Ia);
        cfg.chaos = Some(crate::ChaosRecipe::parse("region:r=0.3@round1+drop:p=0.05").unwrap());
        let a = run_sweep(&cfg, &[Scheme::Gf]);
        let b = run_sweep(&cfg, &[Scheme::Gf]);
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.schemes[0].quality, pb.schemes[0].quality);
            assert_eq!(
                pa.schemes[0].delivered_routes,
                pb.schemes[0].delivered_routes
            );
        }
        let pristine = run_sweep(&tiny_sweep(Scenario::Ia), &[Scheme::Gf]);
        let chaotic: u64 = a
            .points
            .iter()
            .map(|p| p.schemes[0].quality.delivered)
            .sum();
        let clean: u64 = pristine
            .points
            .iter()
            .map(|p| p.schemes[0].quality.delivered)
            .sum();
        assert!(
            chaotic <= clean,
            "a regional outage plus lossy links must not improve delivery ({chaotic} > {clean})"
        );
    }

    #[test]
    fn mobility_moves_the_instance_deterministically() {
        let mut cfg = tiny_sweep(Scenario::Ia);
        cfg.mobility = Some(crate::MobilityRecipe::parse("waypoint:speed=2,ticks=5").unwrap());
        let seed = cfg.instance_seed(0, 0);
        let moved = run_instance(&cfg, &[Scheme::Slgf2], 400, seed);
        assert_eq!(moved, run_instance(&cfg, &[Scheme::Slgf2], 400, seed));
        let still = run_instance(&tiny_sweep(Scenario::Ia), &[Scheme::Slgf2], 400, seed);
        assert_ne!(moved, still, "five ticks of waypoint motion reroutes");
    }

    #[test]
    fn sweep_fold_equals_the_traffic_engine_fold() {
        let mut cfg = tiny_sweep(Scenario::Fa);
        cfg.node_counts = vec![400];
        cfg.networks_per_point = 1;
        cfg.pairs_per_network = 60;
        let seed = cfg.instance_seed(0, 0);
        let swept = run_sweep(&cfg, &[Scheme::Slgf2]).points[0].schemes[0]
            .quality
            .clone();
        let recs = run_instance(&cfg, &[Scheme::Slgf2], 400, seed);
        let flows: Vec<_> = recs.iter().map(|r| (r.route.src, r.route.dst)).collect();
        let dc = cfg.deployment_config(400);
        let prepared = PreparedNetwork::new(Network::from_positions(
            cfg.deployment.deploy(&dc, seed),
            dc.radius,
            dc.area,
        ));
        let router = Scheme::Slgf2.build(&prepared.ctx());
        let served = sp_core::TrafficEngine::new(&prepared.net).run(router.as_ref(), &flows);
        assert_eq!(swept, served.quality);
        let routes: Vec<RouteRecord> = recs.iter().map(|r| r.route).collect();
        assert_eq!(routes, served.records);
        assert_eq!(swept.routes, 60);
        assert!(
            swept.backup_entries > 0,
            "the fold covers SLGF2's backup phase"
        );
    }

    #[test]
    fn delivered_routes_have_sane_metrics() {
        let cfg = tiny_sweep(Scenario::Ia);
        let recs = run_instance(&cfg, &Scheme::PAPER_SET, 400, cfg.instance_seed(0, 0));
        assert_eq!(recs.len(), 4);
        for r in recs {
            let r = r.route;
            if r.delivered() {
                assert!(r.hops >= 1);
                assert!(r.length > 0.0);
                // A hop never exceeds the radio range.
                assert!(r.length <= (r.hops as f64) * 20.0 + 1e-9);
            }
        }
    }
}
