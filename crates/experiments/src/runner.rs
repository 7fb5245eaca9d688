//! The parallel sweep runner.
//!
//! Fans network instances out over worker threads (the shared
//! [`sp_sync::WorkQueue`]), routes every scheme's flow batch through
//! a [`TrafficEngine`] session on every instance, and folds the
//! per-instance records into per-point statistics. Scheme display
//! names resolve **once per sweep** ([`Scheme::display_names`]) and are
//! stamped onto the aggregates, so nothing in the hot loop touches the
//! registry.

use crate::{PreparedNetwork, Scheme, SweepConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sp_core::TrafficEngine;
use sp_metrics::Summary;
use sp_net::{interference_count, Network, NodeId, RadioModel};
use sp_sim::ChaosPlan;
use sp_sync::WorkQueue;
use std::sync::Arc;

/// Packet size used for the A7 energy accounting, in bits. One short
/// sensor data frame; only the *relative* energy of the schemes matters.
pub const PACKET_BITS: f64 = 1024.0;

/// Everything recorded for one (instance, scheme) routing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteRecord {
    /// The scheme that produced the route.
    pub scheme: Scheme,
    /// Node count of the instance (figure x value).
    pub node_count: usize,
    /// Whether the packet reached the destination.
    pub delivered: bool,
    /// Hops walked (only meaningful for delivered packets).
    pub hops: usize,
    /// Euclidean path length walked.
    pub length: f64,
    /// Perimeter-phase entries.
    pub perimeter_entries: usize,
    /// Backup-phase entries (SLGF2 family).
    pub backup_entries: usize,
    /// First-order radio energy of one [`PACKET_BITS`]-bit packet over
    /// the walked path, in microjoules (A7).
    pub energy_uj: f64,
    /// Nodes overhearing at least one transmission of the path (A7).
    pub interference: usize,
    /// Walked hops over the BFS-minimum hops for the pair (A11; ≥ 1 for
    /// delivered routes, 0 when undelivered).
    pub hop_stretch: f64,
    /// Walked length over the Dijkstra-shortest length — the "ideal
    /// routing path" of the paper's Fig. 1(a) (A11).
    pub length_stretch: f64,
}

/// Aggregated per-(node count, scheme) statistics.
#[derive(Debug, Clone)]
pub struct SchemePoint {
    /// The scheme.
    pub scheme: Scheme,
    /// The scheme's display name, resolved once when the sweep started
    /// (shared across points; figure assembly reads it lock-free).
    pub scheme_name: Arc<str>,
    /// Hop counts of delivered routes.
    pub hops: Vec<f64>,
    /// Path lengths of delivered routes.
    pub lengths: Vec<f64>,
    /// Perimeter entries of all routes.
    pub perimeter_entries: Vec<f64>,
    /// Backup entries of all routes.
    pub backup_entries: Vec<f64>,
    /// Packet energies (µJ) of delivered routes (A7).
    pub energies: Vec<f64>,
    /// Interference set sizes of delivered routes (A7).
    pub interference: Vec<f64>,
    /// Hop stretches of delivered routes (A11).
    pub hop_stretches: Vec<f64>,
    /// Length stretches of delivered routes (A11).
    pub length_stretches: Vec<f64>,
    /// Delivered / total routes.
    pub delivered: usize,
    /// Total routes attempted.
    pub total: usize,
}

impl SchemePoint {
    fn new(scheme: Scheme, scheme_name: Arc<str>) -> SchemePoint {
        SchemePoint {
            scheme,
            scheme_name,
            hops: Vec::new(),
            lengths: Vec::new(),
            perimeter_entries: Vec::new(),
            backup_entries: Vec::new(),
            energies: Vec::new(),
            interference: Vec::new(),
            hop_stretches: Vec::new(),
            length_stretches: Vec::new(),
            delivered: 0,
            total: 0,
        }
    }

    fn add(&mut self, r: &RouteRecord) {
        self.total += 1;
        self.perimeter_entries.push(r.perimeter_entries as f64);
        self.backup_entries.push(r.backup_entries as f64);
        if r.delivered {
            self.delivered += 1;
            self.hops.push(r.hops as f64);
            self.lengths.push(r.length);
            self.energies.push(r.energy_uj);
            self.interference.push(r.interference as f64);
            self.hop_stretches.push(r.hop_stretch);
            self.length_stretches.push(r.length_stretch);
        }
    }

    /// Delivery ratio in `[0, 1]`.
    pub fn delivery_ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.delivered as f64 / self.total as f64
        }
    }

    /// Summary of delivered hop counts.
    pub fn hops_summary(&self) -> Summary {
        Summary::of(&self.hops)
    }

    /// Summary of delivered path lengths.
    pub fn length_summary(&self) -> Summary {
        Summary::of(&self.lengths)
    }

    /// Mean perimeter entries per route.
    pub fn mean_perimeter_entries(&self) -> f64 {
        Summary::of(&self.perimeter_entries).mean
    }

    /// Mean backup entries per route.
    pub fn mean_backup_entries(&self) -> f64 {
        Summary::of(&self.backup_entries).mean
    }

    /// Summary of delivered packet energies (µJ).
    pub fn energy_summary(&self) -> Summary {
        Summary::of(&self.energies)
    }

    /// Summary of delivered interference set sizes.
    pub fn interference_summary(&self) -> Summary {
        Summary::of(&self.interference)
    }

    /// Summary of delivered hop stretches (walked / BFS-minimum).
    pub fn hop_stretch_summary(&self) -> Summary {
        Summary::of(&self.hop_stretches)
    }

    /// Summary of delivered length stretches (walked / Dijkstra).
    pub fn length_stretch_summary(&self) -> Summary {
        Summary::of(&self.length_stretches)
    }
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

    // One registry read for the whole sweep: every point shares the
    // resolved names instead of cloning a String per lookup.
    let names = Scheme::display_names(schemes);
    let mut points: Vec<SweepPoint> = cfg
        .node_counts
        .iter()
        .map(|&n| SweepPoint {
            node_count: n,
            schemes: schemes
                .iter()
                .zip(&names)
                .map(|(&s, name)| SchemePoint::new(s, Arc::clone(name)))
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
            sp.add(&r);
        }
    }
    SweepResults {
        points,
        deployment_tag: cfg.deployment.tag(),
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
) -> Vec<(usize, Vec<RouteRecord>)> {
    let workers = sp_sync::default_threads().min(jobs.len().max(1));
    WorkQueue::new().run(workers, jobs.len(), |i| {
        let (point_idx, n, seed) = jobs[i];
        (point_idx, run_instance(cfg, schemes, n, seed))
    })
}

/// Generates one network instance and routes every scheme over the same
/// source/destination flows.
///
/// The flow batch (`flows=` when set, otherwise `pairs=` many flows) is
/// drawn up front, then each scheme routes the whole batch through a
/// [`TrafficEngine`] — reused per-worker route buffers, metrics folded
/// off the borrowed traces, no per-packet allocation. Records keep the
/// historical flow-major order: all schemes for flow 0, then flow 1, …
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
) -> Vec<RouteRecord> {
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
    let ctx = prepared.ctx();
    // Resolve each scheme's router once per instance — the registry
    // lookup (a read lock) and router construction stay out of the
    // per-packet loop.
    let routers: Vec<_> = schemes.iter().map(|s| s.build(&ctx)).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a1c_5eed);
    let flow_target = cfg.flow_count();
    let mut flows = Vec::with_capacity(flow_target);
    for _ in 0..flow_target {
        if let Some(pair) = random_connected_pair(&prepared.net, &mut rng) {
            flows.push(pair);
        }
    }
    // References for the stretch metrics, one per flow: BFS hop minimum
    // and the Dijkstra "ideal routing path" of Fig. 1(a).
    let refs: Vec<(Option<f64>, Option<f64>)> = flows
        .iter()
        .map(|&(s, d)| {
            (
                prepared.net.bfs_hops(s)[d.index()].map(f64::from),
                prepared.net.shortest_path(s, d).map(|(_, len)| len),
            )
        })
        .collect();
    let radio = RadioModel::first_order();
    // One engine worker: the sweep is already instance-parallel
    // (run_jobs saturates the host), so nesting threads here would
    // only oversubscribe. Direct batched callers wanting in-batch
    // parallelism drive `TrafficEngine` themselves.
    let engine = TrafficEngine::new(&prepared.net).with_threads(1);
    let mut per_scheme = Vec::with_capacity(schemes.len());
    for (&scheme, router) in schemes.iter().zip(&routers) {
        per_scheme.push(engine.run_map(router.as_ref(), &flows, |i, _, r| {
            let delivered = r.delivered();
            let (min_hops, ideal_len) = refs[i];
            let hop_stretch = match (delivered, min_hops) {
                (true, Some(m)) if m > 0.0 => r.hops() as f64 / m,
                _ => 0.0,
            };
            let length = r.length(&prepared.net);
            let length_stretch = match (delivered, ideal_len) {
                (true, Some(l)) if l > 0.0 => length / l,
                _ => 0.0,
            };
            RouteRecord {
                scheme,
                node_count,
                delivered,
                hops: r.hops(),
                length,
                perimeter_entries: r.perimeter_entries,
                backup_entries: r.backup_entries,
                energy_uj: radio.path_energy(&prepared.net, r.path, PACKET_BITS) / 1000.0,
                interference: interference_count(&prepared.net, r.path),
                hop_stretch,
                length_stretch,
            }
        }));
    }
    // Interleave back to flow-major order — the shape downstream
    // consumers (and the seed tests) have always read.
    let mut out = Vec::with_capacity(schemes.len() * flows.len());
    for i in 0..flows.len() {
        for recs in &per_scheme {
            out.push(recs[i]);
        }
    }
    if drop_p > 0.0 {
        // Lossy links: a delivered route survives only if every hop
        // beats an independent drop draw. The RNG is created only on
        // this branch (its own salted stream) so `chaos=None` sweeps
        // never construct it — the rate-0 bit-identity guarantee.
        let mut drops = StdRng::seed_from_u64(seed ^ 0xd20b_5eed);
        for r in &mut out {
            if r.delivered {
                let lost = (0..r.hops).any(|_| drops.random_bool(drop_p));
                if lost {
                    r.delivered = false;
                }
            }
        }
    }
    out
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

/// Draws a random distinct pair from the largest connected component.
///
/// The destination is drawn from the `len - 1` indices other than the
/// source and shifted past it — uniform over distinct pairs and
/// terminating by construction, where the old rejection loop re-drew
/// `d` until it differed from `s` (unbounded on an unlucky RNG streak,
/// and forever on a degenerate one-value stream).
pub fn random_connected_pair(net: &Network, rng: &mut StdRng) -> Option<(NodeId, NodeId)> {
    let comp = net.largest_component();
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
            flows_per_network: 0,
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
                assert_eq!(sp.total, 3, "{}", sp.scheme);
                assert!(sp.delivery_ratio() > 0.0, "{}", sp.scheme);
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
            assert_eq!(pa.schemes[0].hops, pb.schemes[0].hops);
            assert_eq!(pa.schemes[0].delivered, pb.schemes[0].delivered);
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
        assert!(recs.iter().all(|r| !r.delivered));
    }

    #[test]
    fn chaos_sweeps_are_deterministic_and_degrade_delivery() {
        let mut cfg = tiny_sweep(Scenario::Ia);
        cfg.chaos = Some(crate::ChaosRecipe::parse("region:r=0.3@round1+drop:p=0.05").unwrap());
        let a = run_sweep(&cfg, &[Scheme::Gf]);
        let b = run_sweep(&cfg, &[Scheme::Gf]);
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.schemes[0].delivered, pb.schemes[0].delivered);
            assert_eq!(pa.schemes[0].hops, pb.schemes[0].hops);
        }
        let pristine = run_sweep(&tiny_sweep(Scenario::Ia), &[Scheme::Gf]);
        let chaotic: usize = a.points.iter().map(|p| p.schemes[0].delivered).sum();
        let clean: usize = pristine.points.iter().map(|p| p.schemes[0].delivered).sum();
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
    fn delivered_routes_have_sane_metrics() {
        let cfg = tiny_sweep(Scenario::Ia);
        let recs = run_instance(&cfg, &Scheme::PAPER_SET, 400, cfg.instance_seed(0, 0));
        assert_eq!(recs.len(), 4);
        for r in recs {
            if r.delivered {
                assert!(r.hops >= 1);
                assert!(r.length > 0.0);
                // A hop never exceeds the radio range.
                assert!(r.length <= (r.hops as f64) * 20.0 + 1e-9);
            }
        }
    }
}
