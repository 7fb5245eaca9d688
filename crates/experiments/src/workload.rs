//! Streaming workloads and the network-lifetime experiment (A15).
//!
//! The paper motivates straightforward paths with "recent WASN
//! applications that require a streaming service to deliver large
//! amount of data" and cites \[11\] on lifetime and energy holes. This
//! module closes the loop: fixed source/destination flows stream
//! packets under one routing scheme, every hop debits the
//! [`EnergyLedger`], depleted nodes drop out of the topology (and the
//! safety information is repaired incrementally: each failure is one
//! [`ServiceSnapshot::derive`]), until the network can no longer carry
//! a flow. The packets delivered until then are the scheme's
//! *lifetime*.

use crate::runner::LinkLoss;
use crate::{RouterContext, Scheme};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sp_baselines::{GfRouter, GfgRouter};
use sp_core::{RouteBuffer, Routing, ServiceSnapshot};
use sp_metrics::{Figure, Series};
use sp_net::{radio::EnergyLedger, Network, RadioModel, TopologyDelta};
use sp_sim::ChaosPlan;

/// Configuration of one streaming-lifetime run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingConfig {
    /// Number of concurrent flows (random distinct connected pairs).
    pub flows: usize,
    /// Packet size in bits.
    pub packet_bits: f64,
    /// Initial per-node energy in nJ.
    pub node_energy_nj: f64,
    /// Upper bound on streamed rounds (defensive stop).
    pub max_rounds: usize,
}

impl StreamingConfig {
    /// A workload that depletes a 500-node network in a few thousand
    /// packets: 4 flows, 1024-bit packets, 20 mJ per node.
    pub fn default_for_lifetime() -> StreamingConfig {
        StreamingConfig {
            flows: 4,
            packet_bits: 1024.0,
            node_energy_nj: 2.0e7,
            max_rounds: 100_000,
        }
    }
}

/// Outcome of one lifetime run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeReport {
    /// Packets delivered before the run ended.
    pub packets_delivered: usize,
    /// Packets that failed to route (undelivered attempts).
    pub packets_lost: usize,
    /// Streamed rounds until the first flow became unroutable.
    pub rounds: usize,
    /// Nodes depleted when the run ended.
    pub nodes_depleted: usize,
    /// Fraction of total initial energy spent at the end.
    pub energy_spent: f64,
}

/// Streams `cfg.flows` flows under `scheme` until a flow endpoint dies,
/// a flow is physically severed (undelivered with the endpoints in
/// different components), or `cfg.max_rounds` is reached.
///
/// Every round sends one packet per flow. Routing runs session-style:
/// the scheme's router is built **once per topology epoch** (not per
/// packet) and every packet routes through
/// one reused [`RouteBuffer`], so the steady-state loop allocates
/// nothing. Depleted nodes are removed from the ghost topology and —
/// for the information-based schemes — the safety labeling is repaired
/// incrementally, mirroring how a real deployment would run Algorithm
/// 2's failure handling.
pub fn run_lifetime(
    net: &Network,
    scheme: Scheme,
    cfg: &StreamingConfig,
    seed: u64,
) -> LifetimeReport {
    run_lifetime_with_chaos(net, scheme, cfg, &ChaosPlan::new(), seed)
}

/// [`run_lifetime`] under an injected [`ChaosPlan`].
///
/// Chaos rounds are streaming rounds: kills and revivals due at round
/// `r` strike at the top of round `r` (one derive of the ghost
/// snapshot, so a flapped relay rejoins the ghost topology), partition
/// cuts sever crossing links for exactly their window (the routed view
/// opens the active cuts' chords on the ghost topology, whose labels
/// stay those of the uncut ghost), and each delivered packet then
/// survives independent per-hop
/// lossy-link draws at the plan's drop probability — a dropped packet
/// still charges the ledger for the hops it walked. A chaos kill of a
/// flow endpoint ends the run like a depletion death would: the
/// streaming service is interrupted either way.
///
/// A quiet plan draws no chaos randomness and schedules nothing, so
/// this function is bit-identical to [`run_lifetime`] at chaos rate 0.
pub fn run_lifetime_with_chaos(
    net: &Network,
    scheme: Scheme,
    cfg: &StreamingConfig,
    chaos: &ChaosPlan,
    seed: u64,
) -> LifetimeReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11fe);
    let comp = net.largest_component();
    let mut flows = Vec::with_capacity(cfg.flows);
    while flows.len() < cfg.flows && comp.len() >= 2 {
        let s = comp[rng.random_range(0..comp.len())];
        let d = comp[rng.random_range(0..comp.len())];
        if s != d && !flows.contains(&(s, d)) {
            flows.push((s, d));
        }
    }

    let mut loss = LinkLoss::new(chaos.seed(), chaos.drop_p());

    // The ghost: the deployment with every failed node down, and its
    // safety information, derived failure by failure.
    let mut ghost = ServiceSnapshot::build(net.clone());
    // The failures and revivals the next epoch applies to the ghost.
    let mut strike = TopologyDelta::default();
    let mut ledger = EnergyLedger::new(net.len(), cfg.node_energy_nj, RadioModel::first_order());
    let mut report = LifetimeReport {
        packets_delivered: 0,
        packets_lost: 0,
        rounds: 0,
        nodes_depleted: 0,
        energy_spent: 0.0,
    };

    // One packet buffer for the whole run; `round`/`flow_idx` carry the
    // streaming position across topology epochs so a node death mid-
    // round resumes at the very next flow, exactly like the old
    // rebuild-in-place loop did.
    let mut buf = RouteBuffer::with_capacity(net.len());
    let mut round = 0usize;
    let mut flow_idx = 0usize;
    // Whether the round counter should advance when `flow_idx` wraps —
    // false right after a chaos strike forced a new epoch at the top of
    // a round, so the freshly built epoch streams that same round.
    let mut advance_round = true;
    if flows.is_empty() {
        report.rounds = cfg.max_rounds;
    } else {
        'epochs: loop {
            // Routing structures for the current topology epoch: the
            // degraded snapshot, the incrementally-repaired safety
            // information, the rebuilt recovery structures, and — once,
            // not per packet — the scheme's router.
            // Sever the links crossing every partition cut active this
            // round; the epoch is rebuilt when the active set changes.
            if strike != TopologyDelta::default() {
                ghost = ghost.derive(&std::mem::take(&mut strike)).0;
            }
            let open_cuts = TopologyDelta {
                opened: chaos.chords_at(round),
                ..TopologyDelta::default()
            };
            let topo = ghost.network().derive(&open_cuts).0;
            let info = ghost.info();
            let gf = GfRouter::new(&topo);
            let gfg = GfgRouter::new(&topo);
            let ctx = RouterContext {
                net: &topo,
                info,
                gf: &gf,
                gfg: &gfg,
            };
            let router = scheme.build(&ctx);
            loop {
                if flow_idx == 0 {
                    if advance_round {
                        if round == cfg.max_rounds {
                            break 'epochs;
                        }
                        round += 1;
                        report.rounds = round;
                        // Chaos strikes at the top of the round: node
                        // events repair the ghost, a cut window opening
                        // or closing re-derives the routed view.
                        let kills = chaos.kills_due_at(round);
                        let revivals = chaos.revivals_due_at(round);
                        if !kills.is_empty() || !revivals.is_empty() {
                            strike.down = kills.to_vec();
                            strike.up = revivals.to_vec();
                            advance_round = false;
                            continue 'epochs;
                        }
                        if chaos.chords_at(round) != topo.chords() {
                            advance_round = false;
                            continue 'epochs;
                        }
                    }
                    advance_round = true;
                }
                let (s, d) = flows[flow_idx];
                if ghost.network().is_down(s) || ghost.network().is_down(d) {
                    break 'epochs; // a flow endpoint died: end of lifetime
                }
                flow_idx = (flow_idx + 1) % flows.len();
                let route = router.route_into(&topo, s, d, &mut buf);
                if !route.delivered() {
                    report.packets_lost += 1;
                    if !topo.connected(s, d) {
                        // A pair severed only by an active cut window is
                        // a transient partition — the flow resumes when
                        // the window closes. The run ends only when the
                        // ghost topology itself is severed.
                        if ghost.network().connected(s, d) {
                            continue;
                        }
                        break 'epochs; // flow physically severed
                    }
                    continue;
                }
                // Lossy links: the packet dies on the first hop that
                // loses its draw, charging only the hops it walked.
                let charged_path = match loss.lost_hop(route.hops()) {
                    Some(h) => {
                        report.packets_lost += 1;
                        &route.path[..h + 2]
                    }
                    None => {
                        report.packets_delivered += 1;
                        route.path
                    }
                };
                let newly_dead = ledger.charge_path(&topo, charged_path, cfg.packet_bits);
                if !newly_dead.is_empty() {
                    strike.down = newly_dead;
                    continue 'epochs; // topology changed: new epoch
                }
            }
        }
    }
    report.nodes_depleted = ledger.depleted().len();
    report.energy_spent = ledger.spent_fraction();
    report
}

/// A15: network lifetime per scheme — packets streamed until the first
/// flow dies, averaged over seeded instances.
pub fn lifetime_figure(
    node_count: usize,
    instances: usize,
    schemes: &[Scheme],
    cfg: &StreamingConfig,
) -> Figure {
    let mut fig = Figure::new(
        format!(
            "A15 streaming lifetime (IA model, n={node_count}, {} flows)",
            cfg.flows
        ),
        "instance-mean",
        "packets delivered",
    );
    let dc = sp_net::deploy::DeploymentConfig::paper_default(node_count);
    for &scheme in schemes {
        let mut series = Series::new(scheme.name());
        let mut total = Vec::new();
        for k in 0..instances {
            let seed = 0xa_1500 + k as u64;
            let net = Network::from_positions(dc.deploy_uniform(seed), dc.radius, dc.area);
            let report = run_lifetime(&net, scheme, cfg, seed);
            total.push(report.packets_delivered as f64);
        }
        series.push(node_count as f64, sp_metrics::Summary::of(&total).mean);
        fig.push_series(series);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_net::DeploymentConfig;

    fn small_cfg() -> StreamingConfig {
        StreamingConfig {
            flows: 2,
            packet_bits: 1024.0,
            // A tight budget so the run ends quickly: ~15 packets of
            // relaying per node.
            node_energy_nj: 1.6e6,
            max_rounds: 10_000,
        }
    }

    #[test]
    fn lifetime_run_terminates_and_accounts() {
        let dc = DeploymentConfig::paper_default(300);
        let net = Network::from_positions(dc.deploy_uniform(2), dc.radius, dc.area);
        let report = run_lifetime(&net, Scheme::Slgf2, &small_cfg(), 2);
        assert!(report.rounds > 0);
        assert!(report.packets_delivered > 0, "{report:?}");
        assert!(report.energy_spent > 0.0 && report.energy_spent <= 1.0);
        // The run ended for a reason: someone died or rounds ran out.
        assert!(
            report.nodes_depleted > 0 || report.rounds == 10_000,
            "{report:?}"
        );
    }

    #[test]
    fn lifetime_is_seed_deterministic() {
        let dc = DeploymentConfig::paper_default(250);
        let net = Network::from_positions(dc.deploy_uniform(3), dc.radius, dc.area);
        let a = run_lifetime(&net, Scheme::Gfg, &small_cfg(), 7);
        let b = run_lifetime(&net, Scheme::Gfg, &small_cfg(), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn generous_budget_hits_round_cap_without_deaths() {
        let dc = DeploymentConfig::paper_default(200);
        let net = Network::from_positions(dc.deploy_uniform(5), dc.radius, dc.area);
        let cfg = StreamingConfig {
            flows: 1,
            packet_bits: 16.0,
            node_energy_nj: 1.0e12,
            max_rounds: 50,
        };
        let report = run_lifetime(&net, Scheme::Slgf2, &cfg, 5);
        assert_eq!(report.rounds, 50);
        assert_eq!(report.nodes_depleted, 0);
        assert_eq!(report.packets_delivered + report.packets_lost, 50);
    }

    #[test]
    fn quiet_chaos_lifetime_is_bit_identical() {
        let dc = DeploymentConfig::paper_default(250);
        let net = Network::from_positions(dc.deploy_uniform(6), dc.radius, dc.area);
        let plain = run_lifetime(&net, Scheme::Slgf2, &small_cfg(), 9);
        let quiet = ChaosPlan::new().with_seed(123);
        let chaotic = run_lifetime_with_chaos(&net, Scheme::Slgf2, &small_cfg(), &quiet, 9);
        assert_eq!(plain, chaotic);
    }

    #[test]
    fn lossy_lifetime_at_probability_one_delivers_nothing() {
        let dc = DeploymentConfig::paper_default(250);
        let net = Network::from_positions(dc.deploy_uniform(6), dc.radius, dc.area);
        let cfg = StreamingConfig {
            flows: 1,
            packet_bits: 16.0,
            node_energy_nj: 1.0e12,
            max_rounds: 20,
        };
        let plan = ChaosPlan::new().with_seed(1).with_drop(1.0);
        let report = run_lifetime_with_chaos(&net, Scheme::Slgf2, &cfg, &plan, 6);
        assert_eq!(report.packets_delivered, 0);
        assert_eq!(report.packets_lost, 20, "every round's packet drops");
        assert!(report.energy_spent > 0.0, "dropped hops still cost energy");
    }

    #[test]
    fn chaos_kill_of_a_flow_endpoint_ends_the_lifetime() {
        let dc = DeploymentConfig::paper_default(250);
        let net = Network::from_positions(dc.deploy_uniform(7), dc.radius, dc.area);
        let cfg = StreamingConfig {
            flows: 1,
            packet_bits: 16.0,
            node_energy_nj: 1.0e12,
            max_rounds: 50,
        };
        // Replay the flow draw to learn the source endpoint.
        let mut rng = StdRng::seed_from_u64(11 ^ 0x11fe);
        let comp = net.largest_component();
        let (s, _d) = loop {
            let s = comp[rng.random_range(0..comp.len())];
            let d = comp[rng.random_range(0..comp.len())];
            if s != d {
                break (s, d);
            }
        };
        let mut plan = ChaosPlan::new().with_seed(2);
        plan.kill_at(3, s);
        let report = run_lifetime_with_chaos(&net, Scheme::Slgf2, &cfg, &plan, 11);
        assert_eq!(report.rounds, 3, "the outage interrupts the stream");
        assert_eq!(report.packets_delivered, 2);
        // The same plan with a revival before the strike round is moot —
        // but a flapped *relay* keeps the run alive to the cap.
        let relay = comp
            .iter()
            .copied()
            .find(|&v| v != s && v != _d)
            .expect("250 nodes has a non-endpoint");
        let mut flap = ChaosPlan::new().with_seed(3);
        flap.kill_at(2, relay);
        flap.revive_at(5, relay);
        let flapped = run_lifetime_with_chaos(&net, Scheme::Slgf2, &cfg, &flap, 11);
        assert_eq!(flapped.rounds, 50, "a flapped relay does not end the run");
        assert_eq!(
            flapped,
            run_lifetime_with_chaos(&net, Scheme::Slgf2, &cfg, &flap, 11),
            "chaos lifetimes replay per seed"
        );
    }

    #[test]
    fn partition_window_suppresses_delivery_while_open() {
        // A net spanning the area, cut vertically through the middle
        // for rounds 2..=4: flows crossing the cut lose those rounds.
        let dc = DeploymentConfig::paper_default(300);
        let net = Network::from_positions(dc.deploy_uniform(8), dc.radius, dc.area);
        let cfg = StreamingConfig {
            flows: 2,
            packet_bits: 16.0,
            node_energy_nj: 1.0e12,
            max_rounds: 12,
        };
        let mut plan = ChaosPlan::new().with_seed(4);
        plan.add_cut(sp_sim::CutWindow {
            a: sp_geom::Point::new(100.0, -10.0),
            b: sp_geom::Point::new(100.0, 210.0),
            from_round: 2,
            until_round: 5,
        });
        let cut = run_lifetime_with_chaos(&net, Scheme::Slgf2, &cfg, &plan, 13);
        let clean = run_lifetime(&net, Scheme::Slgf2, &cfg, 13);
        assert!(
            cut.packets_delivered <= clean.packets_delivered,
            "severing links must not improve delivery ({} > {})",
            cut.packets_delivered,
            clean.packets_delivered
        );
        assert_eq!(cut.rounds, 12, "the window closes and streaming resumes");
    }

    #[test]
    fn lifetime_figure_has_one_series_per_scheme() {
        let fig = lifetime_figure(250, 1, &[Scheme::Slgf2, Scheme::Gfg], &small_cfg());
        assert_eq!(fig.series.len(), 2);
        for s in &fig.series {
            assert!(s.points[0].1 > 0.0, "{}: no packets delivered", s.label);
        }
    }
}
