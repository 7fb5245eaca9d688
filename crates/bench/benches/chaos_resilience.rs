//! Chaos resilience: what failure injection costs the stack, in the
//! three currencies the chaos engine exists to measure.
//!
//! * **Delivery** — `chaos_delivery`: a streaming lifetime workload
//!   (`run_lifetime_with_chaos`) under the [`CHAOS_SPEC`] recipe vs
//!   the identical clean run. Reports the chaotic `delivery_ratio`
//!   (delivered / attempted) next to the clean one, plus the wall
//!   median for both runs.
//! * **Re-stabilization** — `chaos_construction`: the distributed
//!   construction engine (`construct_with`) with the recipe's
//!   strikes landing mid-protocol. `restabilize_rounds` is the extra
//!   rounds the chaotic run needs to quiesce beyond the clean
//!   construction on the same network; `chaos_extra_messages` the
//!   extra transmissions.
//! * **Recovery** — `chaos_recovery`: the incremental maintenance
//!   path absorbing a correlated regional outage and the subsequent
//!   rejoin, one `ServiceSnapshot::derive` per victim's failure and
//!   then per victim's revival. `messages_per_recovery` is the
//!   labeling engine's node evaluations per failure
//!   (`RepairReport::work_items`, the failed node's own evaluation
//!   included).
//!
//! Medians (`*_seconds`) are gated by `ci/bench_gate` against the
//! committed BENCH_chaos.json; the ratio/round/message keys are
//! informational.
//!
//! Run with: `cargo bench -p sp-bench --bench chaos_resilience`

use sp_bench::{sample_stats, write_artifact, MEDIAN_UNIT};
use sp_core::{construct_with, ServiceSnapshot};
use sp_experiments::{run_lifetime, run_lifetime_with_chaos, ChaosRecipe, Scheme, StreamingConfig};
use sp_net::edge_nodes::edge_node_mask;
use sp_net::{deploy::DeploymentConfig, Network, TopologyDelta};
use sp_sim::ChaosPlan;

const NODES: usize = 1_000;
const RUNS: usize = 5;
const SEED: u64 = 0xc4a0;

/// The injected recipe: a correlated regional outage at round 5 on
/// top of 1% lossy links. Every row embeds it as its `spec` key.
const CHAOS_SPEC: &str = "region:r=0.15@round5+drop:p=0.01";

/// [`CHAOS_SPEC`] built over `net`.
fn chaos_plan(net: &Network) -> ChaosPlan {
    ChaosRecipe::parse(CHAOS_SPEC)
        // sp-analyze: allow(panic, a bench whose fixed recipe stops parsing must fail loudly)
        .expect("CHAOS_SPEC parses")
        .build(net, SEED)
}

fn bench_net() -> Network {
    let cfg = DeploymentConfig::paper_density(NODES);
    Network::from_positions(cfg.deploy_uniform(SEED), cfg.radius, cfg.area)
}

/// Row 1: streaming delivery under chaos vs the identical clean run.
fn delivery_row(net: &Network) -> String {
    let plan = chaos_plan(net);
    let cfg = StreamingConfig::default_for_lifetime();
    let (mut clean, mut chaotic) = (None, None);
    let clean_wall = sample_stats(RUNS, || {
        clean = Some(run_lifetime(net, Scheme::Slgf2, &cfg, SEED));
    });
    let wall = sample_stats(RUNS, || {
        let run = run_lifetime_with_chaos(net, Scheme::Slgf2, &cfg, &plan, SEED);
        chaotic = Some(run);
    });
    // sp-analyze: allow(panic, RUNS >= 1 so each timed closure stored its value)
    let (clean, chaotic) = (clean.expect("RUNS >= 1"), chaotic.expect("RUNS >= 1"));
    let ratio = |r: &sp_experiments::LifetimeReport| {
        let attempted = r.packets_delivered + r.packets_lost;
        if attempted == 0 {
            0.0
        } else {
            r.packets_delivered as f64 / attempted as f64
        }
    };
    assert!(
        ratio(&chaotic) <= ratio(&clean) + 1e-9,
        "chaos must not improve delivery"
    );
    format!(
        "    {{\"case\": \"chaos_delivery\", \"scheme\": \"SLGF2\", \"nodes\": {NODES}, \"runs\": {RUNS}, \"spec\": \"{CHAOS_SPEC}\", \"delivery_ratio\": {:.4}, \"clean_delivery_ratio\": {:.4}, \"rounds\": {}, {}, {}}}",
        ratio(&chaotic),
        ratio(&clean),
        chaotic.rounds,
        wall.json_fields("run"),
        clean_wall.json_fields("clean_run"),
    )
}

/// Row 2: distributed construction with mid-protocol strikes.
fn construction_row(net: &Network) -> String {
    let plan = chaos_plan(net);
    let pinned = edge_node_mask(net, net.radius());
    let threads = sp_sync::default_threads();
    let (mut clean, mut chaotic) = (None, None);
    let clean_wall = sample_stats(RUNS, || {
        let run = construct_with(net, pinned.clone(), ChaosPlan::new(), threads);
        // sp-analyze: allow(panic, a bench cannot proceed past a failed construction)
        clean = Some(run.expect("clean construction"));
    });
    let wall = sample_stats(RUNS, || {
        let run = construct_with(net, pinned.clone(), plan.clone(), threads);
        // sp-analyze: allow(panic, a bench cannot proceed past a failed construction)
        chaotic = Some(run.expect("chaotic construction"));
    });
    // sp-analyze: allow(panic, RUNS >= 1 so each timed closure stored its value)
    let (clean, chaotic) = (clean.expect("RUNS >= 1"), chaotic.expect("RUNS >= 1"));
    assert!(chaotic.stats.quiesced, "chaotic construction must quiesce");
    let extra_rounds = chaotic.stats.rounds.saturating_sub(clean.stats.rounds);
    let extra_msgs = chaotic
        .stats
        .transmissions()
        .saturating_sub(clean.stats.transmissions());
    format!(
        "    {{\"case\": \"chaos_construction\", \"nodes\": {NODES}, \"runs\": {RUNS}, \"spec\": \"{CHAOS_SPEC}\", \"restabilize_rounds\": {extra_rounds}, \"chaos_extra_messages\": {extra_msgs}, {}, {}}}",
        wall.json_fields("run"),
        clean_wall.json_fields("clean_run"),
    )
}

/// Row 3: incremental maintenance absorbing a regional outage + rejoin.
fn recovery_row(net: &Network) -> String {
    let victims: Vec<_> = ChaosRecipe::parse("region:r=0.15@round1")
        // sp-analyze: allow(panic, static spec validated by the chaos grammar tests)
        .expect("static region spec")
        .build(net, SEED)
        .kills()
        .iter()
        .flat_map(|(_, vs)| vs.iter().copied())
        .collect();
    assert!(!victims.is_empty(), "the outage region must hit someone");
    let mut work = 0;
    let wall = sample_stats(RUNS, || {
        // Each victim fails, then each comes back, one derive apiece.
        let mut snap = ServiceSnapshot::build(net.clone());
        let mut delta = TopologyDelta::default();
        work = 0;
        for &v in &victims {
            delta.down = vec![v];
            let report;
            (snap, report) = snap.derive(&delta);
            work += report.work_items;
        }
        delta.down.clear();
        for &v in &victims {
            delta.up = vec![v];
            snap = snap.derive(&delta).0;
        }
    });
    format!(
        "    {{\"case\": \"chaos_recovery\", \"nodes\": {NODES}, \"runs\": {RUNS}, \"victims\": {}, \"messages_per_recovery\": {:.1}, {}}}",
        victims.len(),
        work as f64 / victims.len() as f64,
        wall.json_fields("run"),
    )
}

fn main() {
    let net = bench_net();
    let rows = [
        delivery_row(&net),
        construction_row(&net),
        recovery_row(&net),
    ];
    write_artifact("BENCH_chaos.json", "chaos_resilience", MEDIAN_UNIT, &rows);
}
