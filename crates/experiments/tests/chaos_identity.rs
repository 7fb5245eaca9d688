//! Chaos property suite.
//!
//! Two guarantees the chaos engine must keep forever:
//!
//! 1. **Rate-0 bit-identity** — a chaos recipe that schedules nothing
//!    and drops nothing is indistinguishable from no recipe at all, for
//!    every scheme and for the construction engine, at any
//!    seed (the spot checks per engine live next to each engine; the
//!    property test here fuzzes the seeds).
//! 2. **Per-class determinism** — every built-in chaos class replays
//!    bit-identically at a fixed seed regardless of worker thread
//!    count.

use proptest::prelude::*;
use sp_core::construct_with;
use sp_experiments::{run_instance, ChaosRecipe, Scenario, Scheme, SweepConfig};
use sp_net::deploy::DeploymentConfig;
use sp_net::edge_nodes::edge_node_mask;
use sp_net::Network;

fn one_instance_cfg() -> SweepConfig {
    let mut cfg = SweepConfig::quick(Scenario::Ia);
    cfg.node_counts = vec![400];
    cfg.networks_per_point = 1;
    cfg
}

#[test]
fn rate_zero_is_bit_identical_for_every_scheme() {
    let schemes = Scheme::ALL;
    let plain = one_instance_cfg();
    let mut quiet = plain.clone();
    quiet.chaos = Some(ChaosRecipe::parse("drop:p=0").unwrap());
    let seed = plain.instance_seed(0, 0);
    let a = run_instance(&plain, &schemes, 400, seed);
    let b = run_instance(&quiet, &schemes, 400, seed);
    assert_eq!(a, b, "a quiet recipe must not perturb any scheme");
    assert!(a.len() >= schemes.len(), "every scheme routed the flow");
}

#[test]
fn every_chaos_class_is_deterministic_across_thread_counts() {
    let dc = DeploymentConfig::paper_default(250);
    let net = Network::from_positions(dc.deploy_uniform(5), dc.radius, dc.area);
    let pinned = edge_node_mask(&net, net.radius());
    for spec in [
        "region:r=0.2@round2",
        "partition:len=6@round1",
        "drop:p=0.3",
        "flap:n=3,down=4@round2",
    ] {
        let plan = ChaosRecipe::parse(spec).unwrap().build(&net, 0xfeed);
        let runs: Vec<_> = [1usize, 2, 3, 8]
            .iter()
            .map(|&t| {
                construct_with(&net, pinned.clone(), plan.clone(), t)
                    .unwrap_or_else(|e| panic!("{spec} at {t} threads: {e}"))
            })
            .collect();
        for (i, run) in runs.iter().enumerate().skip(1) {
            assert_eq!(runs[0].stats, run.stats, "{spec}: threads=1 vs run {i}");
            for u in net.node_ids() {
                assert_eq!(
                    runs[0].info.tuple(u),
                    run.info.tuple(u),
                    "{spec}: tuple at {u} differs from threads=1"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Rate-0 identity holds for arbitrary instance and plan seeds.
    #[test]
    fn quiet_recipes_never_perturb_routing(seed in 0u64..100_000) {
        let mut plain = one_instance_cfg();
        plain.node_counts = vec![200];
        plain.base_seed = seed;
        let mut quiet = plain.clone();
        quiet.chaos = Some(ChaosRecipe::parse("drop:p=0").unwrap());
        let k = plain.instance_seed(0, 0);
        prop_assert_eq!(
            run_instance(&plain, &[Scheme::Slgf2, Scheme::Gf], 200, k),
            run_instance(&quiet, &[Scheme::Slgf2, Scheme::Gf], 200, k)
        );
    }
}
