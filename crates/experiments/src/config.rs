//! Sweep configurations reproducing the paper's experimental setup (§5).
//!
//! > "nodes with a transmission radius of 20 meters are deployed to cover
//! > an interest area of 200m × 200m … we test the networks when the
//! > number of nodes in the interest area is varied from 400 to 800 in
//! > increments of 50. For each case, 100 networks are randomly
//! > generated, and the average routing performance over all of these
//! > randomly sampled networks is reported."
//!
//! The deployment model of a sweep is a [`Scenario`]: the paper's IA
//! and FA, or the clustered, corridor and city-block generators and
//! their blends, which sweep identically.

use crate::{ChaosRecipe, MobilityRecipe, Scenario};
use sp_net::deploy::DeploymentConfig;

/// A full figure sweep: node counts × seeded network instances.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// The x axis: node counts to test.
    pub node_counts: Vec<usize>,
    /// Random networks generated per node count.
    pub networks_per_point: usize,
    /// Random source/destination pairs routed per network, each
    /// through every scheme (the `pairs=` or `flows=` spec clause): `1`
    /// is the paper's per-pair setup, more make a batched workload.
    pub pairs_per_network: usize,
    /// Deployment scenario.
    pub deployment: Scenario,
    /// Base seed; instance seeds derive deterministically from it.
    pub base_seed: u64,
    /// Chaos recipe applied to every instance (the `chaos=` spec
    /// clause): failures strike before routing, so delivery degrades
    /// under the recipe's outages/partitions/drops. `None` routes the
    /// pristine topology.
    pub chaos: Option<ChaosRecipe>,
    /// Mobility recipe perturbing every deployed instance before
    /// routing (the `mobility=` spec clause). Composes with `chaos`:
    /// motion first, failures strike the moved topology.
    pub mobility: Option<MobilityRecipe>,
}

impl SweepConfig {
    /// The paper's IA sweep: 400..=800 step 50, 100 networks per point.
    pub fn paper_ia() -> SweepConfig {
        SweepConfig {
            node_counts: (400..=800).step_by(50).collect(),
            networks_per_point: 100,
            pairs_per_network: 1,
            deployment: Scenario::Ia,
            base_seed: 0x5eed_0001,
            chaos: None,
            mobility: None,
        }
    }

    /// A reduced sweep for tests and smoke benchmarks: three node
    /// counts, a handful of networks.
    pub fn quick(deployment: Scenario) -> SweepConfig {
        SweepConfig {
            node_counts: vec![400, 600, 800],
            networks_per_point: 8,
            pairs_per_network: 1,
            deployment,
            base_seed: 0x5eed_0002,
            chaos: None,
            mobility: None,
        }
    }

    /// The deployment constants for one node count (the paper's area
    /// and radius).
    pub fn deployment_config(&self, node_count: usize) -> DeploymentConfig {
        DeploymentConfig::paper_default(node_count)
    }

    /// The deterministic seed of instance `k` at node count index `i`.
    pub fn instance_seed(&self, i: usize, k: usize) -> u64 {
        self.base_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((i as u64) << 32)
            .wrapping_add(k as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sweeps_match_section5() {
        let ia = SweepConfig::paper_ia();
        assert_eq!(
            ia.node_counts,
            vec![400, 450, 500, 550, 600, 650, 700, 750, 800]
        );
        assert_eq!(ia.networks_per_point, 100);
        assert_eq!(ia.deployment.name(), "IA");
        let cfg = ia.deployment_config(500);
        assert_eq!(cfg.radius, 20.0);
        assert_eq!(cfg.area.width(), 200.0);
    }

    #[test]
    fn instance_seeds_are_distinct_and_deterministic() {
        let cfg = SweepConfig::paper_ia();
        let a = cfg.instance_seed(0, 0);
        let b = cfg.instance_seed(0, 1);
        let c = cfg.instance_seed(1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, cfg.instance_seed(0, 0));
    }

    #[test]
    fn deploy_scenarios_generate_right_counts() {
        let sweep = SweepConfig::quick(Scenario::Fa);
        let cfg = sweep.deployment_config(400);
        let pts = sweep.deployment.deploy(&cfg, 3);
        assert_eq!(pts.len(), 400);
    }
}
