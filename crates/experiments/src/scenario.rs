//! The deployment scenarios a sweep runs on.
//!
//! The paper evaluates two deployments — uniform (**IA**) and
//! forbidden-area (**FA**). [`Scenario`] adds the structured
//! clustered / corridor / city-block generators of [`sp_net::deploy`]
//! and weighted blends of them, written as spec text:
//!
//! ```
//! use sp_experiments::Scenario;
//! use sp_net::DeploymentConfig;
//!
//! let blend = Scenario::parse("IA:0.7+clustered:0.3").unwrap();
//! assert_eq!(blend.name(), "IA:0.7+clustered:0.3");
//! assert_eq!(blend, Scenario::parse("IA:0.7+clustered:0.3").unwrap());
//! assert_eq!(Scenario::parse("corridor"), Ok(Scenario::Corridor));
//! let cfg = DeploymentConfig::paper_default(400);
//! assert_eq!(blend.deploy(&cfg, 7).len(), 400);
//! ```

use crate::clause;
use sp_geom::Point;
use sp_net::deploy::{CityBlockModel, ClusterModel, CorridorModel, DeploymentConfig, FaModel};

/// A deployment scenario: one of the five generators, or a weighted
/// blend of them.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// IA: uniform ("ideal") deployment — holes only from sparsity.
    Ia,
    /// FA: uniform deployment avoiding random forbidden areas
    /// ([`FaModel::paper_default`]).
    Fa,
    /// Clustered drop-point deployment ([`ClusterModel::paper_default`]).
    Clustered,
    /// L-shaped corridor deployment ([`CorridorModel::paper_default`]).
    Corridor,
    /// Manhattan street grid ([`CityBlockModel::paper_default`]).
    CityBlock,
    /// A weighted blend of generators, made by [`Scenario::parse`].
    Blend(Blend),
}

/// What a [`Scenario::Blend`] deploys: each generator with its weight
/// (normalised to sum to one), in spec order, and the spec text it was
/// parsed from, which is its name.
#[derive(Debug, Clone, PartialEq)]
pub struct Blend {
    spec: String,
    parts: Vec<(Scenario, f64)>,
}

impl Scenario {
    /// The five generators, in the order errors list them.
    pub const ALL: [Scenario; 5] = [
        Scenario::Ia,
        Scenario::Fa,
        Scenario::Clustered,
        Scenario::Corridor,
        Scenario::CityBlock,
    ];

    /// The name specs and figure titles use; a blend's is its spec text.
    pub fn name(&self) -> &str {
        match self {
            Scenario::Ia => "IA",
            Scenario::Fa => "FA",
            Scenario::Clustered => "clustered",
            Scenario::Corridor => "corridor",
            Scenario::CityBlock => "city-block",
            Scenario::Blend(blend) => &blend.spec,
        }
    }

    /// The generator named `name`, if any.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Parses a generator name, or a weighted blend such as
    /// `IA:0.7+clustered:0.3`.
    ///
    /// A blend deploys each part's weighted share of the node count
    /// into the same area: weights are normalised, and shares are
    /// rounded so they sum exactly to the count.
    pub fn parse(value: &str) -> Result<Scenario, String> {
        if let Some(s) = Scenario::by_name(value) {
            return Ok(s);
        }
        let unknown = |name: &str| {
            clause::unknown("scenario", name, Scenario::ALL.iter().map(Scenario::name))
        };
        if !value.contains('+') {
            return Err(unknown(value));
        }
        let mut parts = Vec::new();
        for tok in value.split('+') {
            let tok = tok.trim();
            let (name, weight) = tok
                .split_once(':')
                .ok_or_else(|| format!("scenario blend {value:?}: {tok:?} is not name:weight"))?;
            let scenario = Scenario::by_name(name.trim()).ok_or_else(|| unknown(name))?;
            let weight: f64 = weight
                .trim()
                .parse()
                .ok()
                .filter(|w: &f64| w.is_finite() && *w > 0.0)
                .ok_or_else(|| {
                    format!("scenario blend {value:?}: weight {weight:?} is not a positive number")
                })?;
            parts.push((scenario, weight));
        }
        let total: f64 = parts.iter().map(|&(_, w)| w).sum();
        for (_, w) in &mut parts {
            *w /= total;
        }
        Ok(Scenario::Blend(Blend {
            spec: value.to_owned(),
            parts,
        }))
    }

    /// Generates one deployment instance.
    pub fn deploy(&self, cfg: &DeploymentConfig, seed: u64) -> Vec<Point> {
        match self {
            Scenario::Ia => cfg.deploy_uniform(seed),
            Scenario::Fa => {
                let obstacles = FaModel::paper_default().generate_obstacles(cfg, seed);
                cfg.deploy_with_obstacles(&obstacles, seed)
            }
            Scenario::Clustered => cfg.deploy_clustered(&ClusterModel::paper_default(), seed),
            Scenario::Corridor => cfg.deploy_corridor(&CorridorModel::paper_default(), seed),
            Scenario::CityBlock => cfg.deploy_city_block(&CityBlockModel::paper_default(), seed),
            Scenario::Blend(blend) => blend.deploy(cfg, seed),
        }
    }
}

impl Blend {
    /// Deploys every part's share, each from a seed salted by its
    /// position in the blend.
    fn deploy(&self, cfg: &DeploymentConfig, seed: u64) -> Vec<Point> {
        let n = cfg.node_count;
        let mut out = Vec::with_capacity(n);
        // Cumulative rounding: shares sum exactly to n, each within one
        // node of its weighted target.
        let (mut cum, mut taken) = (0.0f64, 0usize);
        for (i, (scenario, w)) in self.parts.iter().enumerate() {
            cum += w;
            let target = if i + 1 == self.parts.len() {
                n
            } else {
                (cum * n as f64).round() as usize
            };
            let share = target.saturating_sub(taken);
            taken = target.max(taken);
            if share == 0 {
                continue;
            }
            let sub = DeploymentConfig {
                node_count: share,
                ..*cfg
            };
            let salt = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            out.extend(scenario.deploy(&sub, seed ^ salt));
        }
        out
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_lookup_cover_every_scenario() {
        assert_eq!(Scenario::Ia.name(), "IA");
        assert_eq!(Scenario::Fa.name(), "FA");
        assert_eq!(Scenario::Clustered.name(), "clustered");
        assert_eq!(Scenario::Corridor.name(), "corridor");
        assert_eq!(Scenario::CityBlock.name(), "city-block");
        assert_eq!(Scenario::by_name("corridor"), Some(Scenario::Corridor));
        assert_eq!(Scenario::by_name("no-such-scenario"), None);
        assert_eq!(Scenario::ALL.len(), 5);
    }

    #[test]
    fn every_builtin_deploys_n_points_deterministically() {
        let cfg = DeploymentConfig::paper_default(300);
        for scenario in Scenario::ALL {
            let a = scenario.deploy(&cfg, 9);
            let b = scenario.deploy(&cfg, 9);
            assert_eq!(a.len(), 300, "{scenario}");
            assert_eq!(a, b, "{scenario} must replay per seed");
            for p in &a {
                assert!(cfg.area.contains(*p), "{scenario}: {p} escapes");
            }
        }
    }
}
