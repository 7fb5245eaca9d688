//! The `mobility=` recipe grammar.
//!
//! A mobility recipe perturbs a deployed position set before the sweep
//! routes over it, so `mobility=` and `chaos=` compose from one spec
//! string. The one model is the random-waypoint process of
//! [`sp_net::RandomWaypoint`]:
//!
//! | model      | spec clause                          | keys (default, range) | effect |
//! |------------|--------------------------------------|-----------------------|--------|
//! | `waypoint` | `waypoint:speed=2,ticks=10,pause=1`  | `speed` (2, > 0), `ticks` (10, [0, 10⁶]), `pause` (0, ≥ 0) | steps a random-waypoint process `ticks` unit-time steps at speeds in `[speed/2, speed]` with the given pause |
//!
//! ```
//! use sp_experiments::MobilityRecipe;
//! use sp_net::DeploymentConfig;
//!
//! let recipe = MobilityRecipe::parse("waypoint:speed=2,ticks=5").unwrap();
//! let cfg = DeploymentConfig::paper_default(200);
//! let start = cfg.deploy_uniform(3);
//! let moved = recipe.perturb(&start, &cfg, 3);
//! assert_eq!(moved.len(), start.len());
//! assert_ne!(moved, start, "five ticks at speed 2 moves somebody");
//! assert_eq!(moved, recipe.perturb(&start, &cfg, 3), "replayable");
//! ```

use crate::clause::{self, ParamSpec, MAX_STEPS};
use sp_geom::Point;
use sp_net::deploy::DeploymentConfig;
use sp_net::RandomWaypoint;

/// Salt folded into mobility seeds so motion streams never collide
/// with deployment, flow, or chaos streams.
const MOBILITY_SEED_SALT: u64 = 0x0b11_e5ee_d000;

/// The random-waypoint model's name and declared keys.
const WAYPOINT: &str = "waypoint";
const WAYPOINT_PARAMS: &[ParamSpec] = &[
    ParamSpec::new("speed", 2.0, f64::MIN_POSITIVE, f64::INFINITY),
    ParamSpec::new("ticks", 10.0, 0.0, MAX_STEPS as f64),
    ParamSpec::new("pause", 0.0, 0.0, f64::INFINITY),
];

/// One parsed `waypoint[:k=v,…]` mobility recipe — a single model,
/// unlike chaos recipes, because motions do not compose the way
/// failure plans merge.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityRecipe {
    /// `k=v` parameters in clause order.
    pub params: Vec<(String, f64)>,
}

impl MobilityRecipe {
    /// Parses `waypoint[:k=v,…]`, e.g. `waypoint:speed=2,ticks=10`,
    /// rejecting unknown keys and non-finite or out-of-range values.
    pub fn parse(value: &str) -> Result<MobilityRecipe, String> {
        let value = value.trim();
        let (name, params) = clause::split(value);
        if name != WAYPOINT {
            return Err(clause::unknown("mobility model", name, [WAYPOINT]));
        }
        let what = format!("mobility {value:?}");
        let params = clause::parse_params(&what, params, WAYPOINT_PARAMS)?;
        Ok(MobilityRecipe { params })
    }

    /// Perturbs one deployed instance: steps a random-waypoint process
    /// from `positions` for `ticks` unit-time steps, speeds uniform in
    /// `[speed/2, speed]`.
    pub fn perturb(&self, positions: &[Point], config: &DeploymentConfig, seed: u64) -> Vec<Point> {
        let param = |key| clause::param(&self.params, WAYPOINT_PARAMS, key);
        let speed = param("speed");
        let mut walk = RandomWaypoint::new(
            positions.to_vec(),
            config.area,
            config.radius,
            speed * 0.5,
            speed,
            param("pause"),
            seed ^ MOBILITY_SEED_SALT,
        );
        for _ in 0..param("ticks") as usize {
            walk.step(1.0);
        }
        walk.positions()
    }

    /// The canonical spec form, e.g. `waypoint:speed=2`.
    pub fn spec_string(&self) -> String {
        clause::render(WAYPOINT, &self.params)
    }
}

impl std::fmt::Display for MobilityRecipe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recipe_grammar_round_trips() {
        let r = MobilityRecipe::parse("waypoint:speed=2,ticks=5").unwrap();
        assert_eq!(r.spec_string(), "waypoint:speed=2,ticks=5");
        assert_eq!(MobilityRecipe::parse(&r.spec_string()).unwrap(), r);
        let err = MobilityRecipe::parse("teleport").unwrap_err();
        assert_eq!(
            err,
            "unknown mobility model \"teleport\" (registered: waypoint)"
        );
        assert!(MobilityRecipe::parse("waypoint:speed").is_err());
        assert!(MobilityRecipe::parse("waypoint:speed=x").is_err());
    }

    #[test]
    fn zero_ticks_is_the_identity() {
        let cfg = DeploymentConfig::paper_default(100);
        let start = cfg.deploy_uniform(1);
        let r = MobilityRecipe::parse("waypoint:speed=2,ticks=0").unwrap();
        assert_eq!(r.perturb(&start, &cfg, 1), start);
    }

    #[test]
    fn movement_stays_inside_the_area() {
        let cfg = DeploymentConfig::paper_default(150);
        let start = cfg.deploy_uniform(4);
        let r = MobilityRecipe::parse("waypoint:speed=5,ticks=20").unwrap();
        let moved = r.perturb(&start, &cfg, 4);
        for p in &moved {
            assert!(cfg.area.contains(*p), "{p} escaped the area");
        }
    }
}
