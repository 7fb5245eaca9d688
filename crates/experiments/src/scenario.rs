//! The open scenario registry: deployment scenarios as first-class,
//! registrable generators.
//!
//! The paper evaluates two deployments — uniform (**IA**) and
//! forbidden-area (**FA**) — and the harness used to hard-code them in
//! a closed `DeploymentKind` enum matched at every consumer. A scenario
//! is now a [`Scenario`] handle into the same registry that holds the
//! schemes: the built-ins are IA, FA, and the structured
//! clustered / corridor / city-block generators of [`sp_net::deploy`],
//! and new deployments register at runtime with a closure capturing
//! their configuration:
//!
//! ```
//! use sp_experiments::Scenario;
//! use sp_net::FaModel;
//!
//! // A heavier forbidden-area regime: the closure captures its model.
//! let fa = FaModel { obstacle_count: 6, ..FaModel::paper_default() };
//! let scenario = Scenario::register("FA-heavy-doc", move |cfg, seed| {
//!     cfg.deploy_with_obstacles(&fa.generate_obstacles(cfg, seed), seed)
//! });
//! assert_eq!(scenario.name(), "FA-heavy-doc");
//! assert_eq!(Scenario::by_name("FA-heavy-doc"), Some(scenario));
//! assert_eq!(
//!     scenario
//!         .deploy(&sp_net::DeploymentConfig::paper_default(400), 7)
//!         .len(),
//!     400
//! );
//! ```

use crate::registry::{Handle, Kind, Registry};
use sp_geom::Point;
use sp_net::deploy::{CityBlockModel, ClusterModel, CorridorModel, DeploymentConfig, FaModel};
use std::sync::Arc;

/// Generates one deployment instance: `(constants, seed) -> positions`.
///
/// A shared closure so generators can capture their model parameters
/// (obstacle counts, cluster spreads, street widths) at registration.
pub type ScenarioBuild = Arc<dyn Fn(&DeploymentConfig, u64) -> Vec<Point> + Send + Sync>;

/// The scenario kind of the shared registry: the process-wide table
/// mapping [`Scenario`] handles to names and deployment generators.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScenarioKind {}

static SCENARIOS: Registry<ScenarioKind> = Registry::new();

impl Kind for ScenarioKind {
    const NAME: &'static str = "scenario";
    type Build = ScenarioBuild;

    /// The built-in scenarios: the paper's two deployments plus the
    /// structured generators of the scenario-diversity roadmap item.
    fn builtin() -> Vec<(String, ScenarioBuild)> {
        let fa = FaModel::paper_default();
        let clusters = ClusterModel::paper_default();
        let corridor = CorridorModel::paper_default();
        let blocks = CityBlockModel::paper_default();
        vec![
            // === The scenario registration table ==================[order matters]
            entry("IA", |cfg, seed| cfg.deploy_uniform(seed)), // Scenario::Ia
            entry("FA", move |cfg, seed| {
                cfg.deploy_with_obstacles(&fa.generate_obstacles(cfg, seed), seed)
                // Scenario::Fa
            }),
            entry("clustered", move |cfg, seed| {
                cfg.deploy_clustered(&clusters, seed) // Scenario::Clustered
            }),
            entry("corridor", move |cfg, seed| {
                cfg.deploy_corridor(&corridor, seed) // Scenario::Corridor
            }),
            entry("city-block", move |cfg, seed| {
                cfg.deploy_city_block(&blocks, seed) // Scenario::CityBlock
            }),
            // ======================================================================
        ]
    }

    fn registry() -> &'static Registry<ScenarioKind> {
        &SCENARIOS
    }
}

fn entry<F>(name: impl Into<String>, generate: F) -> (String, ScenarioBuild)
where
    F: Fn(&DeploymentConfig, u64) -> Vec<Point> + Send + Sync + 'static,
{
    (name.into(), Arc::new(generate))
}

/// A handle to one registered deployment scenario.
///
/// `Copy`, order-stable, and cheap to compare — sweep configs carry it
/// by value exactly like [`crate::Scheme`]. The associated constants
/// name the built-ins; further scenarios get their handles from
/// [`Scenario::register`]. Lookups (`by_name`, `all`, `name`) are the
/// shared [`Handle`] methods.
pub type Scenario = Handle<ScenarioKind>;

#[allow(non_upper_case_globals)] // named like the enum variants they replaced
impl Scenario {
    /// IA: uniform ("ideal") deployment — holes only from sparsity.
    pub const Ia: Scenario = Scenario::at(0);
    /// FA: uniform deployment avoiding random forbidden areas
    /// ([`FaModel::paper_default`]).
    pub const Fa: Scenario = Scenario::at(1);
    /// Clustered drop-point deployment ([`ClusterModel::paper_default`]).
    pub const Clustered: Scenario = Scenario::at(2);
    /// L-shaped corridor deployment ([`CorridorModel::paper_default`]).
    pub const Corridor: Scenario = Scenario::at(3);
    /// Manhattan street grid ([`CityBlockModel::paper_default`]).
    pub const CityBlock: Scenario = Scenario::at(4);

    /// Registers a new scenario under `name` and returns its handle.
    ///
    /// The generator may capture its deployment model; everything
    /// downstream (sweep configs, the spec-string front end, figures)
    /// dispatches through the handle with no further edits.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered; use
    /// [`Scenario::try_register`] to handle the collision instead.
    pub fn register<F>(name: impl Into<String>, generate: F) -> Scenario
    where
        F: Fn(&DeploymentConfig, u64) -> Vec<Point> + Send + Sync + 'static,
    {
        // Panic only after the lock guard is released, so a rejected
        // registration cannot poison the registry for other threads.
        // sp-analyze: allow(panic, documented panicking variant; try_ siblings recover instead)
        Scenario::try_register(name, generate).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Registers a new scenario, reporting name collisions as `Err`
    /// instead of panicking.
    pub fn try_register<F>(name: impl Into<String>, generate: F) -> Result<Scenario, String>
    where
        F: Fn(&DeploymentConfig, u64) -> Vec<Point> + Send + Sync + 'static,
    {
        Scenario::add(entry(name, generate))
    }

    /// Short panel tag used in figure titles (same as the name).
    pub fn tag(&self) -> String {
        self.name()
    }

    /// Generates one deployment instance.
    pub fn deploy(&self, cfg: &DeploymentConfig, seed: u64) -> Vec<Point> {
        self.builder()(cfg, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_registered_in_table_order() {
        assert_eq!(Scenario::Ia.name(), "IA");
        assert_eq!(Scenario::Fa.name(), "FA");
        assert_eq!(Scenario::Clustered.name(), "clustered");
        assert_eq!(Scenario::Corridor.name(), "corridor");
        assert_eq!(Scenario::CityBlock.name(), "city-block");
        assert_eq!(Scenario::by_name("corridor"), Some(Scenario::Corridor));
        assert_eq!(Scenario::by_name("no-such-scenario"), None);
        assert!(Scenario::all().len() >= 5);
        assert_eq!(Scenario::names().len(), Scenario::all().len());
    }

    #[test]
    fn every_builtin_deploys_n_points_deterministically() {
        let cfg = DeploymentConfig::paper_default(300);
        for scenario in [
            Scenario::Ia,
            Scenario::Fa,
            Scenario::Clustered,
            Scenario::Corridor,
            Scenario::CityBlock,
        ] {
            let a = scenario.deploy(&cfg, 9);
            let b = scenario.deploy(&cfg, 9);
            assert_eq!(a.len(), 300, "{scenario}");
            assert_eq!(a, b, "{scenario} must replay per seed");
            for p in &a {
                assert!(cfg.area.contains(*p), "{scenario}: {p} escapes");
            }
        }
    }

    #[test]
    fn registering_a_scenario_captures_its_payload() {
        let margin = 40.0; // captured config: a shrunken deployment core
        let scenario = Scenario::register("TEST-core-only", move |cfg, seed| {
            let core = DeploymentConfig {
                area: cfg.area.inflate(-margin),
                ..*cfg
            };
            core.deploy_uniform(seed)
        });
        let cfg = DeploymentConfig::paper_default(100);
        let pts = scenario.deploy(&cfg, 4);
        assert_eq!(pts.len(), 100);
        for p in &pts {
            assert!(cfg.area.inflate(-margin).contains(*p));
        }
        assert_eq!(Scenario::by_name("TEST-core-only"), Some(scenario));
    }

    #[test]
    fn duplicate_scenario_names_are_rejected() {
        let err = Scenario::try_register("IA", |cfg, seed| cfg.deploy_uniform(seed))
            .expect_err("IA is a built-in");
        assert!(err.contains("registered twice"), "{err}");
    }
}
