//! Reproduction harness for every figure of the straightpath paper.
//!
//! Pipeline: a [`SweepConfig`] describes the paper's §5 setup (node
//! counts 400–800, 100 seeded networks per point, a registered
//! deployment [`Scenario`]); [`run_sweep`] routes every [`Scheme`] over
//! every instance in parallel; [`figures`] folds the records into the
//! exact curves of Figs. 5–7 plus the ablations A1–A17 (`repro-figures
//! a1` to `a17`);
//! [`scenarios`] rebuilds the paper's hand-drawn figures as executable
//! networks; and [`workload`] streams flows against per-node batteries
//! for the lifetime experiment.
//!
//! The experiment axes are **open**, and one registry serves them all:
//! [`Scheme`], [`Scenario`] and [`ChaosClass`] are [`Handle`]s into
//! per-kind append-only `(name, builder)` tables with unique names,
//! atomic batch registration and poison recovery. Schemes register
//! closure builders carrying config payloads ([`Scheme::register`],
//! [`SchemeFamily`]), deployments register generator closures
//! ([`Scenario::register`]), chaos classes register plan generators
//! with their declared parameters ([`ChaosClass::register`]), and the
//! spec-string front end ([`SweepSpec`]) resolves a one-line
//! description through them. Its `chaos=` and `mobility=` clauses
//! share one [`clause`] grammar that range-checks every parameter at
//! parse time.
//!
//! The `repro-figures` binary drives the whole thing from the command
//! line (including `--spec`) and writes text/markdown/CSV/JSON (and
//! `--svg`) outputs.
//!
//! ```
//! use sp_experiments::{run_sweep, Scheme, SweepConfig, Scenario, figures};
//!
//! // A miniature IA sweep (the paper uses 100 networks per point).
//! let mut cfg = SweepConfig::quick(Scenario::Ia);
//! cfg.node_counts = vec![400];
//! cfg.networks_per_point = 2;
//! let results = run_sweep(&cfg, &Scheme::PAPER_SET);
//! let fig6 = figures::fig6(&results);
//! assert_eq!(fig6.series.len(), 4);
//! ```
//!
//! Or, equivalently, through the spec-string front end:
//!
//! ```
//! use sp_experiments::SweepSpec;
//!
//! let spec = SweepSpec::parse("scenario=IA;nodes=400;nets=2;schemes=PAPER").unwrap();
//! let results = spec.run();
//! assert_eq!(results.points.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod clause;
pub mod config;
pub mod figures;
pub mod mobility_model;
mod registry;
pub mod runner;
pub mod scenario;
pub mod scenarios;
pub mod scheme;
pub mod spec;
pub mod workload;

pub use chaos::{ChaosArgs, ChaosBuild, ChaosClass, ChaosClause, ChaosRecipe};
pub use clause::ParamSpec;
pub use config::SweepConfig;
pub use mobility_model::MobilityRecipe;
pub use registry::Handle;
pub use runner::{
    random_pair, run_instance, run_sweep, SchemePoint, SweepPoint, SweepRecord, SweepResults,
};
pub use scenario::{Scenario, ScenarioBuild};
pub use scenarios::{all_scenarios, PaperScenario};
pub use scheme::{PreparedNetwork, RouterContext, Scheme, SchemeBuild, SchemeFamily};
pub use spec::{SpecError, SweepSpec};
pub use workload::{
    lifetime_figure, run_lifetime, run_lifetime_with_chaos, LifetimeReport, StreamingConfig,
};
