//! The routing schemes under evaluation: the open scheme registry
//! ([`Scheme`] handles) plus the [`PreparedNetwork`] wrapper the sweeps
//! route on.
//!
//! # Adding a scheme
//!
//! Historically every scheme lived in an enum whose `match` arms were
//! duplicated across the sweep runner and the streaming workload;
//! adding an ablation variant meant touching every dispatch site. Now a
//! scheme is a [`Scheme`] handle into the registry, its builder is a
//! **closure** that may capture arbitrary configuration, and adding one
//! is **one registration call** — no other file changes:
//!
//! ```
//! use sp_core::Routing;
//! use sp_experiments::{RouterContext, Scheme};
//!
//! // A parameterized curve for the figures: the closure captures its
//! // config payload (here a TTL multiplier), so ablation variants need
//! // no new code — the sweeps, figures, and workloads all dispatch
//! // through the handle.
//! let ttl = 2.0;
//! let scheme = Scheme::register(format!("SLGF2[ttl={ttl}n]"), move |ctx| {
//!     Box::new(sp_core::Slgf2Router::new(ctx.info).with_ttl_multiplier(ttl))
//! });
//! assert_eq!(scheme.name(), format!("SLGF2[ttl={ttl}n]"));
//! assert_eq!(Scheme::by_name("SLGF2[ttl=2n]"), Some(scheme));
//! ```
//!
//! Whole ablation *grids* register in one call through
//! [`SchemeFamily`]: each variant is a `(parameter-tag, payload)` pair
//! and the family stamps out `BASE[tag]` names.

use crate::registry::{Handle, Kind, Registry};
use sp_baselines::{GfRouter, GfgRouter, Slgf2FaceRouter};
use sp_core::{LgfRouter, RouteResult, Routing, SafetyInfo, Slgf2Router, SlgfRouter};
use sp_net::{Network, NodeId};
use std::sync::Arc;

/// Everything a scheme's router may borrow when it is constructed: the
/// topology to route on plus the precomputed per-network structures.
///
/// The topology is carried separately from the structures so callers
/// like the lifetime workload can route on a *degraded* snapshot while
/// reusing incrementally-repaired safety information.
#[derive(Debug, Clone, Copy)]
pub struct RouterContext<'a> {
    /// The unit disk graph to route on.
    pub net: &'a Network,
    /// Safety + shape information for the SLGF family.
    pub info: &'a SafetyInfo,
    /// The prebuilt GF baseline (hole atlas + recovery structures).
    pub gf: &'a GfRouter,
    /// The prebuilt GFG face-routing baseline (planarization).
    pub gfg: &'a GfgRouter,
}

/// Constructs a boxed router borrowing from the context.
///
/// A shared closure rather than a `fn` pointer, so builders can capture
/// configuration payloads (TTL policies, hand heuristics, ablation
/// switches) at registration time. `Arc` rather than `Box` because the
/// registry hands builders out to sweep worker threads without holding
/// its lock across user code.
pub type SchemeBuild =
    Arc<dyn for<'a> Fn(&RouterContext<'a>) -> Box<dyn Routing + Send + Sync + 'a> + Send + Sync>;

/// The scheme kind of the shared registry: the process-wide table
/// mapping [`Scheme`] handles to names and router builders.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchemeKind {}

static SCHEMES: Registry<SchemeKind> = Registry::new();

impl Kind for SchemeKind {
    const NAME: &'static str = "scheme";
    type Build = SchemeBuild;

    /// The built-in schemes: the paper's four curves, the A3/A4
    /// ablations, and the two face-routing baselines/hybrids.
    fn builtin() -> Vec<(String, SchemeBuild)> {
        vec![
            // === The scheme registration table ====================[order matters]
            entry("GF", |ctx| Box::new(ctx.gf)), // Scheme::Gf
            entry("LGF", |_| Box::new(LgfRouter::new())), // Scheme::Lgf
            entry("SLGF", |ctx| Box::new(SlgfRouter::new(ctx.info))), // Scheme::Slgf
            entry("SLGF2", |ctx| Box::new(Slgf2Router::new(ctx.info))), // Scheme::Slgf2
            entry("SLGF2-noEH", |ctx| {
                Box::new(Slgf2Router::new(ctx.info).without_superseding()) // Scheme::Slgf2NoSuperseding
            }),
            entry("SLGF2-noBP", |ctx| {
                Box::new(Slgf2Router::new(ctx.info).without_backup()) // Scheme::Slgf2NoBackup
            }),
            entry("GFG", |ctx| Box::new(ctx.gfg)), // Scheme::Gfg
            entry("SLGF2-F", |ctx| {
                Box::new(Slgf2FaceRouter::with_face_router(ctx.info, ctx.gfg.clone()))
                // Scheme::Slgf2Face
            }),
            // ======================================================================
        ]
    }

    fn registry() -> &'static Registry<SchemeKind> {
        &SCHEMES
    }
}

/// A named builder, typed so closures infer their higher-ranked
/// signature.
fn entry<F>(name: impl Into<String>, build: F) -> (String, SchemeBuild)
where
    F: for<'a> Fn(&RouterContext<'a>) -> Box<dyn Routing + Send + Sync + 'a>
        + Send
        + Sync
        + 'static,
{
    (name.into(), Arc::new(build))
}

/// A handle to one registered routing scheme.
///
/// `Copy`, order-stable, and cheap to compare — records, sweep points,
/// and figures carry it by value. The associated constants name the
/// built-in schemes; further schemes get their handles from
/// [`Scheme::register`] or [`SchemeFamily`]. Lookups (`by_name`, `all`,
/// `name`, `display_names`) are the shared [`Handle`] methods.
pub type Scheme = Handle<SchemeKind>;

#[allow(non_upper_case_globals)] // named like the enum variants they replaced
impl Scheme {
    /// Greedy forwarding with BOUNDHOLE recovery (baseline \[5\]/\[6\]).
    pub const Gf: Scheme = Scheme::at(0);
    /// Limited greedy forwarding, Algo. 1.
    pub const Lgf: Scheme = Scheme::at(1);
    /// Safety-information LGF of \[7\].
    pub const Slgf: Scheme = Scheme::at(2);
    /// The paper's contribution, Algo. 3.
    pub const Slgf2: Scheme = Scheme::at(3);
    /// SLGF2 without the either-hand superseding rule (ablation A3).
    pub const Slgf2NoSuperseding: Scheme = Scheme::at(4);
    /// SLGF2 without the backup-path phase (ablation A4).
    pub const Slgf2NoBackup: Scheme = Scheme::at(5);
    /// Greedy-Face-Greedy with full planar face changes (Bose et al.
    /// \[2\]) — the guaranteed-delivery comparison of ablation A8.
    pub const Gfg: Scheme = Scheme::at(6);
    /// SLGF2 with FACE-2 recovery instead of the untried sweep — the
    /// paper's §6 future-work direction (ablation A12).
    pub const Slgf2Face: Scheme = Scheme::at(7);

    /// The four curves of every figure in the paper, in its order.
    pub const PAPER_SET: [Scheme; 4] = [Scheme::Gf, Scheme::Lgf, Scheme::Slgf, Scheme::Slgf2];

    /// The paper's curves plus the GFG face-routing baseline (A8).
    pub const EXTENDED_SET: [Scheme; 5] = [
        Scheme::Gf,
        Scheme::Lgf,
        Scheme::Slgf,
        Scheme::Slgf2,
        Scheme::Gfg,
    ];

    /// Registers a new scheme under `name` and returns its handle.
    ///
    /// The builder may capture configuration (it is stored as a shared
    /// closure, not a `fn` pointer). This is the *only* edit needed to
    /// add a scheme: everything downstream (sweeps, figures, workloads,
    /// benches) dispatches through the handle.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered; use
    /// [`Scheme::try_register`] to handle the collision instead.
    pub fn register<F>(name: impl Into<String>, build: F) -> Scheme
    where
        F: for<'a> Fn(&RouterContext<'a>) -> Box<dyn Routing + Send + Sync + 'a>
            + Send
            + Sync
            + 'static,
    {
        // Panic only after the lock guard is released, so a rejected
        // registration cannot poison the registry for other threads.
        Scheme::try_register(name, build).unwrap_or_else(|e| panic!("{e}")) // sp-analyze: allow(panic, documented panicking variant; try_ siblings recover instead)
    }

    /// Registers a new scheme, reporting name collisions as `Err`
    /// instead of panicking.
    pub fn try_register<F>(name: impl Into<String>, build: F) -> Result<Scheme, String>
    where
        F: for<'a> Fn(&RouterContext<'a>) -> Box<dyn Routing + Send + Sync + 'a>
            + Send
            + Sync
            + 'static,
    {
        Scheme::add(entry(name, build))
    }

    /// Constructs this scheme's router over the given context.
    pub fn build<'a>(&self, ctx: &RouterContext<'a>) -> Box<dyn Routing + Send + Sync + 'a> {
        self.builder()(ctx)
    }

    /// Routes one packet under this scheme.
    pub fn route(&self, ctx: &RouterContext<'_>, src: NodeId, dst: NodeId) -> RouteResult {
        self.build(ctx).route(ctx.net, src, dst)
    }
}

/// A whole parameter sweep of one base scheme, registered in one call.
///
/// Each variant is a parameter tag plus a builder closure capturing its
/// payload; the family stamps out `BASE[tag]` names so an ablation grid
/// like `SLGF2[ttl=2n,hand=cw]` exists without new code:
///
/// ```
/// use sp_core::Slgf2Router;
/// use sp_experiments::{Scheme, SchemeFamily};
///
/// let ttls = SchemeFamily::new("SLGF2-ttl-doc")
///     .sweep([("ttl=1n", 1.0), ("ttl=2n", 2.0), ("ttl=4n", 4.0)], |&m, ctx| {
///         Box::new(Slgf2Router::new(ctx.info).with_ttl_multiplier(m))
///     })
///     .register();
/// assert_eq!(ttls.len(), 3);
/// assert_eq!(ttls[1].name(), "SLGF2-ttl-doc[ttl=2n]");
/// assert_eq!(Scheme::by_name("SLGF2-ttl-doc[ttl=4n]"), Some(ttls[2]));
/// ```
#[must_use = "a family does nothing until `register`/`try_register` is called"]
pub struct SchemeFamily {
    base: String,
    variants: Vec<(String, SchemeBuild)>,
}

impl SchemeFamily {
    /// Starts an empty family named `base`.
    pub fn new(base: impl Into<String>) -> SchemeFamily {
        SchemeFamily {
            base: base.into(),
            variants: Vec::new(),
        }
    }

    /// Adds one variant; its registered name is `base[params]` (or the
    /// bare base name when `params` is empty).
    pub fn variant<F>(mut self, params: impl Into<String>, build: F) -> SchemeFamily
    where
        F: for<'a> Fn(&RouterContext<'a>) -> Box<dyn Routing + Send + Sync + 'a>
            + Send
            + Sync
            + 'static,
    {
        let params = params.into();
        let name = if params.is_empty() {
            self.base.clone()
        } else {
            format!("{}[{params}]", self.base)
        };
        self.variants.push(entry(name, build));
        self
    }

    /// Adds one variant per `(tag, payload)` pair, all built by the
    /// same factory closure — the one-call parameter sweep.
    pub fn sweep<P, T, F>(mut self, params: impl IntoIterator<Item = (T, P)>, build: F) -> Self
    where
        P: Send + Sync + 'static,
        T: Into<String>,
        F: for<'a> Fn(&P, &RouterContext<'a>) -> Box<dyn Routing + Send + Sync + 'a>
            + Send
            + Sync
            + Clone
            + 'static,
    {
        for (tag, payload) in params {
            let build = build.clone();
            self = self.variant(tag, move |ctx: &RouterContext<'_>| build(&payload, ctx));
        }
        self
    }

    /// Names this family will register, in order.
    pub fn names(&self) -> Vec<String> {
        self.variants.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Registers every variant atomically and returns the handles in
    /// variant order.
    ///
    /// # Panics
    ///
    /// Panics when any name is already registered (no variant is added
    /// in that case); use [`SchemeFamily::try_register`] to recover.
    pub fn register(self) -> Vec<Scheme> {
        self.try_register().unwrap_or_else(|e| panic!("{e}")) // sp-analyze: allow(panic, documented panicking variant; try_ siblings recover instead)
    }

    /// Registers every variant atomically: on any name collision the
    /// whole family is rejected and the registry is left untouched.
    pub fn try_register(self) -> Result<Vec<Scheme>, String> {
        Scheme::add_all(self.variants)
    }
}

/// One generated network with every precomputed structure the schemes
/// need: the safety information for SLGF/SLGF2 and the GF recovery
/// structures (hole atlas + planarization) — mirroring §5's "before we
/// test the routing performance … boundary information is constructed
/// for GF routings, and safety information and estimated shape
/// information are constructed for our SLGF and SLGF2 routing".
#[derive(Debug, Clone)]
pub struct PreparedNetwork {
    /// The unit disk graph.
    pub net: Network,
    /// Safety + shape information (centralized construction).
    pub info: SafetyInfo,
    /// The GF baseline with its recovery structures.
    pub gf: GfRouter,
    /// The GFG face-routing baseline (shares nothing with GF's atlas).
    pub gfg: GfgRouter,
}

impl PreparedNetwork {
    /// Builds everything for a deployed point set.
    pub fn new(net: Network) -> PreparedNetwork {
        let info = SafetyInfo::build(&net);
        let gf = GfRouter::new(&net);
        let gfg = GfgRouter::new(&net);
        PreparedNetwork { net, info, gf, gfg }
    }

    /// The borrow bundle scheme builders construct routers from.
    pub fn ctx(&self) -> RouterContext<'_> {
        RouterContext {
            net: &self.net,
            info: &self.info,
            gf: &self.gf,
            gfg: &self.gfg,
        }
    }

    /// Routes one packet under the given scheme.
    pub fn route(&self, scheme: Scheme, src: NodeId, dst: NodeId) -> RouteResult {
        scheme.route(&self.ctx(), src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_net::deploy::DeploymentConfig;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = Scheme::all().iter().map(|s| s.name()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(total >= 8, "all built-ins registered");
        assert_eq!(Scheme::PAPER_SET.len(), 4);
        assert_eq!(Scheme::Slgf2.name(), "SLGF2");
        assert_eq!(Scheme::by_name("GFG"), Some(Scheme::Gfg));
        assert_eq!(Scheme::by_name("no-such-scheme"), None);
        let listed: Vec<String> = Scheme::all().iter().map(|s| s.name()).collect();
        assert_eq!(Scheme::names(), listed);
    }

    #[test]
    fn all_schemes_route_on_a_dense_network() {
        let cfg = DeploymentConfig::paper_default(500);
        let net = Network::from_positions(cfg.deploy_uniform(21), cfg.radius, cfg.area);
        let comp = net.largest_component();
        let prepared = PreparedNetwork::new(net);
        let (s, d) = (comp[0], comp[comp.len() - 1]);
        for scheme in [
            Scheme::Gf,
            Scheme::Lgf,
            Scheme::Slgf,
            Scheme::Slgf2,
            Scheme::Slgf2NoSuperseding,
            Scheme::Slgf2NoBackup,
            Scheme::Gfg,
            Scheme::Slgf2Face,
        ] {
            let r = prepared.route(scheme, s, d);
            assert_eq!(r.path.first(), Some(&s), "{scheme}");
            assert!(r.hops() > 0, "{scheme}");
        }
    }

    /// The registry's acceptance criterion: a new scheme is ONE
    /// registration call — here a closure capturing its own config
    /// payload — after which every downstream consumer (the
    /// prepared-network dispatch the sweeps use) handles it with no
    /// further edits.
    #[test]
    fn registering_a_scheme_is_a_single_site_change() {
        let ttl_multiplier = 2.0; // captured payload, not a fn pointer
        let scheme = Scheme::register("TEST-ttl-payload", move |ctx| {
            Box::new(Slgf2Router::new(ctx.info).with_ttl_multiplier(ttl_multiplier))
        });
        assert_eq!(scheme.name(), "TEST-ttl-payload");
        assert!(Scheme::all().contains(&scheme));

        let cfg = DeploymentConfig::paper_default(400);
        let net = Network::from_positions(cfg.deploy_uniform(3), cfg.radius, cfg.area);
        let comp = net.largest_component();
        let prepared = PreparedNetwork::new(net);
        let r = prepared.route(scheme, comp[0], comp[comp.len() - 1]);
        assert_eq!(r.path.first(), Some(&comp[0]));
        assert!(r.delivered());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_are_rejected() {
        let _ = Scheme::register("SLGF2", |ctx| Box::new(Slgf2Router::new(ctx.info)));
    }

    #[test]
    fn try_register_reports_collisions_without_panicking() {
        let err = Scheme::try_register("SLGF2", |ctx| Box::new(Slgf2Router::new(ctx.info)))
            .expect_err("SLGF2 is a built-in");
        assert!(err.contains("registered twice"), "{err}");
        // A fresh name still registers through the same path.
        let ok = Scheme::try_register("TEST-try-register", |ctx| {
            Box::new(Slgf2Router::new(ctx.info))
        });
        assert!(ok.is_ok());
    }

    #[test]
    fn family_registers_a_parameter_sweep_in_one_call() {
        let schemes = SchemeFamily::new("TEST-fam")
            .sweep(
                [("ttl=1n", 1.0), ("ttl=2n", 2.0), ("ttl=4n", 4.0)],
                |&m, ctx| Box::new(Slgf2Router::new(ctx.info).with_ttl_multiplier(m)),
            )
            .variant("hand=cw", |ctx| {
                Box::new(Slgf2Router::new(ctx.info).without_superseding())
            })
            .register();
        assert_eq!(schemes.len(), 4);
        let names: Vec<String> = schemes.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "TEST-fam[ttl=1n]",
                "TEST-fam[ttl=2n]",
                "TEST-fam[ttl=4n]",
                "TEST-fam[hand=cw]"
            ]
        );
        // Every variant routes through the ordinary dispatch path.
        let cfg = DeploymentConfig::paper_default(400);
        let net = Network::from_positions(cfg.deploy_uniform(8), cfg.radius, cfg.area);
        let comp = net.largest_component();
        let prepared = PreparedNetwork::new(net);
        for &s in &schemes {
            let r = prepared.route(s, comp[0], comp[comp.len() - 1]);
            assert_eq!(r.path.first(), Some(&comp[0]), "{s}");
        }
    }

    #[test]
    fn family_registration_is_atomic_on_collision() {
        let before = Scheme::all().len();
        let err = SchemeFamily::new("TEST-fam-atomic")
            .variant("a", |ctx| Box::new(Slgf2Router::new(ctx.info)))
            .variant("", |_| Box::new(LgfRouter::new())) // bare base name
            .sweep([("dup", ()), ("dup", ())], |_, ctx| {
                Box::new(Slgf2Router::new(ctx.info))
            })
            .try_register()
            .expect_err("duplicate variant tags must be rejected");
        assert!(err.contains("duplicate"), "{err}");
        assert_eq!(
            Scheme::all().len(),
            before,
            "a rejected family must not leave partial entries behind"
        );
        assert_eq!(Scheme::by_name("TEST-fam-atomic[a]"), None);
        assert_eq!(Scheme::by_name("TEST-fam-atomic"), None);
    }
}
