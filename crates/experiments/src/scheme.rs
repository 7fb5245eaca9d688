//! The routing schemes under evaluation ([`Scheme`]) plus the
//! [`PreparedNetwork`] wrapper the sweeps route on.
//!
//! The set is closed: the paper's four curves, the A3/A4 ablations and
//! the two face-routing baselines. A scheme is a plain enum value, and
//! [`Scheme::build`] is the one `match` that turns it into a router:
//!
//! ```
//! use sp_experiments::Scheme;
//!
//! assert_eq!(Scheme::Slgf2.name(), "SLGF2");
//! assert_eq!(Scheme::by_name("SLGF2-F"), Some(Scheme::Slgf2Face));
//! assert_eq!(Scheme::ALL.len(), 8);
//! ```

use sp_baselines::{GfRouter, GfgRouter, Slgf2FaceRouter};
use sp_core::{LgfRouter, RouteResult, Routing, SafetyInfo, Slgf2Router, SlgfRouter};
use sp_net::{Network, NodeId};

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

/// One routing scheme. Records, sweep points and figures carry it by
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scheme {
    /// Greedy forwarding with BOUNDHOLE recovery (baseline \[5\]/\[6\]).
    Gf,
    /// Limited greedy forwarding, Algo. 1.
    Lgf,
    /// Safety-information LGF of \[7\].
    Slgf,
    /// The paper's contribution, Algo. 3.
    Slgf2,
    /// SLGF2 without the either-hand superseding rule (ablation A3).
    Slgf2NoSuperseding,
    /// SLGF2 without the backup-path phase (ablation A4).
    Slgf2NoBackup,
    /// Greedy-Face-Greedy with full planar face changes (Bose et al.
    /// \[2\]) — the guaranteed-delivery comparison of ablation A8.
    Gfg,
    /// SLGF2 with FACE-2 recovery instead of the untried sweep — the
    /// paper's §6 future-work direction (ablation A12).
    Slgf2Face,
}

impl Scheme {
    /// Every scheme, in the order `schemes=ALL` expands to.
    pub const ALL: [Scheme; 8] = [
        Scheme::Gf,
        Scheme::Lgf,
        Scheme::Slgf,
        Scheme::Slgf2,
        Scheme::Slgf2NoSuperseding,
        Scheme::Slgf2NoBackup,
        Scheme::Gfg,
        Scheme::Slgf2Face,
    ];

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

    /// The name figures, specs and tables use.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Gf => "GF",
            Scheme::Lgf => "LGF",
            Scheme::Slgf => "SLGF",
            Scheme::Slgf2 => "SLGF2",
            Scheme::Slgf2NoSuperseding => "SLGF2-noEH",
            Scheme::Slgf2NoBackup => "SLGF2-noBP",
            Scheme::Gfg => "GFG",
            Scheme::Slgf2Face => "SLGF2-F",
        }
    }

    /// The scheme named `name`, if any.
    pub fn by_name(name: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Constructs this scheme's router over the given context.
    pub fn build<'a>(self, ctx: &RouterContext<'a>) -> Box<dyn Routing + Send + Sync + 'a> {
        match self {
            Scheme::Gf => Box::new(ctx.gf),
            Scheme::Lgf => Box::new(LgfRouter::new()),
            Scheme::Slgf => Box::new(SlgfRouter::new(ctx.info)),
            Scheme::Slgf2 => Box::new(Slgf2Router::new(ctx.info)),
            Scheme::Slgf2NoSuperseding => {
                Box::new(Slgf2Router::new(ctx.info).without_superseding())
            }
            Scheme::Slgf2NoBackup => Box::new(Slgf2Router::new(ctx.info).without_backup()),
            Scheme::Gfg => Box::new(ctx.gfg),
            Scheme::Slgf2Face => {
                Box::new(Slgf2FaceRouter::with_face_router(ctx.info, ctx.gfg.clone()))
            }
        }
    }

    /// Routes one packet under this scheme.
    pub fn route(self, ctx: &RouterContext<'_>, src: NodeId, dst: NodeId) -> RouteResult {
        self.build(ctx).route(ctx.net, src, dst)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
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
        let mut names: Vec<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
        assert_eq!(Scheme::PAPER_SET.len(), 4);
        assert_eq!(Scheme::Slgf2.name(), "SLGF2");
        assert_eq!(Scheme::by_name("GFG"), Some(Scheme::Gfg));
        assert_eq!(Scheme::by_name("no-such-scheme"), None);
        for s in Scheme::ALL {
            assert_eq!(Scheme::by_name(s.name()), Some(s));
        }
    }

    #[test]
    fn all_schemes_route_on_a_dense_network() {
        let cfg = DeploymentConfig::paper_default(500);
        let net = Network::from_positions(cfg.deploy_uniform(21), cfg.radius, cfg.area);
        let comp = net.largest_component();
        let prepared = PreparedNetwork::new(net);
        let (s, d) = (comp[0], comp[comp.len() - 1]);
        for scheme in Scheme::ALL {
            let r = prepared.route(scheme, s, d);
            assert_eq!(r.path.first(), Some(&s), "{scheme}");
            assert!(r.hops() > 0, "{scheme}");
        }
    }
}
