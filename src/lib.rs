//! **straightpath** — a reproduction of "A Straightforward Path Routing
//! in Wireless Ad Hoc Sensor Networks" (Jiang, Ma, Lou, Wu — ICDCS
//! Workshops 2009) as a production-quality Rust stack.
//!
//! The workspace is re-exported here as one façade:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geom`] | `sp-geom` | points, request-zone rectangles, quadrants, CCW scans |
//! | [`net`] | `sp-net` | deployments (IA/FA), unit disk graphs, planarization |
//! | [`sim`] | `sp-sim` | synchronous round-based distributed simulator |
//! | [`core`] | `sp-core` | safety information model + LGF/SLGF/SLGF2 routing |
//! | [`baselines`] | `sp-baselines` | GF greedy routing, TENT rule, BOUNDHOLE |
//! | [`metrics`] | `sp-metrics` | summaries, figure series, table/CSV rendering |
//! | [`experiments`] | `sp-experiments` | the per-figure reproduction harness |
//! | [`viz`] | `sp-viz` | SVG scenes and ASCII figure charts |
//!
//! # Quickstart
//!
//! ```
//! use straightpath::prelude::*;
//!
//! // The paper's setup: 500 nodes, radius 20 m, 200 m x 200 m area.
//! let cfg = DeploymentConfig::paper_default(500);
//! let net = Network::from_positions(cfg.deploy_uniform(7), cfg.radius, cfg.area);
//!
//! // Construct the safety information, then route with SLGF2.
//! let info = SafetyInfo::build(&net);
//! let result = Slgf2Router::new(&info).route(&net, NodeId(0), NodeId(499));
//! assert_eq!(result.path.first(), Some(&NodeId(0)));
//! ```

#![forbid(unsafe_code)]

pub use sp_baselines as baselines;
pub use sp_core as core;
pub use sp_experiments as experiments;
pub use sp_geom as geom;
pub use sp_metrics as metrics;
pub use sp_net as net;
pub use sp_sim as sim;
pub use sp_viz as viz;

/// The most common imports for building and routing on a WASN.
pub mod prelude {
    pub use sp_baselines::{GfRouter, GfgRouter, HoleAtlas, Slgf2FaceRouter};
    pub use sp_core::{
        construct_distributed, explain_route, Hand, LgfRouter, RouteOutcome, RoutePhase,
        RouteRecord, RouteResult, Routing, RoutingService, SafetyInfo, SafetyTuple,
        ServiceSnapshot, Slgf2Router, SlgfRouter,
    };
    pub use sp_geom::{Point, Quadrant, Rect};
    pub use sp_net::{
        deploy::DeploymentConfig, EnergyLedger, FaModel, Network, NodeId, Obstacle, RadioModel,
        RandomWaypoint, TopologyDelta,
    };
    pub use sp_sim::{ChaosPlan, CutWindow};
}
