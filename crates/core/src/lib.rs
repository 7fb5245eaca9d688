//! The paper's contribution: the **safety information model** and the
//! **SLGF2** routing family for wireless ad hoc sensor networks.
//!
//! Reproduces "A Straightforward Path Routing in Wireless Ad Hoc Sensor
//! Networks" (Jiang, Ma, Lou, Wu — ICDCS Workshops 2009):
//!
//! * [`SafetyTuple`] / [`SafetyMap`] — the four-type safe/unsafe labels
//!   of Definition 1, computed to their greatest fixed point;
//! * [`ShapeMap`] / [`ShapeEstimate`] — the unsafe-area rectangles
//!   `E_i(u)` built from the `u^{(1)}`/`u^{(2)}` chains of Algorithm 2;
//! * [`SafetyInfo`] — the combined per-node information, buildable
//!   centrally ([`SafetyInfo::build`]) or by the faithful distributed
//!   protocol ([`construct_distributed`]) with message-cost accounting;
//! * [`RegionSplit`] / [`Hand`] — the critical/forbidden split and the
//!   either-hand rule of §4;
//! * [`LgfRouter`] (Algorithm 1), [`SlgfRouter`] (the earlier work \[7\])
//!   and [`Slgf2Router`] (Algorithm 3) — all exposing the common
//!   [`Routing`] trait used by the benchmark harness;
//! * [`RoutingService`] — the serving shape: an epoch-versioned
//!   snapshot owner answering sustained query streams while mobility
//!   churns the topology underneath (see [`service`]).
//!
//! # Quickstart
//!
//! ```
//! use sp_core::{Routing, SafetyInfo, Slgf2Router};
//! use sp_net::{deploy::DeploymentConfig, Network, NodeId};
//!
//! // The paper's setup: 200m x 200m, radius 20m.
//! let cfg = DeploymentConfig::paper_default(500);
//! let net = Network::from_positions(cfg.deploy_uniform(7), cfg.radius, cfg.area);
//!
//! // Build the safety information (Definition 1 + Algorithm 2)...
//! let info = SafetyInfo::build(&net);
//!
//! // ...and route with SLGF2 (Algorithm 3).
//! let result = Slgf2Router::new(&info).route(&net, NodeId(0), NodeId(499));
//! println!("delivered={} hops={}", result.delivered(), result.hops());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
pub mod explain;
pub mod info;
pub mod labeling;
pub mod lgf;
pub mod maintenance;
pub mod packet;
pub mod regions;
pub mod router;
pub mod service;
pub mod shape;
pub mod slgf;
pub mod slgf2;
pub mod status;
pub mod traffic;

pub use distributed::{
    construct_async, construct_async_with, construct_distributed, construct_legacy, construct_with,
    ChainInfo, ConstructionRun, LabelingProcess,
};
pub use explain::explain_route;
pub use info::SafetyInfo;
pub use labeling::SafetyMap;
pub use lgf::LgfRouter;
pub use maintenance::{InfoMaintainer, RepairReport};
pub use packet::{
    FaceState, HopScratch, Mode, PacketState, RouteOutcome, RoutePhase, RouteResult, VisitedSet,
};
pub use regions::{choose_hand, hand_first, Hand, RegionSplit};
pub use router::{
    closer_neighbors, closer_than_entry, default_ttl, greedy_pick, greedy_with_recovery,
    perimeter_sweep, walk_into, zone_candidates, zone_type, RouteBuffer, RouteRef, Routing,
};
pub use service::{RoutingService, ServiceScheme, ServiceSession, ServiceSnapshot};
pub use shape::{greedy_region, ShapeEstimate, ShapeMap};
pub use slgf::SlgfRouter;
pub use slgf2::Slgf2Router;
pub use status::SafetyTuple;
pub use traffic::{RouteQuality, RouteRecord, TrafficEngine, TrafficReport, HOP_BUCKETS};
