//! Network substrate for the straightpath WASN routing stack.
//!
//! The paper models a WASN as "a simple undirected graph `G = (V, E)` …
//! each \[edge\] indicates two nodes are within the communication range of
//! each other" with identical radii — a **unit disk graph** (UDG). This
//! crate builds such graphs and everything the routing layers need from
//! them:
//!
//! * [`deploy`] — the deployment models: §5's uniform (**IA**) and
//!   forbidden-area (**FA**) plus the structured clustered / corridor /
//!   city-block generators, all with seeded reproducible randomness;
//! * [`spatial`] — the uniform-grid [`SpatialIndex`] making UDG
//!   construction, planarization, and mobility re-snapshots
//!   `O(n · density)` instead of `O(n²)`; every [`Network`] carries one
//!   ([`Network::index`]). Bulk adjacency shards cell rows across
//!   threads above [`PARALLEL_NODE_THRESHOLD`] nodes and supports
//!   `O(1)` incremental point moves;
//! * [`csr`] — the cache-dense [`CsrAdjacency`] edge arena every
//!   [`Network`] stores its topology in (one contiguous `u32` offset
//!   table + [`NodeId`] arena; a mover batch rewrites it in one pass,
//!   [`Network::apply_moves`]), and the [`NodeRemap`] produced by the
//!   construction-time spatial sort ([`Network::spatially_sorted`]);
//! * [`positions`] — the structure-of-arrays [`PositionTable`]
//!   (`xs`/`ys` slices) every [`SpatialIndex`] owns, so range scans
//!   stream two dense `f64` arrays;
//! * [`graph`] — the [`Network`] type: adjacency, BFS hop counts,
//!   Dijkstra reference paths, connectivity;
//! * [`planar`] — Gabriel / RNG planarization plus the CCW/CW pivots that
//!   face routing ("right-hand rule" \[2\]) is built on;
//! * [`edge_nodes`] — the interest-area edge detection that pins hull
//!   nodes safe in the labeling process of §3;
//! * [`radio`] — first-order radio energy model and interference
//!   accounting (the intro's "energy wasted in detours" and "less
//!   interference … when fewer nodes are involved" claims, quantified);
//! * [`mobility`] — random-waypoint motion for the node-mobility dynamic
//!   factor of §1 (information staleness, experiment A13).
//!
//! # Example
//!
//! ```
//! use sp_net::{deploy::DeploymentConfig, Network};
//!
//! let cfg = DeploymentConfig::paper_default(500);
//! let positions = cfg.deploy_uniform(42);
//! let net = Network::from_positions(positions, cfg.radius, cfg.area);
//! assert_eq!(net.len(), 500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod deploy;
pub mod edge_nodes;
pub mod graph;
pub mod mobility;
pub mod node;
pub mod planar;
pub mod positions;
pub mod radio;
pub mod spatial;

pub use csr::{CsrAdjacency, NodeRemap};
pub use deploy::{
    CityBlockModel, ClusterModel, CorridorModel, DeploymentConfig, FaModel, Obstacle,
};
pub use edge_nodes::edge_node_ids;
pub use graph::{Network, TopologyFootprint};
pub use mobility::RandomWaypoint;
pub use node::NodeId;
pub use planar::{PlanarGraph, Planarization};
pub use positions::PositionTable;
pub use radio::{interference_count, interference_set, EnergyLedger, RadioModel};
pub use spatial::{SpatialIndex, PARALLEL_NODE_THRESHOLD};
