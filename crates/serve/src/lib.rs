//! `sp-serve`: a std-only TCP front end over the epoch-snapshot
//! [`RoutingService`](sp_core::RoutingService).
//!
//! The service layer made routing long-lived; this crate makes it
//! **reachable**: a fixed worker pool speaking a small length-prefixed
//! binary protocol (`QUERY` with optional hop-trace streaming, `MOVE`,
//! `CHAOS`, `STATS`, `SHUTDOWN`, `INFO`) — no async runtime, no
//! serialization dependency, nothing beyond `std::net`.
//!
//! * [`wire`] — the framed protocol: alloc-free decode/encode, named
//!   [`ProtocolError`]s for every malformed shape, never a panic;
//! * [`server`] — accept queue, per-worker
//!   [`ServiceSession`](sp_core::ServiceSession)s, epoch-stamped
//!   responses, graceful draining shutdown;
//! * [`telemetry`] — per-worker counter cells, the route-quality fold
//!   ([`RouteQuality`](sp_core::RouteQuality): deliveries, hop
//!   histogram) and latency histogram, merged across workers into
//!   `STATS` and periodic JSONL export;
//! * [`client`] — the blocking client the load generator, benches and
//!   end-to-end tests drive the server with.
//!
//! Binaries: `sp-served` (the server) and `sp-serve-load` (a
//! multi-client load generator that cross-checks its own tally against
//! the server's `STATS`).
//!
//! ```no_run
//! use sp_core::ServiceScheme;
//! use sp_net::{deploy::DeploymentConfig, Network};
//! use sp_serve::{serve, ServeClient, ServeConfig};
//!
//! let cfg = DeploymentConfig::paper_default(500);
//! let net = Network::from_positions(cfg.deploy_uniform(7), cfg.radius, cfg.area);
//! let handle = serve(net, ServeConfig::ephemeral(4)).unwrap();
//!
//! let mut client = ServeClient::connect(handle.addr()).unwrap();
//! let reply = client.query(0, 499, ServiceScheme::Slgf2, true).unwrap();
//! println!("epoch {} hops {} path {:?}", reply.epoch, reply.hops, reply.path);
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod telemetry;
pub mod wire;

pub use client::{ClientError, ServeClient};
pub use server::{serve, serve_with, ServeConfig, ServerHandle, DEFAULT_ADDR};
pub use telemetry::{StatsSnapshot, Telemetry, WorkerTelemetry};
pub use wire::{ProtocolError, ProtocolErrorKind, QueryReply, Response, StatsReply};
