//! Synchronous round-based and asynchronous distributed-protocol
//! simulators.
//!
//! §3 of the paper: "we describe all the schemes in a synchronous,
//! round-based system. All the schemes presented in this paper can be
//! extended easily to an asynchronous round based system." This crate is
//! that system: each node runs a local state machine
//! ([`NodeProcess`]), exchanges messages only with UDG neighbors, and the
//! [`Engine`] advances everyone in lock-step rounds while counting every
//! transmission — the construction-cost metric of ablation A1. The
//! [`AsyncEngine`] instead delays each message copy at random. Both
//! drive one node runtime (callbacks, kills, revivals) and report one
//! [`SimStats`]; each keeps only its schedule (round arena, delay heap).
//!
//! The engines also inject failures through one model, the [`ChaosPlan`]
//! (scheduled kills and revivals, partition cuts, lossy links): the paper
//! motivates unsafe areas with "node failures, signal fading,
//! communication jamming, power exhaustion" (§1), and ablation A6
//! measures how the information model recovers when nodes die after
//! construction.
//!
//! # Example
//!
//! A one-shot flood protocol:
//!
//! ```
//! use sp_net::{Network, NodeId};
//! use sp_sim::{Ctx, Engine, NodeProcess};
//! use sp_geom::{Point, Rect};
//!
//! struct Flood { seen: bool }
//! impl NodeProcess for Flood {
//!     type Msg = ();
//!     fn on_init(&mut self, ctx: &mut Ctx<'_, ()>) {
//!         if ctx.id() == NodeId(0) {
//!             self.seen = true;
//!             ctx.broadcast(());
//!         }
//!     }
//!     fn on_round(&mut self, ctx: &mut Ctx<'_, ()>, inbox: &[(NodeId, &())]) {
//!         if !inbox.is_empty() && !self.seen {
//!             self.seen = true;
//!             ctx.broadcast(());
//!         }
//!     }
//! }
//!
//! let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(50.0, 50.0));
//! let net = Network::from_positions(
//!     vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(20.0, 0.0)],
//!     15.0,
//!     area,
//! );
//! let mut engine = Engine::new(&net, |_| Flood { seen: false });
//! let stats = engine.run_until_quiescent(100).unwrap();
//! assert!(engine.nodes().iter().all(|n| n.seen));
//! // Two propagation rounds plus the round that delivers the last
//! // (unanswered) broadcast.
//! assert_eq!(stats.rounds, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod async_engine;
pub mod chaos;
pub mod engine;
pub mod legacy;
mod nodes;
pub mod process;
pub mod stats;

pub use async_engine::{AsyncConfig, AsyncEngine};
pub use chaos::{ChaosPlan, CutWindow};
pub use engine::{Engine, SimError};
pub use legacy::LegacyEngine;
pub use process::{Ctx, NodeProcess};
pub use stats::{RoundLog, SimStats};
