//! Baseline geographic routings for the straightpath reproduction.
//!
//! The paper's evaluation (§5) compares SLGF2 against three schemes; two
//! live in `sp-core` (LGF, SLGF). This crate supplies the third and its
//! substrate, both re-implemented from their original publications:
//!
//! * [`tent`] — the TENT rule of Fang, Gao & Guibas: local detection of
//!   stuck nodes (120° angular-gap test);
//! * [`boundhole`] — BOUNDHOLE: closed hole-boundary construction from
//!   every stuck node, deduplicated into a [`HoleAtlas`];
//! * [`gf`] — the GF baseline: greedy forwarding with hole-boundary
//!   recovery (and a Gabriel-face fallback/alternative);
//! * [`face`] — GFG/GPSR: greedy forwarding with *full* planar face
//!   routing (face changes included), the guaranteed-delivery scheme of
//!   Bose et al. \[2\] that the paper's perimeter phase descends from;
//! * [`hybrid`] — SLGF2-F: Algorithm 3 with the untried-sweep perimeter
//!   replaced by the FACE-2 walk — the paper's §6 future-work direction,
//!   realized (ablation A12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boundhole;
pub mod face;
pub mod gf;
pub mod hybrid;
pub mod tent;

pub use boundhole::{pivot_ccw, pivot_dir, Boundary, HoleAtlas};
pub use face::GfgRouter;
pub use gf::{GfRouter, RecoveryMode};
pub use hybrid::Slgf2FaceRouter;
pub use tent::{is_stuck_node, stuck_nodes, wide_gaps, AngularGap, TENT_THRESHOLD};
