//! The workspace's *single* audited concurrency surface.
//!
//! Five crates used to hand-roll the same std-only pattern — scoped
//! worker threads pulling work off an `AtomicUsize` cursor, per-worker
//! result buffers merged back in claim order so threaded output is
//! bit-identical to serial. Five copies meant five places a subtle
//! claim/merge bug could hide, and nothing stopping a sixth copy from
//! drifting. This crate shrinks that surface to one implementation:
//!
//! * [`WorkQueue`] — the chunked atomic-cursor queue every threaded
//!   scan in the workspace routes through ([`WorkQueue::run`],
//!   [`WorkQueue::run_with`] for worker-local scratch state,
//!   [`WorkQueue::run_owned`] for pre-partitioned `&mut` work items).
//! * [`configured_threads_for`] — the one thread-count policy behind
//!   every `SP_*_THREADS` knob (explicit env pin, else
//!   [`default_threads`], the host's available parallelism).
//! * [`EpochCell`] — the epoch-versioned `Arc` snapshot slot behind
//!   `sp_core`'s `RoutingService`: writers publish fully-formed values
//!   (fill-then-publish), readers pin `(epoch, Arc)` pairs wait-free in
//!   the steady state.
//! * [`LatencyHistogram`] — the one latency estimator: a fixed
//!   log-linear bucket histogram that records without allocating,
//!   merges per-worker histograms exactly and reads nearest-rank
//!   quantiles within 1/128. The server's `STATS` percentiles and the
//!   benches' latency rows both come from it; it lives here because
//!   this is the one crate `sp-serve` and `sp-bench` both depend on.
//! * [`knobs`] — the declared registry of every `SP_*` environment
//!   variable the workspace reads. `sp-analyze` fails CI when a knob
//!   is read outside this registry or missing from the README.
//! * [`lock_recover`] / [`wait_timeout_recover`] — the one poison
//!   recovery for `std` locks whose guarded data stays valid at every
//!   step, so a panicked worker cannot wedge the others.
//! * [`check`] — a vendored mini-loom: a deterministic, exhaustive
//!   interleaving explorer that model-checks the claim/merge protocol
//!   (and the other lock-free idioms the routing stack relies on)
//!   across every schedule of 2–3 modeled threads.
//!
//! The crate is intentionally dependency-free and `std`-only, like the
//! rest of the workspace.

pub mod check;
mod epoch;
mod histogram;
pub mod knobs;
mod queue;
mod recover;

pub use epoch::{EpochCell, Pinned};
pub use histogram::LatencyHistogram;
pub use knobs::{configured_threads_for, default_threads, env_flag, env_var};
pub use queue::WorkQueue;
pub use recover::{lock_recover, wait_timeout_recover};
