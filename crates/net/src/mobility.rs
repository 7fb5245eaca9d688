//! Node mobility — the random-waypoint model.
//!
//! §1 of the paper lists "node mobility" among the dynamic factors that
//! create local minima at runtime. This module supplies the standard
//! random-waypoint generator so the harness can measure how fast the
//! safety information goes stale as nodes move (experiment A13): each
//! node picks a uniform waypoint in the interest area, travels toward it
//! at a uniformly-drawn speed, pauses, and repeats.
//!
//! The walker is deterministic per seed and steps in continuous time, so
//! topology snapshots can be taken at any elapsed time.

use crate::{Network, NodeId, PositionTable};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sp_geom::{Point, Rect, Vec2};
use std::sync::Arc;

/// Per-node motion state.
#[derive(Debug, Clone, Copy)]
struct Motion {
    pos: Point,
    waypoint: Point,
    speed: f64,
    pause_left: f64,
}

/// A seeded random-waypoint mobility process over a fixed node set.
///
/// ```
/// use sp_net::{deploy::DeploymentConfig, mobility::RandomWaypoint, Network};
///
/// let cfg = DeploymentConfig::paper_default(100);
/// let start = cfg.deploy_uniform(7);
/// let mut rw = RandomWaypoint::new(start.clone(), cfg.area, cfg.radius, 0.5, 1.5, 0.0, 7);
/// rw.step(10.0);
/// let net = rw.snapshot();
/// assert_eq!(net.len(), 100);
/// // Nobody moved farther than max speed x elapsed time.
/// for (a, b) in start.iter().zip(rw.positions()) {
///     assert!(a.distance(b) <= 1.5 * 10.0 + 1e-9);
/// }
/// ```
#[derive(Debug)]
pub struct RandomWaypoint {
    area: Rect,
    radius: f64,
    speed_min: f64,
    speed_max: f64,
    pause: f64,
    rng: StdRng,
    motions: Vec<Motion>,
    elapsed: f64,
    // Reused position buffer for full snapshots: the per-call Vec
    // allocation is amortized away; only the unavoidable Arc copy the
    // Network takes ownership of remains.
    scratch: PositionTable,
    // The incrementally-maintained topology behind snapshot_incremental.
    cache: Option<Network>,
}

impl RandomWaypoint {
    /// Starts the process at `positions` inside `area` with
    /// communication `radius` (taken once here so every snapshot shares
    /// it), speeds uniform in `[speed_min, speed_max]` (distance per
    /// time unit), and a fixed `pause` at each waypoint.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive, the speed range is
    /// empty or non-positive, or `pause` is negative.
    pub fn new(
        positions: Vec<Point>,
        area: Rect,
        radius: f64,
        speed_min: f64,
        speed_max: f64,
        pause: f64,
        seed: u64,
    ) -> RandomWaypoint {
        assert!(radius > 0.0, "communication radius must be positive");
        assert!(
            speed_min > 0.0 && speed_max >= speed_min,
            "speed range must satisfy 0 < min <= max"
        );
        assert!(pause >= 0.0, "pause must be non-negative");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0b11_e00b_11e0);
        let motions: Vec<Motion> = positions
            .into_iter()
            .map(|pos| {
                let waypoint = sample_in(&mut rng, area);
                let speed = sample_speed(&mut rng, speed_min, speed_max);
                Motion {
                    pos,
                    waypoint,
                    speed,
                    pause_left: 0.0,
                }
            })
            .collect();
        RandomWaypoint {
            area,
            radius,
            speed_min,
            speed_max,
            pause,
            rng,
            motions,
            elapsed: 0.0,
            scratch: PositionTable::new(),
            cache: None,
        }
    }

    /// Total time advanced so far.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// The communication radius every snapshot is built with.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Current node positions (same ids as the initial vector).
    pub fn positions(&self) -> Vec<Point> {
        self.motions.iter().map(|m| m.pos).collect()
    }

    /// Advances every node by `dt` time units.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative.
    // sp-analyze: allow(index, motions/positions are sized to the node count and i ranges over motions.len())
    pub fn step(&mut self, dt: f64) {
        assert!(dt >= 0.0, "time must not run backward");
        self.elapsed += dt;
        for i in 0..self.motions.len() {
            let mut remaining = dt;
            while remaining > 0.0 {
                let m = &mut self.motions[i];
                if m.pause_left > 0.0 {
                    let wait = m.pause_left.min(remaining);
                    m.pause_left -= wait;
                    remaining -= wait;
                    continue;
                }
                let to_goal = m.waypoint - m.pos;
                let dist = to_goal.norm();
                let reach = m.speed * remaining;
                if reach < dist {
                    // Travel and stop mid-leg.
                    let dir = Vec2::new(to_goal.x / dist, to_goal.y / dist);
                    m.pos = Point::new(m.pos.x + dir.x * reach, m.pos.y + dir.y * reach);
                    remaining = 0.0;
                } else {
                    // Arrive, pause, pick the next leg.
                    m.pos = m.waypoint;
                    remaining -= if m.speed > 0.0 { dist / m.speed } else { 0.0 };
                    m.pause_left = self.pause;
                    m.waypoint = sample_in(&mut self.rng, self.area);
                    m.speed = sample_speed(&mut self.rng, self.speed_min, self.speed_max);
                }
            }
        }
    }

    /// A unit-disk-graph snapshot of the current positions, rebuilt
    /// from scratch.
    ///
    /// Each snapshot re-buckets the positions through a fresh
    /// [`sp_net::SpatialIndex`](crate::SpatialIndex) (inside
    /// [`Network::from_position_table`]), so it stays `O(n · k)` per
    /// tick rather than `O(n²)`; the position buffer is reused across
    /// calls. For frequent snapshots of a large network prefer
    /// [`RandomWaypoint::snapshot_incremental`], which only pays for
    /// the nodes that moved.
    pub fn snapshot(&mut self) -> Network {
        self.scratch.clear();
        for m in &self.motions {
            self.scratch.push(m.pos);
        }
        let shared = Arc::new(self.scratch.clone());
        Network::from_position_table(shared, self.radius, self.area)
    }

    /// The unit-disk-graph snapshot of the current positions,
    /// maintained *incrementally*: the first call builds the topology
    /// once, every later call relocates only the nodes that moved since
    /// the previous call ([`Network::apply_moves`]) — `m` range queries
    /// and one arena copy for `m` movers instead of the full rebuild's
    /// `n` range queries, the win
    /// that makes dense mobility sweeps affordable (§1's "node
    /// mobility" dynamic factor at 10⁴–10⁵ nodes).
    ///
    /// The returned topology is identical to
    /// [`RandomWaypoint::snapshot`] at the same elapsed time.
    pub fn snapshot_incremental(&mut self) -> &Network {
        match &mut self.cache {
            Some(net) => {
                let moves: Vec<(NodeId, Point)> = self
                    .motions
                    .iter()
                    .enumerate()
                    .filter(|&(i, m)| net.position(NodeId::new(i)) != m.pos)
                    .map(|(i, m)| (NodeId::new(i), m.pos))
                    .collect();
                if !moves.is_empty() {
                    net.apply_moves(&moves);
                }
            }
            None => {
                let positions: Vec<Point> = self.motions.iter().map(|m| m.pos).collect();
                self.cache = Some(Network::from_positions(positions, self.radius, self.area));
            }
        }
        self.cache.as_ref().expect("cache was just populated") // sp-analyze: allow(panic, the branch above fills the cache when empty)
    }
}

fn sample_in(rng: &mut StdRng, area: Rect) -> Point {
    Point::new(
        rng.random_range(area.min().x..=area.max().x),
        rng.random_range(area.min().y..=area.max().y),
    )
}

fn sample_speed(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    if lo == hi {
        lo
    } else {
        rng.random_range(lo..hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeploymentConfig;

    fn start(n: usize, seed: u64) -> (Vec<Point>, Rect) {
        let cfg = DeploymentConfig::paper_default(n);
        (cfg.deploy_uniform(seed), cfg.area)
    }

    #[test]
    fn nodes_never_leave_the_area() {
        let (pos, area) = start(80, 1);
        let mut rw = RandomWaypoint::new(pos, area, 20.0, 1.0, 3.0, 0.5, 1);
        for _ in 0..50 {
            rw.step(2.5);
            for p in rw.positions() {
                assert!(area.contains(p), "{p} escaped {area}");
            }
        }
        assert!((rw.elapsed() - 125.0).abs() < 1e-9);
    }

    #[test]
    fn displacement_respects_speed_limit() {
        let (pos, area) = start(60, 2);
        let mut rw = RandomWaypoint::new(pos.clone(), area, 20.0, 0.5, 2.0, 0.0, 2);
        rw.step(7.0);
        for (a, b) in pos.iter().zip(rw.positions()) {
            // Path length >= displacement, so displacement <= v_max * t.
            assert!(a.distance(b) <= 2.0 * 7.0 + 1e-9);
        }
    }

    #[test]
    fn same_seed_same_trajectory() {
        let (pos, area) = start(40, 3);
        let mut a = RandomWaypoint::new(pos.clone(), area, 20.0, 1.0, 2.0, 1.0, 9);
        let mut b = RandomWaypoint::new(pos, area, 20.0, 1.0, 2.0, 1.0, 9);
        a.step(13.0);
        b.step(13.0);
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn stepping_in_pieces_equals_one_big_step() {
        let (pos, area) = start(40, 4);
        let mut a = RandomWaypoint::new(pos.clone(), area, 20.0, 1.0, 2.0, 0.5, 11);
        let mut b = RandomWaypoint::new(pos, area, 20.0, 1.0, 2.0, 0.5, 11);
        a.step(9.0);
        for _ in 0..9 {
            b.step(1.0);
        }
        // Waypoint resampling consumes RNG draws in arrival order, which
        // is identical for both; positions must agree to float noise.
        for (pa, pb) in a.positions().iter().zip(b.positions()) {
            assert!(pa.distance(pb) < 1e-6, "{pa} vs {pb}");
        }
    }

    #[test]
    fn pause_keeps_nodes_still() {
        let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        // One node already at its waypoint-to-be: after arrival it must
        // hold for `pause` time.
        let mut rw = RandomWaypoint::new(vec![Point::new(5.0, 5.0)], area, 5.0, 1.0, 1.0, 100.0, 5);
        rw.step(30.0); // long enough to arrive at the first waypoint
        let at_arrival = rw.positions()[0];
        rw.step(10.0); // well inside the 100-unit pause
        assert_eq!(rw.positions()[0], at_arrival);
    }

    #[test]
    fn snapshot_changes_topology_over_time() {
        let (pos, area) = start(150, 6);
        let mut rw = RandomWaypoint::new(pos, area, 20.0, 1.0, 3.0, 0.0, 6);
        let before = rw.snapshot();
        rw.step(60.0);
        let after = rw.snapshot();
        let before_edges: std::collections::BTreeSet<_> = before.edges().collect();
        let after_edges: std::collections::BTreeSet<_> = after.edges().collect();
        assert_ne!(
            before_edges, after_edges,
            "an hour of motion rewires the UDG"
        );
    }

    #[test]
    fn incremental_snapshot_equals_full_rebuild() {
        let (pos, area) = start(250, 8);
        let mut rw = RandomWaypoint::new(pos, area, 20.0, 1.0, 3.0, 0.5, 8);
        for tick in 0..8 {
            let full = rw.snapshot();
            let inc = rw.snapshot_incremental();
            assert_eq!(inc.len(), full.len(), "tick {tick}");
            for u in full.node_ids() {
                assert_eq!(inc.position(u), full.position(u), "tick {tick}, node {u}");
                assert_eq!(inc.neighbors(u), full.neighbors(u), "tick {tick}, node {u}");
            }
            rw.step(5.0);
        }
    }

    #[test]
    fn incremental_snapshot_without_motion_is_stable() {
        let (pos, area) = start(60, 12);
        let mut rw = RandomWaypoint::new(pos, area, 20.0, 1.0, 2.0, 0.0, 12);
        rw.step(3.0);
        let edges: std::collections::BTreeSet<_> = rw.snapshot_incremental().edges().collect();
        // No step in between: the cached topology is returned unchanged.
        let again: std::collections::BTreeSet<_> = rw.snapshot_incremental().edges().collect();
        assert_eq!(edges, again);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_rejected() {
        let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let _ = RandomWaypoint::new(vec![Point::new(0.5, 0.5)], area, 0.0, 1.0, 2.0, 0.0, 0);
    }

    #[test]
    #[should_panic(expected = "speed range")]
    fn zero_speed_rejected() {
        let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let _ = RandomWaypoint::new(vec![Point::new(0.5, 0.5)], area, 1.0, 0.0, 1.0, 0.0, 0);
    }
}
