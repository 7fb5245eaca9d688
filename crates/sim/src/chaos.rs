//! Composable failure injection: the [`ChaosPlan`].
//!
//! §1 of the paper motivates unsafe areas with "node failures, signal
//! fading, communication jamming, power exhaustion, interference, and
//! node mobility". A [`ChaosPlan`] is the simulators' one failure
//! model, with four composable failure classes:
//!
//! 1. **Outages** — scheduled node kills (including correlated regional
//!    bursts, built by the experiment layer from geometry).
//! 2. **Partitions** — [`CutWindow`]s that sever every link crossing a
//!    cut line for a window of rounds.
//! 3. **Lossy links** — a per-delivery Bernoulli drop probability plus
//!    delay jitter (the jitter applies to the asynchronous engine's
//!    event heap; the round engine is lock-step and ignores it).
//! 4. **Flapping** — scheduled *revivals* that rejoin previously-killed
//!    nodes, re-announcing through [`crate::NodeProcess::on_rejoin`] so
//!    incremental re-labeling reacts.
//!
//! Both engines apply the link classes through one crate-private rule,
//! `LinkChaos`: the plan bound to a **dedicated RNG stream** seeded by
//! [`ChaosPlan::seed`], never the engines' own RNGs. Per message copy it
//! answers whether the copy is lost (an active cut first, then the drop
//! draw) and how much jitter it gets. Every class short-circuits when
//! inactive, so a plan at rate 0 (no events, `drop_p == 0`) is
//! bit-identical to running with no plan at all.
//!
//! Snapshot consumers — sweeps, figures and the routing service — see
//! the plan's state at one round instead: [`ChaosPlan::delta`] is the
//! [`TopologyDelta`] that takes a network to the nodes down and the cut
//! chords open at that round, applied by the one topology repair of
//! [`Network::derive`] like any mobility batch.
//!
//! ```
//! use sp_net::NodeId;
//! use sp_sim::ChaosPlan;
//!
//! let mut chaos = ChaosPlan::new().with_drop(0.01);
//! chaos.kill_at(3, NodeId(7));
//! chaos.revive_at(9, NodeId(7)); // flap: down at round 3, back at 9
//! assert_eq!(chaos.kills_due_at(3), &[NodeId(7)]);
//! assert_eq!(chaos.revivals_due_at(9), &[NodeId(7)]);
//! assert_eq!(chaos.last_round(), Some(9));
//! ```

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sp_geom::{Point, Segment};
use sp_net::{Network, NodeId, TopologyDelta};
use std::collections::BTreeMap;

/// One partition event: every link whose segment crosses the cut line
/// `a`–`b` is severed for rounds in `[from_round, until_round)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CutWindow {
    /// One endpoint of the cut line.
    pub a: Point,
    /// The other endpoint of the cut line.
    pub b: Point,
    /// First round (inclusive) the cut is active.
    pub from_round: usize,
    /// First round the cut is no longer active (exclusive).
    pub until_round: usize,
}

impl CutWindow {
    /// Whether the cut is active at `round`.
    pub fn active_at(&self, round: usize) -> bool {
        (self.from_round..self.until_round).contains(&round)
    }

    /// Whether the link `pa`–`pb` crosses this cut line.
    pub fn severs(&self, pa: Point, pb: Point) -> bool {
        Segment::new(self.a, self.b).intersects(&Segment::new(pa, pb))
    }
}

/// A sparse round → nodes schedule: rounds ascending, nodes sorted and
/// unique within a round, so lookups are binary searches and every
/// order is deterministic regardless of scheduling order.
#[derive(Debug, Clone, Default)]
struct Schedule(Vec<(usize, Vec<NodeId>)>);

impl Schedule {
    fn insert(&mut self, round: usize, node: NodeId) {
        match self.0.binary_search_by_key(&round, |e| e.0) {
            Ok(i) => {
                if let Err(j) = self.0[i].1.binary_search(&node) {
                    self.0[i].1.insert(j, node);
                }
            }
            Err(i) => self.0.insert(i, (round, vec![node])),
        }
    }

    fn due_at(&self, round: usize) -> &[NodeId] {
        match self.0.binary_search_by_key(&round, |e| e.0) {
            Ok(i) => &self.0[i].1,
            Err(_) => &[],
        }
    }

    fn last_round(&self) -> Option<usize> {
        self.0.last().map(|e| e.0)
    }

    fn merge(&mut self, other: &Schedule) {
        for (round, nodes) in &other.0 {
            for &node in nodes {
                self.insert(*round, node);
            }
        }
    }

    /// Each scheduled node's latest round at or before `round`.
    fn latest_by(&self, round: usize) -> BTreeMap<NodeId, usize> {
        let mut latest = BTreeMap::new();
        for (r, nodes) in self.0.iter().take_while(|e| e.0 <= round) {
            for &node in nodes {
                latest.insert(node, *r);
            }
        }
        latest
    }
}

/// A composable failure-injection schedule: kills, revivals, partition
/// cuts, per-delivery drop probability, and async delay jitter.
///
/// The plan is pure data. The engines sample its drops and jitter
/// through one link rule that binds the plan to an RNG seeded from
/// [`ChaosPlan::seed`], so the same plan replays identically on any
/// engine and at any thread count.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    seed: u64,
    kills: Schedule,
    revivals: Schedule,
    drop_p: f64,
    jitter: f64,
    cuts: Vec<CutWindow>,
}

impl ChaosPlan {
    /// An empty plan: injects nothing, perturbs nothing.
    pub fn new() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Sets the seed of the dedicated chaos RNG stream.
    pub fn with_seed(mut self, seed: u64) -> ChaosPlan {
        self.seed = seed;
        self
    }

    /// Sets the per-delivery drop probability (class 3, lossy links).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_drop(mut self, p: f64) -> ChaosPlan {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0, 1]"
        );
        self.drop_p = p;
        self
    }

    /// Sets the extra per-message delay jitter (asynchronous engine
    /// only; time units, uniform in `[0, jitter]`).
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is negative.
    pub fn with_jitter(mut self, jitter: f64) -> ChaosPlan {
        assert!(jitter >= 0.0, "jitter {jitter} must be non-negative");
        self.jitter = jitter;
        self
    }

    /// Schedules `victim` to fail at the start of `round` (class 1).
    /// Duplicates collapse; victims within a round stay sorted.
    pub fn kill_at(&mut self, round: usize, victim: NodeId) {
        self.kills.insert(round, victim);
    }

    /// Schedules `node` to rejoin at the start of `round` (class 4).
    /// Duplicates collapse; nodes within a round stay sorted.
    pub fn revive_at(&mut self, round: usize, node: NodeId) {
        self.revivals.insert(round, node);
    }

    /// Adds a partition cut window (class 2).
    pub fn add_cut(&mut self, cut: CutWindow) {
        self.cuts.push(cut);
    }

    /// The chaos RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rounds with scheduled kills, ascending, with their victims.
    pub fn kills(&self) -> &[(usize, Vec<NodeId>)] {
        &self.kills.0
    }

    /// Kills due at `round`.
    pub fn kills_due_at(&self, round: usize) -> &[NodeId] {
        self.kills.due_at(round)
    }

    /// Revivals due at `round`.
    pub fn revivals_due_at(&self, round: usize) -> &[NodeId] {
        self.revivals.due_at(round)
    }

    /// Rounds with scheduled revivals, ascending, with their nodes.
    pub fn revivals(&self) -> &[(usize, Vec<NodeId>)] {
        &self.revivals.0
    }

    /// The per-delivery drop probability.
    pub fn drop_p(&self) -> f64 {
        self.drop_p
    }

    /// The asynchronous delay jitter bound.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// The partition cut windows.
    pub fn cuts(&self) -> &[CutWindow] {
        &self.cuts
    }

    /// True when the plan injects nothing at all: a plan for which
    /// every engine must behave bit-identically to having no plan.
    pub fn is_quiet(&self) -> bool {
        self.kills.0.is_empty()
            && self.revivals.0.is_empty()
            && self.cuts.is_empty()
            && self.drop_p == 0.0
            && self.jitter == 0.0
    }

    /// Whether any link-level chaos (drop or an active cut) applies at
    /// `round` — the engines' cheap gate around the delivery-path hook.
    pub fn links_perturbed_at(&self, round: usize) -> bool {
        self.drop_p > 0.0 || self.cuts.iter().any(|c| c.active_at(round))
    }

    /// Whether an active cut severs the link `pa`–`pb` at `round`.
    pub fn severed_at(&self, round: usize, pa: Point, pb: Point) -> bool {
        self.cuts
            .iter()
            .any(|c| c.active_at(round) && c.severs(pa, pb))
    }

    /// Nodes down as of the end of `round`: every kill scheduled at or
    /// before it whose victim has not been revived since. A revival in
    /// the same round as the kill wins (engines fire revivals after
    /// kills), so a same-round flap leaves the node alive. Sorted by id.
    ///
    /// This is the *cumulative* view snapshot-based consumers need (the
    /// routing service derives its degraded epochs from it, through
    /// [`ChaosPlan::delta`]), as opposed to the per-round deltas the
    /// engines consume via [`ChaosPlan::kills_due_at`] /
    /// [`ChaosPlan::revivals_due_at`].
    pub fn dead_as_of(&self, round: usize) -> Vec<NodeId> {
        let last_revive = self.revivals.latest_by(round);
        self.kills
            .latest_by(round)
            .into_iter()
            .filter(|(v, k)| last_revive.get(v).is_none_or(|r| r < k))
            .map(|(v, _)| v)
            .collect()
    }

    /// The chords of the cuts active at `round`, in plan order.
    pub fn chords_at(&self, round: usize) -> Vec<Segment> {
        (self.cuts.iter())
            .filter(|c| c.active_at(round))
            .map(|c| Segment::new(c.a, c.b))
            .collect()
    }

    /// The [`TopologyDelta`] that takes `net` to the plan's state at
    /// `round`: down exactly the nodes [`ChaosPlan::dead_as_of`] names
    /// and open exactly the chords of the cuts active then, whatever
    /// `net` had down or open before.
    pub fn delta(&self, net: &Network, round: usize) -> TopologyDelta {
        net.delta_to(&self.dead_as_of(round), &self.chords_at(round))
    }

    /// The last round with a scheduled node event (kill or revival) —
    /// engines must keep stepping at least this far. Cuts and drops do
    /// not contribute: they only gate deliveries of messages already in
    /// flight, so with nothing pending they cause nothing to happen.
    pub fn last_round(&self) -> Option<usize> {
        self.kills.last_round().max(self.revivals.last_round())
    }

    /// Folds `other` into `self`: kills, revivals, and cuts append;
    /// drop probabilities combine as independent losses
    /// (`1 - (1-p)(1-q)`); jitters add. The seed of `self` wins.
    pub fn merge(&mut self, other: &ChaosPlan) {
        self.kills.merge(&other.kills);
        self.revivals.merge(&other.revivals);
        self.cuts.extend(other.cuts.iter().cloned());
        self.drop_p = 1.0 - (1.0 - self.drop_p) * (1.0 - other.drop_p);
        self.jitter += other.jitter;
    }
}

/// A [`ChaosPlan`] bound to the RNG that samples its drops and jitter:
/// the one link rule both engines apply to every message copy.
pub(crate) struct LinkChaos {
    plan: ChaosPlan,
    /// Seeded only when the plan drops or jitters.
    rng: Option<StdRng>,
}

impl LinkChaos {
    pub(crate) fn new(plan: ChaosPlan) -> LinkChaos {
        let rng = (plan.drop_p > 0.0 || plan.jitter > 0.0)
            .then(|| StdRng::seed_from_u64(plan.seed ^ 0xc4a0_5eed));
        LinkChaos { plan, rng }
    }

    pub(crate) fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Whether the copy sent from `a` to `b` is lost at `round`: an
    /// active cut severs it without a draw; otherwise one Bernoulli
    /// draw decides a drop.
    pub(crate) fn lost(&mut self, round: usize, a: Point, b: Point) -> bool {
        if self.plan.severed_at(round, a, b) {
            return true;
        }
        let p = self.plan.drop_p;
        p > 0.0 && self.rng.as_mut().is_some_and(|rng| rng.random_bool(p))
    }

    /// The extra delay of one copy: uniform in `[0, jitter)`, or 0
    /// (with no draw) when the plan has no jitter.
    pub(crate) fn jitter(&mut self) -> f64 {
        match self.rng.as_mut() {
            Some(rng) if self.plan.jitter > 0.0 => rng.random_range(0.0..self.plan.jitter),
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_reports_no_activity() {
        let plan = ChaosPlan::new();
        assert!(plan.is_quiet());
        assert_eq!(plan.last_round(), None);
        assert!(!plan.links_perturbed_at(0));
        assert!(plan.kills_due_at(5).is_empty());
        assert!(plan.revivals_due_at(5).is_empty());
    }

    #[test]
    fn revivals_sort_and_collapse() {
        let mut plan = ChaosPlan::new();
        plan.revive_at(4, NodeId(9));
        plan.revive_at(4, NodeId(2));
        plan.revive_at(4, NodeId(9));
        plan.revive_at(2, NodeId(1));
        assert_eq!(plan.revivals_due_at(4), &[NodeId(2), NodeId(9)]);
        assert_eq!(plan.revivals_due_at(2), &[NodeId(1)]);
        assert_eq!(plan.last_round(), Some(4));
    }

    #[test]
    fn cut_windows_sever_crossing_links_only_while_active() {
        let mut plan = ChaosPlan::new();
        plan.add_cut(CutWindow {
            a: Point::new(5.0, -10.0),
            b: Point::new(5.0, 10.0),
            from_round: 2,
            until_round: 5,
        });
        let west = Point::new(0.0, 0.0);
        let east = Point::new(10.0, 0.0);
        assert!(plan.severed_at(2, west, east));
        assert!(plan.severed_at(4, west, east));
        assert!(!plan.severed_at(5, west, east), "window is half-open");
        assert!(!plan.severed_at(1, west, east));
        // A link on one side of the cut survives.
        assert!(!plan.severed_at(3, west, Point::new(4.0, 3.0)));
        assert!(plan.links_perturbed_at(3));
        assert!(!plan.links_perturbed_at(7));
        assert_eq!(plan.last_round(), None, "cuts schedule no node events");
    }

    #[test]
    fn merge_composes_classes() {
        let mut region = ChaosPlan::new();
        region.kill_at(5, NodeId(1));
        let drops = ChaosPlan::new().with_drop(0.5);
        let mut flap = ChaosPlan::new();
        flap.kill_at(5, NodeId(1)); // overlapping kill collapses
        flap.revive_at(9, NodeId(1));
        let mut plan = region;
        plan.merge(&drops);
        plan.merge(&flap);
        plan.merge(&ChaosPlan::new().with_drop(0.5).with_jitter(1.0));
        assert_eq!(plan.kills().len(), 1);
        assert_eq!(plan.revivals_due_at(9), &[NodeId(1)]);
        assert!((plan.drop_p() - 0.75).abs() < 1e-12);
        assert_eq!(plan.jitter(), 1.0);
        assert_eq!(plan.last_round(), Some(9));
    }

    #[test]
    fn dead_as_of_tracks_flapping() {
        let mut plan = ChaosPlan::new();
        plan.kill_at(2, NodeId(5));
        plan.kill_at(2, NodeId(9));
        plan.revive_at(4, NodeId(5));
        plan.kill_at(6, NodeId(5));
        plan.kill_at(7, NodeId(3));
        plan.revive_at(7, NodeId(3)); // same-round flap: revival wins
        assert_eq!(plan.dead_as_of(1), Vec::<NodeId>::new());
        assert_eq!(plan.dead_as_of(2), vec![NodeId(5), NodeId(9)]);
        assert_eq!(plan.dead_as_of(4), vec![NodeId(9)]);
        assert_eq!(plan.dead_as_of(6), vec![NodeId(5), NodeId(9)]);
        assert_eq!(plan.dead_as_of(7), vec![NodeId(5), NodeId(9)]);
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn drop_probability_is_validated() {
        let _ = ChaosPlan::new().with_drop(1.5);
    }
}
