//! SLGF2 routing — Algorithm 3, the paper's contribution.
//!
//! The phases, in priority order at every intermediate node:
//!
//! 1. **Direct delivery** (Algo. 1 step 1).
//! 2. **Safe forwarding**: a request-zone candidate that is safe toward
//!    the destination from its own position (`S_k̄(v) = 1`).
//! 3. **Either-hand superseding rule** (contribution (a)): among safe
//!    candidates, prefer those outside every unsafe-area estimate
//!    `E_i(v)` collected from `u` and its neighbors; in the
//!    hand-committed phases below, the estimate decides which hand the
//!    packet commits to ([`crate::choose_hand`]).
//! 4. **Backup-path forwarding**: with no safe successor, escort the
//!    packet around the unsafe area through neighbors that are safe in
//!    *some* type (`∃ S_i(v) > 0`), committing to one hand rule until a
//!    safe forwarding is found again (contribution (b)).
//! 5. **Perimeter routing**: the last resort; either-hand, sticky until
//!    the destination is reached (contribution (c): the committed hand
//!    plus the rectangular estimates keep it near the unsafe area).

use crate::{
    choose_hand, greedy_pick, hand_first, zone_candidates, Hand, Mode, PacketState, RoutePhase,
    Routing, SafetyInfo,
};
use sp_geom::{Quadrant, Rect};
use sp_net::{Network, NodeId};

/// Algorithm 3: safety-information routing with shape estimates.
///
/// The two extensions over SLGF can be disabled individually for the
/// ablations A3/A4 (`repro-figures a3` and `a4`):
/// [`Slgf2Router::without_superseding`] and
/// [`Slgf2Router::without_backup`].
///
/// ```
/// use sp_core::{SafetyInfo, Slgf2Router, Routing};
/// use sp_net::{deploy::DeploymentConfig, Network, NodeId};
///
/// let cfg = DeploymentConfig::paper_default(450);
/// let net = Network::from_positions(cfg.deploy_uniform(3), cfg.radius, cfg.area);
/// let info = SafetyInfo::build(&net);
/// let r = Slgf2Router::new(&info).route(&net, NodeId(10), NodeId(20));
/// assert_eq!(r.path.first(), Some(&NodeId(10)));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Slgf2Router<'a> {
    info: &'a SafetyInfo,
    superseding: bool,
    backup: bool,
}

impl<'a> Slgf2Router<'a> {
    /// Creates the full Algorithm-3 router.
    pub fn new(info: &'a SafetyInfo) -> Slgf2Router<'a> {
        Slgf2Router {
            info,
            superseding: true,
            backup: true,
        }
    }

    /// Ablation A3: drop the either-hand superseding rule (step 3).
    pub fn without_superseding(mut self) -> Slgf2Router<'a> {
        self.superseding = false;
        self
    }

    /// Ablation A4: drop the backup-path phase (step 4); unsafe
    /// neighborhoods fall straight through to perimeter routing.
    pub fn without_backup(mut self) -> Slgf2Router<'a> {
        self.backup = false;
        self
    }

    /// The safety information in use.
    pub fn info(&self) -> &SafetyInfo {
        self.info
    }

    /// Active unsafe-area rectangles near `u` — every estimate collected
    /// from `u` or a neighbor whose blocked type points at `d` — written
    /// into the caller's retained-capacity scratch vector.
    fn nearby_estimates_into(&self, net: &Network, u: NodeId, d: NodeId, out: &mut Vec<Rect>) {
        let pd = net.position(d);
        out.clear();
        out.extend(
            std::iter::once(u)
                .chain(net.neighbors(u).iter().copied())
                .filter_map(|w| {
                    let q = Quadrant::of(net.position(w), pd)?;
                    self.info.estimate(w, q).map(|est| est.rect)
                }),
        );
    }

    /// Safe forwarding (steps 2+3): zone candidates safe toward `d`,
    /// superseding-preferred, then greedy-closest.
    ///
    /// The superseding preference here uses the estimate *rectangles*:
    /// by Theorem 2 a type-`i` forwarding is blocked iff it uses a node
    /// inside `E_i(v)`, so candidates strictly inside a neighboring
    /// estimate are deprioritized. The paper's critical/forbidden split
    /// acts only in the *hand-committed* phases, as the hand
    /// [`choose_hand`] commits to: no half-plane region is tested here,
    /// because deflecting provably-safe candidates off the greedy line
    /// only lengthens the path.
    /// The candidate/rect vectors live in `pkt.scratch` (cleared, never
    /// shrunk), so a warm [`crate::RouteBuffer`] makes this hop
    /// allocation-free.
    fn safe_pick(&self, net: &Network, pkt: &mut PacketState) -> Option<NodeId> {
        let (u, d) = (pkt.current, pkt.dst);
        let pd = net.position(d);
        let scratch = &mut pkt.scratch;
        scratch.ids.clear();
        scratch.ids.extend(zone_candidates(net, u, d).filter(|&v| {
            match Quadrant::of(net.position(v), pd) {
                None => true, // co-located with d: next hop delivers
                Some(k_bar) => self.info.is_safe(v, k_bar),
            }
        }));
        if scratch.ids.is_empty() {
            return None;
        }
        if self.superseding {
            self.nearby_estimates_into(net, u, d, &mut scratch.rects);
            if !scratch.rects.is_empty() {
                let rects = &scratch.rects;
                scratch.filtered.clear();
                scratch
                    .filtered
                    .extend(scratch.ids.iter().copied().filter(|&v| {
                        let pv = net.position(v);
                        !rects.iter().any(|r| r.contains_strict(pv))
                    }));
                if !scratch.filtered.is_empty() {
                    return greedy_pick(net, d, scratch.filtered.iter().copied());
                }
            }
        }
        greedy_pick(net, d, scratch.ids.iter().copied())
    }

    /// Commits a hand for the current episode: prefer the estimate of
    /// `u` itself (it is usually the type-`k` unsafe node being
    /// escaped), then any unsafe neighbor's estimate, else the
    /// right-hand default. With the superseding rule ablated (A3) the
    /// estimates are ignored and the paper's right-hand tradition is
    /// used unconditionally.
    fn pick_hand(&self, net: &Network, u: NodeId, d: NodeId) -> Hand {
        if !self.superseding {
            return Hand::Ccw;
        }
        let pu = net.position(u);
        let pd = net.position(d);
        std::iter::once(u)
            .chain(net.neighbors(u).iter().copied())
            .find_map(|w| {
                let q = Quadrant::of(net.position(w), pd)?;
                let est = self.info.estimate(w, q)?;
                Some(choose_hand(pu, pd, est))
            })
            .unwrap_or(Hand::Ccw)
    }

    /// First untried candidate in the committed hand's rotation order.
    /// The hand itself is where the superseding rule acts in these
    /// phases: [`choose_hand`] puts the traversal on the destination's
    /// side of the blocking estimate, and the packet then sticks with
    /// it — re-sorting candidates against the regions at every hop
    /// would reintroduce exactly the oscillation Algo. 3 forbids. The
    /// hand is committed only when a candidate exists.
    fn hand_step(
        &self,
        net: &Network,
        pkt: &mut PacketState,
        mut keep: impl FnMut(NodeId) -> bool,
    ) -> Option<NodeId> {
        let (u, d) = (pkt.current, pkt.dst);
        let PacketState { visited, hand, .. } = pkt;
        let mut candidates = net
            .neighbor_points(u)
            .filter(|&(v, _)| !visited.contains(NodeId::new(v)) && keep(NodeId::new(v)))
            .peekable();
        candidates.peek()?;
        let hand = *hand.get_or_insert_with(|| self.pick_hand(net, u, d));
        hand_first(net.position(u), net.position(d), hand, candidates).map(NodeId::new)
    }
}

impl Routing for Slgf2Router<'_> {
    fn name(&self) -> &'static str {
        "SLGF2"
    }

    fn next_hop(&self, net: &Network, pkt: &mut PacketState) -> Option<NodeId> {
        let u = pkt.current;
        let d = pkt.dst;

        // Step 1 (Algo. 1 steps 1-2): direct delivery. A committed
        // perimeter episode stays perimeter through the delivery hop
        // (step 5: "stick with the same hand-rule until the destination
        // is reached"); otherwise the hop is a (trivially safe) greedy
        // advance.
        if net.has_edge(u, d) {
            pkt.phase = if matches!(pkt.mode, Mode::Perimeter { .. }) {
                RoutePhase::Perimeter
            } else {
                RoutePhase::Greedy
            };
            return Some(d);
        }

        // Step 5 committed: perimeter is sticky until delivery.
        if matches!(pkt.mode, Mode::Perimeter { .. }) {
            pkt.phase = RoutePhase::Perimeter;
            return self.hand_step(net, pkt, |_| true);
        }

        // Steps 2+3: safe forwarding (ends a backup episode).
        if let Some(v) = self.safe_pick(net, pkt) {
            pkt.resume_greedy();
            pkt.phase = RoutePhase::Greedy;
            return Some(v);
        }

        // Step 4: backup-path forwarding through any-type-safe nodes.
        if self.backup {
            let info = self.info;
            if let Some(v) = self.hand_step(net, pkt, |v| info.tuple(v).any_safe()) {
                pkt.enter_backup();
                pkt.phase = RoutePhase::Backup;
                return Some(v);
            }
        }

        // Step 5: perimeter routing, sticky, either-hand.
        let du = net.position(u).distance(net.position(d));
        pkt.enter_perimeter(du);
        pkt.phase = RoutePhase::Perimeter;
        self.hand_step(net, pkt, |_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteOutcome;
    use sp_geom::Point;
    use sp_net::DeploymentConfig;

    fn area() -> Rect {
        Rect::from_corners(Point::new(0.0, 0.0), Point::new(200.0, 200.0))
    }

    /// The backup-path scenario of Fig. 4(d): the source sits at the SW
    /// tip of a type-1 unsafe wedge; a pinned-safe corridor runs around
    /// the wedge's east side to the destination.
    ///
    /// ```text
    ///        n3(20,34)
    ///    n2(15,22)                          d(60,47)
    ///  s(10,10) n1(22,15)  n4(34,20)    c4(56,33)
    ///        c1(25,4)   c2(40,6)   c3(52,18)
    /// ```
    fn backup_scenario() -> (Network, SafetyInfo) {
        let net = Network::from_positions(
            vec![
                Point::new(10.0, 10.0), // 0 = s (type-1 unsafe)
                Point::new(22.0, 15.0), // 1 wedge
                Point::new(15.0, 22.0), // 2 wedge
                Point::new(20.0, 34.0), // 3 wedge tip N
                Point::new(34.0, 20.0), // 4 wedge tip E
                Point::new(25.0, 4.0),  // 5 = c1 corridor (pinned)
                Point::new(40.0, 6.0),  // 6 = c2 corridor (pinned)
                Point::new(52.0, 18.0), // 7 = c3 corridor (pinned)
                Point::new(56.0, 33.0), // 8 = c4 corridor (pinned)
                Point::new(60.0, 47.0), // 9 = d (pinned)
            ],
            17.0,
            area(),
        );
        let mut pinned = vec![false; 10];
        for p in pinned.iter_mut().skip(5) {
            *p = true;
        }
        let info = SafetyInfo::build_with_pinned(&net, pinned);
        (net, info)
    }

    #[test]
    fn scenario_labels_are_as_designed() {
        let (net, info) = backup_scenario();
        // Wedge nodes are type-1 unsafe; the source is too.
        for i in 0..5 {
            assert!(
                !info.is_safe(NodeId(i), Quadrant::I),
                "n{i} should be type-1 unsafe: {}",
                info.tuple(NodeId(i))
            );
        }
        // The source keeps a safe type (IV via the pinned corridor).
        assert!(info.tuple(NodeId(0)).any_safe());
        assert!(info.is_safe(NodeId(0), Quadrant::IV));
        // Corridor stays fully safe.
        for i in 5..10 {
            assert!(info.tuple(NodeId(i)).fully_safe());
        }
        let _ = net;
    }

    #[test]
    fn backup_path_routes_around_the_wedge_without_perimeter() {
        let (net, info) = backup_scenario();
        let r = Slgf2Router::new(&info).route(&net, NodeId(0), NodeId(9));
        assert!(r.delivered(), "outcome {:?} path {:?}", r.outcome, r.path);
        assert_eq!(r.perimeter_entries, 0, "phases {:?}", r.phases);
        assert!(r.backup_entries >= 1);
        // The corridor must carry the tail of the path.
        assert!(r.path.contains(&NodeId(7)) && r.path.contains(&NodeId(8)));
        // Once safe forwarding resumes it never degrades back in this
        // scenario: phases are Backup* then Greedy*.
        let first_greedy = r
            .phases
            .iter()
            .position(|&p| p == RoutePhase::Greedy)
            .expect("safe forwarding resumes");
        assert!(
            r.phases[first_greedy..]
                .iter()
                .all(|&p| p == RoutePhase::Greedy),
            "phases {:?}",
            r.phases
        );
    }

    #[test]
    fn without_backup_falls_to_perimeter_on_the_same_scenario() {
        let (net, info) = backup_scenario();
        let r = Slgf2Router::new(&info)
            .without_backup()
            .route(&net, NodeId(0), NodeId(9));
        assert!(r.delivered(), "outcome {:?}", r.outcome);
        assert!(
            r.perimeter_entries >= 1,
            "dropping backup must force perimeter: {:?}",
            r.phases
        );
        assert_eq!(r.backup_entries, 0);
    }

    #[test]
    fn straight_safe_corridor_needs_no_recovery() {
        let cfg = DeploymentConfig::paper_default(700);
        let net = Network::from_positions(cfg.deploy_uniform(17), cfg.radius, cfg.area);
        let info = SafetyInfo::build(&net);
        let router = Slgf2Router::new(&info);
        let comp = net.largest_component();
        let (s, d) = (comp[0], comp[comp.len() - 1]);
        let r = router.route(&net, s, d);
        assert!(r.delivered());
        // Dense uniform networks never need the last-resort perimeter
        // phase, and greedy (safe-forwarding) hops dominate any backup
        // escorts around small sparse pockets.
        assert_eq!(r.perimeter_entries, 0, "phases {:?}", r.phases);
        assert!(
            r.hops_in_phase(RoutePhase::Greedy) >= r.hops_in_phase(RoutePhase::Backup),
            "phases {:?}",
            r.phases
        );
    }

    #[test]
    fn perimeter_mode_is_sticky_until_delivery() {
        let (net, info) = backup_scenario();
        let r = Slgf2Router::new(&info)
            .without_backup()
            .route(&net, NodeId(0), NodeId(9));
        // After the first perimeter hop, no later hop may be greedy or
        // backup (Algo. 3 step 5: stick until the destination).
        if let Some(first) = r.phases.iter().position(|&p| p == RoutePhase::Perimeter) {
            assert!(
                r.phases[first..]
                    .iter()
                    .all(|&p| p == RoutePhase::Perimeter),
                "phases {:?}",
                r.phases
            );
        }
    }

    #[test]
    fn ablation_toggles_are_independent() {
        let (net, info) = backup_scenario();
        let full = Slgf2Router::new(&info);
        let no_sup = Slgf2Router::new(&info).without_superseding();
        let no_back = Slgf2Router::new(&info).without_backup();
        assert!(full.superseding && full.backup);
        assert!(!no_sup.superseding && no_sup.backup);
        assert!(no_back.superseding && !no_back.backup);
        // All three still deliver on the scenario.
        for router in [full, no_sup, no_back] {
            assert!(router.route(&net, NodeId(0), NodeId(9)).delivered());
        }
    }

    #[test]
    fn disconnected_destination_reports_stuck() {
        let net = Network::from_positions(
            vec![Point::new(10.0, 10.0), Point::new(150.0, 150.0)],
            17.0,
            area(),
        );
        let info = SafetyInfo::build_with_pinned(&net, vec![false; 2]);
        let r = Slgf2Router::new(&info).route(&net, NodeId(0), NodeId(1));
        assert_eq!(r.outcome, RouteOutcome::Stuck(NodeId(0)));
    }

    #[test]
    fn srcdst_same_node_is_trivially_delivered() {
        let (net, info) = backup_scenario();
        let r = Slgf2Router::new(&info).route(&net, NodeId(3), NodeId(3));
        assert!(r.delivered());
        assert_eq!(r.hops(), 0);
    }
}
