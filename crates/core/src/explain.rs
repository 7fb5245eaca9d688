//! Human-readable route traces.
//!
//! Turns a [`RouteResult`] into the per-hop story a paper walkthrough
//! would tell: positions, phases, the safety tuple at every node, and
//! distance-to-destination progress. Used by examples and priceless
//! when a crafted scenario does something surprising.

use crate::{RouteOutcome, RoutePhase, RouteResult, SafetyInfo};
use sp_net::Network;
use std::fmt::Write as _;

/// Renders a hop-by-hop trace of `route` on `net`.
///
/// With `info` supplied, each node shows its safety tuple; without it
/// the tuple column is omitted. The output ends with the outcome and
/// the phase totals.
///
/// ```
/// use sp_core::{explain_route, Routing, SafetyInfo, Slgf2Router};
/// use sp_net::{deploy::DeploymentConfig, Network, NodeId};
///
/// let cfg = DeploymentConfig::paper_default(400);
/// let net = Network::from_positions(cfg.deploy_uniform(1), cfg.radius, cfg.area);
/// let info = SafetyInfo::build(&net);
/// let r = Slgf2Router::new(&info).route(&net, NodeId(0), NodeId(399));
/// let text = explain_route(&net, &r, Some(&info));
/// assert!(text.contains("hop"));
/// ```
pub fn explain_route(net: &Network, route: &RouteResult, info: Option<&SafetyInfo>) -> String {
    let mut out = String::new();
    let (Some(&first), Some(&last)) = (route.path.first(), route.path.last()) else {
        return "empty route\n".to_string();
    };
    // The progress column measures the distance to the path's last
    // node: the destination when delivered, the last holder when not.
    let pd = net.position(last);

    let _ = writeln!(
        out,
        "route {} -> … ({} hops, {} perimeter entries, {} backup entries)",
        first,
        route.hops(),
        route.perimeter_entries,
        route.backup_entries
    );
    for (i, &u) in route.path.iter().enumerate() {
        let p = net.position(u);
        let phase = if i == 0 {
            "start".to_string()
        } else {
            match route.phases[i - 1] {
                RoutePhase::Greedy => "greedy".to_string(),
                RoutePhase::Backup => "backup".to_string(),
                RoutePhase::Perimeter => "perimeter".to_string(),
            }
        };
        let tuple = info
            .map(|inf| format!(" {}", inf.tuple(u)))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  hop {i:>3}: {u:>6} ({:>6.1}, {:>6.1}){tuple}  [{phase}]  {:>6.1} m to go",
            p.x,
            p.y,
            p.distance(pd)
        );
    }
    let verdict = match route.outcome {
        RouteOutcome::Delivered => "delivered".to_string(),
        RouteOutcome::Stuck(at) => format!("stuck at {at}"),
        RouteOutcome::TtlExhausted => "TTL exhausted".to_string(),
    };
    let _ = writeln!(
        out,
        "  => {verdict}; phases: {} greedy, {} backup, {} perimeter",
        route.hops_in_phase(RoutePhase::Greedy),
        route.hops_in_phase(RoutePhase::Backup),
        route.hops_in_phase(RoutePhase::Perimeter)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Routing, SafetyInfo, Slgf2Router};
    use sp_net::{DeploymentConfig, Network, NodeId};

    #[test]
    fn trace_lists_every_hop_and_the_outcome() {
        let cfg = DeploymentConfig::paper_default(300);
        let net = Network::from_positions(cfg.deploy_uniform(3), cfg.radius, cfg.area);
        let info = SafetyInfo::build(&net);
        let comp = net.largest_component();
        let r = Slgf2Router::new(&info).route(&net, comp[0], comp[comp.len() - 1]);
        let text = explain_route(&net, &r, Some(&info));
        assert_eq!(
            text.matches("hop ").count(),
            r.path.len(),
            "one line per visited node"
        );
        assert!(text.contains("=> delivered") || text.contains("=> stuck"));
        assert!(text.contains("(1,1,1,1)") || text.contains("(0,"));
    }

    #[test]
    fn trace_without_info_omits_tuples() {
        let cfg = DeploymentConfig::paper_default(200);
        let net = Network::from_positions(cfg.deploy_uniform(4), cfg.radius, cfg.area);
        let info = SafetyInfo::build(&net);
        let comp = net.largest_component();
        let r = Slgf2Router::new(&info).route(&net, comp[0], comp[1]);
        let text = explain_route(&net, &r, None);
        assert!(!text.contains("(1,1,1,1)"));
        assert!(text.contains("[start]"));
    }

    #[test]
    fn stuck_route_names_the_holder() {
        let area = sp_geom::Rect::from_corners(
            sp_geom::Point::new(0.0, 0.0),
            sp_geom::Point::new(100.0, 100.0),
        );
        let net = Network::from_positions(
            vec![
                sp_geom::Point::new(0.0, 0.0),
                sp_geom::Point::new(90.0, 90.0),
            ],
            10.0,
            area,
        );
        let info = SafetyInfo::build_with_pinned(&net, vec![false; 2]);
        let r = Slgf2Router::new(&info).route(&net, NodeId(0), NodeId(1));
        let text = explain_route(&net, &r, Some(&info));
        assert!(text.contains("stuck at n0"), "{text}");
    }
}
