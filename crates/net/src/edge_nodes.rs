//! Interest-area edge detection — the paper's "hull algorithm".
//!
//! §3: "We assume that all of the communication actions occur inside the
//! interest area. This area is an inner part of the deployment area
//! encircled by the edge of networks, which can easily be built by the
//! hull algorithm. In our labeling process, each edge node will always
//! keep its status tuple as (1, 1, 1, 1)."
//!
//! A node counts as an *edge node* when it lies on the convex hull of the
//! deployment **or** within one margin (by default the radio radius) of
//! the interest-area border. Pinning this conservative superset keeps the
//! area boundary from cascading unsafe labels inward, which is all the
//! paper asks of its edge nodes: they exist so that the border never
//! starts an unsafe cascade.

use crate::{Network, NodeId};
use sp_geom::{convex_hull, Point};

/// Boolean mask over node ids: `true` for interest-area edge nodes, the
/// convex-hull vertices plus the *band* of nodes not strictly inside the
/// area shrunk by `margin`.
///
/// The hull's sort is skipped when it cannot change the mask: when each
/// corner of the shrunk rectangle has band nodes in all four open
/// quadrants around it. No line through such a corner has every band
/// node on one side, so the corner lies strictly inside the band's hull.
/// Then so does the whole rectangle, no node strictly inside it is a
/// hull vertex, and the mask is the band alone, found in one pass.
pub fn edge_node_mask(net: &Network, margin: f64) -> Vec<bool> {
    let inner = net.area().inflate(-margin);
    let (lo, hi) = (inner.min(), inner.max());
    let corners = [lo, Point::new(hi.x, lo.y), hi, Point::new(lo.x, hi.y)];
    let mut mask = vec![false; net.len()];
    // Bit `4c + k` is set once a band node lies in open quadrant `k`
    // around corner `c`.
    let mut around = 0u16;
    for u in net.node_ids() {
        let p = net.position(u);
        if inner.contains_strict(p) {
            continue;
        }
        mask[u.index()] = true;
        for (c, corner) in corners.iter().enumerate() {
            if p.x != corner.x && p.y != corner.y {
                let k = usize::from(p.x < corner.x) + 2 * usize::from(p.y < corner.y);
                around |= 1 << (4 * c + k);
            }
        }
    }
    if around != u16::MAX {
        for &i in &convex_hull(&net.positions_vec()) {
            mask[i] = true;
        }
    }
    mask
}

/// Ids of interest-area edge nodes, sorted ascending. Margin defaults to
/// the network radius in [`edge_node_ids`].
pub fn edge_node_ids(net: &Network) -> Vec<NodeId> {
    edge_node_mask(net, net.radius())
        .iter()
        .enumerate()
        .filter_map(|(i, &is_edge)| is_edge.then_some(NodeId::new(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeploymentConfig;
    use sp_geom::{Point, Rect};

    #[test]
    fn hull_nodes_are_edge_nodes() {
        let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let net = Network::from_positions(
            vec![
                Point::new(30.0, 30.0),
                Point::new(70.0, 30.0),
                Point::new(70.0, 70.0),
                Point::new(30.0, 70.0),
                Point::new(50.0, 50.0), // interior
            ],
            25.0,
            area,
        );
        let mask = edge_node_mask(&net, 10.0);
        assert_eq!(mask, vec![true, true, true, true, false]);
    }

    #[test]
    fn border_margin_nodes_are_edge_nodes() {
        let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let net = Network::from_positions(
            vec![
                Point::new(5.0, 50.0),  // within margin of the west border
                Point::new(50.0, 50.0), // interior (but on hull of 3 pts)
                Point::new(95.0, 50.0), // within margin of the east border
                Point::new(50.0, 30.0),
            ],
            30.0,
            area,
        );
        let mask = edge_node_mask(&net, 10.0);
        assert!(mask[0] && mask[2]);
    }

    #[test]
    fn dense_uniform_deployment_keeps_an_unpinned_interior() {
        let cfg = DeploymentConfig::paper_default(600);
        let net = Network::from_positions(cfg.deploy_uniform(21), cfg.radius, cfg.area);
        let ids = edge_node_ids(&net);
        assert!(!ids.is_empty(), "some nodes must be edge nodes");
        assert!(
            ids.len() < net.len() / 2,
            "most of a dense deployment must remain interior (got {}/{})",
            ids.len(),
            net.len()
        );
        // Sorted ascending.
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
