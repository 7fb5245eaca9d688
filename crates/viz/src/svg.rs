//! SVG scene rendering of deployments, safety information, and routes.
//!
//! The builder collects layers (edges, obstacles, estimates, routes,
//! nodes) and renders them into a standalone SVG document. World
//! coordinates (the paper's 200 m × 200 m interest area) are mapped to a
//! configurable pixel viewport with the y-axis flipped so north is up,
//! matching the figures in the paper.

use sp_core::{RoutePhase, RouteResult, SafetyInfo};
use sp_geom::{Point, Quadrant, Rect};
use sp_net::{Network, NodeId, Obstacle};
use std::fmt::Write as _;

/// Rendering options of a [`Scene`].
#[derive(Debug, Clone, PartialEq)]
pub struct SceneOptions {
    /// Pixel width of the output; height follows the world aspect ratio.
    pub width_px: f64,
    /// Margin around the interest area, in pixels.
    pub margin_px: f64,
    /// Draw the UDG edges (off for dense deployments).
    pub draw_edges: bool,
    /// Node dot radius in pixels.
    pub node_radius_px: f64,
    /// Stroke width of route polylines, in pixels.
    pub route_width_px: f64,
}

impl Default for SceneOptions {
    fn default() -> SceneOptions {
        SceneOptions {
            width_px: 800.0,
            margin_px: 20.0,
            draw_edges: true,
            node_radius_px: 3.0,
            route_width_px: 2.5,
        }
    }
}

/// Phase colors of route overlays (greedy / backup / perimeter).
fn phase_color(phase: RoutePhase) -> &'static str {
    match phase {
        RoutePhase::Greedy => "#1a7f37",    // green: safe/greedy advance
        RoutePhase::Backup => "#b58900",    // amber: backup escort
        RoutePhase::Perimeter => "#c62828", // red: perimeter recovery
    }
}

/// Per-type colors of unsafe markers and estimates.
fn type_color(q: Quadrant) -> &'static str {
    match q {
        Quadrant::I => "#7b1fa2",
        Quadrant::II => "#0277bd",
        Quadrant::III => "#5d4037",
        Quadrant::IV => "#e64a19",
    }
}

/// An SVG scene over one network snapshot.
///
/// Layers added later draw on top. The network's nodes render last so
/// they stay visible above estimates and routes.
#[derive(Debug, Clone)]
pub struct Scene<'a> {
    net: &'a Network,
    opts: SceneOptions,
    info: Option<&'a SafetyInfo>,
    obstacles: Vec<Obstacle>,
    estimates: Vec<(NodeId, Quadrant, Rect)>,
    routes: Vec<(String, RouteResult)>,
    marks: Vec<(NodeId, String)>,
}

impl<'a> Scene<'a> {
    /// Starts a scene of `net`.
    pub fn new(net: &'a Network, opts: SceneOptions) -> Scene<'a> {
        Scene {
            net,
            opts,
            info: None,
            obstacles: Vec::new(),
            estimates: Vec::new(),
            routes: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// Colors nodes by safety tuple: fully-safe nodes grey, nodes unsafe
    /// in type `q` get a `q`-colored ring (multiple rings overlay).
    pub fn with_safety(mut self, info: &'a SafetyInfo) -> Scene<'a> {
        self.info = Some(info);
        self
    }

    /// Draws the forbidden areas of an FA deployment.
    pub fn with_obstacles(mut self, obstacles: &[Obstacle]) -> Scene<'a> {
        self.obstacles.extend(obstacles.iter().cloned());
        self
    }

    /// Draws one unsafe-area estimate `E_q(u)`.
    pub fn with_estimate(mut self, u: NodeId, q: Quadrant, rect: Rect) -> Scene<'a> {
        self.estimates.push((u, q, rect));
        self
    }

    /// Overlays a route, phase-colored per hop. The label goes into the
    /// legend comment.
    pub fn with_route(mut self, label: impl Into<String>, route: &RouteResult) -> Scene<'a> {
        self.routes.push((label.into(), route.clone()));
        self
    }

    /// Marks one node with a text label (e.g. "s", "d").
    pub fn with_mark(mut self, u: NodeId, label: impl Into<String>) -> Scene<'a> {
        self.marks.push((u, label.into()));
        self
    }

    fn scale(&self) -> (f64, f64, f64) {
        let area = self.net.area();
        let usable = self.opts.width_px - 2.0 * self.opts.margin_px;
        let sx = usable / area.width().max(1e-9);
        let height_px = area.height() * sx + 2.0 * self.opts.margin_px;
        (sx, self.opts.width_px, height_px)
    }

    fn project(&self, p: Point) -> (f64, f64) {
        let (s, _, height_px) = self.scale();
        let area = self.net.area();
        let x = self.opts.margin_px + (p.x - area.min().x) * s;
        // Flip y so north renders up.
        let y = height_px - self.opts.margin_px - (p.y - area.min().y) * s;
        (x, y)
    }

    /// Renders the scene into a standalone SVG document.
    pub fn render(&self) -> String {
        let (_, w, h) = self.scale();
        let mut out = String::with_capacity(1 << 16);
        let _ = writeln!(
            out,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0}" height="{h:.0}" viewBox="0 0 {w:.0} {h:.0}">"#
        );
        let _ = writeln!(
            out,
            r##"<rect width="{w:.0}" height="{h:.0}" fill="#fbfbf8"/>"##
        );

        self.render_obstacles(&mut out);
        if self.opts.draw_edges {
            self.render_edges(&mut out);
        }
        self.render_estimates(&mut out);
        for (label, route) in &self.routes {
            self.render_route(&mut out, label, route);
        }
        self.render_nodes(&mut out);
        self.render_marks(&mut out);

        out.push_str("</svg>\n");
        out
    }

    fn render_edges(&self, out: &mut String) {
        out.push_str("<g stroke=\"#d5d5d0\" stroke-width=\"0.6\">\n");
        for (u, v) in self.net.edges() {
            let (x1, y1) = self.project(self.net.position(u));
            let (x2, y2) = self.project(self.net.position(v));
            let _ = writeln!(
                out,
                r#"<line x1="{x1:.1}" y1="{y1:.1}" x2="{x2:.1}" y2="{y2:.1}"/>"#
            );
        }
        out.push_str("</g>\n");
    }

    fn render_obstacles(&self, out: &mut String) {
        if self.obstacles.is_empty() {
            return;
        }
        out.push_str("<g fill=\"#eceff1\" stroke=\"#90a4ae\" stroke-width=\"1\">\n");
        for ob in &self.obstacles {
            match ob {
                Obstacle::Rect(r) => {
                    let (x, y) = self.project(Point::new(r.min().x, r.max().y));
                    let (s, _, _) = self.scale();
                    let _ = writeln!(
                        out,
                        r#"<rect x="{x:.1}" y="{y:.1}" width="{:.1}" height="{:.1}"/>"#,
                        r.width() * s,
                        r.height() * s
                    );
                }
                Obstacle::Circle(c) => {
                    let (cx, cy) = self.project(c.center);
                    let (s, _, _) = self.scale();
                    let _ = writeln!(
                        out,
                        r#"<circle cx="{cx:.1}" cy="{cy:.1}" r="{:.1}"/>"#,
                        c.radius * s
                    );
                }
                Obstacle::Polygon(poly) => {
                    let pts: Vec<String> = poly
                        .iter()
                        .map(|&p| {
                            let (x, y) = self.project(p);
                            format!("{x:.1},{y:.1}")
                        })
                        .collect();
                    let _ = writeln!(out, r#"<polygon points="{}"/>"#, pts.join(" "));
                }
            }
        }
        out.push_str("</g>\n");
    }

    fn render_estimates(&self, out: &mut String) {
        for &(u, q, rect) in &self.estimates {
            let color = type_color(q);
            let (x, y) = self.project(Point::new(rect.min().x, rect.max().y));
            let (s, _, _) = self.scale();
            let _ = writeln!(
                out,
                r#"<rect x="{x:.1}" y="{y:.1}" width="{:.1}" height="{:.1}" fill="{color}" fill-opacity="0.12" stroke="{color}" stroke-dasharray="6 3" stroke-width="1.2"><title>E_{}({})</title></rect>"#,
                rect.width() * s,
                rect.height() * s,
                q.index(),
                u
            );
        }
    }

    fn render_route(&self, out: &mut String, label: &str, route: &RouteResult) {
        let _ = writeln!(out, "<!-- route: {label} ({} hops) -->", route.hops());
        let wpx = self.opts.route_width_px;
        for (i, pair) in route.path.windows(2).enumerate() {
            let (x1, y1) = self.project(self.net.position(pair[0]));
            let (x2, y2) = self.project(self.net.position(pair[1]));
            let color = route
                .phases
                .get(i)
                .map(|&p| phase_color(p))
                .unwrap_or("#555555");
            let _ = writeln!(
                out,
                r#"<line x1="{x1:.1}" y1="{y1:.1}" x2="{x2:.1}" y2="{y2:.1}" stroke="{color}" stroke-width="{wpx}" stroke-linecap="round"/>"#
            );
        }
    }

    fn render_nodes(&self, out: &mut String) {
        let r = self.opts.node_radius_px;
        out.push_str("<g>\n");
        for u in self.net.node_ids() {
            let (cx, cy) = self.project(self.net.position(u));
            match self.info {
                None => {
                    let _ = writeln!(
                        out,
                        r##"<circle cx="{cx:.1}" cy="{cy:.1}" r="{r}" fill="#607d8b"/>"##
                    );
                }
                Some(info) => {
                    let tuple = info.tuple(u);
                    let fill = if tuple.fully_safe() {
                        "#90a4ae"
                    } else {
                        "#263238"
                    };
                    let _ = writeln!(
                        out,
                        r#"<circle cx="{cx:.1}" cy="{cy:.1}" r="{r}" fill="{fill}"><title>{u} {tuple}</title></circle>"#
                    );
                    // One ring per unsafe type, growing radius.
                    let mut ring = r + 1.5;
                    for q in Quadrant::ALL {
                        if !tuple.is_safe(q) {
                            let _ = writeln!(
                                out,
                                r#"<circle cx="{cx:.1}" cy="{cy:.1}" r="{ring:.1}" fill="none" stroke="{}" stroke-width="1"/>"#,
                                type_color(q)
                            );
                            ring += 1.5;
                        }
                    }
                }
            }
        }
        out.push_str("</g>\n");
    }

    fn render_marks(&self, out: &mut String) {
        for (u, label) in &self.marks {
            let (cx, cy) = self.project(self.net.position(*u));
            let _ = writeln!(
                out,
                r##"<circle cx="{cx:.1}" cy="{cy:.1}" r="{:.1}" fill="none" stroke="#000" stroke-width="1.5"/>"##,
                self.opts.node_radius_px + 3.0
            );
            let _ = writeln!(
                out,
                r##"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="14" fill="#000">{label}</text>"##,
                cx + self.opts.node_radius_px + 4.0,
                cy - self.opts.node_radius_px - 4.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_core::{Routing, SafetyInfo, Slgf2Router};
    use sp_net::{DeploymentConfig, FaModel};

    fn net(seed: u64, n: usize) -> Network {
        let cfg = DeploymentConfig::paper_default(n);
        Network::from_positions(cfg.deploy_uniform(seed), cfg.radius, cfg.area)
    }

    #[test]
    fn minimal_scene_is_wellformed_svg() {
        let net = net(1, 60);
        let svg = Scene::new(&net, SceneOptions::default()).render();
        assert!(svg.starts_with("<svg xmlns"));
        assert!(svg.ends_with("</svg>\n"));
        // One circle per node.
        assert_eq!(svg.matches("<circle").count(), net.len());
        // Balanced groups.
        assert_eq!(svg.matches("<g").count(), svg.matches("</g>").count());
    }

    #[test]
    fn edges_can_be_disabled() {
        let net = net(2, 80);
        let with_edges = Scene::new(&net, SceneOptions::default()).render();
        let without = Scene::new(
            &net,
            SceneOptions {
                draw_edges: false,
                ..SceneOptions::default()
            },
        )
        .render();
        assert!(with_edges.matches("<line").count() >= net.edge_count());
        assert_eq!(without.matches("<line").count(), 0);
        assert!(without.len() < with_edges.len());
    }

    #[test]
    fn safety_coloring_marks_unsafe_nodes() {
        let net = net(3, 150);
        let info = SafetyInfo::build(&net);
        let svg = Scene::new(&net, SceneOptions::default())
            .with_safety(&info)
            .render();
        // Tooltip titles carry the tuples.
        assert!(svg.contains("(1,1,1,1)"));
        // Ring count equals total unsafe statuses.
        let unsafe_statuses: usize = net
            .node_ids()
            .map(|u| 4 - info.tuple(u).safe_count() as usize)
            .sum();
        assert_eq!(
            svg.matches("fill=\"none\" stroke=\"#").count(),
            unsafe_statuses
        );
    }

    #[test]
    fn obstacles_render_all_three_shapes() {
        let cfg = DeploymentConfig::paper_default(100);
        let fa = FaModel {
            obstacle_count: 3,
            ..FaModel::paper_default()
        };
        let obstacles = fa.generate_obstacles(&cfg, 5);
        let positions = cfg.deploy_with_obstacles(&obstacles, 5);
        let network = Network::from_positions(positions, cfg.radius, cfg.area);
        let svg = Scene::new(&network, SceneOptions::default())
            .with_obstacles(&obstacles)
            .render();
        assert!(svg.contains("<polygon points="));
        // Rect obstacle + background rect.
        assert!(svg.matches("<rect").count() >= 2);
    }

    #[test]
    fn route_overlay_uses_phase_colors() {
        let network = net(4, 400);
        let info = SafetyInfo::build(&network);
        let comp = network.largest_component();
        let r = Slgf2Router::new(&info).route(&network, comp[0], comp[comp.len() - 1]);
        assert!(r.delivered());
        let svg = Scene::new(
            &network,
            SceneOptions {
                draw_edges: false,
                ..SceneOptions::default()
            },
        )
        .with_route("SLGF2", &r)
        .with_mark(comp[0], "s")
        .with_mark(comp[comp.len() - 1], "d")
        .render();
        assert!(svg.contains("route: SLGF2"));
        assert_eq!(svg.matches("<line").count(), r.hops());
        assert!(svg.contains(">s</text>") && svg.contains(">d</text>"));
    }

    #[test]
    fn estimates_draw_dashed_rectangles() {
        // A wedge whose tip has an empty NE quadrant (same fixture as
        // sp-core's shape tests).
        let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(200.0, 200.0));
        let network = Network::from_positions(
            vec![
                Point::new(10.0, 10.0),
                Point::new(22.0, 15.0),
                Point::new(15.0, 22.0),
                Point::new(20.0, 34.0),
                Point::new(34.0, 20.0),
            ],
            17.0,
            area,
        );
        let info = SafetyInfo::build_with_pinned(&network, vec![false; 5]);
        let mut scene = Scene::new(&network, SceneOptions::default());
        for q in Quadrant::ALL {
            if let Some(est) = info.estimate(NodeId(0), q) {
                scene = scene.with_estimate(NodeId(0), q, est.rect);
            }
        }
        let svg = scene.render();
        assert!(svg.contains("stroke-dasharray"));
        assert!(svg.contains("E_1(n0)"));
    }

    #[test]
    fn projection_flips_y() {
        let area = Rect::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let network = Network::from_positions(
            vec![Point::new(0.0, 0.0), Point::new(0.0, 100.0)],
            10.0,
            area,
        );
        let scene = Scene::new(&network, SceneOptions::default());
        let (_, y_south) = scene.project(Point::new(0.0, 0.0));
        let (_, y_north) = scene.project(Point::new(0.0, 100.0));
        assert!(y_north < y_south, "north must render above south");
    }
}
