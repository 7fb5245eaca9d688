//! Deployment models: the paper's §5 pair — uniform (**IA**) and
//! forbidden-area (**FA**) — plus the structured generators the
//! experiment harness sweeps beyond the paper (clustered, corridor,
//! city-block).
//!
//! > "nodes with a transmission radius of 20 meters are deployed to cover
//! > an interest area of 200m × 200m … First, the nodes will be deployed
//! > uniformly \[IA\] … Secondly, we randomly set some forbidden areas
//! > inside interest area, where no nodes can be deployed. The forbidden
//! > areas, which may be irregular, are constructed to study the impact of
//! > larger holes \[FA\]."
//!
//! The structured generators model the deployments the obstacle-routing
//! literature studies beyond uniform scatter: sensor *clusters* around
//! drop points ([`ClusterModel`]), an L-shaped *corridor* such as a mine
//! gallery or building wing ([`CorridorModel`]), and a Manhattan street
//! grid ([`CityBlockModel`]).
//!
//! All generators are seeded ([`rand::rngs::StdRng`]) so every figure run
//! is reproducible from `(node count, seed)` alone, and all emit exactly
//! `node_count` points inside `area`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sp_geom::{point_in_polygon, Circle, Point, Rect};

/// Shared deployment parameters (the paper's experimental constants by
/// default — see [`DeploymentConfig::paper_default`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentConfig {
    /// The interest area nodes are deployed into.
    pub area: Rect,
    /// Number of nodes to deploy.
    pub node_count: usize,
    /// Communication radius, in the same units as `area`.
    pub radius: f64,
}

impl DeploymentConfig {
    /// The paper's setup: a 200 m × 200 m interest area and 20 m radius,
    /// with the given node count (the paper sweeps 400..=800 step 50).
    pub fn paper_default(node_count: usize) -> DeploymentConfig {
        DeploymentConfig {
            area: Rect::from_corners(Point::new(0.0, 0.0), Point::new(200.0, 200.0)),
            node_count,
            radius: 20.0,
        }
    }

    /// The paper's **density** at any scale: the square interest area
    /// grows with `node_count` so every instance keeps ~500 nodes per
    /// 200 m × 200 m at the 20 m radius — the deployment the scale
    /// benches (grid-vs-bruteforce, mobility snapshots, distributed
    /// construction) share.
    pub fn paper_density(node_count: usize) -> DeploymentConfig {
        let side = 200.0 * (node_count as f64 / 500.0).sqrt();
        DeploymentConfig {
            area: Rect::from_corners(Point::new(0.0, 0.0), Point::new(side, side)),
            node_count,
            radius: 20.0,
        }
    }

    /// IA model: uniform deployment over the whole interest area.
    pub fn deploy_uniform(&self, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.node_count)
            .map(|_| sample_point(&mut rng, self.area))
            .collect()
    }

    /// FA model: uniform deployment avoiding `obstacles` by rejection
    /// sampling.
    ///
    /// # Panics
    ///
    /// Panics if the obstacles are so large that fewer than one in a
    /// thousand samples lands outside them (the deployment would not
    /// terminate meaningfully).
    pub fn deploy_with_obstacles(&self, obstacles: &[Obstacle], seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(self.node_count);
        let mut attempts: u64 = 0;
        let limit = (self.node_count as u64).max(1) * 1000;
        while out.len() < self.node_count {
            attempts += 1;
            assert!(
                attempts <= limit,
                "forbidden areas cover too much of the interest area \
                 (no free spot found in {attempts} samples)"
            );
            let p = sample_point(&mut rng, self.area);
            if !obstacles.iter().any(|o| o.contains(p)) {
                out.push(p);
            }
        }
        out
    }

    /// Clustered deployment: nodes pile up around a few drop points
    /// (aerial deployment, sensor pods). Every node picks one of the
    /// `model.clusters` seeded centers and lands uniformly in a disk of
    /// `model.spread_radii` radio ranges around it, clamped into the
    /// interest area.
    pub fn deploy_clustered(&self, model: &ClusterModel, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc1_0575_edc1_0575);
        let spread = model.spread_radii * self.radius;
        // Centers keep one spread clear of the border where possible so
        // clusters are not half-cropped.
        let core = self.area.inflate(-spread.min(self.area.width() / 4.0));
        let centers: Vec<Point> = (0..model.clusters.max(1))
            .map(|_| sample_point(&mut rng, core))
            .collect();
        (0..self.node_count)
            .map(|_| {
                let c = centers[rng.random_range(0..centers.len())];
                // Uniform in the disk: r = R√u, θ uniform.
                let r = spread * rng.random_range(0.0f64..=1.0).sqrt();
                let theta = rng.random_range(0.0f64..std::f64::consts::TAU);
                self.area
                    .clamp_point(Point::new(c.x + r * theta.cos(), c.y + r * theta.sin()))
            })
            .collect()
    }

    /// Corridor deployment: nodes confined to an L-shaped corridor (a
    /// horizontal gallery across the area joined by a vertical wing up
    /// from its middle), uniform within the corridor, area-weighted
    /// between the two legs.
    pub fn deploy_corridor(&self, model: &CorridorModel, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0_221d_02c0_221d);
        let w = (model.width_radii * self.radius)
            .min(self.area.height())
            .min(self.area.width());
        let mid_y = self.area.min().y + (self.area.height() - w) / 2.0;
        // Horizontal leg: full width, centered vertically.
        let horizontal =
            Rect::from_origin_size(Point::new(self.area.min().x, mid_y), self.area.width(), w);
        // Vertical leg: from the top of the horizontal leg to the area
        // top, centered horizontally.
        let mid_x = self.area.min().x + (self.area.width() - w) / 2.0;
        let vertical = Rect::from_origin_size(
            Point::new(mid_x, mid_y + w),
            w,
            (self.area.max().y - (mid_y + w)).max(0.0),
        );
        let total = horizontal.area() + vertical.area();
        (0..self.node_count)
            .map(|_| {
                let leg = if total <= 0.0 || rng.random_range(0.0f64..total) < horizontal.area() {
                    horizontal
                } else {
                    vertical
                };
                sample_point(&mut rng, leg)
            })
            .collect()
    }

    /// City-block deployment: nodes live on a Manhattan street grid —
    /// within `model.street_radii` radio ranges of a grid line spaced
    /// `model.block_radii` ranges apart — leaving the blocks in between
    /// empty (rejection sampling, like the FA model).
    ///
    /// # Panics
    ///
    /// Panics if the streets cover so little of the area that fewer
    /// than one in a thousand samples lands on one (degenerate models
    /// with near-zero street width).
    pub fn deploy_city_block(&self, model: &CityBlockModel, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc17_b10c_0c17_b10c);
        let period = (model.block_radii * self.radius).max(f64::EPSILON);
        let street = model.street_radii * self.radius;
        let on_street = |p: Point| {
            let fx = (p.x - self.area.min().x) % period;
            let fy = (p.y - self.area.min().y) % period;
            fx <= street || fy <= street
        };
        let mut out = Vec::with_capacity(self.node_count);
        let mut attempts: u64 = 0;
        let limit = (self.node_count as u64).max(1) * 1000;
        while out.len() < self.node_count {
            attempts += 1;
            assert!(
                attempts <= limit,
                "streets cover too little of the interest area \
                 (no street spot found in {attempts} samples)"
            );
            let p = sample_point(&mut rng, self.area);
            if on_street(p) {
                out.push(p);
            }
        }
        out
    }
}

/// The clustered deployment model: how many drop points and how far
/// nodes scatter around them, in multiples of the radio radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterModel {
    /// Number of cluster centers.
    pub clusters: usize,
    /// Scatter disk radius around each center, in radio ranges.
    pub spread_radii: f64,
}

impl ClusterModel {
    /// A handful of tight pods: 6 clusters, 1.5 radio ranges across —
    /// dense cores with sparse bridges, the regime where greedy routing
    /// starves between clusters.
    pub fn paper_default() -> ClusterModel {
        ClusterModel {
            clusters: 6,
            spread_radii: 1.5,
        }
    }
}

/// The corridor deployment model: the L-corridor's width in multiples
/// of the radio radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorridorModel {
    /// Corridor width, in radio ranges.
    pub width_radii: f64,
}

impl CorridorModel {
    /// A two-radio-range gallery: wide enough for parallel paths,
    /// narrow enough that every route is essentially one-dimensional.
    pub fn paper_default() -> CorridorModel {
        CorridorModel { width_radii: 2.0 }
    }
}

/// The city-block deployment model: street spacing and width in
/// multiples of the radio radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CityBlockModel {
    /// Distance between parallel streets (block pitch), in radio ranges.
    pub block_radii: f64,
    /// Street width, in radio ranges.
    pub street_radii: f64,
}

impl CityBlockModel {
    /// 3-range blocks with 1-range streets: blocks are radio-opaque, so
    /// routes must follow the street graph around every corner.
    pub fn paper_default() -> CityBlockModel {
        CityBlockModel {
            block_radii: 3.0,
            street_radii: 1.0,
        }
    }
}

/// A forbidden area: no node may be deployed inside it.
///
/// The paper describes forbidden areas as "may be irregular"; rectangles,
/// disks and simple polygons (used for the L-shaped "irregular" case) are
/// provided.
#[derive(Debug, Clone, PartialEq)]
pub enum Obstacle {
    /// Axis-aligned rectangular hole.
    Rect(Rect),
    /// Disk-shaped hole.
    Circle(Circle),
    /// Simple-polygon hole (vertex loop without the repeated first point).
    Polygon(Vec<Point>),
}

impl Obstacle {
    /// True when `p` lies inside the forbidden area (borders included).
    pub fn contains(&self, p: Point) -> bool {
        match self {
            Obstacle::Rect(r) => r.contains(p),
            Obstacle::Circle(c) => c.contains(p),
            Obstacle::Polygon(poly) => point_in_polygon(p, poly),
        }
    }

    /// A bounding rectangle of the obstacle (tight for rects, loose
    /// otherwise).
    pub fn bounding_rect(&self) -> Rect {
        match self {
            Obstacle::Rect(r) => *r,
            Obstacle::Circle(c) => Rect::from_corners(
                Point::new(c.center.x - c.radius, c.center.y - c.radius),
                Point::new(c.center.x + c.radius, c.center.y + c.radius),
            ),
            Obstacle::Polygon(poly) => {
                let mut min = Point::new(f64::INFINITY, f64::INFINITY);
                let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
                for p in poly {
                    min = Point::new(min.x.min(p.x), min.y.min(p.y));
                    max = Point::new(max.x.max(p.x), max.y.max(p.y));
                }
                Rect::from_corners(min, max)
            }
        }
    }
}

/// The FA deployment model: how many random forbidden areas to place and
/// how large they may grow, in multiples of the communication radius.
///
/// ```
/// use sp_net::{deploy::DeploymentConfig, FaModel};
/// let cfg = DeploymentConfig::paper_default(400);
/// let fa = FaModel::paper_default();
/// let obstacles = fa.generate_obstacles(&cfg, 7);
/// let nodes = cfg.deploy_with_obstacles(&obstacles, 7);
/// assert_eq!(nodes.len(), 400);
/// for p in &nodes {
///     assert!(!obstacles.iter().any(|o| o.contains(*p)));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaModel {
    /// How many forbidden areas to scatter.
    pub obstacle_count: usize,
    /// Smallest obstacle extent, in multiples of the radio radius.
    pub min_size_radii: f64,
    /// Largest obstacle extent, in multiples of the radio radius.
    pub max_size_radii: f64,
}

impl FaModel {
    /// Defaults chosen to reproduce the paper's FA regime: a handful of
    /// holes, each a few radio ranges across — large enough that greedy
    /// routing must detour, small enough that the network stays connected
    /// at 400+ nodes.
    pub fn paper_default() -> FaModel {
        FaModel {
            obstacle_count: 3,
            min_size_radii: 1.5,
            max_size_radii: 3.0,
        }
    }

    /// Generates the random forbidden areas for one network instance.
    ///
    /// A third of obstacles (rounding up) are rectangles, a third disks,
    /// and the rest L-shaped polygons (the "irregular" case). Obstacles
    /// keep one radio radius clear of the interest-area border so that the
    /// network edge stays populated, matching the paper's assumption that
    /// the edge of the interest area is node-covered.
    pub fn generate_obstacles(&self, cfg: &DeploymentConfig, seed: u64) -> Vec<Obstacle> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0b57_ac1e_0b57_ac1e);
        let margin = cfg.radius;
        let inner = cfg.area.inflate(-margin);
        let mut out = Vec::with_capacity(self.obstacle_count);
        for k in 0..self.obstacle_count {
            let w = rng.random_range(self.min_size_radii..=self.max_size_radii) * cfg.radius;
            let h = rng.random_range(self.min_size_radii..=self.max_size_radii) * cfg.radius;
            let x = rng.random_range(inner.min().x..=(inner.max().x - w).max(inner.min().x));
            let y = rng.random_range(inner.min().y..=(inner.max().y - h).max(inner.min().y));
            let origin = Point::new(x, y);
            let obstacle = match k % 3 {
                0 => Obstacle::Rect(Rect::from_origin_size(origin, w, h)),
                1 => Obstacle::Circle(Circle::new(
                    Point::new(x + w / 2.0, y + h / 2.0),
                    w.min(h) / 2.0,
                )),
                _ => {
                    // L-shape: the rectangle minus its NE quarter.
                    Obstacle::Polygon(vec![
                        origin,
                        Point::new(x + w, y),
                        Point::new(x + w, y + h / 2.0),
                        Point::new(x + w / 2.0, y + h / 2.0),
                        Point::new(x + w / 2.0, y + h),
                        Point::new(x, y + h),
                    ])
                }
            };
            out.push(obstacle);
        }
        out
    }
}

fn sample_point(rng: &mut StdRng, area: Rect) -> Point {
    Point::new(
        rng.random_range(area.min().x..=area.max().x),
        rng.random_range(area.min().y..=area.max().y),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_deployment_is_seed_deterministic() {
        let cfg = DeploymentConfig::paper_default(100);
        let a = cfg.deploy_uniform(11);
        let b = cfg.deploy_uniform(11);
        let c = cfg.deploy_uniform(12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 100);
        for p in a {
            assert!(cfg.area.contains(p));
        }
    }

    #[test]
    fn fa_deployment_avoids_all_obstacles() {
        let cfg = DeploymentConfig::paper_default(300);
        let fa = FaModel::paper_default();
        for seed in 0..5 {
            let obstacles = fa.generate_obstacles(&cfg, seed);
            assert_eq!(obstacles.len(), fa.obstacle_count);
            let nodes = cfg.deploy_with_obstacles(&obstacles, seed);
            assert_eq!(nodes.len(), 300);
            for p in &nodes {
                assert!(cfg.area.contains(*p));
                for o in &obstacles {
                    assert!(!o.contains(*p), "node {p} inside obstacle {o:?}");
                }
            }
        }
    }

    #[test]
    fn obstacles_stay_off_the_border() {
        let cfg = DeploymentConfig::paper_default(10);
        let fa = FaModel {
            obstacle_count: 12,
            ..FaModel::paper_default()
        };
        let inner = cfg.area.inflate(-cfg.radius);
        for o in fa.generate_obstacles(&cfg, 3) {
            let bb = o.bounding_rect();
            assert!(
                inner.intersects(&bb),
                "obstacle fully outside the shrunken area: {bb}"
            );
            // Rect obstacles must be fully inside the margin.
            if let Obstacle::Rect(r) = o {
                assert!(
                    inner.contains_rect(&r),
                    "rect {r} breaches the border margin"
                );
            }
        }
    }

    #[test]
    fn obstacle_membership_borders() {
        let r = Obstacle::Rect(Rect::from_corners(
            Point::new(0.0, 0.0),
            Point::new(2.0, 2.0),
        ));
        assert!(r.contains(Point::new(2.0, 2.0)));
        let c = Obstacle::Circle(Circle::new(Point::new(0.0, 0.0), 1.0));
        assert!(c.contains(Point::new(1.0, 0.0)));
        assert!(!c.contains(Point::new(1.01, 0.0)));
        let l = Obstacle::Polygon(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 4.0),
            Point::new(0.0, 4.0),
        ]);
        assert!(l.contains(Point::new(1.0, 3.0)));
        assert!(!l.contains(Point::new(3.0, 3.0)));
    }

    #[test]
    fn bounding_rect_covers_obstacle_samples() {
        let cfg = DeploymentConfig::paper_default(10);
        for o in FaModel::paper_default().generate_obstacles(&cfg, 9) {
            let bb = o.bounding_rect();
            // Sample the bb: every contained point must be in the bb.
            for fx in [0.0, 0.3, 0.5, 0.8, 1.0] {
                for fy in [0.0, 0.4, 0.9] {
                    let p = bb.lerp(fx, fy);
                    if o.contains(p) {
                        assert!(bb.contains(p));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "forbidden areas cover too much")]
    fn impossible_deployment_panics() {
        let cfg = DeploymentConfig {
            area: Rect::from_corners(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            node_count: 5,
            radius: 2.0,
        };
        let wall = Obstacle::Rect(Rect::from_corners(
            Point::new(-1.0, -1.0),
            Point::new(11.0, 11.0),
        ));
        let _ = cfg.deploy_with_obstacles(&[wall], 1);
    }
}
