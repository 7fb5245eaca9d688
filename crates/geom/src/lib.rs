//! 2-D geometry kernel for the straightpath WASN routing stack.
//!
//! This crate supplies every geometric primitive the paper
//! ("A Straightforward Path Routing in Wireless Ad Hoc Sensor Networks",
//! Jiang et al., ICDCS Workshops 2009) relies on:
//!
//! * [`Point`] / [`Vec2`] — node locations `L(u)` and displacement vectors;
//! * [`Rect`] — the `[x1 : x2, y1 : y2]` rectangle notation of §3, used for
//!   request zones and unsafe-area shape estimates `E_i(u)`;
//! * [`Quadrant`] — the four forwarding-zone types `Q_1..Q_4` (§3, Fig. 2);
//! * [`Ray`] with left/right side tests — the "either-hand rule" of §4;
//! * counter-clockwise angular scans ([`scan`]) — successor selection in the
//!   perimeter phase ("rotate the ray `ud` counter-clockwise until the first
//!   untried node is hit"), the first/last-neighbor chains of Algo. 2 and
//!   the right-hand pivot of face routing;
//! * [`hull`] — the "hull algorithm" used to pin interest-area edge nodes;
//! * [`Segment`] / [`Circle`] — planarization witnesses (the Gabriel disk) for
//!   the perimeter-routing substrate.
//!
//! Everything is plain `f64` Euclidean geometry. Orderings that must be
//! deterministic across platforms use [`f64::total_cmp`].
//!
//! # Example
//!
//! ```
//! use sp_geom::{Point, Quadrant, Rect};
//!
//! let u = Point::new(0.0, 0.0);
//! let d = Point::new(30.0, 40.0);
//! assert_eq!(u.distance(d), 50.0);
//! assert_eq!(Quadrant::of(u, d), Some(Quadrant::I));
//!
//! // The request zone of LAR scheme 1: u and d at opposite corners.
//! let zone = Rect::from_corners(u, d);
//! assert!(zone.contains(Point::new(10.0, 10.0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod angle;
pub mod circle;
pub mod hull;
pub mod point;
pub mod quadrant;
pub mod ray;
pub mod rect;
pub mod scan;
pub mod segment;

pub use angle::{normalize_angle, pseudo_angle, Angle, TAU};
pub use circle::{in_gabriel_disk, Circle};
pub use hull::{convex_hull, point_in_polygon, polygon_area};
pub use point::{Point, Vec2};
pub use quadrant::Quadrant;
pub use ray::{Ray, Side};
pub use rect::Rect;
pub use scan::{ccw_scan_from, face_pivot, quadrant_ends};
pub use segment::Segment;
