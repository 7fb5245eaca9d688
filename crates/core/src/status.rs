//! The four-type safety status tuple `(S_1, S_2, S_3, S_4)`.
//!
//! §3: "Due to the types of forwarding zones, there are four different
//! types of safe/unsafe statuses for each node u, denoted by `S_i(u)`"
//! where "1" is safe and "0" unsafe. A node starts `(1,1,1,1)` and bits
//! only ever flip to unsafe during labeling — the tuple is monotone,
//! which is what makes Definition 1 a fixed point computation.

use sp_geom::{Point, Quadrant};

/// A node's safety tuple; bit `i` is `S_i(u)`.
///
/// ```
/// use sp_core::SafetyTuple;
/// use sp_geom::Quadrant;
///
/// let mut t = SafetyTuple::all_safe();
/// assert!(t.is_safe(Quadrant::I));
/// t.mark_unsafe(Quadrant::I);
/// assert!(!t.is_safe(Quadrant::I));
/// assert!(t.any_safe());
/// assert_eq!(t.to_string(), "(0,1,1,1)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SafetyTuple(u8);

impl SafetyTuple {
    /// The initial tuple `(1,1,1,1)` of every healthy node.
    pub const fn all_safe() -> SafetyTuple {
        SafetyTuple(0b1111)
    }

    /// `S_i(u) = 1`?
    #[inline]
    pub fn is_safe(self, q: Quadrant) -> bool {
        self.0 & (1 << q.array_index()) != 0
    }

    /// Flips `S_i(u)` to unsafe. Returns `true` when the bit actually
    /// changed.
    pub fn mark_unsafe(&mut self, q: Quadrant) -> bool {
        let bit = 1u8 << q.array_index();
        let changed = self.0 & bit != 0;
        self.0 &= !bit;
        changed
    }

    /// Definition 1's local rule, the one place it is written: the
    /// types `q` for which a neighbor in `Q_q(at)` is itself type-`q`
    /// safe, in one pass over the neighbors' `(position, tuple)` pairs.
    /// At the fixed point an unpinned node's tuple equals its support;
    /// the paper's process, which starts all-safe, gets there by keeping
    /// the safe types its tuple shares with it. Quadrants are
    /// [`Quadrant::of`]'s half-open ones, so a co-located neighbor
    /// supports nothing.
    pub fn support(
        at: Point,
        neighbors: impl IntoIterator<Item = (Point, SafetyTuple)>,
    ) -> SafetyTuple {
        let mut found = 0;
        for (p, t) in neighbors {
            if let Some(q) = Quadrant::of(at, p) {
                found |= t.0 & (1 << q.array_index());
                if found == SafetyTuple::all_safe().0 {
                    break;
                }
            }
        }
        SafetyTuple(found)
    }

    /// True when at least one type is safe (`∃ S_i(u) > 0`), the backup
    /// phase's eligibility condition.
    pub fn any_safe(self) -> bool {
        self.0 != 0
    }

    /// True when every type is unsafe — "the safety tuple `(0,0,0,0)`"
    /// that may indicate disconnection (§4).
    pub fn fully_unsafe(self) -> bool {
        self.0 == 0
    }

    /// True when every type is safe.
    pub fn fully_safe(self) -> bool {
        self.0 == 0b1111
    }

    /// Number of safe types, `0..=4`.
    pub fn safe_count(self) -> u32 {
        self.0.count_ones()
    }

    /// The quadrants in which this node is safe, in type order.
    pub fn safe_types(self) -> impl Iterator<Item = Quadrant> {
        Quadrant::ALL.into_iter().filter(move |q| self.is_safe(*q))
    }
}

impl std::ops::BitAnd for SafetyTuple {
    type Output = SafetyTuple;

    /// The types safe in both tuples.
    fn bitand(self, rhs: SafetyTuple) -> SafetyTuple {
        SafetyTuple(self.0 & rhs.0)
    }
}

impl Default for SafetyTuple {
    /// Nodes are born safe (Definition 1 step 1).
    fn default() -> Self {
        SafetyTuple::all_safe()
    }
}

impl std::fmt::Display for SafetyTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({},{},{},{})",
            self.is_safe(Quadrant::I) as u8,
            self.is_safe(Quadrant::II) as u8,
            self.is_safe(Quadrant::III) as u8,
            self.is_safe(Quadrant::IV) as u8,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_fully_safe() {
        let t = SafetyTuple::default();
        assert!(t.fully_safe());
        assert!(t.any_safe());
        assert!(!t.fully_unsafe());
        assert_eq!(t.safe_count(), 4);
        assert_eq!(t, SafetyTuple::all_safe());
    }

    #[test]
    fn marking_is_monotone_and_reported() {
        let mut t = SafetyTuple::all_safe();
        assert!(t.mark_unsafe(Quadrant::III), "first flip changes");
        assert!(!t.mark_unsafe(Quadrant::III), "second flip is a no-op");
        assert!(!t.is_safe(Quadrant::III));
        assert_eq!(t.safe_count(), 3);
    }

    #[test]
    fn fully_unsafe_reached_after_all_flips() {
        let mut t = SafetyTuple::all_safe();
        for q in Quadrant::ALL {
            t.mark_unsafe(q);
        }
        assert!(t.fully_unsafe());
        assert!(!t.any_safe());
        assert_eq!(t.safe_types().count(), 0);
    }

    #[test]
    fn support_follows_the_half_open_quadrants() {
        // Axis-aligned neighbors fall in the quadrant on the `≥` side; a
        // co-located one falls in none.
        let at = Point::new(5.0, 5.0);
        let cases = [
            (Point::new(5.0, 9.0), Some(Quadrant::I)),
            (Point::new(9.0, 5.0), Some(Quadrant::I)),
            (Point::new(1.0, 5.0), Some(Quadrant::II)),
            (Point::new(5.0, 1.0), Some(Quadrant::IV)),
            (at, None),
        ];
        for (p, q) in cases {
            let support = SafetyTuple::support(at, [(p, SafetyTuple::all_safe())]);
            let types: Vec<_> = support.safe_types().collect();
            assert_eq!(types, Vec::from_iter(q), "neighbor at {p:?}");
        }
    }

    #[test]
    fn display_matches_paper_tuples() {
        let mut t = SafetyTuple::all_safe();
        assert_eq!(t.to_string(), "(1,1,1,1)");
        t.mark_unsafe(Quadrant::I);
        t.mark_unsafe(Quadrant::IV);
        assert_eq!(t.to_string(), "(0,1,1,0)");
    }
}
