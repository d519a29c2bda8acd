//! Memory regions: named, permission-bearing subsets of a memory's registers.
//!
//! Accessing a register requires naming the region through which access is
//! claimed (paper §3: "when reading or writing data, a process specifies the
//! region and the register, and the system uses the region to determine if
//! access is allowed"). Regions may overlap in the model; the paper's
//! algorithms (and ours) use disjoint regions.

use std::fmt;

use crate::reg::RegId;

/// Identifies a memory region within one memory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mr{}", self.0)
    }
}

/// Which registers a region contains.
///
/// Regions must describe unbounded register sets (e.g. "all broadcast slots
/// written by process p", for every sequence number), so they are patterns
/// rather than explicit sets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionSpec {
    /// Every register of the memory (the Disk Paxos disk shape, and the
    /// Protected Memory Paxos per-memory region).
    All,
    /// Exactly one register.
    Exact(RegId),
    /// All registers in a namespace.
    Space(u16),
    /// All registers in a namespace whose present coordinates match.
    /// `None` coordinates are wildcards.
    Pattern {
        /// Namespace to match.
        space: u16,
        /// Required first coordinate, or wildcard.
        a: Option<u64>,
        /// Required second coordinate, or wildcard.
        b: Option<u64>,
        /// Required third coordinate, or wildcard.
        c: Option<u64>,
    },
    /// Like [`RegionSpec::Pattern`], but the second coordinate ranges over
    /// the half-open interval `[b_lo, b_hi)` — a bounded address range, as
    /// a real RDMA READ is.
    Window {
        /// Namespace to match.
        space: u16,
        /// Required first coordinate, or wildcard.
        a: Option<u64>,
        /// Lowest second coordinate matched.
        b_lo: u64,
        /// First second coordinate past the window.
        b_hi: u64,
        /// Required third coordinate, or wildcard.
        c: Option<u64>,
    },
}

impl RegionSpec {
    /// All registers in `space` with first coordinate `a` (e.g. "process
    /// p's row of broadcast slots").
    pub fn row(space: u16, a: u64) -> RegionSpec {
        RegionSpec::Pattern {
            space,
            a: Some(a),
            b: None,
            c: None,
        }
    }

    /// Membership test.
    pub fn contains(&self, reg: RegId) -> bool {
        match *self {
            RegionSpec::All => true,
            RegionSpec::Exact(r) => r == reg,
            RegionSpec::Space(s) => s == reg.space,
            RegionSpec::Pattern { space, a, b, c } => {
                space == reg.space
                    && a.is_none_or(|v| v == reg.a)
                    && b.is_none_or(|v| v == reg.b)
                    && c.is_none_or(|v| v == reg.c)
            }
            RegionSpec::Window {
                space,
                a,
                b_lo,
                b_hi,
                c,
            } => {
                space == reg.space
                    && a.is_none_or(|v| v == reg.a)
                    && (b_lo..b_hi).contains(&reg.b)
                    && c.is_none_or(|v| v == reg.c)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_everything() {
        assert!(RegionSpec::All.contains(RegId::new(9, 1, 2, 3)));
    }

    #[test]
    fn exact_matches_one() {
        let spec = RegionSpec::Exact(RegId::one(1, 5));
        assert!(spec.contains(RegId::one(1, 5)));
        assert!(!spec.contains(RegId::one(1, 6)));
    }

    #[test]
    fn space_matches_namespace() {
        let spec = RegionSpec::Space(4);
        assert!(spec.contains(RegId::new(4, 9, 9, 9)));
        assert!(!spec.contains(RegId::new(5, 9, 9, 9)));
    }

    #[test]
    fn row_pattern() {
        let spec = RegionSpec::row(2, 7);
        assert!(spec.contains(RegId::new(2, 7, 0, 0)));
        assert!(spec.contains(RegId::new(2, 7, 123, 456)));
        assert!(!spec.contains(RegId::new(2, 8, 0, 0)));
        assert!(!spec.contains(RegId::new(3, 7, 0, 0)));
    }

    #[test]
    fn full_pattern() {
        let spec = RegionSpec::Pattern {
            space: 1,
            a: Some(2),
            b: None,
            c: Some(4),
        };
        assert!(spec.contains(RegId::new(1, 2, 99, 4)));
        assert!(!spec.contains(RegId::new(1, 2, 99, 5)));
    }

    #[test]
    fn window_bounds_the_second_coordinate() {
        let spec = RegionSpec::Window {
            space: 1,
            a: None,
            b_lo: 10,
            b_hi: 12,
            c: Some(4),
        };
        assert!(!spec.contains(RegId::new(1, 7, 9, 4)));
        assert!(spec.contains(RegId::new(1, 7, 10, 4)));
        assert!(spec.contains(RegId::new(1, 8, 11, 4)));
        assert!(!spec.contains(RegId::new(1, 7, 12, 4)));
        assert!(!spec.contains(RegId::new(1, 7, 10, 5)));
        assert!(!spec.contains(RegId::new(2, 7, 10, 4)));
    }
}
