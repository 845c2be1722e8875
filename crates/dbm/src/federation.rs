//! Federations: finite unions of DBM zones over the same clocks.
//!
//! The forward reachability algorithm itself only needs single zones, but
//! federations are convenient for representing target sets of queries, for the
//! passed-list per discrete state, and in tests.

use crate::{Clock, Constraint, Dbm, Relation};
use std::fmt;

/// How a candidate zone is covered by a federation, see
/// [`Federation::coverage_of`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZoneCoverage {
    /// The zone contains valuations outside the federation.
    NotCovered,
    /// A single member zone includes the candidate (the cheap test convex
    /// passed lists already perform).
    Member,
    /// No single member includes the candidate, but the *union* of the
    /// members does — the case only federation storage can detect.
    Union,
}

/// A finite union of zones (possibly empty) over the same set of clocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Federation {
    num_clocks: usize,
    zones: Vec<Dbm>,
}

impl Federation {
    /// The empty federation (no valuations).
    pub fn empty(num_clocks: usize) -> Federation {
        Federation {
            num_clocks,
            zones: Vec::new(),
        }
    }

    /// A federation containing a single zone.
    pub fn from_zone(zone: Dbm) -> Federation {
        let num_clocks = zone.num_clocks();
        let mut f = Federation::empty(num_clocks);
        f.add(zone);
        f
    }

    /// The federation of all non-negative valuations.
    pub fn universe(num_clocks: usize) -> Federation {
        Federation::from_zone(Dbm::universe(num_clocks))
    }

    /// Number of real clocks.
    pub fn num_clocks(&self) -> usize {
        self.num_clocks
    }

    /// Number of zones currently stored (after inclusion reduction).
    pub fn size(&self) -> usize {
        self.zones.len()
    }

    /// `true` iff the federation contains no valuation.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Iterates over the member zones.
    pub fn iter(&self) -> impl Iterator<Item = &Dbm> {
        self.zones.iter()
    }

    /// Adds a zone, discarding it if it is empty or already included in a
    /// stored zone, and removing stored zones that it subsumes.
    ///
    /// Returns `true` if the federation grew (the zone was not subsumed).
    pub fn add(&mut self, zone: Dbm) -> bool {
        if zone.is_empty() {
            return false;
        }
        assert_eq!(zone.num_clocks(), self.num_clocks, "dimension mismatch");
        // One relation per member decides both directions: reject the
        // newcomer if some member includes it, evict the members it
        // strictly includes.
        let mut evict = Vec::new();
        for (i, existing) in self.zones.iter().enumerate() {
            match zone.relation(existing) {
                Relation::Equal | Relation::Subset => return false,
                Relation::Superset => evict.push(i),
                Relation::Incomparable => {}
            }
        }
        for &i in evict.iter().rev() {
            self.zones.remove(i);
        }
        self.zones.push(zone);
        true
    }

    /// `true` iff the valuation is contained in some member zone.
    pub fn contains_point(&self, valuation: &[i64]) -> bool {
        self.zones.iter().any(|z| z.contains_point(valuation))
    }

    /// Classifies how `zone` is covered by the federation: by a single member
    /// zone (the cheap convex test), only by the *union* of the members, or
    /// not at all.
    ///
    /// The union test subtracts the members from `zone` depth first: one
    /// piece at a time is split against the next member that may overlap
    /// it, so the common failing case answers at the first piece that
    /// outlives every member.  It is exact up to a cap of 512 pieces waiting
    /// at once; past the cap — a very fragmented union — it conservatively
    /// answers [`ZoneCoverage::NotCovered`], which is sound for passed-list
    /// use (the zone is then explored rather than discarded).  The empty
    /// zone is covered by any federation.
    pub fn coverage_of(&self, zone: &Dbm) -> ZoneCoverage {
        if zone.is_empty() {
            return ZoneCoverage::Member;
        }
        // Fast path: any single member includes the candidate.
        if self.zones.iter().any(|z| z.includes(zone)) {
            return ZoneCoverage::Member;
        }
        const PIECE_CAP: usize = 512;
        // Members that certainly miss the candidate cannot remove anything
        // from its pieces (every piece is a subset of the candidate) — drop
        // them before they cost one test per piece.
        let relevant: Vec<&Dbm> = self
            .zones
            .iter()
            .filter(|member| !zone.surely_disjoint(member))
            .collect();
        // Fewer than two relevant members cover only what one member
        // includes, which the fast path has ruled out.
        if relevant.len() < 2 {
            return ZoneCoverage::NotCovered;
        }
        // Necessary condition with no subtraction at all: the union of the
        // relevant members lies inside their convex hull, so a candidate
        // poking out of the hull is certainly not covered.  Most failing
        // coverage queries on the passed-list hot path exit here.
        let mut hull = relevant[0].clone();
        for member in &relevant[1..] {
            hull.hull_in_place(member);
        }
        if !hull.includes(zone) {
            return ZoneCoverage::NotCovered;
        }
        // Each waiting piece carries the index of the first member not yet
        // subtracted from it.
        let mut waiting = vec![(zone.clone(), 0)];
        while let Some((piece, mut next)) = waiting.pop() {
            // Re-checked per piece, not redundant with the `relevant`
            // filter: pieces shrink as members are subtracted, so a member
            // overlapping the candidate can still miss most of its pieces.
            while next < relevant.len() && piece.surely_disjoint(relevant[next]) {
                next += 1;
            }
            let Some(member) = relevant.get(next) else {
                return ZoneCoverage::NotCovered;
            };
            if member.includes(&piece) {
                continue;
            }
            piece.split_off_difference(member, |p| {
                waiting.push((p, next + 1));
                true
            });
            if waiting.len() > PIECE_CAP {
                return ZoneCoverage::NotCovered;
            }
        }
        ZoneCoverage::Union
    }

    /// `true` iff the given zone is included in the **union** of the member
    /// zones (not necessarily in any single one), computed by subtracting the
    /// members from the candidate, with the any-single-member inclusion test
    /// as a fast path.
    ///
    /// This is the coverage test behind federation-based passed lists: a zone
    /// covered by the union of the stored zones need not be explored again,
    /// which convex single-zone storage can never detect.
    pub fn includes_zone(&self, zone: &Dbm) -> bool {
        !matches!(self.coverage_of(zone), ZoneCoverage::NotCovered)
    }

    /// The set difference `federation \ zone` as a new federation: every
    /// member is split around `zone` and the non-empty pieces are collected
    /// (with the usual inclusion reduction of [`Federation::add`]).
    pub fn subtract_zone(&self, zone: &Dbm) -> Federation {
        let mut out = Federation::empty(self.num_clocks);
        if zone.is_empty() {
            for z in &self.zones {
                out.add(z.clone());
            }
            return out;
        }
        for z in &self.zones {
            for piece in z.subtract(zone) {
                out.add(piece);
            }
        }
        out
    }

    /// Drops every member zone that is covered by the union of the *other*
    /// members (one pass, oldest member first) and returns the number of
    /// zones dropped.  The denoted set is preserved exactly: a zone is only removed
    /// when the remaining members still cover it, so the reduced federation
    /// describes the same valuations with fewer (never more) zones.
    pub fn reduce(&mut self) -> usize {
        let mut dropped = 0;
        let mut i = 0;
        while i < self.zones.len() {
            if self.zones.len() < 2 {
                break;
            }
            let candidate = self.zones.remove(i);
            if matches!(self.coverage_of(&candidate), ZoneCoverage::NotCovered) {
                self.zones.insert(i, candidate);
                i += 1;
            } else {
                dropped += 1;
            }
        }
        dropped
    }

    /// Merges `zone` with every member it forms an *exact* convex union
    /// with, see [`merge_into_antichain`].  The caller is expected to
    /// [`Federation::add`] the final `zone` afterwards.
    pub fn absorb_convex(&mut self, zone: &mut Dbm, failure_budget: usize) -> usize {
        merge_into_antichain(zone, &mut self.zones, failure_budget)
    }

    /// Intersects every member zone with a constraint, dropping emptied zones.
    pub fn constrain(&mut self, c: &Constraint) -> &mut Self {
        for z in &mut self.zones {
            z.and(c);
        }
        self.zones.retain(|z| !z.is_empty());
        self
    }

    /// Applies the delay operator to every member zone.
    pub fn up(&mut self) -> &mut Self {
        for z in &mut self.zones {
            z.up();
        }
        self
    }

    /// Resets a clock in every member zone.
    pub fn reset(&mut self, x: Clock, value: i64) -> &mut Self {
        for z in &mut self.zones {
            z.reset(x, value);
        }
        self
    }

    /// Union with another federation.
    pub fn union(&mut self, other: &Federation) -> &mut Self {
        for z in &other.zones {
            self.add(z.clone());
        }
        self
    }

    /// The tightest upper bound of a clock across all member zones
    /// (`∞`-aware); `None` if the federation is empty.
    pub fn sup(&self, x: Clock) -> Option<crate::Bound> {
        self.zones
            .iter()
            .map(|z| z.sup(x))
            .max_by(|a, b| a.cmp(b))
    }
}

/// Merges `zone` with every zone of `zones` it forms an *exact* convex union
/// with ([`Dbm::try_merge`]: no valuation is added, so verdicts and suprema
/// hold), removing those zones and growing `zone` to the hull; returns how
/// many it absorbed.  Attempts run newest first, where breadth-first search
/// puts mergeable neighbours, and stop after `failure_budget` failures; a
/// success refreshes the budget and restarts, so cascades run to the end.
pub fn merge_into_antichain(zone: &mut Dbm, zones: &mut Vec<Dbm>, failure_budget: usize) -> usize {
    let mut merged = 0;
    let mut budget = failure_budget;
    let mut i = zones.len();
    while i > 0 && budget > 0 {
        i -= 1;
        if let Some(hull) = zone.try_merge(&zones[i]) {
            *zone = hull;
            zones.swap_remove(i);
            merged += 1;
            budget = failure_budget;
            i = zones.len();
        } else {
            budget -= 1;
        }
    }
    merged
}

impl fmt::Display for Federation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.zones.is_empty() {
            return write!(f, "false");
        }
        for (i, z) in self.zones.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "({z})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bound;

    fn zone_between(lo: i64, hi: i64) -> Dbm {
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain(Clock(1), Clock::REF, Bound::weak(hi));
        z.constrain(Clock::REF, Clock(1), Bound::weak(-lo));
        z
    }

    #[test]
    fn empty_federation() {
        let f = Federation::empty(1);
        assert!(f.is_empty());
        assert_eq!(f.size(), 0);
        assert!(!f.contains_point(&[0, 0]));
        assert_eq!(f.sup(Clock(1)), None);
    }

    #[test]
    fn add_subsumed_zone_is_rejected() {
        let mut f = Federation::from_zone(zone_between(0, 10));
        assert!(!f.add(zone_between(2, 5)));
        assert_eq!(f.size(), 1);
        // But a zone subsuming the existing one replaces it.
        assert!(f.add(zone_between(0, 20)));
        assert_eq!(f.size(), 1);
        assert!(f.contains_point(&[0, 15]));
    }

    #[test]
    fn disjoint_zones_coexist() {
        let mut f = Federation::empty(1);
        f.add(zone_between(0, 2));
        f.add(zone_between(5, 7));
        assert_eq!(f.size(), 2);
        assert!(f.contains_point(&[0, 1]));
        assert!(!f.contains_point(&[0, 3]));
        assert!(f.contains_point(&[0, 6]));
        assert_eq!(f.sup(Clock(1)), Some(Bound::weak(7)));
    }

    #[test]
    fn includes_zone_distinguishes_member_union_and_uncovered() {
        use crate::ZoneCoverage;
        let mut f = Federation::empty(1);
        f.add(zone_between(0, 2));
        f.add(zone_between(5, 7));
        // Covered by a single member: the fast path.
        assert_eq!(f.coverage_of(&zone_between(1, 2)), ZoneCoverage::Member);
        assert!(f.includes_zone(&zone_between(1, 2)));
        // [1,6] pokes into the gap (2,5): not covered even by the union.
        assert_eq!(f.coverage_of(&zone_between(1, 6)), ZoneCoverage::NotCovered);
        assert!(!f.includes_zone(&zone_between(1, 6)));
        // Overlapping members [0,4] ∪ [3,7]: [1,6] is covered only by the
        // union — the case convex single-zone subsumption can never detect.
        let mut g = Federation::empty(1);
        g.add(zone_between(0, 4));
        g.add(zone_between(3, 7));
        assert_eq!(g.coverage_of(&zone_between(1, 6)), ZoneCoverage::Union);
        assert!(g.includes_zone(&zone_between(1, 6)));
        // The empty zone is covered by anything.
        assert!(g.includes_zone(&Dbm::empty(1)));
    }

    #[test]
    fn subtract_zone_is_set_difference() {
        let mut f = Federation::empty(1);
        f.add(zone_between(0, 4));
        f.add(zone_between(6, 9));
        let d = f.subtract_zone(&zone_between(3, 7));
        for v in 0..=10i64 {
            let expected = f.contains_point(&[0, v]) && !(3..=7).contains(&v);
            assert_eq!(d.contains_point(&[0, v]), expected, "point {v}");
        }
        // Subtracting the empty zone is the identity on the denoted set.
        let id = f.subtract_zone(&Dbm::empty(1));
        for v in 0..=10i64 {
            assert_eq!(id.contains_point(&[0, v]), f.contains_point(&[0, v]));
        }
    }

    #[test]
    fn reduce_drops_union_covered_members_only() {
        let mut f = Federation::empty(1);
        f.add(zone_between(0, 4));
        f.add(zone_between(3, 7));
        // [2,6] is covered by [0,4] ∪ [3,7] but by neither alone, so plain
        // `add` keeps it; `reduce` drops it again.
        assert!(f.add(zone_between(2, 6)));
        assert_eq!(f.size(), 3);
        assert_eq!(f.reduce(), 1);
        assert_eq!(f.size(), 2);
        for v in 0..=8i64 {
            assert_eq!(f.contains_point(&[0, v]), (0..=7).contains(&v), "point {v}");
        }
        // Nothing else is droppable: a second reduce is a no-op.
        assert_eq!(f.reduce(), 0);
        assert_eq!(f.size(), 2);
    }

    #[test]
    fn absorb_convex_cascades_and_respects_exactness() {
        let mut f = Federation::empty(1);
        f.add(zone_between(0, 1));
        f.add(zone_between(1, 2));
        f.add(zone_between(5, 7));
        let mut zone = zone_between(2, 3);
        // [2,3] bridges [0,1]+[1,2] into [0,3]; [5,7] stays (gap).
        let absorbed = f.absorb_convex(&mut zone, 8);
        assert_eq!(absorbed, 2);
        assert_eq!(f.size(), 1);
        assert_eq!(zone.relation(&zone_between(0, 3)), Relation::Equal);
    }

    #[test]
    fn cascading_merge_absorbs_a_chain_of_intervals() {
        // [0,1], [1,2], [3,4] stored; inserting [2,3] bridges the gap and the
        // cascade collapses everything into [0,4].
        let mut zones = vec![zone_between(0, 1), zone_between(1, 2), zone_between(3, 4)];
        let mut zone = zone_between(2, 3);
        let merged = merge_into_antichain(&mut zone, &mut zones, 64);
        assert_eq!(merged, 3);
        assert!(zones.is_empty());
        assert_eq!(zone, zone_between(0, 4));
    }

    #[test]
    fn unmergeable_zones_are_left_alone() {
        let mut zones = vec![zone_between(0, 1), zone_between(10, 11)];
        let mut zone = zone_between(4, 5);
        assert_eq!(merge_into_antichain(&mut zone, &mut zones, 64), 0);
        assert_eq!(zones.len(), 2);
        assert_eq!(zone, zone_between(4, 5));
    }

    #[test]
    fn constrain_drops_emptied_members() {
        let mut f = Federation::empty(1);
        f.add(zone_between(0, 2));
        f.add(zone_between(5, 7));
        f.constrain(&Constraint::upper(Clock(1), Bound::weak(3)));
        assert_eq!(f.size(), 1);
        assert!(f.contains_point(&[0, 1]));
        assert!(!f.contains_point(&[0, 6]));
    }

    #[test]
    fn union_and_up() {
        let mut f = Federation::from_zone(zone_between(0, 1));
        let g = Federation::from_zone(zone_between(10, 11));
        f.union(&g);
        assert_eq!(f.size(), 2);
        f.up();
        assert!(f.contains_point(&[0, 100]));
    }

    #[test]
    fn reset_applies_to_all_members() {
        let mut f = Federation::empty(1);
        f.add(zone_between(0, 2));
        f.add(zone_between(5, 7));
        f.reset(Clock(1), 0);
        assert!(f.contains_point(&[0, 0]));
        assert!(!f.contains_point(&[0, 6]));
    }

    #[test]
    fn empty_zone_not_added() {
        let mut f = Federation::empty(1);
        assert!(!f.add(Dbm::empty(1)));
        assert!(f.is_empty());
    }
}
