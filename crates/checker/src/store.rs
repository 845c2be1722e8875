//! The passed list: for every *discrete* state, an antichain of the zones
//! already seen.
//!
//! A freshly computed symbolic state is expanded only when no stored zone of
//! its discrete state includes its zone.  A newcomer evicts the stored zones
//! it includes and, in untargeted explorations, absorbs stored zones whose
//! union with it is exactly convex ([`tempo_dbm::merge_into_antichain`]).
//!
//! Eviction and merging leave queued states behind whose zone is no longer
//! stored.  [`PassedList::is_current`] lets the explorer skip them on pop:
//! the stored zone that replaced one includes it, and its own (pending or
//! past) expansion yields a superset of the skipped state's successors.
//! UPPAAL's unified passed/waiting list gets the same effect (David,
//! Behrmann, Larsen, Yi, "A tool architecture for the next generation of
//! UPPAAL", 2003).  On the burst case-study columns the skip is what keeps
//! the zone graph small: queued fragments are absorbed into hulls before
//! they are ever expanded.
//!
//! Everything is *exact*: a zone is only discarded when a stored zone
//! includes it, so verdicts, suprema and WCRTs are preserved (proven by
//! `tests/reduction_differential.rs`).

use crate::state::DiscreteState;
use std::collections::HashMap;
use tempo_dbm::Dbm;

/// Budget of *failed* exact-merge attempts per insertion
/// ([`tempo_dbm::merge_into_antichain`]).
const MERGE_ATTEMPT_BUDGET: usize = 64;

/// Outcome of a [`PassedList::insert`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Insert {
    /// A stored zone includes the newcomer; the state must not be expanded.
    Subsumed,
    /// The zone was stored and must be expanded.  The caller's zone may have
    /// been grown in place to an exact convex hull when merging absorbed
    /// stored zones.
    Inserted {
        /// Stored zones dropped because the newcomer includes them.
        evicted: usize,
        /// Stored zones absorbed into the newcomer by exact convex merging.
        merged: usize,
    },
}

/// See the [module documentation](self).
///
/// Discrete states are interned: the intern table maps each distinct state to
/// a dense `u32` id indexing the antichain arena, so the hot insert path
/// clones the (location vector + valuation) key only the first time a
/// discrete state is seen, not on every insert.
pub(crate) struct PassedList {
    ids: HashMap<DiscreteState, u32>,
    zones: Vec<Vec<Dbm>>,
    live: usize,
}

impl PassedList {
    pub(crate) fn new() -> PassedList {
        PassedList {
            ids: HashMap::new(),
            zones: Vec::new(),
            live: 0,
        }
    }

    /// Decides whether `zone` (for `discrete`) is already covered by a single
    /// stored zone, and if not, stores it: stored zones it includes are
    /// evicted and, when `merge` is set, stored zones whose union with it is
    /// exactly convex are absorbed (`zone` is grown in place to the hull).
    pub(crate) fn insert(
        &mut self,
        discrete: &DiscreteState,
        zone: &mut Dbm,
        merge: bool,
    ) -> Insert {
        let id = match self.ids.get(discrete) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.zones.len()).expect("more than u32::MAX states");
                self.ids.insert(discrete.clone(), id);
                self.zones.push(Vec::new());
                id
            }
        };
        let zones = &mut self.zones[id as usize];
        if zones.iter().any(|z| z.includes(zone)) {
            tempo_obs::counter("store.subsumed", 1);
            return Insert::Subsumed;
        }
        // Drop stored zones now subsumed by the new one.
        let before = zones.len();
        zones.retain(|z| !zone.includes(z));
        let evicted = before - zones.len();
        let merged = if merge {
            tempo_dbm::merge_into_antichain(zone, zones, MERGE_ATTEMPT_BUDGET)
        } else {
            0
        };
        zones.push(zone.clone());
        self.live = self.live + 1 - evicted - merged;
        if evicted > 0 {
            tempo_obs::counter("store.evicted", evicted as u64);
        }
        if merged > 0 {
            tempo_obs::counter("store.merged", merged as u64);
        }
        Insert::Inserted { evicted, merged }
    }

    /// `true` iff `zone` is still a stored member for `discrete` — i.e. it
    /// has not been evicted or absorbed into a hull since it was inserted.
    /// A zone that is no longer a member is included in one that is, so the
    /// explorer need not expand it.
    pub(crate) fn is_current(&self, discrete: &DiscreteState, zone: &Dbm) -> bool {
        self.ids
            .get(discrete)
            .is_some_and(|&id| self.zones[id as usize].iter().any(|z| z == zone))
    }

    /// Net number of zones currently stored (after evictions and merges).
    pub(crate) fn live_zones(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_dbm::{Bound, Clock};
    use tempo_ta::{LocId, System, SystemBuilder};

    fn interval(lo: i64, hi: i64) -> Dbm {
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain(Clock(1), Clock::REF, Bound::weak(hi));
        z.constrain(Clock::REF, Clock(1), Bound::weak(-lo));
        z
    }

    fn sys() -> System {
        two_locations().0
    }

    /// One automaton with two locations: `l0` (initial) and the returned `l1`.
    fn two_locations() -> (System, LocId) {
        let mut sb = SystemBuilder::new("s");
        let _x = sb.add_clock("x");
        let mut a = sb.automaton("A");
        let l0 = a.location("l0").add();
        let l1 = a.location("l1").add();
        a.set_initial(l0);
        a.build();
        (sb.build(), l1)
    }

    fn d(sys: &System) -> DiscreteState {
        DiscreteState::initial(sys)
    }

    #[test]
    fn single_zone_inclusion_subsumes_and_a_superset_evicts() {
        let system = sys();
        let s = d(&system);
        let mut store = PassedList::new();
        assert_eq!(
            store.insert(&s, &mut interval(0, 4), false),
            Insert::Inserted {
                evicted: 0,
                merged: 0
            }
        );
        assert_eq!(
            store.insert(&s, &mut interval(3, 7), false),
            Insert::Inserted {
                evicted: 0,
                merged: 0
            }
        );
        // Covered by the union of the two, but by no single stored zone.
        assert_eq!(
            store.insert(&s, &mut interval(1, 6), false),
            Insert::Inserted {
                evicted: 0,
                merged: 0
            }
        );
        // Covered by a single zone: rejected, and a superset evicts.
        assert_eq!(
            store.insert(&s, &mut interval(1, 2), false),
            Insert::Subsumed
        );
        assert_eq!(
            store.insert(&s, &mut interval(0, 10), false),
            Insert::Inserted {
                evicted: 3,
                merged: 0
            }
        );
        assert_eq!(store.live_zones(), 1);
    }

    #[test]
    fn exact_merge_grows_the_callers_zone_in_place() {
        let system = sys();
        let s = d(&system);
        let mut store = PassedList::new();
        store.insert(&s, &mut interval(0, 3), true);
        let mut bridge = interval(2, 6);
        assert_eq!(
            store.insert(&s, &mut bridge, true),
            Insert::Inserted {
                evicted: 0,
                merged: 1
            }
        );
        // The caller's zone was grown to the exact hull in place.
        assert!(bridge.includes(&interval(0, 6)));
        assert_eq!(store.live_zones(), 1);
    }

    #[test]
    fn a_zone_evicted_by_a_larger_newcomer_is_not_current() {
        let system = sys();
        let s = d(&system);
        let mut store = PassedList::new();
        store.insert(&s, &mut interval(2, 4), false);
        assert!(store.is_current(&s, &interval(2, 4)));
        assert_eq!(
            store.insert(&s, &mut interval(0, 10), false),
            Insert::Inserted {
                evicted: 1,
                merged: 0
            }
        );
        assert!(!store.is_current(&s, &interval(2, 4)));
        assert!(store.is_current(&s, &interval(0, 10)));
    }

    #[test]
    fn a_zone_absorbed_into_a_hull_is_not_current_and_the_hull_is() {
        let system = sys();
        let s = d(&system);
        let mut store = PassedList::new();
        store.insert(&s, &mut interval(0, 3), true);
        let mut bridge = interval(2, 6);
        store.insert(&s, &mut bridge, true);
        assert!(!store.is_current(&s, &interval(0, 3)));
        assert!(!store.is_current(&s, &interval(2, 6)));
        assert!(store.is_current(&s, &bridge));
        assert!(store.is_current(&s, &interval(0, 6)));
    }

    #[test]
    fn an_unseen_discrete_state_is_not_current() {
        let (system, l1) = two_locations();
        let s = d(&system);
        let mut store = PassedList::new();
        store.insert(&s, &mut interval(0, 4), false);
        let other = DiscreteState::new(vec![l1], s.vars().clone());
        assert_ne!(other, s);
        assert!(!store.is_current(&other, &interval(0, 4)));
    }
}
