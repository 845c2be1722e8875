//! The passed list: for every *discrete* state, an antichain of the zones
//! already seen.
//!
//! A freshly computed symbolic state is expanded only when no stored zone of
//! its discrete state includes its zone.  A newcomer evicts the stored zones
//! it includes and, in untargeted explorations, absorbs stored zones whose
//! union with it is exactly convex ([`tempo_dbm::merge_into_antichain`]).
//!
//! Each zone is stored on the clocks live at its location vector only: its
//! principal sub-matrix over the reference clock and those clocks
//! ([`Dbm::project_into`]).  The active-clock reduction pins every dead clock
//! to exactly `0`, so the dead rows and columns are copies of the reference
//! ones and carry nothing.  The projection is then an affine bijection onto
//! the subspace where the dead clocks are `0`, so inclusion, exact convex
//! union and the hull all commute with it, and a principal sub-matrix of a
//! canonical matrix is canonical: the antichain operations run unchanged on
//! the smaller matrices, and a hull grown by merging is embedded back into
//! the caller's full zone ([`Dbm::embed_into`]).  All zones of one discrete
//! state share its location vector and hence its live clocks.  With the
//! reduction off every clock is live and the projection is the whole matrix.
//!
//! Eviction and merging leave queued states behind whose zone is no longer
//! stored.  [`PassedList::is_current`] lets the explorer skip them on pop:
//! the stored zone that replaced one includes it, and its own (pending or
//! past) expansion yields a superset of the skipped state's successors.
//! Every stored zone remembers the node id it was queued as (its insertion
//! index), so the skip is one flag lookup per pop.
//! UPPAAL's unified passed/waiting list gets the same effect (David,
//! Behrmann, Larsen, Yi, "A tool architecture for the next generation of
//! UPPAAL", 2003).  On the burst case-study columns the skip is what keeps
//! the zone graph small: queued fragments are absorbed into hulls before
//! they are ever expanded.
//!
//! Everything is *exact*: a zone is only discarded when a stored zone
//! includes it, so verdicts, suprema and WCRTs are preserved (proven by
//! `tests/reduction_differential.rs`).

use crate::fxhash::FxBuildHasher;
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

/// A stored (projected) zone and the node id it was queued as.
struct Stored {
    zone: Dbm,
    node: usize,
}

impl AsRef<Dbm> for Stored {
    fn as_ref(&self) -> &Dbm {
        &self.zone
    }
}

/// See the [module documentation](self).
///
/// Discrete states are interned: the intern table maps each distinct state to
/// a dense `u32` id indexing the antichain arena, so the hot insert path
/// clones the (location vector + valuation) key only the first time a
/// discrete state is seen, not on every insert.
pub(crate) struct PassedList {
    ids: HashMap<DiscreteState, u32, FxBuildHasher>,
    zones: Vec<Vec<Stored>>,
    /// Indexed by node id: `true` while the node's zone is stored.
    current: Vec<bool>,
    /// The newcomer's projection; its allocation is reused across inserts.
    projected: Dbm,
    /// `Bound` words held by the stored zones, now and at most so far.
    bounds: usize,
    peak_bounds: usize,
}

/// The `Bound` words a stored zone holds.
fn words(zone: &Dbm) -> usize {
    zone.dim() * zone.dim()
}

impl PassedList {
    pub(crate) fn new() -> PassedList {
        PassedList {
            ids: HashMap::default(),
            zones: Vec::new(),
            current: Vec::new(),
            projected: Dbm::zero(0),
            bounds: 0,
            peak_bounds: 0,
        }
    }

    /// Decides whether `zone` (for `discrete`) is already covered by a single
    /// stored zone, and if not, stores it as node `node`: stored zones it
    /// includes are evicted and, when `merge` is set, stored zones whose
    /// union with it is exactly convex are absorbed (`zone` is grown in place
    /// to the hull).  Evicted and absorbed zones' nodes stop being current.
    ///
    /// `live` lists the clocks live at `discrete`'s location vector
    /// (ascending); every other clock must be pinned to `0` in `zone`.
    pub(crate) fn insert(
        &mut self,
        discrete: &DiscreteState,
        zone: &mut Dbm,
        live: &[usize],
        merge: bool,
        node: usize,
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
        let PassedList {
            zones,
            current,
            projected,
            bounds,
            peak_bounds,
            ..
        } = self;
        let zones = &mut zones[id as usize];
        zone.project_into(live, projected);
        debug_assert!(
            {
                let mut embedded = zone.clone();
                projected.embed_into(live, &mut embedded);
                embedded == *zone
            },
            "a clock outside `live` is not pinned to 0"
        );
        if zones.iter().any(|s| s.zone.includes(projected)) {
            tempo_obs::counter("store.subsumed", 1);
            return Insert::Subsumed;
        }
        // Drop stored zones now subsumed by the new one.
        let before = zones.len();
        zones.retain(|s| {
            let keep = !projected.includes(&s.zone);
            if !keep {
                current[s.node] = false;
                *bounds -= words(&s.zone);
            }
            keep
        });
        let evicted = before - zones.len();
        let merged = if merge {
            tempo_dbm::merge_into_antichain(projected, zones, MERGE_ATTEMPT_BUDGET, |s| {
                current[s.node] = false;
                *bounds -= words(&s.zone);
            })
        } else {
            0
        };
        if merged > 0 {
            projected.embed_into(live, zone);
        }
        *bounds += words(projected);
        *peak_bounds = (*peak_bounds).max(*bounds);
        zones.push(Stored {
            zone: projected.clone(),
            node,
        });
        current.resize(current.len().max(node + 1), false);
        current[node] = true;
        if evicted > 0 {
            tempo_obs::counter("store.evicted", evicted as u64);
        }
        if merged > 0 {
            tempo_obs::counter("store.merged", merged as u64);
        }
        Insert::Inserted { evicted, merged }
    }

    /// `true` iff arena node `node` was stored and its zone has not been
    /// evicted or absorbed into a hull since.  A zone that is no longer
    /// stored is included in one that is, so the explorer need not expand it.
    ///
    /// This flag is exactly "the node's zone is a stored member of its
    /// discrete state's antichain".  A newcomer is stored only when no stored
    /// zone includes it, so the zone that evicts or absorbs a stored zone
    /// strictly includes it, and from then on some stored zone strictly
    /// includes every removed one.  A zone equal to a removed one is
    /// therefore never stored again: as a newcomer it is subsumed, and a
    /// hull grown from a newcomer included in no stored zone cannot equal a
    /// zone that is.
    pub(crate) fn is_current(&self, node: usize) -> bool {
        self.current.get(node).copied().unwrap_or(false)
    }

    /// Net number of zones currently stored (after evictions and merges).
    pub(crate) fn live_zones(&self) -> usize {
        self.current.iter().filter(|&&stored| stored).count()
    }

    /// The most `Bound` words the stored zones held at once.
    pub(crate) fn peak_stored_bounds(&self) -> usize {
        self.peak_bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
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

    fn stored(evicted: usize, merged: usize) -> Insert {
        Insert::Inserted { evicted, merged }
    }

    #[test]
    fn single_zone_inclusion_subsumes_and_a_superset_evicts() {
        let system = sys();
        let s = d(&system);
        let mut store = PassedList::new();
        assert_eq!(
            store.insert(&s, &mut interval(0, 4), &[1], false, 0),
            stored(0, 0)
        );
        assert_eq!(
            store.insert(&s, &mut interval(3, 7), &[1], false, 1),
            stored(0, 0)
        );
        // Covered by the union of the two, but by no single stored zone.
        assert_eq!(
            store.insert(&s, &mut interval(1, 6), &[1], false, 2),
            stored(0, 0)
        );
        // Covered by a single zone: rejected, and a superset evicts.
        assert_eq!(
            store.insert(&s, &mut interval(1, 2), &[1], false, 3),
            Insert::Subsumed
        );
        assert_eq!(
            store.insert(&s, &mut interval(0, 10), &[1], false, 4),
            stored(3, 0)
        );
        assert_eq!(store.live_zones(), 1);
    }

    #[test]
    fn exact_merge_grows_the_callers_zone_in_place() {
        let system = sys();
        let s = d(&system);
        let mut store = PassedList::new();
        store.insert(&s, &mut interval(0, 3), &[1], true, 0);
        let mut bridge = interval(2, 6);
        assert_eq!(store.insert(&s, &mut bridge, &[1], true, 1), stored(0, 1));
        // The caller's zone was grown to the exact hull in place.
        assert!(bridge.includes(&interval(0, 6)));
        assert_eq!(store.live_zones(), 1);
    }

    #[test]
    fn a_zone_evicted_by_a_larger_newcomer_is_not_current() {
        let system = sys();
        let s = d(&system);
        let mut store = PassedList::new();
        store.insert(&s, &mut interval(2, 4), &[1], false, 0);
        assert!(store.is_current(0));
        assert_eq!(
            store.insert(&s, &mut interval(0, 10), &[1], false, 1),
            stored(1, 0)
        );
        assert!(!store.is_current(0));
        assert!(store.is_current(1));
    }

    #[test]
    fn a_zone_absorbed_into_a_hull_is_not_current_and_the_hull_is() {
        let system = sys();
        let s = d(&system);
        let mut store = PassedList::new();
        store.insert(&s, &mut interval(0, 3), &[1], true, 0);
        let mut bridge = interval(2, 6);
        store.insert(&s, &mut bridge, &[1], true, 1);
        assert!(!store.is_current(0));
        // Node 1 holds the hull, not the zone it was offered as.
        assert!(store.is_current(1));
        assert_eq!(bridge, interval(0, 6));
    }

    #[test]
    fn an_unseen_discrete_state_is_not_current() {
        let (system, l1) = two_locations();
        let s = d(&system);
        let other = DiscreteState::new(vec![l1], s.vars().clone());
        assert_ne!(other, s);
        let mut store = PassedList::new();
        store.insert(&s, &mut interval(0, 4), &[1], false, 0);
        // Node 1 is queued for `other`, which holds no zone yet.
        assert!(store.is_current(0) && !store.is_current(1));
        // The same zone is a separate member there; a subsumed offer (node
        // 2) is never stored.
        assert_eq!(
            store.insert(&other, &mut interval(0, 4), &[1], false, 1),
            stored(0, 0)
        );
        assert_eq!(
            store.insert(&s, &mut interval(1, 2), &[1], false, 2),
            Insert::Subsumed
        );
        assert!(store.is_current(1) && !store.is_current(2));
    }

    /// A non-empty zone over `clocks` clocks with small constants, so that
    /// inclusions, evictions and exact merges all occur.
    fn random_zone(rng: &mut StdRng, clocks: usize) -> Dbm {
        loop {
            let mut z = Dbm::universe(clocks);
            for c in 1..=clocks as u32 {
                let lo = rng.gen_range(0..6i64);
                let hi = lo + rng.gen_range(1..5i64);
                z.constrain(Clock(c), Clock::REF, Bound::new(hi, rng.gen_bool(0.25)));
                z.constrain(Clock::REF, Clock(c), Bound::new(-lo, rng.gen_bool(0.25)));
            }
            if clocks >= 2 && rng.gen_bool(0.5) {
                z.constrain(Clock(1), Clock(2), Bound::weak(rng.gen_range(-2..3i64)));
            }
            if !z.is_empty() {
                return z;
            }
        }
    }

    fn projection(zone: &Dbm, live: &[usize]) -> Dbm {
        let mut projected = Dbm::zero(0);
        zone.project_into(live, &mut projected);
        projected
    }

    #[test]
    fn the_stale_flag_equals_membership_in_the_antichain() {
        let (system, l1) = two_locations();
        let s0 = d(&system);
        let s1 = DiscreteState::new(vec![l1], s0.vars().clone());
        // Per seed: (evictions, merges), over every clock live and with
        // clock 2 of 3 pinned to 0 and masked dead (projected storage).
        let mut counts = [(0, 0); 2];
        for (seed, clocks, live, merge) in [
            (1, 1, &[1][..], false),
            (2, 1, &[1], true),
            (3, 2, &[1, 2], false),
            (4, 2, &[1, 2], true),
            (5, 3, &[1, 3], false),
            (6, 3, &[1, 3], true),
        ] {
            let active: Vec<bool> = (0..=clocks).map(|c| c == 0 || live.contains(&c)).collect();
            let (evictions, merges) = &mut counts[usize::from(live.len() < clocks)];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = PassedList::new();
            let mut nodes: Vec<(DiscreteState, Dbm)> = Vec::new();
            for _ in 0..300 {
                let discrete = if rng.gen_bool(0.5) { &s0 } else { &s1 };
                let mut zone = random_zone(&mut rng, clocks);
                zone.restrict_to_active(&active);
                if let Insert::Inserted { evicted, merged } =
                    store.insert(discrete, &mut zone, live, merge, nodes.len())
                {
                    *evictions += evicted;
                    *merges += merged;
                    nodes.push((discrete.clone(), zone));
                }
                for (node, (discrete, zone)) in nodes.iter().enumerate() {
                    let id = store.ids[discrete] as usize;
                    let stored = projection(zone, live);
                    let member = store.zones[id].iter().any(|s| s.zone == stored);
                    assert_eq!(store.is_current(node), member, "seed {seed}, node {node}");
                }
            }
        }
        for (evictions, merges) in counts {
            assert!(
                evictions > 0 && merges > 0,
                "{evictions} evictions, {merges} merges"
            );
        }
    }

    #[test]
    fn a_state_with_k_live_clocks_stores_a_k_plus_one_squared_zone() {
        let system = sys();
        let s = d(&system);
        let (live, active) = (&[1, 3][..], [true, true, false, true, false]);
        // Four clocks, of which 2 and 4 are dead; clock 1 spans `lo..=hi`.
        let zone = |lo: i64, hi: i64| {
            let mut z = Dbm::zero(4);
            z.up();
            z.constrain(Clock(1), Clock::REF, Bound::weak(hi));
            z.constrain(Clock::REF, Clock(1), Bound::weak(-lo));
            z.restrict_to_active(&active);
            z
        };
        let mut store = PassedList::new();
        let mut first = zone(0, 3);
        assert_eq!(store.insert(&s, &mut first, live, true, 0), stored(0, 0));
        assert_eq!(first, zone(0, 3), "a stored zone is not changed");
        let id = store.ids[&s] as usize;
        assert_eq!(store.zones[id][0].zone.dim(), live.len() + 1);
        assert_eq!(store.peak_stored_bounds(), 9);
        // Merging grows the caller's full zone to the full hull.
        let mut bridge = zone(2, 6);
        assert_eq!(store.insert(&s, &mut bridge, live, true, 1), stored(0, 1));
        assert_eq!(bridge, zone(0, 3).convex_hull(&zone(2, 6)));
        assert_eq!(bridge, zone(0, 6));
        assert_eq!(store.peak_stored_bounds(), 9);
        assert_eq!(
            store.insert(&s, &mut zone(1, 5), live, true, 2),
            Insert::Subsumed
        );
    }
}
