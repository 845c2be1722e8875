//! The federation store: one [`Federation`] per discrete state, with
//! union-coverage subsumption.
//!
//! A newcomer zone is rejected when the **union** of the stored zones covers
//! it — including when no single stored zone does — and stored zones strictly
//! included in the newcomer are evicted.  On top of that, every time a
//! discrete state's federation outgrows an adaptive threshold it is
//! [`Federation::reduce`]d: members covered by the union of their peers are
//! dropped, which keeps the coverage test sharp (bigger effective zones)
//! and the per-insert subtraction cost bounded.  All of it is exact — no
//! valuation is ever lost — so verdicts, suprema and WCRTs are preserved.

use super::{Insert, StateStore, MERGE_ATTEMPT_BUDGET};
use crate::state::DiscreteState;
use std::collections::HashMap;
use tempo_dbm::{Dbm, Federation, ZoneCoverage};

/// A federation never reduced before it holds this many zones.
const MIN_REDUCE_THRESHOLD: usize = 8;

struct Entry {
    fed: Federation,
    /// Run [`Federation::reduce`] when the federation reaches this size; the
    /// threshold doubles after each reduction so the amortized cost per
    /// insert stays constant.
    next_reduce: usize,
    /// Convex hull of every zone ever inserted for this discrete state — an
    /// over-approximation of the stored union (evictions, reductions and
    /// merges never grow the union past it).  A newcomer poking out of the
    /// hull is certainly not covered, which lets the common NotCovered case
    /// exit in O(n²) instead of one scan per member.
    hull: Option<Dbm>,
}

/// See the [module documentation](self).
///
/// Discrete states are interned: the intern table maps each distinct state to
/// a dense `u32` id indexing the federation arena, so the hot insert path
/// clones the (location vector + valuation) key only the first time a
/// discrete state is seen, not on every insert.
pub(crate) struct FederationStore {
    ids: HashMap<DiscreteState, u32>,
    entries: Vec<Entry>,
    num_clocks: usize,
    live: usize,
}

impl FederationStore {
    pub(crate) fn new(num_clocks: usize) -> FederationStore {
        FederationStore {
            ids: HashMap::new(),
            entries: Vec::new(),
            num_clocks,
            live: 0,
        }
    }
}

impl StateStore for FederationStore {
    fn insert(&mut self, discrete: &DiscreteState, zone: &mut Dbm, merge: bool) -> Insert {
        let id = match self.ids.get(discrete) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.entries.len()).expect("more than u32::MAX states");
                self.ids.insert(discrete.clone(), id);
                self.entries.push(Entry {
                    fed: Federation::empty(self.num_clocks),
                    next_reduce: MIN_REDUCE_THRESHOLD,
                    hull: None,
                });
                id
            }
        };
        let entry = &mut self.entries[id as usize];
        let inside_hull = entry
            .hull
            .as_ref()
            .is_some_and(|hull| hull.includes(zone));
        if inside_hull {
            match entry.fed.coverage_of(zone) {
                ZoneCoverage::Member => {
                    tempo_obs::counter("store.subsumed", 1);
                    return Insert::Subsumed { by_union: false };
                }
                ZoneCoverage::Union => {
                    tempo_obs::counter("store.subsumed_by_union", 1);
                    return Insert::Subsumed { by_union: true };
                }
                ZoneCoverage::NotCovered => {}
            }
        } else if entry.hull.is_some() {
            // The newcomer pokes out of the cached hull: the per-member
            // coverage scan was skipped entirely.
            tempo_obs::counter("store.hull_short_circuit", 1);
        }
        let merged = if merge {
            entry.fed.absorb_convex(zone, MERGE_ATTEMPT_BUDGET)
        } else {
            0
        };
        let before = entry.fed.size();
        entry.fed.add(zone.clone());
        // `zone` may have grown during `absorb_convex`, but only to the hull
        // of zones already folded in, so widening by its final shape keeps
        // the cached hull an over-approximation of the stored union.
        match &mut entry.hull {
            Some(hull) => hull.hull_in_place(zone),
            None => entry.hull = Some(zone.clone()),
        }
        // `add` pushes the newcomer and evicts stored zones it strictly
        // includes: net eviction count from the size delta.
        let mut evicted = before + 1 - entry.fed.size();
        if entry.fed.size() >= entry.next_reduce {
            evicted += entry.fed.reduce();
            entry.next_reduce = (entry.fed.size() * 2).max(MIN_REDUCE_THRESHOLD);
            tempo_obs::counter("store.reduce_passes", 1);
        }
        self.live = self.live + 1 - evicted - merged;
        if evicted > 0 {
            tempo_obs::counter("store.evicted", evicted as u64);
        }
        if merged > 0 {
            tempo_obs::counter("store.merged", merged as u64);
        }
        Insert::Inserted { evicted, merged }
    }

    fn is_current(&self, discrete: &DiscreteState, zone: &Dbm) -> bool {
        // A zone that is no longer a member was evicted or absorbed into a
        // hull: some stored zone covers it, so its expansion is redundant.
        self.ids
            .get(discrete)
            .is_some_and(|&id| self.entries[id as usize].fed.iter().any(|z| z == zone))
    }

    fn live_zones(&self) -> usize {
        self.live
    }
}
