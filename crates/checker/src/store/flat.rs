//! The flat hash store: per-discrete-state zone antichains with single-zone
//! inclusion subsumption — the classic UPPAAL passed-list discipline, kept as
//! the differential oracle ([`StorageKind::Flat`](super::StorageKind::Flat)).

use super::{Insert, StateStore, MERGE_ATTEMPT_BUDGET};
use crate::state::DiscreteState;
use std::collections::HashMap;
use tempo_dbm::Dbm;

/// See the [module documentation](self).
///
/// Discrete states are interned: the intern table maps each distinct state to
/// a dense `u32` id indexing the antichain arena, so the hot insert path
/// clones the (location vector + valuation) key only the first time a
/// discrete state is seen, not on every insert.
pub(crate) struct FlatStore {
    ids: HashMap<DiscreteState, u32>,
    zones: Vec<Vec<Dbm>>,
    live: usize,
}

impl FlatStore {
    pub(crate) fn new() -> FlatStore {
        FlatStore {
            ids: HashMap::new(),
            zones: Vec::new(),
            live: 0,
        }
    }
}

impl StateStore for FlatStore {
    fn insert(&mut self, discrete: &DiscreteState, zone: &mut Dbm, merge: bool) -> Insert {
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
            return Insert::Subsumed { by_union: false };
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

    fn is_current(&self, _discrete: &DiscreteState, _zone: &Dbm) -> bool {
        // The flat store reproduces the pre-subsystem explorer byte for byte:
        // every queued state is expanded, even if its zone was later evicted.
        true
    }

    fn live_zones(&self) -> usize {
        self.live
    }
}
