//! Pluggable passed/waiting state storage.
//!
//! The exploration loops keep, for every *discrete* state, the set of zones
//! already seen; a freshly computed symbolic state is only expanded when its
//! zone is not yet covered.  How that per-discrete-state set is represented
//! and what "covered" means is the storage discipline, and it decides whether
//! the big case-study columns are tractable:
//!
//! * [`FederationStore`] — the default: stores a [`tempo_dbm::Federation`]
//!   per discrete state and rejects a newcomer when the **union** of the
//!   stored zones covers it ([`tempo_dbm::Federation::coverage_of`]), which
//!   convex single-zone storage can never detect; stored zones strictly
//!   included in a newcomer are evicted, and periodically the federation is
//!   [`tempo_dbm::Federation::reduce`]d so members covered by their peers'
//!   union are dropped too.
//! * [`FlatStore`] — the classic antichain of zones with *single-zone*
//!   inclusion subsumption (a newcomer is rejected only when one stored zone
//!   includes it).  It reproduces the pre-subsystem explorer behavior byte
//!   for byte and is kept as the differential oracle, selected explicitly
//!   with `SearchOptions::with_storage(StorageKind::Flat)`.
//!
//! All disciplines are *exact*: a zone is only discarded when every one of
//! its valuations is already covered, so verdicts, suprema and WCRTs are
//! preserved (proven by `tests/reduction_differential.rs`).  The
//! [`StateStore`] trait is also the seam for future disk-backed or
//! distributed passed lists.

mod federation;
mod flat;

pub(crate) use federation::FederationStore;
pub(crate) use flat::FlatStore;

use crate::state::DiscreteState;
use tempo_dbm::Dbm;

/// Budget of *failed* exact-merge attempts per insertion, shared by the
/// flat and federation stores ([`tempo_dbm::merge_into_antichain`]).
const MERGE_ATTEMPT_BUDGET: usize = 64;

/// Which passed/waiting storage discipline the explorer uses, see
/// [`SearchOptions::storage`](crate::SearchOptions::storage).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StorageKind {
    /// Flat per-discrete-state zone antichains with single-zone inclusion
    /// subsumption (byte-for-byte the pre-subsystem behavior; the
    /// differential oracle).
    Flat,
    /// Per-discrete-state federations with union-coverage subsumption and
    /// eviction of union-covered members (the default).
    #[default]
    Federation,
}

/// Outcome of a [`StateStore::insert`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Insert {
    /// The zone is already covered by the store; the state must not be
    /// expanded.  `by_union` is `true` when only the union of stored zones
    /// covers it (federation storage) and no single stored zone does.
    Subsumed {
        /// Covered only by the union of stored zones, not by any single one.
        by_union: bool,
    },
    /// The zone was stored and must be expanded.  The caller's zone may have
    /// been grown in place to an exact convex hull when merging absorbed
    /// stored zones.
    Inserted {
        /// Stored zones dropped because the newcomer (or, after a periodic
        /// federation reduction, the union of their peers) covers them.
        evicted: usize,
        /// Stored zones absorbed into the newcomer by exact convex merging.
        merged: usize,
    },
}

/// A passed/waiting storage backend for one exploration.
///
/// `insert` is the single hot-path operation: decide whether `zone` (for
/// `discrete`) is already covered, and if not, store it — evicting covered
/// peers and, when `merge` is set, absorbing stored zones whose union with
/// the newcomer is exactly convex (the newcomer is grown in place).
pub(crate) trait StateStore {
    /// Attempts to insert the zone; see the trait documentation.
    fn insert(&mut self, discrete: &DiscreteState, zone: &mut Dbm, merge: bool) -> Insert;

    /// `true` iff `zone` is still a stored member for `discrete` — i.e. it
    /// has not been evicted or absorbed into a hull since it was inserted.
    ///
    /// The explorer calls this when it pops a state from the waiting
    /// structure: a state whose zone was replaced by a covering zone need not
    /// be expanded, because the covering zone's own (pending or past)
    /// expansion yields a superset of its successors.  The flat store always
    /// answers `true` (preserving the classic exploration byte for byte);
    /// the federation store answers from membership, which is what collapses
    /// the burst columns — the union keeps absorbing queued-but-unexpanded
    /// fragments before they are ever expanded.
    fn is_current(&self, discrete: &DiscreteState, zone: &Dbm) -> bool;

    /// Net number of zones currently stored (after evictions and merges).
    fn live_zones(&self) -> usize;
}

/// Creates a store of the requested kind for zones over `num_clocks` clocks.
pub(crate) fn new_store(kind: StorageKind, num_clocks: usize) -> Box<dyn StateStore> {
    match kind {
        StorageKind::Flat => Box::new(FlatStore::new()),
        StorageKind::Federation => Box::new(FederationStore::new(num_clocks)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_dbm::{Bound, Clock};
    use tempo_ta::{SystemBuilder, System};

    fn interval(lo: i64, hi: i64) -> Dbm {
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain(Clock(1), Clock::REF, Bound::weak(hi));
        z.constrain(Clock::REF, Clock(1), Bound::weak(-lo));
        z
    }

    fn sys() -> System {
        let mut sb = SystemBuilder::new("s");
        let _x = sb.add_clock("x");
        let mut a = sb.automaton("A");
        let l0 = a.location("l0").add();
        a.set_initial(l0);
        a.build();
        sb.build()
    }

    fn d(sys: &System) -> DiscreteState {
        DiscreteState::initial(sys)
    }

    #[test]
    fn flat_store_is_single_zone_subsumption() {
        let system = sys();
        let s = d(&system);
        let mut store = new_store(StorageKind::Flat, 1);
        assert_eq!(
            store.insert(&s, &mut interval(0, 4), false),
            Insert::Inserted { evicted: 0, merged: 0 }
        );
        assert_eq!(
            store.insert(&s, &mut interval(3, 7), false),
            Insert::Inserted { evicted: 0, merged: 0 }
        );
        // Covered by the union of the two, but flat storage cannot see it.
        assert_eq!(
            store.insert(&s, &mut interval(1, 6), false),
            Insert::Inserted { evicted: 0, merged: 0 }
        );
        // Covered by a single zone: rejected, and a superset evicts.
        assert_eq!(
            store.insert(&s, &mut interval(1, 2), false),
            Insert::Subsumed { by_union: false }
        );
        assert_eq!(
            store.insert(&s, &mut interval(0, 10), false),
            Insert::Inserted { evicted: 3, merged: 0 }
        );
        assert_eq!(store.live_zones(), 1);
    }

    #[test]
    fn federation_store_subsumes_by_union_and_evicts() {
        let system = sys();
        let s = d(&system);
        let mut store = new_store(StorageKind::Federation, 1);
        store.insert(&s, &mut interval(0, 4), false);
        store.insert(&s, &mut interval(3, 7), false);
        // [1,6] ⊆ [0,4] ∪ [3,7]: only the federation store rejects this.
        assert_eq!(
            store.insert(&s, &mut interval(1, 6), false),
            Insert::Subsumed { by_union: true }
        );
        assert_eq!(
            store.insert(&s, &mut interval(2, 3), false),
            Insert::Subsumed { by_union: false }
        );
        // A newcomer strictly including a stored zone evicts it.
        assert_eq!(
            store.insert(&s, &mut interval(2, 9), false),
            Insert::Inserted { evicted: 1, merged: 0 }
        );
        assert_eq!(store.live_zones(), 2);
    }

    #[test]
    fn federation_store_merges_exact_convex_unions() {
        let system = sys();
        let s = d(&system);
        let mut store = new_store(StorageKind::Federation, 1);
        store.insert(&s, &mut interval(0, 3), true);
        let mut bridge = interval(2, 6);
        assert_eq!(
            store.insert(&s, &mut bridge, true),
            Insert::Inserted { evicted: 0, merged: 1 }
        );
        // The caller's zone was grown to the exact hull in place.
        assert!(bridge.includes(&interval(0, 6)));
        assert_eq!(store.live_zones(), 1);
    }
}
