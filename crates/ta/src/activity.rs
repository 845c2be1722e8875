//! Static clock-activity analysis (Daws/Yovine-style inactivity analysis).
//!
//! # The analysis
//!
//! A clock `x` is *active* at a location `ℓ` of an automaton if its current
//! value can still be observed before it is next overwritten, i.e. if on some
//! path starting at `ℓ` the clock appears in an invariant, an edge guard or a
//! query atom *before* an edge resets it.  Formally, `Act(ℓ)` is the least
//! fixpoint of
//!
//! ```text
//! Act(ℓ) = clocks(Inv(ℓ))
//!        ∪ ⋃ { clocks(guard(e))            | e: ℓ → ℓ' }
//!        ∪ ⋃ { Act(ℓ') \ resets(e)         | e: ℓ → ℓ' }
//! ```
//!
//! computed here by [`System::location_activity_table`] per automaton with the
//! same reset-kill backward propagation ([`System::propagate_activity_table`])
//! that the location-dependent LU extrapolation constants use: a location
//! inherits the active set of every edge successor minus the clocks the edge
//! resets.  Note that a reset value never makes a clock active — unlike the LU
//! table, which must keep reset constants representable, activity only asks
//! whether the *pre-transition* value can be observed.
//!
//! In a network the automata share the clocks, so the set of clocks active in
//! a *discrete state* (location vector) is the union of every automaton's
//! per-location active set: a clock observed by automaton `B` must stay
//! precise even while automaton `A` that resets it sits in a location where
//! `A` itself no longer reads it.  This union is conservative (another
//! automaton's reset could in principle always come first), which only costs
//! precision of the reduction, never soundness.  Clocks observed by the
//! reachability query are seeded into the table at the query's target
//! locations with [`ActivityTable::seed`] (then re-propagated), or everywhere
//! with [`ActivityTable::seed_everywhere`] when the query has no location
//! atoms — mirroring exactly how query constants are seeded into the LU
//! table.
//!
//! # Dead-clock canonicalization, and why it is sound under `Extra⁺_LU`
//!
//! The checker uses the table to *canonicalize* every clock that is dead
//! (not active) in a successor's discrete state: after the invariants and
//! the delay closure, the clock is pinned to the canonical value `0`
//! (`Dbm::restrict_to_active`).  This explores a transformed network in
//! which the clocks that are dead in a discrete state hold `0` there instead
//! of advancing.  The transformation preserves all verdicts and all clock
//! suprema observable at query states: a dead clock is, by definition, reset
//! on every path before the next guard/invariant/query atom that reads it
//! (so the invariants applied before the pin do not read it, and it stays
//! dead while time passes in the same discrete state), and replacing its
//! value by any other non-negative value (in particular `0`) yields a
//! bisimilar state w.r.t. every observable behaviour.  Its payoff is that
//! zones which agree on the live clocks become *identical* — the dead rows
//! and columns of a canonical DBM after a reset are derived from the
//! reference row/column — so the passed list merges whole families of states
//! that location-dependent `Extra⁺_LU` alone keeps apart.  `Extra⁺_LU` with
//! a per-location constant of `0` frees a dead clock whose lower bound is
//! positive, but while that lower bound is `0` it must keep the
//! *difference* bounds `x − y ≤ c` with `c ≤ 0` and the strict/weak
//! distinction of the lower bound, and exactly those leftovers fragment the
//! observer- and environment-clock state spaces.  The pin comes after the
//! delay, not before it: a clock pinned before the delay advances with the
//! live clocks and records the time since the state was entered, which
//! keeps apart zones that agree on every live clock.
//!
//! Soundness composes with extrapolation in the simple direction: the
//! canonicalization is applied to the concrete, delay-closed successor zone
//! *before* extrapolation, so the checker explores
//! `Extra⁺_LU(reduce(succ(Z)))`
//! — an extrapolation (sound for the diagonal-free constraint language of this
//! crate) of the exact semantics of the transformed network.  The two
//! abstractions never disagree about a clock: a dead clock's activity does
//! not depend on the LU constants, and a live clock is never touched by the
//! reduction.

use crate::ids::{ClockId, LocId};
use crate::system::System;

/// Per-automaton, per-location sets of active clocks (see the module docs and
/// [`System::location_activity_table`]).
#[derive(Clone, Debug)]
pub struct ActivityTable {
    /// `per_loc[automaton][location][dbm_index] = true` iff the clock with
    /// DBM index `dbm_index` is active; entry 0 (the reference clock) is
    /// unused and kept `false`.
    pub per_loc: Vec<Vec<Vec<bool>>>,
}

impl ActivityTable {
    /// Marks `clock` active at `(automaton, location)`; used to seed query
    /// clocks before re-propagating the table with
    /// [`System::propagate_activity_table`].
    pub fn seed(&mut self, automaton: usize, location: LocId, clock: ClockId) {
        self.per_loc[automaton][location.index()][clock.dbm_clock().index()] = true;
    }

    /// Marks `clock` active at every location of every automaton (for query
    /// clocks of targets without location atoms, and for the globally applied
    /// extra constants of the search options).  No re-propagation is needed
    /// afterwards: the seed is already everywhere.
    pub fn seed_everywhere(&mut self, clock: ClockId) {
        let idx = clock.dbm_clock().index();
        for automaton in &mut self.per_loc {
            for loc in automaton.iter_mut() {
                loc[idx] = true;
            }
        }
    }

    /// `true` iff `clock` is active at `(automaton, location)`.
    pub fn is_active(&self, automaton: usize, location: LocId, clock: ClockId) -> bool {
        self.per_loc[automaton][location.index()][clock.dbm_clock().index()]
    }
}

impl System {
    /// Computes the per-automaton, per-location activity table (see the
    /// module docs of [`crate::activity`]): a clock is active at a location
    /// iff it occurs in the location's invariant, in the guard of an outgoing
    /// edge, or is active at the target of an outgoing edge that does not
    /// reset it (backward fixpoint).
    pub fn location_activity_table(&self) -> ActivityTable {
        let dim = self.num_clocks() + 1;
        let mut per_loc: Vec<Vec<Vec<bool>>> = self
            .automata
            .iter()
            .map(|a| vec![vec![false; dim]; a.locations.len()])
            .collect();
        for (ai, a) in self.automata.iter().enumerate() {
            for (li, loc) in a.locations.iter().enumerate() {
                for cc in &loc.invariant {
                    per_loc[ai][li][cc.clock.dbm_clock().index()] = true;
                }
            }
            for e in &a.edges {
                // Guards are evaluated against the pre-transition zone, so
                // their clocks are observed at the *source* location — even
                // when the same edge resets them.
                for cc in &e.clock_guard {
                    per_loc[ai][e.source.index()][cc.clock.dbm_clock().index()] = true;
                }
            }
        }
        let mut table = ActivityTable { per_loc };
        self.propagate_activity_table(&mut table);
        table
    }

    /// Backward fixpoint of [`System::location_activity_table`]: a location
    /// inherits the active clocks of every edge-successor location except the
    /// clocks the edge resets.  Public so callers can seed extra (query)
    /// clocks into a table and re-propagate them, mirroring
    /// [`System::propagate_lu_table`].
    pub fn propagate_activity_table(&self, table: &mut ActivityTable) {
        loop {
            let mut changed = false;
            for (ai, a) in self.automata.iter().enumerate() {
                for e in &a.edges {
                    let src = e.source.index();
                    let dst = e.target.index();
                    if src == dst {
                        continue;
                    }
                    let (head, tail) = if src < dst {
                        let (h, t) = table.per_loc[ai].split_at_mut(dst);
                        (&mut h[src], &t[0])
                    } else {
                        let (h, t) = table.per_loc[ai].split_at_mut(src);
                        (&mut t[0], &h[dst])
                    };
                    for idx in 1..head.len() {
                        if !tail[idx] || head[idx] {
                            continue;
                        }
                        if e.resets.iter().any(|(c, _)| c.dbm_clock().index() == idx) {
                            continue;
                        }
                        head[idx] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::SystemBuilder;
    use crate::clockcon::ClockRef;

    /// The observer pattern: `y` is reset when the measurement is armed and
    /// read by a guard when the response is seen; before arming and after the
    /// observation it must be dead.
    #[test]
    fn observer_clock_is_active_exactly_in_the_measurement_window() {
        let mut sb = SystemBuilder::new("obs");
        let y = sb.add_clock("y");
        let mut a = sb.automaton("observer");
        let wait = a.location("wait").add();
        let armed = a.location("armed").add();
        let seen = a.location("seen").add();
        let end = a.location("end").add();
        a.edge(wait, armed).reset(y).add();
        a.edge(armed, seen).guard_clock(y.ge(5)).add();
        a.edge(seen, end).add();
        a.set_initial(wait);
        a.build();
        let sys = sb.build();
        let t = sys.location_activity_table();
        let loc = |name: &str| sys.automata[0].location_by_name(name).unwrap();
        // The guard on armed -> seen reads y at `armed`; the arming reset
        // kills the backward propagation into `wait`.
        assert!(!t.is_active(0, loc("wait"), y));
        assert!(t.is_active(0, loc("armed"), y));
        // Nothing reads y from `seen` onwards.
        assert!(!t.is_active(0, loc("seen"), y));
        assert!(!t.is_active(0, loc("end"), y));
    }

    #[test]
    fn invariants_and_same_edge_resets_keep_the_clock_active_at_the_source() {
        let mut sb = SystemBuilder::new("inv");
        let x = sb.add_clock("x");
        let mut a = sb.automaton("p");
        let l0 = a.location("l0").invariant(x.le(10)).add();
        let l1 = a.location("l1").add();
        // The guard reads x even though the edge also resets it.
        a.edge(l0, l1).guard_clock(x.eq_(10)).reset(x).add();
        a.set_initial(l0);
        a.build();
        let sys = sb.build();
        let t = sys.location_activity_table();
        let loc = |name: &str| sys.automata[0].location_by_name(name).unwrap();
        assert!(t.is_active(0, loc("l0"), x));
        assert!(!t.is_active(0, loc("l1"), x));
    }

    #[test]
    fn activity_propagates_backward_until_a_reset() {
        let mut sb = SystemBuilder::new("chain");
        let x = sb.add_clock("x");
        let mut a = sb.automaton("p");
        let l0 = a.location("l0").add();
        let l1 = a.location("l1").add();
        let l2 = a.location("l2").add();
        let l3 = a.location("l3").invariant(x.le(3)).add();
        a.edge(l0, l1).reset(x).add();
        a.edge(l1, l2).add();
        a.edge(l2, l3).add();
        a.set_initial(l0);
        a.build();
        let sys = sb.build();
        let t = sys.location_activity_table();
        let loc = |name: &str| sys.automata[0].location_by_name(name).unwrap();
        // x is read at l3; the value flows backward through l2 and l1, but
        // the reset on l0 -> l1 kills it at l0.
        assert!(!t.is_active(0, loc("l0"), x));
        assert!(t.is_active(0, loc("l1"), x));
        assert!(t.is_active(0, loc("l2"), x));
        assert!(t.is_active(0, loc("l3"), x));
    }

    #[test]
    fn seeding_marks_query_clocks_and_repropagates() {
        let mut sb = SystemBuilder::new("seed");
        let y = sb.add_clock("y");
        let mut a = sb.automaton("p");
        let l0 = a.location("l0").add();
        let l1 = a.location("l1").add();
        let l2 = a.location("l2").add();
        a.edge(l0, l1).reset(y).add();
        a.edge(l1, l2).add();
        a.set_initial(l0);
        a.build();
        let sys = sb.build();
        let mut t = sys.location_activity_table();
        let loc = |name: &str| sys.automata[0].location_by_name(name).unwrap();
        // Nothing reads y in the model itself.
        for l in ["l0", "l1", "l2"] {
            assert!(!t.is_active(0, loc(l), y));
        }
        // A query observing y at l2 keeps it live back to the reset.
        t.seed(0, loc("l2"), y);
        sys.propagate_activity_table(&mut t);
        assert!(!t.is_active(0, loc("l0"), y));
        assert!(t.is_active(0, loc("l1"), y));
        assert!(t.is_active(0, loc("l2"), y));

        let mut everywhere = sys.location_activity_table();
        everywhere.seed_everywhere(y);
        for l in ["l0", "l1", "l2"] {
            assert!(everywhere.is_active(0, loc(l), y));
        }
    }
}
