//! Symbolic states of the zone graph.

use crate::fxhash::FxHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use tempo_dbm::Dbm;
use tempo_ta::{LocId, System, VarStore};

/// The discrete part of a symbolic state: one location per automaton plus the
/// valuation of all integer variables.
///
/// Discrete states are the keys of the passed/waiting list; zones reachable
/// with the same discrete state are grouped under it.  The 64-bit hash of the
/// location vector and variable valuation is computed once at construction
/// and cached: the explorer hashes and compares every successor against the
/// passed list, and re-hashing the full vectors on that path dominated
/// profile time.  The fields are private so no mutation can desynchronize
/// the cache.
#[derive(Clone, Eq)]
pub struct DiscreteState {
    /// Current location of each automaton, indexed like `System::automata`.
    locations: Vec<LocId>,
    /// Valuation of the integer variables.
    vars: VarStore,
    /// Cached Fx-style hash over `locations` and `vars`.
    hash: u64,
}

impl DiscreteState {
    /// Builds a discrete state from its location vector and variable
    /// valuation, computing the cached hash.
    pub fn new(locations: Vec<LocId>, vars: VarStore) -> DiscreteState {
        let mut h = FxHasher::default();
        locations.hash(&mut h);
        vars.hash(&mut h);
        DiscreteState {
            locations,
            vars,
            hash: h.finish(),
        }
    }

    /// The initial discrete state of a system.
    pub fn initial(sys: &System) -> DiscreteState {
        DiscreteState::new(
            sys.automata.iter().map(|a| a.initial).collect(),
            sys.initial_vars(),
        )
    }

    /// Current location of each automaton, indexed like `System::automata`.
    #[inline]
    pub fn locations(&self) -> &[LocId] {
        &self.locations
    }

    /// Valuation of the integer variables.
    #[inline]
    pub fn vars(&self) -> &VarStore {
        &self.vars
    }

    /// Renders the state with declared names, e.g.
    /// `RAD.idle, BUS.sending_setvol | rec=1 setvolume=0`.
    pub fn pretty(&self, sys: &System) -> String {
        let locs = sys
            .automata
            .iter()
            .zip(&self.locations)
            .map(|(a, l)| format!("{}.{}", a.name, a.location(*l).name))
            .collect::<Vec<_>>()
            .join(", ");
        let vars = sys
            .vars
            .iter()
            .zip(self.vars.values())
            .map(|(d, v)| format!("{}={v}", d.name))
            .collect::<Vec<_>>()
            .join(" ");
        if vars.is_empty() {
            locs
        } else {
            format!("{locs} | {vars}")
        }
    }
}

impl PartialEq for DiscreteState {
    fn eq(&self, other: &Self) -> bool {
        // The cached hash rejects almost every unequal pair in one compare.
        self.hash == other.hash && self.locations == other.locations && self.vars == other.vars
    }
}

impl Hash for DiscreteState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl fmt::Debug for DiscreteState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DiscreteState({:?}, {:?})",
            self.locations,
            self.vars.values()
        )
    }
}

/// A full symbolic state: discrete part plus clock zone.
#[derive(Clone, Debug, PartialEq)]
pub struct SymState {
    /// Discrete part.
    pub discrete: DiscreteState,
    /// Clock zone (canonical, non-empty for states stored by the explorer).
    pub zone: Dbm,
}

impl SymState {
    /// Convenience constructor.
    pub fn new(discrete: DiscreteState, zone: Dbm) -> SymState {
        SymState { discrete, zone }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_ta::SystemBuilder;

    fn tiny_system() -> System {
        let mut sb = SystemBuilder::new("t");
        let _x = sb.add_clock("x");
        let _n = sb.add_var("n", 0, 3, 1);
        let mut a = sb.automaton("A");
        let l0 = a.location("start").add();
        a.set_initial(l0);
        a.build();
        let mut b = sb.automaton("B");
        let l0 = b.location("wait").add();
        b.set_initial(l0);
        b.build();
        sb.build()
    }

    #[test]
    fn initial_state_matches_declarations() {
        let sys = tiny_system();
        let d = DiscreteState::initial(&sys);
        assert_eq!(d.locations.len(), 2);
        assert_eq!(d.vars.values(), &[1]);
    }

    #[test]
    fn pretty_uses_names() {
        let sys = tiny_system();
        let d = DiscreteState::initial(&sys);
        let s = d.pretty(&sys);
        assert!(s.contains("A.start"));
        assert!(s.contains("B.wait"));
        assert!(s.contains("n=1"));
    }

    #[test]
    fn discrete_state_hash_and_eq() {
        use std::collections::HashSet;
        let sys = tiny_system();
        let a = DiscreteState::initial(&sys);
        let b = DiscreteState::initial(&sys);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
