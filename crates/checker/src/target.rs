//! Target (goal) specifications for reachability queries.
//!
//! A [`TargetSpec`] describes a set of states as a conjunction of
//!
//! * location atoms — "automaton `A` is in location `ℓ`",
//! * a data guard over the integer variables,
//! * clock constraints (satisfied existentially by the zone).
//!
//! This is exactly the shape needed for the paper's queries: Property 1 is the
//! safety property `AG(rstat_m.seen ⇒ rstat_m.y < C)`, which the checker
//! verifies by searching for the target `rstat_m.seen ∧ rstat_m.y ≥ C`.

use crate::error::CheckError;
use crate::state::SymState;
use tempo_ta::{satisfies_constraints, BoolExpr, ClockConstraint, EvalError, LocId, System};

/// A conjunction of location, data and clock atoms describing the goal states
/// of a reachability query.
#[derive(Clone, Debug, Default)]
pub struct TargetSpec {
    /// Location atoms: (automaton index, required location).
    pub locations: Vec<(usize, LocId)>,
    /// Data guard over integer variables (conjunction; `true` if absent).
    pub int_guard: Option<BoolExpr>,
    /// Clock constraints that must be jointly satisfiable within the zone.
    pub clock_guard: Vec<ClockConstraint>,
}

impl TargetSpec {
    /// An unconstrained target (matches every state).
    pub fn any() -> TargetSpec {
        TargetSpec::default()
    }

    /// Target "automaton `automaton` is in location `location`", resolved by
    /// name.
    pub fn location(
        sys: &System,
        automaton: &str,
        location: &str,
    ) -> Result<TargetSpec, CheckError> {
        let ai =
            sys.automaton_by_name(automaton)
                .ok_or_else(|| CheckError::UnknownQueryEntity {
                    what: format!("automaton `{automaton}`"),
                })?;
        let li = sys.automata[ai].location_by_name(location).ok_or_else(|| {
            CheckError::UnknownQueryEntity {
                what: format!("location `{automaton}.{location}`"),
            }
        })?;
        Ok(TargetSpec {
            locations: vec![(ai, li)],
            int_guard: None,
            clock_guard: Vec::new(),
        })
    }

    /// Adds another location atom (resolved by name) to the conjunction.
    pub fn and_location(
        mut self,
        sys: &System,
        automaton: &str,
        location: &str,
    ) -> Result<TargetSpec, CheckError> {
        let other = TargetSpec::location(sys, automaton, location)?;
        self.locations.extend(other.locations);
        Ok(self)
    }

    /// Adds a data guard to the conjunction.
    pub fn with_int_guard(mut self, guard: BoolExpr) -> TargetSpec {
        self.int_guard = Some(match self.int_guard.take() {
            Some(g) => g.and(guard),
            None => guard,
        });
        self
    }

    /// Adds a clock constraint to the conjunction.
    pub fn with_clock_constraint(mut self, c: ClockConstraint) -> TargetSpec {
        self.clock_guard.push(c);
        self
    }

    /// The largest constant any clock of the target is compared against
    /// (needed to make extrapolation sound w.r.t. the query).
    pub fn clock_constants(&self, sys: &System) -> Vec<(tempo_ta::ClockId, i64)> {
        let ranges = sys.var_ranges();
        self.clock_guard
            .iter()
            .map(|c| (c.clock, c.max_constant(&ranges)))
            .collect()
    }

    /// `true` iff the symbolic state intersects the target set.
    pub fn matches(&self, state: &SymState) -> Result<bool, EvalError> {
        for (ai, li) in &self.locations {
            if state.discrete.locations()[*ai] != *li {
                return Ok(false);
            }
        }
        if let Some(g) = &self.int_guard {
            if !g.eval(state.discrete.vars())? {
                return Ok(false);
            }
        }
        if self.clock_guard.is_empty() {
            return Ok(true);
        }
        satisfies_constraints(&state.zone, &self.clock_guard, state.discrete.vars())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::DiscreteState;
    use tempo_dbm::Dbm;
    use tempo_ta::{ClockRef, SystemBuilder, VarExprExt};

    fn sys() -> System {
        let mut sb = SystemBuilder::new("t");
        let _x = sb.add_clock("x");
        let _n = sb.add_var("n", 0, 5, 0);
        let mut a = sb.automaton("A");
        let l0 = a.location("idle").add();
        let _l1 = a.location("busy").add();
        a.set_initial(l0);
        a.build();
        sb.build()
    }

    fn state_at(sys: &System, loc: &str, n: i64, x_upper: i64) -> SymState {
        let mut locs = DiscreteState::initial(sys).locations().to_vec();
        locs[0] = sys.automata[0].location_by_name(loc).unwrap();
        let d = DiscreteState::new(locs, tempo_ta::VarStore::new(vec![n]));
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain(
            tempo_dbm::Clock(1),
            tempo_dbm::Clock::REF,
            tempo_dbm::Bound::weak(x_upper),
        );
        SymState::new(d, z)
    }

    #[test]
    fn location_atom_resolution() {
        let s = sys();
        let t = TargetSpec::location(&s, "A", "busy").unwrap();
        assert!(!t.matches(&state_at(&s, "idle", 0, 10)).unwrap());
        assert!(t.matches(&state_at(&s, "busy", 0, 10)).unwrap());
        assert!(TargetSpec::location(&s, "A", "nope").is_err());
        assert!(TargetSpec::location(&s, "Z", "idle").is_err());
    }

    #[test]
    fn int_and_clock_guards() {
        let s = sys();
        let n = s.var_by_name("n").unwrap();
        let x = s.clock_by_name("x").unwrap();
        let t = TargetSpec::location(&s, "A", "busy")
            .unwrap()
            .with_int_guard(n.ge_(2))
            .with_clock_constraint(x.ge(5));
        // wrong variable value
        assert!(!t.matches(&state_at(&s, "busy", 1, 10)).unwrap());
        // zone only reaches x <= 3, clock atom unsatisfiable
        assert!(!t.matches(&state_at(&s, "busy", 2, 3)).unwrap());
        // all atoms satisfied
        assert!(t.matches(&state_at(&s, "busy", 2, 10)).unwrap());
    }

    #[test]
    fn clock_constants_reported_for_extrapolation() {
        let s = sys();
        let x = s.clock_by_name("x").unwrap();
        let t = TargetSpec::any().with_clock_constraint(x.ge(12345));
        assert_eq!(t.clock_constants(&s), vec![(x, 12345)]);
    }

    #[test]
    fn any_matches_everything() {
        let s = sys();
        assert!(TargetSpec::any()
            .matches(&state_at(&s, "idle", 0, 0))
            .unwrap());
    }
}
