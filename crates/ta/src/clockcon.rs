//! Clock constraints appearing in guards and invariants.
//!
//! The architecture front-end only needs *diagonal-free* constraints of the
//! form `clock ≺ e` / `clock ⪰ e` where `e` is an integer expression over the
//! discrete variables (constant for any fixed discrete state).  This keeps the
//! maximum-bounds extrapolation of the checker sound.

use crate::expr::{EvalError, IntExpr, VarStore};
use crate::ids::ClockId;
use std::fmt;
use tempo_dbm::{Bound, Clock, Dbm, RelOp};

/// A single clock constraint `clock (op) rhs`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ClockConstraint {
    /// The constrained clock.
    pub clock: ClockId,
    /// Relational operator.
    pub op: RelOp,
    /// Right-hand side; evaluated against the discrete variable store when
    /// the constraint is applied to a zone.
    pub rhs: IntExpr,
}

impl ClockConstraint {
    /// Creates a constraint `clock (op) rhs`.
    pub fn new(clock: ClockId, op: RelOp, rhs: impl Into<IntExpr>) -> ClockConstraint {
        ClockConstraint {
            clock,
            op,
            rhs: rhs.into(),
        }
    }

    /// The largest constant this constraint can compare its clock against,
    /// given conservative variable ranges; feeds extrapolation.
    pub fn max_constant(&self, ranges: &[(i64, i64)]) -> i64 {
        let (lo, hi) = self.rhs.value_range(ranges);
        lo.abs().max(hi.abs())
    }
}

impl fmt::Display for ClockConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.clock, self.op, self.rhs)
    }
}

/// Ergonomic constructors for clock constraints, so model code can write
/// `x.le(10)` or `x.ge_var(d)`.
pub trait ClockRef {
    /// `clock <= rhs`
    fn le(self, rhs: impl Into<IntExpr>) -> ClockConstraint;
    /// `clock < rhs`
    fn lt(self, rhs: impl Into<IntExpr>) -> ClockConstraint;
    /// `clock >= rhs`
    fn ge(self, rhs: impl Into<IntExpr>) -> ClockConstraint;
    /// `clock > rhs`
    fn gt(self, rhs: impl Into<IntExpr>) -> ClockConstraint;
    /// `clock == rhs`
    fn eq_(self, rhs: impl Into<IntExpr>) -> ClockConstraint;
}

impl ClockRef for ClockId {
    fn le(self, rhs: impl Into<IntExpr>) -> ClockConstraint {
        ClockConstraint::new(self, RelOp::Le, rhs)
    }
    fn lt(self, rhs: impl Into<IntExpr>) -> ClockConstraint {
        ClockConstraint::new(self, RelOp::Lt, rhs)
    }
    fn ge(self, rhs: impl Into<IntExpr>) -> ClockConstraint {
        ClockConstraint::new(self, RelOp::Ge, rhs)
    }
    fn gt(self, rhs: impl Into<IntExpr>) -> ClockConstraint {
        ClockConstraint::new(self, RelOp::Gt, rhs)
    }
    fn eq_(self, rhs: impl Into<IntExpr>) -> ClockConstraint {
        ClockConstraint::new(self, RelOp::Eq, rhs)
    }
}

/// Applies a conjunction of clock constraints to a zone, in place: each
/// atom's right-hand side is evaluated under `store` and lowered straight
/// into [`Dbm::constrain`] (`==` tightens both sides).  Stops at the first
/// atom that empties the zone; the later right-hand sides are not evaluated.
pub fn apply_constraints(
    zone: &mut Dbm,
    constraints: &[ClockConstraint],
    store: &VarStore,
) -> Result<(), EvalError> {
    for cc in constraints {
        let m = cc.rhs.eval(store)?;
        let x = cc.clock.dbm_clock();
        match cc.op {
            RelOp::Lt => zone.constrain(x, Clock::REF, Bound::strict(m)),
            RelOp::Le => zone.constrain(x, Clock::REF, Bound::weak(m)),
            RelOp::Gt => zone.constrain(Clock::REF, x, Bound::strict(-m)),
            RelOp::Ge => zone.constrain(Clock::REF, x, Bound::weak(-m)),
            RelOp::Eq => zone.constrain(x, Clock::REF, Bound::weak(m)).constrain(
                Clock::REF,
                x,
                Bound::weak(-m),
            ),
        };
        if zone.is_empty() {
            return Ok(());
        }
    }
    Ok(())
}

/// `true` iff the zone has a non-empty intersection with all constraints
/// (without modifying it).  Note this checks satisfiability of each atom
/// separately followed by a joint check only when needed, so callers that need
/// the constrained zone should use [`apply_constraints`] on a clone.
pub fn satisfies_constraints(
    zone: &Dbm,
    constraints: &[ClockConstraint],
    store: &VarStore,
) -> Result<bool, EvalError> {
    if constraints.is_empty() {
        return Ok(!zone.is_empty());
    }
    let mut z = zone.clone();
    apply_constraints(&mut z, constraints, store)?;
    Ok(!z.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_constraints_lowers_every_relop() {
        let x = ClockId(0);
        let store = VarStore::new(vec![7]);
        let applied = |cc: ClockConstraint| {
            let mut z = Dbm::zero(1);
            z.up();
            apply_constraints(&mut z, &[cc], &store).unwrap();
            z
        };
        let z = applied(x.lt(IntExpr::Var(crate::VarId(0))));
        assert_eq!(
            (z.sup(Clock(1)), z.inf(Clock(1))),
            (Bound::strict(7), (0, false))
        );
        let z = applied(x.le(7));
        assert_eq!(
            (z.sup(Clock(1)), z.inf(Clock(1))),
            (Bound::weak(7), (0, false))
        );
        let z = applied(x.gt(7));
        assert_eq!(
            (z.sup(Clock(1)), z.inf(Clock(1))),
            (Bound::INFINITY, (7, true))
        );
        let z = applied(x.ge(7));
        assert_eq!(
            (z.sup(Clock(1)), z.inf(Clock(1))),
            (Bound::INFINITY, (7, false))
        );
        // `==` tightens both sides.
        let z = applied(x.eq_(7));
        assert_eq!(
            (z.sup(Clock(1)), z.inf(Clock(1))),
            (Bound::weak(7), (7, false))
        );

        // The first atom that empties the zone ends the conjunction: the
        // next right-hand side would divide by zero, but is never evaluated.
        let by_zero = IntExpr::Div(Box::new(IntExpr::Const(1)), Box::new(IntExpr::Const(0)));
        let mut z = Dbm::zero(1);
        apply_constraints(&mut z, &[x.ge(1), x.le(by_zero.clone())], &store).unwrap();
        assert!(z.is_empty());
        let mut z = Dbm::zero(1);
        assert_eq!(
            apply_constraints(&mut z, &[x.ge(0), x.le(by_zero)], &store),
            Err(EvalError::DivisionByZero)
        );
    }

    #[test]
    fn apply_and_satisfy() {
        let x = ClockId(0);
        let store = VarStore::new(vec![]);
        let mut z = Dbm::zero(1);
        z.up();
        apply_constraints(&mut z, &[x.le(10), x.ge(4)], &store).unwrap();
        assert!(!z.is_empty());
        assert!(z.contains_point(&[0, 7]));
        assert!(!z.contains_point(&[0, 11]));

        assert!(satisfies_constraints(&z, &[x.ge(10)], &store).unwrap());
        assert!(!satisfies_constraints(&z, &[x.gt(10)], &store).unwrap());
        // Jointly unsatisfiable even though each atom alone is satisfiable.
        assert!(!satisfies_constraints(&z, &[x.le(5), x.ge(6)], &store).unwrap());
    }

    #[test]
    fn max_constant_uses_variable_ranges() {
        let x = ClockId(0);
        let d = crate::VarId(0);
        let cc = x.le(IntExpr::Var(d));
        assert_eq!(cc.max_constant(&[(0, 250)]), 250);
        let cc = x.ge(100);
        assert_eq!(cc.max_constant(&[]), 100);
    }

    #[test]
    fn display() {
        let x = ClockId(1);
        assert_eq!(format!("{}", x.lt(3)), "c1 < 3");
    }
}
