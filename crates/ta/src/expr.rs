//! Integer and boolean expressions over bounded integer variables, plus
//! variable updates and the variable store they are evaluated against.

use crate::ids::VarId;
use std::fmt;

/// Error raised when expression evaluation leaves the declared variable
/// ranges or divides by zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// An assignment moved a variable outside its declared `[min, max]` range.
    OutOfRange {
        /// The variable that overflowed.
        var: VarId,
        /// The offending value.
        value: i64,
        /// Declared minimum.
        min: i64,
        /// Declared maximum.
        max: i64,
    },
    /// Integer division by zero.
    DivisionByZero,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::OutOfRange {
                var,
                value,
                min,
                max,
            } => write!(
                f,
                "variable {var} assigned {value}, outside its range [{min}, {max}]"
            ),
            EvalError::DivisionByZero => write!(f, "integer division by zero"),
        }
    }
}

impl std::error::Error for EvalError {}

/// An integer expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum IntExpr {
    /// Integer literal.
    Const(i64),
    /// Current value of a variable.
    Var(VarId),
    /// Sum of two expressions.
    Add(Box<IntExpr>, Box<IntExpr>),
    /// Difference of two expressions.
    Sub(Box<IntExpr>, Box<IntExpr>),
    /// Product of two expressions.
    Mul(Box<IntExpr>, Box<IntExpr>),
    /// Truncated integer division.
    Div(Box<IntExpr>, Box<IntExpr>),
    /// Arithmetic negation.
    Neg(Box<IntExpr>),
    /// Conditional expression `cond ? then : else` (UPPAAL's ternary operator,
    /// used by the measuring automaton of Fig. 9: `m = (m < 0 ? m : m - 1)`).
    Ite(Box<BoolExpr>, Box<IntExpr>, Box<IntExpr>),
}

impl IntExpr {
    /// Shorthand for a variable reference.
    pub fn var(v: VarId) -> IntExpr {
        IntExpr::Var(v)
    }

    /// Evaluates the expression against a variable store.
    pub fn eval(&self, store: &VarStore) -> Result<i64, EvalError> {
        Ok(match self {
            IntExpr::Const(c) => *c,
            IntExpr::Var(v) => store.get(*v),
            IntExpr::Add(a, b) => a.eval(store)? + b.eval(store)?,
            IntExpr::Sub(a, b) => a.eval(store)? - b.eval(store)?,
            IntExpr::Mul(a, b) => a.eval(store)? * b.eval(store)?,
            IntExpr::Div(a, b) => {
                let d = b.eval(store)?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                a.eval(store)? / d
            }
            IntExpr::Neg(a) => -a.eval(store)?,
            IntExpr::Ite(c, t, e) => {
                if c.eval(store)? {
                    t.eval(store)?
                } else {
                    e.eval(store)?
                }
            }
        })
    }

    /// Conservative bounds `[lo, hi]` of the expression value given variable
    /// ranges, used to compute extrapolation constants for clock constraints
    /// whose right-hand side mentions variables (e.g. the invariant `x <= D`
    /// of the preemptive resource pattern).
    pub fn value_range(&self, ranges: &[(i64, i64)]) -> (i64, i64) {
        match self {
            IntExpr::Const(c) => (*c, *c),
            IntExpr::Var(v) => ranges
                .get(v.index())
                .copied()
                .unwrap_or((i64::MIN, i64::MAX)),
            IntExpr::Add(a, b) => {
                let (al, ah) = a.value_range(ranges);
                let (bl, bh) = b.value_range(ranges);
                (al.saturating_add(bl), ah.saturating_add(bh))
            }
            IntExpr::Sub(a, b) => {
                let (al, ah) = a.value_range(ranges);
                let (bl, bh) = b.value_range(ranges);
                (al.saturating_sub(bh), ah.saturating_sub(bl))
            }
            IntExpr::Mul(a, b) => {
                let (al, ah) = a.value_range(ranges);
                let (bl, bh) = b.value_range(ranges);
                let candidates = [
                    al.saturating_mul(bl),
                    al.saturating_mul(bh),
                    ah.saturating_mul(bl),
                    ah.saturating_mul(bh),
                ];
                (
                    *candidates.iter().min().unwrap(),
                    *candidates.iter().max().unwrap(),
                )
            }
            IntExpr::Div(a, _) => {
                // Conservative: dividing can only shrink magnitude or flip sign.
                let (al, ah) = a.value_range(ranges);
                let m = al.abs().max(ah.abs());
                (-m, m)
            }
            IntExpr::Neg(a) => {
                let (al, ah) = a.value_range(ranges);
                (-ah, -al)
            }
            IntExpr::Ite(_, t, e) => {
                let (tl, th) = t.value_range(ranges);
                let (el, eh) = e.value_range(ranges);
                (tl.min(el), th.max(eh))
            }
        }
    }

    /// All variables read by this expression.
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            IntExpr::Const(_) => {}
            IntExpr::Var(v) => out.push(*v),
            IntExpr::Add(a, b) | IntExpr::Sub(a, b) | IntExpr::Mul(a, b) | IntExpr::Div(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            IntExpr::Neg(a) => a.collect_vars(out),
            IntExpr::Ite(c, t, e) => {
                c.collect_vars(out);
                t.collect_vars(out);
                e.collect_vars(out);
            }
        }
    }
}

impl From<i64> for IntExpr {
    fn from(c: i64) -> Self {
        IntExpr::Const(c)
    }
}

impl From<VarId> for IntExpr {
    fn from(v: VarId) -> Self {
        IntExpr::Var(v)
    }
}

impl std::ops::Add for IntExpr {
    type Output = IntExpr;
    fn add(self, rhs: IntExpr) -> IntExpr {
        IntExpr::Add(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for IntExpr {
    type Output = IntExpr;
    fn sub(self, rhs: IntExpr) -> IntExpr {
        IntExpr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl fmt::Display for IntExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntExpr::Const(c) => write!(f, "{c}"),
            IntExpr::Var(v) => write!(f, "{v}"),
            IntExpr::Add(a, b) => write!(f, "({a} + {b})"),
            IntExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            IntExpr::Mul(a, b) => write!(f, "({a} * {b})"),
            IntExpr::Div(a, b) => write!(f, "({a} / {b})"),
            IntExpr::Neg(a) => write!(f, "-({a})"),
            IntExpr::Ite(c, t, e) => write!(f, "({c} ? {t} : {e})"),
        }
    }
}

/// A boolean expression over integer variables (data guards).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum BoolExpr {
    /// Constant truth value.
    Const(bool),
    /// `a == b`
    Eq(IntExpr, IntExpr),
    /// `a != b`
    Ne(IntExpr, IntExpr),
    /// `a < b`
    Lt(IntExpr, IntExpr),
    /// `a <= b`
    Le(IntExpr, IntExpr),
    /// `a > b`
    Gt(IntExpr, IntExpr),
    /// `a >= b`
    Ge(IntExpr, IntExpr),
    /// Conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Negation.
    Not(Box<BoolExpr>),
}

impl BoolExpr {
    /// The always-true guard.
    pub fn tt() -> BoolExpr {
        BoolExpr::Const(true)
    }

    /// Evaluates the expression against a variable store.
    pub fn eval(&self, store: &VarStore) -> Result<bool, EvalError> {
        Ok(match self {
            BoolExpr::Const(b) => *b,
            BoolExpr::Eq(a, b) => a.eval(store)? == b.eval(store)?,
            BoolExpr::Ne(a, b) => a.eval(store)? != b.eval(store)?,
            BoolExpr::Lt(a, b) => a.eval(store)? < b.eval(store)?,
            BoolExpr::Le(a, b) => a.eval(store)? <= b.eval(store)?,
            BoolExpr::Gt(a, b) => a.eval(store)? > b.eval(store)?,
            BoolExpr::Ge(a, b) => a.eval(store)? >= b.eval(store)?,
            BoolExpr::And(a, b) => a.eval(store)? && b.eval(store)?,
            BoolExpr::Or(a, b) => a.eval(store)? || b.eval(store)?,
            BoolExpr::Not(a) => !a.eval(store)?,
        })
    }

    /// Conjunction helper that avoids wrapping trivially-true operands.
    pub fn and(self, other: BoolExpr) -> BoolExpr {
        match (self, other) {
            (BoolExpr::Const(true), o) => o,
            (s, BoolExpr::Const(true)) => s,
            (s, o) => BoolExpr::And(Box::new(s), Box::new(o)),
        }
    }

    /// All variables read by this expression.
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            BoolExpr::Const(_) => {}
            BoolExpr::Eq(a, b)
            | BoolExpr::Ne(a, b)
            | BoolExpr::Lt(a, b)
            | BoolExpr::Le(a, b)
            | BoolExpr::Gt(a, b)
            | BoolExpr::Ge(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            BoolExpr::Not(a) => a.collect_vars(out),
        }
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Const(b) => write!(f, "{b}"),
            BoolExpr::Eq(a, b) => write!(f, "{a} == {b}"),
            BoolExpr::Ne(a, b) => write!(f, "{a} != {b}"),
            BoolExpr::Lt(a, b) => write!(f, "{a} < {b}"),
            BoolExpr::Le(a, b) => write!(f, "{a} <= {b}"),
            BoolExpr::Gt(a, b) => write!(f, "{a} > {b}"),
            BoolExpr::Ge(a, b) => write!(f, "{a} >= {b}"),
            BoolExpr::And(a, b) => write!(f, "({a} && {b})"),
            BoolExpr::Or(a, b) => write!(f, "({a} || {b})"),
            BoolExpr::Not(a) => write!(f, "!({a})"),
        }
    }
}

/// Convenience constructors mirroring UPPAAL guard syntax on variables.
pub trait VarExprExt {
    /// `self == rhs`
    fn eq_(self, rhs: impl Into<IntExpr>) -> BoolExpr;
    /// `self != rhs`
    fn ne_(self, rhs: impl Into<IntExpr>) -> BoolExpr;
    /// `self > rhs`
    fn gt_(self, rhs: impl Into<IntExpr>) -> BoolExpr;
    /// `self >= rhs`
    fn ge_(self, rhs: impl Into<IntExpr>) -> BoolExpr;
    /// `self < rhs`
    fn lt_(self, rhs: impl Into<IntExpr>) -> BoolExpr;
    /// `self <= rhs`
    fn le_(self, rhs: impl Into<IntExpr>) -> BoolExpr;
}

impl VarExprExt for VarId {
    fn eq_(self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr::Eq(IntExpr::Var(self), rhs.into())
    }
    fn ne_(self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr::Ne(IntExpr::Var(self), rhs.into())
    }
    fn gt_(self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr::Gt(IntExpr::Var(self), rhs.into())
    }
    fn ge_(self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr::Ge(IntExpr::Var(self), rhs.into())
    }
    fn lt_(self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr::Lt(IntExpr::Var(self), rhs.into())
    }
    fn le_(self, rhs: impl Into<IntExpr>) -> BoolExpr {
        BoolExpr::Le(IntExpr::Var(self), rhs.into())
    }
}

/// A single variable assignment `var := expr`, executed atomically with the
/// other updates of an edge, in order.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Update {
    /// Target variable.
    pub var: VarId,
    /// Assigned expression, evaluated against the pre-update store of this
    /// particular update (updates execute sequentially, like UPPAAL).
    pub expr: IntExpr,
}

impl Update {
    /// `var := expr`
    pub fn assign(var: VarId, expr: impl Into<IntExpr>) -> Update {
        Update {
            var,
            expr: expr.into(),
        }
    }

    /// `var := var + delta`
    pub fn add(var: VarId, delta: i64) -> Update {
        Update {
            var,
            expr: IntExpr::Add(Box::new(IntExpr::Var(var)), Box::new(IntExpr::Const(delta))),
        }
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} := {}", self.var, self.expr)
    }
}

/// The valuation of all integer variables of a system, together with their
/// declared ranges (used for range checking on assignment).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct VarStore {
    values: Vec<i64>,
}

impl VarStore {
    /// Creates a store with the given initial values.
    pub fn new(values: Vec<i64>) -> VarStore {
        VarStore { values }
    }

    /// Current value of a variable.
    #[inline]
    pub fn get(&self, v: VarId) -> i64 {
        self.values[v.index()]
    }

    /// Raw slice of values (indexed by `VarId`).
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Applies a sequence of updates, checking each assigned value against the
    /// supplied ranges.
    pub fn apply(&mut self, updates: &[Update], ranges: &[(i64, i64)]) -> Result<(), EvalError> {
        for u in updates {
            let value = u.expr.eval(self)?;
            let (min, max) = ranges
                .get(u.var.index())
                .copied()
                .unwrap_or((i64::MIN, i64::MAX));
            if value < min || value > max {
                return Err(EvalError::OutOfRange {
                    var: u.var,
                    value,
                    min,
                    max,
                });
            }
            self.values[u.var.index()] = value;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(vals: &[i64]) -> VarStore {
        VarStore::new(vals.to_vec())
    }

    #[test]
    fn arithmetic_evaluation() {
        let s = store(&[3, 4]);
        let e = IntExpr::Var(VarId(0)) + IntExpr::Const(10);
        assert_eq!(e.eval(&s).unwrap(), 13);
        let e = IntExpr::Mul(
            Box::new(IntExpr::Var(VarId(0))),
            Box::new(IntExpr::Var(VarId(1))),
        );
        assert_eq!(e.eval(&s).unwrap(), 12);
        let e = IntExpr::Div(Box::new(IntExpr::Const(7)), Box::new(IntExpr::Const(2)));
        assert_eq!(e.eval(&s).unwrap(), 3);
        let e = IntExpr::Div(Box::new(IntExpr::Const(7)), Box::new(IntExpr::Const(0)));
        assert_eq!(e.eval(&s), Err(EvalError::DivisionByZero));
        let e = IntExpr::Neg(Box::new(IntExpr::Var(VarId(1))));
        assert_eq!(e.eval(&s).unwrap(), -4);
    }

    #[test]
    fn conditional_expression_like_fig9() {
        // m = (m < 0 ? m : m - 1)
        let m = VarId(0);
        let expr = IntExpr::Ite(
            Box::new(m.lt_(0)),
            Box::new(IntExpr::Var(m)),
            Box::new(IntExpr::Var(m) - IntExpr::Const(1)),
        );
        assert_eq!(expr.eval(&store(&[-1])).unwrap(), -1);
        assert_eq!(expr.eval(&store(&[3])).unwrap(), 2);
        assert_eq!(expr.eval(&store(&[0])).unwrap(), -1);
    }

    #[test]
    fn boolean_evaluation() {
        let s = store(&[2, 5]);
        let g = VarId(0).gt_(0).and(VarId(1).eq_(5));
        assert!(g.eval(&s).unwrap());
        let g = VarId(0).gt_(0).and(VarId(1).ne_(5));
        assert!(!g.eval(&s).unwrap());
        let g = BoolExpr::Or(
            Box::new(VarId(0).lt_(0)),
            Box::new(BoolExpr::Not(Box::new(VarId(1).le_(4)))),
        );
        assert!(g.eval(&s).unwrap());
    }

    #[test]
    fn and_simplifies_true() {
        assert_eq!(BoolExpr::tt().and(VarId(0).eq_(1)), VarId(0).eq_(1));
        assert_eq!(VarId(0).eq_(1).and(BoolExpr::tt()), VarId(0).eq_(1));
    }

    #[test]
    fn updates_are_sequential_and_range_checked() {
        let ranges = vec![(0, 10), (0, 10)];
        let mut s = store(&[1, 2]);
        // v0 := v0 + 1; v1 := v0 (sees the incremented value)
        s.apply(
            &[Update::add(VarId(0), 1), Update::assign(VarId(1), VarId(0))],
            &ranges,
        )
        .unwrap();
        assert_eq!(s.values(), &[2, 2]);

        let err = s
            .apply(&[Update::assign(VarId(0), 42)], &ranges)
            .unwrap_err();
        assert!(matches!(err, EvalError::OutOfRange { value: 42, .. }));
    }

    #[test]
    fn value_range_covers_possible_values() {
        let ranges = vec![(0, 5), (2, 3)];
        let e = IntExpr::Var(VarId(0)) + IntExpr::Var(VarId(1));
        assert_eq!(e.value_range(&ranges), (2, 8));
        let e = IntExpr::Sub(
            Box::new(IntExpr::Var(VarId(0))),
            Box::new(IntExpr::Var(VarId(1))),
        );
        assert_eq!(e.value_range(&ranges), (-3, 3));
        let e = IntExpr::Ite(
            Box::new(VarId(0).eq_(0)),
            Box::new(IntExpr::Const(100)),
            Box::new(IntExpr::Var(VarId(1))),
        );
        assert_eq!(e.value_range(&ranges), (2, 100));
    }

    #[test]
    fn collect_vars_finds_all_reads() {
        let mut vars = Vec::new();
        let g = VarId(3).gt_(0).and(BoolExpr::Eq(
            IntExpr::Var(VarId(1)) + IntExpr::Var(VarId(2)),
            IntExpr::Const(0),
        ));
        g.collect_vars(&mut vars);
        vars.sort();
        assert_eq!(vars, vec![VarId(1), VarId(2), VarId(3)]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Update::add(VarId(2), -1)), "v2 := (v2 + -1)");
        assert_eq!(format!("{}", VarId(0).ge_(3)), "v0 >= 3");
    }
}
