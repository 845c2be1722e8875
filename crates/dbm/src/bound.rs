//! The [`Bound`] type: an element of the difference bound matrix.
//!
//! A bound is either infinity (`∞`, no constraint) or a pair `(m, ≺)` with
//! `m ∈ ℤ` and `≺ ∈ {<, ≤}`, meaning `x_i − x_j ≺ m`.  Bounds are totally
//! ordered by constraint tightness: `(m, <) < (m, ≤) < (m+1, <) < … < ∞`.
//!
//! Internally a bound is encoded in a single `i64` as `2·m + weak_bit`, the
//! same trick used by the UPPAAL DBM library, so that comparison of encoded
//! values coincides with the tightness order and addition is two shifts and an
//! and.

use std::fmt;
use std::ops::Add;

/// A single difference bound: `∞` or `(constant, strictness)`.
///
/// The natural order of `Bound` is the *tightness* order used throughout DBM
/// algorithms: a smaller bound is a stronger constraint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Bound(i64);

/// Raw encoding of infinity.  Chosen so that `INF_RAW + INF_RAW` does not
/// overflow when computed with saturating arithmetic.
const INF_RAW: i64 = i64::MAX;

/// Largest representable finite constant.  Constants produced by the
/// architecture front-end are far below this.
pub(crate) const MAX_CONST: i64 = (i64::MAX >> 2) - 1;

/// Raw encoding of the loosest finite bound, `(MAX_CONST, ≤)`.
const MAX_FINITE_RAW: i64 = 2 * MAX_CONST + 1;

/// Raw encoding of the tightest representable bound, `(−MAX_CONST, <)`.
const MIN_FINITE_RAW: i64 = -2 * MAX_CONST;

impl Bound {
    /// The unconstrained bound `∞`.
    pub const INFINITY: Bound = Bound(INF_RAW);

    /// The largest finite constant a bound can hold; [`Bound::weak`] and
    /// [`Bound::strict`] panic beyond it.
    pub const MAX_CONSTANT: i64 = MAX_CONST;

    /// The bound `(0, ≤)`, i.e. `x_i − x_j ≤ 0`.
    pub const LE_ZERO: Bound = Bound(1);

    /// The bound `(0, <)`, i.e. `x_i − x_j < 0`.
    pub const LT_ZERO: Bound = Bound(0);

    /// Creates the non-strict (weak) bound `(m, ≤)`.
    ///
    /// # Panics
    /// Panics if `m` is outside the representable constant range.
    #[inline]
    pub fn weak(m: i64) -> Bound {
        assert!(
            (-MAX_CONST..=MAX_CONST).contains(&m),
            "DBM constant {m} out of range"
        );
        Bound(2 * m + 1)
    }

    /// Creates the strict bound `(m, <)`.
    ///
    /// # Panics
    /// Panics if `m` is outside the representable constant range.
    #[inline]
    pub fn strict(m: i64) -> Bound {
        assert!(
            (-MAX_CONST..=MAX_CONST).contains(&m),
            "DBM constant {m} out of range"
        );
        Bound(2 * m)
    }

    /// Creates a bound from a constant and a strictness flag.
    #[inline]
    pub fn new(m: i64, is_strict: bool) -> Bound {
        if is_strict {
            Bound::strict(m)
        } else {
            Bound::weak(m)
        }
    }

    /// Returns `true` for the `∞` bound.
    #[inline]
    pub fn is_infinity(self) -> bool {
        self.0 == INF_RAW
    }

    /// Returns `true` for a strict (`<`) bound.  `∞` is not strict.
    #[inline]
    pub fn is_strict(self) -> bool {
        !self.is_infinity() && self.0 & 1 == 0
    }

    /// The integer constant of a finite bound.
    ///
    /// # Panics
    /// Panics when called on `∞`.
    #[inline]
    pub fn constant(self) -> i64 {
        assert!(!self.is_infinity(), "infinity has no constant");
        self.0 >> 1
    }

    /// The constant of a finite bound, or `None` for `∞`.
    #[inline]
    pub fn finite_constant(self) -> Option<i64> {
        if self.is_infinity() {
            None
        } else {
            Some(self.0 >> 1)
        }
    }

    /// Bound addition: the tightest bound implied by chaining
    /// `x−y ≺₁ m₁` and `y−z ≺₂ m₂`.  `∞` is absorbing, constants add, and the
    /// result is weak only if both operands are weak.
    ///
    /// A sum looser than `(MAX_CONST, ≤)` saturates to `∞`: shortest-path
    /// relaxation only ever takes the *minimum* of a sum against an existing
    /// entry, so replacing an unrepresentably loose bound by `∞` never changes
    /// which entry wins.  A sum below `(−MAX_CONST, <)` has no such safe
    /// substitute (clamping would silently *loosen* a constraint), so it
    /// panics instead of wrapping.
    ///
    /// # Panics
    /// Panics when the sum is tighter than the encodable range.
    #[inline]
    #[allow(clippy::should_implement_trait)] // deliberate: chaining, not arithmetic
    pub fn add(self, other: Bound) -> Bound {
        if self.is_infinity() || other.is_infinity() {
            return Bound::INFINITY;
        }
        // (2a + wa) + (2b + wb) - adjust so the weak bit is the AND.  Both
        // operands are within the finite encoding, so the i64 sum cannot wrap.
        let raw = (self.0 & !1) + (other.0 & !1) + (self.0 & other.0 & 1);
        if raw > MAX_FINITE_RAW {
            return Bound::INFINITY;
        }
        assert!(raw >= MIN_FINITE_RAW, "DBM bound addition underflow");
        Bound(raw)
    }

    /// The negation used in emptiness/consistency checks: the bound `b'` such
    /// that `x−y ≺ m` and `y−x ≺' m'` are jointly unsatisfiable iff
    /// `b.add(b') < (0, ≤)`.  Concretely `¬(m, ≤) = (−m, <)` and
    /// `¬(m, <) = (−m, ≤)`.
    ///
    /// # Panics
    /// Panics when called on `∞`.
    #[inline]
    pub fn negated(self) -> Bound {
        assert!(!self.is_infinity(), "cannot negate infinity");
        Bound::new(-self.constant(), !self.is_strict())
    }

    /// Minimum (tighter) of two bounds.
    #[inline]
    pub fn min(self, other: Bound) -> Bound {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Maximum (looser) of two bounds.
    #[inline]
    pub fn max(self, other: Bound) -> Bound {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Raw encoded value (for hashing / debugging).
    #[inline]
    pub fn raw(self) -> i64 {
        self.0
    }

    /// `true` iff a valuation difference equal to `d` satisfies this bound.
    #[inline]
    pub fn admits(self, d: i64) -> bool {
        if self.is_infinity() {
            return true;
        }
        if self.is_strict() {
            d < self.constant()
        } else {
            d <= self.constant()
        }
    }
}

impl Add for Bound {
    type Output = Bound;
    #[inline]
    fn add(self, rhs: Bound) -> Bound {
        Bound::add(self, rhs)
    }
}

impl Default for Bound {
    /// The default bound is `∞` (no constraint).
    fn default() -> Self {
        Bound::INFINITY
    }
}

impl fmt::Debug for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinity() {
            write!(f, "<∞")
        } else if self.is_strict() {
            write!(f, "<{}", self.constant())
        } else {
            write!(f, "≤{}", self.constant())
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_tightness() {
        assert!(Bound::strict(3) < Bound::weak(3));
        assert!(Bound::weak(3) < Bound::strict(4));
        assert!(Bound::weak(4) < Bound::INFINITY);
        assert!(Bound::strict(-2) < Bound::weak(0));
        assert_eq!(Bound::LT_ZERO, Bound::strict(0));
        assert_eq!(Bound::LE_ZERO, Bound::weak(0));
    }

    #[test]
    fn addition_tracks_strictness() {
        assert_eq!(Bound::weak(2) + Bound::weak(3), Bound::weak(5));
        assert_eq!(Bound::weak(2) + Bound::strict(3), Bound::strict(5));
        assert_eq!(Bound::strict(2) + Bound::strict(3), Bound::strict(5));
        assert_eq!(Bound::weak(-2) + Bound::weak(2), Bound::weak(0));
    }

    #[test]
    fn addition_absorbs_infinity() {
        assert_eq!(Bound::INFINITY + Bound::weak(7), Bound::INFINITY);
        assert_eq!(Bound::strict(-100) + Bound::INFINITY, Bound::INFINITY);
        assert_eq!(Bound::INFINITY + Bound::INFINITY, Bound::INFINITY);
    }

    #[test]
    fn negation_roundtrip() {
        for b in [
            Bound::weak(5),
            Bound::strict(5),
            Bound::weak(-3),
            Bound::LE_ZERO,
        ] {
            assert_eq!(b.negated().negated(), b);
        }
        // x - y <= 5 and y - x < -5 are inconsistent (sum < 0)
        assert!(Bound::weak(5) + Bound::weak(5).negated() < Bound::LE_ZERO);
        // x - y <= 5 and y - x <= -5 are consistent (x - y = 5)
        assert!(Bound::weak(5) + Bound::weak(-5) >= Bound::LE_ZERO);
    }

    #[test]
    fn constants_and_flags() {
        assert_eq!(Bound::weak(42).constant(), 42);
        assert!(!Bound::weak(42).is_strict());
        assert_eq!(Bound::strict(-42).constant(), -42);
        assert!(Bound::strict(-42).is_strict());
        assert!(Bound::INFINITY.is_infinity());
        assert_eq!(Bound::weak(7).finite_constant(), Some(7));
        assert_eq!(Bound::INFINITY.finite_constant(), None);
    }

    #[test]
    fn admits_checks_inequality_kind() {
        assert!(Bound::weak(5).admits(5));
        assert!(!Bound::strict(5).admits(5));
        assert!(Bound::strict(5).admits(4));
        assert!(Bound::INFINITY.admits(i64::MAX / 4));
        assert!(!Bound::weak(-1).admits(0));
    }

    #[test]
    fn min_max() {
        assert_eq!(Bound::weak(3).min(Bound::strict(3)), Bound::strict(3));
        assert_eq!(Bound::weak(3).max(Bound::INFINITY), Bound::INFINITY);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_constant() {
        let _ = Bound::weak(i64::MAX / 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_negative_constant() {
        let _ = Bound::strict(-(MAX_CONST + 1));
    }

    #[test]
    fn extreme_constants_round_trip_and_order() {
        // The four corners of the encoding are representable, round-trip
        // through constant()/is_strict(), and sit in the tightness
        // order exactly where the lexicographic (m, ≺) order puts them.
        let corners = [
            Bound::strict(-MAX_CONST),
            Bound::weak(-MAX_CONST),
            Bound::strict(MAX_CONST),
            Bound::weak(MAX_CONST),
        ];
        for b in corners {
            assert_eq!(Bound::new(b.constant(), b.is_strict()), b);
        }
        assert!(corners[0] < corners[1]);
        assert!(corners[1] < corners[2]);
        assert!(corners[2] < corners[3]);
        assert!(corners[3] < Bound::INFINITY);
    }

    #[test]
    fn addition_saturates_to_infinity_past_max_const() {
        // Looser-than-encodable sums become ∞ — sound, because a chained
        // path this loose can never beat an existing entry in a min().
        let loose = Bound::weak(MAX_CONST) + Bound::weak(1);
        assert!(loose.is_infinity());
        assert_eq!(
            Bound::weak(MAX_CONST) + Bound::weak(MAX_CONST),
            Bound::INFINITY
        );
        // The largest non-saturating sum is exact.
        assert_eq!(
            Bound::weak(MAX_CONST) + Bound::weak(0),
            Bound::weak(MAX_CONST)
        );
        assert_eq!(
            Bound::weak(MAX_CONST) + Bound::strict(0),
            Bound::strict(MAX_CONST)
        );
        // Saturation only looks at the sum, not the operands.
        assert_eq!(
            Bound::weak(MAX_CONST) + Bound::weak(-MAX_CONST),
            Bound::weak(0)
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn addition_panics_on_underflow() {
        // Tighter-than-encodable sums have no sound substitute.
        let _ = Bound::strict(-MAX_CONST) + Bound::strict(-MAX_CONST);
    }

    #[test]
    #[should_panic(expected = "no constant")]
    fn infinity_has_no_constant() {
        let _ = Bound::INFINITY.constant();
    }
}
