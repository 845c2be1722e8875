//! Property-based tests for the DBM library.
//!
//! The strategy generates random zones by applying random sequences of
//! operations (delay, constrain, reset) to the origin zone, plus random
//! concrete valuations, and checks the algebraic laws that forward
//! reachability relies on.

use proptest::prelude::*;
use tempo_dbm::{Bound, Clock, Constraint, Dbm, Relation};

const NUM_CLOCKS: usize = 3;

/// One symbolic operation applied while generating a random zone.
#[derive(Clone, Debug)]
enum Op {
    Up,
    UpperBound {
        clock: u32,
        value: i64,
        strict: bool,
    },
    LowerBound {
        clock: u32,
        value: i64,
        strict: bool,
    },
    Diff {
        a: u32,
        b: u32,
        value: i64,
        strict: bool,
    },
    Reset {
        clock: u32,
        value: i64,
    },
    Free {
        clock: u32,
    },
}

fn clock_idx() -> impl Strategy<Value = u32> {
    1..=(NUM_CLOCKS as u32)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Up),
        (clock_idx(), 0i64..50, any::<bool>()).prop_map(|(clock, value, strict)| Op::UpperBound {
            clock,
            value,
            strict
        }),
        (clock_idx(), 0i64..50, any::<bool>()).prop_map(|(clock, value, strict)| Op::LowerBound {
            clock,
            value,
            strict
        }),
        (clock_idx(), clock_idx(), -30i64..30, any::<bool>()).prop_map(|(a, b, value, strict)| {
            Op::Diff {
                a,
                b,
                value,
                strict,
            }
        }),
        (clock_idx(), 0i64..20).prop_map(|(clock, value)| Op::Reset { clock, value }),
        clock_idx().prop_map(|clock| Op::Free { clock }),
    ]
}

fn apply(z: &mut Dbm, op: &Op) {
    match *op {
        Op::Up => {
            z.up();
        }
        Op::UpperBound {
            clock,
            value,
            strict,
        } => {
            z.constrain(Clock(clock), Clock::REF, Bound::new(value, strict));
        }
        Op::LowerBound {
            clock,
            value,
            strict,
        } => {
            z.constrain(Clock::REF, Clock(clock), Bound::new(-value, strict));
        }
        Op::Diff {
            a,
            b,
            value,
            strict,
        } => {
            if a != b {
                z.constrain(Clock(a), Clock(b), Bound::new(value, strict));
            }
        }
        Op::Reset { clock, value } => {
            z.reset(Clock(clock), value);
        }
        Op::Free { clock } => {
            z.free(Clock(clock));
        }
    }
}

fn random_zone() -> impl Strategy<Value = Dbm> {
    proptest::collection::vec(op_strategy(), 0..12).prop_map(|ops| {
        let mut z = Dbm::zero(NUM_CLOCKS);
        for op in &ops {
            apply(&mut z, op);
        }
        z
    })
}

fn valuation() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(0i64..60, NUM_CLOCKS).prop_map(|mut v| {
        v.insert(0, 0);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Re-closing a canonical zone changes nothing.
    #[test]
    fn close_is_idempotent(z in random_zone()) {
        let mut closed = z.clone();
        closed.close();
        prop_assert_eq!(closed.relation(&z), Relation::Equal);
    }

    /// The membership predicate agrees with the constraint semantics:
    /// a point is in `z ∧ c` iff it is in `z` and satisfies `c`.
    #[test]
    fn constrain_is_intersection(z in random_zone(), v in valuation(),
                                 clock in clock_idx(), m in 0i64..60, strict in any::<bool>()) {
        let c = Constraint::upper(Clock(clock), Bound::new(m, strict));
        let mut zc = z.clone();
        zc.and(&c);
        let expected = z.contains_point(&v) && c.holds(&v);
        prop_assert_eq!(zc.contains_point(&v), expected);
    }

    /// `up` only adds valuations reachable by uniform delay and never loses points.
    #[test]
    fn up_is_extensive(z in random_zone(), v in valuation(), d in 0i64..40) {
        let mut up = z.clone();
        up.up();
        if z.contains_point(&v) {
            prop_assert!(up.contains_point(&v));
            let delayed: Vec<i64> =
                v.iter().enumerate().map(|(i, &x)| if i == 0 { 0 } else { x + d }).collect();
            prop_assert!(up.contains_point(&delayed));
        }
    }

    /// After `reset(x, k)` every member valuation has `x == k`, and the other
    /// clocks keep values they could have had before.
    #[test]
    fn reset_post_condition(z in random_zone(), clock in clock_idx(), k in 0i64..20, v in valuation()) {
        let mut r = z.clone();
        r.reset(Clock(clock), k);
        prop_assert_eq!(r.is_empty(), z.is_empty());
        if r.contains_point(&v) {
            prop_assert_eq!(v[clock as usize], k);
        }
        if z.contains_point(&v) {
            let mut w = v.clone();
            w[clock as usize] = k;
            prop_assert!(r.contains_point(&w));
        }
    }

    /// Zone inclusion is consistent with point membership.
    #[test]
    fn inclusion_sound_for_points(a in random_zone(), b in random_zone(), v in valuation()) {
        if a.includes(&b) && b.contains_point(&v) {
            prop_assert!(a.contains_point(&v));
        }
    }

    /// `relation` is antisymmetric and consistent with `includes`.
    #[test]
    fn relation_consistency(a in random_zone(), b in random_zone()) {
        match a.relation(&b) {
            Relation::Equal => {
                prop_assert!(a.includes(&b) && b.includes(&a));
                prop_assert_eq!(b.relation(&a), Relation::Equal);
            }
            Relation::Subset => {
                prop_assert!(b.includes(&a));
                prop_assert_eq!(b.relation(&a), Relation::Superset);
            }
            Relation::Superset => {
                prop_assert!(a.includes(&b));
                prop_assert_eq!(b.relation(&a), Relation::Subset);
            }
            Relation::Incomparable => {
                prop_assert_eq!(b.relation(&a), Relation::Incomparable);
            }
        }
    }

    /// Extrapolation is a sound abstraction: it only grows the zone.
    #[test]
    fn extrapolation_is_extensive(z in random_zone(),
                                  k in proptest::collection::vec(0i64..30, NUM_CLOCKS + 1)) {
        let mut e = z.clone();
        e.extrapolate_lu(&k, &k);
        prop_assert!(e.includes(&z));
        // And it is idempotent: a fixpoint has every finite entry bounded by
        // the constant tables, so only finitely many extrapolated zones exist
        // per location (the explorer's termination argument).
        let once = e.clone();
        e.extrapolate_lu(&k, &k);
        prop_assert_eq!(e.relation(&once), Relation::Equal);
    }

    /// LU extrapolation is at least as coarse as M extrapolation (LU with both
    /// tables at the maximal constants `k`): constants at or below `k` only
    /// widen more.
    #[test]
    fn lu_is_coarser_than_m(z in random_zone(),
                            k in proptest::collection::vec(0i64..30, NUM_CLOCKS + 1),
                            cut in proptest::collection::vec(0i64..30, 2 * (NUM_CLOCKS + 1))) {
        let mut m = z.clone();
        m.extrapolate_lu(&k, &k);
        let (lower, upper): (Vec<i64>, Vec<i64>) = k
            .iter()
            .enumerate()
            .map(|(i, &c)| ((c - cut[i]).max(0), (c - cut[NUM_CLOCKS + 1 + i]).max(0)))
            .unzip();
        let mut lu = z.clone();
        lu.extrapolate_lu(&lower, &upper);
        prop_assert!(m.includes(&z));
        prop_assert!(lu.includes(&m));
    }

    /// Constraining by every entry of `b` intersects with `b`: the result is
    /// the greatest lower bound w.r.t. point membership.
    #[test]
    fn intersection_semantics(a in random_zone(), b in random_zone(), v in valuation()) {
        let mut i = if b.is_empty() { Dbm::empty(NUM_CLOCKS) } else { a.clone() };
        for x in 0..=NUM_CLOCKS as u32 {
            for y in 0..=NUM_CLOCKS as u32 {
                i.constrain(Clock(x), Clock(y), b.get(Clock(x), Clock(y)));
            }
        }
        prop_assert_eq!(i.contains_point(&v), a.contains_point(&v) && b.contains_point(&v));
    }

    /// `free` makes the freed clock unconstrained while keeping the projection
    /// of the other clocks.
    #[test]
    fn free_post_condition(z in random_zone(), clock in clock_idx(), v in valuation(), nv in 0i64..60) {
        let mut fz = z.clone();
        fz.free(Clock(clock));
        if z.contains_point(&v) {
            let mut w = v.clone();
            w[clock as usize] = nv;
            prop_assert!(fz.contains_point(&w));
        }
    }

    /// Tightening a single entry of a random canonical matrix and re-closing
    /// with the incremental `close1`, or tightening it through `constrain`,
    /// yields bound-for-bound the same matrix as a full Floyd–Warshall
    /// `close` — including agreeing on emptiness.
    #[test]
    fn close1_matches_full_close(z in random_zone(),
                                 x in 0u32..=(NUM_CLOCKS as u32),
                                 y in 0u32..=(NUM_CLOCKS as u32),
                                 delta in 1i64..25, m in -40i64..40, strict in any::<bool>()) {
        if x != y && !z.is_empty() {
            let current = z.get(Clock(x), Clock(y));
            // Derive a strictly tighter bound so no case is discarded: any
            // finite bound is tighter than ∞, and lowering the constant is
            // tighter regardless of strictness.
            let tightened = match current.finite_constant() {
                None => Bound::new(m, strict),
                Some(c) => Bound::new(c - delta, strict),
            };
            prop_assert!(tightened < current);
            let mut incremental = z.clone();
            incremental.set_raw(Clock(x), Clock(y), tightened);
            incremental.close1(Clock(x), Clock(y));
            let mut constrained = z.clone();
            constrained.constrain(Clock(x), Clock(y), tightened);
            let mut full = z.clone();
            full.set_raw(Clock(x), Clock(y), tightened);
            full.close();
            for (name, zone) in [("close1", &incremental), ("constrain", &constrained)] {
                prop_assert_eq!(zone.is_empty(), full.is_empty(), "{} emptiness", name);
                if !zone.is_empty() {
                    for i in 0..=NUM_CLOCKS as u32 {
                        for j in 0..=NUM_CLOCKS as u32 {
                            prop_assert_eq!(
                                zone.get(Clock(i), Clock(j)),
                                full.get(Clock(i), Clock(j)),
                                "{} entry ({}, {}) diverges", name, i, j
                            );
                        }
                    }
                }
            }
        }
    }

    /// Bound construction round-trips through constant/strictness, the
    /// tightness order is the lexicographic (constant, strictness) order, and
    /// in-range additions are exact.
    #[test]
    fn bound_roundtrip_and_ordering(m1 in any::<i32>(), s1 in any::<bool>(),
                                    m2 in any::<i32>(), s2 in any::<bool>()) {
        let b1 = Bound::new(m1 as i64, s1);
        let b2 = Bound::new(m2 as i64, s2);
        prop_assert_eq!(b1.constant(), m1 as i64);
        prop_assert_eq!(b1.is_strict(), s1);
        // Strict sorts before weak at the same constant, so compare on
        // (constant, weakness).
        prop_assert_eq!(b1.cmp(&b2), (m1, !s1).cmp(&(m2, !s2)));
        prop_assert!(b1 < Bound::INFINITY);
        let sum = b1 + b2;
        prop_assert_eq!(sum.constant(), m1 as i64 + m2 as i64);
        prop_assert_eq!(sum.is_strict(), s1 || s2);
    }

    /// At the limits of the `2·m + weak_bit` encoding: extreme constants
    /// round-trip, stay ordered below ∞, and additions that would leave the
    /// representable range saturate to ∞ instead of corrupting the order.
    #[test]
    fn bound_encoding_limits(d1 in 0i64..1000, d2 in 0i64..1000,
                             s1 in any::<bool>(), s2 in any::<bool>()) {
        // bound.rs encoding limit: constants live in [-MAX_CONST, MAX_CONST].
        const MAX_CONST: i64 = (i64::MAX >> 2) - 1;
        let hi = Bound::new(MAX_CONST - d1, s1);
        let lo = Bound::new(-MAX_CONST + d2, s2);
        prop_assert_eq!(hi.constant(), MAX_CONST - d1);
        prop_assert_eq!(lo.constant(), -MAX_CONST + d2);
        prop_assert!(lo < hi);
        prop_assert!(hi < Bound::INFINITY);
        // Spanning sums stay exact.
        let sum = hi + lo;
        prop_assert_eq!(sum.constant(), (MAX_CONST - d1) + (-MAX_CONST + d2));
        prop_assert_eq!(sum.is_strict(), s1 || s2);
        // Sums past MAX_CONST saturate to ∞ (sound: ∞ never wins a min);
        // everything at or below it is exact.
        let bump = Bound::new(d2, s2);
        let pushed = hi + bump;
        if MAX_CONST - d1 + d2 > MAX_CONST {
            prop_assert!(pushed.is_infinity());
        } else {
            prop_assert_eq!(pushed.constant(), MAX_CONST - d1 + d2);
        }
    }
}
