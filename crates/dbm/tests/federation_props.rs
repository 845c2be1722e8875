//! Property-based tests for the federation-coverage machinery behind the
//! checker's federation state store (`Federation::{includes_zone, coverage_of,
//! subtract_zone, reduce, absorb_convex}`).
//!
//! Coverage must be *exact*: a point of the candidate zone is in the union of
//! the stored zones iff the candidate is accepted as covered — an unsound
//! accept would silently drop reachable states from the exploration, an
//! unsound reject merely stores too much.  `reduce` and `absorb_convex`
//! compact the stored representation and must preserve the denoted set.

use proptest::prelude::*;
use tempo_dbm::{Bound, Clock, Dbm, Federation, ZoneCoverage};

const NUM_CLOCKS: usize = 2;

/// One symbolic operation applied while generating a random zone (same
/// op-sequence generator as `proptests.rs`, with smaller constants so that
/// federations of a few zones overlap often enough to exercise the union
/// coverage path).
#[derive(Clone, Debug)]
enum Op {
    Up,
    UpperBound { clock: u32, value: i64, strict: bool },
    LowerBound { clock: u32, value: i64, strict: bool },
    Diff { a: u32, b: u32, value: i64, strict: bool },
    Reset { clock: u32, value: i64 },
    Free { clock: u32 },
}

fn clock_idx(clocks: usize) -> impl Strategy<Value = u32> {
    1..=(clocks as u32)
}

fn op_strategy(clocks: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Up),
        (clock_idx(clocks), 0i64..12, any::<bool>())
            .prop_map(|(clock, value, strict)| Op::UpperBound { clock, value, strict }),
        (clock_idx(clocks), 0i64..12, any::<bool>())
            .prop_map(|(clock, value, strict)| Op::LowerBound { clock, value, strict }),
        (clock_idx(clocks), clock_idx(clocks), -8i64..8, any::<bool>())
            .prop_map(|(a, b, value, strict)| Op::Diff { a, b, value, strict }),
        (clock_idx(clocks), 0i64..8).prop_map(|(clock, value)| Op::Reset { clock, value }),
        clock_idx(clocks).prop_map(|clock| Op::Free { clock }),
    ]
}

fn apply(z: &mut Dbm, op: &Op) {
    match *op {
        Op::Up => {
            z.up();
        }
        Op::UpperBound { clock, value, strict } => {
            z.constrain(Clock(clock), Clock::REF, Bound::new(value, strict));
        }
        Op::LowerBound { clock, value, strict } => {
            z.constrain(Clock::REF, Clock(clock), Bound::new(-value, strict));
        }
        Op::Diff { a, b, value, strict } => {
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
    zone_after_ops(Dbm::zero(NUM_CLOCKS))
}

fn zone_after_ops(start: Dbm) -> impl Strategy<Value = Dbm> {
    proptest::collection::vec(op_strategy(start.num_clocks()), 0..10).prop_map(move |ops| {
        let mut z = start.clone();
        for op in &ops {
            apply(&mut z, op);
        }
        z
    })
}

fn random_federation() -> impl Strategy<Value = Federation> {
    proptest::collection::vec(random_zone(), 0..5).prop_map(|zones| {
        let mut f = Federation::empty(NUM_CLOCKS);
        for z in zones {
            f.add(z);
        }
        f
    })
}

/// A federation tiling `base` (the pieces of `base \ hole`, plus `base ∩
/// hole` when `keep_hole`) and the candidate `base ∩ cut`, often covered by
/// several tiles and by no single one — rare for random federations.
fn tiled_case(clocks: usize) -> impl Strategy<Value = (Federation, Dbm)> {
    let zone = || zone_after_ops(Dbm::universe(clocks));
    ((zone(), zone(), zone()), any::<bool>()).prop_map(move |((base, hole, cut), keep_hole)| {
        let mut f = Federation::empty(clocks);
        for piece in base.subtract(&hole) {
            f.add(piece);
        }
        if keep_hole {
            f.add(base.clone().intersect(&hole).clone());
        }
        (f, base.clone().intersect(&cut).clone())
    })
}

fn valuation(clocks: usize) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(0i64..15, clocks).prop_map(|mut v| {
        v.insert(0, 0);
        v
    })
}

/// The candidate minus every member, computed with a plain `Dbm::subtract`
/// fold (no fast paths) — the independent reference for the union-coverage
/// verdict.  `Dbm::subtract` itself is proven to be exact set difference by
/// `reduction_props.rs`.  The second component is `true` when no level of
/// the fold held more than 512 pieces: only then must `coverage_of` be
/// exact — beyond it, it may conservatively answer `NotCovered`.  (Its own
/// cap bounds the pieces waiting in its depth-first walk, at most one
/// split of n(n+1) pieces per member, which stays below 512 here.)
fn reference_remainder(zone: &Dbm, f: &Federation) -> (Vec<Dbm>, bool) {
    if zone.is_empty() {
        return (Vec::new(), true);
    }
    let mut within_budget = true;
    let mut remainder = vec![zone.clone()];
    for member in f.iter() {
        remainder = remainder.iter().flat_map(|p| p.subtract(member)).collect();
        if remainder.len() > 512 {
            within_budget = false;
        }
    }
    (remainder, within_budget)
}

/// The body of the `includes_zone_is_exact_union_coverage*` properties.
fn assert_exact_union_coverage(f: &Federation, z: &Dbm, v: &[i64]) {
    let accepted = f.includes_zone(z);
    let (remainder, within_budget) = reference_remainder(z, f);
    if within_budget {
        prop_assert_eq!(accepted, remainder.is_empty());
    } else if accepted {
        // Acceptance must be sound even when the budget was exceeded.
        prop_assert!(remainder.is_empty());
    }
    if accepted && z.contains_point(v) {
        prop_assert!(f.contains_point(v), "accepted candidate leaks point {:?}", v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Coverage is exact: `includes_zone` accepts iff subtracting every
    /// member from the candidate leaves nothing (as long as the subtraction
    /// stays within the documented piece budget — beyond it, only rejection
    /// is allowed), and an accepted candidate never contains a point outside
    /// the union.
    #[test]
    fn includes_zone_is_exact_union_coverage(f in random_federation(), z in random_zone(),
                                             v in valuation(NUM_CLOCKS)) {
        assert_exact_union_coverage(&f, &z, &v);
    }

    /// The same exactness at 4 clocks, nearer the 9-clock production
    /// networks, where one split yields up to 20 pieces instead of 6.
    #[test]
    fn includes_zone_is_exact_union_coverage_at_four_clocks(case in tiled_case(4),
                                                            v in valuation(4)) {
        let (f, z) = case;
        assert_exact_union_coverage(&f, &z, &v);
    }

    /// The three-way classification is consistent: `Member` iff some single
    /// member includes the candidate, `Union` only when the union covers it
    /// but no single member does.
    #[test]
    fn coverage_of_classification_is_consistent(f in random_federation(), z in random_zone()) {
        let single = !z.is_empty() && f.iter().any(|m| m.includes(&z));
        match f.coverage_of(&z) {
            ZoneCoverage::Member => prop_assert!(z.is_empty() || single),
            ZoneCoverage::Union => {
                prop_assert!(!single);
                prop_assert!(reference_remainder(&z, &f).0.is_empty());
            }
            ZoneCoverage::NotCovered => {
                prop_assert!(!single);
                let (remainder, within_budget) = reference_remainder(&z, &f);
                if within_budget {
                    prop_assert!(!remainder.is_empty());
                }
            }
        }
    }

    /// `subtract_zone` is exact set difference at every sampled point.
    #[test]
    fn subtract_zone_is_set_difference(f in random_federation(), z in random_zone(),
                                       v in valuation(NUM_CLOCKS)) {
        let d = f.subtract_zone(&z);
        prop_assert_eq!(
            d.contains_point(&v),
            f.contains_point(&v) && !z.contains_point(&v)
        );
    }

    /// `reduce` preserves the denoted set, never grows the federation, and a
    /// second application finds nothing more to drop.
    #[test]
    fn reduce_preserves_the_denoted_set(f in random_federation(), v in valuation(NUM_CLOCKS)) {
        let mut r = f.clone();
        let dropped = r.reduce();
        prop_assert_eq!(r.size() + dropped, f.size());
        prop_assert_eq!(r.contains_point(&v), f.contains_point(&v));
        // And every remaining member is genuinely needed.
        let mut again = r.clone();
        prop_assert_eq!(again.reduce(), 0);
    }

    /// `absorb_convex` preserves the denoted set of federation ∪ candidate.
    #[test]
    fn absorb_convex_preserves_the_union(f in random_federation(), z in random_zone(),
                                         v in valuation(NUM_CLOCKS)) {
        let before = f.contains_point(&v) || z.contains_point(&v);
        let mut g = f.clone();
        let mut zone = z.clone();
        let absorbed = g.absorb_convex(&mut zone, 16);
        prop_assert_eq!(g.size() + absorbed, f.size());
        let after = g.contains_point(&v) || zone.contains_point(&v);
        prop_assert_eq!(after, before);
        // The grown zone still includes the original candidate.
        if !z.is_empty() {
            prop_assert!(zone.includes(&z));
        }
    }
}
