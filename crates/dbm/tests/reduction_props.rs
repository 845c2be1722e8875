//! Property-based tests for the dead-clock projection operations backing the
//! checker's active-clock reduction (`free`, `reset_to_canonical`,
//! `restrict_to_active`): they must preserve the canonical form, be
//! idempotent, and be monotone with respect to zone inclusion — the three
//! laws the passed-list subsumption of the explorer relies on.  The exact
//! union machinery behind the passed list's zone merging (`subtract`,
//! `try_merge`, `merge_into_antichain`) must never add or lose a valuation,
//! and the ExtraLU widening (`extrapolate_lu`) must re-close to exactly what
//! a full Floyd–Warshall close of the widened matrix gives.

use proptest::prelude::*;
use tempo_dbm::{merge_into_antichain, Bound, Clock, Dbm, Relation};

const NUM_CLOCKS: usize = 3;

/// One symbolic operation applied while generating a random zone (same
/// op-sequence generator as `proptests.rs`).
#[derive(Clone, Debug)]
enum Op {
    Up,
    UpperBound { clock: u32, value: i64, strict: bool },
    LowerBound { clock: u32, value: i64, strict: bool },
    Diff { a: u32, b: u32, value: i64, strict: bool },
    Reset { clock: u32, value: i64 },
    Free { clock: u32 },
}

fn clock_idx() -> impl Strategy<Value = u32> {
    1..=(NUM_CLOCKS as u32)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Up),
        (clock_idx(), 0i64..50, any::<bool>())
            .prop_map(|(clock, value, strict)| Op::UpperBound { clock, value, strict }),
        (clock_idx(), 0i64..50, any::<bool>())
            .prop_map(|(clock, value, strict)| Op::LowerBound { clock, value, strict }),
        (clock_idx(), clock_idx(), -30i64..30, any::<bool>())
            .prop_map(|(a, b, value, strict)| Op::Diff { a, b, value, strict }),
        (clock_idx(), 0i64..20).prop_map(|(clock, value)| Op::Reset { clock, value }),
        clock_idx().prop_map(|clock| Op::Free { clock }),
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
    proptest::collection::vec(op_strategy(), 0..12).prop_map(|ops| {
        let mut z = Dbm::zero(NUM_CLOCKS);
        for op in &ops {
            apply(&mut z, op);
        }
        z
    })
}

/// An activity mask over the reference clock + NUM_CLOCKS real clocks.
fn active_mask() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), NUM_CLOCKS + 1)
}

/// Runs `merge_into_antichain` on `zone` against `stored` and checks that the
/// denoted set of stored ∪ candidate is unchanged at `point`, that every
/// absorbed zone left the list, and that the grown zone still includes the
/// candidate.
fn check_merge_preserves_union(stored: &[Dbm], zone: &Dbm, point: &[i64]) {
    let before = stored.iter().any(|z| z.contains_point(point)) || zone.contains_point(point);
    let mut rest = stored.to_vec();
    let mut grown = zone.clone();
    let absorbed = merge_into_antichain(&mut grown, &mut rest, 16, drop);
    prop_assert_eq!(rest.len() + absorbed, stored.len());
    let after = rest.iter().any(|z| z.contains_point(point)) || grown.contains_point(point);
    prop_assert_eq!(after, before);
    if !zone.is_empty() {
        prop_assert!(grown.includes(zone));
    }
}

/// Per-clock extrapolation constants over the reference clock + NUM_CLOCKS
/// real clocks; `-1` exercises the clamp back to non-negative clocks.
fn lu_table() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-1i64..40, NUM_CLOCKS + 1)
}

/// The ExtraLU oracle: the same widening rules written entry by entry with
/// `set_raw`, then one full `close()`.  The tables cover every clock.
fn widen_then_close(z: &Dbm, lower: &[i64], upper: &[i64]) -> Dbm {
    let mut w = z.clone();
    if w.is_empty() {
        return w;
    }
    let mut changed = false;
    for (i, &l) in lower.iter().enumerate() {
        for (j, &u) in upper.iter().enumerate() {
            let (ci, cj) = (Clock(i as u32), Clock(j as u32));
            let b = w.get(ci, cj);
            if i == j || b.is_infinity() {
                continue;
            }
            if i != 0 && b > Bound::weak(l) {
                w.set_raw(ci, cj, Bound::INFINITY);
                changed = true;
            } else if b < Bound::strict(-u) {
                w.set_raw(ci, cj, Bound::strict(-u));
                changed = true;
            }
        }
    }
    if changed {
        for j in 1..w.dim() {
            let cj = Clock(j as u32);
            let b = w.get(Clock::REF, cj).min(Bound::LE_ZERO);
            w.set_raw(Clock::REF, cj, b);
        }
        w.close();
    }
    w
}

fn is_canonical(z: &Dbm) -> bool {
    let mut closed = z.clone();
    closed.close();
    closed.relation(z) == Relation::Equal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// All three projection ops keep the matrix canonical (re-closing is a
    /// no-op afterwards).
    #[test]
    fn projection_ops_preserve_canonical_form(z in random_zone(),
                                              clock in clock_idx(),
                                              mask in active_mask()) {
        let mut r = z.clone();
        r.reset_to_canonical(Clock(clock));
        prop_assert!(is_canonical(&r));
        let mut f = z.clone();
        f.free(Clock(clock));
        prop_assert!(is_canonical(&f));
        let mut m = z.clone();
        m.restrict_to_active(&mask);
        prop_assert!(is_canonical(&m));
    }

    /// The ops are idempotent: applying them twice equals applying them once.
    #[test]
    fn projection_ops_are_idempotent(z in random_zone(),
                                     clock in clock_idx(),
                                     mask in active_mask()) {
        let mut once = z.clone();
        once.reset_to_canonical(Clock(clock));
        let mut twice = once.clone();
        twice.reset_to_canonical(Clock(clock));
        prop_assert_eq!(&once, &twice);

        let mut fonce = z.clone();
        fonce.free(Clock(clock));
        let mut ftwice = fonce.clone();
        ftwice.free(Clock(clock));
        prop_assert_eq!(&fonce, &ftwice);

        let mut monce = z.clone();
        monce.restrict_to_active(&mask);
        let mut mtwice = monce.clone();
        mtwice.restrict_to_active(&mask);
        prop_assert_eq!(&monce, &mtwice);
    }

    /// Monotonicity w.r.t. zone inclusion: if `a ⊆ b` then `op(a) ⊆ op(b)`.
    /// This is what makes the reduction compatible with the passed list's
    /// inclusion subsumption.
    #[test]
    fn projection_ops_are_monotone(a in random_zone(), b in random_zone(),
                                   clock in clock_idx(), mask in active_mask()) {
        if b.includes(&a) {
            let (mut ra, mut rb) = (a.clone(), b.clone());
            ra.reset_to_canonical(Clock(clock));
            rb.reset_to_canonical(Clock(clock));
            prop_assert!(rb.includes(&ra));

            let (mut fa, mut fb) = (a.clone(), b.clone());
            fa.free(Clock(clock));
            fb.free(Clock(clock));
            prop_assert!(fb.includes(&fa));

            let (mut ma, mut mb) = (a.clone(), b.clone());
            ma.restrict_to_active(&mask);
            mb.restrict_to_active(&mask);
            prop_assert!(mb.includes(&ma));
        }
    }

    /// `restrict_to_active` is exactly the sequential canonicalization of
    /// every dead clock, and it reports their number.
    #[test]
    fn restrict_matches_per_clock_resets(z in random_zone(), mask in active_mask()) {
        let mut restricted = z.clone();
        let eliminated = restricted.restrict_to_active(&mask);
        let mut manual = z.clone();
        let mut expected = 0;
        for (i, active) in mask.iter().enumerate().take(NUM_CLOCKS + 1).skip(1) {
            if !active {
                manual.reset_to_canonical(Clock(i as u32));
                expected += 1;
            }
        }
        prop_assert_eq!(&restricted, &manual);
        if z.is_empty() {
            prop_assert_eq!(eliminated, 0);
        } else {
            prop_assert_eq!(eliminated, expected);
        }
    }

    /// `reset_to_canonical` equals projecting the clock away and pinning it:
    /// `free(x); x ≤ 0` — the two formulations of "the dead value does
    /// not matter".
    #[test]
    fn reset_to_canonical_is_free_then_pin(z in random_zone(), clock in clock_idx()) {
        let mut direct = z.clone();
        direct.reset_to_canonical(Clock(clock));
        let mut via_free = z.clone();
        via_free.free(Clock(clock));
        via_free.constrain(Clock(clock), Clock::REF, Bound::weak(0));
        prop_assert_eq!(direct.relation(&via_free), Relation::Equal);
    }

    /// `subtract` computes the exact set difference (up to the integer grid
    /// probed here): a point lies in some piece iff it lies in the minuend
    /// but not the subtrahend.
    #[test]
    fn subtract_is_set_difference(a in random_zone(), b in random_zone(),
                                  v in proptest::collection::vec(0i64..60, NUM_CLOCKS)) {
        let pieces = a.subtract(&b);
        let mut point = v.clone();
        point.insert(0, 0);
        let in_pieces = pieces.iter().any(|p| p.contains_point(&point));
        let expected = a.contains_point(&point) && !b.contains_point(&point);
        prop_assert_eq!(in_pieces, expected);
        // Every piece stays canonical.
        for p in &pieces {
            let mut closed = p.clone();
            closed.close();
            prop_assert_eq!(closed.relation(p), Relation::Equal);
        }
    }

    /// `try_merge` is exact: when it succeeds the hull contains precisely the
    /// union of the operands; when it fails the hull genuinely adds points
    /// (soundness of the convexity check is what the checker's exact zone
    /// merging relies on).
    #[test]
    fn try_merge_is_exact_union(a in random_zone(), b in random_zone(),
                                v in proptest::collection::vec(0i64..60, NUM_CLOCKS)) {
        let mut point = v.clone();
        point.insert(0, 0);
        let hull = a.convex_hull(&b);
        prop_assert!(hull.includes(&a) && hull.includes(&b));
        match a.try_merge(&b) {
            Some(merged) => {
                prop_assert_eq!(merged.relation(&hull), Relation::Equal);
                prop_assert_eq!(
                    merged.contains_point(&point),
                    a.contains_point(&point) || b.contains_point(&point)
                );
            }
            None => {
                // The union is not convex: the hull strictly exceeds it, so
                // the merged zone would have over-approximated.  (No point
                // witness is guaranteed to lie on the integer grid, so only
                // the implication hull ⊋ a ∪ b is checked via subtraction.)
                let beyond_a = hull.subtract(&a);
                prop_assert!(beyond_a.iter().any(|p| !b.includes(p)));
            }
        }
    }

    /// The success branch of `try_merge`: a zone cut along a facet
    /// `x_i − x_j ≺ c` into two halves that touch (the halves' bounds are
    /// exact complements, or both weak at `c`) or overlap (the second half
    /// starts `overlap` below `c`) merges back into the zone itself, in both
    /// argument orders.
    #[test]
    fn try_merge_reassembles_a_zone_cut_along_a_facet(z in random_zone(),
                                                      i in 0..=(NUM_CLOCKS as u32),
                                                      j in 0..=(NUM_CLOCKS as u32),
                                                      c in -20i64..50,
                                                      overlap in 0i64..3,
                                                      strict in any::<bool>(),
                                                      other_strict in any::<bool>()) {
        if i != j {
            let (xi, xj) = (Clock(i), Clock(j));
            let mut below = z.clone();
            below.constrain(xi, xj, Bound::new(c, strict));
            // ¬(x_i − x_j ≺ c) is x_j − x_i ≺' −c; at the cut itself a strict
            // lower half needs a weak upper half, or the point x_i − x_j = c
            // would fall between them.
            let upper_strict = if overlap == 0 && strict { false } else { other_strict };
            let mut above = z.clone();
            above.constrain(xj, xi, Bound::new(overlap - c, upper_strict));
            for merged in [below.try_merge(&above), above.try_merge(&below)] {
                let merged = merged.expect("the halves of a zone merge");
                prop_assert_eq!(merged.relation(&z), Relation::Equal);
            }
        }
    }

    /// Whether two zones have a convex union does not depend on the order in
    /// which `try_merge` is asked.
    #[test]
    fn try_merge_is_symmetric(a in random_zone(), b in random_zone()) {
        prop_assert_eq!(a.try_merge(&b).is_some(), b.try_merge(&a).is_some());
    }

    /// `merge_into_antichain` preserves the denoted set of the stored zones
    /// plus the candidate, on random zones and on the pieces of `base \ hole`
    /// with `base ∩ hole` as the candidate (a tiling that merges often).
    #[test]
    fn merge_into_antichain_preserves_the_union(zones in proptest::collection::vec(random_zone(), 0..5),
                                                z in random_zone(),
                                                base in random_zone(), hole in random_zone(),
                                                v in proptest::collection::vec(0i64..60, NUM_CLOCKS)) {
        let mut point = v.clone();
        point.insert(0, 0);
        check_merge_preserves_union(&zones, &z, &point);
        let tiles = base.subtract(&hole);
        let mut inside = if hole.is_empty() { Dbm::empty(NUM_CLOCKS) } else { base.clone() };
        for i in 0..=NUM_CLOCKS as u32 {
            for j in 0..=NUM_CLOCKS as u32 {
                inside.constrain(Clock(i), Clock(j), hole.get(Clock(i), Clock(j)));
            }
        }
        check_merge_preserves_union(&tiles, &inside, &point);
    }

    /// Canonicalizing a dead clock never changes emptiness, and the result
    /// depends only on the projection onto the other clocks: every member
    /// valuation has the dead clock at 0, and any member of the original
    /// zone stays a member after zeroing that coordinate.
    #[test]
    fn reset_to_canonical_projects(z in random_zone(), clock in clock_idx(),
                                   v in proptest::collection::vec(0i64..60, NUM_CLOCKS)) {
        let mut r = z.clone();
        r.reset_to_canonical(Clock(clock));
        prop_assert_eq!(r.is_empty(), z.is_empty());
        let mut point = v.clone();
        point.insert(0, 0);
        if r.contains_point(&point) {
            prop_assert_eq!(point[clock as usize], 0);
        }
        if z.contains_point(&point) {
            let mut zeroed = point.clone();
            zeroed[clock as usize] = 0;
            prop_assert!(r.contains_point(&zeroed));
        }
    }

    /// `extrapolate_lu` relaxes only the entries it widened; the result must
    /// be bit for bit the full close of the widened matrix, keep the
    /// emptiness flag, and still include the input zone.
    #[test]
    fn extrapolate_lu_matches_widen_then_close(z in random_zone(), lower in lu_table(),
                                               upper in lu_table()) {
        let mut e = z.clone();
        e.extrapolate_lu(&lower, &upper);
        prop_assert_eq!(&e, &widen_then_close(&z, &lower, &upper));
        prop_assert_eq!(e.is_empty(), z.is_empty());
        prop_assert!(is_canonical(&e));
        if !z.is_empty() {
            prop_assert!(e.includes(&z));
        }
    }

    /// With constants above every bound of the zone nothing widens, and the
    /// zone comes back unchanged.
    #[test]
    fn extrapolate_lu_leaves_unwidened_zones_alone(z in random_zone()) {
        let big = vec![1_000i64; NUM_CLOCKS + 1];
        let mut e = z.clone();
        e.extrapolate_lu(&big, &big);
        prop_assert_eq!(&e, &z);
        prop_assert_eq!(&e, &widen_then_close(&z, &big, &big));
    }
}

/// A nine-clock staircase zone (`x1 ≥ x2 + 3 ≥ … ≥ x9 + 24`, `x1 ≤ 100`)
/// extrapolated with zero lower constants and an upper constant of 30 on
/// every third clock widens more entries than `extrapolate_lu` tracks on the
/// stack, and the widened matrix is not closed; the full-close fallback must
/// agree with the oracle too.
#[test]
fn extrapolate_lu_many_widened_entries_match_widen_then_close() {
    let n = 9;
    let mut z = Dbm::zero(n);
    for k in 1..=n as u32 {
        z.up();
        z.reset(Clock(k), 0);
    }
    z.up();
    for k in 1..n as u32 {
        z.constrain(Clock(k + 1), Clock(k), Bound::weak(-3));
    }
    z.constrain(Clock(1), Clock::REF, Bound::weak(100));
    assert!(!z.is_empty());
    let lower = vec![0i64; n + 1];
    let upper: Vec<i64> = (0..=n).map(|i| if i % 3 == 0 { 30 } else { 0 }).collect();
    let mut e = z.clone();
    e.extrapolate_lu(&lower, &upper);
    assert_eq!(e, widen_then_close(&z, &lower, &upper));
    assert!(e.includes(&z));
}
