//! The [`Dbm`] type and its zone operations.
//!
//! # The canonical-form invariant
//!
//! Every public operation keeps the matrix *canonical*: each entry `d[i][j]`
//! is the tightest bound on `x_i − x_j` implied by the whole constraint
//! system, i.e. the matrix is closed under shortest paths
//! (`d[i][j] ≤ d[i][k] + d[k][j]` for all `k`).  Relation, inclusion, hashing
//! and emptiness checks all rely on this invariant, which is why it is
//! restored eagerly after every mutation rather than lazily before queries.
//!
//! Re-canonicalization is *incremental* wherever the shape of the mutation
//! allows it, and every path ends at the matrix a full close would give (the
//! canonical form of a zone is unique):
//!
//! * tightening a single entry `(x, y)` — [`Dbm::constrain`] and the facet
//!   splits inside [`Dbm::subtract`] — closes with one O(n²) propagation
//!   through the new edge ([`Dbm::close1`]);
//! * operations that map canonical matrices to canonical matrices
//!   ([`Dbm::up`], [`Dbm::free`], [`Dbm::reset`], [`Dbm::convex_hull`])
//!   need no re-closure at all;
//! * an extrapolation ([`Dbm::extrapolate_lu`]) only loosens entries, so it
//!   relaxes just the widened ones, Floyd–Warshall style, in O(n) each.
//!
//! The full O(n³) Floyd–Warshall [`Dbm::close`] is required only after a
//! sequence of [`Dbm::set_raw`] writes, where there is no structure to
//! exploit (ExtraLU also falls back to it past 64 widened entries).  The
//! tests hold each incremental path to it as an oracle:
//! `proptests::close1_matches_full_close` for `close1` and `constrain`,
//! `reduction_props::extrapolate_lu_matches_widen_then_close` for ExtraLU.

use crate::{Bound, Clock, Constraint};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Result of comparing two zones over the same clocks, see [`Dbm::relation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// The zones contain exactly the same valuations.
    Equal,
    /// The left zone is strictly contained in the right zone.
    Subset,
    /// The left zone strictly contains the right zone.
    Superset,
    /// Neither zone contains the other.
    Incomparable,
}

/// A difference bound matrix over `num_clocks` real clocks plus the reference
/// clock.
///
/// Invariant maintained by every public operation: the matrix is *canonical*
/// (closed under shortest paths) and consistently flags emptiness, unless the
/// documentation of an operation says otherwise.  All mutating operations keep
/// clocks non-negative.
#[derive(Clone, PartialEq, Eq)]
pub struct Dbm {
    dim: usize,
    empty: bool,
    m: Vec<Bound>,
}

impl Dbm {
    /// The zone containing only the origin (all clocks equal to zero).
    pub fn zero(num_clocks: usize) -> Dbm {
        let dim = num_clocks + 1;
        Dbm {
            dim,
            empty: false,
            m: vec![Bound::LE_ZERO; dim * dim],
        }
    }

    /// The zone of all valuations with non-negative clocks.
    pub fn universe(num_clocks: usize) -> Dbm {
        let dim = num_clocks + 1;
        let mut d = Dbm {
            dim,
            empty: false,
            m: vec![Bound::INFINITY; dim * dim],
        };
        for i in 0..dim {
            *d.at_mut(i, i) = Bound::LE_ZERO;
            // x0 - xi <= 0, i.e. xi >= 0
            *d.at_mut(0, i) = Bound::LE_ZERO;
        }
        d
    }

    /// An explicitly empty zone.
    pub fn empty(num_clocks: usize) -> Dbm {
        let mut d = Dbm::zero(num_clocks);
        d.empty = true;
        d
    }

    /// Number of real clocks (dimension minus the reference clock).
    #[inline]
    pub fn num_clocks(&self) -> usize {
        self.dim - 1
    }

    /// Matrix dimension (number of clocks + 1).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> Bound {
        self.m[i * self.dim + j]
    }

    #[inline]
    fn at_mut(&mut self, i: usize, j: usize) -> &mut Bound {
        &mut self.m[i * self.dim + j]
    }

    /// The bound on `i − j` stored in the matrix.
    #[inline]
    pub fn get(&self, i: Clock, j: Clock) -> Bound {
        self.at(i.index(), j.index())
    }

    /// Sets the bound on `i − j` directly **without** restoring the canonical
    /// form; callers must invoke [`Dbm::close`] before using any query.
    pub fn set_raw(&mut self, i: Clock, j: Clock, b: Bound) {
        let (i, j) = (i.index(), j.index());
        *self.at_mut(i, j) = b;
    }

    /// `true` iff the zone contains no valuation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// Upper bound of a single clock (`x − x0`), `∞` if unbounded.
    #[inline]
    pub fn sup(&self, x: Clock) -> Bound {
        self.at(x.index(), 0)
    }

    /// Lower bound of a single clock as a pair `(value, strict)`; the clock is
    /// `≥ value` (or `> value` when strict).
    #[inline]
    pub fn inf(&self, x: Clock) -> (i64, bool) {
        let b = self.at(0, x.index());
        (-b.constant(), b.is_strict())
    }

    /// Canonicalizes the matrix with Floyd–Warshall and detects emptiness.
    ///
    /// All other operations keep the matrix canonical, so this is only needed
    /// after a sequence of [`Dbm::set_raw`] calls.
    pub fn close(&mut self) {
        if self.empty {
            return;
        }
        let n = self.dim;
        for k in 0..n {
            // Relaxing row k with pivot k is a no-op while d[k][k] ≥ (0, ≤)
            // (and the matrix is declared empty right below otherwise), so
            // row k can serve as a shared immutable source row while every
            // other row is relaxed over contiguous slices.
            let (before, rest) = self.m.split_at_mut(k * n);
            let (row_k, after) = rest.split_at_mut(n);
            let relax = |row: &mut [Bound]| {
                let dik = row[k];
                if dik.is_infinity() {
                    return;
                }
                for (d, &dkj) in row.iter_mut().zip(row_k.iter()) {
                    let via = dik + dkj;
                    if via < *d {
                        *d = via;
                    }
                }
            };
            for row in before.chunks_exact_mut(n) {
                relax(row);
            }
            for row in after.chunks_exact_mut(n) {
                relax(row);
            }
            if self.m[k * n + k] < Bound::LE_ZERO {
                self.empty = true;
                return;
            }
        }
        for i in 0..n {
            if self.at(i, i) < Bound::LE_ZERO {
                self.empty = true;
                return;
            }
            *self.at_mut(i, i) = Bound::LE_ZERO;
        }
    }

    /// Incremental canonicalization after the single entry `(x, y)` has been
    /// tightened on an otherwise canonical matrix: every new shortest path
    /// uses the tightened edge at most once, so one O(n²) propagation
    /// (`d[i][j] = min(d[i][j], d[i][x] + d[x][y] + d[y][j])`) restores the
    /// closure exactly — bound-for-bound what a full [`Dbm::close`] would
    /// compute.  Detects the zone turning empty (`d[y][x] + d[x][y] < 0`).
    ///
    /// Use after a [`Dbm::set_raw`] that *tightened* `(x, y)`; a loosened
    /// entry or several raw writes still require the full close.
    pub fn close1(&mut self, x: Clock, y: Clock) -> &mut Self {
        if self.empty {
            return self;
        }
        let (x, y) = (x.index(), y.index());
        debug_assert!(x != y && x < self.dim && y < self.dim);
        let bound = self.at(x, y);
        if bound.is_infinity() {
            return self;
        }
        if self.at(y, x) + bound < Bound::LE_ZERO {
            self.empty = true;
            return self;
        }
        self.close1_idx(x, y);
        self
    }

    /// The propagation loop of [`Dbm::close1`]; callers have already checked
    /// non-emptiness, finiteness of `(x, y)` and the negative-cycle test.
    fn close1_idx(&mut self, x: usize, y: usize) {
        let n = self.dim;
        let bound = self.m[x * n + y];
        // Row y cannot tighten through its own propagation (the consistency
        // check guarantees d[y][x] + bound ≥ (0, ≤)), so it can serve as a
        // shared immutable source row while every other row is relaxed.
        let (before, rest) = self.m.split_at_mut(y * n);
        let (row_y, after) = rest.split_at_mut(n);
        let relax = |row: &mut [Bound]| {
            let dix = row[x];
            if dix.is_infinity() {
                return;
            }
            let via_ix = dix + bound;
            for (d, &dyj) in row.iter_mut().zip(row_y.iter()) {
                let via = via_ix + dyj;
                if via < *d {
                    *d = via;
                }
            }
        };
        for row in before.chunks_exact_mut(n) {
            relax(row);
        }
        for row in after.chunks_exact_mut(n) {
            relax(row);
        }
    }

    /// Intersects the zone with the constraint `c.left − c.right ≺ c.bound`,
    /// restoring the canonical form incrementally.
    pub fn constrain(&mut self, left: Clock, right: Clock, bound: Bound) -> &mut Self {
        if self.empty || bound.is_infinity() {
            return self;
        }
        let (x, y) = (left.index(), right.index());
        debug_assert!(x < self.dim && y < self.dim);
        if self.at(y, x) + bound < Bound::LE_ZERO {
            self.empty = true;
            return self;
        }
        if bound < self.at(x, y) {
            *self.at_mut(x, y) = bound;
            // Restore the canonical form: the matrix was canonical before, so
            // every new shortest path uses the tightened edge (x, y) at most
            // once, i.e. d[i][j] = min(d[i][j], d[i][x] + bound + d[y][j]).
            self.close1_idx(x, y);
        }
        self
    }

    /// Intersects with a [`Constraint`].
    pub fn and(&mut self, c: &Constraint) -> &mut Self {
        self.constrain(c.left, c.right, c.bound)
    }

    /// `true` iff the zone has a non-empty intersection with the constraint.
    pub fn satisfies(&self, c: &Constraint) -> bool {
        if self.empty {
            return false;
        }
        if c.bound.is_infinity() {
            return true;
        }
        self.at(c.right.index(), c.left.index()) + c.bound >= Bound::LE_ZERO
    }

    /// Delay operator (`up`, also written `Z↑`): removes all upper bounds on
    /// individual clocks, letting arbitrary time pass.
    pub fn up(&mut self) -> &mut Self {
        if self.empty {
            return self;
        }
        for i in 1..self.dim {
            *self.at_mut(i, 0) = Bound::INFINITY;
        }
        self
    }

    /// Removes all constraints on clock `x` (existential quantification),
    /// keeping it non-negative.
    pub fn free(&mut self, x: Clock) -> &mut Self {
        if self.empty {
            return self;
        }
        let x = x.index();
        debug_assert!(x > 0);
        for j in 0..self.dim {
            if j != x {
                *self.at_mut(x, j) = Bound::INFINITY;
                let dj0 = self.at(j, 0);
                *self.at_mut(j, x) = dj0;
            }
        }
        // x >= 0
        *self.at_mut(0, x) = Bound::LE_ZERO;
        *self.at_mut(x, 0) = Bound::INFINITY;
        self
    }

    /// Resets clock `x` to the constant `value`.
    pub fn reset(&mut self, x: Clock, value: i64) -> &mut Self {
        if self.empty {
            return self;
        }
        let x = x.index();
        debug_assert!(x > 0, "cannot reset the reference clock");
        let pos = Bound::weak(value);
        let neg = Bound::weak(-value);
        for j in 0..self.dim {
            if j != x {
                let d0j = self.at(0, j);
                *self.at_mut(x, j) = pos + d0j;
                let dj0 = self.at(j, 0);
                *self.at_mut(j, x) = dj0 + neg;
            }
        }
        *self.at_mut(x, x) = Bound::LE_ZERO;
        self
    }

    /// Resets clock `x` to the canonical dead-clock value `0`.
    ///
    /// Equivalent to [`Dbm::reset`] with value `0`: after the call the zone's
    /// projection onto `x` is exactly `{0}` and every `x` row/column entry is
    /// derived from the reference row/column, so the result depends only on
    /// the projection of the zone onto the *other* clocks.  Two zones that
    /// agree on all live clocks therefore become equal once every dead clock
    /// is reset to the canonical value — which is what lets the explorer's
    /// passed-list inclusion checks and hashes merge states that differ only
    /// in dead-clock valuations.  The checker pins after the delay closure
    /// ([`Dbm::up`]): a clock pinned before it advances with the others and
    /// records the time since entry again.  Preserves the canonical form.
    pub fn reset_to_canonical(&mut self, x: Clock) -> &mut Self {
        self.reset(x, 0)
    }

    /// Applies [`Dbm::reset_to_canonical`] to every clock whose entry in
    /// `active` is `false` (dead clocks), leaving active clocks untouched.
    ///
    /// `active` is indexed like the matrix (entry 0 is the reference clock and
    /// ignored); missing entries are conservatively treated as active.
    /// Returns the number of clocks that were canonicalized.  Preserves the
    /// canonical form and never empties a non-empty zone.
    pub fn restrict_to_active(&mut self, active: &[bool]) -> usize {
        if self.empty {
            return 0;
        }
        let mut eliminated = 0;
        for i in 1..self.dim {
            if !active.get(i).copied().unwrap_or(true) {
                self.reset_to_canonical(Clock(i as u32));
                eliminated += 1;
            }
        }
        eliminated
    }

    /// The convex hull (smallest zone containing both operands): the
    /// element-wise maximum of the two canonical matrices, which is again
    /// canonical (each triangle inequality holds in both operands, hence for
    /// the element-wise maximum).
    pub fn convex_hull(&self, other: &Dbm) -> Dbm {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        if self.empty {
            return other.clone();
        }
        if other.empty {
            return self.clone();
        }
        let mut hull = self.clone();
        for (h, o) in hull.m.iter_mut().zip(&other.m) {
            if *o > *h {
                *h = *o;
            }
        }
        hull
    }

    /// Sound one-sided disjointness test: `true` means the zones certainly
    /// have an empty intersection — some pair of opposing bounds forms a
    /// negative two-edge cycle (`self[i,j] + other[j,i] < 0`); `false` means
    /// they *may* intersect (longer alternating negative cycles escape the
    /// test).  O(n²) and allocation-free, which makes it the filter that
    /// keeps zone subtraction from fragmenting pieces around zones it never
    /// touches.
    fn surely_disjoint(&self, other: &Dbm) -> bool {
        let n = self.dim;
        // Pass 1, O(n): opposing absolute bounds.  Zones usually separate on
        // a single clock's distance to the reference clock, so most positives
        // never reach the full scan.
        for t in 1..n {
            if self.m[t] + other.m[t * n] < Bound::LE_ZERO
                || self.m[t * n] + other.m[t] < Bound::LE_ZERO
            {
                return true;
            }
        }
        // Pass 2, O(n²): every opposing pair.  `∞` entries saturate the sum
        // to `∞`, which is never negative, so they need no special-casing;
        // diagonals contribute `(0,≤) + (0,≤)`, also never negative.
        for i in 0..n {
            for j in 0..n {
                if self.m[i * n + j] + other.m[j * n + i] < Bound::LE_ZERO {
                    return true;
                }
            }
        }
        false
    }

    /// The set difference `self \ other` as a list of (possibly overlapping-
    /// free, jointly exhaustive) zones: for every facet of `other` that cuts
    /// into the remainder, the part beyond the facet is split off.
    pub fn subtract(&self, other: &Dbm) -> Vec<Dbm> {
        if self.empty {
            return Vec::new();
        }
        if other.empty {
            return vec![self.clone()];
        }
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        // Disjoint operands: the difference is `self` itself.  Detecting
        // this up front costs one scan; missing it would split `self` into
        // up to n² pieces that reassemble to `self` the hard way.
        if self.surely_disjoint(other) {
            return vec![self.clone()];
        }
        let mut pieces = Vec::new();
        let mut rem = self.clone();
        for i in 0..self.dim {
            for j in 0..self.dim {
                let facet = other.at(i, j);
                if i == j || facet.is_infinity() || rem.at(i, j) <= facet {
                    // The remainder already satisfies this facet (canonical
                    // bounds are tight), nothing to split off.
                    continue;
                }
                // The part of the remainder beyond the facet: ¬(xi − xj ≺ c)
                // is (xj − xi ≺' −c) with flipped strictness.
                let mut piece = rem.clone();
                piece.constrain(Clock(j as u32), Clock(i as u32), facet.negated());
                if !piece.is_empty() {
                    pieces.push(piece);
                }
                rem.constrain(Clock(i as u32), Clock(j as u32), facet);
                if rem.is_empty() {
                    return pieces;
                }
            }
        }
        // What is left of `rem` lies inside `other` and is discarded.
        pieces
    }

    /// Attempts the *exact* union of two zones: returns their convex hull iff
    /// the union is convex (`hull = self ∪ other`), `None` otherwise.
    ///
    /// Unlike UPPAAL's `-C` convex-hull over-approximation this never adds
    /// valuations, so replacing the two zones by the merged one preserves all
    /// verdicts and suprema exactly.
    ///
    /// The test allocates nothing; only a successful merge builds the hull.
    /// Write `A = self`, `B = other` and `H = max(A, B)` elementwise (the
    /// canonical hull, read through the operands).  `H \ A` is the union,
    /// over the facets `f = (i,j)` of `A` that `B` loosens, of the pieces
    /// `H ∧ ¬f`, so `A ∪ B` is convex iff every piece lies inside `B`.  A
    /// piece is `H` with the one edge `x_j − x_i ≺ ¬A[i][j]` tightened, whose
    /// canonical entries are `min(H[k][l], H[k][j] + ¬A[i][j] + H[i][l])`
    /// (the [`Dbm::close1`] propagation).  It is never empty, because the
    /// canonical `H[i][j] = B[i][j] > A[i][j]` is attained in `H`, and only
    /// the entries where `A[k][l] > B[k][l]` can break its inclusion in `B`.
    /// Most attempts fail on the first such entry.  Zones with a gap between
    /// them fail by themselves; zones that merely touch, such as
    /// `[0,1) ∪ [1,2]`, merge.
    pub fn try_merge(&self, other: &Dbm) -> Option<Dbm> {
        if self.empty {
            return Some(other.clone());
        }
        if other.empty {
            return Some(self.clone());
        }
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        let (n, a, b) = (self.dim, &self.m, &other.m);
        let hull = |k: usize| a[k].max(b[k]);
        for i in 0..n {
            for j in 0..n {
                let facet = a[i * n + j];
                if facet.is_infinity() || b[i * n + j] <= facet {
                    continue;
                }
                let beyond = facet.negated();
                debug_assert!(hull(i * n + j) + beyond >= Bound::LE_ZERO);
                for k in 0..n {
                    let via_kj = hull(k * n + j) + beyond;
                    for l in 0..n {
                        let bkl = b[k * n + l];
                        if a[k * n + l] > bkl && via_kj + hull(i * n + l) > bkl {
                            return None;
                        }
                    }
                }
            }
        }
        Some(self.convex_hull(other))
    }

    /// Compares two canonical zones.
    pub fn relation(&self, other: &Dbm) -> Relation {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        match (self.empty, other.empty) {
            (true, true) => return Relation::Equal,
            (true, false) => return Relation::Subset,
            (false, true) => return Relation::Superset,
            (false, false) => {}
        }
        let mut le = true; // self ⊆ other
        let mut ge = true; // self ⊇ other
        for i in 0..self.dim * self.dim {
            if self.m[i] > other.m[i] {
                le = false;
            }
            if self.m[i] < other.m[i] {
                ge = false;
            }
            if !le && !ge {
                return Relation::Incomparable;
            }
        }
        match (le, ge) {
            (true, true) => Relation::Equal,
            (true, false) => Relation::Subset,
            (false, true) => Relation::Superset,
            (false, false) => Relation::Incomparable,
        }
    }

    /// `true` iff this zone contains every valuation of `other`: one scan
    /// for `self ≥ other` that stops at the first violation.
    pub fn includes(&self, other: &Dbm) -> bool {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        if other.empty {
            return true;
        }
        !self.empty && self.m.iter().zip(&other.m).all(|(a, b)| a >= b)
    }

    /// `true` iff the concrete valuation (indexed by clock, entry 0 ignored)
    /// lies inside the zone.
    pub fn contains_point(&self, valuation: &[i64]) -> bool {
        if self.empty {
            return false;
        }
        assert!(valuation.len() >= self.dim);
        for i in 0..self.dim {
            let vi = if i == 0 { 0 } else { valuation[i] };
            for (j, &vraw) in valuation.iter().enumerate().take(self.dim) {
                let vj = if j == 0 { 0 } else { vraw };
                if !self.at(i, j).admits(vi - vj) {
                    return false;
                }
            }
        }
        true
    }

    /// Lower/upper-bounds extrapolation (`ExtraLU`): widens every bound past
    /// the maximal constant its clock is compared against, distinguishing
    /// the maximal constants used in lower bounds (`lower[i]`, guards of the form `x ≥ c` / `x > c`)
    /// from those used in upper bounds (`upper[i]`, `x ≤ c` / `x < c` and
    /// invariants).  Coarser than classical `ExtraM` (the case `lower ==
    /// upper`), still sound for diagonal-free automata (Behrmann, Bouyer, Larsen, Pelánek, "Lower and upper bounds
    /// in zone-based abstractions of timed automata", STTT 2006).
    ///
    /// Every finite entry of a non-reference row `i` above `(l_i, ≤)` becomes
    /// `∞` and every entry of column `j` below `(−u_j, <)` is raised to it.
    /// The result is a fixpoint of the operator: every finite entry is
    /// bounded by the constant tables, so only finitely many extrapolated
    /// zones exist per location, which is what makes the explorer terminate.
    ///
    /// Re-canonicalization relaxes only the widened entries.  Widening only
    /// loosens the canonical input `D` to some `D' ≥ D`, and closure is
    /// monotone, so `D = close(D) ≤ close(D') ≤ D'`: an untouched entry is
    /// already at its final value and never needs relaxing, and a zone that
    /// was non-empty stays non-empty.  Floyd–Warshall restricted to the
    /// widened entries is then exact (every entry it reads through pivot `k`
    /// is either final or a widened entry already relaxed through pivots
    /// `< k`), costs `n` times the number of widened entries instead of
    /// `n³`, and yields bit for bit what a full [`Dbm::close`] would.
    pub fn extrapolate_lu(&mut self, lower: &[i64], upper: &[i64]) -> &mut Self {
        /// Widened entries tracked on the stack; a widening of more entries
        /// than this falls back to the full close (same result, and at
        /// that size no cheaper).
        const TRACKED: usize = 64;
        if self.empty {
            return self;
        }
        let l = |i: usize| -> i64 { lower.get(i).copied().unwrap_or(0) };
        let u = |i: usize| -> i64 { upper.get(i).copied().unwrap_or(0) };
        let n = self.dim;
        let mut widened = [(0usize, 0usize); TRACKED];
        let mut count = 0;
        for i in 0..n {
            let row_cap = Bound::weak(l(i));
            for j in 0..n {
                let b = self.m[i * n + j];
                if i == j || b.is_infinity() {
                    continue;
                }
                let wide = if i != 0 && b > row_cap {
                    Bound::INFINITY
                } else if b < Bound::strict(-u(j)) {
                    Bound::strict(-u(j))
                } else {
                    continue;
                };
                self.m[i * n + j] = wide;
                if count < TRACKED {
                    widened[count] = (i, j);
                }
                count += 1;
            }
        }
        if count == 0 {
            return self;
        }
        // A negative upper constant would leave `x_j > −u_j` below zero;
        // clocks stay non-negative.
        for j in 1..n {
            self.m[j] = self.m[j].min(Bound::LE_ZERO);
        }
        if count > TRACKED {
            self.close();
            return self;
        }
        for k in 0..n {
            for &(i, j) in &widened[..count] {
                let via = self.m[i * n + k] + self.m[k * n + j];
                if via < self.m[i * n + j] {
                    self.m[i * n + j] = via;
                }
            }
        }
        self
    }
}

/// Merges `zone` with every zone of `zones` it forms an *exact* convex union
/// with ([`Dbm::try_merge`]: no valuation is added, so verdicts and suprema
/// hold), removing those entries, handing each to `on_absorbed`, and growing
/// `zone` to the hull; returns how many it absorbed.  Attempts run newest
/// first, where breadth-first search puts mergeable neighbours, and stop
/// after `failure_budget` failures; a success refreshes the budget and
/// restarts, so cascades run to the end.
pub fn merge_into_antichain<E: AsRef<Dbm>>(
    zone: &mut Dbm,
    zones: &mut Vec<E>,
    failure_budget: usize,
    mut on_absorbed: impl FnMut(E),
) -> usize {
    let mut merged = 0;
    let mut budget = failure_budget;
    let mut i = zones.len();
    while i > 0 && budget > 0 {
        i -= 1;
        if let Some(hull) = zone.try_merge(zones[i].as_ref()) {
            *zone = hull;
            on_absorbed(zones.swap_remove(i));
            merged += 1;
            budget = failure_budget;
            i = zones.len();
        } else {
            budget -= 1;
        }
    }
    merged
}

impl AsRef<Dbm> for Dbm {
    fn as_ref(&self) -> &Dbm {
        self
    }
}

impl Hash for Dbm {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.empty.hash(state);
        if !self.empty {
            for b in &self.m {
                b.raw().hash(state);
            }
        }
    }
}

impl fmt::Debug for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.empty {
            return write!(f, "Dbm(empty, {} clocks)", self.num_clocks());
        }
        writeln!(f, "Dbm({} clocks)", self.num_clocks())?;
        for i in 0..self.dim {
            write!(f, "  ")?;
            for j in 0..self.dim {
                write!(f, "{:>10} ", format!("{}", self.at(i, j)))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.empty {
            return write!(f, "false");
        }
        let mut first = true;
        for i in 0..self.dim {
            for j in 0..self.dim {
                if i == j {
                    continue;
                }
                let b = self.at(i, j);
                if b.is_infinity() || (i == 0 && b == Bound::LE_ZERO) {
                    continue;
                }
                if !first {
                    write!(f, " ∧ ")?;
                }
                first = false;
                if j == 0 {
                    write!(f, "x{i} {b}")?;
                } else if i == 0 {
                    let op = if b.is_strict() { ">" } else { ">=" };
                    write!(f, "x{j} {op} {}", -b.constant())?;
                } else {
                    write!(f, "x{i}-x{j} {b}")?;
                }
            }
        }
        if first {
            write!(f, "true")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RelOp;

    fn x() -> Clock {
        Clock(1)
    }
    fn y() -> Clock {
        Clock(2)
    }

    #[test]
    fn zero_zone_is_origin() {
        let z = Dbm::zero(2);
        assert!(!z.is_empty());
        assert!(z.contains_point(&[0, 0, 0]));
        assert!(!z.contains_point(&[0, 1, 0]));
        assert_eq!(z.sup(x()), Bound::weak(0));
        assert_eq!(z.inf(x()), (0, false));
    }

    #[test]
    fn universe_contains_everything_nonnegative() {
        let u = Dbm::universe(2);
        assert!(u.contains_point(&[0, 0, 0]));
        assert!(u.contains_point(&[0, 1000, 3]));
        assert_eq!(u.sup(x()), Bound::INFINITY);
    }

    #[test]
    fn up_allows_uniform_delay() {
        let mut z = Dbm::zero(2);
        z.up();
        assert!(z.contains_point(&[0, 5, 5]));
        assert!(!z.contains_point(&[0, 5, 4])); // clocks drift together
        assert_eq!(z.sup(x()), Bound::INFINITY);
        assert_eq!(z.get(x(), y()), Bound::weak(0));
    }

    #[test]
    fn constrain_and_emptiness() {
        let mut z = Dbm::zero(2);
        z.up();
        z.constrain(x(), Clock::REF, Bound::weak(10)); // x <= 10
        z.constrain(Clock::REF, x(), Bound::weak(-4)); // x >= 4
        assert!(!z.is_empty());
        assert!(z.contains_point(&[0, 4, 4]));
        assert!(z.contains_point(&[0, 10, 10]));
        assert!(!z.contains_point(&[0, 3, 3]));
        // Now make it empty: x < 4
        z.constrain(x(), Clock::REF, Bound::strict(4));
        assert!(z.is_empty());
    }

    #[test]
    fn constrain_is_idempotent_for_weaker_bounds() {
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain(Clock(1), Clock::REF, Bound::weak(5));
        let snapshot = z.clone();
        z.constrain(Clock(1), Clock::REF, Bound::weak(9)); // weaker, no effect
        assert_eq!(z, snapshot);
    }

    #[test]
    fn reset_pins_single_clock() {
        let mut z = Dbm::zero(2);
        z.up();
        z.constrain(x(), Clock::REF, Bound::weak(10));
        z.reset(y(), 0);
        // Now y = 0, x in [0, 10], and x - y = x.
        assert!(z.contains_point(&[0, 7, 0]));
        assert!(!z.contains_point(&[0, 7, 1]));
        assert_eq!(z.sup(y()), Bound::weak(0));
        assert_eq!(z.get(x(), y()), Bound::weak(10));
    }

    #[test]
    fn reset_to_nonzero_value() {
        let mut z = Dbm::zero(1);
        z.up();
        z.reset(Clock(1), 5);
        assert!(z.contains_point(&[0, 5]));
        assert!(!z.contains_point(&[0, 4]));
        assert_eq!(z.sup(Clock(1)), Bound::weak(5));
        assert_eq!(z.inf(Clock(1)), (5, false));
    }

    #[test]
    fn free_removes_constraints() {
        let mut z = Dbm::zero(2);
        z.up();
        z.constrain(x(), Clock::REF, Bound::weak(3));
        z.free(x());
        assert!(z.contains_point(&[0, 100, 2]));
        assert!(z.contains_point(&[0, 0, 2]));
        // y still bounded by x's old constraint? y was only bounded via x <= 3 and x == y
        assert!(z.contains_point(&[0, 50, 3]));
        assert!(!z.contains_point(&[0, 50, 4]));
    }

    #[test]
    fn relation_detects_subset() {
        let mut big = Dbm::zero(1);
        big.up();
        big.constrain(Clock(1), Clock::REF, Bound::weak(10));
        let mut small = Dbm::zero(1);
        small.up();
        small.constrain(Clock(1), Clock::REF, Bound::weak(5));
        assert_eq!(small.relation(&big), Relation::Subset);
        assert_eq!(big.relation(&small), Relation::Superset);
        assert_eq!(big.relation(&big.clone()), Relation::Equal);
        assert!(big.includes(&small));
        assert!(!small.includes(&big));
    }

    #[test]
    fn relation_incomparable() {
        let mut a = Dbm::zero(1);
        a.up();
        a.constrain(Clock(1), Clock::REF, Bound::weak(5)); // x in [0,5]
        let mut b = Dbm::zero(1);
        b.up();
        b.constrain(Clock::REF, Clock(1), Bound::weak(-3)); // x >= 3
        assert_eq!(a.relation(&b), Relation::Incomparable);
    }

    #[test]
    fn empty_zone_relations() {
        let e = Dbm::empty(1);
        let z = Dbm::zero(1);
        assert_eq!(e.relation(&z), Relation::Subset);
        assert_eq!(z.relation(&e), Relation::Superset);
        assert_eq!(e.relation(&Dbm::empty(1)), Relation::Equal);
        assert!(z.includes(&e));
    }

    #[test]
    fn satisfies_and_implies() {
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain(Clock(1), Clock::REF, Bound::weak(5)); // x in [0,5]
        let le_10 = Constraint::upper(Clock(1), Bound::weak(10));
        let ge_3 = Constraint::lower(Clock(1), 3, false);
        let ge_7 = Constraint::lower(Clock(1), 7, false);
        // `z` implies `c` iff intersecting with `c` leaves it unchanged.
        let implies = |c: &Constraint| z.clone().and(c) == &z;
        assert!(z.satisfies(&le_10));
        assert!(implies(&le_10));
        assert!(z.satisfies(&ge_3));
        assert!(!implies(&ge_3));
        assert!(!z.satisfies(&ge_7));
    }

    #[test]
    fn extrapolation_widens_large_bounds() {
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain(Clock(1), Clock::REF, Bound::weak(1_000));
        z.constrain(Clock::REF, Clock(1), Bound::weak(-900)); // x in [900, 1000]
        let mut e = z.clone();
        e.extrapolate_lu(&[0, 10], &[0, 10]); // max constant for x is 10
        // After extrapolation the zone must include the original zone.
        assert!(e.includes(&z));
        // And bounds beyond the max constant are gone.
        assert_eq!(e.sup(Clock(1)), Bound::INFINITY);
    }

    #[test]
    fn extrapolation_preserves_small_zones() {
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain(Clock(1), Clock::REF, Bound::weak(5));
        let orig = z.clone();
        z.extrapolate_lu(&[0, 10], &[0, 10]);
        assert_eq!(z.relation(&orig), Relation::Equal);
    }

    #[test]
    fn lu_extrapolation_is_coarser_or_equal_to_m() {
        let mut z = Dbm::zero(2);
        z.up();
        z.constrain(Clock(1), Clock::REF, Bound::weak(800));
        z.constrain(Clock::REF, Clock(2), Bound::weak(-300));
        // ExtraM is ExtraLU with both tables at the maximal constants;
        // smaller lower constants widen more.
        let mut m = z.clone();
        m.extrapolate_lu(&[0, 10, 10], &[0, 10, 10]);
        let mut lu = z.clone();
        lu.extrapolate_lu(&[0, 0, 0], &[0, 10, 10]);
        assert!(m.includes(&z));
        assert!(lu.includes(&m));
    }

    #[test]
    fn close_detects_negative_cycle() {
        let mut z = Dbm::universe(1);
        z.set_raw(Clock(1), Clock::REF, Bound::weak(2)); // x <= 2
        z.set_raw(Clock::REF, Clock(1), Bound::weak(-5)); // x >= 5
        z.close();
        assert!(z.is_empty());
    }

    #[test]
    fn from_rel_roundtrip_through_zone() {
        let mut z = Dbm::universe(2);
        for c in Constraint::from_rel(x(), Clock::REF, RelOp::Eq, 4) {
            z.and(&c);
        }
        assert!(z.contains_point(&[0, 4, 9]));
        assert!(!z.contains_point(&[0, 5, 9]));
    }

    #[test]
    fn reset_to_canonical_pins_dead_clock_to_zero() {
        let mut a = Dbm::zero(2);
        a.up();
        a.constrain(x(), Clock::REF, Bound::weak(5)); // x in [0, 5]
        a.reset(y(), 1);
        let mut b = Dbm::zero(2);
        b.up();
        b.constrain(x(), Clock::REF, Bound::weak(5));
        b.reset(y(), 3); // same x projection, y pinned differently
        assert!(a != b);
        a.reset_to_canonical(y());
        b.reset_to_canonical(y());
        // The zones agreed on the live clock x, so canonicalizing the dead
        // clock y makes them identical (same hash for the passed list).
        assert_eq!(a, b);
        assert_eq!(a.sup(y()), Bound::weak(0));
        assert_eq!(a.inf(y()), (0, false));
        // x's own bounds were untouched.
        assert_eq!(a.sup(x()), Bound::weak(5));
    }

    #[test]
    fn free_is_projection() {
        let mut z = Dbm::zero(2);
        z.up();
        z.constrain(x(), Clock::REF, Bound::weak(3));
        z.free(x());
        assert!(z.contains_point(&[0, 100, 2]));
        assert_eq!(z.sup(x()), Bound::INFINITY);
        // Canonical: re-closing changes nothing.
        let mut c = z.clone();
        c.close();
        assert_eq!(c.relation(&z), Relation::Equal);
    }

    #[test]
    fn restrict_to_active_canonicalizes_exactly_the_dead_clocks() {
        let mut z = Dbm::zero(2);
        z.up();
        z.constrain(x(), Clock::REF, Bound::weak(7));
        z.constrain(Clock::REF, y(), Bound::weak(-4));
        let live_sup = z.sup(x());
        // Entry 0 is the reference clock; x stays active, y is dead.
        let n = z.restrict_to_active(&[true, true, false]);
        assert_eq!(n, 1);
        assert_eq!(z.sup(x()), live_sup);
        assert_eq!(z.sup(y()), Bound::weak(0));
        // Missing entries are treated as active: nothing changes.
        let snapshot = z.clone();
        assert_eq!(z.restrict_to_active(&[true]), 0);
        assert_eq!(z, snapshot);
        // Idempotent.
        assert_eq!(z.restrict_to_active(&[true, true, false]), 1);
        assert_eq!(z, snapshot);
        // No-op on the empty zone.
        let mut e = Dbm::empty(2);
        assert_eq!(e.restrict_to_active(&[true, false, false]), 0);
        assert!(e.is_empty());
    }

    fn interval(lo: i64, hi: i64) -> Dbm {
        interval_with(lo, false, hi, false)
    }

    /// The interval `lo ⋈ x ⋈ hi`, each end strict or weak.
    fn interval_with(lo: i64, lo_strict: bool, hi: i64, hi_strict: bool) -> Dbm {
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain(Clock(1), Clock::REF, Bound::new(hi, hi_strict));
        z.constrain(Clock::REF, Clock(1), Bound::new(-lo, lo_strict));
        z
    }

    #[test]
    fn convex_hull_is_elementwise_max() {
        let a = interval(0, 2);
        let b = interval(5, 7);
        let h = a.convex_hull(&b);
        assert!(h.includes(&a) && h.includes(&b));
        assert!(h.contains_point(&[0, 3])); // the gap is filled
        // Hull with an empty zone is the other operand.
        assert_eq!(Dbm::empty(1).convex_hull(&a), a);
        assert_eq!(a.convex_hull(&Dbm::empty(1)), a);
        // Canonical: re-closing changes nothing.
        let mut c = h.clone();
        c.close();
        assert_eq!(c.relation(&h), Relation::Equal);
    }

    #[test]
    fn subtract_splits_off_the_right_pieces() {
        let z = interval(0, 10);
        let pieces = z.subtract(&interval(3, 5));
        assert!(!pieces.is_empty());
        let covered = |v: i64| pieces.iter().any(|p| p.contains_point(&[0, v]));
        assert!(covered(0) && covered(2) && covered(6) && covered(10));
        assert!(!covered(3) && !covered(4) && !covered(5));
        // Subtracting a superset leaves nothing.
        assert!(z.subtract(&interval(0, 20)).is_empty());
        // Subtracting the empty zone leaves the zone itself.
        let all = z.subtract(&Dbm::empty(1));
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].relation(&z), Relation::Equal);
    }

    #[test]
    fn try_merge_accepts_exactly_the_convex_unions() {
        // Overlapping intervals: union convex.
        let m = interval(0, 5).try_merge(&interval(3, 8)).expect("convex");
        assert_eq!(m.relation(&interval(0, 8)), Relation::Equal);
        // Adjacent intervals: union convex.
        assert!(interval(0, 5).try_merge(&interval(5, 8)).is_some());
        // Disjoint intervals with a gap: hull adds points, no merge.
        assert!(interval(0, 2).try_merge(&interval(5, 7)).is_none());
        // Two diagonal unit squares: hull adds the off-diagonal corners.
        let square = |lo: i64| {
            let mut z = Dbm::zero(2);
            z.up();
            z.constrain(x(), Clock::REF, Bound::weak(lo + 1));
            z.constrain(Clock::REF, x(), Bound::weak(-lo));
            z.free(y());
            z.constrain(y(), Clock::REF, Bound::weak(lo + 1));
            z.constrain(Clock::REF, y(), Bound::weak(-lo));
            z
        };
        assert!(square(0).try_merge(&square(2)).is_none());
        // A zone merges with itself and with any subset.
        let z = interval(2, 9);
        assert_eq!(z.try_merge(&z).unwrap().relation(&z), Relation::Equal);
        assert_eq!(z.try_merge(&interval(3, 5)).unwrap().relation(&z), Relation::Equal);
    }

    #[test]
    fn try_merge_tells_touching_intervals_from_gapped_ones() {
        // [0,1) ∪ [1,2] = [0,2]: the opposing bounds sum to (0,<), a shared
        // boundary, not a gap.
        let merged = interval_with(0, false, 1, true).try_merge(&interval(1, 2));
        assert_eq!(merged.map(|m| m.relation(&interval(0, 2))), Some(Relation::Equal));
        // (0,1) ∪ (1,2) misses the point 1, which the hull (0,2) holds.
        let (a, b) = (interval_with(0, true, 1, true), interval_with(1, true, 2, true));
        assert!(a.try_merge(&b).is_none() && b.try_merge(&a).is_none());
    }

    #[test]
    fn try_merge_rejects_zones_separated_only_along_a_diagonal() {
        // Both zones lie in the square [0,4]², on either side of the
        // diagonal band |x − y| < 2; each single-clock projection overlaps
        // the other's, but the hull gains the band, e.g. (2,2).
        let side = |from: Clock, to: Clock| {
            let mut z = Dbm::universe(2);
            z.constrain(x(), Clock::REF, Bound::weak(4));
            z.constrain(y(), Clock::REF, Bound::weak(4));
            z.constrain(from, to, Bound::weak(-2));
            z
        };
        let (above, below) = (side(x(), y()), side(y(), x()));
        assert_eq!(above.sup(x()), Bound::weak(2));
        assert_eq!(below.sup(y()), Bound::weak(2));
        assert!(above.convex_hull(&below).contains_point(&[0, 2, 2]));
        assert!(above.try_merge(&below).is_none() && below.try_merge(&above).is_none());
    }

    #[test]
    fn cascading_merge_absorbs_a_chain_of_intervals() {
        // [0,1], [1,2], [3,4] stored; inserting [2,3] bridges the gap and the
        // cascade collapses everything into [0,4].
        let mut zones = vec![interval(0, 1), interval(1, 2), interval(3, 4)];
        let mut zone = interval(2, 3);
        let merged = merge_into_antichain(&mut zone, &mut zones, 64, drop);
        assert_eq!(merged, 3);
        assert!(zones.is_empty());
        assert_eq!(zone, interval(0, 4));
    }

    #[test]
    fn unmergeable_zones_are_left_alone() {
        let mut zones = vec![interval(0, 1), interval(10, 11)];
        let mut zone = interval(4, 5);
        assert_eq!(merge_into_antichain(&mut zone, &mut zones, 64, drop), 0);
        assert_eq!(zones.len(), 2);
        assert_eq!(zone, interval(4, 5));
    }

    #[test]
    fn operations_on_empty_zone_are_noops() {
        let mut e = Dbm::empty(2);
        e.up();
        e.reset(x(), 3);
        e.free(y());
        e.constrain(x(), Clock::REF, Bound::weak(5));
        assert!(e.is_empty());
        assert!(!e.contains_point(&[0, 0, 0]));
    }
}
