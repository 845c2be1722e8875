//! # tempo-dbm — Difference Bound Matrices for timed-automata analysis
//!
//! This crate implements the symbolic clock-zone representation used by
//! UPPAAL-style model checkers: *difference bound matrices* (DBMs) over a set
//! of clocks `x_1 … x_n` plus the reference clock `x_0 ≡ 0`.  A DBM `D`
//! represents the convex set of clock valuations
//!
//! ```text
//! [[D]] = { v : ℝ≥0ⁿ | ∀ i,j. v(x_i) − v(x_j) ≺_{ij} D[i][j] }
//! ```
//!
//! where every entry is a [`Bound`]: either `∞` or a pair of an integer
//! constant and a strictness flag (`<` or `≤`).
//!
//! The operations provided are exactly those needed by forward symbolic
//! reachability of timed automata (Bengtsson & Yi, *Timed Automata: Semantics,
//! Algorithms and Tools*):
//!
//! * [`Dbm::close`] — full canonicalization (all-pairs shortest paths) and
//!   [`Dbm::close1`] — its O(n²) incremental form after a single tightened
//!   entry (see the [`matrix`](Dbm) module docs for the canonical-form
//!   invariant and when the full close is still required),
//! * [`Dbm::up`] — delay (future) operator,
//! * [`Dbm::down`] — past operator,
//! * [`Dbm::constrain`] — intersection with a single difference constraint,
//! * [`Dbm::reset`] / [`Dbm::free`] / [`Dbm::copy_clock`] / [`Dbm::shift`] —
//!   clock updates,
//! * [`Dbm::relation`] / [`Dbm::includes`] — zone inclusion,
//! * [`Dbm::extrapolate_max_bounds`] / [`Dbm::extrapolate_lu`] — finiteness
//!   abstractions,
//! * [`Dbm::try_merge`] / [`merge_into_antichain`] — exact convex unions,
//!   which the checker's passed list uses to replace zones by their hull
//!   without adding a valuation.
//!
//! All bounds are kept in `i64`, which is ample for the nanosecond-resolution
//! model-time units produced by the architecture front-end.
//!
//! ## Example
//!
//! ```
//! use tempo_dbm::{Dbm, Clock, Bound};
//!
//! // Two clocks x (=1) and y (=2), starting at the origin.
//! let mut z = Dbm::zero(2);
//! z.up();                                   // let time pass
//! z.constrain(Clock(1), Clock::REF, Bound::weak(5));   // x ≤ 5
//! z.constrain(Clock::REF, Clock(2), Bound::weak(-2));  // y ≥ 2
//! assert!(!z.is_empty());
//! assert_eq!(z.sup(Clock(1)), Bound::weak(5));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bound;
mod clock;
mod constraint;
mod matrix;

pub use bound::Bound;
pub use clock::{Clock, ClockSet};
pub use constraint::{Constraint, RelOp};
pub use matrix::{
    incremental_close_enabled, merge_into_antichain, set_incremental_close, Dbm, Relation,
};
