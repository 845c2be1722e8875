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
//! The operations provided are exactly those the checker's forward symbolic
//! reachability runs (Bengtsson & Yi, *Timed Automata: Semantics,
//! Algorithms and Tools*), plus the oracles its tests compare them against:
//!
//! * [`Dbm::up`] — delay (future) operator,
//! * [`Dbm::constrain`] / [`Dbm::and`] — intersection with one difference
//!   constraint, re-closed incrementally with [`Dbm::close1`],
//! * [`Dbm::reset`] / [`Dbm::free`] and the dead-clock pinning
//!   [`Dbm::reset_to_canonical`] / [`Dbm::restrict_to_active`] — clock
//!   updates,
//! * [`Dbm::project_into`] / [`Dbm::embed_into`] — the principal sub-matrix
//!   over the live clocks of a zone whose dead clocks are pinned, and back,
//!   which is how the checker's passed list stores zones,
//! * [`Dbm::extrapolate_lu`] — the `Extra⁺_LU` finiteness abstraction
//!   (Behrmann, Bouyer, Larsen, Pelánek, "Lower and upper bounds in
//!   zone-based abstractions of timed automata", STTT 2006),
//! * [`Dbm::relation`] / [`Dbm::includes`] — zone inclusion,
//! * [`Dbm::try_merge`] / [`merge_into_antichain`] — exact convex unions,
//!   which the checker's passed list uses to replace zones by their hull
//!   without adding a valuation,
//! * [`Dbm::close`] (full Floyd–Warshall after [`Dbm::set_raw`] writes),
//!   [`Dbm::subtract`], [`Dbm::convex_hull`] and [`Dbm::contains_point`] —
//!   the independent oracles (see the [`matrix`](Dbm) module docs for the
//!   canonical-form invariant).
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
pub use clock::Clock;
pub use constraint::{Constraint, RelOp};
pub use matrix::{merge_into_antichain, Dbm, Relation};
