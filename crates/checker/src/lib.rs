//! # tempo-check — UPPAAL-style symbolic model checker for timed automata
//!
//! This crate implements forward symbolic reachability over the zone graph of
//! a [`tempo_ta::System`], following the algorithm used by UPPAAL:
//!
//! * symbolic states are pairs of a *discrete state* (location vector +
//!   bounded-integer valuation) and a *zone* (a [`tempo_dbm::Dbm`]),
//! * the successor relation implements UPPAAL's network semantics —
//!   internal (τ) edges, binary synchronization, broadcast synchronization,
//!   urgent channels (no delay while an urgent synchronization is enabled),
//!   urgent and committed locations,
//! * a passed/waiting list with zone-inclusion subsumption and
//!   location-dependent ExtraLU extrapolation guarantees termination; the
//!   storage discipline is pluggable ([`SearchOptions::storage`]):
//!   per-discrete-state *federations* (default) whose union-coverage
//!   subsumption discards zones covered by the union of the stored zones
//!   ([`StorageKind::Federation`]) — exact, and the difference between
//!   truncation and completion on the burstiest case-study columns — or
//!   flat per-discrete-state antichains ([`StorageKind::Flat`]), kept as
//!   the differential oracle,
//! * active-clock reduction (on by default, see
//!   [`SearchOptions::active_clock_reduction`]): clocks a static inactivity
//!   analysis proves dead in a discrete state are reset to a canonical value
//!   before storing, so states differing only in dead-clock valuations merge
//!   — this composes multiplicatively with extrapolation on the architecture
//!   models, whose observer and environment clocks are dead in most
//!   locations,
//! * the search order can be breadth-first, depth-first or randomized
//!   depth-first (the paper's `df` / `rdf` options used as a "structured
//!   testing" fallback for very large models).
//!
//! On top of plain reachability the crate provides the two worst-case
//! response-time (WCRT) procedures used in the paper:
//!
//! * [`Explorer::binary_search_wcrt`] — the paper's Property 1 method: find
//!   the smallest `C` such that `AG(obs.seen ⇒ obs.y < C)` holds, by binary
//!   search over `C`,
//! * [`Explorer::sup_clock_at`] — a one-pass computation of
//!   `sup { y | (ℓ, v, Z) reachable, ℓ contains the observed location }`,
//!   which yields the same bound in a single exploration.
//!
//! ```
//! use tempo_ta::*;
//! use tempo_check::{Explorer, SearchOptions, TargetSpec};
//!
//! // A single automaton that can reach `done` only after 5 time units.
//! let mut sb = SystemBuilder::new("demo");
//! let x = sb.add_clock("x");
//! let mut a = sb.automaton("proc");
//! let start = a.location("start").add();
//! let done = a.location("done").add();
//! a.edge(start, done).guard_clock(x.ge(5)).add();
//! a.set_initial(start);
//! a.build();
//! let sys = sb.build();
//!
//! let explorer = Explorer::new(&sys, SearchOptions::default()).unwrap();
//! let target = TargetSpec::location(&sys, "proc", "done").unwrap();
//! let report = explorer.check_reachable(&target).unwrap();
//! assert!(report.reachable);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fault;
mod state;
mod store;
mod target;
mod successor;
mod explorer;
mod merge;
mod parallel;
mod wcrt;

pub use error::CheckError;
pub use fault::{panic_message, quiet_injected_panics, FaultKind, FaultPlan, FaultSite};
pub use explorer::{
    ExplorationStats, Explorer, ProgressFn, ReachReport, SearchHook, SearchOptions, SearchOrder,
    SearchProgress, TraceStep,
};
pub use parallel::ParallelOptions;
pub use store::StorageKind;
pub use state::{DiscreteState, SymState};
pub use successor::ActionLabel;
pub use target::TargetSpec;
pub use wcrt::{BinarySearchReport, SupQuery, SupReport};
