//! # tempo-ta — networks of timed automata with bounded integer variables
//!
//! This crate defines the modeling language consumed by the
//! [`tempo-check`](../tempo_check/index.html) model checker and produced by
//! the [`tempo-arch`](../tempo_arch/index.html) architecture front-end.  It is
//! the UPPAAL feature subset used by Hendriks & Verhoef, *Timed Automata Based
//! Analysis of Embedded System Architectures* (IPPS 2006):
//!
//! * networks of timed automata composed in parallel,
//! * bounded integer variables with arithmetic updates (the paper's
//!   `rec`, `setvolume`, `receive_out`, … message counters),
//! * guards over integers and clocks, location invariants with
//!   variable-valued right-hand sides (needed for the preemptive scheduler
//!   pattern `x <= D` of Fig. 5),
//! * binary, **urgent** and broadcast channels (`hurry!` greediness),
//! * normal, urgent and **committed** locations (the measuring automaton's
//!   `seen` location of Fig. 9).
//!
//! Models are constructed programmatically through [`SystemBuilder`] and
//! [`AutomatonBuilder`], validated with [`System::validate`], and exported to
//! Graphviz DOT with [`dot::automaton_to_dot`].
//!
//! ```
//! use tempo_ta::*;
//!
//! let mut sb = SystemBuilder::new("toggle");
//! let x = sb.add_clock("x");
//! let press = sb.add_channel("press", ChannelKind::Binary);
//!
//! let mut a = sb.automaton("lamp");
//! let off = a.location("off").committed(false).add();
//! let on = a.location("on").invariant(x.le(10)).add();
//! a.edge(off, on).sync(Sync::recv(press)).reset(x).add();
//! a.edge(on, off).guard_clock(x.ge(5)).add();
//! a.set_initial(off);
//! a.build();
//!
//! let mut u = sb.automaton("user");
//! let idle = u.location("idle").add();
//! u.edge(idle, idle).sync(Sync::send(press)).add();
//! u.set_initial(idle);
//! u.build();
//!
//! let system = sb.build();
//! assert!(system.validate().is_ok());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
mod automaton;
mod builder;
mod channel;
mod clockcon;
pub mod dot;
mod expr;
pub mod format;
mod ids;
mod system;
mod validate;

pub use activity::ActivityTable;
pub use automaton::{Automaton, Edge, Location, LocationKind, Sync};
pub use builder::{AutomatonBuilder, EdgeBuilder, LocationBuilder, SystemBuilder};
pub use channel::{ChannelDecl, ChannelKind};
pub use clockcon::{apply_constraints, satisfies_constraints, ClockConstraint, ClockRef};
pub use expr::{BoolExpr, EvalError, IntExpr, Update, VarExprExt, VarStore};
pub use ids::{ChannelId, ClockId, LocId, VarId};
pub use system::{ClockDecl, LuTable, System, VarDecl};
pub use tempo_dbm::RelOp;
pub use validate::ValidationError;
