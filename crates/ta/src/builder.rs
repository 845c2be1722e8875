//! Fluent builders for systems and automata.
//!
//! The builders are the intended way to construct models by hand and are what
//! the architecture front-end uses internally.  They keep the underlying data
//! structures simple `Vec`s while providing a readable, UPPAAL-like surface:
//!
//! ```
//! use tempo_ta::*;
//!
//! let mut sb = SystemBuilder::new("example");
//! let x = sb.add_clock("x");
//! let n = sb.add_var("n", 0, 10, 0);
//! let go = sb.add_channel("go", ChannelKind::Urgent);
//!
//! let mut a = sb.automaton("worker");
//! let idle = a.location("idle").add();
//! let busy = a.location("busy").invariant(x.le(5)).add();
//! a.edge(idle, busy)
//!     .guard(n.gt_(0))
//!     .sync(Sync::recv(go))
//!     .update(Update::add(n, -1))
//!     .reset(x)
//!     .add();
//! a.edge(busy, idle).guard_clock(x.eq_(5)).add();
//! a.set_initial(idle);
//! a.build();
//! let system = sb.build();
//! assert_eq!(system.automata.len(), 1);
//! ```

use crate::automaton::{Automaton, Edge, Location, LocationKind, Sync};
use crate::channel::{ChannelDecl, ChannelKind};
use crate::clockcon::ClockConstraint;
use crate::expr::{BoolExpr, Update};
use crate::ids::{ChannelId, ClockId, LocId, VarId};
use crate::system::{ClockDecl, System, VarDecl};

/// Builder for a [`System`].
#[derive(Debug)]
pub struct SystemBuilder {
    name: String,
    clocks: Vec<ClockDecl>,
    vars: Vec<VarDecl>,
    channels: Vec<ChannelDecl>,
    automata: Vec<Automaton>,
}

impl SystemBuilder {
    /// Starts a new system with the given name.
    pub fn new(name: impl Into<String>) -> SystemBuilder {
        SystemBuilder {
            name: name.into(),
            clocks: Vec::new(),
            vars: Vec::new(),
            channels: Vec::new(),
            automata: Vec::new(),
        }
    }

    /// Declares a clock.
    pub fn add_clock(&mut self, name: impl Into<String>) -> ClockId {
        let id = ClockId(self.clocks.len() as u32);
        self.clocks.push(ClockDecl { name: name.into() });
        id
    }

    /// Declares a bounded integer variable with initial value `init`.
    pub fn add_var(&mut self, name: impl Into<String>, min: i64, max: i64, init: i64) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarDecl {
            name: name.into(),
            min,
            max,
            init,
        });
        id
    }

    /// Declares a channel.
    pub fn add_channel(&mut self, name: impl Into<String>, kind: ChannelKind) -> ChannelId {
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(ChannelDecl {
            name: name.into(),
            kind,
        });
        id
    }

    /// Starts building an automaton that will be added to this system when
    /// [`AutomatonBuilder::build`] is called.
    pub fn automaton(&mut self, name: impl Into<String>) -> AutomatonBuilder<'_> {
        AutomatonBuilder {
            system: self,
            automaton: Automaton {
                name: name.into(),
                locations: Vec::new(),
                edges: Vec::new(),
                initial: LocId(0),
            },
        }
    }

    /// Adds a pre-built automaton.
    pub fn add_automaton(&mut self, automaton: Automaton) {
        self.automata.push(automaton);
    }

    /// Finishes the system.
    pub fn build(self) -> System {
        System {
            name: self.name,
            clocks: self.clocks,
            vars: self.vars,
            channels: self.channels,
            automata: self.automata,
        }
    }
}

/// Builder for a single [`Automaton`], borrowed from a [`SystemBuilder`].
#[derive(Debug)]
pub struct AutomatonBuilder<'s> {
    system: &'s mut SystemBuilder,
    automaton: Automaton,
}

impl<'s> AutomatonBuilder<'s> {
    /// Starts a location with the given name; finish it with
    /// [`LocationBuilder::add`].
    pub fn location(&mut self, name: impl Into<String>) -> LocationBuilder<'_, 's> {
        LocationBuilder {
            builder: self,
            location: Location::new(name),
        }
    }

    /// Starts an edge from `source` to `target`; finish it with
    /// [`EdgeBuilder::add`].
    pub fn edge(&mut self, source: LocId, target: LocId) -> EdgeBuilder<'_, 's> {
        EdgeBuilder {
            builder: self,
            edge: Edge::new(source, target),
        }
    }

    /// Sets the initial location.
    pub fn set_initial(&mut self, loc: LocId) {
        self.automaton.initial = loc;
    }

    /// Name of the automaton being built.
    pub fn name(&self) -> &str {
        &self.automaton.name
    }

    /// Finishes the automaton and registers it with the system builder.
    pub fn build(self) {
        self.system.automata.push(self.automaton);
    }
}

/// Builder for a [`Location`].
#[derive(Debug)]
pub struct LocationBuilder<'a, 's> {
    builder: &'a mut AutomatonBuilder<'s>,
    location: Location,
}

impl LocationBuilder<'_, '_> {
    /// Adds an invariant conjunct.
    pub fn invariant(mut self, c: ClockConstraint) -> Self {
        self.location.invariant.push(c);
        self
    }

    /// Marks (or unmarks) the location as committed.
    pub fn committed(mut self, yes: bool) -> Self {
        if yes {
            self.location.kind = LocationKind::Committed;
        } else if self.location.kind == LocationKind::Committed {
            self.location.kind = LocationKind::Normal;
        }
        self
    }

    /// Marks (or unmarks) the location as urgent.
    pub fn urgent(mut self, yes: bool) -> Self {
        if yes {
            self.location.kind = LocationKind::Urgent;
        } else if self.location.kind == LocationKind::Urgent {
            self.location.kind = LocationKind::Normal;
        }
        self
    }

    /// Finishes the location and returns its id.
    pub fn add(self) -> LocId {
        let id = LocId(self.builder.automaton.locations.len() as u32);
        self.builder.automaton.locations.push(self.location);
        id
    }
}

/// Builder for an [`Edge`].
#[derive(Debug)]
pub struct EdgeBuilder<'a, 's> {
    builder: &'a mut AutomatonBuilder<'s>,
    edge: Edge,
}

impl EdgeBuilder<'_, '_> {
    /// Conjoins a data guard.
    pub fn guard(mut self, g: BoolExpr) -> Self {
        let old = std::mem::replace(&mut self.edge.guard, BoolExpr::tt());
        self.edge.guard = old.and(g);
        self
    }

    /// Adds a clock-guard conjunct.
    pub fn guard_clock(mut self, c: ClockConstraint) -> Self {
        self.edge.clock_guard.push(c);
        self
    }

    /// Sets the synchronization label.
    pub fn sync(mut self, s: Sync) -> Self {
        self.edge.sync = s;
        self
    }

    /// Appends a variable update.
    pub fn update(mut self, u: Update) -> Self {
        self.edge.updates.push(u);
        self
    }

    /// Appends several variable updates.
    pub fn updates(mut self, us: impl IntoIterator<Item = Update>) -> Self {
        self.edge.updates.extend(us);
        self
    }

    /// Resets a clock to zero.
    pub fn reset(mut self, c: ClockId) -> Self {
        self.edge.resets.push((c, 0));
        self
    }

    /// Resets a clock to an arbitrary non-negative value.
    pub fn reset_to(mut self, c: ClockId, value: i64) -> Self {
        self.edge.resets.push((c, value));
        self
    }

    /// Finishes the edge and returns its index within the automaton.
    pub fn add(self) -> usize {
        let idx = self.builder.automaton.edges.len();
        self.builder.automaton.edges.push(self.edge);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clockcon::ClockRef;
    use crate::expr::VarExprExt;

    #[test]
    fn builder_produces_consistent_system() {
        let mut sb = SystemBuilder::new("s");
        let x = sb.add_clock("x");
        let n = sb.add_var("n", 0, 5, 2);
        let c = sb.add_channel("c", ChannelKind::Urgent);

        let mut a = sb.automaton("a");
        let l0 = a.location("idle").add();
        let l1 = a.location("busy").invariant(x.le(7)).committed(false).add();
        let l2 = a.location("done").committed(true).add();
        a.edge(l0, l1)
            .guard(n.gt_(0))
            .sync(Sync::recv(c))
            .update(Update::add(n, -1))
            .reset(x)
            .add();
        a.edge(l1, l2).guard_clock(x.eq_(7)).add();
        a.set_initial(l0);
        a.build();

        let sys = sb.build();
        assert_eq!(sys.num_clocks(), 1);
        assert_eq!(sys.num_vars(), 1);
        assert_eq!(sys.automata.len(), 1);
        assert_eq!(sys.automata[0].locations.len(), 3);
        assert_eq!(sys.automata[0].edges.len(), 2);
        assert_eq!(sys.automata[0].initial, l0);
        assert_eq!(sys.automata[0].locations[2].kind, LocationKind::Committed);
        assert_eq!(sys.clock_by_name("x"), Some(x));
        assert_eq!(sys.var_by_name("n"), Some(n));
        assert_eq!(sys.channel_by_name("c"), Some(c));
        assert_eq!(sys.initial_vars().values(), &[2]);
        assert_eq!(sys.var_ranges(), vec![(0, 5)]);
        assert!(sys.validate().is_ok());
    }

    #[test]
    fn max_clock_constants_account_for_var_ranges() {
        let mut sb = SystemBuilder::new("s");
        let x = sb.add_clock("x");
        let y = sb.add_clock("y");
        let d = sb.add_var("d", 0, 250, 0);
        let mut a = sb.automaton("a");
        let l0 = a
            .location("l0")
            .invariant(x.le(crate::IntExpr::Var(d)))
            .add();
        let l1 = a.location("l1").add();
        a.edge(l0, l1).guard_clock(y.ge(40)).add();
        a.set_initial(l0);
        a.build();
        let sys = sb.build();
        let k = sys.max_clock_constants();
        // Index 0 is the reference clock.
        assert_eq!(k[x.dbm_clock().index()], 250);
        assert_eq!(k[y.dbm_clock().index()], 40);
    }

    #[test]
    fn urgent_location_builder() {
        let mut sb = SystemBuilder::new("s");
        let mut a = sb.automaton("a");
        let l = a.location("u").urgent(true).add();
        a.set_initial(l);
        a.build();
        let sys = sb.build();
        assert_eq!(sys.automata[0].locations[0].kind, LocationKind::Urgent);
    }
}
