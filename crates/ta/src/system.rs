//! The [`System`]: global declarations plus the parallel composition of
//! automata.

use crate::automaton::Automaton;
use crate::channel::ChannelDecl;
use crate::expr::VarStore;
use crate::ids::{ChannelId, ClockId, LocId, VarId};
use crate::validate::ValidationError;

/// Per-automaton, per-location LU extrapolation constants (see
/// [`System::location_lu_table`]).
#[derive(Clone, Debug)]
pub struct LuTable {
    /// `per_loc[automaton][location] = (lower, upper)`, indexed by DBM clock
    /// (entry 0 unused).
    pub per_loc: Vec<Vec<(Vec<i64>, Vec<i64>)>>,
}

impl LuTable {
    /// Raises both bounds of `clock` at `(automaton, location)` to at least
    /// `value`; used to seed query constants before re-propagating the table
    /// with [`System::propagate_lu_table`].
    pub fn seed(&mut self, automaton: usize, location: LocId, clock: ClockId, value: i64) {
        let idx = clock.dbm_clock().index();
        let entry = &mut self.per_loc[automaton][location.index()];
        if value > entry.0[idx] {
            entry.0[idx] = value;
        }
        if value > entry.1[idx] {
            entry.1[idx] = value;
        }
    }
}

/// Declaration of a clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClockDecl {
    /// Human-readable name.
    pub name: String,
}

/// Declaration of a bounded integer variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarDecl {
    /// Human-readable name.
    pub name: String,
    /// Smallest admissible value.
    pub min: i64,
    /// Largest admissible value.
    pub max: i64,
    /// Initial value.
    pub init: i64,
}

/// A closed network of timed automata with shared clocks, variables and
/// channels.
#[derive(Clone, Debug, PartialEq)]
pub struct System {
    /// Name of the system (used in reports).
    pub name: String,
    /// Clock declarations; `ClockId(i)` indexes this table.
    pub clocks: Vec<ClockDecl>,
    /// Integer variable declarations; `VarId(i)` indexes this table.
    pub vars: Vec<VarDecl>,
    /// Channel declarations; `ChannelId(i)` indexes this table.
    pub channels: Vec<ChannelDecl>,
    /// The parallel components.
    pub automata: Vec<Automaton>,
}

impl System {
    /// Number of clocks (the checker's DBMs have dimension `num_clocks + 1`).
    pub fn num_clocks(&self) -> usize {
        self.clocks.len()
    }

    /// Number of integer variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The initial variable store.
    pub fn initial_vars(&self) -> VarStore {
        VarStore::new(self.vars.iter().map(|v| v.init).collect())
    }

    /// `(min, max)` ranges of all variables, indexed by [`VarId`].
    pub fn var_ranges(&self) -> Vec<(i64, i64)> {
        self.vars.iter().map(|v| (v.min, v.max)).collect()
    }

    /// Looks up a clock by name.
    pub fn clock_by_name(&self, name: &str) -> Option<ClockId> {
        self.clocks
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClockId(i as u32))
    }

    /// Looks up a variable by name.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId(i as u32))
    }

    /// Looks up a channel by name.
    pub fn channel_by_name(&self, name: &str) -> Option<ChannelId> {
        self.channels
            .iter()
            .position(|c| c.name == name)
            .map(|i| ChannelId(i as u32))
    }

    /// Looks up an automaton index by name.
    pub fn automaton_by_name(&self, name: &str) -> Option<usize> {
        self.automata.iter().position(|a| a.name == name)
    }

    /// Per-clock maximal constants (indexed by DBM clock, entry 0 unused) for
    /// maximum-bounds extrapolation: the largest constant each clock is
    /// compared against in any guard or invariant, taking variable ranges into
    /// account for variable right-hand sides.
    pub fn max_clock_constants(&self) -> Vec<i64> {
        let ranges = self.var_ranges();
        let mut k = vec![0i64; self.num_clocks() + 1];
        let mut bump = |clock: ClockId, value: i64| {
            let idx = clock.dbm_clock().index();
            if value > k[idx] {
                k[idx] = value;
            }
        };
        for a in &self.automata {
            for loc in &a.locations {
                for cc in &loc.invariant {
                    bump(cc.clock, cc.max_constant(&ranges));
                }
            }
            for e in &a.edges {
                for cc in &e.clock_guard {
                    bump(cc.clock, cc.max_constant(&ranges));
                }
                for (c, v) in &e.resets {
                    bump(*c, *v);
                }
            }
        }
        k
    }

    /// Location-dependent LU constants (static guard analysis, Behrmann et
    /// al.): for each automaton and location, the per-clock lower/upper
    /// constants relevant *from that location onwards*.  A clock compared
    /// only after being reset on every path does not keep its constant alive,
    /// which is what lets a measuring-observer clock be extrapolated away
    /// outside its measurement window.  The per-state constants used by the
    /// checker are the element-wise maxima over every automaton's current
    /// location (a clock stays precise as long as *any* automaton may still
    /// compare it).
    pub fn location_lu_table(&self) -> LuTable {
        use tempo_dbm::RelOp;
        let ranges = self.var_ranges();
        let dim = self.num_clocks() + 1;
        let mut per_loc: Vec<Vec<(Vec<i64>, Vec<i64>)>> = self
            .automata
            .iter()
            .map(|a| vec![(vec![0i64; dim], vec![0i64; dim]); a.locations.len()])
            .collect();
        let bump = |entry: &mut (Vec<i64>, Vec<i64>), clock: ClockId, op: RelOp, value: i64| {
            let idx = clock.dbm_clock().index();
            let (is_lower, is_upper) = match op {
                RelOp::Ge | RelOp::Gt => (true, false),
                RelOp::Le | RelOp::Lt => (false, true),
                RelOp::Eq => (true, true),
            };
            if is_lower && value > entry.0[idx] {
                entry.0[idx] = value;
            }
            if is_upper && value > entry.1[idx] {
                entry.1[idx] = value;
            }
        };
        for (ai, a) in self.automata.iter().enumerate() {
            for (li, loc) in a.locations.iter().enumerate() {
                for cc in &loc.invariant {
                    bump(
                        &mut per_loc[ai][li],
                        cc.clock,
                        cc.op,
                        cc.max_constant(&ranges),
                    );
                }
            }
            for e in &a.edges {
                let src = e.source.index();
                let dst = e.target.index();
                for cc in &e.clock_guard {
                    bump(
                        &mut per_loc[ai][src],
                        cc.clock,
                        cc.op,
                        cc.max_constant(&ranges),
                    );
                }
                // A reset to `v` pins the clock to the constant `v` in the
                // successor zone; keep it representable on both sides.
                for (c, v) in &e.resets {
                    bump(&mut per_loc[ai][src], *c, RelOp::Eq, *v);
                    bump(&mut per_loc[ai][dst], *c, RelOp::Eq, *v);
                }
            }
        }
        let mut table = LuTable { per_loc };
        self.propagate_lu_table(&mut table);
        table
    }

    /// Backward fixpoint of [`System::location_lu_table`]: a location
    /// inherits the constants of every edge-successor location for all
    /// clocks the edge does *not* reset.  Public so callers can seed extra
    /// (query) constants into a table and re-propagate them.
    pub fn propagate_lu_table(&self, table: &mut LuTable) {
        loop {
            let mut changed = false;
            for (ai, a) in self.automata.iter().enumerate() {
                for e in &a.edges {
                    let src = e.source.index();
                    let dst = e.target.index();
                    if src == dst {
                        continue;
                    }
                    let (head, tail) = if src < dst {
                        let (h, t) = table.per_loc[ai].split_at_mut(dst);
                        (&mut h[src], &t[0])
                    } else {
                        let (h, t) = table.per_loc[ai].split_at_mut(src);
                        (&mut t[0], &h[dst])
                    };
                    for idx in 1..head.0.len() {
                        if e.resets.iter().any(|(c, _)| c.dbm_clock().index() == idx) {
                            continue;
                        }
                        if tail.0[idx] > head.0[idx] {
                            head.0[idx] = tail.0[idx];
                            changed = true;
                        }
                        if tail.1[idx] > head.1[idx] {
                            head.1[idx] = tail.1[idx];
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Validates internal consistency: ids, locations, variable ranges and
    /// names (each failure is a [`ValidationError`] variant).
    pub fn validate(&self) -> Result<(), ValidationError> {
        crate::validate::validate(self)
    }
}
