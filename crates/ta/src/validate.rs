//! Static validation of a [`System`].

use crate::automaton::Sync;
use crate::ids::{ChannelId, ClockId, VarId};
use crate::system::System;
use std::fmt;

/// An inconsistency detected by [`System::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// An automaton has no locations.
    EmptyAutomaton {
        /// Automaton name.
        automaton: String,
    },
    /// The initial location index is out of range.
    BadInitialLocation {
        /// Automaton name.
        automaton: String,
    },
    /// An edge endpoint refers to a non-existing location.
    BadEdgeEndpoint {
        /// Automaton name.
        automaton: String,
        /// Edge index.
        edge: usize,
    },
    /// A clock id is out of range.
    UnknownClock {
        /// Automaton name.
        automaton: String,
        /// The offending id.
        clock: ClockId,
    },
    /// A variable id is out of range.
    UnknownVar {
        /// Automaton name (or `"<declaration>"` for initial values).
        automaton: String,
        /// The offending id.
        var: VarId,
    },
    /// A channel id is out of range.
    UnknownChannel {
        /// Automaton name.
        automaton: String,
        /// The offending id.
        channel: ChannelId,
    },
    /// A variable's initial value is outside its declared range.
    InitialValueOutOfRange {
        /// Variable name.
        var: String,
    },
    /// A variable's declared range is empty (`min > max`).
    EmptyRange {
        /// Variable name.
        var: String,
    },
    /// Duplicate automaton names make traces and queries ambiguous.
    DuplicateAutomatonName {
        /// The duplicated name.
        name: String,
    },
    /// Duplicate location names within one automaton.
    DuplicateLocationName {
        /// Automaton name.
        automaton: String,
        /// The duplicated location name.
        name: String,
    },
    /// A clock reset uses a negative value.
    NegativeReset {
        /// Automaton name.
        automaton: String,
        /// Edge index.
        edge: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::EmptyAutomaton { automaton } => {
                write!(f, "automaton `{automaton}` has no locations")
            }
            ValidationError::BadInitialLocation { automaton } => {
                write!(
                    f,
                    "automaton `{automaton}` has an out-of-range initial location"
                )
            }
            ValidationError::BadEdgeEndpoint { automaton, edge } => {
                write!(
                    f,
                    "edge {edge} of `{automaton}` has an out-of-range endpoint"
                )
            }
            ValidationError::UnknownClock { automaton, clock } => {
                write!(f, "`{automaton}` references undeclared clock {clock}")
            }
            ValidationError::UnknownVar { automaton, var } => {
                write!(f, "`{automaton}` references undeclared variable {var}")
            }
            ValidationError::UnknownChannel { automaton, channel } => {
                write!(f, "`{automaton}` references undeclared channel {channel}")
            }
            ValidationError::InitialValueOutOfRange { var } => {
                write!(f, "initial value of variable `{var}` is outside its range")
            }
            ValidationError::EmptyRange { var } => {
                write!(f, "variable `{var}` has an empty range (min > max)")
            }
            ValidationError::DuplicateAutomatonName { name } => {
                write!(f, "duplicate automaton name `{name}`")
            }
            ValidationError::DuplicateLocationName { automaton, name } => {
                write!(
                    f,
                    "duplicate location name `{name}` in automaton `{automaton}`"
                )
            }
            ValidationError::NegativeReset { automaton, edge } => {
                write!(
                    f,
                    "edge {edge} of `{automaton}` resets a clock to a negative value"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates a system; returns the first problem found.
pub fn validate(sys: &System) -> Result<(), ValidationError> {
    // Declarations.
    for v in &sys.vars {
        if v.min > v.max {
            return Err(ValidationError::EmptyRange {
                var: v.name.clone(),
            });
        }
        if v.init < v.min || v.init > v.max {
            return Err(ValidationError::InitialValueOutOfRange {
                var: v.name.clone(),
            });
        }
    }
    let mut names = std::collections::HashSet::new();
    for a in &sys.automata {
        if !names.insert(a.name.as_str()) {
            return Err(ValidationError::DuplicateAutomatonName {
                name: a.name.clone(),
            });
        }
    }

    let num_clocks = sys.clocks.len() as u32;
    let num_vars = sys.vars.len() as u32;
    let num_channels = sys.channels.len() as u32;

    let check_clock = |a: &str, c: ClockId| -> Result<(), ValidationError> {
        if c.0 >= num_clocks {
            Err(ValidationError::UnknownClock {
                automaton: a.to_string(),
                clock: c,
            })
        } else {
            Ok(())
        }
    };
    let check_vars = |a: &str, vars: &[VarId]| -> Result<(), ValidationError> {
        for v in vars {
            if v.0 >= num_vars {
                return Err(ValidationError::UnknownVar {
                    automaton: a.to_string(),
                    var: *v,
                });
            }
        }
        Ok(())
    };

    for a in &sys.automata {
        if a.locations.is_empty() {
            return Err(ValidationError::EmptyAutomaton {
                automaton: a.name.clone(),
            });
        }
        if a.initial.index() >= a.locations.len() {
            return Err(ValidationError::BadInitialLocation {
                automaton: a.name.clone(),
            });
        }
        let mut loc_names = std::collections::HashSet::new();
        for loc in &a.locations {
            if !loc_names.insert(loc.name.as_str()) {
                return Err(ValidationError::DuplicateLocationName {
                    automaton: a.name.clone(),
                    name: loc.name.clone(),
                });
            }
            for cc in &loc.invariant {
                check_clock(&a.name, cc.clock)?;
                let mut vars = Vec::new();
                cc.rhs.collect_vars(&mut vars);
                check_vars(&a.name, &vars)?;
            }
        }
        for (idx, e) in a.edges.iter().enumerate() {
            if e.source.index() >= a.locations.len() || e.target.index() >= a.locations.len() {
                return Err(ValidationError::BadEdgeEndpoint {
                    automaton: a.name.clone(),
                    edge: idx,
                });
            }
            let mut vars = Vec::new();
            e.guard.collect_vars(&mut vars);
            for u in &e.updates {
                vars.push(u.var);
                u.expr.collect_vars(&mut vars);
            }
            for cc in &e.clock_guard {
                check_clock(&a.name, cc.clock)?;
                cc.rhs.collect_vars(&mut vars);
            }
            check_vars(&a.name, &vars)?;
            for (c, v) in &e.resets {
                check_clock(&a.name, *c)?;
                if *v < 0 {
                    return Err(ValidationError::NegativeReset {
                        automaton: a.name.clone(),
                        edge: idx,
                    });
                }
            }
            if let Some(ch) = e.sync.channel() {
                if ch.0 >= num_channels {
                    return Err(ValidationError::UnknownChannel {
                        automaton: a.name.clone(),
                        channel: ch,
                    });
                }
            }
            match e.sync {
                Sync::Tau | Sync::Send(_) | Sync::Recv(_) => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{Edge, Location};
    use crate::builder::SystemBuilder;
    use crate::clockcon::ClockRef;
    use crate::ids::LocId;

    fn valid_system() -> System {
        let mut sb = SystemBuilder::new("ok");
        let x = sb.add_clock("x");
        let _n = sb.add_var("n", 0, 3, 1);
        let mut a = sb.automaton("a");
        let l0 = a.location("l0").invariant(x.le(5)).add();
        let l1 = a.location("l1").add();
        a.edge(l0, l1).reset(x).add();
        a.set_initial(l0);
        a.build();
        sb.build()
    }

    #[test]
    fn valid_system_passes() {
        assert!(valid_system().validate().is_ok());
    }

    #[test]
    fn detects_bad_initial_value() {
        let mut s = valid_system();
        s.vars[0].init = 9;
        assert!(matches!(
            s.validate(),
            Err(ValidationError::InitialValueOutOfRange { .. })
        ));
        s.vars[0].init = 0;
        s.vars[0].min = 5;
        s.vars[0].max = 2;
        assert!(matches!(
            s.validate(),
            Err(ValidationError::EmptyRange { .. })
        ));
    }

    #[test]
    fn detects_unknown_clock_and_var() {
        let mut s = valid_system();
        s.automata[0].edges[0].resets.push((ClockId(9), 0));
        assert!(matches!(
            s.validate(),
            Err(ValidationError::UnknownClock { .. })
        ));

        let mut s = valid_system();
        s.automata[0].edges[0]
            .updates
            .push(crate::Update::add(VarId(7), 1));
        assert!(matches!(
            s.validate(),
            Err(ValidationError::UnknownVar { .. })
        ));
    }

    #[test]
    fn detects_structural_problems() {
        let mut s = valid_system();
        s.automata[0].edges.push(Edge::new(LocId(0), LocId(9)));
        assert!(matches!(
            s.validate(),
            Err(ValidationError::BadEdgeEndpoint { .. })
        ));

        let mut s = valid_system();
        s.automata[0].initial = LocId(5);
        assert!(matches!(
            s.validate(),
            Err(ValidationError::BadInitialLocation { .. })
        ));

        let mut s = valid_system();
        s.automata[0].locations.push(Location::new("l0"));
        assert!(matches!(
            s.validate(),
            Err(ValidationError::DuplicateLocationName { .. })
        ));

        let mut s = valid_system();
        let dup = s.automata[0].clone();
        s.automata.push(dup);
        assert!(matches!(
            s.validate(),
            Err(ValidationError::DuplicateAutomatonName { .. })
        ));

        let mut s = valid_system();
        s.automata[0].locations.clear();
        assert!(matches!(
            s.validate(),
            Err(ValidationError::EmptyAutomaton { .. })
        ));
    }

    #[test]
    fn detects_negative_reset_and_unknown_channel() {
        let mut s = valid_system();
        s.automata[0].edges[0].resets.push((ClockId(0), -1));
        assert!(matches!(
            s.validate(),
            Err(ValidationError::NegativeReset { .. })
        ));

        let mut s = valid_system();
        s.automata[0].edges[0].sync = Sync::Send(ChannelId(3));
        assert!(matches!(
            s.validate(),
            Err(ValidationError::UnknownChannel { .. })
        ));
    }

    #[test]
    fn error_messages_mention_entities() {
        let e = ValidationError::UnknownClock {
            automaton: "rad".into(),
            clock: ClockId(4),
        };
        assert!(e.to_string().contains("rad"));
        assert!(e.to_string().contains("c4"));
    }
}
