//! A textual concrete syntax for networks of timed automata.
//!
//! The paper argues that timed-automata performance models should be
//! *generated* rather than hand-written, but generated models still need to be
//! inspected, archived and exchanged.  UPPAAL uses an XML file format for this
//! purpose; this module provides an equivalent plain-text format (conventional
//! extension `.tta`) together with a parser and a pretty-printer that are
//! exact inverses of each other:
//!
//! * [`print_system`] renders any validated [`System`](crate::System) as text,
//! * [`parse_system`] reconstructs a structurally identical [`System`](crate::System) from
//!   that text (checked by round-trip tests, including on the full generated
//!   radio-navigation case study).
//!
//! # Example
//!
//! ```
//! use tempo_ta::format::{parse_system, print_system};
//!
//! let source = r#"
//! system lamp
//!
//! clock x
//! chan press
//!
//! automaton lamp {
//!     location off
//!     location on { invariant x <= 10 }
//!     init off
//!     edge off -> on { sync press? ; reset x }
//!     edge on -> off { when x >= 5 }
//! }
//!
//! automaton user {
//!     location idle
//!     init idle
//!     edge idle -> idle { sync press! }
//! }
//! "#;
//!
//! let system = parse_system(source).unwrap();
//! assert_eq!(system.automata.len(), 2);
//! assert!(system.validate().is_ok());
//!
//! // The printer emits a canonical form that parses back to the same system.
//! let printed = print_system(&system);
//! let reparsed = parse_system(&printed).unwrap();
//! assert_eq!(system, reparsed);
//! ```
//!
//! # Syntax overview
//!
//! ```text
//! system NAME
//!
//! clock x, y                      // clock declarations
//! var n: int[0, 10] = 0           // bounded integer variable with initial value
//! chan press                      // binary handshake channel
//! urgent chan hurry               // urgent channel (the paper's `hurry!`)
//! broadcast chan notice           // broadcast channel
//!
//! automaton NAME {
//!     location idle
//!     location busy { invariant x <= 5 }
//!     committed location seen
//!     urgent location relay
//!     init idle
//!
//!     edge idle -> busy {
//!         guard n > 0             // data guard over integer variables
//!         when x >= 2             // clock guard (conjunction of atoms)
//!         sync hurry!             // or `sync press?`
//!         update n = n - 1        // sequential assignments
//!         reset x                 // clock reset (optionally `reset x = 3`)
//!     }
//! }
//! ```
//!
//! Edge attributes may be separated by newlines or by `;`.  For convenience a
//! hand-written `guard` may freely mix clock atoms and data atoms at the top
//! level of a conjunction (`guard n > 0 && x >= 2`); the parser sorts the
//! atoms into the data guard and the clock guard.  The printer always emits
//! the canonical separated form shown above.  Line comments start with `//`.

mod lexer;
mod parser;
mod printer;

pub use parser::parse_system;
pub use printer::print_system;

use std::fmt;

/// A parse error with position information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(line: usize, column: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            line,
            column,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_displays_position() {
        let e = ParseError::new(3, 14, "unexpected token");
        assert_eq!(e.to_string(), "3:14: unexpected token");
    }
}
