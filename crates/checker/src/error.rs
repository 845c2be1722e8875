//! Errors produced by the checker.

use std::fmt;
use tempo_ta::{EvalError, ValidationError};

/// Any error that can abort an exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// The system failed static validation.
    Validation(ValidationError),
    /// Expression evaluation failed (variable range violation, division by
    /// zero) while computing successors.
    Eval(EvalError),
    /// The model uses a feature combination the checker does not support:
    /// clock guards on edges synchronizing over an urgent channel.
    ClockGuardOnUrgentEdge {
        /// Automaton name.
        automaton: String,
        /// Edge index within the automaton.
        edge: usize,
    },
    /// A query referenced an unknown automaton or location name.
    UnknownQueryEntity {
        /// Description of what could not be resolved.
        what: String,
    },
    /// The exploration was cancelled through the
    /// [`RunContext::cancel`](crate::RunContext::cancel) flag.  Unlike an
    /// expired deadline (which truncates gracefully and yields lower
    /// bounds), cancellation aborts with no usable result.
    Cancelled,
    /// A transient internal failure: the run produced no usable result but
    /// retrying the same exploration may well succeed (used by the
    /// fault-injection harness and surfaced to the engine layer's retry
    /// policy).
    Transient {
        /// Human-readable description of what failed.
        detail: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Validation(e) => write!(f, "invalid system: {e}"),
            CheckError::Eval(e) => write!(f, "evaluation error during exploration: {e}"),
            CheckError::ClockGuardOnUrgentEdge { automaton, edge } => write!(
                f,
                "edge {edge} of `{automaton}` synchronizes on an urgent channel but has a clock guard"
            ),
            CheckError::UnknownQueryEntity { what } => {
                write!(f, "query references unknown entity: {what}")
            }
            CheckError::Cancelled => write!(f, "exploration cancelled"),
            CheckError::Transient { detail } => {
                write!(f, "transient exploration failure (retryable): {detail}")
            }
        }
    }
}

impl std::error::Error for CheckError {}

impl From<EvalError> for CheckError {
    fn from(e: EvalError) -> Self {
        CheckError::Eval(e)
    }
}

impl From<ValidationError> for CheckError {
    fn from(e: ValidationError) -> Self {
        CheckError::Validation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_details() {
        let e = CheckError::Transient {
            detail: "worker 42 lost".into(),
        };
        assert!(e.to_string().contains("worker 42"));
        let e = CheckError::ClockGuardOnUrgentEdge {
            automaton: "BUS".into(),
            edge: 3,
        };
        assert!(e.to_string().contains("BUS"));
        let e: CheckError = EvalError::DivisionByZero.into();
        assert!(matches!(e, CheckError::Eval(_)));
    }
}
