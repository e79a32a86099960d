//! Error type of the inference engine.

use std::fmt;

/// Errors raised by parsing, stratification or evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// Textual rule syntax error.
    Parse(String),
    /// A predicate was used with inconsistent arities.
    ArityMismatch {
        /// Predicate name.
        pred: String,
        /// Arity seen first.
        expected: usize,
        /// Conflicting arity.
        found: usize,
    },
    /// A head variable does not occur in any positive body literal.
    UnsafeRule(String),
    /// The program has recursion through negation.
    NotStratifiable(String),
    /// A negated subgoal was not ground at evaluation time.
    NonGroundNegation(String),
}

/// Convenient alias used throughout the crate.
pub type DatalogResult<T> = Result<T, DatalogError>;

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::Parse(m) => write!(f, "parse error: {m}"),
            DatalogError::ArityMismatch {
                pred,
                expected,
                found,
            } => write!(
                f,
                "predicate `{pred}` used with arity {found}, expected {expected}"
            ),
            DatalogError::UnsafeRule(m) => write!(f, "unsafe rule: {m}"),
            DatalogError::NotStratifiable(m) => {
                write!(f, "recursion through negation involving `{m}`")
            }
            DatalogError::NonGroundNegation(m) => {
                write!(f, "negated subgoal not ground: {m}")
            }
        }
    }
}

impl std::error::Error for DatalogError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(DatalogError::Parse("x".into()).to_string().contains('x'));
        let e = DatalogError::ArityMismatch {
            pred: "edge".into(),
            expected: 2,
            found: 3,
        };
        assert!(e.to_string().contains("edge"));
        assert!(e.to_string().contains('3'));
    }
}
