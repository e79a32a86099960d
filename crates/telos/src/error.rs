//! Error type of the proposition processor.

use crate::prop::PropId;
use std::fmt;

/// Errors raised by the Telos kernel.
#[derive(Debug)]
pub enum TelosError {
    /// A proposition id does not denote a live proposition.
    UnknownProposition(PropId),
    /// A name does not denote any individual.
    UnknownName(String),
    /// Attempted to create something that already exists.
    AlreadyExists(String),
    /// A CML axiom was violated; the string names the axiom.
    AxiomViolation(String),
    /// An attribute was told for which no attribute class exists on any
    /// class of the owner (strict aggregation).
    NoAttributeClass {
        /// Display name of the owning object.
        owner: String,
        /// The attribute label.
        label: String,
    },
    /// The assertion language rejected an expression.
    Assertion(String),
    /// An assertion nests deeper than the parser descends
    /// ([`crate::assertion::MAX_DEPTH`]): refused before it can
    /// exhaust the stack of the parser, the sort checker or the
    /// evaluator.
    TooDeep {
        /// The nesting limit.
        limit: usize,
    },
    /// An interval was constructed with end before start.
    BadInterval(String),
    /// A journal or snapshot file operation failed. Raised by `gkbms`
    /// (`persist`, `journal`); the kernel itself does no I/O.
    Storage(storage::StorageError),
    /// An operation requires a proposition that is no longer believed.
    NotBelieved(PropId),
}

/// Convenient alias used throughout the crate.
pub type TelosResult<T> = Result<T, TelosError>;

impl fmt::Display for TelosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelosError::UnknownProposition(id) => write!(f, "unknown proposition {id:?}"),
            TelosError::UnknownName(n) => write!(f, "unknown name `{n}`"),
            TelosError::AlreadyExists(n) => write!(f, "`{n}` already exists"),
            TelosError::AxiomViolation(a) => write!(f, "CML axiom violated: {a}"),
            TelosError::NoAttributeClass { owner, label } => {
                write!(f, "no attribute class `{label}` on any class of `{owner}`")
            }
            TelosError::Assertion(m) => write!(f, "assertion error: {m}"),
            TelosError::TooDeep { limit } => {
                write!(f, "assertion error: nested deeper than {limit} levels")
            }
            TelosError::BadInterval(m) => write!(f, "bad interval: {m}"),
            TelosError::Storage(e) => write!(f, "storage error: {e}"),
            TelosError::NotBelieved(id) => write!(f, "proposition {id:?} is no longer believed"),
        }
    }
}

impl std::error::Error for TelosError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TelosError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<storage::StorageError> for TelosError {
    fn from(e: storage::StorageError) -> Self {
        TelosError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(TelosError::UnknownName("Paper".into())
            .to_string()
            .contains("Paper"));
        assert!(TelosError::NoAttributeClass {
            owner: "inv1".into(),
            label: "sender".into()
        }
        .to_string()
        .contains("sender"));
        assert!(TelosError::AxiomViolation("isa-cycle".into())
            .to_string()
            .contains("isa-cycle"));
    }
}
