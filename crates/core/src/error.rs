//! Error type of the GKBMS.

use std::fmt;

/// Errors raised by the GKBMS.
#[derive(Debug)]
pub enum GkbmsError {
    /// A named object / class / tool / decision does not exist.
    Unknown(String),
    /// A name is already taken.
    Duplicate(String),
    /// A decision's precondition failed.
    Precondition(String),
    /// A verification obligation was neither guaranteed by the tool
    /// nor discharged.
    Obligation(String),
    /// The decision was executed but left the KB inconsistent; it was
    /// rolled back (nested-transaction abort).
    Aborted {
        /// The violations that caused the abort.
        violations: Vec<String>,
    },
    /// The underlying proposition processor failed.
    Telos(telos::TelosError),
    /// The object processor failed.
    Object(objectbase::ObError),
    /// A decision cannot be retracted (unknown or already retracted).
    NotRetractable(String),
    /// The static analyzer rejected the batch at admission time.
    Lint(Vec<analysis::Diagnostic>),
    /// [`crate::Gkbms::recover`] was pointed at something that exists
    /// but is not a directory — typically a file from another tool or
    /// format. A journal is a directory holding `snapshot` and `wal`.
    NotAJournal(std::path::PathBuf),
}

/// Convenient alias used throughout the crate.
pub type GkbmsResult<T> = Result<T, GkbmsError>;

impl fmt::Display for GkbmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GkbmsError::Unknown(m) => write!(f, "unknown: {m}"),
            GkbmsError::Duplicate(m) => write!(f, "duplicate: {m}"),
            GkbmsError::Precondition(m) => write!(f, "precondition failed: {m}"),
            GkbmsError::Obligation(m) => write!(f, "undischarged obligation: {m}"),
            GkbmsError::Aborted { violations } => write!(
                f,
                "decision aborted, {} violation(s): {}",
                violations.len(),
                violations.join("; ")
            ),
            GkbmsError::Telos(e) => write!(f, "proposition processor: {e}"),
            GkbmsError::Object(e) => write!(f, "object processor: {e}"),
            GkbmsError::NotRetractable(m) => write!(f, "not retractable: {m}"),
            GkbmsError::Lint(diags) => {
                let lines: Vec<String> = diags.iter().map(|d| d.one_line()).collect();
                write!(f, "rejected by lint: {}", lines.join("; "))
            }
            GkbmsError::NotAJournal(path) => write!(
                f,
                "`{}` is not a journal: a journal is a directory (`snapshot` + `wal`), not a file",
                path.display()
            ),
        }
    }
}

impl std::error::Error for GkbmsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GkbmsError::Telos(e) => Some(e),
            GkbmsError::Object(e) => Some(e),
            _ => None,
        }
    }
}

impl From<telos::TelosError> for GkbmsError {
    fn from(e: telos::TelosError) -> Self {
        GkbmsError::Telos(e)
    }
}

/// Journal, snapshot and record-decoding failures surface as the
/// proposition processor's storage error, where they have always been
/// reported.
impl From<storage::StorageError> for GkbmsError {
    fn from(e: storage::StorageError) -> Self {
        GkbmsError::Telos(telos::TelosError::Storage(e))
    }
}

impl From<objectbase::ObError> for GkbmsError {
    fn from(e: objectbase::ObError) -> Self {
        GkbmsError::Object(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = GkbmsError::Aborted {
            violations: vec!["a".into(), "b".into()],
        };
        assert!(e.to_string().contains("2 violation"));
        assert!(GkbmsError::Obligation("key-unique".into())
            .to_string()
            .contains("key-unique"));
    }
}
