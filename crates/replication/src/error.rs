//! Typed replication errors.

use std::fmt;

/// Everything that can go wrong between a leader and a follower.
#[derive(Debug)]
pub enum ReplError {
    /// The shipped stream skipped ahead: a record arrived with a
    /// sequence number above the next expected one. Applying it would
    /// silently lose the missing ops, so the follower disconnects and
    /// resubscribes from its applied sequence instead.
    SequenceGap {
        /// The sequence number the replica expected next.
        expected: u64,
        /// The sequence number that actually arrived.
        got: u64,
    },
    /// The shipped stream moved backwards: a record arrived at or
    /// below the applied watermark. Re-applying would double-apply
    /// history.
    SequenceRegression {
        /// The sequence number the replica expected next.
        expected: u64,
        /// The sequence number that actually arrived.
        got: u64,
    },
    /// A record was written under an older sequence epoch than the
    /// local one — it comes from a leader deposed by a promotion and
    /// must never be applied.
    EpochFenced {
        /// The local (current) epoch.
        local: u64,
        /// The stale epoch the record carries.
        got: u64,
    },
    /// A malformed or out-of-protocol message.
    Protocol(String),
    /// Transport failure.
    Io(std::io::Error),
    /// A stream message that failed to decode.
    Storage(storage::StorageError),
}

/// Convenience alias.
pub type ReplResult<T> = Result<T, ReplError>;

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplError::SequenceGap { expected, got } => {
                write!(
                    f,
                    "sequence gap in shipped stream: expected op {expected}, got {got}"
                )
            }
            ReplError::SequenceRegression { expected, got } => write!(
                f,
                "sequence regression in shipped stream: expected op {expected}, got {got}"
            ),
            ReplError::EpochFenced { local, got } => write!(
                f,
                "fenced: record from epoch {got} refused at local epoch {local}"
            ),
            ReplError::Protocol(m) => write!(f, "replication protocol error: {m}"),
            ReplError::Io(e) => write!(f, "replication transport error: {e}"),
            ReplError::Storage(e) => write!(f, "replication storage error: {e}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<std::io::Error> for ReplError {
    fn from(e: std::io::Error) -> Self {
        ReplError::Io(e)
    }
}

impl From<storage::StorageError> for ReplError {
    fn from(e: storage::StorageError) -> Self {
        ReplError::Storage(e)
    }
}
