//! Error type shared by all storage components.

use std::fmt;
use std::io;

/// Errors raised by the storage substrate.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A record failed its CRC check (and was not the torn tail of a log).
    Corrupt {
        /// Byte offset at which corruption was detected.
        offset: u64,
        /// Human-readable detail.
        detail: String,
    },
    /// A record exceeded the maximum encodable length.
    RecordTooLarge(usize),
}

/// Convenient alias used throughout the crate.
pub type StorageResult<T> = Result<T, StorageError>;

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Corrupt { offset, detail } => {
                write!(f, "corrupt record at offset {offset}: {detail}")
            }
            StorageError::RecordTooLarge(n) => {
                write!(f, "record of {n} bytes exceeds maximum encodable length")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_io() {
        let e = StorageError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn display_corrupt() {
        let e = StorageError::Corrupt {
            offset: 42,
            detail: "bad crc".into(),
        };
        let s = e.to_string();
        assert!(s.contains("42") && s.contains("bad crc"));
    }

    #[test]
    fn display_too_large() {
        assert!(StorageError::RecordTooLarge(7).to_string().contains('7'));
    }
}
