#![warn(missing_docs)]

//! The on-disk primitives of the op journal and the wire framing.
//!
//! A persisted knowledge base is an op journal (`gkbms::journal`:
//! checkpoint snapshot + write-ahead log); this crate holds the three
//! pieces that journal, the server's frame codec and the replication
//! tail reader are built from, and nothing else:
//!
//! * [`record`] — a length-prefixed, CRC-checked binary record format
//!   (one WAL record, one snapshot record, one wire frame);
//! * [`log`] — an append-only record log with torn-tail recovery;
//! * [`crash`] — crash-injection helpers for durability tests.

pub mod crash;
pub mod error;
pub mod log;
pub mod record;

pub use error::{StorageError, StorageResult};
pub use log::{AppendLog, Lsn};
