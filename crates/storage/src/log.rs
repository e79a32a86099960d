//! Append-only record log with torn-tail recovery.
//!
//! The log is the durability primitive behind the op journal: every
//! committed mutation appends one record, and recovery replays the log in
//! order. A torn write at the very tail (process killed mid-append) is
//! truncated away; corruption anywhere *before* the tail is a hard error,
//! because silently dropping interior history would violate the paper's
//! "nothing is ever destructively deleted" documentation discipline.

use crate::error::{StorageError, StorageResult};
use crate::record::{self, ReadOutcome};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Log sequence number: byte offset of a record's header in the log file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lsn(pub u64);

/// What a scan found at the tail of a log file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// Log ended cleanly on a record boundary.
    Clean,
    /// A torn record starts at this offset. [`AppendLog::open`] has
    /// truncated it away; [`read_payloads`] only reports it.
    TruncatedAt(u64),
}

/// Scans records from the start of `reader`, handing each payload to
/// `on_record`. Returns the offset just past the last whole record and
/// the state of the tail; a bad CRC before the tail is corruption.
fn scan(
    reader: &mut impl Read,
    mut on_record: impl FnMut(Vec<u8>),
) -> StorageResult<(u64, TailState)> {
    let mut offset = 0u64;
    loop {
        match record::read_record(reader, offset)? {
            ReadOutcome::Record(payload) => {
                offset += (record::HEADER_LEN + payload.len()) as u64;
                on_record(payload);
            }
            ReadOutcome::Eof => return Ok((offset, TailState::Clean)),
            ReadOutcome::Torn { .. } => return Ok((offset, TailState::TruncatedAt(offset))),
            ReadOutcome::BadCrc { offset: at } => {
                return Err(StorageError::Corrupt {
                    offset: at,
                    detail: "crc mismatch in log interior".into(),
                });
            }
        }
    }
}

/// Reads every record payload of the log file at `path` without ever
/// writing to it: a missing file is `StorageError::Io` (`NotFound`),
/// not a fresh log, and a torn tail is reported, not truncated. The
/// way to read a file this process does not own for appending — a
/// saved history, a checkpoint snapshot.
pub fn read_payloads(path: impl AsRef<Path>) -> StorageResult<(Vec<Vec<u8>>, TailState)> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut payloads = Vec::new();
    let (_, tail) = scan(&mut reader, |p| payloads.push(p))?;
    Ok((payloads, tail))
}

/// An append-only log of CRC-checked records in a single file.
pub struct AppendLog {
    path: PathBuf,
    writer: BufWriter<File>,
    /// Next append offset == current logical length.
    tail: u64,
    /// Number of live records.
    records: u64,
    tail_state: TailState,
}

impl AppendLog {
    /// Opens (or creates) the log at `path`, scanning it to validate all
    /// records and locate the tail. A torn final record is truncated (and
    /// the truncation is synced, so a crash right after recovery cannot
    /// resurrect the torn bytes). Creating a fresh log syncs the parent
    /// directory so the file itself survives a crash.
    pub fn open(path: impl AsRef<Path>) -> StorageResult<Self> {
        let path = path.as_ref().to_path_buf();
        let existed = path.exists();
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        if !existed {
            sync_parent_dir(&path)?;
        }
        let mut reader = BufReader::new(file.try_clone()?);
        reader.seek(SeekFrom::Start(0))?;
        let mut records = 0u64;
        let (offset, tail_state) = scan(&mut reader, |_| records += 1)?;
        if let TailState::TruncatedAt(at) = tail_state {
            // Torn tail: truncate and carry on. sync_all (not
            // sync_data) because the truncation changed the size, and
            // an unsynced truncation could come back torn.
            file.set_len(at)?;
            file.sync_all()?;
            obs::counter!(
                "storage_log_torn_truncations_total",
                "Torn tail records truncated away during log open"
            )
            .inc();
        }
        let mut writer = BufWriter::new(file);
        writer.seek(SeekFrom::Start(offset))?;
        Ok(AppendLog {
            path,
            writer,
            tail: offset,
            records,
            tail_state,
        })
    }

    /// Appends one record and returns its LSN. Data is buffered; call
    /// [`AppendLog::sync`] to force it to stable storage.
    pub fn append(&mut self, payload: &[u8]) -> StorageResult<Lsn> {
        let lsn = Lsn(self.tail);
        let written = record::write_record(&mut self.writer, payload)?;
        self.tail += written as u64;
        self.records += 1;
        obs::counter!(
            "storage_log_appends_total",
            "Records appended to append logs"
        )
        .inc();
        obs::counter!(
            "storage_log_appended_bytes_total",
            "Bytes appended to append logs (headers included)"
        )
        .add(written as u64);
        Ok(lsn)
    }

    /// Flushes buffers and fsyncs the file.
    pub fn sync(&mut self) -> StorageResult<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        obs::counter!("storage_log_fsyncs_total", "fsyncs issued by append logs").inc();
        Ok(())
    }

    /// Flushes buffered appends into the OS page cache without fsyncing.
    /// After this, a clone of [`AppendLog::file`] sees every append, so a
    /// group-commit leader can fsync outside the writer's lock.
    pub fn flush(&mut self) -> StorageResult<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Returns a cloned handle to the backing file (flushing buffered
    /// appends first). `sync_data` on the clone durably commits every
    /// append flushed so far — the handle shares one open file
    /// description with the log, so it stays valid across
    /// [`AppendLog::truncate_all`].
    pub fn file(&mut self) -> StorageResult<File> {
        self.writer.flush()?;
        Ok(self.writer.get_ref().try_clone()?)
    }

    /// Discards every record, resetting the log to empty — used after a
    /// checkpoint has compacted the log's contents into a snapshot. The
    /// truncation is fsynced. The same inode is kept, so handles from
    /// [`AppendLog::file`] remain valid.
    pub fn truncate_all(&mut self) -> StorageResult<()> {
        self.writer.flush()?;
        self.writer.get_ref().set_len(0)?;
        self.writer.seek(SeekFrom::Start(0))?;
        self.writer.get_ref().sync_all()?;
        self.tail = 0;
        self.records = 0;
        self.tail_state = TailState::Clean;
        obs::counter!(
            "storage_log_truncations_total",
            "Full log truncations after checkpoints"
        )
        .inc();
        Ok(())
    }

    /// Number of records currently in the log.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// True if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Logical byte length (next append offset).
    pub fn byte_len(&self) -> u64 {
        self.tail
    }

    /// What `open` found at the tail.
    pub fn tail_state(&self) -> TailState {
        self.tail_state
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Iterates all records from the beginning. Buffered appends are
    /// flushed first so the iterator sees every record appended so far.
    pub fn iter(&mut self) -> StorageResult<LogIter> {
        self.writer.flush()?;
        let file = File::open(&self.path)?;
        Ok(LogIter {
            reader: BufReader::new(file),
            offset: 0,
            end: self.tail,
        })
    }
}

/// Fsyncs the parent directory of `path`, making a rename or file
/// creation inside it durable. On a crash before the directory sync, the
/// directory entry itself may be lost even though the file's bytes were
/// fsynced.
pub fn sync_parent_dir(path: impl AsRef<Path>) -> StorageResult<()> {
    let parent = match path.as_ref().parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    File::open(parent)?.sync_all()?;
    Ok(())
}

/// Iterator over `(Lsn, payload)` pairs of a log.
pub struct LogIter {
    reader: BufReader<File>,
    offset: u64,
    end: u64,
}

impl Iterator for LogIter {
    type Item = StorageResult<(Lsn, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.offset >= self.end {
            return None;
        }
        match record::read_record(&mut self.reader, self.offset) {
            Ok(ReadOutcome::Record(payload)) => {
                let lsn = Lsn(self.offset);
                self.offset += (record::HEADER_LEN + payload.len()) as u64;
                Some(Ok((lsn, payload)))
            }
            Ok(ReadOutcome::Eof) => None,
            Ok(ReadOutcome::Torn { offset }) => Some(Err(StorageError::Corrupt {
                offset,
                detail: "torn record inside committed region".into(),
            })),
            Ok(ReadOutcome::BadCrc { offset }) => Some(Err(StorageError::Corrupt {
                offset,
                detail: "crc mismatch".into(),
            })),
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cb-log-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_and_iterate() {
        let path = tmp("basic");
        let mut log = AppendLog::open(&path).unwrap();
        assert!(log.is_empty());
        let a = log.append(b"alpha").unwrap();
        let b = log.append(b"beta").unwrap();
        assert!(a < b);
        let items: Vec<_> = log.iter().unwrap().map(|r| r.unwrap().1).collect();
        assert_eq!(items, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_preserves_records() {
        let path = tmp("reopen");
        {
            let mut log = AppendLog::open(&path).unwrap();
            log.append(b"one").unwrap();
            log.append(b"two").unwrap();
            log.sync().unwrap();
        }
        let mut log = AppendLog::open(&path).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.tail_state(), TailState::Clean);
        log.append(b"three").unwrap();
        let items: Vec<_> = log.iter().unwrap().map(|r| r.unwrap().1).collect();
        assert_eq!(items.len(), 3);
        assert_eq!(items[2], b"three");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp("torn");
        {
            let mut log = AppendLog::open(&path).unwrap();
            log.append(b"committed").unwrap();
            log.append(b"torn-away-record").unwrap();
            log.sync().unwrap();
        }
        // Simulate a crash mid-append of the second record.
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);
        let mut log = AppendLog::open(&path).unwrap();
        assert_eq!(log.len(), 1);
        assert!(matches!(log.tail_state(), TailState::TruncatedAt(_)));
        // The truncation reached the file itself (not just our view of
        // it): an independent handle sees the shortened length.
        let committed_len = std::fs::metadata(&path).unwrap().len();
        assert!(committed_len < full - 5);
        assert_eq!(committed_len, log.byte_len());
        let items: Vec<_> = log.iter().unwrap().map(|r| r.unwrap().1).collect();
        assert_eq!(items, vec![b"committed".to_vec()]);
        // The log is usable again after truncation.
        log.append(b"new").unwrap();
        assert_eq!(log.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_all_resets_and_keeps_log_usable() {
        let path = tmp("truncate-all");
        let mut log = AppendLog::open(&path).unwrap();
        log.append(b"one").unwrap();
        log.append(b"two").unwrap();
        log.sync().unwrap();
        // A file handle cloned before the truncation must stay usable
        // afterwards (group commit holds one across checkpoints).
        let handle = log.file().unwrap();
        log.truncate_all().unwrap();
        assert!(log.is_empty());
        assert_eq!(log.byte_len(), 0);
        assert_eq!(log.tail_state(), TailState::Clean);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        log.append(b"after").unwrap();
        log.flush().unwrap();
        handle.sync_data().unwrap();
        let items: Vec<_> = log.iter().unwrap().map(|r| r.unwrap().1).collect();
        assert_eq!(items, vec![b"after".to_vec()]);
        // Reopen sees only the post-truncation record.
        drop(log);
        let log = AppendLog::open(&path).unwrap();
        assert_eq!(log.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cloned_file_commits_flushed_appends() {
        let path = tmp("cloned-file");
        let mut log = AppendLog::open(&path).unwrap();
        log.append(b"payload").unwrap();
        let handle = log.file().unwrap();
        // flush happened inside file(): an independent reader already
        // sees the bytes, and sync_data on the clone makes them durable.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            log.byte_len(),
            "file() must flush buffered appends"
        );
        handle.sync_data().unwrap();
        drop(log);
        let log = AppendLog::open(&path).unwrap();
        assert_eq!(log.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sync_parent_dir_accepts_plain_and_relative_paths() {
        let path = tmp("syncdir");
        std::fs::write(&path, b"x").unwrap();
        sync_parent_dir(&path).unwrap();
        // A bare file name has no parent component; the current
        // directory is synced instead of erroring.
        sync_parent_dir("Cargo.toml").unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_corruption_is_fatal() {
        let path = tmp("corrupt");
        {
            let mut log = AppendLog::open(&path).unwrap();
            log.append(b"aaaaaaaa").unwrap();
            log.append(b"bbbbbbbb").unwrap();
            log.sync().unwrap();
        }
        // Flip a payload byte of the FIRST record.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[record::HEADER_LEN + 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            AppendLog::open(&path),
            Err(StorageError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_payloads_never_writes() {
        let path = tmp("read-only");
        // A missing file is an error, and stays missing.
        match read_payloads(&path) {
            Err(StorageError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected NotFound, got {other:?}"),
        }
        assert!(!path.exists());
        {
            let mut log = AppendLog::open(&path).unwrap();
            log.append(b"committed").unwrap();
            log.append(b"torn-away-record").unwrap();
            log.sync().unwrap();
        }
        let whole = std::fs::read(&path).unwrap();
        let (payloads, tail) = read_payloads(&path).unwrap();
        assert_eq!(payloads.len(), 2);
        assert_eq!(tail, TailState::Clean);
        // A torn tail is reported and left on disk.
        std::fs::write(&path, &whole[..whole.len() - 5]).unwrap();
        let (payloads, tail) = read_payloads(&path).unwrap();
        assert_eq!(payloads, vec![b"committed".to_vec()]);
        let first = (record::HEADER_LEN + b"committed".len()) as u64;
        assert_eq!(tail, TailState::TruncatedAt(first));
        assert_eq!(std::fs::read(&path).unwrap().len(), whole.len() - 5);
        // Interior corruption is fatal, as it is for `open`.
        let mut bytes = whole.clone();
        bytes[record::HEADER_LEN + 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_payloads(&path),
            Err(StorageError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lsn_is_byte_offset() {
        let path = tmp("lsn");
        let mut log = AppendLog::open(&path).unwrap();
        let a = log.append(b"xy").unwrap();
        let b = log.append(b"z").unwrap();
        assert_eq!(a, Lsn(0));
        assert_eq!(b, Lsn((record::HEADER_LEN + 2) as u64));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_log_iterates_nothing() {
        let path = tmp("empty");
        let mut log = AppendLog::open(&path).unwrap();
        assert_eq!(log.iter().unwrap().count(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
