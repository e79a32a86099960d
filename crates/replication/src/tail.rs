//! Read-only tailing of a live WAL file.
//!
//! The leader's ship loop never touches the `Journal` itself — it
//! follows the WAL *file* with an independent read-only cursor, so
//! shipping takes no locks against the write path. The cursor only
//! advances over records at or below the durable watermark handed to
//! each poll, and it detects a checkpoint truncating the file under it
//! (the signal to restart from offset 0 or fall back to a snapshot).

use crate::error::ReplResult;
use crate::msg::ShippedRecord;
use gkbms::journal::decode_framed;
use std::fs::File;
use std::io::{BufReader, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use storage::record::{self, ReadOutcome};

/// What one poll of the tail produced.
#[derive(Debug)]
pub enum TailStep {
    /// Consecutive committed records ready to ship.
    Records(Vec<ShippedRecord>),
    /// Nothing new below the durable watermark.
    Idle,
    /// The WAL was truncated (or rewritten) under the cursor — a
    /// checkpoint compacted records this tail had not shipped yet.
    /// Restart from offset 0 if the needed sequence is still in the
    /// log, otherwise fall back to snapshot transfer.
    Truncated,
}

/// A read-only cursor over a WAL file, positioned by op sequence.
pub struct WalTail {
    path: PathBuf,
    /// Byte offset of the next unread record.
    offset: u64,
    /// Next op sequence to deliver; records below it (a resumed
    /// subscription mid-WAL) are skipped, a record above it means the
    /// file no longer holds the needed range.
    resume_seq: u64,
}

impl WalTail {
    /// A tail over `path` that will deliver records starting at
    /// `start_seq`, scanning from the beginning of the file.
    pub fn new(path: impl AsRef<Path>, start_seq: u64) -> Self {
        WalTail {
            path: path.as_ref().to_path_buf(),
            offset: 0,
            resume_seq: start_seq,
        }
    }

    /// The next op sequence this tail will deliver — where a new tail
    /// over a rewritten file resumes.
    pub fn resume_seq(&self) -> u64 {
        self.resume_seq
    }

    /// Reads committed records up to `up_to_seq` (the durable
    /// watermark), capping the batch at roughly `max_bytes` of
    /// payload. A torn record at the file's tail is the writer
    /// mid-append and simply ends the batch.
    pub fn poll(&mut self, up_to_seq: u64, max_bytes: usize) -> ReplResult<TailStep> {
        let file = File::open(&self.path)?;
        let len = file.metadata()?.len();
        if len < self.offset {
            return Ok(TailStep::Truncated);
        }
        if len == self.offset || self.resume_seq > up_to_seq {
            return Ok(TailStep::Idle);
        }
        let mut reader = BufReader::new(file);
        reader.seek(SeekFrom::Start(self.offset))?;
        let mut out = Vec::new();
        let mut bytes = 0usize;
        loop {
            if bytes >= max_bytes {
                break;
            }
            let framed = match record::read_record(&mut reader, self.offset) {
                Ok(ReadOutcome::Record(framed)) => framed,
                Ok(ReadOutcome::Eof) | Ok(ReadOutcome::Torn { .. }) => break,
                // Misaligned read after a truncate-and-refill, or
                // genuine corruption: either way this cursor's view of
                // the file is gone, resynchronize.
                Ok(ReadOutcome::BadCrc { .. }) | Err(_) => return Ok(TailStep::Truncated),
            };
            let advance = (record::HEADER_LEN + framed.len()) as u64;
            let (seq, epoch, payload) = match decode_framed(&framed) {
                Ok(t) => t,
                Err(_) => return Ok(TailStep::Truncated),
            };
            if seq < self.resume_seq {
                // Prefix the subscriber already holds.
                self.offset += advance;
                continue;
            }
            if seq > self.resume_seq {
                // A hole: the file was truncated and refilled past the
                // range this tail still needs.
                return Ok(TailStep::Truncated);
            }
            if seq > up_to_seq {
                // Appended but not yet durable — never ship it.
                break;
            }
            self.offset += advance;
            self.resume_seq = seq + 1;
            bytes += payload.len();
            out.push(ShippedRecord {
                seq,
                epoch,
                payload: payload.to_vec(),
            });
        }
        if out.is_empty() {
            Ok(TailStep::Idle)
        } else {
            Ok(TailStep::Records(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkbms::journal::encode_framed;
    use storage::AppendLog;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cb-tail-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn append(log: &mut AppendLog, seq: u64, epoch: u64, payload: &[u8]) {
        log.append(&encode_framed(seq, epoch, payload)).unwrap();
        log.flush().unwrap();
    }

    fn seqs(step: TailStep) -> Vec<u64> {
        match step {
            TailStep::Records(rs) => rs.iter().map(|r| r.seq).collect(),
            other => panic!("expected records, got {other:?}"),
        }
    }

    #[test]
    fn delivers_only_durable_records_in_order() {
        let path = tmp("durable");
        let mut log = AppendLog::open(&path).unwrap();
        for s in 1..=5 {
            append(&mut log, s, 1, format!("op{s}").as_bytes());
        }
        let mut tail = WalTail::new(&path, 1);
        // Watermark at 3: records 4 and 5 exist but must not ship.
        assert_eq!(seqs(tail.poll(3, usize::MAX).unwrap()), vec![1, 2, 3]);
        assert!(matches!(tail.poll(3, usize::MAX).unwrap(), TailStep::Idle));
        // Watermark advances: the rest ships, payloads intact.
        match tail.poll(5, usize::MAX).unwrap() {
            TailStep::Records(rs) => {
                assert_eq!(rs.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![4, 5]);
                assert_eq!(rs[0].payload, b"op4");
                assert_eq!(rs[1].epoch, 1);
            }
            other => panic!("{other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resumed_subscription_skips_the_applied_prefix() {
        let path = tmp("resume");
        let mut log = AppendLog::open(&path).unwrap();
        for s in 1..=4 {
            append(&mut log, s, 1, b"x");
        }
        let mut tail = WalTail::new(&path, 3);
        assert_eq!(seqs(tail.poll(4, usize::MAX).unwrap()), vec![3, 4]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn byte_cap_bounds_each_batch() {
        let path = tmp("cap");
        let mut log = AppendLog::open(&path).unwrap();
        for s in 1..=6 {
            append(&mut log, s, 1, &[0u8; 64]);
        }
        let mut tail = WalTail::new(&path, 1);
        // 64-byte payloads with a 100-byte cap: two per batch.
        assert_eq!(seqs(tail.poll(6, 100).unwrap()), vec![1, 2]);
        assert_eq!(seqs(tail.poll(6, 100).unwrap()), vec![3, 4]);
        assert_eq!(seqs(tail.poll(6, 100).unwrap()), vec![5, 6]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_under_the_cursor_is_detected() {
        let path = tmp("truncated");
        let mut log = AppendLog::open(&path).unwrap();
        for s in 1..=3 {
            append(&mut log, s, 1, b"payload");
        }
        let mut tail = WalTail::new(&path, 1);
        assert_eq!(seqs(tail.poll(3, usize::MAX).unwrap()), vec![1, 2, 3]);
        // A checkpoint truncates the WAL; the next record starts a new
        // (shorter) file.
        log.truncate_all().unwrap();
        assert!(matches!(
            tail.poll(4, usize::MAX).unwrap(),
            TailStep::Truncated
        ));
        // After the file regrows, a fresh tail at the needed sequence
        // recovers by rescanning from offset 0.
        append(&mut log, 4, 1, b"after");
        let mut fresh = WalTail::new(&path, 4);
        assert_eq!(seqs(fresh.poll(4, usize::MAX).unwrap()), vec![4]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn refilled_file_past_needed_range_is_a_truncation() {
        let path = tmp("refilled");
        let mut log = AppendLog::open(&path).unwrap();
        append(&mut log, 1, 1, b"a");
        let mut tail = WalTail::new(&path, 1);
        assert_eq!(seqs(tail.poll(1, usize::MAX).unwrap()), vec![1]);
        // Checkpoint at 5, then new records from 6: sequence 2..=5 are
        // gone from the file.
        log.truncate_all().unwrap();
        append(&mut log, 6, 1, b"f");
        let mut stale = WalTail::new(&path, 2);
        assert!(matches!(
            stale.poll(6, usize::MAX).unwrap(),
            TailStep::Truncated
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_ends_the_batch_without_error() {
        let path = tmp("torn");
        let mut log = AppendLog::open(&path).unwrap();
        append(&mut log, 1, 1, b"whole");
        append(&mut log, 2, 1, b"torn-record");
        drop(log);
        let full = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        let mut tail = WalTail::new(&path, 1);
        assert_eq!(seqs(tail.poll(2, usize::MAX).unwrap()), vec![1]);
        assert!(matches!(tail.poll(2, usize::MAX).unwrap(), TailStep::Idle));
        std::fs::remove_file(&path).unwrap();
    }
}
