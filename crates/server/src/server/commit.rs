//! The commit watermark: the one record of which op is committed.
//!
//! Group commit, checkpoints, the `none` policy's ack, promotion, a
//! replica's snapshot install and its applied batches all move one
//! `(committed_seq, epoch)` pair, and ship loops ship only up to it.
//! Positions are the journal's monotonic op sequence, not WAL byte
//! offsets: a checkpoint truncates the WAL but not the op numbers.

use std::fs::File;
use std::io;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

struct Position {
    /// Highest op sequence known committed.
    seq: u64,
    /// The sequence epoch of the committed position.
    epoch: u64,
    /// Highest op any group committer has asked to make durable.
    requested: u64,
    /// A group-commit leader is fsyncing.
    syncing: bool,
}

/// The committed `(seq, epoch)` with condvar wakeups, plus the WAL
/// handle group commit fsyncs.
pub(super) struct Watermark {
    /// Clone of the WAL file handle, present iff the served state has a
    /// journal. It shares the open file description with the journal,
    /// so it survives checkpoint truncations and can be fsynced without
    /// holding the state lock. A replica's snapshot install replaces
    /// the WAL file, and with it this handle ([`Watermark::rebind`]).
    file: Mutex<Option<File>>,
    position: Mutex<Position>,
    cv: Condvar,
}

impl Watermark {
    /// A watermark at `seq` under `epoch`, fsyncing `file` on demand.
    pub(super) fn new(file: Option<File>, seq: u64, epoch: u64) -> Watermark {
        Watermark {
            file: Mutex::new(file),
            position: Mutex::new(Position {
                seq,
                epoch,
                requested: seq,
                syncing: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Position> {
        self.position.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Group commit: blocks until every WAL op up to and including
    /// `seq` is on stable storage. The first waiter becomes the leader:
    /// it issues one fsync for every op requested by then, and wakes
    /// everyone whose ops it covered — ship loops included. An
    /// [`Watermark::advance`] past `seq` releases the waiter without
    /// an fsync.
    pub(super) fn wait_durable(&self, seq: u64) -> io::Result<()> {
        let mut p = self.lock();
        p.requested = p.requested.max(seq);
        loop {
            if p.seq >= seq {
                return Ok(());
            }
            if p.syncing {
                p = self.cv.wait(p).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            p.syncing = true;
            drop(p);
            // Everything requested by now has been appended *and
            // flushed* (appends flush under the state write lock before
            // the writer starts waiting), so one fsync covers it all.
            let goal = self.lock().requested;
            let started = Instant::now();
            let outcome = self
                .file
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_ref()
                .map_or(Ok(()), File::sync_data);
            obs::histogram!(
                "gkbms_journal_fsync_seconds",
                "Latency of WAL fsyncs (per-op and group-commit)"
            )
            .observe(started.elapsed());
            p = self.lock();
            p.syncing = false;
            // Wake the others either way: on failure they elect a new
            // leader (or fail in turn) rather than waiting forever; on
            // success they, and the ship loops, see the new position
            // once this guard drops.
            self.cv.notify_all();
            outcome?;
            obs::counter!(
                "gkbms_group_commit_batches_total",
                "Group-commit fsync batches issued"
            )
            .inc();
            obs::counter!(
                "gkbms_group_commit_batched_ops_total",
                "WAL ops made durable by group-commit batches"
            )
            .add(goal.saturating_sub(p.seq));
            p.seq = p.seq.max(goal);
        }
    }

    /// Moves the committed position to `seq` under `epoch` without an
    /// fsync — the caller already made it durable (a checkpoint, the
    /// promotion seal), the `none` policy acknowledges without one, or
    /// a replica applied the leader's committed records. Monotonic:
    /// stale calls are no-ops.
    pub(super) fn advance(&self, seq: u64, epoch: u64) {
        let mut p = self.lock();
        if seq > p.seq || epoch > p.epoch {
            p.seq = p.seq.max(seq);
            p.epoch = p.epoch.max(epoch);
            self.cv.notify_all();
        }
    }

    /// Hands group commit the handle of a WAL that replaced the one it
    /// held (a replica's snapshot install recreates the file), so later
    /// fsyncs reach the file the journal appends to. The old handle is
    /// closed; an fsync in flight on it finishes first.
    pub(super) fn rebind(&self, file: Option<File>) {
        *self.file.lock().unwrap_or_else(|e| e.into_inner()) = file;
    }

    /// Blocks until the committed sequence exceeds `seq` or `timeout`
    /// elapses; returns the committed pair either way. The timeout is
    /// what lets ship loops interleave heartbeats and shutdown checks.
    pub(super) fn wait_beyond(&self, seq: u64, timeout: Duration) -> (u64, u64) {
        let (p, _) = self
            .cv
            .wait_timeout_while(self.lock(), timeout, |p| p.seq <= seq)
            .unwrap_or_else(|e| e.into_inner());
        (p.seq, p.epoch)
    }

    /// The committed `(seq, epoch)`.
    pub(super) fn current(&self) -> (u64, u64) {
        let p = self.lock();
        (p.seq, p.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn advance_is_monotonic() {
        let w = Watermark::new(None, 5, 1);
        w.advance(3, 1); // stale
        assert_eq!(w.current(), (5, 1));
        w.advance(9, 2);
        assert_eq!(w.current(), (9, 2));
    }

    #[test]
    fn waiters_wake_on_advance() {
        let w = Arc::new(Watermark::new(None, 0, 1));
        let waiter = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.wait_beyond(0, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        w.advance(1, 1);
        assert_eq!(waiter.join().unwrap(), (1, 1));
    }

    #[test]
    fn wait_times_out_at_current_position() {
        let w = Watermark::new(None, 4, 1);
        // Already beyond: returns immediately.
        assert_eq!(w.wait_beyond(3, Duration::from_secs(5)), (4, 1));
        // Not beyond: times out and reports the unchanged position.
        assert_eq!(w.wait_beyond(4, Duration::from_millis(10)), (4, 1));
    }

    #[test]
    fn an_advance_past_a_waiter_releases_it_without_an_fsync() {
        let w = Arc::new(Watermark::new(None, 0, 1));
        // A leader fsync is in flight; the waiter queues behind it.
        w.lock().syncing = true;
        let waiter = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.wait_durable(3))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "waits while the fsync runs");
        // A checkpoint covers op 5: the waiter is durable as it stands.
        w.advance(5, 1);
        waiter.join().unwrap().unwrap();
        let p = w.lock();
        assert!(p.syncing, "the waiter never became the fsync leader");
        assert_eq!((p.seq, p.requested), (5, 3));
    }
}
