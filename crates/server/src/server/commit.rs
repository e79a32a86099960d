//! The commit path: the one writer and the one commit watermark.
//!
//! Every change to the served state is made through a [`Writer`] and
//! ends in [`Writer::commit`] (a write, a checkpoint, a promotion, an
//! applied replica batch) or [`Writer::replace`] (a `Load`, a replica's
//! snapshot install): the only places that publish a store version,
//! auto-checkpoint, move the watermark and sweep sessions. The
//! watermark is the one committed `(seq, epoch)`; ship loops ship only
//! up to it. A position is an op sequence number — the length of the
//! history that reaches it ([`Gkbms::applied_seq`]) — not a WAL byte
//! offset: a checkpoint truncates the WAL but not the op numbers.

use super::dispatch::err;
use super::{lock_sessions, sweep_sessions, Shared};
use crate::proto::{ErrorCode, Response};
use gkbms::{FsyncPolicy, Gkbms};
use std::fs::File;
use std::io;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The single writer: the state's write guard, and the service whose
/// version chain, watermark and sessions its end moves.
pub(super) struct Writer<'a> {
    shared: &'a Shared,
    state: MutexGuard<'a, Gkbms>,
    /// The belief clock and the applied op sequence when taken.
    taken: (i64, u64),
}

impl Shared {
    /// Takes the single-writer state lock, timing the wait. A state a
    /// panic poisoned mid-write is refused ([`poisoned`]).
    pub(super) fn writer(&self) -> Result<Writer<'_>, Response> {
        let waited = Instant::now();
        let state = self.state.lock().map_err(|_| poisoned())?;
        obs::histogram!(
            "gkbms_writer_lock_wait_seconds",
            "Time spent waiting to acquire the single-writer state lock"
        )
        .observe(waited.elapsed());
        let taken = (state.kb().now(), state.applied_seq());
        Ok(Writer {
            shared: self,
            state,
            taken,
        })
    }
}

/// The answer to every request that would build on or read the live
/// state once a panic inside a write has poisoned its lock: that write
/// may be half-applied, so nothing may read it or write after it. The
/// published versions stay readable; the journal holds only what was
/// committed, so a restart recovers a whole state.
pub(super) fn poisoned() -> Response {
    err(
        ErrorCode::Internal,
        "state poisoned; restart to recover from the journal",
    )
}

impl Deref for Writer<'_> {
    type Target = Gkbms;
    fn deref(&self) -> &Gkbms {
        &self.state
    }
}

impl DerefMut for Writer<'_> {
    fn deref_mut(&mut self) -> &mut Gkbms {
        &mut self.state
    }
}

impl Writer<'_> {
    /// Captures the state's store version and publishes it as the chain
    /// head — the one publish site. It runs under the write guard, so
    /// versions enter the chain in commit order; the capture is
    /// O(store / 512) by structural sharing (see `telos::version`).
    /// Timed as `gkbms_version_publish_seconds`: capture, publish, and
    /// the drop of the superseded head inside `VersionChain::publish`.
    fn publish(&mut self) {
        let started = Instant::now();
        self.shared.chain.publish(self.state.capture());
        obs::histogram!(
            "gkbms_version_publish_seconds",
            "Latency of capturing a store version and publishing it as the chain head, including the superseded head's drop"
        )
        .observe(started.elapsed());
    }

    /// Ends a change, in order: publishes iff the belief clock moved
    /// since the writer was taken (a failed transaction rolls its tick
    /// back); on a journaled node, checkpoints when `checkpoint_every`
    /// is due; releases the guard and moves the watermark and its
    /// epoch — without an fsync when the journal made every op durable
    /// itself (a checkpoint, the promotion seal), on a follower and
    /// under the `none` policy, else by the group-commit fsync covering
    /// what this writer appended; sweeps sessions. An error means the
    /// change is applied in memory but not durable.
    pub(super) fn commit(mut self) -> Result<(), Response> {
        let shared = self.shared;
        if self.state.kb().now() != self.taken.0 {
            self.publish();
        }
        let due = (self.state.journal())
            .zip(shared.cfg.checkpoint_every)
            .is_some_and(|(j, every)| j.ops_since_checkpoint() >= every);
        if due {
            self.state
                .checkpoint()
                .map_err(|e| err(ErrorCode::Internal, format!("auto-checkpoint failed: {e}")))?;
        }
        let (seq, epoch) = (self.state.applied_seq(), self.state.epoch());
        let synced = (self.state.journal()).is_none_or(|j| j.durable_ops() == seq);
        drop(self.state);
        let durable = if synced
            || shared.repl.follower.load(Ordering::SeqCst)
            || shared.cfg.fsync == FsyncPolicy::Never
        {
            shared.commit.advance(seq, epoch);
            Ok(())
        } else if seq > self.taken.1 {
            shared
                .commit
                .wait_durable(seq, epoch)
                .map_err(|e| err(ErrorCode::Internal, format!("group-commit fsync: {e}")))
        } else {
            Ok(())
        };
        sweep_sessions(shared);
        durable
    }

    /// Swaps `fresh` in as the served state: publishes it, hands group
    /// commit its journal's WAL handle, moves the watermark to its
    /// position — down too, after a `Load` of a shorter history: the
    /// replaced history's count names no state any more — and re-pins
    /// every session at the fresh head (old pins refer to a store that
    /// no longer exists). The pin is taken before the guard is let go,
    /// so it is the version just published.
    pub(super) fn replace(mut self, mut fresh: Gkbms) -> Result<(), Response> {
        let file = fresh
            .journal_mut()
            .map(|j| j.file())
            .transpose()
            .map_err(|e| err(ErrorCode::Internal, format!("WAL handle: {e}")))?;
        let (seq, epoch) = (fresh.applied_seq(), fresh.epoch());
        *self.state = fresh;
        self.publish();
        let shared = self.shared;
        shared.commit.rebind(file, seq, epoch);
        let pin = shared.chain.acquire();
        drop(self.state);
        lock_sessions(shared).repin_all(pin.data().kb.now(), pin);
        Ok(())
    }
}

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
    /// `seq` is on stable storage, then raises the epoch to `epoch`. The first waiter becomes the leader:
    /// it issues one fsync for every op requested by then, and wakes
    /// everyone whose ops it covered — ship loops included. An
    /// [`Watermark::advance`] past `seq` releases the waiter without
    /// an fsync.
    fn wait_durable(&self, seq: u64, epoch: u64) -> io::Result<()> {
        let mut p = self.lock();
        p.requested = p.requested.max(seq);
        loop {
            if p.seq >= seq {
                p.epoch = p.epoch.max(epoch);
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
    /// fsync — a checkpoint made it durable, the `none` policy
    /// acknowledges without one, or a replica applied the leader's
    /// committed records. Monotonic:
    /// stale calls are no-ops.
    fn advance(&self, seq: u64, epoch: u64) {
        let mut p = self.lock();
        if seq > p.seq || epoch > p.epoch {
            p.seq = p.seq.max(seq);
            p.epoch = p.epoch.max(epoch);
            self.cv.notify_all();
        }
    }

    /// Rebinds to a state that replaced the served one: its WAL handle
    /// (a replica's snapshot install recreates the file), so fsyncs
    /// reach the file its journal appends to, and its `(seq, epoch)`,
    /// whichever way that moves the position. The old handle is
    /// closed; an fsync in flight on it finishes first.
    fn rebind(&self, file: Option<File>, seq: u64, epoch: u64) {
        *self.file.lock().unwrap_or_else(|e| e.into_inner()) = file;
        let mut p = self.lock();
        (p.seq, p.epoch, p.requested) = (seq, epoch, seq);
        self.cv.notify_all();
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
            std::thread::spawn(move || w.wait_durable(3, 1))
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
