//! Continuous durability: the live write-ahead journal.
//!
//! [`Gkbms::save`] is a stop-the-world full rewrite — fine for an
//! explicit `\save`, wrong as the only durability story of a
//! documentation service whose charter is "nothing is ever
//! destructively deleted". Journal mode closes the gap:
//!
//! * every mutation ends in [`Gkbms::commit`], the one place an op
//!   enters the history: it is framed with its sequence number and
//!   epoch ([`encode_framed`]; otherwise the encoding `save` uses),
//!   and that one frame is appended to the live WAL and pushed onto
//!   the in-memory history, in that order, at commit time — so a
//!   history entry and a WAL record are one value, and a replication
//!   leader ships its history's frames;
//! * [`Gkbms::checkpoint`] moves ops from the WAL to the snapshot
//!   file: it writes the whole history, unframed and in commit order,
//!   crash-atomically as the snapshot and truncates the WAL. Nothing
//!   is compacted — the snapshot plus the WAL tail is always the
//!   journal's op stream from its first op;
//! * [`Gkbms::recover`] replays the snapshot (if any) and then the
//!   WAL tail, tolerating a torn final record.
//!
//! Op `n` of the journal is the history's `n`th, so a position is the
//! history's length ([`Gkbms::applied_seq`]): the WAL's frame counter
//! equals it, and a snapshot header or replayed WAL record that names
//! another is refused ([`GkbmsError::Misplaced`]).
//!
//! The journal makes no fsync decisions of its own beyond flushing
//! each record into the OS: *when* to fsync (group commit, or never) is
//! the caller's policy — see [`FsyncPolicy`] and the server's
//! group-commit implementation.
//!
//! Durability invariant: after `fsync` of the WAL has returned, every
//! op appended before it survives any crash; recovery restores a
//! prefix of the committed op sequence — never a subset with holes.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::error::{GkbmsError, GkbmsResult};
use crate::persist::{self, JournalOp};
use crate::system::Gkbms;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use storage::log::TailState;
use storage::record::codec::{self, Cursor};
use storage::{AppendLog, StorageResult};

/// File name of the checkpoint snapshot inside a journal directory.
pub const SNAPSHOT_FILE: &str = "snapshot";
/// File name of the write-ahead log inside a journal directory.
pub const WAL_FILE: &str = "wal";

/// When WAL appends are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Group commit: a mutation is acknowledged once an fsync covers
    /// it. The first waiter fsyncs for every op appended by then; the
    /// others wait for it, so concurrent writers share fsyncs while
    /// each acknowledged mutation is durable.
    Group,
    /// Never fsync on the write path; durability only at checkpoints
    /// and clean shutdown.
    Never,
}

impl FsyncPolicy {
    /// Parses `group`, or `none` (also `never`).
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "group" => Ok(FsyncPolicy::Group),
            "none" | "never" => Ok(FsyncPolicy::Never),
            _ => Err(format!(
                "unknown fsync policy `{s}` (expected group or none)"
            )),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Group => "group",
            FsyncPolicy::Never => "none",
        })
    }
}

/// What [`Gkbms::recover`] found and did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// A checkpoint snapshot was present and loaded.
    pub snapshot_loaded: bool,
    /// Ops replayed from the WAL tail.
    pub replayed_ops: u64,
    /// Stale WAL ops dropped because the snapshot already covered them
    /// — the leftovers of a checkpoint that crashed after publishing
    /// its snapshot but before truncating the WAL. Recovery completes
    /// the truncation instead of double-applying them.
    pub skipped_ops: u64,
    /// A torn final WAL record was truncated away.
    pub wal_truncated: bool,
    /// Wall-clock time of the whole recovery.
    pub elapsed: Duration,
}

/// What [`Gkbms::checkpoint`] did.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// WAL ops moved into the snapshot (and truncated away).
    pub compacted_ops: u64,
    /// Wall-clock time of the checkpoint.
    pub elapsed: Duration,
}

/// The live write-ahead journal attached to a [`Gkbms`].
pub struct Journal {
    dir: PathBuf,
    wal: AppendLog,
    /// Total ops appended over the journal's lifetime (monotonic even
    /// across checkpoint truncations) — group commit tracks durability
    /// in this sequence, not in byte offsets, precisely because
    /// checkpoints reset the WAL's byte length.
    appended_ops: u64,
    /// Ops appended since the last checkpoint (== records in the WAL).
    ops_since_checkpoint: u64,
    /// `appended_ops` as of this journal's last fsync or checkpoint.
    durable_ops: u64,
}

impl Journal {
    /// Opens the WAL with zeroed op counters; [`Gkbms::recover`] sets
    /// them from the history it recovered.
    fn open_in(dir: &Path) -> StorageResult<Journal> {
        let wal = AppendLog::open(dir.join(WAL_FILE))?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            wal,
            appended_ops: 0,
            ops_since_checkpoint: 0,
            durable_ops: 0,
        })
    }

    /// The one WAL append: one op's frame — its journal op sequence
    /// number `seq`, its sequence epoch, then its payload — and a
    /// flush into the OS page cache (no fsync: that is the caller's
    /// fsync policy). The sequence is what lets recovery tell records a
    /// checkpoint snapshot already covers from genuinely newer ones;
    /// the epoch is what lets a replica's admission check fence off
    /// records written by a deposed leader.
    fn append(&mut self, seq: u64, frame: &[u8]) -> StorageResult<()> {
        self.wal.append(frame)?;
        // Counters move with the buffered append, not the flush: once
        // the record is in the writer (and possibly in the file), a
        // failed flush must not let the op sequence drift from it.
        self.appended_ops = seq;
        self.ops_since_checkpoint += 1;
        obs::counter!(
            "gkbms_journal_appends_total",
            "Mutations appended to the write-ahead journal"
        )
        .inc();
        self.wal.flush()?;
        Ok(())
    }

    /// Byte length of the WAL file: the frames appended since the last
    /// checkpoint.
    pub fn wal_byte_len(&self) -> u64 {
        self.wal.byte_len()
    }

    /// Path of the WAL file.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// Path of the checkpoint snapshot file (which may not exist yet).
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// fsyncs the WAL, making every appended op durable.
    pub fn sync(&mut self) -> StorageResult<()> {
        let start = Instant::now();
        self.wal.sync()?;
        self.durable_ops = self.appended_ops;
        obs::histogram!(
            "gkbms_journal_fsync_seconds",
            "Latency of WAL fsyncs (per-op and group-commit)"
        )
        .observe(start.elapsed());
        Ok(())
    }

    /// A cloned handle to the WAL file, for fsyncing outside the
    /// writer's lock (group commit). The handle shares the open file
    /// description with the journal, so it stays valid across
    /// checkpoint truncations.
    pub fn file(&mut self) -> StorageResult<File> {
        self.wal.file()
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total ops appended over the journal's lifetime.
    pub fn appended_ops(&self) -> u64 {
        self.appended_ops
    }

    /// Ops appended since the last checkpoint.
    pub fn ops_since_checkpoint(&self) -> u64 {
        self.ops_since_checkpoint
    }

    /// Ops this journal has made durable itself: everything appended by
    /// its last [`Journal::sync`] or checkpoint. An fsync through a
    /// cloned [`Journal::file`] handle (group commit) does not move it,
    /// so it is a lower bound.
    pub fn durable_ops(&self) -> u64 {
        self.durable_ops
    }
}

/// Bytes in front of an op's payload in its frame: its sequence
/// number and its epoch.
pub(crate) const FRAME_HEADER: usize = 16;

/// Frames an op payload with its journal sequence number and epoch —
/// the exact bytes [`Journal`] appends to the WAL and a history entry
/// holds.
pub fn encode_framed(seq: u64, epoch: u64, payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(FRAME_HEADER + payload.len());
    codec::put_u64(&mut framed, seq);
    codec::put_u64(&mut framed, epoch);
    framed.extend_from_slice(payload);
    framed
}

/// Splits a framed WAL record into its op sequence number, sequence
/// epoch and payload.
pub fn decode_framed(bytes: &[u8]) -> StorageResult<(u64, u64, &[u8])> {
    let mut c = Cursor::new(bytes);
    let seq = c.get_u64()?;
    let epoch = c.get_u64()?;
    Ok((seq, epoch, &bytes[FRAME_HEADER..]))
}

impl Gkbms {
    /// Opens (or creates) the journal directory `dir` and recovers the
    /// GKBMS from it: loads the checkpoint snapshot if one exists,
    /// replays the WAL tail (truncating a torn final record), then
    /// attaches the journal so every further committed mutation is
    /// appended at commit time. A `dir` that exists but is not a
    /// directory is refused with [`GkbmsError::NotAJournal`], a
    /// misplaced snapshot header or WAL record with `Misplaced`.
    pub fn recover(dir: impl AsRef<Path>) -> GkbmsResult<(Gkbms, RecoveryReport)> {
        let dir = dir.as_ref();
        if dir.exists() && !dir.is_dir() {
            return Err(GkbmsError::NotAJournal(dir.to_path_buf()));
        }
        std::fs::create_dir_all(dir).map_err(storage::StorageError::Io)?;
        let start = Instant::now();
        let snap = dir.join(SNAPSHOT_FILE);
        let snapshot_loaded = snap.exists();
        let mut g = if snapshot_loaded {
            Gkbms::load(&snap)?
        } else {
            Gkbms::new()?
        };
        // WAL records at or below the snapshot's position are the
        // leftovers of a checkpoint that crashed between publishing its
        // snapshot and truncating the WAL — the snapshot already holds
        // them, so replaying them would double-apply.
        let covered = g.applied_seq();
        let mut journal = Journal::open_in(dir)?;
        let wal_truncated = matches!(journal.wal.tail_state(), TailState::TruncatedAt(_));
        let framed: Vec<(_, Vec<u8>)> = journal.wal.iter()?.collect::<Result<_, _>>()?;
        let mut skipped = 0u64;
        // Replay with the journal still detached: re-applying an op
        // must not re-append it.
        for (_, f) in &framed {
            let (seq, epoch, payload) = decode_framed(f)?;
            // The epoch of every frame counts, even skipped ones: the
            // snapshot may predate a promotion whose records the WAL
            // still holds. Raised before the op replays, it is the
            // epoch the op's commit frames it with in the history.
            g.epoch = g.epoch.max(epoch);
            if seq <= covered {
                skipped += 1;
                continue;
            }
            // A hole or a repeated record: a history never committed.
            let next = g.applied_seq() + 1;
            if seq != next {
                return Err(GkbmsError::Misplaced("WAL record", next, seq));
            }
            persist::apply_record(&mut g, payload)?;
        }
        let replayed_ops = g.applied_seq() - covered;
        journal.appended_ops = g.applied_seq();
        journal.ops_since_checkpoint = replayed_ops;
        if skipped > 0 && replayed_ops == 0 {
            // Complete the interrupted checkpoint by finishing its
            // truncation. Only safe when every record is covered (the
            // only state an interrupted checkpoint can leave, since it
            // holds the writer): rewriting a WAL that still has live
            // records would open its own crash window. A mixed WAL is
            // left in place — replay skips covered records per record,
            // and the next checkpoint truncates them.
            journal.wal.truncate_all()?;
        }
        g.journal = Some(journal);
        let report = RecoveryReport {
            snapshot_loaded,
            replayed_ops,
            skipped_ops: skipped,
            wal_truncated,
            elapsed: start.elapsed(),
        };
        obs::counter!(
            "gkbms_recovery_replayed_ops_total",
            "WAL ops replayed during journal recovery"
        )
        .add(report.replayed_ops);
        obs::histogram!(
            "gkbms_recovery_replay_seconds",
            "Wall-clock time of journal recovery (snapshot load + WAL replay)"
        )
        .observe(report.elapsed);
        Ok((g, report))
    }

    /// Checkpoints the journal: writes the full history — a coverage
    /// header, then every op in commit order — as the snapshot
    /// (crash-atomically: temp file, fsync, rename, directory fsync)
    /// and truncates the WAL. The header names the op sequence (and
    /// epoch) the snapshot holds, so the rename alone commits the
    /// checkpoint — a crash before the truncation leaves WAL records
    /// the snapshot covers, which recovery drops instead of replaying.
    /// After a checkpoint every op ever appended is durable regardless
    /// of fsync policy. Errors if no journal is attached.
    pub fn checkpoint(&mut self) -> GkbmsResult<CheckpointReport> {
        let (covered_seq, epoch) = (self.applied_seq(), self.epoch);
        let Some(j) = self.journal.as_mut() else {
            return Err(GkbmsError::Unknown(
                "checkpoint requested but no journal is attached".into(),
            ));
        };
        let start = Instant::now();
        let header = JournalOp::CheckpointCovers { covered_seq, epoch };
        let payloads = self.history.iter().map(|frame| &frame[FRAME_HEADER..]);
        persist::write_atomic(&j.snapshot_path(), Some(header), payloads)?;
        let compacted = j.ops_since_checkpoint;
        j.wal.truncate_all()?;
        j.ops_since_checkpoint = 0;
        j.durable_ops = j.appended_ops;
        let report = CheckpointReport {
            compacted_ops: compacted,
            elapsed: start.elapsed(),
        };
        obs::counter!(
            "gkbms_checkpoints_total",
            "Journal checkpoints (snapshot + WAL truncation)"
        )
        .inc();
        obs::histogram!(
            "gkbms_checkpoint_seconds",
            "Wall-clock time of journal checkpoints"
        )
        .observe(report.elapsed);
        Ok(report)
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Mutable access to the attached journal (fsync, file handles).
    pub fn journal_mut(&mut self) -> Option<&mut Journal> {
        self.journal.as_mut()
    }

    /// The commit point — the one place an op enters the history.
    /// Every mutation calls it once its KB work can no longer fail: the
    /// op is framed with its sequence number and epoch, the frame is
    /// appended to the journal, if one is attached, and pushed onto
    /// `history`, and the design index files what the op told. An op
    /// the journal refused is in neither; its transaction rolls its KB
    /// work back.
    pub(crate) fn commit(&mut self, op: JournalOp) -> GkbmsResult<()> {
        // A seal is framed with the epoch it opens.
        let epoch = match op {
            JournalOp::Seal { epoch } => self.epoch.max(epoch),
            _ => self.epoch,
        };
        let seq = self.applied_seq() + 1;
        let frame: std::sync::Arc<[u8]> = encode_framed(seq, epoch, &op.encode()).into();
        if let Some(j) = self.journal.as_mut() {
            j.append(seq, &frame)?;
        }
        match op {
            JournalOp::Tell { .. } => self.tells_untells.0 += 1,
            JournalOp::Untell { .. } => self.tells_untells.1 += 1,
            _ => {}
        }
        self.history.push(frame);
        // The WAL's frame counter is the history's length.
        debug_assert_eq!(
            self.journal.as_ref().map_or(seq, Journal::appended_ops),
            seq
        );
        // The op's buffers are freed before the index files what it
        // told, so the filed records reuse them instead of leaving them
        // as holes between long-lived allocations: a heap fragmented so
        // slowed every later read that allocates its answer.
        drop(op);
        if let Some(mark) = self.kb.txn_mark() {
            let told = self.kb.delta_since(&mark).told;
            self.design.file(&self.kb, &told);
        }
        Ok(())
    }

    /// Applies one record shipped from a replication leader through the
    /// standard replay path. The shipped epoch is raised first, so the
    /// op's commit frames it — in the history and in the local journal,
    /// if one is attached — with the leader's sequence number and epoch,
    /// keeping replica WALs byte-identical to the leader's.
    /// Sequence/epoch admission checks are the caller's job
    /// (`replication::admit`): the applied op lands at the history's
    /// next position, which the caller has checked is `seq`.
    pub fn apply_replicated(&mut self, seq: u64, epoch: u64, payload: &[u8]) -> GkbmsResult<()> {
        self.epoch = self.epoch.max(epoch);
        persist::apply_record(self, payload)?;
        debug_assert_eq!(
            (self.history.len().checked_sub(1))
                .and_then(|last| self.history.get(last))
                .map(|frame| &frame[..]),
            Some(&encode_framed(seq, epoch, payload)[..]),
            "a replicated op must commit the frame it was shipped in"
        );
        Ok(())
    }

    /// Raises the sequence epoch to `epoch` and commits the seal that
    /// replays it — a promotion, or the replay of one.
    pub(crate) fn seal(&mut self, epoch: u64) -> GkbmsResult<()> {
        self.transaction(|g| {
            g.commit(JournalOp::Seal { epoch })?;
            g.epoch = g.epoch.max(epoch);
            Ok(())
        })
    }

    /// Promotes this instance to leader of a new sequence epoch: bumps
    /// the epoch and seals the journal with a durable epoch marker (the
    /// promotion point survives a crash even before the first
    /// post-promotion write). Records framed under any older epoch are
    /// refused by replica admission fencing from here on. Returns the
    /// new epoch.
    pub fn promote(&mut self) -> GkbmsResult<u64> {
        let epoch = self.epoch + 1;
        self.seal(epoch)?;
        if let Some(j) = self.journal.as_mut() {
            j.sync()?;
        }
        obs::counter!(
            "gkbms_replication_promotions_total",
            "Replica promotions to leader (epoch bumps)"
        )
        .inc();
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metamodel::kernel;
    use crate::system::tests::scenario_gkbms;
    use crate::system::DecisionRequest;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cb-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    /// A journaled GKBMS seeded with the scenario schema (which is
    /// itself journaled, op by op, as it is defined).
    fn journaled_scenario(dir: &Path) -> Gkbms {
        let (mut g, report) = Gkbms::recover(dir).unwrap();
        assert_eq!(report.replayed_ops, 0);
        assert!(!report.snapshot_loaded);
        // Replay the scenario definitions through the journaled
        // instance so they are captured as ops.
        let donor = scenario_gkbms();
        for frame in donor.history.iter() {
            persist::apply_record(&mut g, &frame[FRAME_HEADER..]).unwrap();
        }
        g
    }

    #[test]
    fn mutations_survive_without_explicit_save() {
        let dir = tmp_dir("basic");
        {
            let mut g = journaled_scenario(&dir);
            g.register_object(
                "Invitation",
                kernel::TDL_ENTITY_CLASS,
                "design.tdl#Invitation",
            )
            .unwrap();
            g.execute(
                DecisionRequest::new("TDL_MappingDec", "mapInvitations", "dev")
                    .with_tool("TDL-DBPL-Mapper")
                    .input("Invitation")
                    .output("InvitationRel", kernel::DBPL_REL),
            )
            .unwrap();
            g.tell_src("TELL AdHoc end").unwrap();
            g.journal_mut().unwrap().sync().unwrap();
            // No save(): the process "crashes" here.
        }
        let (g, report) = Gkbms::recover(&dir).unwrap();
        assert!(report.replayed_ops > 0);
        assert!(g.is_effective("mapInvitations"));
        assert!(g.kb().lookup("AdHoc").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_preserves_history() {
        let dir = tmp_dir("checkpoint");
        {
            let mut g = journaled_scenario(&dir);
            g.register_object(
                "Invitation",
                kernel::TDL_ENTITY_CLASS,
                "design.tdl#Invitation",
            )
            .unwrap();
            let before = g.journal().unwrap().ops_since_checkpoint();
            assert!(before > 0);
            let report = g.checkpoint().unwrap();
            assert_eq!(report.compacted_ops, before);
            let j = g.journal().unwrap();
            assert_eq!(j.ops_since_checkpoint(), 0);
            assert_eq!(j.durable_ops(), j.appended_ops(), "the snapshot holds all");
            // Post-checkpoint mutations land in the (fresh) WAL, durable
            // once it is fsynced.
            g.tell_src("TELL AfterCheckpoint end").unwrap();
            let j = g.journal_mut().unwrap();
            assert_eq!(j.durable_ops() + 1, j.appended_ops());
            j.sync().unwrap();
            assert_eq!(j.durable_ops(), j.appended_ops());
            assert_eq!(j.ops_since_checkpoint(), 1);
        }
        let (g, report) = Gkbms::recover(&dir).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.replayed_ops, 1);
        assert!(g.kb().lookup("Invitation").is_some(), "from snapshot");
        assert!(g.kb().lookup("AfterCheckpoint").is_some(), "from WAL tail");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_tolerated() {
        let dir = tmp_dir("torn");
        {
            let mut g = journaled_scenario(&dir);
            g.tell_src("TELL Kept end").unwrap();
            g.journal_mut().unwrap().sync().unwrap();
            g.tell_src("TELL Doomed end").unwrap();
            g.journal_mut().unwrap().sync().unwrap();
        }
        // Crash mid-append of the last record.
        let wal = dir.join(WAL_FILE);
        let len = std::fs::metadata(&wal).unwrap().len();
        storage::crash::truncate_in_place(&wal, len - 3).unwrap();
        let (g, report) = Gkbms::recover(&dir).unwrap();
        assert!(report.wal_truncated);
        assert!(g.kb().lookup("Kept").is_some());
        assert!(g.kb().lookup("Doomed").is_none());
        // The journal is immediately usable for new writes.
        let mut g = g;
        g.tell_src("TELL PostCrash end").unwrap();
        g.journal_mut().unwrap().sync().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn promote_bumps_epoch_durably_without_further_writes() {
        let dir = tmp_dir("promote");
        {
            let mut g = journaled_scenario(&dir);
            assert_eq!(g.epoch(), 1);
            g.tell_src("TELL Before end").unwrap();
            assert_eq!(g.promote().unwrap(), 2);
            // Crash here: the seal record alone must carry the epoch,
            // framed with the epoch it opens.
        }
        let (frames, _) = storage::log::read_payloads(dir.join(WAL_FILE)).unwrap();
        let (_, epoch, seal) = decode_framed(frames.last().unwrap()).unwrap();
        assert_eq!(epoch, 2);
        assert!(matches!(
            JournalOp::decode(seal),
            Ok(JournalOp::Seal { epoch: 2 })
        ));
        let (g, _) = Gkbms::recover(&dir).unwrap();
        assert_eq!(g.epoch(), 2);
        assert!(g.kb().lookup("Before").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_snapshot_preserves_epoch() {
        let dir = tmp_dir("ckpt-epoch");
        {
            let mut g = journaled_scenario(&dir);
            g.tell_src("TELL Kept end").unwrap();
            g.promote().unwrap();
            g.checkpoint().unwrap();
            // The WAL is now empty: the epoch must live in the
            // snapshot's coverage record.
        }
        let (g, report) = Gkbms::recover(&dir).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.replayed_ops, 0);
        assert_eq!(g.epoch(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replicated_apply_reproduces_leader_wal_bytes() {
        let ldir = tmp_dir("repl-leader");
        let fdir = tmp_dir("repl-follower");
        let mut leader = Gkbms::recover(&ldir).unwrap().0;
        leader.tell_src("TELL Paper end").unwrap();
        leader.tell_src("TELL p1 in Paper end").unwrap();
        leader.journal_mut().unwrap().sync().unwrap();
        let mut follower = Gkbms::recover(&fdir).unwrap().0;
        let mut wal = AppendLog::open(ldir.join(WAL_FILE)).unwrap();
        for rec in wal.iter().unwrap() {
            let (_, bytes) = rec.unwrap();
            let (seq, epoch, payload) = decode_framed(&bytes).unwrap();
            follower.apply_replicated(seq, epoch, payload).unwrap();
        }
        follower.journal_mut().unwrap().sync().unwrap();
        assert_eq!(follower.applied_seq(), leader.applied_seq());
        assert!(follower.kb().lookup("p1").is_some());
        assert_eq!(
            std::fs::read(ldir.join(WAL_FILE)).unwrap(),
            std::fs::read(fdir.join(WAL_FILE)).unwrap(),
            "replica WAL must be byte-identical to the leader's"
        );
        std::fs::remove_dir_all(&ldir).unwrap();
        std::fs::remove_dir_all(&fdir).unwrap();
    }

    #[test]
    fn journal_less_replica_builds_from_snapshot_stream() {
        let dir = tmp_dir("replica-mem");
        let payloads = {
            let mut g = journaled_scenario(&dir);
            g.tell_src("TELL Paper end").unwrap();
            g.checkpoint().unwrap();
            let mut log = AppendLog::open(dir.join(SNAPSHOT_FILE)).unwrap();
            log.iter()
                .unwrap()
                .map(|r| r.unwrap().1)
                .collect::<Vec<_>>()
        };
        let replica = Gkbms::from_records(&payloads).unwrap();
        assert!(replica.kb().lookup("Paper").is_some());
        assert!(replica.applied_seq() > 0);
        assert_eq!(replica.epoch(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_without_journal_errors() {
        let mut g = Gkbms::new().unwrap();
        assert!(g.checkpoint().is_err());
    }

    #[test]
    fn fsync_policy_parses_the_two_policies_only() {
        assert_eq!(FsyncPolicy::parse("group"), Ok(FsyncPolicy::Group));
        assert_eq!(FsyncPolicy::parse("none"), Ok(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        for gone in ["always", "group:5", "group:0", "sometimes"] {
            let err = FsyncPolicy::parse(gone).unwrap_err();
            assert!(err.contains("group or none"), "{gone}: {err}");
        }
        assert_eq!(FsyncPolicy::Group.to_string(), "group");
        assert_eq!(FsyncPolicy::Never.to_string(), "none");
    }
}
