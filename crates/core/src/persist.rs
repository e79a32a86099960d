//! Persistence of the GKBMS documentation service.
//!
//! "Ex post, it plays the role of a documentation service" — and a
//! documentation service must outlive the process. The GKBMS *is* its
//! history: every committed mutation is one [`JournalOp`], encoded once
//! at the commit point (`Gkbms::commit`) into its WAL frame, kept in
//! commit order in `Gkbms::history` and published with each version.
//! [`Gkbms::apply`] is the one map from an op to its mutator: a served
//! `Write` request carries an op and is applied by it, and so is every
//! replay. Live state is the fold of `apply` over the op stream, so
//! persisting is writing the stream down and loading is replaying it:
//! [`save_history`] writes one version's history as committed,
//! [`Gkbms::load`] re-executes it, reconstructing the KB, the design
//! objects' states, the views and every derived structure. Cascaded
//! retractions are *not* stored — replaying the explicit retraction
//! re-derives them. Admission is the live path's alone: a TELL was
//! linted when it was first told, and is applied without the lint pass
//! by every replay.
//!
//! Replay is exact, proposition ids and belief ticks included, because
//! every op — live or replayed — is one write transaction
//! ([`Gkbms::transaction`]) that opens with one tick and ticks inside
//! only as its own code does. A write that failed committed nothing
//! and was rolled back to its transaction's mark, clock and interned
//! names included: it is not in the stream and left no tick gap, so
//! the records need not carry their ticks.
//!
//! A `save` file and a checkpoint snapshot are the same thing: the
//! unframed prefix of the journal in commit order (a snapshot leads
//! with a [`JournalOp::CheckpointCovers`] header). They are written
//! crash-atomically — sibling temp file, fsync, rename over the
//! target, parent-directory fsync — so at no instant does the old
//! history cease to exist before the new one is durable, and read
//! back without ever being opened for writing.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::decisions::{DecisionClass, DecisionDimension, Discharge, Obligation, ToolSpec};
use crate::error::{GkbmsError, GkbmsResult};
use crate::journal::FRAME_HEADER;
use crate::system::{DecisionRequest, DecisionSummary, Gkbms};
use std::{path::Path, sync::Arc};
use storage::record::codec::{Cursor, Wire};
use storage::{AppendLog, StorageResult};
use telos::{Log, PropId};

storage::op_table! {
    /// One op of the replayable history — an entry of
    /// `Gkbms::history`, a journal record, a record of a saved history
    /// or snapshot, a shipped replication payload, the op of a wire
    /// `Write` request. All of them are applied by the one
    /// [`Gkbms::apply`] below.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum JournalOp {
        /// A design-object class definition.
        1 ObjectClass "object_class" {
            /// The class name.
            name: String,
            /// Its level (`Implementation`, …).
            level: String,
            /// The class it specializes, if any.
            parent: Option<String>,
        },
        /// A decision class definition.
        2 DecisionClass "decision_class" {
            /// The definition.
            class: DecisionClass,
        },
        /// A tool registration.
        3 Tool "tool" {
            /// The tool's specification.
            spec: ToolSpec,
        },
        /// A design-object registration.
        4 Register "register" {
            /// The new object's name.
            name: String,
            /// Its design-object class.
            class: String,
            /// Its source reference.
            source: String,
        },
        /// An executed decision, stored as the request that replays it.
        5 Execute "execute" {
            /// The decision as requested.
            request: DecisionRequest,
        },
        /// An explicit retraction (cascades are re-derived on replay).
        6 Retract "retract" {
            /// The decision retracted.
            name: String,
        },
        /// A recorded nogood: decisions that must not be effective
        /// together.
        7 Nogood "nogood" {
            /// The conflicting decisions.
            decisions: Vec<String>,
        },
        /// A raw TELL of frame source text.
        8 Tell "tell" {
            /// The source text (`TELL … end`, possibly several frames).
            src: String,
        },
        /// A raw UNTELL of an object.
        9 Untell "untell" {
            /// The object untold.
            name: String,
        },
        /// Snapshot-meta record: the journal op sequence a checkpoint
        /// snapshot covers — the number of ops it holds, which a load
        /// checks. Written as the first record of every checkpoint
        /// snapshot and never journaled itself; recovery skips WAL
        /// records at or below the covered sequence, which makes the
        /// snapshot's atomic rename the commit point of a checkpoint
        /// (see `Gkbms::checkpoint`).
        10 CheckpointCovers "checkpoint_covers" {
            /// The last journal op sequence the snapshot holds.
            covered_seq: u64,
            /// The sequence epoch at the checkpoint.
            epoch: u64,
        },
        /// Epoch seal: a promoted replica bumps its sequence epoch and
        /// appends this marker as its first own journal record, making
        /// the promotion point durable even before the first
        /// post-promotion mutation. Replay raises the epoch and changes
        /// no other state; records framed with a lower epoch are fenced
        /// off by a replica's admission check.
        11 Seal "seal" {
            /// The epoch the seal opens.
            epoch: u64,
        },
        /// A registered view: name plus user rules. Applied by
        /// [`Gkbms::register_view_checked`] at that point of the
        /// history — so recovery and replication register the same
        /// views, at the same ticks.
        12 RegisterView "register_view" {
            /// The view's name.
            name: String,
            /// Datalog rules over the base program (may be empty).
            rules: String,
        },
    }
}

impl Wire for DecisionDimension {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u32 = match self {
            DecisionDimension::Mapping => 0,
            DecisionDimension::Refinement => 1,
            DecisionDimension::Choice => 2,
        };
        tag.put(out);
    }
    fn get(c: &mut Cursor<'_>) -> StorageResult<Self> {
        match c.get_u32()? {
            0 => Ok(DecisionDimension::Mapping),
            1 => Ok(DecisionDimension::Refinement),
            2 => Ok(DecisionDimension::Choice),
            other => Err(c.corrupt(format!("unknown decision dimension tag {other}"))),
        }
    }
}

storage::wire_struct!(Obligation { name, statement });
storage::wire_struct!(DecisionClass {
    name,
    specializes,
    dimension,
    from_classes,
    to_classes,
    precondition,
    obligations,
});
storage::wire_struct!(ToolSpec {
    name,
    automatic,
    executes,
    guarantees,
});

impl Wire for Discharge {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Discharge::Formal { obligation } => {
                0u32.put(out);
                obligation.put(out);
            }
            Discharge::Signature { obligation, by } => {
                1u32.put(out);
                obligation.put(out);
                by.put(out);
            }
        }
    }
    fn get(c: &mut Cursor<'_>) -> StorageResult<Self> {
        let kind = c.get_u32()?;
        let obligation = String::get(c)?;
        match kind {
            0 => Ok(Discharge::Formal { obligation }),
            1 => Ok(Discharge::Signature {
                obligation,
                by: String::get(c)?,
            }),
            k => Err(c.corrupt(format!("unknown discharge kind {k}"))),
        }
    }
}

storage::wire_struct!(DecisionRequest {
    class,
    name,
    performer,
    tool,
    inputs,
    outputs,
    discharges,
});

/// What [`Gkbms::apply`] did: the result of the op's mutator.
#[derive(Debug)]
pub enum Applied {
    /// A class or tool definition, or an object registration: the
    /// proposition it told.
    Defined(PropId),
    /// A TELL: frames told. An UNTELL: propositions untold.
    Count(usize),
    /// An executed decision.
    Executed(DecisionSummary),
    /// A retraction: the design objects that went out of belief.
    Retracted(Vec<String>),
    /// A registered view: its registration tick and its CB013
    /// maintainability warnings.
    View(i64, Vec<analysis::Diagnostic>),
    /// A nogood, a seal or a snapshot header.
    Done,
}

impl Gkbms {
    /// Applies one op through its mutator, whose every path ends in
    /// `Gkbms::commit` — so an applied op lands in this instance's
    /// history (and journal) exactly as it did in the original's. The
    /// one map from an op to its mutator: a served `Write`, and every
    /// replay — recovery, `load`, a snapshot install, a follower's
    /// apply — go through it. It runs no admission: a TELL is applied
    /// without the lint pass of [`Gkbms::tell_src_checked`].
    pub fn apply(&mut self, op: JournalOp) -> GkbmsResult<Applied> {
        Ok(match op {
            JournalOp::ObjectClass {
                name,
                level,
                parent,
            } => Applied::Defined(self.define_object_class(&name, &level, parent.as_deref())?),
            JournalOp::DecisionClass { class } => {
                Applied::Defined(self.define_decision_class(class)?)
            }
            JournalOp::Tool { spec } => Applied::Defined(self.register_tool(spec)?),
            JournalOp::Register {
                name,
                class,
                source,
            } => Applied::Defined(self.register_object(&name, &class, &source)?),
            JournalOp::Execute { request } => Applied::Executed(self.execute(request)?),
            JournalOp::Retract { name } => Applied::Retracted(self.retract_decision(&name)?),
            JournalOp::Nogood { decisions } => {
                self.record_nogood(decisions)?;
                Applied::Done
            }
            JournalOp::Tell { src } => Applied::Count(self.tell_src(&src)?),
            JournalOp::Untell { name } => Applied::Count(self.untell(&name)?),
            // A header, not an op: never part of the history it leads,
            // whose length is the position and whose epoch the epoch it
            // names (both taken up by `Gkbms::from_records`).
            JournalOp::CheckpointCovers { .. } => Applied::Done,
            JournalOp::Seal { epoch } => {
                self.seal(epoch)?;
                Applied::Done
            }
            JournalOp::RegisterView { name, rules } => {
                let (registered, warnings) = self.register_view_checked(&name, &rules)?;
                Applied::View(registered, warnings)
            }
        })
    }
}

/// Decodes one op record and [applies](Gkbms::apply) it to `g`.
pub(crate) fn apply_record(g: &mut Gkbms, payload: &[u8]) -> GkbmsResult<()> {
    g.apply(JournalOp::decode(payload)?).map(drop)
}

/// Sibling temp path used by the atomic write: same directory (so the
/// rename cannot cross filesystems), distinguishable suffix.
fn save_tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `header` (if any) and then `payloads` as a record log at
/// `path`, crash-atomically: temp file, fsync, rename over the target,
/// parent-directory fsync. A crash at any point leaves either the old
/// complete file or the new one — never a partial or missing file. The
/// one writer behind `save` and checkpoint snapshots.
pub(crate) fn write_atomic<P: AsRef<[u8]>>(
    path: &Path,
    header: Option<JournalOp>,
    payloads: impl IntoIterator<Item = P>,
) -> GkbmsResult<()> {
    let tmp = save_tmp_path(path);
    let _ = std::fs::remove_file(&tmp);
    {
        let mut log = AppendLog::open(&tmp)?;
        if let Some(header) = header {
            log.append(&header.encode())?;
        }
        for payload in payloads {
            log.append(payload.as_ref())?;
        }
        log.sync()?;
    }
    std::fs::rename(&tmp, path).map_err(storage::StorageError::Io)?;
    storage::log::sync_parent_dir(path)?;
    Ok(())
}

/// Writes one version's history to `path`, crash-atomically replacing
/// any existing file (the server's `Save`, at the session's pin).
pub fn save_history(history: &Log<Arc<[u8]>>, path: impl AsRef<Path>) -> GkbmsResult<()> {
    let payloads = history.iter().map(|frame| &frame[FRAME_HEADER..]);
    write_atomic(path.as_ref(), None, payloads)
}

impl Gkbms {
    /// A fresh instance with op records — a saved history, or a
    /// snapshot, local or shipped to a journal-less replica — replayed
    /// in order through [`apply_record`]: the one loop behind
    /// [`Gkbms::load`] and journal recovery. A snapshot's leading
    /// [`JournalOp::CheckpointCovers`] must name the number of ops it
    /// holds, the position recovery skips WAL records up to; one that
    /// names another is refused. Its epoch is raised only after the
    /// replay, so each op is framed with the epoch the seals before it
    /// opened — the frame its WAL record had.
    pub fn from_records<P: AsRef<[u8]>>(payloads: &[P]) -> GkbmsResult<Gkbms> {
        let mut g = Gkbms::new()?;
        for p in payloads {
            apply_record(&mut g, p.as_ref())?;
        }
        match payloads.first().map(|p| JournalOp::decode(p.as_ref())) {
            Some(Ok(JournalOp::CheckpointCovers { covered_seq, .. }))
                if covered_seq != g.applied_seq() =>
            {
                let held = g.applied_seq();
                Err(GkbmsError::Misplaced("snapshot header", held, covered_seq))
            }
            Some(Ok(JournalOp::CheckpointCovers { epoch, .. })) => {
                g.epoch = g.epoch.max(epoch);
                Ok(g)
            }
            _ => Ok(g),
        }
    }

    /// Saves the complete history to `path`, crash-atomically replacing
    /// any existing file ([`save_history`] at the head).
    pub fn save(&self, path: impl AsRef<Path>) -> GkbmsResult<()> {
        save_history(&self.history, path)
    }

    /// Loads a saved history, re-executing it into a fresh GKBMS. The
    /// file is only ever read: a missing path is an error, not an empty
    /// GKBMS.
    pub fn load(path: impl AsRef<Path>) -> GkbmsResult<Gkbms> {
        Gkbms::from_records(&storage::log::read_payloads(path)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GkbmsError;
    use crate::metamodel::kernel;
    use crate::system::tests::scenario_gkbms;
    use std::path::PathBuf;
    use storage::record::codec;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cb-gkbms-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn full_history() -> Gkbms {
        let mut g = scenario_gkbms();
        g.define_object_class("SQL_View", "Implementation", Some(kernel::DBPL_CONSTRUCTOR))
            .unwrap();
        g.register_object(
            "Invitation",
            kernel::TDL_ENTITY_CLASS,
            "design.tdl#Invitation",
        )
        .unwrap();
        g.register_object("Minutes", kernel::TDL_ENTITY_CLASS, "design.tdl#Minutes")
            .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "mapInvitations", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        g.execute(
            DecisionRequest::new("DecNormalize", "normalize", "dev")
                .input("InvitationRel")
                .output("InvitationRel2", kernel::NORMALIZED_DBPL_REL)
                .discharge(Discharge::Signature {
                    obligation: "normalized".into(),
                    by: "dev".into(),
                }),
        )
        .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "mapMinutes", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Minutes")
                .output("MinutesRel", kernel::DBPL_REL),
        )
        .unwrap();
        g.report_conflict("keys", &["normalize", "mapMinutes"])
            .unwrap();
        g
    }

    #[test]
    fn save_load_roundtrips_state() {
        let path = tmp("roundtrip");
        let original = full_history();
        original.save(&path).unwrap();
        let loaded = Gkbms::load(&path).unwrap();
        // Same current objects.
        assert_eq!(loaded.current_objects(), original.current_objects());
        // Same records with same effectiveness.
        assert_eq!(loaded.records().len(), original.records().len());
        for (a, b) in loaded.records().iter().zip(original.records().iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.retracted, b.retracted, "{}", a.name);
            assert_eq!(a.outputs, b.outputs);
        }
        // The cascaded retraction was re-derived, not stored.
        assert!(!loaded.is_effective("mapMinutes"));
        assert!(loaded.is_effective("normalize"));
        // Nogoods survive.
        assert!(loaded.would_repeat_nogood(&["normalize", "mapMinutes"]));
        // Navigation works on the reloaded system.
        assert_eq!(
            loaded.causal_chain("InvitationRel2").unwrap(),
            vec!["mapInvitations", "normalize"]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn loaded_system_accepts_new_decisions() {
        let path = tmp("extend");
        full_history().save(&path).unwrap();
        let mut g = Gkbms::load(&path).unwrap();
        // Replay the retracted decision under a new name.
        g.replay_decision("mapMinutes", "mapMinutes2").unwrap();
        assert!(g.is_current("MinutesRel"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn raw_tells_and_untells_replay() {
        let path = tmp("tells");
        let mut g = Gkbms::new().unwrap();
        g.tell_src("TELL Paper end\nTELL kept in Paper end\nTELL gone in Paper end")
            .unwrap();
        g.untell("gone").unwrap();
        g.register_object("Spec1", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.save(&path).unwrap();
        let loaded = Gkbms::load(&path).unwrap();
        assert!(loaded.kb().lookup("kept").is_some(), "TELL replayed");
        assert!(loaded.kb().lookup("gone").is_none(), "UNTELL replayed");
        assert!(loaded.kb().lookup("Spec1").is_some());
        // The untold object's propositions are preserved as history,
        // not destroyed: the KB has more propositions than believed.
        assert!(loaded.kb().len() > loaded.kb().snapshot().believed_count());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_replaces_existing_file_atomically() {
        let path = tmp("atomic");
        let g1 = full_history();
        g1.save(&path).unwrap();
        // Saving a different history over it must fully replace it.
        let mut g2 = Gkbms::new().unwrap();
        g2.tell_src("TELL OnlyThis end").unwrap();
        g2.save(&path).unwrap();
        let loaded = Gkbms::load(&path).unwrap();
        assert!(loaded.records().is_empty());
        assert!(loaded.kb().lookup("OnlyThis").is_some());
        // No temp litter left behind.
        assert!(!save_tmp_path(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_save_preserves_existing_history() {
        let path = tmp("atomic-fail");
        let original = full_history();
        original.save(&path).unwrap();
        let before = std::fs::read(&path).unwrap();
        // Force the temp-file write to fail by occupying the temp path
        // with a directory: this "interrupts" the save before the
        // rename, like a crash mid-write would.
        let tmp_path = save_tmp_path(&path);
        std::fs::create_dir(&tmp_path).unwrap();
        assert!(original.save(&path).is_err());
        std::fs::remove_dir(&tmp_path).unwrap();
        // The target was never touched: byte-identical and loadable.
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let loaded = Gkbms::load(&path).unwrap();
        assert_eq!(loaded.records().len(), original.records().len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_temp_file_is_overwritten() {
        let path = tmp("atomic-stale");
        // A crash between temp-write and rename leaves a stale temp
        // file; the next save must replace it, not append to it.
        std::fs::write(save_tmp_path(&path), b"stale garbage").unwrap();
        full_history().save(&path).unwrap();
        assert!(!save_tmp_path(&path).exists());
        assert_eq!(
            Gkbms::load(&path).unwrap().records().len(),
            full_history().records().len()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn same_tick_events_replay_in_commit_order() {
        let path = tmp("same-tick");
        let mut g = scenario_gkbms();
        g.register_object(
            "Invitation",
            kernel::TDL_ENTITY_CLASS,
            "design.tdl#Invitation",
        )
        .unwrap();
        // Commit order: a raw TELL, then an execution, then the UNTELL
        // of what was told. No tick, category or other key orders them
        // in the file — only their position in the history does.
        g.tell_src("TELL Memo end").unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "mapInvitations", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        g.untell("Memo").unwrap();
        g.save(&path).unwrap();
        let loaded = Gkbms::load(&path).unwrap();
        // Replay preserved commit order, tell < execute < untell:
        // `Memo` is believed when the decision executes …
        let executed = loaded.record("mapInvitations").unwrap().tick;
        assert_eq!(executed, g.record("mapInvitations").unwrap().tick);
        assert!(
            loaded.kb().snapshot_at(executed).lookup("Memo").is_some(),
            "commit order lost: the execution replayed outside Memo's belief window"
        );
        // … and the untell still wins over the tell.
        assert!(loaded.kb().lookup("Memo").is_none());
        // The reloaded history is the saved one, op for op.
        let again = tmp("same-tick-again");
        loaded.save(&again).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&again).unwrap()
        );
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&again).unwrap();
    }

    #[test]
    fn retraction_of_earlier_decision_keeps_commit_order_on_same_tick() {
        let path = tmp("late-retract");
        let mut g = full_history();
        // Retract the *first* decision after every later execution and
        // the conflict that retracted `mapMinutes`.
        g.retract_decision("mapInvitations").unwrap();
        g.save(&path).unwrap();
        let loaded = Gkbms::load(&path).unwrap();
        assert!(!loaded.is_effective("mapInvitations"));
        assert_eq!(loaded.records().len(), g.records().len());
        for (a, b) in loaded.records().iter().zip(g.records().iter()) {
            assert_eq!((&a.name, a.retracted), (&b.name, b.retracted));
        }
        // The retraction replayed where it was committed — after the
        // last execution, whose tick still sees the retracted output.
        let last = loaded.records().iter().last().unwrap().tick;
        assert!(loaded
            .kb()
            .snapshot_at(last)
            .lookup("InvitationRel")
            .is_some());
        assert!(loaded.kb().lookup("InvitationRel").is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_of_a_missing_path_is_an_error_and_creates_nothing() {
        let path = tmp("missing");
        match Gkbms::load(&path) {
            Err(GkbmsError::Telos(telos::TelosError::Storage(storage::StorageError::Io(e)))) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound)
            }
            Err(other) => panic!("expected a typed NotFound, got {other}"),
            Ok(_) => panic!("a missing history loaded as an empty GKBMS"),
        }
        assert!(!path.exists(), "load created the file it could not find");
    }

    /// The fixture holds a sample per row (strings "Paper", `u64` 7,
    /// `Some` and one-element lists plus `None`/empty variants, every
    /// dimension and discharge kind) as encoded by the twelve
    /// hand-written `encode_*` functions this table replaced.
    #[test]
    fn journal_op_table_matches_the_golden_bytes() {
        JournalOp::check_golden(include_str!("../../../tests/fixtures/wire/journal_op.hex"));
        assert_eq!(JournalOp::OPS.len(), 12);
    }

    /// Appends `payload` as the only record of a fresh history file and
    /// loads it.
    fn load_single_record(name: &str, payload: &[u8]) -> GkbmsResult<Gkbms> {
        let path = tmp(name);
        {
            let mut log = AppendLog::open(&path).unwrap();
            log.append(payload).unwrap();
            log.sync().unwrap();
        }
        let loaded = Gkbms::load(&path);
        std::fs::remove_file(&path).unwrap();
        loaded
    }

    fn corrupt_detail(loaded: GkbmsResult<Gkbms>) -> String {
        match loaded {
            Ok(_) => panic!("corrupt record accepted"),
            Err(GkbmsError::Telos(telos::TelosError::Storage(
                storage::StorageError::Corrupt { detail, .. },
            ))) => detail,
            Err(other) => panic!("expected a typed corruption error, got {other}"),
        }
    }

    #[test]
    fn corrupt_opt_str_tag_in_saved_history_is_rejected() {
        // An ObjectClass record whose parent tag is 2: a lenient
        // decoder would read it as Some, masking the corruption.
        let mut p = Vec::new();
        codec::put_u32(&mut p, 1);
        codec::put_str(&mut p, "Rogue");
        codec::put_str(&mut p, "Implementation");
        codec::put_u32(&mut p, 2);
        codec::put_str(&mut p, kernel::DBPL_CONSTRUCTOR);
        let detail = corrupt_detail(load_single_record("opt-tag", &p));
        assert!(detail.contains("option tag 2"), "{detail}");
    }

    /// The hand-written replay read every discharge kind other than 0
    /// as `Signature`; a kind no encoder writes is corruption.
    #[test]
    fn unknown_discharge_kind_in_saved_history_is_rejected() {
        let mut p = Vec::new();
        codec::put_u32(&mut p, 5);
        for s in ["TDL_MappingDec", "mapInvitations", "dev"] {
            codec::put_str(&mut p, s);
        }
        for _ in 0..3 {
            codec::put_u32(&mut p, 0); // no tool, no inputs, no outputs
        }
        codec::put_u32(&mut p, 1); // one discharge …
        codec::put_u32(&mut p, 7); // … of a kind that does not exist
        codec::put_str(&mut p, "normalized");
        codec::put_str(&mut p, "dev");
        let detail = corrupt_detail(load_single_record("discharge-kind", &p));
        assert!(detail.contains("unknown discharge kind 7"), "{detail}");
    }

    /// The hand-written replay never checked that a record was
    /// consumed: bytes after a well-formed op replayed silently.
    #[test]
    fn trailing_bytes_after_a_journal_op_are_rejected() {
        let mut p = JournalOp::Tell {
            src: "TELL Paper end".into(),
        }
        .encode();
        assert!(load_single_record("trailing-ok", &p).is_ok());
        p.push(0);
        let detail = corrupt_detail(load_single_record("trailing", &p));
        assert!(detail.contains("trailing bytes after `tell`"), "{detail}");
        // The same record shipped to a replica is refused the same way.
        let mut replica = Gkbms::new().unwrap();
        assert!(replica.apply_replicated(1, 1, &p).is_err());
        assert!(replica.kb().lookup("Paper").is_none());
    }

    /// The hand-written list reader sized its allocation by a count
    /// straight from the file; a count the record cannot hold must be
    /// a clean error, not an attempted multi-gigabyte allocation.
    #[test]
    fn absurd_list_count_in_saved_history_is_a_clean_error() {
        let mut p = Vec::new();
        codec::put_u32(&mut p, 7); // Nogood
        codec::put_u32(&mut p, u32::MAX);
        codec::put_str(&mut p, "normalize");
        let detail = corrupt_detail(load_single_record("list-count", &p));
        assert!(detail.contains("truncated"), "{detail}");
    }

    #[test]
    fn garbage_file_is_rejected() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a log").unwrap();
        assert!(Gkbms::load(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_history_roundtrips() {
        let path = tmp("empty");
        let g = Gkbms::new().unwrap();
        g.save(&path).unwrap();
        let loaded = Gkbms::load(&path).unwrap();
        assert!(loaded.records().is_empty());
        assert!(loaded.current_objects().is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
