//! Crash-injection recovery harness.
//!
//! Simulates a kill at arbitrary points of the durability pipeline by
//! truncating (and flipping bytes of) copies of the on-disk state, then
//! asserts the recovery invariants:
//!
//! * **prefix durability** — every mutation whose synced WAL bytes lie
//!   at or below the crash point survives recovery;
//! * **no interior loss** — recovery replays exactly the whole records
//!   below the crash point, never skipping one in the middle;
//! * **no panics** — every injected crash yields either a recovered
//!   prefix or a typed error;
//! * **one op stream, four realizations** — the live instance, recovery
//!   from the WAL alone, recovery from a checkpoint snapshot plus the
//!   WAL tail, and a replica built from the shipped snapshot plus the
//!   shipped tail all hold the same store — its length, its clock and
//!   every proposition with both its intervals — and the same state read
//!   from it, whatever the interleaving of op kinds (failed, rolled-back
//!   writes included) and wherever the checkpoint fell;
//! * **a fifth realization, the versioned read path** — after every op
//!   the store version a server would publish answers ASK and pinned
//!   view reads from the lemmas it holds exactly as the index path and
//!   a from-scratch evaluation do;
//! * **a sixth, the carried closures** — the versions `Gkbms::capture`
//!   publishes after every op, each inheriting the ASK's and every
//!   view's closure from the one before, read at random (a random
//!   subset of the views too) so that seeds pass over unread versions,
//!   and held at random so that a successor carries a closure its
//!   pinned predecessor shares: every ASK answer is the assertion
//!   language's over the same snapshot, the model it was read from is
//!   the from-scratch closure's, every view answer is the view's
//!   program evaluated from scratch (`eval_pinned`), and a held
//!   version answers unchanged;
//! * **retraction against an oracle** — after every `Retract` of the
//!   stream, the objects reported affected, the decisions marked
//!   retracted and the objects left current equal a naive least
//!   fixpoint over the records that shares no code with the JTMS;
//! * **the design record against an oracle** — after every op, every
//!   decision class, tool and decision read back from the KB equals a
//!   record rebuilt from the committed requests and the outcomes of
//!   retraction alone, ticks included;
//! * **the design index against the reader** — after every op, and in
//!   every realization's final state, each decision the index holds is
//!   what `Record` decodes from the KB, and each streamed object's
//!   producers and users are the decisions `Record` finds along the
//!   links into it;
//! * **the design index is the fold of its store** — wherever the index
//!   is held against the reader, `DesignWriter::file` over every
//!   proposition of the store, into an empty index, gives the same
//!   index: records with their `retracted` flags, dimensions, producer
//!   and user ordinals, registrations, the current set and the recall
//!   groups; and its `retracted`, `registered` and current-object reads
//!   are what `Record` reads at the store's tick;
//! * **published indexes are persistent** — the version a server would
//!   publish after every op of the live instance and of the replica,
//!   captured as the stream runs and checked once it has ended, still
//!   holds the index of its own tick, the fold of the ids below its
//!   mark: no later write, retraction or registration leaked into it.

use conceptbase::datalog::ast::Value;
use conceptbase::datalog::db::Database;
use conceptbase::datalog::intern;
use conceptbase::datalog::seminaive::{self, EvalStats};
use conceptbase::gkbms::design::{DesignIndex, DesignWriter};
use conceptbase::gkbms::journal::{decode_framed, SNAPSHOT_FILE, WAL_FILE};
use conceptbase::gkbms::metamodel::{kernel, names};
use conceptbase::gkbms::recall::recall_similar;
use conceptbase::gkbms::record::Record;
use conceptbase::gkbms::system::DecisionRecord;
use conceptbase::gkbms::views::pinned_rows;
use conceptbase::gkbms::{
    DecisionClass, DecisionDimension, DecisionRequest, Discharge, Gkbms, GkbmsError, GkbmsResult,
    JournalOp, Published, RecallHit, ToolSpec,
};
use conceptbase::objectbase::query;
use conceptbase::storage::log::read_payloads;
use conceptbase::storage::{crash, AppendLog};
use conceptbase::telos::{Delta, Interval, KbVersion, PropId, Snapshot};
use proptest::prelude::*;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cb-crashrec-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

const PADS: usize = 8;
/// Fixed step indexes of the scripted history below.
const STEP_TELL_ADHOC: usize = 5;
const STEP_EXEC_MINUTES: usize = 6;
const STEP_UNTELL_ADHOC: usize = 7;
const STEP_RETRACT_MINUTES: usize = 8;
const STEP_FIRST_PAD: usize = 9;

/// Builds a journaled history in `dir`, syncing after every mutation
/// and recording the WAL length at each step boundary. Each step
/// appends exactly one WAL record, so whole-record boundaries and step
/// boundaries coincide.
fn build_journaled_history(dir: &Path) -> Vec<u64> {
    let wal = dir.join(WAL_FILE);
    let (mut g, report) = Gkbms::recover(dir).expect("fresh recover");
    assert_eq!(report.replayed_ops, 0);
    let mut boundaries = Vec::new();
    let mut mark = |g: &mut Gkbms| {
        g.journal_mut().expect("journaled").sync().expect("sync");
        boundaries.push(crash::file_len(&wal).expect("wal len"));
    };

    g.define_decision_class(
        DecisionClass::new("MapDec", DecisionDimension::Mapping)
            .from_classes(&[kernel::TDL_ENTITY_CLASS])
            .to_classes(&[kernel::DBPL_REL]),
    )
    .unwrap();
    mark(&mut g); // 0
    g.register_tool(ToolSpec::new("Mapper", true).executes("MapDec"))
        .unwrap();
    mark(&mut g); // 1
    g.register_object(
        "Invitation",
        kernel::TDL_ENTITY_CLASS,
        "design.tdl#Invitation",
    )
    .unwrap();
    mark(&mut g); // 2
    g.register_object("Minutes", kernel::TDL_ENTITY_CLASS, "design.tdl#Minutes")
        .unwrap();
    mark(&mut g); // 3
    g.execute(
        DecisionRequest::new("MapDec", "mapInvitations", "dev")
            .with_tool("Mapper")
            .input("Invitation")
            .output("InvitationRel", kernel::DBPL_REL),
    )
    .unwrap();
    mark(&mut g); // 4
    g.tell_src("TELL AdHoc end").unwrap();
    mark(&mut g); // 5 = STEP_TELL_ADHOC
    g.execute(
        DecisionRequest::new("MapDec", "mapMinutes", "dev")
            .with_tool("Mapper")
            .input("Minutes")
            .output("MinutesRel", kernel::DBPL_REL),
    )
    .unwrap();
    mark(&mut g); // 6 = STEP_EXEC_MINUTES
    g.untell("AdHoc").unwrap();
    mark(&mut g); // 7 = STEP_UNTELL_ADHOC
    g.retract_decision("mapMinutes").unwrap();
    mark(&mut g); // 8 = STEP_RETRACT_MINUTES
    for i in 0..PADS {
        g.tell_src(&format!("TELL Pad{i} end")).unwrap();
        mark(&mut g); // 9.. = STEP_FIRST_PAD..
    }
    boundaries
}

/// Asserts the exact state a recovery must reach after replaying the
/// first `n` steps of [`build_journaled_history`]'s script — including
/// the *absence* of later effects (an untell or retraction from beyond
/// the crash point must not have applied).
fn assert_prefix_state(g: &Gkbms, n: usize, ctx: &str) {
    let has = |name: &str| g.kb().lookup(name).is_some();
    assert_eq!(n > 0, has("MapDec"), "{ctx}: MapDec definition");
    assert_eq!(n > 1, has("Mapper"), "{ctx}: Mapper tool");
    assert_eq!(n > 2, g.is_current("Invitation"), "{ctx}: Invitation");
    assert_eq!(n > 3, g.is_current("Minutes"), "{ctx}: Minutes");
    assert_eq!(
        n > 4,
        g.is_effective("mapInvitations") && g.is_current("InvitationRel"),
        "{ctx}: mapInvitations execution"
    );
    // AdHoc is told at step 5 and untold at step 7: believed only in
    // the window, and never resurrected by a crash after the untell.
    let adhoc_believed = g.kb().snapshot().lookup("AdHoc").is_some();
    assert_eq!(
        n > STEP_TELL_ADHOC && n <= STEP_UNTELL_ADHOC,
        adhoc_believed,
        "{ctx}: AdHoc belief window"
    );
    // mapMinutes executes at step 6 and is retracted at step 8.
    assert_eq!(
        n > STEP_EXEC_MINUTES && n <= STEP_RETRACT_MINUTES,
        g.is_effective("mapMinutes") && g.is_current("MinutesRel"),
        "{ctx}: mapMinutes effectiveness window"
    );
    for i in 0..PADS {
        assert_eq!(
            n > STEP_FIRST_PAD + i,
            has(&format!("Pad{i}")),
            "{ctx}: Pad{i}"
        );
    }
}

/// The tentpole harness: a simulated crash at ≥ 200 byte offsets of the
/// live WAL. Each crash point must recover exactly the mutations whose
/// records lie fully below it — no acked-and-synced op lost, no
/// interior op skipped, no panic.
#[test]
fn wal_crash_at_hundreds_of_offsets_preserves_synced_prefix() {
    let base = tmp_dir("wal-matrix");
    let boundaries = build_journaled_history(&base);
    let full_len = *boundaries.last().expect("steps");

    let offsets = crash::crash_offsets(full_len, 256);
    assert!(
        offsets.len() >= 200,
        "need >= 200 crash points, got {} (wal is {} bytes)",
        offsets.len(),
        full_len
    );

    let work = tmp_dir("wal-matrix-work");
    for &cut in &offsets {
        crash::copy_dir(&base, &work).expect("copy journal dir");
        crash::truncate_in_place(work.join(WAL_FILE), cut).expect("inject crash");

        let (g, report) = Gkbms::recover(&work)
            .unwrap_or_else(|e| panic!("recover after crash at {cut} must not fail: {e}"));

        // Exactly the whole records below the cut replay: the synced
        // boundaries are the per-step WAL lengths.
        let expect_ops = boundaries.iter().filter(|b| **b <= cut).count();
        assert_eq!(
            report.replayed_ops, expect_ops as u64,
            "crash at {cut}: wrong replay count (interior loss or phantom op)"
        );
        assert_prefix_state(&g, expect_ops, &format!("crash at {cut}"));

        // The recovered instance stays writable: the journal reattached
        // cleanly over the truncated tail.
        let mut g = g;
        g.tell_src("TELL PostCrash end").expect("post-crash write");
        assert!(g.kb().lookup("PostCrash").is_some());
    }

    std::fs::remove_dir_all(&base).unwrap();
    std::fs::remove_dir_all(&work).unwrap();
}

/// Corruption (not truncation): flipped bytes anywhere in the WAL must
/// surface as a typed error or a clean shorter prefix — never a panic.
/// The per-record CRC makes any surviving record byte-faithful, so an
/// `Ok` recovery must land exactly on a step boundary state.
#[test]
fn wal_byte_flips_never_panic_and_keep_clean_prefixes() {
    let base = tmp_dir("wal-flips");
    let boundaries = build_journaled_history(&base);
    let full_len = *boundaries.last().expect("steps");

    let work = tmp_dir("wal-flips-work");
    for &off in crash::crash_offsets(full_len - 1, 64).iter() {
        crash::copy_dir(&base, &work).expect("copy journal dir");
        crash::flip_byte(work.join(WAL_FILE), off, 0xA5).expect("flip");

        match Gkbms::recover(&work) {
            Err(_) => {} // typed error is acceptable for corruption
            Ok((g, report)) => {
                let n = report.replayed_ops as usize;
                assert!(n <= boundaries.len(), "flip at {off}: phantom ops");
                assert_prefix_state(&g, n, &format!("flip at {off}"));
            }
        }
    }

    std::fs::remove_dir_all(&base).unwrap();
    std::fs::remove_dir_all(&work).unwrap();
}

/// Crashes injected *after* a checkpoint: the snapshot holds the
/// compacted history, and WAL cuts only ever lose post-checkpoint ops.
#[test]
fn crash_after_checkpoint_keeps_compacted_history() {
    let base = tmp_dir("ckpt");
    {
        let boundaries = build_journaled_history(&base);
        assert!(!boundaries.is_empty());
    }
    let (mut g, _) = Gkbms::recover(&base).unwrap();
    let report = g.checkpoint().unwrap();
    assert!(report.compacted_ops > 0);
    g.tell_src("TELL AfterCkpt end").unwrap();
    g.journal_mut().unwrap().sync().unwrap();
    let wal_len = crash::file_len(base.join(WAL_FILE)).unwrap();
    drop(g);
    assert!(base.join(SNAPSHOT_FILE).exists());

    let work = tmp_dir("ckpt-work");
    for cut in crash::crash_offsets(wal_len, 64) {
        crash::copy_dir(&base, &work).unwrap();
        crash::truncate_in_place(work.join(WAL_FILE), cut).unwrap();
        let (g, report) = Gkbms::recover(&work).expect("recover");
        assert!(report.snapshot_loaded);
        // Pre-checkpoint history is immune to WAL damage.
        assert!(g.is_effective("mapInvitations"));
        assert!(g.is_current("Invitation"));
        assert!(!g.is_effective("mapMinutes"));
        if cut >= wal_len {
            assert!(g.kb().lookup("AfterCkpt").is_some());
        }
    }

    std::fs::remove_dir_all(&base).unwrap();
    std::fs::remove_dir_all(&work).unwrap();
}

/// The checkpoint's commit point is the snapshot rename: a crash in
/// the window between the rename and the WAL truncation leaves a
/// snapshot that already covers every op AND a WAL still holding those
/// same ops. Recovery must drop the covered records — replaying them
/// would double-apply every mutation (or fail outright on duplicate
/// definitions) — and must complete the interrupted truncation.
#[test]
fn crash_between_snapshot_rename_and_wal_truncation_never_double_applies() {
    let base = tmp_dir("ckpt-window");
    let boundaries = build_journaled_history(&base);
    let total_steps = boundaries.len();
    let wal = base.join(WAL_FILE);
    let wal_before = std::fs::read(&wal).expect("pre-checkpoint wal");

    let (mut g, _) = Gkbms::recover(&base).unwrap();
    let report = g.checkpoint().unwrap();
    assert_eq!(report.compacted_ops, total_steps as u64);
    drop(g);

    // Crash in the window: the snapshot is published but the WAL was
    // never truncated — put the pre-checkpoint WAL bytes back.
    std::fs::write(&wal, &wal_before).unwrap();
    let (g, report) = Gkbms::recover(&base).expect("recover in window");
    assert!(report.snapshot_loaded);
    assert_eq!(report.replayed_ops, 0, "covered ops replayed");
    assert_eq!(report.skipped_ops, total_steps as u64);
    assert_prefix_state(&g, total_steps, "checkpoint window");
    // Recovery finished the checkpoint's truncation.
    assert_eq!(crash::file_len(&wal).unwrap(), 0);

    // The instance stays writable, and a further recovery sees exactly
    // the post-window history — once.
    let mut g = g;
    g.tell_src("TELL AfterWindow end").unwrap();
    g.journal_mut().unwrap().sync().unwrap();
    drop(g);
    let (g, report) = Gkbms::recover(&base).unwrap();
    assert_eq!(report.replayed_ops, 1);
    assert_eq!(report.skipped_ops, 0);
    assert_prefix_state(&g, total_steps, "after window");
    assert!(g.kb().lookup("AfterWindow").is_some());
    drop(g);

    // And the window composes with torn WAL writes: any truncation of
    // the covered WAL is still fully covered, so every cut recovers
    // the complete checkpointed state.
    let full_len = wal_before.len() as u64;
    let work = tmp_dir("ckpt-window-work");
    for cut in crash::crash_offsets(full_len, 64) {
        crash::copy_dir(&base, &work).unwrap();
        std::fs::write(work.join(WAL_FILE), &wal_before[..cut as usize]).unwrap();
        let (g, report) = Gkbms::recover(&work)
            .unwrap_or_else(|e| panic!("window + cut at {cut} must recover: {e}"));
        assert_eq!(report.replayed_ops, 0, "cut at {cut}");
        assert_prefix_state(&g, total_steps, &format!("window cut at {cut}"));
    }

    std::fs::remove_dir_all(&base).unwrap();
    std::fs::remove_dir_all(&work).unwrap();
}

/// A checkpoint snapshot's header names the number of ops it holds. A
/// snapshot whose header says otherwise is refused with a typed error,
/// by recovery and by both kinds of replica snapshot install: trusted,
/// it would make recovery replay WAL records the snapshot already holds
/// (a header below the count) or skip ones it does not (above it).
#[test]
fn a_snapshot_header_that_miscounts_its_ops_is_refused() {
    let base = tmp_dir("header-miscount");
    let total = build_journaled_history(&base).len() as u64;
    let wal_before = std::fs::read(base.join(WAL_FILE)).unwrap();
    let (mut g, _) = Gkbms::recover(&base).unwrap();
    g.checkpoint().unwrap();
    drop(g);
    let (records, _) = read_payloads(base.join(SNAPSHOT_FILE)).unwrap();
    for claimed in [total - 2, total + 1] {
        let dir = tmp_dir(&format!("header-miscount-{claimed}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut crafted = records.clone();
        crafted[0] = JournalOp::CheckpointCovers {
            covered_seq: claimed,
            epoch: 1,
        }
        .encode();
        let mut log = AppendLog::open(dir.join(SNAPSHOT_FILE)).unwrap();
        for r in &crafted {
            log.append(r).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        // The WAL a checkpoint interrupted before its truncation.
        std::fs::write(dir.join(WAL_FILE), &wal_before).unwrap();
        let refused = |what: &str, outcome: Result<(), GkbmsError>| match outcome {
            Err(GkbmsError::Misplaced("snapshot header", expected, got)) => {
                assert_eq!((expected, got), (total, claimed), "{what}")
            }
            other => panic!("{what}: a header claiming {claimed} of {total} ops gave {other:?}"),
        };
        refused("recover", Gkbms::recover(&dir).map(drop));
        refused(
            "a journal-less replica",
            Gkbms::from_records(&crafted).map(drop),
        );
        let installed = dir.join("replica");
        refused(
            "a journaled replica",
            Gkbms::install_replica_snapshot(&installed, crafted).map(drop),
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let (g, report) = Gkbms::recover(&base).expect("the true header recovers");
    assert!(report.snapshot_loaded);
    assert_prefix_state(&g, total as usize, "the true header");
    std::fs::remove_dir_all(&base).unwrap();
}

/// Recovery replays the WAL's op `n` as the history's `n`th, the check
/// `replication::admit` makes of a shipped batch: a WAL with a record
/// left out of its middle, or with one repeated, is refused with a
/// typed error instead of recovering a history that was never
/// committed. The same frames rewritten whole recover.
#[test]
fn a_wal_with_a_hole_or_a_repeated_record_is_refused() {
    let base = tmp_dir("wal-hole");
    let total = build_journaled_history(&base).len();
    let (frames, _) = read_payloads(base.join(WAL_FILE)).unwrap();
    let mid = total / 2;
    let mut hole = frames.clone();
    hole.remove(mid);
    let mut repeat = frames.clone();
    repeat.insert(mid, frames[mid].clone());
    let work = tmp_dir("wal-hole-work");
    for (what, rewritten, refused) in [
        ("intact", &frames, None),
        ("hole", &hole, Some((mid + 1, mid + 2))),
        ("repeat", &repeat, Some((mid + 2, mid + 1))),
    ] {
        crash::copy_dir(&base, &work).unwrap();
        let wal = work.join(WAL_FILE);
        std::fs::remove_file(&wal).unwrap();
        let mut log = AppendLog::open(&wal).unwrap();
        for f in rewritten {
            log.append(f).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        match (Gkbms::recover(&work), refused) {
            (Ok((g, _)), None) => assert_prefix_state(&g, total, what),
            (Err(GkbmsError::Misplaced("WAL record", expected, got)), Some(want)) => {
                assert_eq!((expected, got), (want.0 as u64, want.1 as u64), "{what}")
            }
            (outcome, _) => panic!("{what}: {:?}", outcome.map(drop)),
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
    std::fs::remove_dir_all(&work).unwrap();
}

/// Satellite: `Gkbms::load` of a truncated save file — every byte
/// offset — yields a clean prefix or a typed error, never a panic, and
/// never silently drops an event in the middle of the history.
#[test]
fn truncated_save_file_loads_clean_prefix_or_typed_error() {
    let dir = tmp_dir("load-matrix");
    std::fs::create_dir_all(&dir).unwrap();
    let saved = dir.join("history");

    const TELLS: usize = 10;
    {
        let mut g = Gkbms::new().unwrap();
        g.define_decision_class(
            DecisionClass::new("MapDec", DecisionDimension::Mapping)
                .from_classes(&[kernel::TDL_ENTITY_CLASS])
                .to_classes(&[kernel::DBPL_REL]),
        )
        .unwrap();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.execute(
            DecisionRequest::new("MapDec", "mapInvitations", "dev")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        // The TELLs are committed last, so they are the file's last
        // records: their presence indexes how deep a truncated load got.
        for i in 0..TELLS {
            g.tell_src(&format!("TELL Seq{i} end")).unwrap();
        }
        g.save(&saved).unwrap();
    }

    let full_len = crash::file_len(&saved).unwrap();
    let cut_file = dir.join("history.cut");
    for cut in crash::crash_offsets(full_len, 512) {
        crash::truncated_copy(&saved, &cut_file, cut).unwrap();
        match Gkbms::load(&cut_file) {
            Err(_) => {} // typed error, fine
            Ok(g) => {
                // No interior loss among the trailing TELLs: present
                // objects must form a gap-free prefix Seq0..Seqk.
                let present: Vec<bool> = (0..TELLS)
                    .map(|i| g.kb().lookup(&format!("Seq{i}")).is_some())
                    .collect();
                let count = present.iter().filter(|p| **p).count();
                assert!(
                    present.iter().take(count).all(|p| *p),
                    "cut at {cut}: interior TELL lost ({present:?})"
                );
                // And the definition prefix stays consistent: if the
                // execution survived, so did its decision class.
                if g.is_effective("mapInvitations") {
                    assert!(g.kb().lookup("MapDec").is_some());
                }
            }
        }
    }
    // The untruncated file loads everything.
    let g = Gkbms::load(&saved).unwrap();
    assert!(g.is_effective("mapInvitations"));
    for i in 0..TELLS {
        assert!(g.kb().lookup(&format!("Seq{i}")).is_some());
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

// ----- one op stream, four realizations ------------------------------------

/// One op of the differential stream, over a name universe small enough
/// that ops collide: redefinitions, executions whose inputs are gone,
/// TELLs under an untold class — many ops *fail*, some of them midway
/// through their KB work, and must then leave no trace.
#[derive(Debug, Clone)]
enum Op {
    ObjectClass(&'static str, Option<&'static str>),
    DecisionClass(&'static str, &'static str, &'static str),
    Tool(&'static str, &'static str),
    Register(&'static str, &'static str),
    Execute {
        class: &'static str,
        name: &'static str,
        tool: Option<&'static str>,
        input: &'static str,
        output: (&'static str, &'static str),
        discharge: Option<Discharged>,
    },
    Retract(&'static str),
    Conflict(&'static str, &'static str),
    Tell(&'static str),
    Untell(&'static str),
    View(&'static str, &'static str),
    Promote,
}

/// `(obligation, signer)` of a discharge an execution carries; without
/// a signer it is formal. No class of the stream has obligations, so a
/// discharge is documented as given and checks nothing.
type Discharged = (&'static str, Option<&'static str>);
const DISCHARGES: [Option<Discharged>; 3] =
    [None, Some(("checked", None)), Some(("keys", Some("dev")))];

const TOLD_CLASSES: [&str; 2] = ["Doc", "Memo"];
const OBJECT_CLASSES: [(&str, Option<&str>); 4] = [
    ("Sketch", None),
    ("Sketch", Some("Doc")),
    ("Draft", Some("Sketch")),
    ("Draft", Some(kernel::DBPL_REL)),
];
/// `(name, from, to)`; `DocDec` fails midway unless both told/defined
/// classes exist at that point of the history.
const DECISION_CLASSES: [(&str, &str, &str); 3] = [
    ("MapDec", kernel::TDL_ENTITY_CLASS, kernel::DBPL_REL),
    ("RefDec", kernel::DBPL_REL, kernel::DBPL_REL),
    ("DocDec", "Doc", "Sketch"),
];
const TOOLS: [(&str, &str); 3] = [
    ("Mapper", "MapDec"),
    ("Refiner", "RefDec"),
    ("Scribe", "DocDec"),
];
const REGISTRATIONS: [(&str, &str); 5] = [
    ("inv0", kernel::TDL_ENTITY_CLASS),
    ("inv1", kernel::TDL_ENTITY_CLASS),
    ("doc0", "Doc"),
    ("rel0", kernel::DBPL_REL),
    ("d0", "Sketch"),
];
const DECISIONS: [&str; 6] = ["x0", "x1", "x2", "x3", "x4", "x5"];
/// `(class, tool, input, output)` of executions that succeed whenever
/// their class, tool and input exist at that point of the history.
const PLAUSIBLE: [(&str, Option<&str>, &str, &str); 8] = [
    ("MapDec", Some("Mapper"), "inv0", "rel0"),
    ("MapDec", None, "inv0", "rel1"),
    ("MapDec", Some("Mapper"), "inv1", "rel1"),
    ("MapDec", None, "inv1", "rel2"),
    ("RefDec", None, "rel0", "rel1"),
    ("RefDec", Some("Refiner"), "rel0", "rel2"),
    ("RefDec", None, "rel1", "rel2"),
    ("DocDec", None, "doc0", "sk0"),
];
const TOOL_CHOICES: [Option<&str>; 3] = [None, Some("Mapper"), Some("Refiner")];
const INPUTS: [&str; 5] = ["inv0", "inv1", "doc0", "rel0", "rel1"];
const OUTPUTS: [(&str, &str); 5] = [
    ("rel0", kernel::DBPL_REL),
    ("rel1", kernel::DBPL_REL),
    ("rel2", kernel::DBPL_REL),
    ("sk0", "Sketch"),
    // Never among any TO classes: aborts after the decision instance
    // and its links were told.
    ("wrong", kernel::TDL_ENTITY_CLASS),
];
const TELLS: [&str; 13] = [
    "TELL Doc end",
    "TELL Memo isA Doc end",
    "TELL d0 in Doc end",
    "TELL m0 in Memo end",
    "TELL Doc end\nTELL d1 in Doc end",
    "TELL d1 in Doc with attribute ref : d0 end",
    REF_CHAIN,
    // Deliberately failing batches: the first frame is told, then the
    // second names a class that never exists.
    "TELL Memo end\nTELL ghost in Nope end",
    "TELL d2 in Doc end\nTELL d3 in Doc with attribute ref : nobody end",
    "TELL ghost in Nope end",
    FORGED_DECISION,
    FORGED_RETRACTION,
    // Shapes a name the stream executes under like a decision of both
    // decision classes, before or after it is one.
    "TELL x1 in RefDec with attribute performer : dev; to : rel1 end\nTELL x1 in MapDec end",
];
/// A second `ref` link, so that `d2` reaches `d0` only through `d1`.
const REF_CHAIN: &str = "TELL d2 in Doc with attribute ref : d1 end";
/// A raw TELL of an individual with every link an execution of `MapDec`
/// tells; it succeeds once `dev`, `inv0` and `rel0` exist.
const FORGED_DECISION: &str =
    "TELL fake in MapDec with attribute performer : dev; from : inv0; to : rel0 end";
/// A raw TELL of the `status` a retraction tells.
const FORGED_RETRACTION: &str = "TELL retracted end\nTELL x3 with attribute status : retracted end";
const UNTELLS: [&str; 8] = ["Doc", "Memo", "d0", "d1", "m0", "inv0", "rel0", "Sketch"];
/// The registered views: the base closure alone, a user rule, a
/// recursive one (what a `ref` link or a decision's input reaches,
/// transitively) and one with stratified negation.
const VIEWS: [(&str, &str); 4] = [
    ("v0", ""),
    ("v1", "tagged(X) :- in_(X, _C)."),
    ("v2", REACH),
    (
        "v3",
        "refd(X) :- attr(_Y, ref, X).\nunrefd(X) :- in_(X, \"Doc\"), not refd(X).",
    ),
];
const REACH: &str = "step(X, Y) :- attr(X, ref, Y).\n\
                     step(X, Y) :- attr(D, from, X), attr(D, to, Y).\n\
                     reach(X, Y) :- step(X, Y).\n\
                     reach(X, Z) :- reach(X, Y), step(Y, Z).";
/// Every predicate a registered view's model can hold.
const VIEW_PREDS: [&str; 10] = [
    "in_", "isa", "attr", "isaT", "inT", "tagged", "step", "reach", "refd", "unrefd",
];

/// A stream always starts from enough schema for later ops to succeed
/// as often as they fail.
fn prelude() -> Vec<Op> {
    vec![
        Op::DecisionClass("MapDec", kernel::TDL_ENTITY_CLASS, kernel::DBPL_REL),
        Op::DecisionClass("RefDec", kernel::DBPL_REL, kernel::DBPL_REL),
        Op::Tool("Mapper", "MapDec"),
        Op::Register("inv0", kernel::TDL_ENTITY_CLASS),
        Op::Register("inv1", kernel::TDL_ENTITY_CLASS),
        Op::Tell("TELL Doc end"),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..16, 0usize..60, 0usize..60, 0usize..60).prop_map(|(kind, a, b, c)| {
        fn pick<T: Copy>(pool: &[T], i: usize) -> T {
            pool[i % pool.len()]
        }
        match kind {
            0 => {
                let (name, parent) = pick(&OBJECT_CLASSES, a);
                Op::ObjectClass(name, parent)
            }
            1 => {
                let (name, from, to) = pick(&DECISION_CLASSES, a);
                Op::DecisionClass(name, from, to)
            }
            2 => {
                let (name, executes) = pick(&TOOLS, a);
                Op::Tool(name, executes)
            }
            3 | 4 => {
                let (name, class) = pick(&REGISTRATIONS, a);
                Op::Register(name, class)
            }
            5 | 6 => {
                let (class, tool, input, output) = pick(&PLAUSIBLE, a);
                let output_class = if class == "DocDec" {
                    "Sketch"
                } else {
                    kernel::DBPL_REL
                };
                Op::Execute {
                    class,
                    name: pick(&DECISIONS, b),
                    tool,
                    input,
                    output: (output, output_class),
                    discharge: pick(&DISCHARGES, c),
                }
            }
            7 => Op::Execute {
                class: pick(&DECISION_CLASSES, a).0,
                name: pick(&DECISIONS, b),
                tool: pick(&TOOL_CHOICES, c),
                input: pick(&INPUTS, a / 3),
                output: pick(&OUTPUTS, c / 3),
                discharge: pick(&DISCHARGES, b / 6),
            },
            8 => Op::Retract(pick(&DECISIONS, a)),
            9 => Op::Conflict(pick(&DECISIONS, a), pick(&DECISIONS, b)),
            10..=12 => Op::Tell(pick(&TELLS, a)),
            13 => Op::Untell(pick(&UNTELLS, a)),
            14 => {
                let (name, rules) = pick(&VIEWS, a);
                Op::View(name, rules)
            }
            _ => Op::Promote,
        }
    })
}

/// The decision class a `DecisionClass` op defines.
fn decision_class(name: &str, from: &str, to: &str) -> DecisionClass {
    let dc = DecisionClass::new(name, DecisionDimension::Mapping);
    dc.from_classes(&[from]).to_classes(&[to])
}

/// The tool a `Tool` op registers.
fn tool(name: &str, executes: &str) -> ToolSpec {
    ToolSpec::new(name, true).executes(executes)
}

/// The request an `Execute` op sends.
fn request(op: &Op) -> Option<DecisionRequest> {
    let Op::Execute {
        class,
        name,
        tool,
        input,
        output,
        discharge,
    } = *op
    else {
        return None;
    };
    let mut req = DecisionRequest::new(class, name, "dev")
        .input(input)
        .output(output.0, output.1);
    req.tool = tool.map(str::to_string);
    req.discharges.extend(discharge.map(|(obligation, signer)| {
        let obligation = obligation.to_string();
        match signer {
            None => Discharge::Formal { obligation },
            Some(by) => Discharge::Signature {
                obligation,
                by: by.to_string(),
            },
        }
    }));
    Some(req)
}

/// Applies `op` through the public mutation API; whether it succeeded
/// is part of what the realizations must agree on.
fn apply(g: &mut Gkbms, op: &Op) -> GkbmsResult<()> {
    match *op {
        Op::ObjectClass(name, parent) => g
            .define_object_class(name, "Implementation", parent)
            .map(drop),
        Op::DecisionClass(name, from, to) => g
            .define_decision_class(decision_class(name, from, to))
            .map(drop),
        Op::Tool(name, executes) => g.register_tool(tool(name, executes)).map(drop),
        Op::Register(name, class) => g.register_object(name, class, "design.tdl").map(drop),
        Op::Execute { .. } => g.execute(request(op).expect("an execute")).map(drop),
        Op::Retract(name) => g.retract_decision(name).map(drop),
        Op::Conflict(a, b) => g.report_conflict("differential", &[a, b]).map(drop),
        Op::Tell(src) => g.tell_src(src).map(drop),
        Op::Untell(name) => g.untell(name).map(drop),
        Op::View(name, rules) => g.register_view(name, rules).map(drop),
        Op::Promote => g.promote().map(drop),
    }
}

/// Everything two realizations of one op stream must agree on: the
/// store itself — its length, its clock and every proposition with its
/// two intervals — and everything read from it.
#[derive(Debug, PartialEq)]
struct Digest {
    len: usize,
    now: i64,
    /// Every proposition as `(source, label, dest, history, belief)`.
    props: Vec<(PropId, String, PropId, Interval, Interval)>,
    believed: usize,
    /// The believed extent of every told class (`None`: not believed).
    extents: Vec<Option<Vec<String>>>,
    current_objects: Vec<String>,
    /// The design record read back from the KB.
    design: Design,
    /// The events of every object the stream executes against, with
    /// their ticks (`None`: not a design object).
    histories: Vec<Option<Vec<(i64, String)>>>,
    /// Per record, its `recall_similar(name, 5)` rows `(decision, score
    /// bits, retracted)`: the recall index each realization rebuilt.
    recall: Vec<Vec<(String, u64, bool)>>,
    nogoods: Vec<Vec<String>>,
    epoch: u64,
    /// The op position the state reports: the length of its history,
    /// whatever realization — WAL, snapshot + tail, replica, save +
    /// load — rebuilt it.
    applied_seq: u64,
    /// Per view, per predicate, its tuples.
    views: Vec<(String, Vec<Vec<String>>)>,
}

impl Digest {
    /// Also holds `g`'s design index against its KB.
    fn of(g: &Gkbms) -> Digest {
        index_agrees(g.kb().snapshot(), g.records(), "the digested state");
        let extents = TOLD_CLASSES
            .iter()
            .map(|class| {
                g.kb().lookup(class)?;
                let mut names = query::ask(&g.kb().snapshot(), "x", class, "true").expect("ask");
                names.sort();
                Some(names)
            })
            .collect();
        // One closure per view: a bare version of the head keeps the
        // model its first read builds, and every later predicate hits it.
        let head = g.kb().version();
        let views = g
            .views()
            .iter()
            .map(|v| {
                let per_pred = (VIEW_PREDS.iter().enumerate())
                    .map(|(i, pred)| {
                        let read = pinned_rows(&head, head.now(), v, pred).expect("view read");
                        let (mut rows, scratch) = read;
                        assert_eq!(scratch, i == 0, "{}: one build per view", v.name());
                        rows.rows().tuples().map(|t| format!("{t:?}")).collect()
                    })
                    .collect();
                (v.name().to_string(), per_pred)
            })
            .collect();
        let kb = g.kb();
        let props = (0..kb.len() as u32).map(|i| {
            let p = kb.get(PropId(i)).expect("in bounds");
            let label = kb.resolve(p.label).to_string();
            (p.source, label, p.dest, p.history, p.belief(kb.now()))
        });
        Digest {
            len: kb.len(),
            now: kb.now(),
            props: props.collect(),
            believed: kb.snapshot().believed_count(),
            extents,
            current_objects: g.current_objects(),
            design: Design::read(g.kb().snapshot(), g),
            histories: (INPUTS.iter().chain(OUTPUTS.iter().map(|(o, _)| o)))
                .map(|o| g.object_history(o).ok())
                .collect(),
            recall: recall_rows(g),
            nogoods: g.nogoods().to_vec(),
            epoch: g.epoch(),
            applied_seq: g.applied_seq(),
            views,
        }
    }
}

/// The rows of [`Digest::recall`].
fn recall_rows(g: &Gkbms) -> Vec<Vec<(String, u64, bool)>> {
    let row = |h: RecallHit| (h.decision, h.score.to_bits(), h.retracted);
    let rows = |name| g.recall_similar(name, 5).expect("recall a record");
    let records = g.records().iter();
    records
        .map(|r| rows(&r.record.name).into_iter().map(row).collect())
        .collect()
}

// ----- the design record and its oracle ---------------------------------------

/// Every decision class, tool and decision of a design record, with
/// whether each decision was retracted.
#[derive(Debug, Default, PartialEq)]
struct Design {
    classes: Vec<DecisionClass>,
    tools: Vec<ToolSpec>,
    decisions: Vec<DecisionRecord>,
    retracted: Vec<bool>,
}

impl Design {
    /// What `gkbms::record` reads back from `snap`: every class and tool
    /// believed there, in the order defined, and each decision `g`
    /// executed that `snap` has seen committed.
    fn read(snap: Snapshot<'_>, g: &Gkbms) -> Design {
        let reader = Record::over(snap);
        let class = |c| reader.decision_class(c).expect("a class reads back");
        let tool = |t| reader.tool(t).expect("a tool reads back");
        let decisions: Vec<DecisionRecord> = (g.records().iter())
            .filter_map(|e| reader.decision(e.prop))
            .collect();
        Design {
            classes: reader.decision_classes().into_iter().map(class).collect(),
            tools: reader.tools().into_iter().map(tool).collect(),
            retracted: (decisions.iter())
                .map(|r| reader.retracted_at(r.prop).is_some())
                .collect(),
            decisions,
        }
    }

    /// Marks `culprit` retracted, and with it every decision that
    /// produced one of the `affected` objects its retraction reported.
    fn retract(&mut self, culprit: &str, affected: &[String]) {
        for (r, retracted) in self.decisions.iter().zip(&mut self.retracted) {
            *retracted |= r.name == culprit || r.outputs.iter().any(|o| affected.contains(o));
        }
    }
}

/// The objects current under `retracted` (record positions): the least
/// set holding every registered object and every output of a
/// non-retracted decision all of whose inputs are in it.
fn current_by_fixpoint(
    oracle: &Design,
    registered: &BTreeSet<&str>,
    retracted: &BTreeSet<usize>,
) -> BTreeSet<String> {
    let mut current: BTreeSet<String> = registered.iter().map(|o| o.to_string()).collect();
    loop {
        let before = current.len();
        for (i, r) in oracle.decisions.iter().enumerate() {
            if !retracted.contains(&i) && r.inputs.iter().all(|o| current.contains(o)) {
                current.extend(r.outputs.iter().cloned());
            }
        }
        if current.len() == before {
            return current;
        }
    }
}

/// What retracting `name` must report and leave behind — `(affected,
/// retracted decisions, current objects)` — computed from the oracle's
/// records alone: a decision with a non-current output is retracted
/// with it, to a fixpoint.
fn retraction_oracle(
    oracle: &Design,
    registered: &BTreeSet<&str>,
    name: &str,
) -> (Vec<String>, Vec<String>, Vec<String>) {
    let records = &oracle.decisions;
    let mut retracted: BTreeSet<usize> = (0..records.len())
        .filter(|&i| oracle.retracted[i])
        .collect();
    let was_current = current_by_fixpoint(oracle, registered, &retracted);
    retracted.extend(records.iter().position(|r| r.name == name));
    let current = loop {
        let current = current_by_fixpoint(oracle, registered, &retracted);
        let before = retracted.len();
        retracted.extend((0..records.len()).filter(|&i| {
            let dangling = |o| !current.contains(o);
            records[i].outputs.iter().any(dangling)
        }));
        if retracted.len() == before {
            break current;
        }
    };
    (
        was_current.difference(&current).cloned().collect(),
        retracted.iter().map(|&i| records[i].name.clone()).collect(),
        current.into_iter().collect(),
    )
}

/// [`apply`], with the oracle kept beside it: the parent's mirror of
/// the design record, rebuilt from the committed requests and the
/// outcomes of retraction alone. After every op the reader must give
/// back exactly the oracle, ticks included; every successful
/// retraction is also held against the retraction oracle, and every
/// successful registration remembered for it.
fn apply_checked(
    g: &mut Gkbms,
    op: &Op,
    oracle: &mut Design,
    registered: &mut BTreeSet<&'static str>,
) -> GkbmsResult<()> {
    let outcome = apply_documented(g, op, oracle, registered);
    assert_eq!(
        Design::read(g.kb().snapshot(), g),
        *oracle,
        "the design record after {op:?} ({outcome:?})"
    );
    index_agrees(g.kb().snapshot(), g.records(), &format!("after {op:?}"));
    // The reads that find decisions by the links into an object, and
    // those that walk the design index, find exactly the executed ones.
    for o in STREAMED_OBJECTS {
        let (history, upstream) = oracle_reads(oracle, o);
        let events = g.object_history(o).map(|h| h.into_iter().map(|(_, e)| e));
        let mut events: Vec<String> = events.into_iter().flatten().collect();
        events.sort();
        assert_eq!(events, history, "the history of {o} after {op:?}");
        // A design object is one registered or produced, retracted or not.
        let produced = |r: &DecisionRecord| r.outputs.iter().any(|x| x == o);
        let known = registered.contains(o) || oracle.decisions.iter().any(produced);
        match (g.causal_chain(o), known) {
            (Ok(mut chain), true) => {
                chain.sort();
                assert_eq!(
                    chain, upstream,
                    "the decisions upstream of {o} after {op:?}"
                );
            }
            (Err(_), false) => {}
            (got, _) => panic!("the decisions upstream of {o} after {op:?}: {got:?}"),
        }
    }
    outcome
}

/// Every object the stream registers, executes against or produces.
const STREAMED_OBJECTS: [&str; 9] = [
    "inv0", "inv1", "doc0", "d0", "rel0", "rel1", "rel2", "sk0", "wrong",
];

/// The design index `design` against the `Record` reader over `snap`,
/// a snapshot of the store it was captured with at the capture tick:
/// every entry of `records()` is what the reader decodes from its
/// proposition, ticks included, and the producers and users of every
/// streamed object are the decisions the reader finds along the `to`
/// and `from` links into it that name it as an output or an input (a
/// raw TELL can link a decision to an object its execution did not
/// name). The index is also the one its store files from scratch.
fn index_agrees(snap: Snapshot<'_>, design: &DesignIndex, ctx: &str) {
    let store = snap.store();
    let every: Vec<PropId> = (0..store.len() as u32).map(PropId).collect();
    let mut folded = DesignWriter::default();
    folded.file(store, &every);
    assert!(
        *folded == *design,
        "{ctx}: the index is not the fold of its store"
    );
    let recall = |index| {
        let rows = (design.iter()).map(|r| recall_similar(snap, index, &r.record.name, 5));
        rows.map(|hits| hits.expect("recall a record"))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        recall(&folded),
        recall(design),
        "{ctx}: the folded recall groups"
    );
    let reader = Record::over(snap);
    for r in design.iter() {
        let decoded = reader.decision(r.prop);
        assert_eq!(
            Some(r.record),
            decoded.as_ref(),
            "{ctx}: {} in the index",
            r.name
        );
        assert_eq!(
            r.retracted,
            reader.retracted_at(r.prop).is_some(),
            "{ctx}: {} retracted",
            r.name
        );
    }
    let reaching = |o: &str, label, named: fn(&DecisionRecord) -> &[String]| {
        let mut found = reader.decisions_reaching(o, &[label]);
        found.retain(|r| named(r).iter().any(|x| x == o));
        found
    };
    for o in STREAMED_OBJECTS {
        let producers = design.producers(store, o).map(|r| r.record.clone());
        let by_to = reaching(o, names::TO_I, |r| &r.outputs);
        assert_eq!(
            producers.collect::<Vec<_>>(),
            by_to,
            "{ctx}: the producers of {o}"
        );
        let users = design.users(store, o).map(|r| r.record.clone());
        let by_from = reaching(o, names::FROM_I, |r| &r.inputs);
        assert_eq!(
            users.collect::<Vec<_>>(),
            by_from,
            "{ctx}: the users of {o}"
        );
        let registered = reader.registered(o);
        assert_eq!(
            design.registered(store, o),
            registered,
            "{ctx}: {o} registered"
        );
        let effective = |r: &DecisionRecord| reader.retracted_at(r.prop).is_none();
        let current = registered || by_to.iter().any(effective);
        assert_eq!(
            design.is_current(store, o).unwrap_or(false),
            current,
            "{ctx}: {o} current"
        );
    }
}

/// What the oracle says of `object`: the events of its history and the
/// decisions upstream of it, each sorted.
fn oracle_reads(oracle: &Design, object: &str) -> (Vec<String>, Vec<String>) {
    let mut history = Vec::new();
    for (r, &retracted) in oracle.decisions.iter().zip(&oracle.retracted) {
        if r.outputs.iter().any(|o| o == object) {
            history.push(format!("created by {}", r.name));
            if retracted {
                history.push(format!("retracted with {}", r.name));
            }
        }
        if r.inputs.iter().any(|i| i == object) {
            history.push(format!("used by {}", r.name));
        }
    }
    history.sort();
    let mut upstream: BTreeSet<&str> = BTreeSet::new();
    let mut frontier = vec![object];
    while let Some(cur) = frontier.pop() {
        for r in oracle
            .decisions
            .iter()
            .filter(|r| r.outputs.iter().any(|o| o == cur))
        {
            if upstream.insert(&r.name) {
                frontier.extend(r.inputs.iter().map(String::as_str));
            }
        }
    }
    (history, upstream.into_iter().map(str::to_string).collect())
}

fn apply_documented(
    g: &mut Gkbms,
    op: &Op,
    oracle: &mut Design,
    registered: &mut BTreeSet<&'static str>,
) -> GkbmsResult<()> {
    match *op {
        Op::DecisionClass(name, from, to) => {
            let dc = decision_class(name, from, to);
            g.define_decision_class(dc.clone())?;
            oracle.classes.push(dc);
        }
        Op::Tool(name, executes) => {
            g.register_tool(tool(name, executes))?;
            oracle.tools.push(tool(name, executes));
        }
        Op::Execute { .. } => {
            let req = request(op).expect("an execute");
            let tick = g.execute(req.clone())?.tick;
            oracle.decisions.push(DecisionRecord {
                prop: g.kb().lookup(&req.name).expect("the decision individual"),
                name: req.name,
                class: req.class,
                performer: req.performer,
                tool: req.tool,
                inputs: req.inputs,
                outputs: req.outputs.iter().map(|(o, _)| o.clone()).collect(),
                output_classes: req.outputs.into_iter().map(|(_, c)| c).collect(),
                discharges: req.discharges,
                tick,
            });
            oracle.retracted.push(false);
        }
        Op::Retract(name) => {
            let (affected, retracted, current) = retraction_oracle(oracle, registered, name);
            let got = g.retract_decision(name)?;
            assert_eq!(got, affected, "affected by retracting {name}");
            let marked = g.records().iter().filter(|r| r.retracted);
            let marked: Vec<String> = marked.map(|r| r.record.name.clone()).collect();
            assert_eq!(marked, retracted, "retracted with {name}");
            assert_eq!(g.current_objects(), current, "current after {name}");
            oracle.retract(name, &got);
        }
        Op::Conflict(a, b) => {
            let resolved = g.report_conflict("differential", &[a, b])?;
            oracle.retract(&resolved.culprit, &resolved.affected);
        }
        Op::Register(name, _) => {
            apply(g, op)?;
            registered.insert(name);
        }
        _ => apply(g, op)?,
    }
    Ok(())
}

/// What one ASK of a told class answered: names and the counters of the
/// evaluation behind them, or `None` when the class was not believed.
type Asked = Option<(Vec<Cow<'static, str>>, EvalStats)>;

fn ask_version(v: &KbVersion, at: i64, class: &str) -> Asked {
    query::ask_with_stats_version(v, at, "x", class, "true").ok()
}

/// The versioned read path, held against its oracles at the store
/// version a server would publish after this op. `earlier` is the
/// version captured after the previous op with what it answered then.
fn versioned_reads_agree(g: &Gkbms, earlier: &mut Option<(KbVersion, Vec<Asked>)>, ctx: &str) {
    let v = g.kb().version();
    let at = v.now();
    assert_eq!(
        Design::read(v.snapshot(), g),
        Design::read(g.kb().snapshot(), g),
        "{ctx}: the design record read from the version"
    );
    // The benchmark's traced gate: an ASK reports the counters of a
    // from-scratch closure over the full export of its version.
    let edb = query::to_edb_at_store(&v, at).expect("export");
    let (_, scratch) = seminaive::evaluate(&query::base_program(), &edb).expect("closure");
    let mut answered = Vec::new();
    for class in TOLD_CLASSES {
        let miss = ask_version(&v, at, class);
        assert_eq!(
            ask_version(&v, at, class),
            miss,
            "{ctx}: {class}, hit vs miss"
        );
        assert_eq!(
            miss.is_some(),
            v.snapshot().lookup(class).is_some(),
            "{ctx}: {class} is asked iff it is believed"
        );
        if let Some((names, stats)) = &miss {
            let mut indexed = query::ask(&v.snapshot(), "x", class, "true").expect("ask");
            indexed.sort();
            assert_eq!(names, &indexed, "{ctx}: {class}, bridge vs index path");
            assert_eq!(stats, &scratch, "{ctx}: {class}, the ask's counters");
        }
        // Below the capture tick nothing is remembered, and the version
        // answers like the live KB asked about its past through the
        // assertion language.
        let earlier_names = ask_version(&v, at - 1, class)
            .map(|(names, _)| names.into_iter().map(Cow::into_owned).collect::<Vec<_>>());
        let mut past = query::ask(&g.kb().snapshot_at(at - 1), "x", class, "true").ok();
        if let Some(names) = &mut past {
            names.sort();
        }
        assert_eq!(earlier_names, past, "{ctx}: {class} one tick earlier");
        answered.push(miss);
    }
    // No leakage between versions: the one captured before this op
    // still answers what it answered then.
    if let Some((before, then)) = earlier {
        let now: Vec<Asked> = TOLD_CLASSES
            .iter()
            .map(|class| ask_version(before, before.now(), class))
            .collect();
        assert_eq!(
            &now, then,
            "{ctx}: the previous version changed its answers"
        );
    }
    // A view read at this version through its lemmas is the view's
    // program evaluated from scratch.
    for view in g.views() {
        for pred in VIEW_PREDS
            .iter()
            .filter(|pred| view.check_pred(pred).is_ok())
        {
            let (mut pinned, _) = pinned_rows(&v, at, view, pred).expect("pinned view read");
            let pinned: Vec<_> = pinned.rows().tuples().collect();
            let name = view.name();
            assert_eq!(
                pinned,
                view.eval_pinned(&v, at, pred).expect("eval_pinned"),
                "{ctx}: view {name}, {pred} at the version"
            );
        }
    }
    *earlier = Some((v, answered));
}

/// Runs `ops` with a checkpoint before op `k` (after the last one when
/// `k == ops.len()`) and holds every realization against the live
/// instance. Returns how many ops succeeded and how many failed.
/// `tag` keeps concurrently running callers in directories of their own.
fn four_realizations_agree(tag: &str, ops: &[Op], k: usize) -> (usize, usize) {
    let checkpointed = tmp_dir(&format!("{tag}-ckpt"));
    let wal_only = tmp_dir(&format!("{tag}-wal"));
    let (mut live, _) = Gkbms::recover(&checkpointed).expect("fresh journal");
    let (mut twin, _) = Gkbms::recover(&wal_only).expect("fresh journal");
    // A conflict report commits two ops (the nogood, then the culprit's
    // retraction); every other successful op commits one.
    let (mut ok, mut failed, mut committed) = (0, 0, 0);
    let mut earlier = None;
    let (mut oracle, mut registered) = (Design::default(), BTreeSet::new());
    // The version a server would publish after each op, checked once
    // every later op has run.
    let mut published: Vec<(String, Published)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if i == k {
            live.checkpoint().expect("checkpoint");
        }
        let outcome = apply_checked(&mut live, op, &mut oracle, &mut registered);
        versioned_reads_agree(&live, &mut earlier, &format!("after op {i} {op:?}"));
        assert_eq!(
            outcome.is_ok(),
            apply(&mut twin, op).is_ok(),
            "op {i} {op:?}: checkpointing changed its outcome ({outcome:?})"
        );
        published.push((
            format!("the live version after op {i} {op:?}"),
            live.capture(),
        ));
        index_agrees(
            twin.kb().snapshot(),
            twin.records(),
            &format!("the twin after op {i} {op:?}"),
        );
        assert_eq!(
            recall_rows(&twin),
            recall_rows(&live),
            "op {i} {op:?}: recall"
        );
        match outcome {
            Ok(()) => {
                ok += 1;
                committed += if matches!(op, Op::Conflict(..)) { 2 } else { 1 };
            }
            Err(_) => failed += 1,
        }
    }
    if k == ops.len() {
        live.checkpoint().expect("checkpoint");
    }
    let want = Digest::of(&live);
    assert_eq!(Digest::of(&twin), want, "the never-checkpointed twin");

    // save → load → save: the file is the history, so it round-trips
    // byte for byte — and loads into the same state.
    let (first, second) = (checkpointed.join("saved"), checkpointed.join("resaved"));
    live.save(&first).expect("save");
    let loaded = Gkbms::load(&first).expect("load");
    assert_eq!(Digest::of(&loaded), want, "save + load");
    loaded.save(&second).expect("save again");
    assert_eq!(
        std::fs::read(&first).unwrap(),
        std::fs::read(&second).unwrap(),
        "save → load → save is not byte-identical"
    );

    for g in [&mut live, &mut twin] {
        g.journal_mut().expect("journaled").sync().expect("sync");
    }
    drop((live, twin));

    let (recovered, report) = Gkbms::recover(&wal_only).expect("recover from the WAL alone");
    assert!(!report.snapshot_loaded);
    assert_eq!(report.replayed_ops, committed);
    assert_eq!(Digest::of(&recovered), want, "recovered from the WAL alone");

    let (recovered, report) = Gkbms::recover(&checkpointed).expect("recover from snapshot + tail");
    assert!(report.snapshot_loaded);
    assert_eq!(
        Digest::of(&recovered),
        want,
        "recovered from snapshot + tail"
    );
    drop(recovered);

    // What a leader ships to a follower behind the horizon: the
    // snapshot file's records, then the framed WAL tail.
    let (snapshot, _) = read_payloads(checkpointed.join(SNAPSHOT_FILE)).expect("snapshot");
    let mut replica = Gkbms::from_records(&snapshot).expect("replica from snapshot");
    published.push(("the replica's snapshot".into(), replica.capture()));
    let (tail, _) = read_payloads(checkpointed.join(WAL_FILE)).expect("wal");
    for framed in &tail {
        let (seq, epoch, payload) = decode_framed(framed).expect("frame");
        replica
            .apply_replicated(seq, epoch, payload)
            .expect("replicated op");
        let ctx = format!("the replica's version after shipped op {seq}");
        published.push((ctx, replica.capture()));
    }
    assert_eq!(Digest::of(&replica), want, "replica from snapshot + tail");
    for (ctx, version) in &published {
        index_agrees(version.kb.snapshot(), &version.design, ctx);
    }

    std::fs::remove_dir_all(&checkpointed).unwrap();
    std::fs::remove_dir_all(&wal_only).unwrap();
    (ok, failed)
}

/// Every class the carried realization asks: the told ones and what
/// registrations, executions and object classes populate.
const ASKED_CLASSES: [&str; 5] = [
    "Doc",
    "Memo",
    "Sketch",
    kernel::DBPL_REL,
    kernel::TDL_ENTITY_CLASS,
];

/// Per asked class, its answer names, or `None` when it is not believed.
type Answers = Vec<Option<Vec<String>>>;

/// What every asked class answered at `v`'s capture tick.
fn answers(v: &KbVersion) -> Answers {
    ASKED_CLASSES
        .iter()
        .map(|class| {
            ask_version(v, v.now(), class)
                .map(|(names, _)| names.into_iter().map(Cow::into_owned).collect())
        })
        .collect()
}

/// One class extent as `(name, id)` pairs sorted by name.
type Members = Vec<(String, PropId)>;

/// `v`'s ASK closure against its oracles: the `in_`, `isa`, `isaT` and
/// `inT` rows equal a from-scratch evaluation's over the full export,
/// and every answer equals the assertion language's over the same
/// snapshot — with a body of `true` and with one that reads the
/// variable, so each candidate's id is evaluated. Each asked class's
/// served extent, carried and patched or built, equals in names and ids
/// both what a build over the scratch model holds and the believed
/// individuals `Snapshot::all_instances_of` walks to: the membership
/// half of one inheritance semantics, with no datalog in the oracle.
/// Returns the answers and whether the closure was carried (a scratch
/// build over the kernel's links runs at least one round).
fn carried_reads_agree(v: &KbVersion, ctx: &str) -> (Answers, bool) {
    let at = v.now();
    let closure = query::ask_closure(v, at).expect("closure");
    let edb = query::to_edb_at_store(v, at).expect("export");
    let (scratch, _) = seminaive::evaluate(&query::base_program(), &edb).expect("scratch");
    for pred in ["in_", "isa", "isaT", "inT"] {
        let rows = |db: &Database| {
            let mut rows: Vec<Vec<Value>> = db.tuples(pred).collect();
            rows.sort();
            rows
        };
        assert_eq!(
            rows(closure.model()),
            rows(&scratch),
            "{ctx}: {pred} of the ASK's closure"
        );
    }
    let answered = answers(v);
    let snap = v.snapshot();
    for (class, names) in ASKED_CLASSES.iter().zip(&answered) {
        let oracle = |body: &str| {
            let mut names = query::ask(&snap, "x", class, body).ok();
            if let Some(names) = &mut names {
                names.sort();
            }
            names
        };
        assert_eq!(names, &oracle("true"), "{ctx}: {class}");
        let body = format!("x in {class}");
        let asked = query::ask_with_stats_version(v, at, "x", class, &body)
            .ok()
            .map(|(names, _)| names.into_iter().map(Cow::into_owned).collect());
        assert_eq!(asked, oracle(&body), "{ctx}: {class} where {body}");
        let Some(c) = snap.lookup(class) else {
            continue;
        };
        // A class name the export never interned has no instances.
        let served: Members = intern::lookup(class).map_or_else(Vec::new, |sym| {
            let extent = closure.extent(&snap, sym);
            extent
                .iter()
                .map(|&(name, id)| (name.to_string(), id))
                .collect()
        });
        let mut built: Members = (scratch.tuples("inT"))
            .filter(|row| row[1] == Value::sym(*class))
            .filter_map(|row| match &row[0] {
                Value::Sym(name) => Some((name.clone(), snap.lookup(name)?)),
                Value::Int(_) => None,
            })
            .collect();
        built.sort();
        assert_eq!(served, built, "{ctx}: {class}'s extent against a build");
        let mut members: Members = (snap.all_instances_of(c).into_iter())
            .filter_map(|id| {
                v.prop(id)
                    .filter(|p| p.is_individual() && p.believed_at(at))
            })
            .map(|p| (v.display(p.id), p.id))
            .collect();
        members.sort();
        assert_eq!(served, members, "{ctx}: {class}'s extent against the walk");
    }
    (answered, closure.stats.rounds == 0)
}

/// What one view answered at one version: its name and, per predicate
/// it names, its rows.
type ViewRead = (String, Vec<Vec<Vec<Value>>>);

/// Reads the views of `p` whose bit in `pick` is set, at its capture
/// tick, through the served path: one closure per view, read at every
/// predicate the view names. Returns the reads and how many of them
/// found no model at the version and built one from scratch.
fn read_views(p: &Published, pick: u64) -> (Vec<ViewRead>, usize) {
    let at = p.kb.now();
    let mut built = 0;
    let picked = (p.views.iter().enumerate()).filter(|(i, _)| pick >> i & 1 == 1);
    let reads = picked
        .map(|(_, view)| {
            let preds = VIEW_PREDS
                .iter()
                .filter(|pred| view.check_pred(pred).is_ok());
            let rows = preds
                .enumerate()
                .map(|(i, pred)| {
                    let (mut rows, scratch) = pinned_rows(&p.kb, at, view, pred).expect("view");
                    built += usize::from(i == 0 && scratch);
                    rows.rows().tuples().collect()
                })
                .collect();
            (view.name().to_string(), rows)
        })
        .collect();
    (reads, built)
}

/// [`read_views`] of a version read for the first time, each answer
/// held equal to the view's program evaluated from scratch
/// (`eval_pinned`). Returns the reads and how many were carried over
/// from a predecessor's model.
fn fresh_views_agree(p: &Published, pick: u64, ctx: &str) -> (Vec<ViewRead>, usize) {
    let at = p.kb.now();
    let (reads, built) = read_views(p, pick);
    for (name, rows) in &reads {
        let view = (p.views.iter()).find(|v| v.name() == name).expect("read");
        let preds = VIEW_PREDS
            .iter()
            .filter(|pred| view.check_pred(pred).is_ok());
        for (pred, rows) in preds.zip(rows) {
            let oracle = view.eval_pinned(&p.kb, at, pred).expect("eval_pinned");
            assert_eq!(rows, &oracle, "{ctx}: view {name}, {pred}");
        }
    }
    let carried = reads.len() - built;
    (reads, carried)
}

/// The carried realization of `ops` (see the module doc): `choices`
/// seeds which versions are read and which are held, for how many ops,
/// and which views a read reads. Returns how many read versions
/// answered ASKs from a carried closure, and how many view reads were
/// carried.
fn carried_closures_agree(tag: &str, ops: &[Op], choices: u64) -> (usize, usize) {
    let dir = tmp_dir(tag);
    let (mut g, _) = Gkbms::recover(&dir).expect("fresh journal");
    // xorshift64: a fixed function of `choices`, so a failure replays.
    let mut state = choices | 1;
    let mut roll = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Each held version with the op it is held until, its answers, the
    // views it read and what they answered.
    let mut held: Vec<(usize, Published, Answers, u64, Vec<ViewRead>)> = Vec::new();
    let (mut carried, mut views_carried) = (0, 0);
    for (i, op) in ops.iter().enumerate() {
        let outcome = apply(&mut g, op);
        let p = g.capture();
        let ctx = format!("choices {choices}, after op {i} {op:?} ({outcome:?})");
        held.retain(|(until, ..)| *until > i);
        for (_, old, then, pick, views) in &held {
            assert_eq!(&answers(&old.kb), then, "{ctx}: a held version changed");
            assert_eq!(
                &read_views(old, *pick).0,
                views,
                "{ctx}: a held view changed"
            );
        }
        let r = roll();
        if r % 3 == 0 {
            continue; // unread: its seeds pass on to the next version
        }
        let (answered, was_carried) = carried_reads_agree(&p.kb, &ctx);
        carried += usize::from(was_carried);
        let pick = r >> 48;
        let (views, n) = fresh_views_agree(&p, pick, &ctx);
        views_carried += n;
        if r % 5 < 2 {
            held.push((i + 1 + (r >> 32) as usize % 4, p, answered, pick, views));
        }
    }
    drop((held, g));
    std::fs::remove_dir_all(&dir).unwrap();
    (carried, views_carried)
}

/// The ids `v` believes.
fn believed(v: &KbVersion) -> BTreeSet<PropId> {
    v.snapshot().believed().collect()
}

/// The one record of a write against its O(KB) oracle, over `ops`:
/// for each version captured after an op and a later one picked by
/// `choices`, `delta_since` the earlier's mark tells what the later
/// believes and the earlier did not, in id order, and untells the
/// reverse; and an op that fails leaves the store at the mark it found
/// — no delta since it — and the `Digest` unchanged. Returns how many
/// ops failed.
fn deltas_agree(tag: &str, ops: &[Op], choices: u64) -> usize {
    let dir = tmp_dir(tag);
    let (mut g, _) = Gkbms::recover(&dir).expect("fresh journal");
    let mut state = choices | 1;
    let mut roll = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut versions = vec![g.kb().version()];
    let mut digest = Digest::of(&g);
    let mut failed = 0;
    for (i, op) in ops.iter().enumerate() {
        let mark = g.kb().mark();
        if apply(&mut g, op).is_err() {
            failed += 1;
            assert_eq!(
                g.kb().mark(),
                mark,
                "op {i} {op:?} failed and moved the mark"
            );
            assert_eq!(g.kb().delta_since(&mark), Delta::default(), "op {i} {op:?}");
            assert_eq!(
                Digest::of(&g),
                digest,
                "op {i} {op:?} failed and left a trace"
            );
        } else {
            digest = Digest::of(&g);
        }
        versions.push(g.kb().version());
    }
    let sets: Vec<BTreeSet<PropId>> = versions.iter().map(believed).collect();
    for (a, earlier) in versions.iter().enumerate() {
        let b = a + roll() as usize % (versions.len() - a);
        let delta = versions[b].delta_since(&earlier.mark());
        let told: Vec<PropId> = sets[b].difference(&sets[a]).copied().collect();
        assert_eq!(delta.told, told, "told between versions {a} and {b}");
        let untold: BTreeSet<PropId> = delta.untold.iter().copied().collect();
        assert_eq!(untold.len(), delta.untold.len(), "an id untold twice");
        let want: BTreeSet<PropId> = sets[a].difference(&sets[b]).copied().collect();
        assert_eq!(untold, want, "untold between versions {a} and {b}");
    }
    drop(g);
    std::fs::remove_dir_all(&dir).unwrap();
    failed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_op_stream_four_realizations(
        tail in prop::collection::vec(op_strategy(), 10..44),
        at in 0usize..1000,
        choices in any::<u64>(),
    ) {
        let mut ops = prelude();
        ops.extend(tail);
        let k = at % (ops.len() + 1);
        let (ok, failed) = four_realizations_agree("diff-prop", &ops, k);
        prop_assert_eq!(ok + failed, ops.len());
        carried_closures_agree("diff-prop-carry", &ops, choices);
        deltas_agree("diff-prop-delta", &ops, choices);
    }
}

/// The generator above is only a test if both halves of the invariant
/// are exercised: a fixed stream must commit ops of every kind *and*
/// roll writes back.
#[test]
fn differential_stream_commits_and_rolls_back() {
    let mut ops = prelude();
    ops.extend([
        // Registered before the links they read: every later write
        // reaches their models through the carry, a recursive stratum's
        // and a negated one's included.
        Op::View(VIEWS[2].0, VIEWS[2].1),
        Op::View(VIEWS[3].0, VIEWS[3].1),
        // Two propositions asserting one link before a view's first
        // read: its build must count both, whichever realization reads
        // it.
        Op::Tell("TELL Doc end\nTELL d1 in Doc end"),
        Op::Tell("TELL d0 in Doc end"),
        Op::Tell("TELL d1 in Doc with attribute ref : d0 end"),
        Op::Tell("TELL d1 in Doc with attribute ref : d0 end"),
        Op::Tell(REF_CHAIN),
        Op::View("v0", ""),
        Op::Tell("TELL Memo end\nTELL ghost in Nope end"), // rolled back
        Op::Tell("TELL Memo isA Doc end"),
        Op::ObjectClass("Sketch", Some("Doc")),
        Op::DecisionClass("DocDec", "Doc", "Sketch"),
        Op::Tool("Scribe", "NoSuchDec"), // rolled back
        Op::Execute {
            class: "MapDec",
            name: "x0",
            tool: Some("Mapper"),
            input: "inv0",
            output: ("wrong", kernel::TDL_ENTITY_CLASS), // rolled back
            discharge: DISCHARGES[2],
        },
        Op::Execute {
            class: "MapDec",
            name: "x0",
            tool: Some("Mapper"),
            input: "inv0",
            output: ("rel0", kernel::DBPL_REL),
            discharge: DISCHARGES[1],
        },
        // A forged producer of rel0, for the conflict's cascade below.
        Op::Tell(FORGED_DECISION),
        Op::Promote,
        Op::Tell("TELL m0 in Memo end"),
        Op::Untell("Memo"),
        Op::View("v1", "tagged(X) :- in_(X, _C)."),
        // Takes both `d1 ref d0` links out of every view: `d2` reaches
        // `d0` no more, and `d0` is `refd` no more.
        Op::Untell("d0"),
        Op::Conflict("x0", "x0"),
        Op::Retract("x0"), // already retracted by the conflict
        // A cascade for the retraction oracle: x2 takes x3 with it.
        Op::Execute {
            class: "MapDec",
            name: "x2",
            tool: None,
            input: "inv1",
            output: ("rel1", kernel::DBPL_REL),
            discharge: None,
        },
        Op::Execute {
            class: "RefDec",
            name: "x3",
            tool: None,
            input: "rel1",
            output: ("rel2", kernel::DBPL_REL),
            discharge: DISCHARGES[2],
        },
        Op::Tell(FORGED_RETRACTION), // x3 stays effective
        Op::Retract("x2"),
    ]);
    for k in 0..=ops.len() {
        assert_eq!(
            four_realizations_agree("diff-fixed", &ops, k),
            (29, 4),
            "checkpoint at {k}"
        );
    }
    for choices in 0..8 {
        let (asks, views) = carried_closures_agree("diff-fixed-carry", &ops, choices);
        assert!(
            asks > 0,
            "choices {choices}: no read version carried its closure"
        );
        assert!(views > 0, "choices {choices}: no view read was carried");
        assert_eq!(deltas_agree("diff-fixed-delta", &ops, choices), 4);
    }
}

// ----- regressions: histories the re-sorted snapshot could not replay -------

/// Recovers `dir`, requiring the checkpoint snapshot to carry the
/// whole state (nothing left in the WAL).
fn recover_from_snapshot_alone(dir: &Path) -> Gkbms {
    let (g, report) = Gkbms::recover(dir).expect("a checkpointed journal must recover");
    assert!(report.snapshot_loaded);
    assert_eq!(report.replayed_ops, 0);
    g
}

/// A class told by a raw TELL, then an object registered under it: a
/// snapshot that replays registrations before TELLs cannot be loaded,
/// and the checkpoint has just truncated the WAL that could.
#[test]
fn told_class_then_register_survives_checkpoint() {
    let dir = tmp_dir("told-class");
    let (mut g, _) = Gkbms::recover(&dir).unwrap();
    g.tell_src("TELL Memo end").unwrap();
    g.register_object("memo1", "Memo", "memos.txt#1").unwrap();
    g.checkpoint().unwrap();
    let want = Digest::of(&g);
    drop(g);
    let g = recover_from_snapshot_alone(&dir);
    assert_eq!(Digest::of(&g), want);
    assert!(g.is_current("memo1"));
    let memo = g.kb().lookup("Memo").expect("the told class");
    assert!(g
        .kb()
        .snapshot()
        .is_instance_of(g.kb().lookup("memo1").unwrap(), memo));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// TELL, UNTELL, then a registration under the same name: replayed
/// registration-first, the UNTELL lands last and takes the object out.
#[test]
fn register_after_untell_survives_checkpoint() {
    let dir = tmp_dir("retold-name");
    let (mut g, _) = Gkbms::recover(&dir).unwrap();
    g.tell_src("TELL Thing end").unwrap();
    g.untell("Thing").unwrap();
    g.register_object("Thing", kernel::TDL_ENTITY_CLASS, "design.tdl#Thing")
        .unwrap();
    let want = Digest::of(&g);
    // From the WAL alone …
    g.journal_mut().unwrap().sync().unwrap();
    let wal_only = tmp_dir("retold-name-wal");
    crash::copy_dir(&dir, &wal_only).unwrap();
    assert_eq!(Digest::of(&Gkbms::recover(&wal_only).unwrap().0), want);
    // … and from the snapshot a checkpoint wrote.
    g.checkpoint().unwrap();
    drop(g);
    let g = recover_from_snapshot_alone(&dir);
    assert_eq!(Digest::of(&g), want);
    assert!(g.kb().lookup("Thing").is_some(), "Thing is believed");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&wal_only).unwrap();
}

/// A design-object class whose parent was told by a raw TELL: the
/// saved history must define the parent first.
#[test]
fn class_under_told_parent_reloads() {
    let dir = tmp_dir("told-parent");
    std::fs::create_dir_all(&dir).unwrap();
    let saved = dir.join("history");
    let mut g = Gkbms::new().unwrap();
    g.tell_src("TELL Base end").unwrap();
    g.define_object_class("Derived", "Implementation", Some("Base"))
        .unwrap();
    g.save(&saved).unwrap();
    let loaded = Gkbms::load(&saved).expect("a saved history must load back");
    assert_eq!(Digest::of(&loaded), Digest::of(&g));
    let (base, derived) = (
        loaded.kb().lookup("Base").unwrap(),
        loaded.kb().lookup("Derived").unwrap(),
    );
    assert_eq!(loaded.kb().snapshot().isa_parents(derived), vec![base]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A multi-frame TELL that fails midway tells none of its frames: what
/// readers are answered, what is believed and what recovery rebuilds
/// all stay at their pre-call values.
#[test]
fn failed_tell_batch_changes_nothing() {
    let dir = tmp_dir("failed-batch");
    let (mut g, _) = Gkbms::recover(&dir).unwrap();
    g.tell_src("TELL Paper end\nTELL p1 in Paper end").unwrap();
    g.register_view("closure", "").unwrap();
    let papers = |g: &Gkbms| query::ask(&g.kb().snapshot(), "p", "Paper", "true").unwrap();
    let before = (Digest::of(&g), papers(&g));

    for batch in [
        "TELL A end\nTELL b in Nope end",
        "TELL p2 in Paper end\nTELL b in Nope end",
    ] {
        assert!(
            g.tell_src(batch).is_err(),
            "{batch:?} names an unknown class"
        );
        assert_eq!((Digest::of(&g), papers(&g)), before, "after {batch:?}");
        for name in ["A", "b", "p2"] {
            assert!(g.kb().lookup(name).is_none(), "`{name}` is believed");
        }
    }
    g.journal_mut().unwrap().sync().unwrap();
    let copy = tmp_dir("failed-batch-copy");
    crash::copy_dir(&dir, &copy).unwrap();
    let (recovered, report) = Gkbms::recover(&copy).unwrap();
    assert_eq!(report.replayed_ops, 2, "the failed batches were journaled");
    assert_eq!((Digest::of(&recovered), papers(&recovered)), before);

    // Nothing of the failed batch lingers under the name.
    g.tell_src("TELL A end").expect("`A` is tellable");
    assert!(g.kb().lookup("A").is_some());
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&copy).unwrap();
}

// ----- the process model, built over the wire --------------------------------

/// §2.1's process model built by a client, from an empty KB, through
/// `Client::write` alone: the decision classes, tools and design
/// objects of `Scenario::setup` (its own history, op for op), an
/// object class, a nogood, an object of the new class and one
/// execution. Each `Write` leaves a WAL payload equal to its op's
/// encoding, and the leader equals a serial twin built through the
/// library, a follower and an instance recovered from its WAL.
#[test]
fn the_process_model_is_built_over_the_wire() {
    use conceptbase::gkbms::scenario::Scenario;
    use conceptbase::server::{Client, Config, Response, Server};
    use std::time::{Duration, Instant};

    let (ldir, fdir) = (tmp_dir("wire-leader"), tmp_dir("wire-follower"));
    let setup = ldir.with_extension("setup");
    Scenario::setup().unwrap().gkbms.save(&setup).unwrap();
    let (setup_ops, _) = read_payloads(&setup).unwrap();
    std::fs::remove_file(&setup).unwrap();
    let decision = DecisionRequest::new("DecMoveDown", "moveDownInvitation", "dev")
        .with_tool("TDL-DBPL-Mapper")
        .input("Invitation")
        .output("InvitationRel", kernel::DBPL_REL);
    let nogood = vec![
        "moveDownInvitation".to_string(),
        "normalizeInvitation".into(),
    ];
    let ops: Vec<JournalOp> = (setup_ops.iter())
        .map(|p| JournalOp::decode(p).unwrap())
        .chain([
            JournalOp::ObjectClass {
                name: "SQL_View".into(),
                level: "Implementation".into(),
                parent: Some(kernel::DBPL_CONSTRUCTOR.into()),
            },
            JournalOp::Nogood {
                decisions: nogood.clone(),
            },
            JournalOp::Register {
                name: "InvitationView".into(),
                class: "SQL_View".into(),
                source: "views.sql#Invitation".into(),
            },
            JournalOp::Execute {
                request: decision.clone(),
            },
        ])
        .collect();
    let kinds: BTreeSet<&str> = ops.iter().map(JournalOp::op_name).collect();
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        [
            "decision_class",
            "execute",
            "nogood",
            "object_class",
            "register",
            "tool"
        ]
    );

    let serve = |dir: &Path, follow: Option<String>| {
        let cfg = Config {
            poll_interval: Duration::from_millis(20),
            follow,
            ..Config::default()
        };
        let server = Server::bind("127.0.0.1:0", Gkbms::recover(dir).unwrap().0, cfg).unwrap();
        let addr = server.local_addr();
        (server, addr)
    };
    let (leader, addr) = serve(&ldir, None);
    let (follower, faddr) = serve(&fdir, Some(addr.to_string()));
    let mut c = Client::connect(addr).unwrap();
    let (s, _) = c.hello().unwrap();
    for op in &ops {
        match c.write(s, op.clone()) {
            Ok(Response::Done { .. }) => {}
            other => panic!("{op:?}: {other:?}"),
        }
    }
    assert!(
        c.execute(s, decision.clone()).is_err(),
        "a decision runs once"
    );
    let applied = c.repl_status().unwrap().applied_seq;
    assert_eq!(applied, ops.len() as u64);
    let mut fc = Client::connect(faddr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(15);
    while fc.repl_status().unwrap().applied_seq < applied {
        assert!(Instant::now() < deadline, "the follower catches up");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop((c, fc));
    let follower = follower.shutdown().unwrap();
    let leader = leader.shutdown().unwrap();

    let (wal, _) = read_payloads(ldir.join(WAL_FILE)).unwrap();
    assert_eq!(wal.len(), ops.len());
    for (framed, op) in wal.iter().zip(&ops) {
        assert_eq!(decode_framed(framed).unwrap().2, op.encode(), "{op:?}");
    }

    let mut twin = Scenario::setup().unwrap().gkbms;
    twin.define_object_class("SQL_View", "Implementation", Some(kernel::DBPL_CONSTRUCTOR))
        .unwrap();
    twin.apply(JournalOp::Nogood { decisions: nogood }).unwrap();
    twin.register_object("InvitationView", "SQL_View", "views.sql#Invitation")
        .unwrap();
    twin.execute(decision).unwrap();
    let want = Digest::of(&twin);
    assert!(twin.is_effective("moveDownInvitation"));
    assert_eq!(Digest::of(&leader), want, "the leader");
    assert_eq!(Digest::of(&follower), want, "the follower");
    drop((leader, follower));
    assert_eq!(
        Digest::of(&Gkbms::recover(&ldir).unwrap().0),
        want,
        "recovered from the leader's WAL"
    );
    std::fs::remove_dir_all(&ldir).unwrap();
    std::fs::remove_dir_all(&fdir).unwrap();
}

// ----- reads at a session's pin ------------------------------------------------

/// A session's `save`, `check`, `lint` and `explain` answer at its pin.
/// Session A pins; session B then TELLs a class with a constraint, an
/// instance that violates it and a rule, and executes a decision. A's
/// saved file loads to the serial twin replayed to A's pin, not to the
/// head, and A's `check`, `lint` and `explain` see neither the
/// constraint nor the rule until A refreshes.
#[test]
fn a_pinned_session_saves_checks_lints_and_explains_its_own_version() {
    use conceptbase::server::{Client, Config, Server, WireDecision};

    let setup = || {
        let mut g = Gkbms::new().unwrap();
        let class = DecisionClass::new("MapDec", DecisionDimension::Mapping)
            .from_classes(&[kernel::TDL_ENTITY_CLASS])
            .to_classes(&[kernel::DBPL_REL]);
        g.define_decision_class(class).unwrap();
        g.tell_src("TELL Person end").unwrap();
        g
    };
    let server = Server::bind("127.0.0.1:0", setup(), Config::default()).unwrap();
    let addr = server.local_addr();
    let (mut a, mut b) = (
        Client::connect(addr).unwrap(),
        Client::connect(addr).unwrap(),
    );
    let (sb, _) = b.hello().unwrap();
    b.tell(sb, "TELL Doc end").unwrap();
    b.register_object(sb, "inv0", kernel::TDL_ENTITY_CLASS, "src")
        .unwrap();
    let (sa, _) = a.hello().unwrap();
    let mut twin = setup();
    twin.tell_src("TELL Doc end").unwrap();
    twin.register_object("inv0", kernel::TDL_ENTITY_CLASS, "src")
        .unwrap();

    b.tell(
        sb,
        "TELL Invitation with\n\
           attribute sender : Person\n\
           constraint hasSender : $ forall i/Invitation i.sender defined $\n\
         end\n\
         TELL badInv in Invitation end",
    )
    .unwrap();
    let rule = "TELL Pairing with rule pairs : $ pairs(X, Y) :- in_(X, C), isa(Y, D) $ end";
    b.tell(sb, rule).unwrap();
    let decision = WireDecision::new("MapDec", "d0", "dev").input("inv0");
    b.execute(sb, decision.output("rel0", kernel::DBPL_REL))
        .unwrap();

    let saved = tmp_dir("pinned-save");
    a.save(sa, saved.to_str().unwrap()).unwrap();
    let pinned = Gkbms::load(&saved).unwrap();
    std::fs::remove_file(&saved).unwrap();
    assert_eq!(
        Digest::of(&pinned),
        Digest::of(&twin),
        "A's save is its pin"
    );

    let probe = "q(X) :- pairs(X, Y).";
    let undeclared = |diags: &[conceptbase::server::WireDiagnostic]| {
        diags
            .iter()
            .any(|d| d.code == "CB003" && d.message.contains("pairs"))
    };
    let check = a.check(sa).unwrap();
    assert!(check.starts_with("consistent"), "{check}");
    assert!(
        undeclared(&a.lint(sa, probe).unwrap()),
        "A linted the later rule"
    );
    assert!(
        !a.explain(sa, "").unwrap().contains("pairs"),
        "A explained the later rule"
    );

    a.refresh(sa).unwrap();
    let check = a.check(sa).unwrap();
    assert!(
        check.contains("`hasSender` on `Invitation` violated"),
        "{check}"
    );
    assert!(!undeclared(&a.lint(sa, probe).unwrap()));
    assert!(a.explain(sa, "").unwrap().contains("pairs"));
    drop((a, b));
    let head = server.shutdown().unwrap();
    assert!(head.is_effective("d0"));
    assert_ne!(
        Digest::of(&pinned),
        Digest::of(&head),
        "the head is not A's pin"
    );
}
