//! Wire protocol for the GKBMS service.
//!
//! # Frame layout
//!
//! Every message — request or response — travels as one *frame* with
//! exactly the layout of a [`storage::record`] record:
//!
//! ```text
//! +---------------+----------------+---------------------+
//! | len: u32 (LE) | crc32: u32(LE) | payload: len * u8   |
//! +---------------+----------------+---------------------+
//! ```
//!
//! `len` is the payload length (capped at
//! [`storage::record::MAX_RECORD_LEN`], 16 MiB); `crc32` is the IEEE
//! CRC-32 of the payload ([`storage::record::crc32`]: carry-less
//! multiplication where the CPU has it, slicing-by-8 elsewhere, the
//! same checksum either way). Frames are laid out by
//! [`storage::record::encode_with`], the record layout's one
//! definition, so the service speaks the same hand-rolled record
//! dialect as the persistence layer — a corrupted or truncated frame is
//! detected exactly like a torn log record. A server reply is encoded
//! once, straight into its connection's reply buffer behind the
//! reserved header, which is then sealed in place, and the frame is sent
//! with one write; the buffer is reused by every reply on the
//! connection (`server::write_response`). A client's request is framed
//! by [`write_frame`].
//!
//! # Payload layout
//!
//! The payload is a `u32` *opcode* followed by the op's fields, each
//! encoded by its [`storage::record::codec::Wire`] impl (little-endian
//! integers, `bool` and `Option` as a strict 0/1 `u32` tag,
//! `u32`-length-prefixed UTF-8 strings, `u32`-count-prefixed lists):
//!
//! ```text
//! request  := op:u32 fields*
//! response := op:u32 fields*
//! ```
//!
//! The two op tables — [`Request`] and [`Response`] below — are the
//! protocol definition: each row gives a variant's opcode, its metrics
//! label, (for requests) its [`OpClass`], and its fields in wire
//! order, and the codec, `op_name()` and `class()` are generated from
//! it. The rendered documentation of each variant repeats the row.
//!
//! `Replicate` is the subscription handshake of the replication
//! subsystem: a follower (or any tailer) announces the last op
//! sequence it has applied and its sequence epoch. The leader answers
//! either with an `Error` (e.g. [`ErrorCode::Fenced`] when the
//! subscriber's epoch is newer than the leader's own) or by taking the
//! connection over as a *push stream* of `replication::ReplMsg`
//! frames — batches of its history's ops from the subscriber's
//! position on, up to the durable watermark, then live group commits.
//! Those stream frames use opcodes at or above
//! `replication::msg::MSG_BASE` (100) so they can never be confused
//! with the `Response` opcodes.
//!
//! Every write but a TELL is one `Write` request carrying a
//! [`JournalOp`] inline, in the journal's own encoding: what follows the
//! session id is byte for byte the WAL payload the leader commits and
//! every replay applies through the one `Gkbms::apply`:
//!
//! ```text
//! write := 34:u32 session:u64 journal_op
//! journal_op := op:u32 fields*     // e.g. 5 = execute, 9 = untell
//! ```
//!
//! So a new journal op is a client write with no code of its own. A
//! TELL keeps its `Tell` row; `CheckpointCovers` and `Seal` position a
//! replay and are refused from clients. Opcodes 6, 11, 12, 20 and 28
//! were the rows `Write` replaced and stay unassigned: an old client's
//! frame for one is refused as `BadRequest`, never read as another op.
//!
//! `Redirect` answers writes sent to a read replica: the payload
//! names the leader's address so the client can fail fast and retry
//! there. `Stale` wraps every *read* served by a follower: it carries
//! the follower's applied sequence, its lag behind the leader in ops,
//! and the ordinary encoded response as a nested payload — bounded
//! staleness is surfaced on every reply rather than discovered by
//! side-channel.
//!
//! Each `Diagnostics` entry ([`WireDiagnostic`]) is encoded as:
//!
//! ```text
//! severity:u32 (0 = warning, 1 = error)
//! code:str subject:str message:str
//! has_witness:u32 [witness:str]
//! has_line:u32 [line:u64]
//! ```
//!
//! `Names.probes`/`Names.scanned` carry the deductive `EvalStats`
//! counters for `Ask` answers and are zero for other `Names` replies
//! (e.g. retraction cascades). They count the work that built the
//! closure the answer was read from, once per version: a closure built
//! from scratch reports its fixpoint, one carried over from the
//! previous version's reports the refresh by the delta between the two
//! — a handful of probes after a one-object TELL, 0 after a write that
//! touched no `in`/`isa` link. `SessionInfo.probes`/`scanned` repeat
//! the session's last `Ask`.
//!
//! `Names` are encoded straight from interned strings: an `Ask` answer
//! and a one-column `ViewAsk` row are `Cow::Borrowed` from the symbol
//! pool — a view's row as its sorted rows already resolved it, so the
//! encoder looks no symbol up — and only a wider row (its values joined
//! by spaces) or a computed name is an owned `String`. The byte format
//! is unchanged — each name is a `u32`-length-prefixed UTF-8 string
//! either way.
//!
//! # Sessions and snapshot isolation
//!
//! `Hello` opens a session and pins its *watermark* — the knowledge
//! base's belief-time clock at that instant. Every Read the session
//! makes (`Ask`, `Holds`, `Show`, `Browse`, `ViewAsk`,
//! `ApplicableDecisions`, `ObjectHistory`, `History`, `Status`,
//! `Recall`, `Check`, `Explain`, `Lint`, `Save`) is evaluated against a
//! [`telos::Snapshot`] at that watermark — the design-record reads
//! against the design index published with the same version, `Save`
//! against the history published with it: the session sees a
//! consistent state of belief, unaffected by concurrent writers,
//! because the knowledge base never destroys propositions — an
//! `UNTELL` merely closes a belief interval, and writers tick the
//! clock *before* mutating, so everything they add starts strictly
//! after every pinned watermark. `Refresh` re-pins the watermark to
//! "now"; a session that writes refreshes to observe its own writes —
//! before it saves, lints or checks them. No Read waits on a writer or
//! takes the state lock: `ViewAsk` reads the view's model, a lemma of
//! the pinned version like the ASK's closure.
//!
//! # Errors and backpressure
//!
//! Work-carrying requests pass through a bounded admission gate; when
//! the server is saturated it answers [`ErrorCode::Overloaded`]
//! without touching the knowledge base, and the client is expected to
//! back off and retry. The rule for who bypasses the gate is
//! `class == `[`OpClass::Control`]: those requests manage sessions, the
//! server's lifecycle, its metrics and its replication role, so a
//! saturated server can still be inspected, scraped, promoted and
//! stopped — otherwise the one moment observability matters most is
//! the one moment it goes dark. After shutdown begins, in-flight
//! requests drain normally and subsequent ones get
//! [`ErrorCode::ShuttingDown`].

use std::borrow::Cow;
use std::io::{self, Read, Write};
use storage::record;
use storage::record::codec::{Cursor, Wire};
use storage::StorageResult;

/// A decision execution request and its obligation discharges, and
/// the journal op a `Write` carries: the knowledge base's own types, so
/// a request and the journal share one definition and one encoding.
pub use gkbms::{DecisionRequest as WireDecision, Discharge as WireDischarge, JournalOp};

/// One diagnostic from the rule-base static analyzer, mirroring
/// [`analysis::Diagnostic`] on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiagnostic {
    /// True for an error, false for a warning.
    pub is_error: bool,
    /// Stable diagnostic code (`CB001`, `CB002`, …).
    pub code: String,
    /// What the diagnostic is about (a rule, a frame section, …).
    pub subject: String,
    /// Human-readable explanation.
    pub message: String,
    /// Optional witness (offending variable, cycle path, …).
    pub witness: Option<String>,
    /// Optional 1-based line in the submitted source.
    pub line: Option<u64>,
}

impl WireDiagnostic {
    /// Converts an analyzer diagnostic into its wire form.
    pub fn from_diagnostic(d: &analysis::Diagnostic) -> WireDiagnostic {
        WireDiagnostic {
            is_error: d.severity == analysis::Severity::Error,
            code: d.code.to_string(),
            subject: d.subject.clone(),
            message: d.message.clone(),
            witness: (!d.witness.is_empty()).then(|| d.witness.clone()),
            line: d.line.map(|l| l as u64),
        }
    }

    /// Compact single-line rendering, matching
    /// [`analysis::Diagnostic::one_line`].
    pub fn one_line(&self) -> String {
        let sev = if self.is_error { "error" } else { "warning" };
        let mut s = format!("{sev}[{}] {}: {}", self.code, self.subject, self.message);
        if let Some(w) = &self.witness {
            s.push_str(&format!(" (witness: {w})"));
        }
        s
    }
}

storage::wire_struct!(WireDiagnostic {
    is_error,
    code,
    subject,
    message,
    witness,
    line,
});

/// How the server admits and routes a request — the class column of
/// the [`Request`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Manages sessions, the server's lifecycle, its metrics or its
    /// replication role. Bypasses the admission gate and the draining
    /// check, so a saturated or draining server can still be managed
    /// (and scraped); served by leader and follower alike.
    Control,
    /// Work that leaves the knowledge base as it is. Passes the
    /// admission gate; a follower serves it at its applied watermark,
    /// wrapped in [`Response::Stale`]. `Checkpoint` is a read in this
    /// sense: it only compacts the local journal, which a replica may
    /// do freely.
    Read,
    /// Mutates the knowledge base. Passes the admission gate; a
    /// follower answers [`Response::Redirect`] instead of serving it.
    Write,
}

storage::op_table! {
    /// A client-to-server request.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request: OpClass {
        /// Open a session; the reply pins the snapshot watermark.
        1 Hello "hello" Control,
        /// Close a session.
        2 Bye "bye" Control {
            /// Session to close.
            session: u64,
        },
        /// Re-pin the session watermark to the current belief time.
        3 Refresh "refresh" Read {
            /// Session to refresh.
            session: u64,
        },
        /// Liveness probe; bypasses admission control.
        4 Ping "ping" Control,
        /// TELL one or more objects in objectbase concrete syntax.
        5 Tell "tell" Write {
            /// Issuing session.
            session: u64,
            /// Source text (`tell … end`, possibly several frames).
            src: String,
        },
        /// Deductive query: instances of `class` satisfying `expr`.
        7 Ask "ask" Read {
            /// Issuing session (answers are snapshot-pinned).
            session: u64,
            /// Query variable name.
            var: String,
            /// Class the variable ranges over.
            class: String,
            /// Assertion-language body.
            expr: String,
        },
        /// Evaluate a closed assertion against the session snapshot.
        8 Holds "holds" Read {
            /// Issuing session.
            session: u64,
            /// Assertion-language expression.
            expr: String,
        },
        /// Render the frame of an object as the session's pin believes it.
        9 Show "show" Read {
            /// Issuing session.
            session: u64,
            /// Object to show.
            name: String,
        },
        /// Decision classes applicable to a design object.
        10 ApplicableDecisions "applicable" Read {
            /// Issuing session.
            session: u64,
            /// Design object name.
            object: String,
        },
        /// The process view: all decisions in causal order.
        13 History "history" Read {
            /// Issuing session.
            session: u64,
        },
        /// Belief-time history of one object.
        14 ObjectHistory "object_history" Read {
            /// Issuing session.
            session: u64,
            /// Object to trace.
            object: String,
        },
        /// Per-session statistics (watermark, counters, last ASK stats).
        15 SessionStats "session_stats" Read {
            /// Session to inspect.
            session: u64,
        },
        /// Persist the knowledge base at the session's pin — the ops that
        /// built the pinned version — to a server-side path.
        16 Save "save" Read {
            /// Issuing session.
            session: u64,
            /// Server-side file path.
            path: String,
        },
        /// Replace the knowledge base from a server-side path.
        17 Load "load" Write {
            /// Issuing session.
            session: u64,
            /// Server-side file path.
            path: String,
        },
        /// Begin graceful shutdown; bypasses admission control.
        18 Shutdown "shutdown" Control {
            /// Issuing session.
            session: u64,
        },
        /// Diagnostic: hold an admission slot for `millis` ms. Used by
        /// the backpressure and drain tests to create deterministic load.
        19 Sleep "sleep" Read {
            /// Issuing session.
            session: u64,
            /// How long to hold the slot.
            millis: u64,
        },
        /// The status view of all design objects.
        21 Status "status" Read {
            /// Issuing session.
            session: u64,
        },
        /// Scrape the server's metrics registry (Prometheus text format).
        /// Sessionless and admission-exempt, like `Ping`.
        22 Metrics "metrics" Control,
        /// Compact the server's journal: write a crash-atomic snapshot and
        /// truncate the WAL. Rejected if the server runs without a journal.
        23 Checkpoint "checkpoint" Read {
            /// Issuing session.
            session: u64,
        },
        /// Statically analyze source text against the knowledge base at
        /// the session's pin without admitting it. Always answers
        /// [`Response::Diagnostics`]; a clean bill of health is an empty
        /// list.
        24 Lint "lint" Read {
            /// Issuing session.
            session: u64,
            /// Source text to analyze (CML frames or a datalog program).
            src: String,
        },
        /// Subscribe to the leader's committed record stream. Sessionless;
        /// on success the connection becomes a push stream of
        /// `replication::ReplMsg` frames and never carries requests again.
        25 Replicate "replicate" Control {
            /// Last op sequence the subscriber has applied (0 = nothing).
            applied_seq: u64,
            /// The subscriber's sequence epoch; the leader fences
            /// subscribers from a *newer* epoch (they outrank it).
            epoch: u64,
        },
        /// Seal the follower's log and make it writable: bumps the
        /// sequence epoch, journals a durable seal record, and stops the
        /// apply loop. Records framed with the old epoch are refused from
        /// here on. Rejected on a server that is already the leader.
        26 Promote "promote" Control {
            /// Issuing session.
            session: u64,
        },
        /// Inspect the server's replication role and positions.
        /// Sessionless and admission-exempt, like `Metrics`.
        27 ReplStatus "repl_status" Control,
        /// Read one predicate of a registered view. Snapshot-pinned: the
        /// view's model at the session's watermark, never a newer one,
        /// and a view registered after the watermark is answered that
        /// it is unknown.
        29 ViewAsk "view_ask" Read {
            /// Issuing session.
            session: u64,
            /// The registered view to read.
            name: String,
            /// Predicate whose tuples are wanted (e.g. `inT`).
            pred: String,
        },
        /// Structure-similarity recall: which past decisions looked like
        /// the named one? Answers [`Response::RecallHits`], best first;
        /// retracted precedents are included and flagged.
        30 Recall "recall" Read {
            /// Issuing session.
            session: u64,
            /// The probe decision's instance name.
            name: String,
            /// Maximum number of hits.
            limit: u32,
        },
        /// Render the deductive evaluator's join plan and cost estimate
        /// for the base program, the stored rules, and any extra rules in
        /// `src`, against the EDB cardinalities measured at the session's
        /// pin. Answers [`Response::Done`] with the rendered plan.
        31 Explain "explain" Read {
            /// Issuing session.
            session: u64,
            /// Extra datalog rules to cost alongside the stored rule base
            /// (may be empty).
            src: String,
        },
        /// One Model Display view of an object at the session's pin
        /// (§3.3.1): `isa` (the specialization tree below it),
        /// `instances` (the classification tree) or `attrs` (the
        /// relational display of its attributes). Any other view is
        /// rejected. Answers [`Response::Table`].
        32 Browse "browse" Read {
            /// Issuing session.
            session: u64,
            /// `isa`, `instances` or `attrs`.
            view: String,
            /// The object in focus.
            name: String,
        },
        /// The full Consistency Checker run at the session's pin. Answers
        /// [`Response::Table`] with the violations, or the constraints
        /// and classes it checked.
        33 Check "check" Read {
            /// Issuing session.
            session: u64,
        },
        /// Commit one journal op — an UNTELL, a definition, a
        /// registration, an execution, a retraction, a nogood or a view
        /// — exactly as a replay of the history applies it. `Tell` ops
        /// travel on their own row; `CheckpointCovers` and `Seal` are
        /// not client writes. Both are refused as `BadRequest`.
        34 Write "write" Write {
            /// Issuing session.
            session: u64,
            /// The op to commit.
            op: JournalOp,
        },
    }
}

impl Request {
    /// The label the request is counted under in the metrics: a
    /// `Write` under its op's label (`untell`, `execute`, …), so a
    /// journal op is counted alike on every row that has carried it.
    pub fn metric_label(&self) -> &'static str {
        match self {
            Request::Write { op, .. } => op.op_name(),
            req => req.op_name(),
        }
    }
}

/// Typed error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum ErrorCode {
    /// The admission gate is full; back off and retry.
    Overloaded = 1,
    /// The session id is unknown (never opened, or closed).
    UnknownSession = 2,
    /// The session exceeded its idle timeout and was reaped.
    SessionExpired = 3,
    /// The request frame could not be decoded.
    BadRequest = 4,
    /// The knowledge base rejected the operation (parse/eval error).
    Rejected = 5,
    /// The server is draining and no longer accepts work.
    ShuttingDown = 6,
    /// An internal I/O failure (e.g. during SAVE/LOAD).
    Internal = 7,
    /// The static analyzer rejected a TELL at admission time; the
    /// message carries the rendered diagnostics and nothing was
    /// admitted.
    LintRejected = 8,
    /// A follower refused a read because its lag behind the leader
    /// exceeded the configured bound.
    StaleRead = 9,
    /// Sequence-epoch fencing: the peer's epoch outranks this
    /// server's, so the request (or subscription) must be refused.
    Fenced = 10,
}

impl ErrorCode {
    fn from_u32(v: u32) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::UnknownSession,
            3 => ErrorCode::SessionExpired,
            4 => ErrorCode::BadRequest,
            5 => ErrorCode::Rejected,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::Internal,
            8 => ErrorCode::LintRejected,
            9 => ErrorCode::StaleRead,
            10 => ErrorCode::Fenced,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::UnknownSession => "unknown session",
            ErrorCode::SessionExpired => "session expired",
            ErrorCode::BadRequest => "bad request",
            ErrorCode::Rejected => "rejected",
            ErrorCode::ShuttingDown => "shutting down",
            ErrorCode::Internal => "internal error",
            ErrorCode::LintRejected => "rejected by lint",
            ErrorCode::StaleRead => "stale read",
            ErrorCode::Fenced => "fenced",
        };
        f.write_str(s)
    }
}

impl Wire for ErrorCode {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u32).put(out);
    }
    fn get(c: &mut Cursor<'_>) -> StorageResult<Self> {
        let raw = c.get_u32()?;
        ErrorCode::from_u32(raw).ok_or_else(|| c.corrupt(format!("unknown error code {raw}")))
    }
}

/// One hit of a structure-similarity recall answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRecallHit {
    /// The matching decision's instance name.
    pub decision: String,
    /// Similarity score as raw `f64` bits (kept as bits so responses
    /// stay `Eq`; decode with [`WireRecallHit::score`]).
    pub score_bits: u64,
    /// True if the precedent was later retracted.
    pub retracted: bool,
}

impl WireRecallHit {
    /// The similarity score in `(0, 1]`.
    pub fn score(&self) -> f64 {
        f64::from_bits(self.score_bits)
    }
}

storage::wire_struct!(WireRecallHit {
    decision,
    score_bits,
    retracted,
});

storage::op_table! {
    /// A server-to-client response.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Response {
        /// Session opened.
        1 Welcome "welcome" {
            /// The new session id.
            session: u64,
            /// Belief-time watermark pinned for the session.
            watermark: i64,
        },
        /// Generic success with human-readable detail.
        2 Done "done" {
            /// What happened.
            text: String,
        },
        /// A list of names (ASK answers, retraction cascades, …).
        3 Names "names" {
            /// Deductive index probes (ASK only; 0 otherwise) of the
            /// work that built the answer's closure: its fixpoint, or
            /// the refresh that carried it over.
            probes: u64,
            /// Tuples scanned by that work (ASK only; 0 otherwise).
            scanned: u64,
            /// The names. The server borrows interned strings where it
            /// can; a decoded reply owns every name.
            names: Vec<Cow<'static, str>>,
        },
        /// A boolean verdict (HOLDS).
        4 Truth "truth" {
            /// The verdict.
            value: bool,
        },
        /// Rendered tabular or frame text.
        5 Table "table" {
            /// The rendered text.
            text: String,
        },
        /// Per-session statistics.
        6 SessionInfo "session_info" {
            /// Session id.
            session: u64,
            /// Pinned belief-time watermark.
            watermark: i64,
            /// The knowledge base's current belief time.
            kb_now: i64,
            /// Requests served for this session.
            requests: u64,
            /// Propositions believed at the watermark.
            believed: u64,
            /// Index probes of the session's last ASK.
            probes: u64,
            /// Tuples scanned by the session's last ASK.
            scanned: u64,
        },
        /// A typed failure.
        7 Error "error" {
            /// Machine-readable error class.
            code: ErrorCode,
            /// Human-readable detail.
            message: String,
        },
        /// Metrics scrape result (Prometheus text exposition format).
        8 Metrics "metrics" {
            /// The rendered exposition text.
            text: String,
        },
        /// The static analyzer's verdict on a `Lint` request (empty when
        /// the source is clean).
        9 Diagnostics "diagnostics" {
            /// The diagnostics, errors first.
            diags: Vec<WireDiagnostic>,
        },
        /// A write reached a read replica; retry against the leader.
        10 Redirect "redirect" {
            /// The leader's address, as configured on the follower.
            leader: String,
        },
        /// A read served by a follower, wrapped with its staleness. The
        /// inner payload is an ordinary encoded [`Response`].
        11 Stale "stale" {
            /// The follower's applied op sequence at answer time.
            applied_seq: u64,
            /// How many committed leader ops the follower still lacks.
            lag: u64,
            /// The encoded inner response.
            inner: Vec<u8>,
        },
        /// The server's replication role and stream positions.
        12 ReplInfo "repl_info" {
            /// True on the leader (or a promoted follower).
            is_leader: bool,
            /// The leader address a follower ships from (empty on the
            /// leader itself).
            leader: String,
            /// Ops applied locally.
            applied_seq: u64,
            /// The leader's committed sequence as last observed.
            leader_seq: u64,
            /// The server's sequence epoch.
            epoch: u64,
            /// True while a follower's subscription is live.
            connected: bool,
        },
        /// Answer to a structure-similarity recall, best hit first.
        13 RecallHits "recall_hits" {
            /// The scored hits.
            hits: Vec<WireRecallHit>,
        },
    }
}

/// Writes one frame (record header + payload) to `w` and flushes.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    record::write_record(w, payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    w.flush()
}

/// Outcome of one attempt to read a frame.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete, CRC-valid frame payload.
    Frame(Vec<u8>),
    /// The peer closed the stream cleanly (EOF at a frame boundary).
    Eof,
    /// A read timeout fired before any byte of the next frame arrived.
    /// The caller should check for shutdown and retry.
    Idle,
}

/// How many consecutive mid-frame timeouts to tolerate before giving
/// up on a half-sent frame (protects shutdown drain from a stalled
/// peer; with the server's 100 ms poll interval this is ~5 s). The
/// client divides its read timeout by this to size its poll slice.
pub const MID_FRAME_TIMEOUT_RETRIES: u32 = 50;

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A stream read inside a started frame: a timeout there means the
/// peer is mid-send, so it is waited out, up to
/// [`MID_FRAME_TIMEOUT_RETRIES`] in a row, rather than reported.
struct MidFrame<'a, R> {
    inner: &'a mut R,
    stalls: u32,
}

impl<R: Read> Read for MidFrame<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_timeout(&e) => {
                    self.stalls += 1;
                    if self.stalls > MID_FRAME_TIMEOUT_RETRIES {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "peer stalled mid-frame",
                        ));
                    }
                }
                read => {
                    self.stalls = 0;
                    return read;
                }
            }
        }
    }
}

/// Reads one frame from `r`. If the stream has a read timeout set, a
/// timeout *between* frames yields [`FrameRead::Idle`] so the caller
/// can poll a shutdown flag; a timeout *inside* a frame keeps waiting
/// (bounded), because the peer is mid-send.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<FrameRead> {
    read_frame_into(r, Vec::new())
}

/// [`read_frame`] into `payload`, a buffer the caller allocated before
/// the read could block. Whatever it held is discarded; it comes back,
/// filled, in [`FrameRead::Frame`]. The record itself — length cap,
/// chunked fill, CRC — is [`record::read_record_into`]'s; this adds
/// only the stream policy: end of stream or a timeout before the first
/// byte is `Eof` or `Idle`, anything after it is mid-frame.
pub(crate) fn read_frame_into<R: Read>(r: &mut R, payload: Vec<u8>) -> io::Result<FrameRead> {
    let first = loop {
        let mut b = [0u8; 1];
        match r.read(&mut b) {
            Ok(0) => return Ok(FrameRead::Eof),
            Ok(_) => break b,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Ok(FrameRead::Idle),
            Err(e) => return Err(e),
        }
    };
    let mut rest = MidFrame {
        inner: r,
        stalls: 0,
    };
    match record::read_record_into(&mut (&first[..]).chain(&mut rest), 0, payload) {
        Ok(record::ReadOutcome::Record(p)) => Ok(FrameRead::Frame(p)),
        Ok(record::ReadOutcome::Eof | record::ReadOutcome::Torn { .. }) => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ended mid-frame",
        )),
        Ok(record::ReadOutcome::BadCrc { .. }) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length over the cap, or CRC mismatch",
        )),
        Err(storage::StorageError::Io(e)) => Err(e),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use storage::record::codec;

    // The golden fixtures hold, for every row, a sample built from
    // per-type sample values (`u64` 7, `i64` -3, `u32` 5, `bool` true,
    // strings "Paper", bytes `00 ff 62`, `Some` and one-element lists,
    // plus `None`/empty/other-tag variants), encoded by the hand-written
    // encoders these tables replaced.

    #[test]
    fn request_table_matches_the_golden_bytes() {
        let samples =
            Request::check_golden(include_str!("../../../tests/fixtures/wire/request.hex"));
        assert_eq!(Request::OPS.len(), 29);
        // The admission-exempt set, by label: exactly the Control rows.
        let mut control: Vec<&str> = samples
            .iter()
            .filter(|r| r.class() == OpClass::Control)
            .map(Request::op_name)
            .collect();
        control.dedup();
        assert_eq!(
            control,
            [
                "hello",
                "bye",
                "ping",
                "shutdown",
                "metrics",
                "replicate",
                "promote",
                "repl_status"
            ]
        );
        // What a follower redirects to its leader: exactly the Write rows.
        let mut write: Vec<&str> = samples
            .iter()
            .filter(|r| r.class() == OpClass::Write)
            .map(Request::op_name)
            .collect();
        write.dedup();
        assert_eq!(write, ["tell", "load", "write"]);
        // One `write` line per op a client sends on that row: the first
        // journal golden line of the op, behind the row's opcode and
        // session.
        let journal = include_str!("../../../tests/fixtures/wire/journal_op.hex");
        let ops: Vec<&str> = (samples.iter())
            .filter_map(|r| match r {
                Request::Write { session: 7, op } => Some(op.op_name()),
                _ => None,
            })
            .collect();
        assert_eq!(
            ops,
            [
                "object_class",
                "decision_class",
                "tool",
                "register",
                "execute",
                "retract",
                "nogood",
                "untell",
                "register_view"
            ]
        );
        let requests = include_str!("../../../tests/fixtures/wire/request.hex");
        for label in ops {
            let sample = journal
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{label} ")));
            let line = format!("write 220000000700000000000000{}", sample.unwrap());
            assert!(requests.lines().any(|l| l == line), "{label}");
        }
    }

    #[test]
    fn response_table_matches_the_golden_bytes() {
        Response::check_golden(include_str!("../../../tests/fixtures/wire/response.hex"));
        assert_eq!(Response::OPS.len(), 13);
    }

    #[test]
    fn names_borrowed_from_the_symbol_pool_encode_like_owned_strings() {
        let texts = ["p1", "<p1 sender maria>", "", "é x", "p1 42"];
        let names = |name: fn(&'static str) -> Cow<'static, str>| Response::Names {
            probes: 3,
            scanned: 9,
            names: texts.iter().map(|&t| name(t)).collect(),
        };
        let owned = names(|t| Cow::Owned(t.to_string()));
        let borrowed = names(|t| Cow::Borrowed(datalog::intern::intern(t).as_str()));
        assert_eq!(borrowed.encode(), owned.encode());
        assert_eq!(Response::decode(&borrowed.encode()).unwrap(), owned);
    }

    #[test]
    fn decision_request_roundtrips() {
        let execute = |decision| Request::Write {
            session: 9,
            op: JournalOp::Execute { request: decision },
        };
        let req = execute(WireDecision {
            class: "ImplementDecision".into(),
            name: "D1".into(),
            performer: "maria".into(),
            tool: Some("compiler".into()),
            inputs: vec!["Spec1".into()],
            outputs: vec![("Impl1".into(), "Implementation".into())],
            discharges: vec![
                WireDischarge::Formal {
                    obligation: "Ob1".into(),
                },
                WireDischarge::Signature {
                    obligation: "Ob2".into(),
                    by: "erik".into(),
                },
            ],
        });
        assert_eq!(Request::decode(&req.encode()).expect("decode"), req);
        let bare = execute(WireDecision::new("D", "d", "p"));
        assert_eq!(Request::decode(&bare.encode()).expect("decode"), bare);
    }

    /// The hand-written decoders read any non-zero `Option` tag as
    /// `Some` and any non-zero word as `true`; through the shared
    /// `Wire` impls a tag no encoder produces is corruption.
    #[test]
    fn option_and_bool_tags_other_than_0_and_1_are_rejected() {
        let diag = |witness_tag: u32, severity: u32| {
            let mut p = Vec::new();
            codec::put_u32(&mut p, 9); // Diagnostics
            codec::put_u32(&mut p, 1);
            codec::put_u32(&mut p, severity);
            for s in ["CB001", "rule `r`", "unsafe"] {
                codec::put_str(&mut p, s);
            }
            codec::put_u32(&mut p, witness_tag);
            codec::put_str(&mut p, "variable `X`");
            codec::put_u32(&mut p, 0);
            p
        };
        assert!(Response::decode(&diag(1, 1)).is_ok());
        assert!(Response::decode(&diag(2, 1)).is_err(), "witness tag 2");
        assert!(Response::decode(&diag(1, 2)).is_err(), "severity word 2");

        let truth = |word: u32| {
            let mut p = Vec::new();
            codec::put_u32(&mut p, 4); // Truth
            codec::put_u32(&mut p, word);
            p
        };
        assert!(Response::decode(&truth(1)).is_ok());
        assert!(Response::decode(&truth(7)).is_err(), "bool word 7");

        let execute = |tool_tag: u32| {
            let mut p = Vec::new();
            codec::put_u32(&mut p, 34); // Write
            codec::put_u64(&mut p, 1);
            codec::put_u32(&mut p, 5); // … of an `execute` op
            for s in ["D", "d", "p"] {
                codec::put_str(&mut p, s);
            }
            codec::put_u32(&mut p, tool_tag);
            codec::put_str(&mut p, "compiler");
            for _ in 0..3 {
                codec::put_u32(&mut p, 0);
            }
            p
        };
        assert!(Request::decode(&execute(1)).is_ok());
        assert!(Request::decode(&execute(2)).is_err(), "tool tag 2");
    }

    #[test]
    fn wire_diagnostic_one_line_matches_analysis() {
        let d = analysis::Diagnostic::error("CB001", "rule `r`", "bad")
            .with_witness("variable `X`")
            .at_line(Some(2));
        assert_eq!(WireDiagnostic::from_diagnostic(&d).one_line(), d.one_line());
    }

    #[test]
    fn unknown_opcode_is_decode_error() {
        let mut buf = Vec::new();
        codec::put_u32(&mut buf, 999);
        assert!(Request::decode(&buf).is_err());
        assert!(Response::decode(&buf).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Request::Ping.encode();
        buf.push(0);
        assert!(Request::decode(&buf).is_err());
    }

    #[test]
    fn frame_roundtrip_over_a_pipe() {
        let mut buf = Vec::new();
        let payload = Request::Tell {
            session: 1,
            src: "tell X end".into(),
        }
        .encode();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = std::io::Cursor::new(buf);
        match read_frame(&mut r).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, payload),
            other => panic!("unexpected {other:?}"),
        }
        match read_frame(&mut r).unwrap() {
            FrameRead::Eof => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_frame_is_read_into_the_buffer_it_is_given() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, &[7u8; 100]).unwrap();
        let mut r = std::io::Cursor::new(wire);
        // Room enough: the caller's allocation comes back, filled.
        let given = Vec::with_capacity(64);
        let at = given.as_ptr();
        let back = match read_frame_into(&mut r, given).unwrap() {
            FrameRead::Frame(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(back, b"hello");
        assert_eq!((back.as_ptr(), back.capacity()), (at, 64));
        // A longer frame grows it, and nothing it held shows through.
        match read_frame_into(&mut r, back).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, [7u8; 100]),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A peer that sends a frame header promising `MAX_RECORD_LEN`
    /// bytes, then `trickle` payload bytes, then nothing: each later
    /// read times out, or the stream ends. Records the widest buffer a
    /// read was handed: how far past the bytes already received the
    /// frame's buffer reaches.
    struct HeaderThenStall {
        wire: Vec<u8>,
        at: usize,
        eof: bool,
        widest: usize,
    }

    impl HeaderThenStall {
        fn new(trickle: usize, eof: bool) -> Self {
            let mut wire = (record::MAX_RECORD_LEN as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(&0u32.to_le_bytes());
            wire.resize(wire.len() + trickle, 7);
            HeaderThenStall {
                wire,
                at: 0,
                eof,
                widest: 0,
            }
        }
    }

    impl Read for HeaderThenStall {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.widest = self.widest.max(buf.len());
            // A few bytes at a time, like a slow peer.
            let n = buf.len().min(1000).min(self.wire.len() - self.at);
            if n > 0 {
                buf[..n].copy_from_slice(&self.wire[self.at..self.at + n]);
                self.at += n;
                Ok(n)
            } else if self.eof {
                Ok(0)
            } else {
                Err(io::ErrorKind::WouldBlock.into())
            }
        }
    }

    #[test]
    fn a_frame_header_alone_cannot_make_the_reader_allocate_its_length() {
        // The last trickle is past half the cap: a buffer whose capacity
        // grew by doubling can by then hold the whole promised length.
        let past_half = record::MAX_RECORD_LEN / 2 + record::READ_CHUNK + 3;
        for trickle in [0, 5, record::READ_CHUNK + 3, past_half] {
            for eof in [false, true] {
                let mut peer = HeaderThenStall::new(trickle, eof);
                let err = match read_frame_into(&mut peer, Vec::new()) {
                    Err(e) => e,
                    Ok(other) => panic!("unexpected {other:?}"),
                };
                let kind = if eof {
                    io::ErrorKind::UnexpectedEof
                } else {
                    io::ErrorKind::TimedOut
                };
                assert_eq!(err.kind(), kind, "trickle {trickle}");
                assert_eq!(peer.at, peer.wire.len(), "every byte sent was read");
                assert!(
                    peer.widest <= record::READ_CHUNK,
                    "trickle {trickle}: a read was handed {} bytes",
                    peer.widest
                );
            }
        }
    }

    #[test]
    fn a_frame_larger_than_its_buffer_is_read_in_chunks() {
        let payload: Vec<u8> = (0..3 * record::READ_CHUNK + 17).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        write_frame(&mut wire, b"next").unwrap();
        let mut r = std::io::Cursor::new(wire);
        match read_frame_into(&mut r, Vec::with_capacity(64)).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, payload),
            other => panic!("unexpected {other:?}"),
        }
        match read_frame(&mut r).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, b"next"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn corrupt_frame_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let flip = record::HEADER_LEN + 1;
        buf[flip] ^= 0x20;
        let mut r = std::io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }
}
