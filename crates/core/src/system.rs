//! The GKBMS proper: design-object registration, system-guided tool
//! selection, decision execution as nested transactions, and selective
//! backtracking (§2.2, §3.2).
//!
//! Every decision class, tool and executed decision is documented in
//! full in the Telos KB (fig 3-3), the one copy of the design record:
//! [`crate::record`] reads it back. Beside the KB, `Gkbms` keeps one
//! [`DesignIndex`], the fold of what each commit told: each executed
//! decision as the record decodes it, and each design object's
//! registration with the decisions that produced and used it. Every
//! read of the decisions goes through the index. Retracting a
//! decision takes exactly its consequences OUT, walked along the
//! index's user and producer lists — "supporting this consistent,
//! selective backtracking is the main purpose of introducing the
//! explicit documentation of design decisions and dependencies" (§2.1).
//!
//! Every mutator below is one write transaction
//! ([`Gkbms::transaction`]) that ends in the one commit point
//! ([`Gkbms::commit`]): the op that replays it is appended to
//! `history` (and the journal). A mutator that fails commits nothing
//! and is rolled back to the transaction's mark, clock included, so
//! the live state is always the replay of the history, tick for tick.
//! The commit files the index from what its op told.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::decisions::{DecisionClass, Discharge, ToolSpec};
use crate::design::{Decision, DesignIndex, DesignWriter};
use crate::error::{GkbmsError, GkbmsResult};
use crate::metamodel::{self, names, ProcessModel};
use crate::persist::JournalOp;
use crate::record::{self, Record};
use crate::views::RegisteredView;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, PoisonError};
use telos::assertion;
use telos::{Appender, Kb, KbVersion, Log, PropId, Snapshot};

/// A request to execute a design decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRequest {
    /// Decision class name.
    pub class: String,
    /// Instance name (e.g. `normalizeInvitations`).
    pub name: String,
    /// The deciding agent.
    pub performer: String,
    /// Tool used, if any.
    pub tool: Option<String>,
    /// Names of existing design objects consumed (FROM).
    pub inputs: Vec<String>,
    /// `(name, design-object class)` pairs created (TO).
    pub outputs: Vec<(String, String)>,
    /// Discharges for obligations the tool does not guarantee.
    pub discharges: Vec<Discharge>,
}

impl DecisionRequest {
    /// A builder-style constructor.
    pub fn new(class: &str, name: &str, performer: &str) -> Self {
        DecisionRequest {
            class: class.to_string(),
            name: name.to_string(),
            performer: performer.to_string(),
            tool: None,
            inputs: Vec::new(),
            outputs: Vec::new(),
            discharges: Vec::new(),
        }
    }

    /// Sets the tool.
    pub fn with_tool(mut self, tool: &str) -> Self {
        self.tool = Some(tool.to_string());
        self
    }

    /// Adds an input object.
    pub fn input(mut self, name: &str) -> Self {
        self.inputs.push(name.to_string());
        self
    }

    /// Adds an output object with its design-object class.
    pub fn output(mut self, name: &str, class: &str) -> Self {
        self.outputs.push((name.to_string(), class.to_string()));
        self
    }

    /// Adds a discharge.
    pub fn discharge(mut self, d: Discharge) -> Self {
        self.discharges.push(d);
        self
    }
}

/// The documentation of one executed decision, as [`crate::record`]
/// reads it from the KB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Instance name.
    pub name: String,
    /// Decision class.
    pub class: String,
    /// The deciding agent.
    pub performer: String,
    /// Tool used, if any.
    pub tool: Option<String>,
    /// Input object names.
    pub inputs: Vec<String>,
    /// Output object names.
    pub outputs: Vec<String>,
    /// Design-object class of each output (parallel to `outputs`).
    pub output_classes: Vec<String>,
    /// Recorded discharges.
    pub discharges: Vec<Discharge>,
    /// Belief tick at execution: the decision's commit tick.
    pub tick: i64,
    /// The decision instance proposition.
    pub prop: PropId,
}

/// One version of the state as a reader pins it ([`Gkbms::capture`]):
/// handles bounded at the capture, so every read of it answers alike
/// however many commits land after it — plus the one lint memo, keyed
/// by content.
#[derive(Clone)]
pub struct Published {
    /// The store, as of the capture.
    pub kb: KbVersion,
    /// The design index, as of the capture.
    pub design: DesignIndex,
    /// The history, as of the capture.
    pub history: Log<Arc<[u8]>>,
    /// The live state's lint memo ([`lint_src`] at any version).
    pub lint: Arc<Mutex<analysis::AnalysisCache>>,
    /// The registered views, as of the capture (see [`crate::views`]).
    pub views: Arc<[RegisteredView]>,
}

/// Summary returned by a successful execution.
#[derive(Debug, Clone)]
pub struct DecisionSummary {
    /// Decision instance name.
    pub name: String,
    /// Objects created.
    pub created: Vec<String>,
    /// Belief tick of the execution.
    pub tick: i64,
}

/// The Global KBMS.
///
/// Every mutation goes through a method that ends in `Gkbms::commit`,
/// and there is no `&mut Kb` to be had from outside the crate: `live ==
/// fold(apply, history)` has no escape hatch in the public API.
pub struct Gkbms {
    pub(crate) kb: Kb,
    pub(crate) pm: ProcessModel,
    /// The executed decisions and the design objects, as the commits
    /// told them (see [`crate::design`]).
    pub(crate) design: DesignWriter,
    /// Decision-level nogoods recorded by conflict resolution.
    pub(crate) nogoods: Vec<Vec<String>>,
    /// The history: every committed op, as the journal holds it, in
    /// commit order — what `save` and a snapshot write down. Everything
    /// else in this struct is derived from it by replay. Appended to by
    /// [`Gkbms::commit`] only.
    pub(crate) history: Appender<Log<Arc<[u8]>>>,
    /// Raw TELLs and UNTELLs in `history`, counted by [`Gkbms::commit`]:
    /// the write mix CB013 weighs a view's churn risk by.
    pub(crate) tells_untells: (u64, u64),
    /// Live write-ahead journal, when attached via [`Gkbms::recover`].
    pub(crate) journal: Option<crate::journal::Journal>,
    /// Sequence epoch: starts at 1 and is bumped by [`Gkbms::promote`]
    /// when a replica takes over as leader. Every WAL record is framed
    /// with the epoch it was written under; a replica's admission check
    /// refuses records from an older epoch (fencing a deposed leader).
    pub(crate) epoch: u64,
    /// The registered views, in registration order (see
    /// [`crate::views`]): replaced, not changed, by a registration, so
    /// every capture shares it.
    pub(crate) views: Arc<[RegisteredView]>,
    /// The per-SCC fingerprint cache of the admission-time analyzer:
    /// a TELL re-analyzes only the components its delta dirties. Every
    /// published version carries this one memo.
    pub(crate) lint_cache: Arc<Mutex<analysis::AnalysisCache>>,
    /// The store version [`Gkbms::capture`] took last: the predecessor
    /// the next capture inherits its closures from.
    pub(crate) captured: Option<KbVersion>,
}

impl Gkbms {
    /// A fresh GKBMS with the process model and DAIDA kernel installed.
    pub fn new() -> GkbmsResult<Self> {
        let mut kb = Kb::new();
        let pm = metamodel::bootstrap(&mut kb)?;
        metamodel::install_kernel(&mut kb, &pm)?;
        Ok(Gkbms {
            kb,
            pm,
            design: DesignWriter::default(),
            nogoods: Vec::new(),
            history: Appender::default(),
            tells_untells: (0, 0),
            journal: None,
            epoch: 1,
            views: Vec::new().into(),
            lint_cache: Arc::default(),
            captured: None,
        })
    }

    /// The current sequence epoch (1 on a fresh system; bumped by every
    /// [`Gkbms::promote`] in the system's history).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The last op sequence this instance holds: the length of its
    /// history, since op `n` of the journal is the `n`th commit. A
    /// journal's frame counter, a snapshot's header and a replica's
    /// position all name this one number.
    pub fn applied_seq(&self) -> u64 {
        self.history.len() as u64
    }

    /// Read access to the knowledge base.
    pub fn kb(&self) -> &Kb {
        &self.kb
    }

    /// Opens the write transaction the next mutator runs in, ticking the
    /// belief clock once, and returns the tick: everything the write
    /// creates lies strictly after any snapshot watermark pinned before
    /// it. The mutator joins this transaction instead of opening its
    /// own, so the call adds no tick of its own. Every mutator opens its
    /// transaction itself; this stays public for a caller that must pin
    /// the write's tick before the mutator runs (the benchmark's serial
    /// twin replays a server's writes through it).
    pub fn begin_write(&mut self) -> i64 {
        self.kb.begin()
    }

    /// Runs one journaled write as a transaction over the KB — the
    /// transaction policy, in one place. It opens with one tick (or
    /// joins the one [`Gkbms::begin_write`] opened). When `op` succeeds
    /// — it has committed — the KB keeps its changes. When it fails,
    /// the KB is rolled back to the mark: no proposition, name, closed
    /// interval or tick of the failed write remains, so a failed write
    /// changes nothing a reader, a recovery or a replica can see. `op` changes fields
    /// other than the KB only after its commit has returned Ok, and
    /// commits one op at most: the commit files everything it told.
    pub(crate) fn transaction<T>(
        &mut self,
        op: impl FnOnce(&mut Self) -> GkbmsResult<T>,
    ) -> GkbmsResult<T> {
        self.kb.begin();
        let ops = self.history.len();
        match op(self) {
            Ok(v) => {
                debug_assert!(self.history.len() <= ops + 1, "one op per transaction");
                self.kb.commit();
                Ok(v)
            }
            Err(e) => {
                self.kb.rollback();
                Err(e)
            }
        }
    }

    /// TELLs objectbase concrete syntax (`TELL … end`, possibly several
    /// frames) as one write transaction: all frames are told and the
    /// source is committed to the history, or — if any frame fails —
    /// none is. Returns the number of frames told. Runs no lint: this
    /// is how every replay applies a TELL that was admitted once.
    pub fn tell_src(&mut self, src: &str) -> GkbmsResult<usize> {
        let frames = objectbase::ObjectFrame::parse_all(src)?;
        self.tell_frames(src, &frames)
    }

    /// [`Gkbms::tell_src`] with the admission-time static analyzer in
    /// front — the live path's admission: lint errors reject the batch
    /// before anything is written; warnings are admitted and returned —
    /// unless `strict`, which rejects them too (the server's
    /// `strict_lint` switch).
    pub fn tell_src_checked(
        &mut self,
        src: &str,
        strict: bool,
    ) -> GkbmsResult<(usize, Vec<analysis::Diagnostic>)> {
        let frames = objectbase::ObjectFrame::parse_all(src)?;
        let diags = self.lint_frames(&frames);
        if analysis::has_errors(&diags) || (strict && !diags.is_empty()) {
            return Err(GkbmsError::Lint(diags));
        }
        Ok((self.tell_frames(src, &frames)?, diags))
    }

    /// Tells the frames parsed from `src` and commits `src`.
    fn tell_frames(&mut self, src: &str, frames: &[objectbase::ObjectFrame]) -> GkbmsResult<usize> {
        self.transaction(|g| {
            objectbase::transform::tell_all(&mut g.kb, frames)?;
            g.commit(JournalOp::Tell { src: src.into() })?;
            obs::counter!("gkbms_tells_total", "Frames TELLed into the knowledge base")
                .add(frames.len() as u64);
            Ok(frames.len())
        })
    }

    /// Runs the static analyzer on a parsed frame batch against the
    /// current KB, recording lint metrics.
    pub fn lint_frames(&self, frames: &[objectbase::ObjectFrame]) -> Vec<analysis::Diagnostic> {
        with_lint_metrics(self.kb.snapshot(), &self.lint_cache, |ctx, cache| {
            analysis::frames::lint_frames_cached(frames, ctx, cache)
        })
    }

    /// UNTELLs `name` (cascading) as one write transaction. Returns the
    /// number of propositions untold.
    pub fn untell(&mut self, name: &str) -> GkbmsResult<usize> {
        self.transaction(|g| {
            let gone = objectbase::transform::untell_object(&mut g.kb, name)?;
            g.commit(JournalOp::Untell { name: name.into() })?;
            obs::counter!(
                "gkbms_untells_total",
                "Objects UNTELLed (belief intervals closed)"
            )
            .inc();
            Ok(gone.len())
        })
    }

    /// The process-model metaclass ids.
    pub fn process_model(&self) -> &ProcessModel {
        &self.pm
    }

    /// The design index: the documentation of every executed decision,
    /// in execution order, as decoded at each commit, and the design
    /// objects.
    pub fn records(&self) -> &DesignIndex {
        &self.design
    }

    /// Captures the state a reader may pin: the store's version, the
    /// design index and the registered views, together — the one
    /// capture site, which the server publishes from on every commit
    /// and at start. The KB's version is a mark over its append-only
    /// store, and the design index and the history are handles bounded
    /// over their append-only logs: a few pointer bumps, O(1). A later
    /// write appends above them and copies nothing they read.
    ///
    /// The version inherits the closures of the one captured before it
    /// ([`objectbase::query::inherit`], O(1) in the number of views), so
    /// its first read of each carries that closure over by the delta
    /// between the two. Every capture of one `Gkbms` is of one lineage:
    /// a capture lands between write transactions, and a `Load`, a
    /// snapshot install or a recovery starts a fresh `Gkbms`.
    pub fn capture(&mut self) -> Published {
        let kb = self.kb.version();
        if let Some(prev) = &self.captured {
            objectbase::query::inherit(&kb, prev);
        }
        self.captured = Some(kb.clone());
        Published {
            kb,
            design: DesignIndex::clone(&self.design),
            history: Log::clone(&self.history),
            lint: Arc::clone(&self.lint_cache),
            views: Arc::clone(&self.views),
        }
    }

    /// The design record at the live head.
    pub(crate) fn reader(&self) -> Record<'_> {
        Record::over(self.kb.snapshot())
    }

    /// The documentation of a named decision.
    pub fn record(&self, name: &str) -> Option<Decision<'_>> {
        self.design.get(&self.kb, name)
    }

    // ----- schema-level definitions ---------------------------------------

    /// Defines a design-object class (an instance of `DesignObject`).
    pub fn define_object_class(
        &mut self,
        name: &str,
        level: &str,
        parent: Option<&str>,
    ) -> GkbmsResult<PropId> {
        self.transaction(|g| g.define_object_class_inner(name, level, parent))
    }

    fn define_object_class_inner(
        &mut self,
        name: &str,
        level: &str,
        parent: Option<&str>,
    ) -> GkbmsResult<PropId> {
        let c = self.kb.individual(name)?;
        self.kb.instantiate(c, self.pm.design_object)?;
        let l = self.kb.individual(level)?;
        self.kb.put_attr(c, metamodel::kernel::LEVEL, l)?;
        // Declare the instance-level link labels so tokens' links are
        // well-formed under the aggregation axiom.
        self.kb
            .put_attr(c, names::JUSTIFICATION_I, self.pm.design_decision)?;
        self.kb.put_attr(c, names::SOURCE_I, self.pm.source_ref)?;
        if let Some(p) = parent {
            let p = self
                .kb
                .lookup(p)
                .ok_or_else(|| GkbmsError::Unknown(format!("object class `{p}`")))?;
            self.kb.specialize(c, p)?;
        }
        self.commit(JournalOp::ObjectClass {
            name: name.into(),
            level: level.into(),
            parent: parent.map(Into::into),
        })?;
        Ok(c)
    }

    /// Defines a decision class (an instance of `DesignDecision`,
    /// fig 3-3 middle layer).
    pub fn define_decision_class(&mut self, dc: DecisionClass) -> GkbmsResult<PropId> {
        self.transaction(|g| g.define_decision_class_inner(dc))
    }

    fn define_decision_class_inner(&mut self, dc: DecisionClass) -> GkbmsResult<PropId> {
        if self.reader().decision_class_named(&dc.name).is_some() {
            return Err(GkbmsError::Duplicate(format!(
                "decision class `{}`",
                dc.name
            )));
        }
        let prop = self.kb.individual(&dc.name)?;
        self.kb.instantiate(prop, self.pm.design_decision)?;
        let dimension = self
            .kb
            .individual(&record::quoted(&dc.dimension.to_string()))?;
        self.anchor(prop, names::DIMENSION, dimension)?;
        if let Some(pre) = &dc.precondition {
            self.tell_text(prop, names::PRECONDITION, pre)?;
        }
        for (k, ob) in dc.obligations.iter().enumerate() {
            let o = self.kb.individual(&format!("{}!obligation{k}", dc.name))?;
            self.tell_text(o, names::NAME, &ob.name)?;
            self.tell_text(o, names::STATEMENT, &ob.statement)?;
            self.kb.put_attr(prop, names::OBLIGATION, o)?;
        }
        for from in &dc.from_classes {
            let f = self
                .kb
                .lookup(from)
                .ok_or_else(|| GkbmsError::Unknown(format!("object class `{from}`")))?;
            self.kb.put_attr(prop, names::FROM_I, f)?;
        }
        for to in &dc.to_classes {
            let t = self
                .kb
                .lookup(to)
                .ok_or_else(|| GkbmsError::Unknown(format!("object class `{to}`")))?;
            self.kb.put_attr(prop, names::TO_I, t)?;
        }
        self.kb.put_attr(prop, names::BY_I, self.pm.design_tool)?;
        // Declare the labels of decision instances.
        let proposition = self.kb.builtins().proposition;
        self.kb.put_attr(prop, names::STATUS, proposition)?;
        self.kb.put_attr(prop, names::PERFORMER, self.pm.agent)?;
        self.kb.put_attr(prop, names::DISCHARGE, proposition)?;
        if let Some(parent) = &dc.specializes {
            let p = self
                .kb
                .lookup(parent)
                .ok_or_else(|| GkbmsError::Unknown(format!("decision class `{parent}`")))?;
            self.kb.specialize(prop, p)?;
        }
        self.commit(JournalOp::DecisionClass { class: dc })?;
        Ok(prop)
    }

    /// Tells `<x, label, "text">`, the text an individual of its own
    /// (see [`record::quoted`]).
    fn tell_text(&mut self, x: PropId, label: &str, text: &str) -> GkbmsResult<PropId> {
        let v = self.kb.individual(&record::quoted(text))?;
        Ok(self.kb.put_attr(x, label, v)?)
    }

    /// Tells `<x, label, y>` as the anchor of a design step: holding
    /// from now on, which nothing else tells (see [`crate::record`]).
    fn anchor(&mut self, x: PropId, label: &str, y: PropId) -> GkbmsResult<PropId> {
        let now = record::as_of(self.kb.now());
        Ok(self.kb.put_attr_during(x, label, y, now)?)
    }

    /// True if `x`'s latest classification is not `c`, which it has
    /// just been classified under: the reader would misread the class
    /// a link is told under from the classifications alone.
    fn misread(&self, x: PropId, c: PropId) -> bool {
        self.kb.snapshot().classes_of(x).last() != Some(&c)
    }

    /// Registers a tool specification (an instance of `DesignTool`).
    pub fn register_tool(&mut self, spec: ToolSpec) -> GkbmsResult<PropId> {
        self.transaction(|g| g.register_tool_inner(spec))
    }

    fn register_tool_inner(&mut self, spec: ToolSpec) -> GkbmsResult<PropId> {
        if self.reader().tool_named(&spec.name).is_some() {
            return Err(GkbmsError::Duplicate(format!("tool `{}`", spec.name)));
        }
        let prop = self.kb.individual(&spec.name)?;
        self.kb.instantiate(prop, self.pm.design_tool)?;
        let automatic = self
            .kb
            .individual(&record::quoted(&spec.automatic.to_string()))?;
        self.anchor(prop, names::AUTOMATIC, automatic)?;
        for ob in &spec.guarantees {
            self.tell_text(prop, names::GUARANTEES, ob)?;
        }
        for dc in &spec.executes {
            let d = self
                .kb
                .lookup(dc)
                .ok_or_else(|| GkbmsError::Unknown(format!("decision class `{dc}`")))?;
            // The BY association at the class level (fig 2-6).
            self.kb.put_attr(d, names::BY_I, prop)?;
        }
        self.commit(JournalOp::Tool { spec })?;
        Ok(prop)
    }

    // ----- object registration ---------------------------------------------

    /// Registers a design object token: an abstraction of a source
    /// "recorded outside the GKB in the DAIDA sub-environments"
    /// (fig 2-5). A registered object stays current whatever is
    /// retracted.
    pub fn register_object(
        &mut self,
        name: &str,
        class: &str,
        source: &str,
    ) -> GkbmsResult<PropId> {
        self.transaction(|g| g.register_object_inner(name, class, source))
    }

    fn register_object_inner(
        &mut self,
        name: &str,
        class: &str,
        source: &str,
    ) -> GkbmsResult<PropId> {
        let c = self
            .kb
            .lookup(class)
            .ok_or_else(|| GkbmsError::Unknown(format!("object class `{class}`")))?;
        let obj = self.kb.individual(name)?;
        self.kb.instantiate(obj, c)?;
        let src = self.kb.individual(source)?;
        self.kb.instantiate(src, self.pm.source_ref)?;
        self.anchor(obj, names::SOURCE_I, src)?;
        self.commit(JournalOp::Register {
            name: name.into(),
            class: class.into(),
            source: source.into(),
        })?;
        Ok(obj)
    }

    /// True if the design object is currently believed: registered, or
    /// produced by a decision that is not retracted.
    pub fn is_current(&self, name: &str) -> bool {
        self.design.is_current(&self.kb, name) == Some(true)
    }

    /// Names of all currently believed design objects, sorted.
    pub fn current_objects(&self) -> Vec<String> {
        self.design.current().map(|(o, _)| o.to_string()).collect()
    }

    // ----- tool selection (fig 2-6) -----------------------------------------

    /// [`applicable_decisions`] at the live head.
    pub fn applicable_decisions(&self, object: &str) -> GkbmsResult<Vec<(String, Vec<String>)>> {
        applicable_decisions(self.kb.snapshot(), object)
    }

    // ----- decision execution ------------------------------------------------

    /// Executes a decision as a nested transaction: validates inputs,
    /// precondition and obligations; documents the decision instance
    /// with from/to/by links; checks consistency (set-oriented, over
    /// the batch); on violation, rolls everything back.
    pub fn execute(&mut self, req: DecisionRequest) -> GkbmsResult<DecisionSummary> {
        self.transaction(|g| g.execute_inner(req))
    }

    fn execute_inner(&mut self, req: DecisionRequest) -> GkbmsResult<DecisionSummary> {
        let reader = self.reader();
        let (class, dc) = reader
            .decision_class_named(&req.class)
            .and_then(|c| Some((c, reader.decision_class(c)?)))
            .ok_or_else(|| GkbmsError::Unknown(format!("decision class `{}`", req.class)))?;
        if self.design.get(&self.kb, &req.name).is_some() {
            return Err(GkbmsError::Duplicate(format!("decision `{}`", req.name)));
        }

        // Inputs must exist, be believed, and satisfy the precondition.
        let mut input_ids = Vec::new();
        for input in &req.inputs {
            if self.design.is_current(&self.kb, input) == Some(false) {
                return Err(GkbmsError::Precondition(format!(
                    "input `{input}` is not current (retracted)"
                )));
            }
            let id = self
                .kb
                .lookup(input)
                .ok_or_else(|| GkbmsError::Unknown(format!("input object `{input}`")))?;
            if !self.is_current(input) {
                return Err(GkbmsError::Precondition(format!(
                    "input `{input}` is not current (never registered as a design object)"
                )));
            }
            input_ids.push(id);
        }
        // Parsed once for every input it is checked against.
        if let Some(pre) = dc.precondition.as_deref().filter(|_| !input_ids.is_empty()) {
            let expr = parse_precondition(pre)?;
            for (input, &id) in req.inputs.iter().zip(&input_ids) {
                if !precondition_holds(self.kb.snapshot(), &expr, id)? {
                    return Err(GkbmsError::Precondition(format!(
                        "`{pre}` fails for input `{input}`"
                    )));
                }
            }
        }

        // Tool association (fig 2-6): the tool must execute this class
        // or a generalization of it.
        let mut guarantees = Vec::new();
        if let Some(tool) = &req.tool {
            let t = reader
                .tool_named(tool)
                .ok_or_else(|| GkbmsError::Unknown(format!("tool `{tool}`")))?;
            if !reader.tools_covering(class).contains(&t) {
                return Err(GkbmsError::Precondition(format!(
                    "tool `{tool}` is not associated with decision class `{}`",
                    dc.name
                )));
            }
            guarantees = reader.guarantees(t);
        }

        // Obligations: guaranteed by the tool, or discharged formally /
        // by signature.
        for ob in &dc.obligations {
            if guarantees.contains(&ob.name) {
                continue;
            }
            let discharge = req
                .discharges
                .iter()
                .find(|d| d.obligation() == ob.name)
                .ok_or_else(|| {
                    GkbmsError::Obligation(format!(
                        "`{}` of `{}` — not guaranteed by the tool and not discharged",
                        ob.name, dc.name
                    ))
                })?;
            if let Discharge::Formal { .. } = discharge {
                // A formal proof evaluates the obligation's statement.
                let expr = assertion::parse(&ob.statement).map_err(|e| {
                    GkbmsError::Obligation(format!(
                        "`{}` cannot be proved formally ({e}); sign it instead",
                        ob.name
                    ))
                })?;
                let holds = assertion::eval(&self.kb.snapshot(), &expr, &mut assertion::Env::new())
                    .map_err(|e| {
                        GkbmsError::Obligation(format!("`{}` unevaluable: {e}", ob.name))
                    })?;
                if !holds {
                    return Err(GkbmsError::Obligation(format!(
                        "`{}` formally refuted",
                        ob.name
                    )));
                }
            }
        }

        self.execute_body(&req, class, &dc, &input_ids)
    }

    /// Documents the decision, ticks once more — a reader finds the
    /// decision from that tick on (see [`crate::record`]) — and commits,
    /// which files the decision in the design index as the record reads
    /// it back.
    fn execute_body(
        &mut self,
        req: &DecisionRequest,
        class: PropId,
        dc: &DecisionClass,
        input_ids: &[PropId],
    ) -> GkbmsResult<DecisionSummary> {
        let decision = self.kb.individual(&req.name)?;
        self.kb.instantiate(decision, class)?;
        let misread = self.misread(decision, class);
        let performer = self.kb.individual(&req.performer)?;
        self.kb.instantiate(performer, self.pm.agent)?;
        let anchor = self.anchor(decision, names::PERFORMER, performer)?;
        if misread {
            self.tell_text(anchor, names::CLASS, &req.class)?;
        }
        for &input in input_ids {
            self.kb.put_attr(decision, names::FROM_I, input)?;
        }
        let mut output_names = Vec::new();
        for (name, class) in &req.outputs {
            let c = self
                .kb
                .lookup(class)
                .ok_or_else(|| GkbmsError::Unknown(format!("object class `{class}`")))?;
            // The output class must be covered by the decision class's
            // TO declaration (exactly or as a specialization).
            let ancestors = self.kb.snapshot().isa_ancestors(c);
            let to_ok = dc.to_classes.iter().any(|tc| {
                self.kb
                    .lookup(tc)
                    .is_some_and(|tcid| tcid == c || ancestors.contains(&tcid))
            });
            if !to_ok && !dc.to_classes.is_empty() {
                return Err(GkbmsError::Precondition(format!(
                    "output class `{class}` is not among TO classes of `{}`",
                    dc.name
                )));
            }
            let obj = self.kb.individual(name)?;
            self.kb.instantiate(obj, c)?;
            let misread = self.misread(obj, c);
            let to = self.kb.put_attr(decision, names::TO_I, obj)?;
            if misread {
                self.tell_text(to, names::CLASS, class)?;
            }
            self.kb.put_attr(obj, names::JUSTIFICATION_I, decision)?;
            output_names.push(name.clone());
        }
        if let Some(tool) = &req.tool {
            let t = self.kb.expect(tool)?;
            self.kb.put_attr(decision, names::BY_I, t)?;
        }
        for (k, d) in req.discharges.iter().enumerate() {
            let x = self.kb.individual(&format!("{}!discharge{k}", req.name))?;
            self.tell_text(x, names::OBLIGATION, d.obligation())?;
            match d {
                Discharge::Formal { .. } => self.tell_text(x, names::KIND, record::FORMAL)?,
                Discharge::Signature { by, .. } => {
                    self.tell_text(x, names::KIND, record::SIGNATURE)?;
                    self.tell_text(x, names::SIGNER, by)?
                }
            };
            self.kb.put_attr(decision, names::DISCHARGE, x)?;
        }

        // Set-oriented consistency check over what the transaction told (E-1).
        let told = self.kb.txn_mark().map(|m| self.kb.delta_since(&m).told);
        let (violations, _) =
            objectbase::consistency::check_touched(self.kb.snapshot(), &told.unwrap_or_default());
        if !violations.is_empty() {
            return Err(GkbmsError::Aborted {
                violations: violations.iter().map(|v| v.to_string()).collect(),
            });
        }

        let tick = self.kb.tick();
        self.commit(JournalOp::Execute {
            request: req.clone(),
        })?;
        obs::counter!(
            "gkbms_decisions_executed_total",
            "Design decisions executed successfully"
        )
        .inc();
        obs::counter!(
            "gkbms_obligations_discharged_total",
            "Proof obligations discharged (formally or by signature)"
        )
        .add(req.discharges.len() as u64);
        Ok(DecisionSummary {
            name: req.name.clone(),
            created: output_names,
            tick,
        })
    }

    // ----- selective backtracking (fig 2-4) -----------------------------------

    /// Retracts a decision "together with all its consequent changes,
    /// without redoing all the rest of the design". Returns the names
    /// of the design objects that went out of belief — fig 2-4's
    /// highlighted objects.
    ///
    /// The `retracted` flags change only when the retraction commits;
    /// the objects' labels follow from them.
    pub fn retract_decision(&mut self, name: &str) -> GkbmsResult<Vec<String>> {
        self.transaction(|g| g.retract_inner(name))
    }

    fn retract_inner(&mut self, name: &str) -> GkbmsResult<Vec<String>> {
        let at = (self.design.ordinal(&self.kb, name))
            .ok_or_else(|| GkbmsError::NotRetractable(format!("unknown decision `{name}`")))?;
        if self.design.decision(at).is_some_and(|d| d.retracted) {
            return Err(GkbmsError::NotRetractable(format!(
                "decision `{name}` already retracted"
            )));
        }
        let (affected, dangling) = self.consequences(at);

        // Documentation: close belief of the affected objects and mark
        // the decision instances as retracted; the records stay — the
        // GKBMS never forgets history.
        for obj in &affected {
            if let Some(id) = self.kb.lookup(obj) {
                self.kb.untell_cascade(id)?;
            }
        }
        let retracted_status = self.kb.individual(record::RETRACTED)?;
        for i in std::iter::once(at).chain(dangling) {
            let decision = self.design[i].prop;
            self.anchor(decision, names::STATUS, retracted_status)?;
        }
        self.kb.tick();
        self.commit(JournalOp::Retract { name: name.into() })?;
        obs::counter!(
            "gkbms_decisions_retracted_total",
            "Design decisions retracted (explicit plus cascaded)"
        )
        .inc();
        Ok(affected)
    }

    /// What retracting the decision at ordinal `at` takes OUT, walked
    /// along the design index: the objects, sorted, and the ordinals of
    /// the other live (non-retracted) producers of one, which dangle and
    /// go too, so that only their own replay reinstates them (§3.3).
    /// Over-delete `at`'s IN outputs and, to a fixpoint, the IN outputs
    /// of each live user of one; then rederive, to a fixpoint, each
    /// object a live producer but `at` derives from current inputs none
    /// of which is over-deleted. Every output of a live decision is
    /// current, so those outputs are IN unless registered.
    fn consequences(&self, at: usize) -> (Vec<String>, BTreeSet<usize>) {
        let (design, names): (&DesignIndex, _) = (&self.design, &*self.kb);
        let live = |r: &Decision<'_>| !r.retracted && r.ordinal != at;
        fn outputs(r: &DecisionRecord) -> impl Iterator<Item = &str> {
            r.outputs.iter().map(String::as_str)
        }
        let mut out: BTreeSet<&str> = BTreeSet::new();
        let mut frontier: Vec<&str> = outputs(&design[at]).collect();
        while let Some(o) = frontier.pop() {
            if !design.registered(names, o) && out.insert(o) {
                let users = design.users(names, o).filter(live);
                frontier.extend(users.flat_map(|r| outputs(r.record)));
            }
        }
        let producers = |o: &str| design.producers(names, o).filter(live);
        let mut candidates: Vec<(&str, Vec<Decision<'_>>)> =
            out.iter().map(|&o| (o, producers(o).collect())).collect();
        let supported = |out: &BTreeSet<&str>, r: &Decision<'_>| {
            (r.inputs.iter()).all(|x| self.is_current(x) && !out.contains(x.as_str()))
        };
        loop {
            let (back, stay): (Vec<_>, Vec<_>) =
                (candidates.into_iter()).partition(|(_, ps)| ps.iter().any(|r| supported(&out, r)));
            candidates = stay;
            if back.is_empty() {
                break;
            }
            for (o, _) in back {
                out.remove(o);
            }
        }
        let dangling = candidates
            .into_iter()
            .flat_map(|(_, ps)| ps)
            .map(|r| r.ordinal);
        (
            out.into_iter().map(str::to_string).collect(),
            dangling.collect(),
        )
    }

    /// True if the decision is effective: executed and not retracted,
    /// so all its outputs are current (a retraction retracts every
    /// other producer of what it takes out).
    pub fn is_effective(&self, name: &str) -> bool {
        (self.design.get(&self.kb, name)).is_some_and(|r| !r.retracted)
    }
}

/// Lints arbitrary source — a CML script or a datalog program —
/// against `snap` through `memo`, admitting nothing (the `Lint` op).
pub fn lint_src(
    snap: Snapshot<'_>,
    memo: &Mutex<analysis::AnalysisCache>,
    src: &str,
) -> Vec<analysis::Diagnostic> {
    with_lint_metrics(snap, memo, |ctx, cache| {
        analysis::lint_source_cached(src, ctx, cache)
    })
}

/// Runs one lint against `snap` through `memo`, recording lint metrics.
fn with_lint_metrics(
    snap: Snapshot<'_>,
    memo: &Mutex<analysis::AnalysisCache>,
    run: impl FnOnce(&analysis::LintContext, &mut analysis::AnalysisCache) -> Vec<analysis::Diagnostic>,
) -> Vec<analysis::Diagnostic> {
    let start = std::time::Instant::now();
    let ctx = analysis::LintContext::at(snap);
    let mut cache = memo.lock().unwrap_or_else(PoisonError::into_inner);
    let (before_re, before_hits) = (cache.sccs_reanalyzed, cache.fingerprint_hits);
    let diags = run(&ctx, &mut cache);
    obs::counter!(
        "gkbms_lint_incremental_sccs_reanalyzed_total",
        "Rule-base SCCs the incremental analyzer actually re-analyzed"
    )
    .add(cache.sccs_reanalyzed - before_re);
    obs::counter!(
        "gkbms_lint_fingerprint_hits_total",
        "Rule-base SCCs served from the analyzer's fingerprint cache"
    )
    .add(cache.fingerprint_hits - before_hits);
    drop(cache);
    obs::histogram!(
        "gkbms_lint_seconds",
        "Wall-clock latency of admission-time lint runs"
    )
    .observe(start.elapsed());
    let errors = diags
        .iter()
        .filter(|d| d.severity == analysis::Severity::Error);
    let errors = errors.count();
    for (severity, n) in [("error", errors), ("warning", diags.len() - errors)] {
        if n > 0 {
            let series = format!("gkbms_lint_diagnostics_total{{severity=\"{severity}\"}}");
            let help = "Diagnostics emitted by the rule-base static analyzer";
            obs::registry().counter(&series, help).add(n as u64);
        }
    }
    diags
}

/// "The class of a selected object is matched against the input classes
/// of decision classes; by testing the other input objects and
/// preconditions of these classes, possible decisions applicable to
/// this object are determined. A tool is now applicable to the initial
/// object if it can execute one of these decision classes, normally the
/// most specific one."
///
/// Returns `(decision class, applicable tools)` pairs as believed at
/// `snap`, most specific decision class first.
pub fn applicable_decisions(
    snap: Snapshot<'_>,
    object: &str,
) -> GkbmsResult<Vec<(String, Vec<String>)>> {
    let obj = snap
        .lookup(object)
        .ok_or_else(|| GkbmsError::Unknown(format!("design object `{object}`")))?;
    let reader = Record::over(snap);
    let classes = reader.decision_classes().into_iter();
    let mut candidates: Vec<(usize, DecisionClass, PropId)> = classes
        .filter_map(|c| Some((reader.class_depth(c), reader.decision_class(c)?, c)))
        .collect();
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.name.cmp(&b.1.name)));
    let mut out = Vec::new();
    for (_, dc, c) in candidates {
        let class_match = dc.from_classes.iter().any(|fc| {
            snap.lookup(fc)
                .is_some_and(|fcid| snap.is_instance_of(obj, fcid))
        });
        if !class_match {
            continue;
        }
        if let Some(pre) = &dc.precondition {
            if !precondition_holds(snap, &parse_precondition(pre)?, obj)? {
                continue;
            }
        }
        let tools = reader.tools_covering(c).into_iter();
        let mut tools: Vec<String> = tools.map(|t| snap.store().display(t)).collect();
        tools.sort();
        tools.dedup();
        out.push((dc.name, tools));
    }
    Ok(out)
}

/// A decision class's precondition text, parsed.
pub(crate) fn parse_precondition(pre: &str) -> GkbmsResult<assertion::Expr> {
    assertion::parse(pre).map_err(GkbmsError::Telos)
}

/// True if the parsed precondition `pre` holds with `x` bound to `obj`.
pub(crate) fn precondition_holds(
    snap: Snapshot<'_>,
    pre: &assertion::Expr,
    obj: PropId,
) -> GkbmsResult<bool> {
    let mut env = assertion::Env::new();
    env.insert("x".to_string(), obj);
    assertion::eval(&snap, pre, &mut env).map_err(GkbmsError::Telos)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::decisions::DecisionDimension;
    use crate::metamodel::kernel;

    /// A GKBMS with the scenario's decision classes and tools.
    pub(crate) fn scenario_gkbms() -> Gkbms {
        let mut g = Gkbms::new().unwrap();
        g.define_decision_class(
            DecisionClass::new("DBPL_MappingDec", DecisionDimension::Mapping)
                .from_classes(&[kernel::TDL_ENTITY_CLASS])
                .to_classes(&[
                    kernel::DBPL_REL,
                    kernel::DBPL_SELECTOR,
                    kernel::DBPL_CONSTRUCTOR,
                ]),
        )
        .unwrap();
        g.define_decision_class(
            DecisionClass::new("TDL_MappingDec", DecisionDimension::Mapping)
                .from_classes(&[kernel::TDL_ENTITY_CLASS])
                .to_classes(&[
                    kernel::DBPL_REL,
                    kernel::DBPL_SELECTOR,
                    kernel::DBPL_CONSTRUCTOR,
                ])
                .precondition("x in TDL_EntityClass")
                .obligation("complete-mapping", "every attribute is mapped")
                .specializing("DBPL_MappingDec"),
        )
        .unwrap();
        g.define_decision_class(
            DecisionClass::new("DecNormalize", DecisionDimension::Refinement)
                .from_classes(&[kernel::DBPL_REL])
                .to_classes(&[
                    kernel::NORMALIZED_DBPL_REL,
                    kernel::DBPL_SELECTOR,
                    kernel::DBPL_CONSTRUCTOR,
                ])
                .obligation("normalized", "outputs are 1NF with correct keys"),
        )
        .unwrap();
        g.register_tool(
            ToolSpec::new("TDL-DBPL-Mapper", true)
                .executes("TDL_MappingDec")
                .guarantees("complete-mapping"),
        )
        .unwrap();
        g.register_tool(ToolSpec::new("DBPLEditor", false).executes("DBPL_MappingDec"))
            .unwrap();
        g
    }

    #[test]
    fn registration_and_currency() {
        let mut g = scenario_gkbms();
        g.register_object(
            "Invitation",
            kernel::TDL_ENTITY_CLASS,
            "design.tdl#Invitation",
        )
        .unwrap();
        assert!(g.is_current("Invitation"));
        assert!(!g.is_current("Ghost"));
        assert_eq!(g.current_objects(), vec!["Invitation"]);
        // The source reference is recorded.
        let obj = g.kb().lookup("Invitation").unwrap();
        let sources = g.kb().snapshot().attr_values(obj, names::SOURCE_I);
        assert_eq!(sources.len(), 1);
    }

    #[test]
    fn snapshot_surface_pins_reads() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        let watermark = g.kb().now();
        let snap_class = g.kb().lookup(kernel::TDL_ENTITY_CLASS).unwrap();
        g.begin_write();
        g.register_object("Minutes", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        let snap = g.kb().snapshot_at(watermark);
        assert!(snap.lookup("Minutes").is_none(), "snapshot predates it");
        assert_eq!(snap.all_instances_of(snap_class).len(), 1);
        assert_eq!(g.kb().snapshot().all_instances_of(snap_class).len(), 2);
    }

    #[test]
    fn tool_selection_most_specific_first() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        let menu = g.applicable_decisions("Invitation").unwrap();
        let names: Vec<&str> = menu.iter().map(|(c, _)| c.as_str()).collect();
        assert_eq!(names, vec!["TDL_MappingDec", "DBPL_MappingDec"]);
        // The specialized mapper serves the specific class; the editor
        // (bound to the general class) serves both.
        assert_eq!(menu[0].1, vec!["DBPLEditor", "TDL-DBPL-Mapper"]);
        assert_eq!(menu[1].1, vec!["DBPLEditor"]);
    }

    #[test]
    fn execute_documents_decision() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        let summary = g
            .execute(
                DecisionRequest::new("TDL_MappingDec", "mapInvitations", "developer")
                    .with_tool("TDL-DBPL-Mapper")
                    .input("Invitation")
                    .output("InvitationRel", kernel::DBPL_REL),
            )
            .unwrap();
        assert_eq!(summary.created, vec!["InvitationRel"]);
        assert!(g.is_current("InvitationRel"));
        assert!(g.is_effective("mapInvitations"));
        // KB documentation: from/to/by links on the decision instance.
        let d = g.kb().lookup("mapInvitations").unwrap();
        let from = g.kb().snapshot().attr_values(d, names::FROM_I);
        assert_eq!(from, vec![g.kb().lookup("Invitation").unwrap()]);
        let to = g.kb().snapshot().attr_values(d, names::TO_I);
        assert_eq!(to, vec![g.kb().lookup("InvitationRel").unwrap()]);
        let by = g.kb().snapshot().attr_values(d, names::BY_I);
        assert_eq!(by, vec![g.kb().lookup("TDL-DBPL-Mapper").unwrap()]);
        // The output's justification points back (fig 3-3).
        let out = g.kb().lookup("InvitationRel").unwrap();
        assert_eq!(
            g.kb().snapshot().attr_values(out, names::JUSTIFICATION_I),
            vec![d]
        );
    }

    #[test]
    fn obligations_enforced() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        // Without the mapper tool, complete-mapping is not guaranteed.
        let err = g.execute(
            DecisionRequest::new("TDL_MappingDec", "manualMap", "developer")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        );
        assert!(matches!(err, Err(GkbmsError::Obligation(_))));
        // A signature discharges it.
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "manualMap", "developer")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL)
                .discharge(Discharge::Signature {
                    obligation: "complete-mapping".into(),
                    by: "developer".into(),
                }),
        )
        .unwrap();
        assert!(g.is_effective("manualMap"));
    }

    #[test]
    fn formal_discharge_requires_evaluable_truth() {
        let mut g = scenario_gkbms();
        g.define_decision_class(
            DecisionClass::new("DecFormal", DecisionDimension::Refinement)
                .from_classes(&[kernel::DBPL_REL])
                .to_classes(&[kernel::DBPL_REL])
                .obligation("self-holds", "DBPL_Rel in DesignObject"),
        )
        .unwrap();
        g.register_object("R", kernel::DBPL_REL, "src").unwrap();
        // The statement is an evaluable assertion that holds.
        g.execute(
            DecisionRequest::new("DecFormal", "d1", "dev")
                .input("R")
                .output("R2", kernel::DBPL_REL)
                .discharge(Discharge::Formal {
                    obligation: "self-holds".into(),
                }),
        )
        .unwrap();
        // A prose obligation cannot be formally discharged.
        g.define_decision_class(
            DecisionClass::new("DecProse", DecisionDimension::Refinement)
                .from_classes(&[kernel::DBPL_REL])
                .to_classes(&[kernel::DBPL_REL])
                .obligation("manual", "this is prose, not an assertion ()"),
        )
        .unwrap();
        let err = g.execute(
            DecisionRequest::new("DecProse", "d2", "dev")
                .input("R2")
                .output("R3", kernel::DBPL_REL)
                .discharge(Discharge::Formal {
                    obligation: "manual".into(),
                }),
        );
        assert!(matches!(err, Err(GkbmsError::Obligation(_))));
    }

    #[test]
    fn unknown_references_rejected() {
        let mut g = scenario_gkbms();
        assert!(matches!(
            g.register_object("X", "NoClass", "src"),
            Err(GkbmsError::Unknown(_))
        ));
        assert!(matches!(
            g.applicable_decisions("Ghost"),
            Err(GkbmsError::Unknown(_))
        ));
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        assert!(matches!(
            g.execute(DecisionRequest::new("NoSuchDec", "d", "dev").input("Invitation")),
            Err(GkbmsError::Unknown(_))
        ));
        assert!(matches!(
            g.execute(
                DecisionRequest::new("TDL_MappingDec", "d", "dev")
                    .with_tool("NoSuchTool")
                    .input("Invitation")
            ),
            Err(GkbmsError::Unknown(_))
        ));
    }

    #[test]
    fn output_class_must_match_to_declaration() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        let before = g.kb().snapshot().believed_count();
        let err = g.execute(
            DecisionRequest::new("TDL_MappingDec", "badMap", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                // TDL_EntityClass is not among the TO classes:
                .output("Wrong", kernel::TDL_ENTITY_CLASS),
        );
        assert!(matches!(err, Err(GkbmsError::Precondition(_))));
        // The nested transaction rolled back: no stray beliefs.
        assert_eq!(g.kb().snapshot().believed_count(), before);
        assert!(!g.is_current("Wrong"));
        assert!(g.record("badMap").is_none());
    }

    /// What a failed write must leave exactly as it was: the store's
    /// length and clock, whether `name` was ever interned, and every
    /// registered view's model.
    fn untouched(g: &Gkbms, name: &str) -> impl PartialEq + std::fmt::Debug {
        let preds = ["in_", "isa", "attr", "inT", "isaT"];
        let views: Vec<Vec<Vec<Vec<datalog::ast::Value>>>> = (g.views.iter())
            .map(|v| (preds.iter().map(|p| g.view_tuples(v.name(), p).unwrap())).collect())
            .collect();
        let kb = g.kb();
        (kb.len(), kb.now(), kb.lookup_sym(name), views)
    }

    /// A TELL that fails after lint, an execution that fails its
    /// consistency check and a transaction that aborts after an untell
    /// each leave the store, the names and the views as they found them.
    #[test]
    fn a_failed_write_leaves_no_trace() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.register_view("closure", "").unwrap();
        g.tell_src("TELL DBPL_Rel with constraint keyed : $ forall r/DBPL_Rel r.key defined $ end")
            .unwrap();

        let before = untouched(&g, "Fresh");
        let tell = g.tell_src("TELL Fresh end\nTELL ghost in Nope end");
        assert!(matches!(tell, Err(GkbmsError::Object(_))), "{tell:?}");
        assert_eq!(untouched(&g, "Fresh"), before);

        let before = untouched(&g, "unkeyed");
        let aborted = g.execute(
            DecisionRequest::new("TDL_MappingDec", "mapUnkeyed", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("unkeyed", kernel::DBPL_REL),
        );
        assert!(
            matches!(aborted, Err(GkbmsError::Aborted { .. })),
            "{aborted:?}"
        );
        assert_eq!(untouched(&g, "unkeyed"), before);
        assert!(g.kb().lookup_sym("mapUnkeyed").is_none());

        let before = untouched(&g, "Introduced");
        let invitation = g.kb().lookup("Invitation").unwrap();
        let failed = g.transaction(|g| -> GkbmsResult<()> {
            g.kb.untell_cascade(invitation)?;
            g.kb.individual("Introduced")?;
            Err(GkbmsError::Precondition("abort".into()))
        });
        assert!(failed.is_err());
        assert_eq!(untouched(&g, "Introduced"), before);
        assert_eq!(g.kb().lookup("Invitation"), Some(invitation));
        assert!(g.kb().snapshot().sees(invitation));
    }

    #[test]
    fn selective_backtracking_takes_only_consequences() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.register_object("Minutes", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "mapInvitations", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "mapMinutes", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Minutes")
                .output("MinutesRel", kernel::DBPL_REL),
        )
        .unwrap();
        // A refinement depending on InvitationRel.
        g.execute(
            DecisionRequest::new("DecNormalize", "normalizeInvitations", "dev")
                .input("InvitationRel")
                .output("InvitationRel2", kernel::NORMALIZED_DBPL_REL)
                .discharge(Discharge::Signature {
                    obligation: "normalized".into(),
                    by: "dev".into(),
                }),
        )
        .unwrap();
        let affected = g.retract_decision("mapInvitations").unwrap();
        assert_eq!(affected, vec!["InvitationRel", "InvitationRel2"]);
        assert!(!g.is_current("InvitationRel"));
        assert!(!g.is_current("InvitationRel2"));
        assert!(
            g.is_current("MinutesRel"),
            "the rest of the design survives"
        );
        assert!(g.is_current("Minutes"));
        assert!(!g.is_effective("mapInvitations"));
        assert!(!g.is_effective("normalizeInvitations"), "dangling decision");
        assert!(g.is_effective("mapMinutes"));
        // History is preserved: the objects were believed at their tick.
        let t = g.record("normalizeInvitations").unwrap().tick;
        let inv2 = g.kb().snapshot().props_with_label("InvitationRel2");
        assert!(inv2.is_empty(), "no longer believed");
        let rel2_ever: Vec<_> = g.kb().snapshot_at(t).believed().collect();
        assert!(!rel2_ever.is_empty());
    }

    // ----- the propagation matrix for evolving complex objects -----------

    /// Registers `roots` and executes `name: inputs ⊢ outputs` for each
    /// row (all relations, no tool, no obligation).
    fn design(roots: &[&str], decisions: &[(&str, &[&str], &[&str])]) -> Gkbms {
        let mut g = scenario_gkbms();
        for r in roots {
            g.register_object(r, kernel::DBPL_REL, "src").unwrap();
        }
        for (name, inputs, outputs) in decisions {
            let mut req = DecisionRequest::new("DBPL_MappingDec", name, "dev");
            req.inputs = inputs.iter().map(|i| i.to_string()).collect();
            for o in *outputs {
                req = req.output(o, kernel::DBPL_REL);
            }
            g.execute(req).unwrap();
        }
        g
    }

    /// The names of the decisions that produced `object`.
    fn producers(g: &Gkbms, object: &str) -> Vec<String> {
        g.records()
            .producers(g.kb(), object)
            .map(|r| r.name.clone())
            .collect()
    }

    /// The decisions marked `status = retracted`, in the order told.
    fn retracted_as_told(g: &Gkbms) -> Vec<String> {
        let status = g.kb().snapshot().props_with_label("status");
        let told = status.iter().map(|&p| g.kb().get(p).unwrap());
        told.filter(|p| g.kb().display(p.dest) == "retracted")
            .map(|p| g.kb().display(p.source))
            .collect()
    }

    #[test]
    fn shared_output_takes_both_producers_when_both_lose_their_inputs() {
        let mut g = design(
            &["R"],
            &[
                ("d0", &["R"], &["A", "B"]),
                ("d1", &["A"], &["X"]),
                ("d2", &["B"], &["X"]),
                ("d3", &["X"], &["Y"]),
            ],
        );
        assert_eq!(producers(&g, "X"), ["d1", "d2"]);
        assert_eq!(g.retract_decision("d0").unwrap(), ["A", "B", "X", "Y"]);
        assert_eq!(retracted_as_told(&g), ["d0", "d1", "d2", "d3"]);
        assert_eq!(g.current_objects(), ["R"]);
    }

    #[test]
    fn diamond_loses_the_join_and_keeps_the_other_arm() {
        let mut g = design(
            &["R"],
            &[
                ("d0", &["R"], &["A"]),
                ("d1", &["A"], &["B"]),
                ("d2", &["A"], &["C"]),
                ("d3", &["B", "C"], &["D"]),
            ],
        );
        assert_eq!(g.retract_decision("d1").unwrap(), ["B", "D"]);
        assert_eq!(retracted_as_told(&g), ["d1", "d3"]);
        assert_eq!(g.current_objects(), ["A", "C", "R"]);
        assert!(g.is_effective("d2") && g.is_effective("d0"));
    }

    #[test]
    fn deep_chain_cascades_whole_and_a_leaf_goes_alone() {
        let chain: &[(&str, &[&str], &[&str])] = &[
            ("d1", &["R"], &["A"]),
            ("d2", &["A"], &["B"]),
            ("d3", &["B"], &["C"]),
            ("d4", &["C"], &["D"]),
        ];
        let mut g = design(&["R"], chain);
        assert_eq!(g.retract_decision("d4").unwrap(), ["D"]);
        assert_eq!(retracted_as_told(&g), ["d4"]);
        assert!(g.is_effective("d3"));
        assert_eq!(g.retract_decision("d1").unwrap(), ["A", "B", "C"]);
        assert_eq!(retracted_as_told(&g), ["d4", "d1", "d2", "d3"]);
        assert_eq!(g.current_objects(), ["R"]);
    }

    /// `d3` reuses `A` as its output, so `A` and `B` support each
    /// other: without `d1` neither has a support that does not lean on
    /// the other, and both go out.
    #[test]
    fn a_support_cycle_goes_out_whole() {
        let mut g = design(
            &["R"],
            &[
                ("d1", &["R"], &["A"]),
                ("d2", &["A"], &["B"]),
                ("d3", &["B"], &["A"]),
            ],
        );
        assert_eq!(g.retract_decision("d1").unwrap(), ["A", "B"]);
        assert_eq!(retracted_as_told(&g), ["d1", "d2", "d3"]);
        assert_eq!(g.current_objects(), ["R"]);
    }

    #[test]
    fn independently_rederived_consequence_stays_in() {
        let mut g = design(
            &["R", "S"],
            &[
                ("d1", &["R"], &["A"]),
                ("d2", &["S"], &["A"]),
                ("d3", &["A"], &["B"]),
            ],
        );
        assert!(g.retract_decision("d1").unwrap().is_empty());
        assert_eq!(retracted_as_told(&g), ["d1"]);
        assert!(g.is_effective("d2") && g.is_effective("d3"));
        assert_eq!(g.retract_decision("d2").unwrap(), ["A", "B"]);
        assert_eq!(retracted_as_told(&g), ["d1", "d2", "d3"]);
    }

    #[test]
    fn replay_reinstates_only_what_is_replayed() {
        let mut g = design(&["R"], &[("d1", &["R"], &["A"]), ("d2", &["A"], &["B"])]);
        assert_eq!(g.retract_decision("d1").unwrap(), ["A", "B"]);
        g.replay_decision("d1", "d1b").unwrap();
        assert_eq!(g.current_objects(), ["A", "R"], "d2 stays retracted");
        g.replay_decision("d2", "d2b").unwrap();
        assert_eq!(g.current_objects(), ["A", "B", "R"]);
        // Producers are kept across both incarnations of `A`.
        let producers: Vec<Decision<'_>> = g.records().producers(g.kb(), "A").collect();
        assert_eq!(producers.len(), 2);
        assert!(producers[0].retracted && !producers[1].retracted);
        assert_eq!(g.retract_decision("d1b").unwrap(), ["A", "B"]);
        assert_eq!(retracted_as_told(&g), ["d1", "d2", "d1b", "d2b"]);
    }

    #[test]
    fn raw_untell_does_not_hide_a_producer_from_the_cascade() {
        let mut g = design(&["R"], &[("d1", &["R"], &["A"]), ("d2", &["A"], &["B"])]);
        g.untell("B").unwrap();
        assert!(g.is_current("B"), "its producer is not retracted");
        assert_eq!(g.retract_decision("d1").unwrap(), ["A", "B"]);
        assert_eq!(retracted_as_told(&g), ["d1", "d2"]);
    }

    /// A raw TELL can give an individual every link an execution tells,
    /// but not the anchor: nothing reads it as a decision, and the
    /// retraction that takes its "output" out does not trip over it.
    #[test]
    fn a_raw_told_decision_is_no_decision() {
        let mut g = design(&["R"], &[("d1", &["R"], &["A"])]);
        g.tell_src(
            "TELL fake in DBPL_MappingDec with attribute performer : dev; from : R; to : A end",
        )
        .unwrap();
        assert!(g.record("fake").is_none());
        let fake = g.kb().lookup("fake").unwrap();
        assert!(g.reader().decision(fake).is_none());
        assert_eq!(producers(&g, "A"), ["d1"]);
        assert_eq!(g.causal_chain("A").unwrap(), ["d1"]);
        let events = |g: &Gkbms, o| g.object_history(o).unwrap().into_iter().map(|(_, e)| e);
        assert_eq!(events(&g, "R").collect::<Vec<_>>(), ["used by d1"]);
        assert_eq!(g.retract_decision("d1").unwrap(), ["A"]);
        assert_eq!(retracted_as_told(&g), ["d1"]);
        let history: Vec<String> = events(&g, "A").collect();
        assert_eq!(history, ["created by d1", "retracted with d1"]);
    }

    /// A raw TELL of a `source` link registers nothing — nor does an
    /// object class's `source` declaration: only a registration anchors
    /// it. Once the forgery is untold, its name is no design object.
    #[test]
    fn a_raw_told_source_registers_nothing() {
        let mut g = design(&["R"], &[]);
        g.tell_src("TELL Forged with attribute source : R end")
            .unwrap();
        assert!(!g.is_current("Forged"));
        assert!(!g.reader().registered("Forged"));
        assert!(!g.reader().registered(kernel::DBPL_REL));
        assert!(g.reader().registered("R"));
        g.untell("Forged").unwrap();
        let history = g.object_history("Forged");
        assert!(
            matches!(history, Err(GkbmsError::Unknown(_))),
            "{history:?}"
        );
    }

    /// A raw `status = retracted` retracts nothing: the decision stays
    /// effective, its history shows no retraction, and a cascade still
    /// takes it out.
    #[test]
    fn a_raw_told_status_retracts_nothing() {
        let mut g = design(&["R"], &[("d1", &["R"], &["A"]), ("d2", &["A"], &["B"])]);
        g.tell_src("TELL retracted end\nTELL d2 with attribute status : retracted end")
            .unwrap();
        assert!(!g.record("d2").unwrap().retracted);
        assert!(g.is_effective("d2"));
        assert!(g.process_view().render().contains("d2"));
        let reader = g.reader();
        assert_eq!(reader.retracted_at(g.record("d2").unwrap().prop), None);
        assert_eq!(g.retract_decision("d1").unwrap(), ["A", "B"]);
        let marked = g.records().iter().filter(|r| r.retracted);
        assert_eq!(
            marked.map(|r| r.record.name.as_str()).collect::<Vec<_>>(),
            ["d1", "d2"]
        );
        assert!(!g.is_current("B"), "the cascade took d2's output out");
        let history = g.object_history("B").unwrap();
        let retractions = history.iter().filter(|(_, e)| e == "retracted with d2");
        assert_eq!(retractions.count(), 1);
    }

    #[test]
    fn double_retraction_rejected() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "m", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        g.retract_decision("m").unwrap();
        assert!(matches!(
            g.retract_decision("m"),
            Err(GkbmsError::NotRetractable(_))
        ));
        assert!(matches!(
            g.retract_decision("ghost"),
            Err(GkbmsError::NotRetractable(_))
        ));
    }

    #[test]
    fn retracted_inputs_block_new_decisions() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "m", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        g.retract_decision("m").unwrap();
        let err = g.execute(
            DecisionRequest::new("DecNormalize", "n", "dev")
                .input("InvitationRel")
                .output("X", kernel::NORMALIZED_DBPL_REL)
                .discharge(Discharge::Signature {
                    obligation: "normalized".into(),
                    by: "dev".into(),
                }),
        );
        assert!(matches!(err, Err(GkbmsError::Precondition(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = scenario_gkbms();
        assert!(matches!(
            g.define_decision_class(DecisionClass::new(
                "DecNormalize",
                DecisionDimension::Refinement
            )),
            Err(GkbmsError::Duplicate(_))
        ));
        assert!(matches!(
            g.register_tool(ToolSpec::new("DBPLEditor", false)),
            Err(GkbmsError::Duplicate(_))
        ));
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "m", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        assert!(matches!(
            g.execute(
                DecisionRequest::new("TDL_MappingDec", "m", "dev")
                    .with_tool("TDL-DBPL-Mapper")
                    .input("Invitation")
                    .output("Other", kernel::DBPL_REL),
            ),
            Err(GkbmsError::Duplicate(_))
        ));
    }
}
