//! The design record, read back from the KB (§2.2, fig 3-3).
//!
//! The KB is the one copy of the process model and of every decision
//! taken in it. Defining a decision class, registering a tool and
//! executing a decision tell everything they were given
//! ([`Gkbms::define_decision_class`](crate::Gkbms::define_decision_class),
//! [`Gkbms::register_tool`](crate::Gkbms::register_tool),
//! [`Gkbms::execute`](crate::Gkbms::execute)); a [`Record`] reads it
//! back as a [`DecisionClass`], a [`ToolSpec`] or a [`DecisionRecord`].
//! It reads a [`Snapshot`] and nothing else, so it answers alike over
//! the live KB and over a version pinned at any tick.
//!
//! `Gkbms` lists decisions from its [`DesignIndex`](crate::design::DesignIndex),
//! the fold of `Record` over the anchors each commit told:
//! [`Record::step`] names the design step a told proposition anchors,
//! and [`Record::decision`] decodes an executed decision. The reader is
//! also the index's oracle: the tests hold every index entry, and every
//! producer and user list, equal to what a `Record` over the same
//! snapshot reads. It also answers the reads that take a pinned
//! snapshot (`object_history`, `applicable_decisions`).
//!
//! Besides the FROM/TO/BY links and the classifications, the KB holds:
//!
//! * on a decision class: its `dimension`, its `precondition`, and per
//!   obligation an individual `<class>!obligation<k>` carrying the
//!   obligation's `name` and `statement`;
//! * on a tool: `guarantees`, one obligation name each, and `automatic`;
//! * on a decision: its `performer`, and per discharge an individual
//!   `<decision>!discharge<k>` carrying the `obligation`, the `kind`
//!   (`formal` or `signature`) and, when signed, the `signer`.
//!
//! Each of these values is a text: an individual named by the text in
//! double quotes ([`quoted`]), so that no documentation value is ever
//! the design object of the same name.
//!
//! # Anchors
//!
//! Each design step tells one *anchor* [`as_of`] its telling — its
//! history time starts at the tick it was told — where every other
//! write, a raw TELL included, tells propositions that hold `Always`: a
//! decision class its `dimension`, a tool `automatic`, an execution its
//! decision's `performer`, a retraction the decision's `status`, a
//! registration its object's `source`. Only an anchor makes an
//! individual a decision class, a tool, a decision or a registered
//! design object, or a decision retracted, so no client write can forge
//! one.
//!
//! # Read as told
//!
//! Documentation never changes once told, so each thing is read from
//! the links its step told at its anchor's tick (a step never ticks
//! midway). Links told under the same name before, and the raw TELLs,
//! raw UNTELLs and retraction cascades after, do not count. Only
//! whether a class or tool still exists and whether a decision was
//! retracted are read at the snapshot's own tick.
//!
//! A step *finds* what already exists: `instantiate` a classification,
//! `specialize` an isA link. A class's specialization is read as
//! believed at its definition. A decision's class, and each output's,
//! is its latest classification told before the decision's anchor, or
//! the output's `to` link; where that is not the class the step gave,
//! the step names it on that link itself (`class`).
//!
//! An execution that failed left nothing to read: its write
//! transaction rolled the store back to where it began, so every
//! anchor in the store is a committed step's. An execution ticks once
//! more after telling its documentation, and a reader finds the
//! decision from that tick on — the decision's `tick`.

use crate::decisions::{DecisionClass, DecisionDimension, Discharge, Obligation, ToolSpec};
use crate::metamodel::names;
use crate::system::DecisionRecord;
use telos::kb::{L_INSTANCEOF, L_ISA};
use telos::{Interval, Postings, PropId, PropStore, Proposition, Snapshot, TimePoint};

/// The `kind` of a formal discharge; any other kind is a signature.
pub(crate) const FORMAL: &str = "formal";
/// The `kind` of a discharge by signature.
pub(crate) const SIGNATURE: &str = "signature";
/// The `status` a retraction tells.
pub(crate) const RETRACTED: &str = "retracted";

/// The history time of an anchor told at tick `now`.
pub(crate) fn as_of(now: i64) -> Interval {
    Interval::from_tick(now)
}

/// True if `p` is an anchor: told [`as_of`] its telling.
fn is_anchor(p: &Proposition) -> bool {
    p.history.start() == TimePoint::At(p.told_at())
}

/// The name of the individual that documents `text`.
pub(crate) fn quoted(text: &str) -> String {
    format!("\"{text}\"")
}

/// The design step a told proposition anchors ([`Record::step`]), by
/// the individual it documents.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// The execution of a decision: its `performer` anchor.
    Executed(PropId),
    /// The retraction of a decision: its `status = retracted` anchor.
    Retracted(PropId),
    /// The registration of a design object: its `source` anchor.
    Registered(PropId),
}

/// The design record as one snapshot of the KB holds it.
#[derive(Clone, Copy)]
pub struct Record<'a> {
    snap: Snapshot<'a>,
    design_decision: Option<PropId>,
    design_tool: Option<PropId>,
}

impl<'a> Record<'a> {
    /// The record `snap` holds.
    pub fn over(snap: Snapshot<'a>) -> Self {
        Record {
            snap,
            design_decision: snap.lookup(names::DESIGN_DECISION),
            design_tool: snap.lookup(names::DESIGN_TOOL),
        }
    }

    fn store(&self) -> &'a PropStore {
        self.snap.store()
    }

    /// The same store read at tick `at`.
    fn at(&self, at: i64) -> Record<'a> {
        let snap = self.store().snapshot_at(at);
        Record { snap, ..*self }
    }

    /// The propositions `ids` names.
    fn props(&self, ids: Postings<'a>) -> impl Iterator<Item = &'a Proposition> + 'a {
        let store = self.store();
        ids.filter_map(move |id| store.prop(id))
    }

    /// Every link `<x, label, _>` ever told, in the order told.
    fn told_links(&self, x: PropId, label: &str) -> impl Iterator<Item = &'a Proposition> + 'a {
        let store = self.store();
        let label = store.lookup_sym(label);
        let from = self.props(store.postings_from(x));
        from.filter(move |p| p.id != x && Some(p.label) == label)
    }

    /// Those of them believed at the snapshot.
    fn links(&self, x: PropId, label: &str) -> impl Iterator<Item = &'a Proposition> + 'a {
        let at = self.snap.at();
        self.told_links(x, label).filter(move |p| p.believed_at(at))
    }

    /// Those of them told at the snapshot's tick: what one step told.
    fn told_now(&self, x: PropId, label: &str) -> impl Iterator<Item = &'a Proposition> + 'a {
        let at = self.snap.at();
        self.told_links(x, label).filter(move |p| p.told_at() == at)
    }

    /// The names the links `<x, label, _>` told now lead to.
    fn values(&self, x: PropId, label: &str) -> Vec<String> {
        let store = self.store();
        let told = self.told_now(x, label);
        told.map(|p| store.display(p.dest)).collect()
    }

    /// The texts the links `<x, label, _>` told now lead to.
    fn texts(&self, x: PropId, label: &str) -> Vec<String> {
        let told = self.told_now(x, label);
        told.filter_map(|p| self.text_of(p.dest)).collect()
    }

    /// The text the last link `<x, label, _>` told now leads to.
    fn text(&self, x: PropId, label: &str) -> Option<String> {
        self.text_of(self.told_now(x, label).last()?.dest)
    }

    /// The text individual `v` documents (see [`quoted`]).
    fn text_of(&self, v: PropId) -> Option<String> {
        let name = self.store().display(v);
        Some(name.strip_prefix('"')?.strip_suffix('"')?.to_string())
    }

    /// The design step proposition `id` anchors, if any. A raw TELL's
    /// links hold `Always`, so none is a step.
    pub(crate) fn step(&self, id: PropId) -> Option<Step> {
        let p = (self.store().prop(id)).filter(|p| !p.is_individual() && is_anchor(p))?;
        let kind = match self.store().resolve_sym(p.label) {
            names::PERFORMER => Step::Executed,
            names::STATUS => Step::Retracted,
            names::SOURCE_I => Step::Registered,
            _ => return None,
        };
        Some(kind(p.source))
    }

    /// The anchor `<x, label, _>` the snapshot believes.
    fn anchor(&self, x: PropId, label: &str) -> Option<&'a Proposition> {
        self.links(x, label).find(|p| is_anchor(p))
    }

    /// The tick `c` was defined at, if it is a decision class at the
    /// snapshot.
    fn class_defined(&self, c: PropId) -> Option<i64> {
        Some(self.anchor(c, names::DIMENSION)?.told_at())
    }

    /// The tick `t` was registered at, if it is a tool at the snapshot.
    fn tool_registered(&self, t: PropId) -> Option<i64> {
        Some(self.anchor(t, names::AUTOMATIC)?.told_at())
    }

    /// The decision class named `name` at the snapshot.
    pub(crate) fn decision_class_named(&self, name: &str) -> Option<PropId> {
        let c = self.snap.lookup(name)?;
        self.class_defined(c).map(|_| c)
    }

    /// The tool named `name` at the snapshot.
    pub(crate) fn tool_named(&self, name: &str) -> Option<PropId> {
        let t = self.snap.lookup(name)?;
        self.tool_registered(t).map(|_| t)
    }

    /// The decision classes at the snapshot, in the order defined.
    pub fn decision_classes(&self) -> Vec<PropId> {
        self.anchored(self.design_decision, names::DIMENSION)
    }

    /// The tools at the snapshot, in the order registered.
    pub fn tools(&self) -> Vec<PropId> {
        self.anchored(self.design_tool, names::AUTOMATIC)
    }

    /// The instances of `meta` with an anchor `label` at the snapshot,
    /// in anchor order.
    fn anchored(&self, meta: Option<PropId>, label: &str) -> Vec<PropId> {
        let instances = meta.map_or_else(Vec::new, |m| self.snap.instances_of(m));
        let anchors = instances.into_iter();
        let mut anchored: Vec<(PropId, PropId)> = anchors
            .filter_map(|x| Some((self.anchor(x, label)?.id, x)))
            .collect();
        anchored.sort_unstable();
        anchored.into_iter().map(|(_, x)| x).collect()
    }

    /// Decision class `c` as it was defined.
    pub fn decision_class(&self, c: PropId) -> Option<DecisionClass> {
        let then = self.at(self.class_defined(c)?);
        let store = self.store();
        let obligation = |ob: &Proposition| {
            Some(Obligation {
                name: then.text(ob.dest, names::NAME)?,
                statement: then.text(ob.dest, names::STATEMENT)?,
            })
        };
        Some(DecisionClass {
            name: store.display(c),
            specializes: then.specializes(c).map(|p| store.display(p)),
            dimension: then.dimension(c)?,
            from_classes: then.values(c, names::FROM_I),
            to_classes: then.values(c, names::TO_I),
            precondition: then.text(c, names::PRECONDITION),
            obligations: then
                .told_now(c, names::OBLIGATION)
                .map(obligation)
                .collect::<Option<_>>()?,
        })
    }

    /// The dimension of decision `r`'s class, as of `r`'s commit.
    pub(crate) fn dimension_of(&self, r: &DecisionRecord) -> Option<DecisionDimension> {
        let then = self.at(r.tick);
        then.dimension(then.snap.lookup(&r.class)?)
    }

    /// The dimension decision class `c`'s anchor tells.
    fn dimension(&self, c: PropId) -> Option<DecisionDimension> {
        let v = self.store().prop(self.anchor(c, names::DIMENSION)?.dest)?;
        let text = self.store().resolve_sym(v.label);
        DecisionDimension::named(text.strip_prefix('"')?.strip_suffix('"')?)
    }

    /// The decision class `c` specializes, read at its definition.
    fn specializes(&self, c: PropId) -> Option<PropId> {
        let mut parents = self.links(c, L_ISA).map(|p| p.dest);
        parents.find(|&p| self.class_defined(p).is_some())
    }

    /// The decision classes `c` specializes, nearest first, each as
    /// defined. Each was defined before the one it generalizes.
    fn generalizations(&self, c: PropId) -> Vec<PropId> {
        let mut chain = Vec::new();
        let mut cur = c;
        while let Some(p) = (self.class_defined(cur)).and_then(|at| self.at(at).specializes(cur)) {
            chain.push(p);
            cur = p;
        }
        chain
    }

    /// Tool `t` as it was registered.
    pub fn tool(&self, t: PropId) -> Option<ToolSpec> {
        let then = self.at(self.tool_registered(t)?);
        let store = self.store();
        // The class-level BY links told with it, read from the classes'
        // side: every decision executed with the tool links it too.
        let classes = then.decision_classes().into_iter();
        let by = classes.flat_map(|c| then.told_now(c, names::BY_I).filter(move |p| p.dest == t));
        let mut by: Vec<&Proposition> = by.collect();
        by.sort_by_key(|p| p.id);
        Some(ToolSpec {
            name: store.display(t),
            executes: by.iter().map(|p| store.display(p.source)).collect(),
            guarantees: then.texts(t, names::GUARANTEES),
            automatic: then.text(t, names::AUTOMATIC)? == "true",
        })
    }

    /// The obligations tool `t` guarantees, by name: what `execute`
    /// reads of a tool.
    pub(crate) fn guarantees(&self, t: PropId) -> Vec<String> {
        let registered = self.tool_registered(t);
        registered.map_or_else(Vec::new, |at| self.at(at).texts(t, names::GUARANTEES))
    }

    /// How many decision classes `c` specializes, directly or not.
    pub(crate) fn class_depth(&self, c: PropId) -> usize {
        self.generalizations(c).len()
    }

    /// The tools that execute `c` or a class it specializes — an editor
    /// bound to the general mapping decision also serves the specific
    /// one: the class-level `by` links each tool's registration told
    /// that the snapshot believes.
    pub(crate) fn tools_covering(&self, c: PropId) -> Vec<PropId> {
        let classes = std::iter::once(c).chain(self.generalizations(c));
        let by = classes.flat_map(|k| self.links(k, names::BY_I));
        let registration = |p: &&Proposition| self.tool_registered(p.dest) == Some(p.told_at());
        by.filter(registration).map(|p| p.dest).collect()
    }

    /// Decision `d` as it was executed, if its execution committed by
    /// the snapshot's tick. `retracted` is read at the snapshot.
    pub fn decision(&self, d: PropId) -> Option<DecisionRecord> {
        let mut anchors = self
            .told_links(d, names::PERFORMER)
            .filter(|p| is_anchor(p));
        anchors.find_map(|anchor| {
            let at = Some(anchor.told_at()).filter(|&at| at < self.snap.at())?;
            let retracted = self.retracted_at(d).is_some();
            Some(self.at(at).decision_told(d, anchor, retracted))
        })
    }

    /// Decision `d` as its execution told it, read at its `anchor`'s
    /// tick.
    fn decision_told(&self, d: PropId, anchor: &Proposition, retracted: bool) -> DecisionRecord {
        let store = self.store();
        let outputs: Vec<&Proposition> = self.told_now(d, names::TO_I).collect();
        let discharges = self.told_now(d, names::DISCHARGE);
        DecisionRecord {
            name: store.display(d),
            class: self.class_told(d, anchor),
            performer: store.display(anchor.dest),
            tool: (self.told_now(d, names::BY_I).last()).map(|p| store.display(p.dest)),
            inputs: self.values(d, names::FROM_I),
            outputs: outputs.iter().map(|p| store.display(p.dest)).collect(),
            output_classes: outputs
                .iter()
                .map(|to| self.class_told(to.dest, to))
                .collect(),
            discharges: discharges.filter_map(|x| self.discharge(x.dest)).collect(),
            tick: self.snap.at() + 1,
            retracted,
            prop: d,
        }
    }

    /// The class `x` was told under with `link`: the one `link` names,
    /// or else `x`'s latest classification told before it.
    fn class_told(&self, x: PropId, link: &Proposition) -> String {
        self.text(link.id, names::CLASS).unwrap_or_else(|| {
            let classes = self.links(x, L_INSTANCEOF).filter(|p| p.id < link.id);
            let latest = classes.last();
            latest
                .map(|p| self.store().display(p.dest))
                .unwrap_or_default()
        })
    }

    /// The discharge individual `x`.
    fn discharge(&self, x: PropId) -> Option<Discharge> {
        let obligation = self.text(x, names::OBLIGATION)?;
        Some(match self.text(x, names::KIND)?.as_str() {
            FORMAL => Discharge::Formal { obligation },
            _ => Discharge::Signature {
                obligation,
                by: self.text(x, names::SIGNER)?,
            },
        })
    }

    /// The tick decision `d` was retracted at, if it was by the
    /// snapshot's tick: a retraction, and nothing else, anchors
    /// `status = retracted`.
    pub(crate) fn retracted_at(&self, d: PropId) -> Option<i64> {
        let mut status = self.told_links(d, names::STATUS);
        let retraction = status.find(|p| is_anchor(p))?;
        Some(retraction.told_at()).filter(|&t| t <= self.snap.at())
    }

    /// The decisions committed by the snapshot's tick that reach an
    /// incarnation of `object`, believed or not, through a link
    /// labelled with one of `labels` — `to` for the decisions that
    /// produced it, `from` for those that used it. Each once, in
    /// execution order. O(links into the object's incarnations).
    pub fn decisions_reaching(&self, object: &str, labels: &[&str]) -> Vec<DecisionRecord> {
        let store = self.store();
        let incoming = (self.incarnations(object)).flat_map(|o| self.props(store.postings_to(o)));
        let mut sources: Vec<PropId> = incoming
            .filter(|l| !l.is_individual() && labels.contains(&store.resolve_sym(l.label)))
            .map(|l| l.source)
            .collect();
        sources.sort_unstable();
        sources.dedup();
        let mut out: Vec<DecisionRecord> = sources
            .into_iter()
            .filter_map(|d| self.decision(d))
            .collect();
        out.sort_by_key(|r| r.tick);
        out
    }

    /// Every individual ever named `object`, believed or not.
    fn incarnations(&self, object: &str) -> impl Iterator<Item = PropId> + 'a {
        let store = self.store();
        let named = store.lookup_sym(object).map(|s| store.postings_label(s));
        (named.into_iter().flatten())
            .filter_map(move |id| store.prop(id))
            .filter(|o| o.is_individual())
            .map(|o| o.id)
    }

    /// True if an incarnation of `object` was registered as a design
    /// object by the snapshot's tick: registration anchors its `source`.
    pub(crate) fn registered(&self, object: &str) -> bool {
        let at = self.snap.at();
        let mut sources = self
            .incarnations(object)
            .flat_map(|o| self.told_links(o, names::SOURCE_I));
        sources.any(|l| is_anchor(l) && l.told_at() <= at)
    }

    /// The class of decision `r`, as it was defined.
    pub(crate) fn class_of(&self, r: &DecisionRecord) -> Option<DecisionClass> {
        let then = self.at(r.tick);
        then.decision_class(then.decision_class_named(&r.class)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decisions::Discharge;
    use crate::metamodel::kernel;
    use crate::system::tests::scenario_gkbms;
    use crate::system::{DecisionRequest, Gkbms};

    fn mapped(g: &mut Gkbms, name: &str, outputs: &[(&str, &str)]) -> DecisionRecord {
        let mut req = DecisionRequest::new("TDL_MappingDec", name, "dev")
            .with_tool("TDL-DBPL-Mapper")
            .input("Invitation");
        for (o, c) in outputs {
            req = req.output(o, c);
        }
        g.execute(req).unwrap();
        g.record(name).unwrap()
    }

    #[test]
    fn classes_and_tools_read_back_as_defined() {
        let g = scenario_gkbms();
        let reader = g.reader();
        let class = |name| reader.decision_class(reader.decision_class_named(name)?);
        let tool = |name| reader.tool(reader.tool_named(name)?);
        let dc = class("TDL_MappingDec").unwrap();
        assert_eq!(dc.specializes.as_deref(), Some("DBPL_MappingDec"));
        assert_eq!(dc.precondition.as_deref(), Some("x in TDL_EntityClass"));
        assert_eq!(dc.obligations[0].name, "complete-mapping");
        assert_eq!(dc.obligations[0].statement, "every attribute is mapped");
        let mapper = tool("TDL-DBPL-Mapper").unwrap();
        assert_eq!(mapper.executes, ["TDL_MappingDec"]);
        assert_eq!(mapper.guarantees, ["complete-mapping"]);
        assert!(mapper.automatic && !tool("DBPLEditor").unwrap().automatic);
        assert!(class("TDL-DBPL-Mapper").is_none());
        assert!(tool("TDL_MappingDec").is_none());
    }

    /// Only what defining a class or registering a tool told counts: a
    /// raw TELL can neither make a class or a tool nor add to one.
    #[test]
    fn raw_tells_neither_make_nor_change_classes_and_tools() {
        let mut g = scenario_gkbms();
        g.tell_src(
            "TELL Fake in DesignDecision with attribute dimension : \"mapping\" end\n\
             TELL Gadget in DesignTool with attribute automatic : \"true\" end\n\
             TELL DecNormalize with attribute from : TDL_EntityClass; by : DBPLEditor end\n\
             TELL TDL_MappingDec isA DecNormalize end",
        )
        .unwrap();
        let reader = g.reader();
        assert!(reader.decision_class_named("Fake").is_none());
        assert!(reader.tool_named("Gadget").is_none());
        let class = |name| reader.decision_class(reader.decision_class_named(name)?);
        let normalize = class("DecNormalize").unwrap();
        assert_eq!(normalize.from_classes, [kernel::DBPL_REL]);
        let dbpl_editor = reader.tool(reader.tool_named("DBPLEditor").unwrap());
        assert_eq!(dbpl_editor.unwrap().executes, ["DBPL_MappingDec"]);
        let tdl = reader.decision_class_named("TDL_MappingDec").unwrap();
        assert_eq!(reader.class_depth(tdl), 1);
        let covering = reader.tools_covering(reader.decision_class_named("DecNormalize").unwrap());
        assert!(covering.is_empty());
        g.define_decision_class(DecisionClass::new("Fake", DecisionDimension::Choice))
            .unwrap();
        g.register_tool(ToolSpec::new("Gadget", false)).unwrap();
        let reader = g.reader();
        let fake = reader.decision_class(reader.decision_class_named("Fake").unwrap());
        assert_eq!(fake.unwrap().dimension, DecisionDimension::Choice);
        let gadget = reader.tool(reader.tool_named("Gadget").unwrap());
        assert!(!gadget.unwrap().automatic);
    }

    /// `Kb::individual` and `instantiate` find rather than create: an
    /// output that already exists reads back under the class the
    /// request gave it, whether it had that class already or not, and
    /// whichever of its classes was told last.
    #[test]
    fn an_output_that_already_exists_reads_back_its_class() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.register_object("R", kernel::DBPL_REL, "src").unwrap();
        g.register_object("S", kernel::DBPL_REL, "src").unwrap();
        let (rel, sel) = (kernel::DBPL_REL, kernel::DBPL_SELECTOR);
        let r = mapped(&mut g, "m", &[("R", rel), ("S", sel)]);
        assert_eq!(r.outputs, ["R", "S"]);
        assert_eq!(r.output_classes, [rel, sel]);
        // `S` is a relation and, since `m`, a selector: `n` finds the
        // relation classification.
        let r = mapped(&mut g, "n", &[("S", rel), ("S", sel), ("S", rel)]);
        assert_eq!(r.output_classes, [rel, sel, rel]);
    }

    /// `put_attr` tells one link per call: an input named twice reads
    /// back twice.
    #[test]
    fn an_input_named_twice_reads_back_twice() {
        let mut g = scenario_gkbms();
        g.register_object("R", kernel::DBPL_REL, "src").unwrap();
        let req = DecisionRequest::new("DecNormalize", "n", "dev")
            .input("R")
            .input("R")
            .output("N", kernel::NORMALIZED_DBPL_REL)
            .discharge(Discharge::Signature {
                obligation: "normalized".into(),
                by: "dev".into(),
            })
            .discharge(Discharge::Formal {
                obligation: "beyond-the-class".into(),
            });
        let want = req.discharges.clone();
        let summary = g.execute(req).unwrap();
        let r = g.record("n").unwrap();
        assert_eq!((r.inputs, r.discharges), (vec!["R".to_string(); 2], want));
        assert_eq!(r.tick, summary.tick);
    }

    /// A rolled-back execution leaves nothing in the store: nothing
    /// reads it as a decision, and the name executes later.
    #[test]
    fn a_rolled_back_execution_is_no_decision() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        // It fails on its second output, after linking the first.
        let bad = DecisionRequest::new("TDL_MappingDec", "m", "dev")
            .with_tool("TDL-DBPL-Mapper")
            .input("Invitation")
            .output("Rel", kernel::DBPL_REL)
            .output("Wrong", kernel::TDL_ENTITY_CLASS);
        let before = (g.kb().len(), g.kb().now());
        assert!(g.execute(bad).is_err());
        assert_eq!((g.kb().len(), g.kb().now()), before);
        let reader = g.reader();
        let links = [names::FROM_I, names::TO_I];
        assert!(reader.decisions_reaching("Invitation", &links).is_empty());
        assert!(reader.decisions_reaching("Rel", &links).is_empty());
        assert!(g.object_history("Invitation").unwrap().is_empty());
        assert!(g.object_history("Rel").is_err(), "never a design object");
        let r = mapped(&mut g, "m", &[("Rel", kernel::DBPL_REL)]);
        assert_eq!(
            g.object_history("Invitation").unwrap(),
            [(r.tick, "used by m".into())]
        );
    }

    /// A decision executed under a name raw TELLs had shaped like one —
    /// classified under two decision classes, given a performer and an
    /// output — reads back as executed, not as told.
    #[test]
    fn an_execution_reads_past_a_forgery_of_its_name() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        let forged = "TELL Rel in DBPL_Rel end\nTELL mallory in Agent end\n\
                      TELL m in TDL_MappingDec with attribute performer : mallory; to : Rel end\n\
                      TELL m in DecNormalize end";
        g.tell_src(forged).unwrap();
        let m = g.kb().lookup("m").unwrap();
        assert!(g.reader().decision(m).is_none());
        let r = mapped(&mut g, "m", &[("Other", kernel::DBPL_REL)]);
        assert_eq!((r.prop, r.performer.as_str()), (m, "dev"));
        assert_eq!(
            (r.class.as_str(), r.outputs),
            ("TDL_MappingDec", vec!["Other".into()])
        );
        assert_eq!(g.object_history("Rel").unwrap(), []);
    }

    /// Documentation values are texts, apart from design objects: none
    /// of them is a design object, and a design object named like one
    /// leaves the record as it was.
    #[test]
    fn a_documentation_value_is_no_design_object() {
        let mut g = scenario_gkbms();
        for value in [
            "true",
            "mapping",
            "complete-mapping",
            "every attribute is mapped",
        ] {
            assert!(g.object_history(value).is_err(), "{value}");
            assert!(g.applicable_decisions(value).is_err(), "{value}");
        }
        let read = |g: &Gkbms| {
            let reader = g.reader();
            reader.decision_class(reader.decision_class_named("TDL_MappingDec")?)
        };
        let before = read(&g);
        assert!(before.is_some());
        g.register_object("mapping", kernel::DBPL_REL, "src")
            .unwrap();
        g.untell("mapping").unwrap();
        assert_eq!(read(&g), before);
    }

    /// A reader pinned before a class, tool or decision was told does
    /// not see it.
    #[test]
    fn a_pinned_reader_sees_what_was_told_by_its_tick() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        let before = g.kb().now();
        g.begin_write();
        let r = mapped(&mut g, "m", &[("Rel", kernel::DBPL_REL)]);
        g.begin_write();
        g.define_decision_class(
            DecisionClass::new("Late", DecisionDimension::Choice).from_classes(&[kernel::DBPL_REL]),
        )
        .unwrap();
        let then = Record::over(g.kb().snapshot_at(before));
        assert!(then.decision(r.prop).is_none());
        assert!(then.decision_class_named("Late").is_none());
        let at_commit = Record::over(g.kb().snapshot_at(r.tick));
        assert_eq!(at_commit.decision(r.prop), Some(r));
        assert!(at_commit.decision_class_named("Late").is_none());
        assert!(g.reader().decision_class_named("Late").is_some());
    }
}
