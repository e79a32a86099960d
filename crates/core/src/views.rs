//! Registered deductive views: a view is a definition, and its model a
//! lemma of each version.
//!
//! A registered view is the KB's deductive closure — [`objectbase::query::base_program`]
//! plus optional user rules — under a name, committed to the history
//! (`JournalOp::RegisterView`) so that recovery, `load` and replicas
//! register it alike. Registration checks the program: its rules parse,
//! derive none of the extensional predicates (`in_`, `isa`, `attr`),
//! use them at their arities and stratify. It runs the CB013
//! maintainability lint over one export of the KB (for its
//! cardinalities), and builds no model. The registered views ride each
//! published version ([`crate::Published::views`]), so a view registered
//! after a session's pin is unknown at it.
//!
//! # The model is a lemma of the version
//!
//! [`pinned_rows`] is the one view read: the model of the view's program
//! at the reader's version, read from the lemma the version holds
//! ([`objectbase::query::version_closure`]). The first read at a version
//! carries the predecessor's model over by the write between them, as
//! the ASK's closure is carried (delete-and-rederive through
//! [`datalog::ivm::MaterializedView::apply`], stratum by stratum), or
//! builds it from scratch when no ancestor version holds one; every
//! later read at the version shares it. So no write pays for a view,
//! and no read waits on the writer. [`RegisteredView::eval_pinned`] is
//! the same answer evaluated from scratch over any store, the oracle
//! the differential tests compare against.
//!
//! # Rows are resolved once per relation state
//!
//! A view read hands out [`datalog::db::SortedRows`]: the model's rows
//! in the value order of the decoded tuples, each value resolved
//! ([`datalog::intern::ValueRef`]: a symbol is its interned string,
//! borrowed). Order and resolution are one lemma of the relation's
//! state ([`datalog::db::Database::sorted_rows`]): the first read of a
//! state sorts it, resolving each value once, every later read of the
//! same state finds it sorted and resolved, and a carry that moves the
//! relation drops it. The encoder copies each name's bytes straight
//! from those strings: no symbol is looked up and no `Value` or
//! `String` is built per row, except to join the values of a row wider
//! than one column. [`Gkbms::view_tuples`] decodes the same sorted rows
//! into `Value`s. A predicate that no rule of the view names is refused
//! ([`RegisteredView::check_pred`]) rather than read as empty.

use crate::error::{GkbmsError, GkbmsResult};
use crate::persist::JournalOp;
use crate::system::Gkbms;
use datalog::ast::{Program, Value};
use datalog::db::SortedRead;
use datalog::error::DatalogError;
use datalog::ivm::MaterializedView;
use objectbase::query::{self, preds};
use objectbase::ObError;
use telos::{KbVersion, PropStore};

/// The extensional predicates every version exports to a view, with
/// their arities: no rule may derive them, and every view can be read
/// at them.
const FED: [(&str, usize); 3] = [(preds::IN, 2), (preds::ISA, 2), (preds::ATTR, 3)];

/// The rows of `pred` in the model of `view`'s program over `version`
/// as believed at tick `at`, in [`datalog::db::Rows::sorted`]'s order, and whether
/// this read built the model from scratch. The model comes from
/// [`query::version_closure`], so at the version's capture tick it is
/// carried or built once per version, and its rows sorted once per
/// version, not once per read.
pub fn pinned_rows(
    version: &KbVersion,
    at: i64,
    view: &RegisteredView,
    pred: &str,
) -> GkbmsResult<(SortedRead, bool)> {
    let (closure, scratch) = query::version_closure(version, at, &view.program)?;
    Ok((closure.model().sorted_rows(pred), scratch))
}

/// One registered view: its definition, not its model.
#[derive(Debug, Clone)]
pub struct RegisteredView {
    name: String,
    rules: String,
    program: Program,
    registered: i64,
}

impl RegisteredView {
    /// The view's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The user rules (datalog source) layered over the base program.
    pub fn rules(&self) -> &str {
        &self.rules
    }

    /// The program the view's model is the closure of: the base program
    /// plus the user rules.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Belief tick of the registration: a reader pinned before it
    /// never saw the view.
    pub fn registered(&self) -> i64 {
        self.registered
    }

    /// Refuses `pred` unless a rule of the view's program names it, in
    /// its head or its body, or it is one of the extensional predicates
    /// every view's model is fed (`in_`, `isa`, `attr`). A named
    /// predicate with no tuples (yet) reads as empty; a misspelt one is
    /// an error, not an empty answer.
    pub fn check_pred(&self, pred: &str) -> GkbmsResult<()> {
        if FED.iter().any(|&(fed, _)| fed == pred) || self.program.mentions(pred) {
            Ok(())
        } else {
            Err(GkbmsError::Unknown(format!(
                "predicate `{pred}` in view `{}`",
                self.name
            )))
        }
    }

    /// Evaluates this view's program from scratch over `store` as
    /// believed at tick `at`, with nothing remembered between calls
    /// ([`pinned_rows`] is the serving form). Answers are sorted like
    /// [`Gkbms::view_tuples`].
    pub fn eval_pinned(
        &self,
        store: &PropStore,
        at: i64,
        pred: &str,
    ) -> GkbmsResult<Vec<Vec<Value>>> {
        let edb = query::to_edb_at_store(store, at)?;
        let (model, _) =
            datalog::seminaive::evaluate(&self.program, &edb).map_err(ObError::from)?;
        Ok(model.copy_rows(pred).sorted().tuples().collect())
    }
}

/// The program of a view with `rules`, refused where a model of it
/// could not be read: a parse error, a rule deriving an extensional
/// predicate (the export would be ambiguous), an extensional predicate
/// at another arity than the export's, or a program that does not
/// stratify.
fn view_program(name: &str, rules: &str) -> GkbmsResult<Program> {
    let mut program = query::base_program();
    if !rules.trim().is_empty() {
        let extra = Program::parse(rules).map_err(ObError::from)?;
        program.rules.extend(extra.rules);
    }
    for rule in &program.rules {
        let head = rule.head.pred.as_str();
        if FED.iter().any(|&(fed, _)| fed == head) {
            return Err(GkbmsError::Precondition(format!(
                "view `{name}` derives extensional predicate `{head}`"
            )));
        }
        for atom in rule.body.iter().map(|l| &l.atom) {
            let fed = FED.iter().find(|&&(fed, _)| fed == atom.pred);
            if let Some(&(_, arity)) = fed.filter(|&&(_, arity)| arity != atom.args.len()) {
                let mismatch = DatalogError::ArityMismatch {
                    pred: atom.pred.clone(),
                    expected: arity,
                    found: atom.args.len(),
                };
                return Err(ObError::from(mismatch).into());
            }
        }
    }
    MaterializedView::new(program.clone()).map_err(ObError::from)?;
    Ok(program)
}

impl Gkbms {
    /// Registers a deductive view: the base closure rules plus `rules`
    /// (datalog source, may be empty). Returns the registration tick.
    pub fn register_view(&mut self, name: &str, rules: &str) -> GkbmsResult<i64> {
        self.register_view_checked(name, rules)
            .map(|(registered, _)| registered)
    }

    /// Like [`Gkbms::register_view`], but also runs the CB013
    /// maintainability lint against the view's program: DRed cost over
    /// large recursive strata (using the cardinalities of one export of
    /// the KB) and churn risk under the TELL/UNTELL mix of the history
    /// so far. Warnings never block registration — they ride back to
    /// the caller next to the tick.
    pub fn register_view_checked(
        &mut self,
        name: &str,
        rules: &str,
    ) -> GkbmsResult<(i64, Vec<analysis::Diagnostic>)> {
        self.transaction(|g| g.register_view_inner(name, rules))
    }

    fn register_view_inner(
        &mut self,
        name: &str,
        rules: &str,
    ) -> GkbmsResult<(i64, Vec<analysis::Diagnostic>)> {
        if self.view(name).is_some() {
            return Err(GkbmsError::Duplicate(format!("view `{name}`")));
        }
        let program = view_program(name, rules)?;
        let edb = query::to_edb_at_store(&self.kb, self.kb.now())?;
        let mut diags = Vec::new();
        let cards = analysis::cost::cardinalities(&edb);
        let (tells, untells) = self.tells_untells;
        analysis::cost::lint_view(name, &program, &cards, tells, untells, &mut diags);
        analysis::sort_diagnostics(&mut diags);
        let registered = self.kb.now();
        self.commit(JournalOp::RegisterView {
            name: name.into(),
            rules: rules.into(),
        })?;
        let mut views = self.views.to_vec();
        views.push(RegisteredView {
            name: name.to_string(),
            rules: rules.to_string(),
            program,
            registered,
        });
        self.views = views.into();
        obs::gauge!(
            "gkbms_views_registered",
            "Deductive views currently registered"
        )
        .set(self.views.len() as i64);
        Ok((registered, diags))
    }

    /// The registered views, in registration order.
    pub fn views(&self) -> &[RegisteredView] {
        &self.views
    }

    /// The registered view named `name`.
    pub fn view(&self, name: &str) -> Option<&RegisteredView> {
        self.views.iter().find(|v| v.name == name)
    }

    /// Tuples of `pred` in the named view's model of the current belief
    /// state, sorted: [`pinned_rows`] at a bare version of the head,
    /// which holds no lemma, so each call builds the model from
    /// scratch. An unknown view, or a predicate the view's program
    /// never names, is [`GkbmsError::Unknown`].
    pub fn view_tuples(&self, name: &str, pred: &str) -> GkbmsResult<Vec<Vec<Value>>> {
        let view = self
            .view(name)
            .ok_or_else(|| GkbmsError::Unknown(format!("view `{name}`")))?;
        view.check_pred(pred)?;
        let version = self.kb.version();
        let (mut rows, _) = pinned_rows(&version, version.now(), view, pred)?;
        Ok(rows.rows().tuples().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metamodel::kernel;
    use crate::system::tests::scenario_gkbms;
    use crate::system::DecisionRequest;

    fn sym_rows(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect()
    }

    /// From-scratch evaluation of a view's program over the live KB —
    /// the oracle every read must match.
    fn recompute(g: &Gkbms, name: &str, pred: &str) -> Vec<Vec<Value>> {
        let v = g.view(name).unwrap();
        let edb = query::to_edb_at_store(g.kb(), g.kb().now()).unwrap();
        let (model, _) = datalog::seminaive::evaluate(v.program(), &edb).unwrap();
        let mut out: Vec<Vec<Value>> = model.tuples(pred).collect();
        out.sort();
        out.dedup();
        out
    }

    /// The rows of `pred` in view `name` at `version`'s capture tick,
    /// decoded, and whether the read built the model from scratch.
    fn read(version: &KbVersion, view: &RegisteredView, pred: &str) -> (Vec<Vec<Value>>, bool) {
        let (mut rows, scratch) = pinned_rows(version, version.now(), view, pred).unwrap();
        (rows.rows().tuples().collect(), scratch)
    }

    fn counted(name: &str) -> u64 {
        obs::registry().counter_value(name).unwrap_or(0)
    }

    #[test]
    fn registration_builds_no_model_and_reads_the_current_one() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        let registered = g.register_view("closure", "").unwrap();
        assert_eq!(registered, g.kb().now());
        assert_eq!(g.view("closure").unwrap().registered(), registered);
        assert_eq!(
            g.view_tuples("closure", "inT").unwrap(),
            recompute(&g, "closure", "inT")
        );
        assert!(g
            .view_tuples("closure", "inT")
            .unwrap()
            .iter()
            .any(|t| t[0].to_string() == "Invitation"));
    }

    #[test]
    fn a_predicate_the_view_never_names_is_unknown() {
        let mut g = scenario_gkbms();
        g.register_view("v", "lonely(X) :- inT(X, \"Nope\").")
            .unwrap();
        assert!(matches!(
            g.view_tuples("v", "inTT"),
            Err(GkbmsError::Unknown(m)) if m.contains("inTT")
        ));
        assert_eq!(
            g.view_tuples("v", "lonely").unwrap(),
            Vec::<Vec<Value>>::new()
        );
        for (fed, _) in FED {
            assert!(g.view_tuples("v", fed).is_ok(), "{fed}");
        }
        assert!(matches!(
            g.view_tuples("nope", "inT"),
            Err(GkbmsError::Unknown(m)) if m.contains("nope")
        ));
    }

    /// Registration builds no model, so it checks what loading one
    /// would have refused, and a refused registration commits nothing.
    #[test]
    fn registration_refuses_what_no_model_could_be_read_of() {
        let mut g = scenario_gkbms();
        g.tell_src("TELL Person end\nTELL maria in Person end")
            .unwrap();
        g.register_view("v", "").unwrap();
        let committed = (g.history.len(), g.kb().now());
        let refused = |g: &mut Gkbms, name: &str, rules: &str| {
            let e = g.register_view(name, rules).unwrap_err();
            assert_eq!((g.history.len(), g.kb().now()), committed, "{rules}");
            assert!(g.view(name).is_none() || name == "v", "{rules}");
            e
        };
        assert!(matches!(refused(&mut g, "v", ""), GkbmsError::Duplicate(_)));
        assert!(matches!(
            refused(&mut g, "parse", "p(X) :- q(X"),
            GkbmsError::Object(_)
        ));
        for fed in ["in_", "isa"] {
            let rules = format!("{fed}(X, Y) :- attr(X, _L, Y).");
            let e = refused(&mut g, "derives", &rules);
            assert!(matches!(e, GkbmsError::Precondition(m) if m.contains(fed)));
        }
        let e = refused(&mut g, "derives", "attr(X, l, Y) :- in_(X, Y).");
        assert!(matches!(e, GkbmsError::Precondition(m) if m.contains("attr")));
        assert!(matches!(
            refused(
                &mut g,
                "loop",
                "p(X) :- in_(X, _C), not q(X).\nq(X) :- in_(X, _C), not p(X)."
            ),
            GkbmsError::Object(_)
        ));
        // `in_` at arity 1, though no rule of the base program reads it
        // so; and `attr` at arity 2, though the KB holds no `attr` row
        // that a loaded model could have tripped over.
        for rules in ["one(X) :- in_(X).", "two(X) :- attr(X, Y)."] {
            let e = refused(&mut g, "arity", rules);
            assert!(e.to_string().contains("arity"), "{rules}: {e}");
        }
        assert_eq!(g.views().len(), 1);
    }

    #[test]
    fn quiet_view_registration_reports_no_warnings() {
        let mut g = scenario_gkbms();
        let (registered, diags) = g.register_view_checked("quiet", "").unwrap();
        assert_eq!(registered, g.view("quiet").unwrap().registered());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn churny_write_log_warns_on_registration() {
        // 16 TELLs + 4 UNTELLs = 20 events at a 20% delete share —
        // exactly the CB013 churn threshold. The mix is counted where
        // ops commit, so an instance recovered from the journal and a
        // replica built from the shipped history count it alike.
        let dir = std::env::temp_dir().join(format!("cb-views-churn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut g, _) = Gkbms::recover(&dir).unwrap();
        g.tell_src("TELL Person end").unwrap();
        for i in 0..15 {
            g.tell_src(&format!("TELL o{i} in Person end")).unwrap();
        }
        for i in 0..4 {
            g.untell(&format!("o{i}")).unwrap();
        }
        let warns = |g: &mut Gkbms, name: &str| {
            let (_, diags) = g.register_view_checked(name, "").unwrap();
            let churn = |d: &analysis::Diagnostic| d.code == "CB013" && d.message.contains("churn");
            assert!(diags.iter().any(churn), "{name}: {diags:?}");
        };
        warns(&mut g, "churny");
        let mut replica =
            Gkbms::from_records(&g.history.iter().map(|op| op.to_vec()).collect::<Vec<_>>())
                .unwrap();
        // A history without a header positions the replica at its length.
        assert_eq!(replica.applied_seq(), g.applied_seq());
        warns(&mut replica, "replicated");
        g.journal_mut().unwrap().sync().unwrap();
        drop(g);
        let (mut recovered, _) = Gkbms::recover(&dir).unwrap();
        warns(&mut recovered, "recovered");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reads_follow_tells_and_untells() {
        let mut g = scenario_gkbms();
        g.register_view("closure", "").unwrap();
        g.tell_src("TELL Person end\nTELL maria in Person end")
            .unwrap();
        assert_eq!(
            g.view_tuples("closure", "inT").unwrap(),
            recompute(&g, "closure", "inT")
        );
        g.untell("maria").unwrap();
        assert_eq!(
            g.view_tuples("closure", "inT").unwrap(),
            recompute(&g, "closure", "inT")
        );
        assert!(!g
            .view_tuples("closure", "inT")
            .unwrap()
            .iter()
            .any(|t| t[0].to_string() == "maria"));
    }

    #[test]
    fn user_rules_are_read_too() {
        let mut g = scenario_gkbms();
        g.register_view("senders", "hasSender(I) :- attr(I, sender, _S).")
            .unwrap();
        g.tell_src(
            "TELL Person end\nTELL Paper with attribute sender : Person end\n\
             TELL maria in Person end\nTELL p1 in Paper with attribute sender : maria end",
        )
        .unwrap();
        // Both the class-level declaration (Paper!sender) and the
        // instance attribute are `attr` facts, so both satisfy the rule.
        assert_eq!(
            sym_rows(&g.view_tuples("senders", "hasSender").unwrap()),
            vec![vec!["Paper".to_string()], vec!["p1".to_string()]]
        );
        g.untell("p1").unwrap();
        assert_eq!(
            sym_rows(&g.view_tuples("senders", "hasSender").unwrap()),
            vec![vec!["Paper".to_string()]]
        );
    }

    #[test]
    fn decision_execution_and_retraction_reach_the_view() {
        let mut g = scenario_gkbms();
        g.register_view("closure", "").unwrap();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "mapInvitations", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        let rel = |g: &Gkbms| {
            (g.view_tuples("closure", "inT").unwrap().iter())
                .any(|t| t[0].to_string() == "InvitationRel")
        };
        assert_eq!(
            g.view_tuples("closure", "inT").unwrap(),
            recompute(&g, "closure", "inT")
        );
        assert!(rel(&g));
        g.retract_decision("mapInvitations").unwrap();
        assert_eq!(
            g.view_tuples("closure", "inT").unwrap(),
            recompute(&g, "closure", "inT")
        );
        assert!(!rel(&g));
        // The model holds the extensional relations too (like
        // `seminaive::evaluate`'s model does).
        assert_eq!(
            g.view_tuples("closure", "attr").unwrap(),
            recompute(&g, "closure", "attr")
        );
    }

    #[test]
    fn aborted_execution_leaves_no_residue_in_views() {
        let mut g = scenario_gkbms();
        g.register_view("closure", "").unwrap();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        let before = recompute(&g, "closure", "inT");
        let err = g.execute(
            DecisionRequest::new("TDL_MappingDec", "badMap", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("Wrong", kernel::TDL_ENTITY_CLASS),
        );
        assert!(err.is_err());
        assert_eq!(g.view_tuples("closure", "inT").unwrap(), before);
        assert_eq!(
            g.view_tuples("closure", "inT").unwrap(),
            recompute(&g, "closure", "inT")
        );
    }

    /// A view read after a captured write carries the predecessor's
    /// model over: it builds nothing and exports nothing. The counters
    /// are process-wide and other tests export concurrently, so a try
    /// whose reads bracket one of their exports is retried; a read that
    /// exported would move the counter on every try.
    #[test]
    fn a_view_read_after_a_captured_write_is_carried() {
        let mut g = scenario_gkbms();
        g.tell_src("TELL Person end\nTELL maria in Person end")
            .unwrap();
        g.register_view("acq", "acquainted(X, Y) :- attr(X, knows, Y).")
            .unwrap();
        let view = g.view("acq").unwrap().clone();
        let mut prev = g.capture();
        assert!(
            read(&prev.kb, &view, "inT").1,
            "no ancestor: a scratch build"
        );
        let carried_without_export = (0..20).any(|i| {
            g.tell_src(&format!(
                "TELL p{i} in Person with attribute knows : maria end"
            ))
            .unwrap();
            let next = g.capture();
            let (carried, exports) = (
                counted("objectbase_closures_carried_total"),
                counted("objectbase_edb_exports_total"),
            );
            let (rows, scratch) = read(&next.kb, &view, "acquainted");
            let flat = counted("objectbase_edb_exports_total") == exports;
            assert!(!scratch, "try {i}: the seed was carried");
            assert!(counted("objectbase_closures_carried_total") > carried);
            assert_eq!(
                rows,
                view.eval_pinned(&next.kb, next.kb.now(), "acquainted")
                    .unwrap()
            );
            prev = next;
            flat
        });
        assert!(carried_without_export, "every carried read exported");
        drop(prev);
    }

    #[test]
    fn untell_retell_cycles_carry_the_tuple_exactly() {
        // Untelling closes the old proposition's belief, re-telling
        // mints a new proposition for the same fact: each carried model
        // must drop and regain the tuple exactly as a scratch build does.
        let mut g = scenario_gkbms();
        g.register_view("closure", "").unwrap();
        let view = g.view("closure").unwrap().clone();
        let maria = vec![Value::sym("maria"), Value::sym("Person")];
        let mut prev = g.capture();
        read(&prev.kb, &view, "in_");
        let steps: [(&str, bool); 4] = [
            ("TELL Person end\nTELL maria in Person end", true),
            ("untell", false),
            ("TELL maria in Person end", true),
            ("untell", false),
        ];
        for (i, (src, present)) in steps.into_iter().enumerate() {
            if src == "untell" {
                g.untell("maria").unwrap();
            } else {
                g.tell_src(src).unwrap();
            }
            let next = g.capture();
            // Every second step lets go of its predecessor first, so
            // the carry moves the model in place instead of copying it.
            let kept = (i % 2 == 0).then_some(prev);
            let (rows, scratch) = read(&next.kb, &view, "in_");
            assert!(!scratch, "step {i}");
            assert_eq!(rows.contains(&maria), present, "step {i}");
            let at = next.kb.now();
            assert_eq!(rows, view.eval_pinned(&next.kb, at, "in_").unwrap());
            drop(kept);
            prev = next;
        }
    }

    #[test]
    fn a_link_asserted_twice_before_registration_survives_one_untell() {
        // Telling an attribute twice mints two propositions for one
        // `attr` tuple. A scratch build holds the tuple once and counts
        // the other telling, so closing one of the two propositions
        // must leave the tuple in the carried model.
        let mut g = scenario_gkbms();
        g.tell_src("TELL Person end\nTELL maria in Person end\nTELL anna in Person end")
            .unwrap();
        g.register_view("plain", "").unwrap();
        let plain = g.view("plain").unwrap().clone();
        // `plain` is read before the two tellings and carries them;
        // `acq` is first read after them, so it builds over both.
        let mut prev = g.capture();
        read(&prev.kb, &plain, "attr");
        for _ in 0..2 {
            g.tell_src("TELL maria in Person with attribute knows : anna end")
                .unwrap();
        }
        g.register_view("acq", "acquainted(X, Y) :- attr(X, knows, Y).")
            .unwrap();
        let acq = g.view("acq").unwrap().clone();
        let next = g.capture();
        assert!(!read(&next.kb, &plain, "attr").1);
        assert!(read(&next.kb, &acq, "acquainted").1);
        prev = next;
        let pair = vec![vec![Value::sym("maria"), Value::sym("anna")]];
        // The public UNTELL cascades from an object and would close
        // both links at once; close them one by one instead.
        let (maria, anna) = (g.kb.lookup("maria").unwrap(), g.kb.lookup("anna").unwrap());
        let label = g.kb.lookup_sym("knows").unwrap();
        for left in [1, 0] {
            let link = g.kb.snapshot().find_link(maria, label, anna).unwrap();
            g.transaction(|g| Ok(g.kb.untell(link)?)).unwrap();
            let next = g.capture();
            drop(prev);
            let at = next.kb.now();
            for (view, pred) in [(&plain, "attr"), (&acq, "attr"), (&acq, "acquainted")] {
                let (rows, scratch) = read(&next.kb, view, pred);
                assert!(!scratch, "{left} left: {pred}");
                assert_eq!(rows, view.eval_pinned(&next.kb, at, pred).unwrap());
            }
            let expect = if left == 1 { pair.clone() } else { Vec::new() };
            assert_eq!(read(&next.kb, &acq, "acquainted").0, expect);
            prev = next;
        }
    }

    #[test]
    fn a_pinned_version_reads_the_same_rows_across_later_writes() {
        let mut g = scenario_gkbms();
        g.tell_src("TELL Person end\nTELL maria in Person end")
            .unwrap();
        g.register_view("closure", "").unwrap();
        let view = g.view("closure").unwrap().clone();
        let pinned = g.capture();
        let watermark = pinned.kb.now();
        let before = read(&pinned.kb, &view, "inT").0;
        assert_eq!(before, view.eval_pinned(g.kb(), watermark, "inT").unwrap());
        // A newer write moves the successor's model, which carries the
        // pinned one over on a copy.
        g.tell_src("TELL anna in Person end").unwrap();
        let head = g.capture();
        let (moved, scratch) = read(&head.kb, &view, "inT");
        assert!(!scratch);
        assert_ne!(moved, before, "the successor's model moved");
        assert_eq!(moved, g.view_tuples("closure", "inT").unwrap());
        assert_eq!(read(&pinned.kb, &view, "inT").0, before, "the pin did not");
        assert_eq!(view.eval_pinned(g.kb(), watermark, "inT").unwrap(), before);
        // The versions publish the views they were captured with.
        assert_eq!(pinned.views.len(), 1);
        g.register_view("later", "").unwrap();
        assert_eq!(pinned.views.len(), 1);
        assert_eq!(g.capture().views.len(), 2);
    }

    #[test]
    fn views_survive_save_load_and_journal_replay() {
        let mut g = scenario_gkbms();
        g.tell_src("TELL Person end\nTELL maria in Person end")
            .unwrap();
        g.register_view("closure", "hasSelf(X) :- in_(X, _C).")
            .unwrap();
        g.tell_src("TELL anna in Person end").unwrap();
        let expect = g.view_tuples("closure", "inT").unwrap();
        let path = {
            let mut p = std::env::temp_dir();
            p.push(format!("cb-views-roundtrip-{}", std::process::id()));
            let _ = std::fs::remove_file(&p);
            p
        };
        g.save(&path).unwrap();
        let loaded = Gkbms::load(&path).unwrap();
        let v = loaded.view("closure").expect("view survived the reload");
        assert_eq!(v.rules(), "hasSelf(X) :- in_(X, _C).");
        assert_eq!(v.registered(), g.view("closure").unwrap().registered());
        assert_eq!(loaded.view_tuples("closure", "inT").unwrap(), expect);
        assert_eq!(
            loaded.view_tuples("closure", "hasSelf").unwrap(),
            g.view_tuples("closure", "hasSelf").unwrap()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn decision_flows_keep_checking_consistency_with_views_registered() {
        let mut g = scenario_gkbms();
        g.register_view("closure", "").unwrap();
        g.tell_src(
            "TELL Memo with\n\
               constraint signed : $ forall m/Memo m.author defined $\n\
               attribute author : Agent\n\
             end",
        )
        .unwrap();
        g.define_object_class("MemoDoc", "Requirements", None)
            .unwrap();
        let err = g.tell_src("TELL m1 in Memo end");
        // tell_src does not consistency-check (that is execute's job);
        // the set-oriented check finds the violation for the new object.
        assert!(err.is_ok());
        let m1 = g.kb().lookup("m1").unwrap();
        let (violations, _) = objectbase::consistency::check_touched(g.kb().snapshot(), &[m1]);
        assert!(!violations.is_empty(), "unsigned memo violates `signed`");
        // And a clean execution still succeeds end to end.
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.execute(
            DecisionRequest::new("TDL_MappingDec", "map", "dev")
                .with_tool("TDL-DBPL-Mapper")
                .input("Invitation")
                .output("InvitationRel", kernel::DBPL_REL),
        )
        .unwrap();
        assert!(g.is_effective("map"));
    }
}
