//! Registered materialized deductive views: maintain, don't recompute.
//!
//! A registered view is the KB's deductive closure — [`objectbase::query::base_program`]
//! plus optional user rules — kept **materialized** under TELL/UNTELL
//! churn by the incremental maintenance engine
//! ([`datalog::ivm::MaterializedView`]: delete-and-rederive, stratum
//! by stratum). Registration builds the model once, by
//! [`datalog::seminaive::evaluate`] over one export of the KB
//! ([`objectbase::query::to_edb_counted`], which also gives CB013 its
//! cardinalities); from then on every mutation that changes belief
//! flows the per-proposition delta ([`objectbase::query::edb_fact_for`])
//! into every registered view, so queries against the view read a
//! ready model instead of re-evaluating the program from scratch.
//!
//! # MVCC interaction
//!
//! The materialized model always reflects the *current* belief state.
//! Each view records `as_of` — the belief tick of the last mutation it
//! incorporated. A reader pinned at watermark `w` may serve answers
//! from the model iff `w >= as_of`; an earlier watermark must fall
//! back to the view's program evaluated over its pinned store version,
//! so a pinned session never observes a refresh from a newer tick.
//! [`pinned_rows`] is that fallback as the server runs it: it takes
//! the version and the program, not the GKBMS — so it cannot be holding
//! the state lock — and reads the model from the lemmas the version
//! holds ([`objectbase::query::version_closure`]), evaluating only on
//! the first read of that view at that version.
//! [`RegisteredView::eval_pinned`] is the same answer evaluated from
//! scratch over any store, the form the differential tests compare
//! against.
//!
//! # Rows stay interned until they are encoded
//!
//! A view read hands out [`Rows`]: the model's interned values, in the
//! value order of the decoded tuples ([`Rows::sort`]). That order is a
//! lemma of the relation's state ([`datalog::db::Database::sorted_rows`]):
//! the first read of a state sorts it, every later read of the same
//! state finds it sorted, and the first write drops it. Under the
//! server's state guard a `ViewAsk` takes only the state's slot
//! ([`RegisteredView::rows`]) — plus, on a miss, one flat copy of the
//! relation's storage — and sorts that copy into the slot after the
//! guard is released; the encoder then reads each symbol's interned
//! string. No `Value` or `String` is built per row, except to join the
//! values of a row wider than one column. [`RegisteredView::tuples`]
//! and [`Gkbms::view_tuples`] decode the same sorted rows into
//! `Value`s. A predicate that no rule of the view names is refused
//! ([`RegisteredView::check_pred`]) rather than read as empty.

use crate::error::{GkbmsError, GkbmsResult};
use crate::persist::JournalOp;
use crate::system::Gkbms;
use datalog::ast::{Program, Value};
use datalog::db::{Rows, SortedRead};
use datalog::ivm::{Fact, MaterializedView};
use objectbase::query::{self, preds};
use telos::{KbVersion, PropId, PropStore};

/// The extensional predicates every view's model is fed by TELL/UNTELL
/// deltas: no rule may derive them, and every view can be read at them.
const FED: [&str; 3] = [preds::IN, preds::ISA, preds::ATTR];

/// `rows` in the order every view read answers in — the value order of
/// [`Rows::sort`] — decoded.
fn sorted_tuples(mut rows: Rows) -> Vec<Vec<Value>> {
    rows.sort();
    rows.tuples().collect()
}

/// The rows of `pred` in the model of `program` over `version` as
/// believed at tick `at`, read like [`RegisteredView::rows`]: the read
/// of a session pinned before the maintained model's `as_of`. The model
/// comes from [`query::version_closure`], so at the version's capture
/// tick it is evaluated once per version, and its rows sorted once per
/// version, not once per read.
pub fn pinned_rows(
    version: &KbVersion,
    at: i64,
    program: &Program,
    pred: &str,
) -> GkbmsResult<SortedRead> {
    let closure = query::version_closure(version, at, program)?;
    Ok(closure.model.sorted_rows(pred))
}

/// One registered materialized view.
#[derive(Debug, Clone)]
pub struct RegisteredView {
    name: String,
    rules: String,
    view: MaterializedView,
    as_of: i64,
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

    /// Belief tick of the registration: a reader pinned before it
    /// never saw the view.
    pub fn registered(&self) -> i64 {
        self.registered
    }

    /// Belief tick of the last mutation incorporated into the model.
    /// Readers pinned at or after this tick may serve from the model;
    /// earlier readers must use [`RegisteredView::eval_pinned`].
    pub fn as_of(&self) -> i64 {
        self.as_of
    }

    /// The maintained view engine (model, EDB projection, multiplicities).
    pub fn view(&self) -> &MaterializedView {
        &self.view
    }

    /// The rows of `pred` in the materialized model, in [`Rows::sort`]'s
    /// order, the order every view read answers in — correct for
    /// readers whose watermark is at or after [`RegisteredView::as_of`].
    /// The model's sorted order is a lemma of its state: this takes the
    /// state's slot, plus a copy of the rows if no read has sorted this
    /// state yet — all a reader does while it holds the model.
    /// [`SortedRead::rows`] sorts, on a miss, once the reader has let go.
    pub fn rows(&self, pred: &str) -> SortedRead {
        self.view.model().sorted_rows(pred)
    }

    /// [`RegisteredView::rows`], decoded.
    pub fn tuples(&self, pred: &str) -> Vec<Vec<Value>> {
        self.rows(pred).rows().tuples().collect()
    }

    /// Refuses `pred` unless a rule of the view's program names it, in
    /// its head or its body, or it is one of the extensional predicates
    /// every view's model is fed (`in_`, `isa`, `attr`). A named
    /// predicate with no tuples (yet) reads as empty; a misspelt one is
    /// an error, not an empty answer.
    pub fn check_pred(&self, pred: &str) -> GkbmsResult<()> {
        if FED.contains(&pred) || self.view.program().mentions(pred) {
            Ok(())
        } else {
            Err(GkbmsError::Unknown(format!(
                "predicate `{pred}` in view `{}`",
                self.name
            )))
        }
    }

    /// Evaluates this view's program from scratch over `store` as
    /// believed at tick `at` — what a reader pinned before the model's
    /// `as_of` watermark must be answered, with nothing remembered
    /// between calls ([`pinned_rows`] is the serving form). Answers
    /// are sorted like [`RegisteredView::tuples`].
    pub fn eval_pinned(
        &self,
        store: &PropStore,
        at: i64,
        pred: &str,
    ) -> GkbmsResult<Vec<Vec<Value>>> {
        let edb = query::to_edb_at_store(store, at)?;
        let (model, _) = datalog::seminaive::evaluate(self.view.program(), &edb)
            .map_err(objectbase::ObError::from)?;
        Ok(sorted_tuples(model.copy_rows(pred)))
    }
}

impl Gkbms {
    /// Registers a materialized deductive view: the base closure rules
    /// plus `rules` (datalog source, may be empty), built once from the
    /// current believed state and maintained incrementally from then
    /// on. Returns the view's initial `as_of` watermark.
    pub fn register_view(&mut self, name: &str, rules: &str) -> GkbmsResult<i64> {
        self.register_view_checked(name, rules)
            .map(|(as_of, _)| as_of)
    }

    /// Like [`Gkbms::register_view`], but also runs the CB013
    /// maintainability lint against the view's program: DRed cost over
    /// large recursive strata (using the cardinalities of the export
    /// the view is loaded from) and churn risk under the TELL/UNTELL
    /// mix of the history so far. Warnings never block registration —
    /// they ride back to the caller next to the watermark.
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
        if self.views.iter().any(|v| v.name == name) {
            return Err(GkbmsError::Duplicate(format!("view `{name}`")));
        }
        let mut program = query::base_program();
        if !rules.trim().is_empty() {
            let extra = Program::parse(rules).map_err(objectbase::ObError::from)?;
            program.rules.extend(extra.rules);
        }
        // The EDB predicates are fed by TELL/UNTELL deltas; a rule
        // deriving one of them would make those deltas ambiguous.
        for rule in &program.rules {
            let head = rule.head.pred.as_str();
            if FED.contains(&head) {
                return Err(GkbmsError::Precondition(format!(
                    "view `{name}` derives extensional predicate `{head}`"
                )));
            }
        }
        let (edb, duplicates) = query::to_edb_counted(self.kb.snapshot())?;
        let mut diags = Vec::new();
        {
            let cards = analysis::cost::cardinalities(&edb);
            let (tells, untells) = self.tells_untells;
            analysis::cost::lint_view(name, &program, &cards, tells, untells, &mut diags);
            analysis::sort_diagnostics(&mut diags);
        }
        let view = MaterializedView::load(program, &edb, &duplicates)
            .map_err(objectbase::ObError::from)?;
        let as_of = self.kb.now();
        self.commit(JournalOp::RegisterView {
            name: name.into(),
            rules: rules.into(),
        })?;
        self.views.push(RegisteredView {
            name: name.to_string(),
            rules: rules.to_string(),
            view,
            as_of,
            registered: as_of,
        });
        obs::gauge!(
            "gkbms_views_registered",
            "Materialized deductive views currently registered"
        )
        .set(self.views.len() as i64);
        Ok((as_of, diags))
    }

    /// The registered views, in registration order.
    pub fn views(&self) -> &[RegisteredView] {
        &self.views
    }

    /// The registered view named `name`.
    pub fn view(&self, name: &str) -> Option<&RegisteredView> {
        self.views.iter().find(|v| v.name == name)
    }

    /// Tuples of `pred` from the named view's materialized model
    /// (current belief state), sorted. An unknown view, or a predicate
    /// the view's program never names, is [`GkbmsError::Unknown`].
    pub fn view_tuples(&self, name: &str, pred: &str) -> GkbmsResult<Vec<Vec<Value>>> {
        let v = self
            .view(name)
            .ok_or_else(|| GkbmsError::Unknown(format!("view `{name}`")))?;
        v.check_pred(pred)?;
        Ok(v.tuples(pred))
    }

    /// Feeds a committed transaction's delta into every registered view
    /// once: each proposition it appended that is still believed is an
    /// insert, each older one it closed a delete.
    pub(crate) fn feed_views(&mut self, delta: &telos::Committed) {
        if self.views.is_empty() {
            return;
        }
        let fact = |id| query::edb_fact_for(&self.kb, id);
        let appended = delta.appended.clone().map(PropId);
        let believed = appended.filter(|&id| self.kb.prop(id).is_some_and(|p| p.is_believed()));
        let inserts: Vec<Fact> = believed.filter_map(fact).collect();
        let deletes: Vec<Fact> = delta.closed.iter().copied().filter_map(fact).collect();
        self.apply_view_delta(&inserts, &deletes);
    }

    fn apply_view_delta(&mut self, inserts: &[Fact], deletes: &[Fact]) {
        if self.views.is_empty() || (inserts.is_empty() && deletes.is_empty()) {
            return;
        }
        let now = self.kb.now();
        let lag = self.views.iter().map(|v| now - v.as_of).max().unwrap_or(0);
        obs::gauge!(
            "gkbms_view_staleness_ticks",
            "Belief ticks elapsed since the last refresh of the stalest registered view, measured as each write is applied"
        )
        .set(lag);
        for v in &mut self.views {
            if v.view.apply(inserts, deletes).is_err() {
                // Registration rules out deltas on derived predicates,
                // so an apply error means the view state is suspect:
                // reload from the KB rather than serve a wrong model.
                if let Ok((edb, duplicates)) = query::to_edb_counted(self.kb.snapshot()) {
                    let program = v.view.program().clone();
                    if let Ok(fresh) = MaterializedView::load(program, &edb, &duplicates) {
                        v.view = fresh;
                    }
                }
            }
            v.as_of = now;
        }
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
    /// the oracle every maintained model must match.
    fn recompute(g: &Gkbms, name: &str, pred: &str) -> Vec<Vec<Value>> {
        let v = g.view(name).unwrap();
        let edb = query::to_edb_at_store(g.kb(), g.kb().now()).unwrap();
        let (model, _) = datalog::seminaive::evaluate(v.view().program(), &edb).unwrap();
        let mut out: Vec<Vec<Value>> = model.tuples(pred).collect();
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn registration_builds_current_model() {
        let mut g = scenario_gkbms();
        g.register_object("Invitation", kernel::TDL_ENTITY_CLASS, "src")
            .unwrap();
        g.register_view("closure", "").unwrap();
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
        for fed in FED {
            assert!(g.view_tuples("v", fed).is_ok(), "{fed}");
        }
    }

    #[test]
    fn duplicate_and_reserved_head_rejected() {
        let mut g = scenario_gkbms();
        g.register_view("v", "").unwrap();
        assert!(matches!(
            g.register_view("v", ""),
            Err(GkbmsError::Duplicate(_))
        ));
        assert!(matches!(
            g.register_view("bad", "in_(X, Y) :- attr(X, _L, Y)."),
            Err(GkbmsError::Precondition(_))
        ));
        assert!(g.register_view("broken", "p(X) :- q(X").is_err());
    }

    #[test]
    fn quiet_view_registration_reports_no_warnings() {
        let mut g = scenario_gkbms();
        let (as_of, diags) = g.register_view_checked("quiet", "").unwrap();
        assert_eq!(as_of, g.view("quiet").unwrap().as_of());
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
        let mut replica = Gkbms::replica_from_snapshot(
            &g.history.iter().map(|op| op.to_vec()).collect::<Vec<_>>(),
        )
        .unwrap();
        warns(&mut replica, "replicated");
        g.journal_mut().unwrap().sync().unwrap();
        drop(g);
        let (mut recovered, _) = Gkbms::recover(&dir).unwrap();
        warns(&mut recovered, "recovered");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tells_and_untells_maintain_the_model() {
        let mut g = scenario_gkbms();
        g.register_view("closure", "").unwrap();
        let before = g.view("closure").unwrap().as_of();
        g.tell_src("TELL Person end\nTELL maria in Person end")
            .unwrap();
        assert!(g.view("closure").unwrap().as_of() > before);
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
    fn user_rules_are_maintained_too() {
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
    fn decision_execution_and_retraction_flow_deltas() {
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
        assert_eq!(
            g.view_tuples("closure", "inT").unwrap(),
            recompute(&g, "closure", "inT")
        );
        assert!(g
            .view_tuples("closure", "inT")
            .unwrap()
            .iter()
            .any(|t| t[0].to_string() == "InvitationRel"));
        g.retract_decision("mapInvitations").unwrap();
        assert_eq!(
            g.view_tuples("closure", "inT").unwrap(),
            recompute(&g, "closure", "inT")
        );
        assert!(!g
            .view_tuples("closure", "inT")
            .unwrap()
            .iter()
            .any(|t| t[0].to_string() == "InvitationRel"));
        // The maintained model carries the extensional relations too
        // (like `seminaive::evaluate`'s model does) — they must track.
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

    #[test]
    fn untell_retell_cycles_keep_support_exact() {
        // TELL/UNTELL idempotence through the GKBMS path: untelling
        // closes the old proposition's belief, re-telling mints a new
        // proposition for the same fact — the view's support count must
        // track 1 → 0 → 1 → 0 exactly, never going negative and never
        // resurrecting a deleted fact.
        let mut g = scenario_gkbms();
        g.register_view("closure", "").unwrap();
        let fact = [Value::sym("maria"), Value::sym("Person")];
        let support = |g: &Gkbms| g.view("closure").unwrap().view().support("in_", &fact);
        g.tell_src("TELL Person end\nTELL maria in Person end")
            .unwrap();
        assert_eq!(support(&g), 1);
        g.untell("maria").unwrap();
        assert_eq!(support(&g), 0);
        // Re-TELL: a brand-new proposition contributing the same fact.
        g.tell_src("TELL maria in Person end").unwrap();
        assert_eq!(support(&g), 1);
        assert!(g
            .view_tuples("closure", "inT")
            .unwrap()
            .iter()
            .any(|t| t[0].to_string() == "maria"));
        g.untell("maria").unwrap();
        assert_eq!(support(&g), 0);
        assert!(!g
            .view_tuples("closure", "inT")
            .unwrap()
            .iter()
            .any(|t| t[0].to_string() == "maria"));
        assert_eq!(
            g.view_tuples("closure", "inT").unwrap(),
            recompute(&g, "closure", "inT")
        );
    }

    /// The registered view `name` against its differential twin — a
    /// view of the same program fed every believed proposition's fact
    /// through `apply` from empty: same model, and the same TELL
    /// multiplicity for every fact.
    fn assert_load_matches_apply_from_empty(g: &Gkbms, name: &str) {
        let loaded = g.view(name).unwrap().view();
        let facts: Vec<Fact> = (0..g.kb.len())
            .map(|i| PropId(i as u32))
            .filter(|&id| g.kb.prop(id).is_some_and(|p| p.is_believed()))
            .filter_map(|id| query::edb_fact_for(&g.kb, id))
            .collect();
        let mut applied = MaterializedView::new(loaded.program().clone()).unwrap();
        applied.apply(&facts, &[]).unwrap();
        let mut preds = applied.model().preds();
        preds.extend(loaded.model().preds());
        for pred in preds {
            assert_eq!(
                sorted_tuples(loaded.model().copy_rows(pred)),
                sorted_tuples(applied.model().copy_rows(pred)),
                "`{pred}`"
            );
        }
        for (pred, tuple) in &facts {
            assert_eq!(
                loaded.support(pred, tuple),
                applied.support(pred, tuple),
                "{pred}{tuple:?}"
            );
        }
    }

    #[test]
    fn a_link_asserted_twice_before_registration_survives_one_untell() {
        // Telling an attribute twice mints two propositions for one
        // `attr` tuple. The export a view is loaded from holds the
        // tuple once and reports the other telling, so closing one of
        // the two propositions must leave the tuple in the model.
        let mut g = scenario_gkbms();
        g.tell_src("TELL Person end\nTELL maria in Person end\nTELL anna in Person end")
            .unwrap();
        g.register_view("plain", "").unwrap();
        for _ in 0..2 {
            g.tell_src("TELL maria in Person with attribute knows : anna end")
                .unwrap();
        }
        g.register_view("acq", "acquainted(X, Y) :- attr(X, knows, Y).")
            .unwrap();
        let knows = [Value::sym("maria"), Value::sym("knows"), Value::sym("anna")];
        let pair = vec![vec![Value::sym("maria"), Value::sym("anna")]];
        for name in ["plain", "acq"] {
            // `plain` got the two tellings as deltas, `acq` from its load.
            assert_eq!(g.view(name).unwrap().view().support("attr", &knows), 2);
            assert_load_matches_apply_from_empty(&g, name);
        }
        // The public UNTELL cascades from an object and would close
        // both links at once; close them one by one instead.
        let (maria, anna) = (g.kb.lookup("maria").unwrap(), g.kb.lookup("anna").unwrap());
        let label = g.kb.lookup_sym("knows").unwrap();
        for left in [1, 0] {
            let link = g.kb.snapshot().find_link(maria, label, anna).unwrap();
            g.transaction(|g| Ok(g.kb.untell(link)?)).unwrap();
            for name in ["plain", "acq"] {
                assert_eq!(g.view(name).unwrap().view().support("attr", &knows), left);
                assert_load_matches_apply_from_empty(&g, name);
                assert_eq!(
                    g.view_tuples(name, "attr").unwrap(),
                    recompute(&g, name, "attr")
                );
            }
            let expect = if left == 1 { pair.clone() } else { Vec::new() };
            assert_eq!(g.view_tuples("acq", "acquainted").unwrap(), expect);
        }
    }

    #[test]
    fn pinned_reader_never_observes_a_newer_refresh() {
        // Satellite 3 at the core level: a registered view refreshing
        // at a newer tick must not change what a pinned reader sees.
        let mut g = scenario_gkbms();
        g.tell_src("TELL Person end\nTELL maria in Person end")
            .unwrap();
        g.register_view("closure", "").unwrap();
        let watermark = g.kb().now();
        let pinned_before = g
            .view("closure")
            .unwrap()
            .eval_pinned(g.kb(), watermark, "inT")
            .unwrap();
        // Model and pinned evaluation agree at the watermark.
        assert_eq!(pinned_before, g.view_tuples("closure", "inT").unwrap());
        // A newer write refreshes the view past the watermark.
        g.tell_src("TELL anna in Person end").unwrap();
        let v = g.view("closure").unwrap();
        assert!(v.as_of() > watermark, "the refresh is at a newer tick");
        let pinned_after = v.eval_pinned(g.kb(), watermark, "inT").unwrap();
        assert_eq!(
            pinned_after, pinned_before,
            "pinned answers are byte-identical across the refresh"
        );
        assert_ne!(
            g.view_tuples("closure", "inT").unwrap(),
            pinned_before,
            "while the live model did move"
        );
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
