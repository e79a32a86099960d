//! ASK evaluation and the deductive-relational bridge (§3.1).
//!
//! "The object processor understands the knowledge base as a deductive
//! relational database." [`to_edb`] exports the believed propositions
//! as datalog relations (`in_/2`, `isa/2`, `attr/3`), [`base_program`]
//! supplies the CML closure rules (transitive specialization, instance
//! inheritance), and [`DeductiveView`] runs user rules on top with a
//! choice of inference engine — bottom-up, top-down with lemmas, or
//! magic sets.
//!
//! # Lemmas live with their version
//!
//! The inference engines "may enhance their performance by lemma
//! generation" (§3.1): derived facts are kept, not re-derived. The unit
//! a set of lemmas is valid for is one immutable [`KbVersion`] — so
//! that is where they are kept. [`ask_with_stats_version`] and
//! [`version_closure`] store the [`Closure`] of a program (its model
//! and the [`EvalStats`] of the one evaluation that built it) in the
//! version's derived-state slot ([`KbVersion::derived`]): built by the
//! first read at the version's capture tick, shared by every later
//! one, freed with the version. There is no cache to size or
//! invalidate.
//!
//! # What a fresh closure costs
//!
//! The first read of a version pays one export and one fixpoint; both
//! are timed on every miss (`objectbase_edb_export_seconds`,
//! `objectbase_closure_eval_seconds`). The export costs the tuples it
//! writes, not the names it meets: the store and the datalog engine
//! intern names in two tables (a versioned one per store in `telos`, one
//! process-wide pool in `datalog`), and each store name remembers its
//! pooled id ([`PropStore::pooled`]), so a name is hashed into the pool
//! once, not once per export. An export for [`base_program`] reads only
//! the `instanceof` and `isa` posting lists and sizes each relation
//! before its first row ([`Database::reserve`]).

use crate::error::ObResult;
use datalog::ast::{Atom, Program, Term, Value};
use datalog::db::Database;
use datalog::intern::{intern, IVal, Symbol};
use datalog::seminaive::EvalStats;
use datalog::{magic, seminaive, topdown};
use std::borrow::Cow;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use telos::assertion;
use telos::{Kb, KbRead, KbVersion, PropId, PropStore, Proposition, TelosError};

/// EDB predicate names exported from the KB.
pub mod preds {
    /// `in_(X, C)` — direct classification.
    pub const IN: &str = "in_";
    /// `isa(C, D)` — direct specialization.
    pub const ISA: &str = "isa";
    /// `attr(X, L, Y)` — believed attribute.
    pub const ATTR: &str = "attr";
}

/// Exports the believed network as an extensional database. Objects
/// are identified by their display names; anonymous links are skipped
/// (they reappear as `attr` tuples of their endpoints).
pub fn to_edb(kb: &Kb) -> ObResult<Database> {
    export(kb, Proposition::is_believed, Exported::ALL).map(|(edb, _)| edb)
}

/// The rows an export dropped as duplicates, one entry per dropped row.
type Dropped = Vec<(Symbol, Vec<IVal>)>;

/// [`to_edb`] plus what its de-duplication dropped: one entry per
/// believed proposition asserting a link that an earlier one already
/// contributed. A maintained view is loaded from the pair
/// ([`datalog::ivm::MaterializedView::load`]), so that untelling one of
/// two propositions asserting the same link leaves the tuple present.
pub fn to_edb_counted(kb: &Kb) -> ObResult<(Database, Dropped)> {
    export(kb, Proposition::is_believed, Exported::ALL)
}

/// Like [`to_edb`], but exporting the network as believed at tick `at`
/// — the deductive view of a belief-time snapshot. It takes the
/// [`PropStore`] itself — a live KB's or an immutable [`KbVersion`]'s,
/// so the server's MVCC read path builds its EDB from a pinned version
/// without touching the live KB.
pub fn to_edb_at_store(store: &PropStore, at: i64) -> ObResult<Database> {
    export(store, |p| p.believed_at(at), Exported::ALL).map(|(edb, _)| edb)
}

/// [`to_edb_at_store`] restricted to the extensional predicates some
/// rule body of `program` reads: the same tuples in the same order for
/// those, nothing for the rest. [`base_program`] reads `in_` and `isa`
/// — about a third of a design history's tuples; the rest is `attr`.
pub fn to_edb_for(store: &PropStore, at: i64, program: &Program) -> ObResult<Database> {
    export(store, |p| p.believed_at(at), Exported::read_by(program)).map(|(edb, _)| edb)
}

/// Which extensional predicates an export carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Exported {
    in_: bool,
    isa: bool,
    attr: bool,
}

impl Exported {
    const ALL: Exported = Exported {
        in_: true,
        isa: true,
        attr: true,
    };

    fn read_by(program: &Program) -> Exported {
        let reads = |pred: &str| {
            program
                .rules
                .iter()
                .any(|r| r.body.iter().any(|l| l.atom.pred == pred))
        };
        Exported {
            in_: reads(preds::IN),
            isa: reads(preds::ISA),
            attr: reads(preds::ATTR),
        }
    }
}

/// The one export loop: the database, and the rows it dropped as
/// duplicates (one entry per dropped row). Rows go in interned, and no
/// `String` or [`Value`] is built per tuple: an individual or an
/// attribute label is named by the datalog symbol its store name keeps
/// ([`PropStore::pooled`]), so a name is hashed into the datalog pool
/// once per store chunk, not once per export; only a link endpoint
/// (`<src l dst>`) is rendered and interned, once per export.
///
/// Without `attr` the export reads the `instanceof` and `isa` posting
/// lists instead of every proposition. A posting list is in id order,
/// so each relation gets the rows of the full walk in the same order,
/// and is sized from the list's length before its first row.
///
/// Must agree with [`edb_fact_for`], the per-proposition form in which
/// TELL and UNTELL reach the maintained views.
fn export(
    store: &PropStore,
    live: impl Fn(&Proposition) -> bool,
    want: Exported,
) -> ObResult<(Database, Dropped)> {
    obs::counter!(
        "objectbase_edb_exports_total",
        "EDB exports, each an O(KB) walk of the proposition store"
    )
    .inc();
    let (in_, isa, attr) = (intern(preds::IN), intern(preds::ISA), intern(preds::ATTR));
    let mut names = Names {
        store,
        links: Vec::new(),
    };
    let mut db = Database::new();
    let ids: Box<dyn Iterator<Item = PropId>> = if want.attr {
        Box::new((0..store.len() as u32).map(PropId))
    } else {
        let lists = [
            (want.in_, store.instanceof_sym(), in_),
            (want.isa, store.isa_sym(), isa),
        ];
        let lists = lists.into_iter().filter(|&(wanted, ..)| wanted);
        for (_, label, pred) in lists.clone() {
            let len = store.postings_label(label).len();
            if len > 0 {
                db.reserve(pred, 2, len)?;
            }
        }
        Box::new(lists.flat_map(|(_, label, _)| store.postings_label(label).iter().copied()))
    };
    let mut duplicates = Vec::new();
    let mut put = |pred: Symbol, row: &[IVal]| -> ObResult<()> {
        if !db.insert_ivals(pred, row)? {
            duplicates.push((pred, row.to_vec()));
        }
        Ok(())
    };
    for id in ids {
        let Some(p) = store.prop(id) else {
            continue;
        };
        // An individual named like a reserved label is filed under it.
        if p.is_individual() || !live(p) {
            continue;
        }
        if p.label == store.instanceof_sym() {
            if want.in_ {
                put(in_, &[names.of(p.source), names.of(p.dest)])?;
            }
        } else if p.label == store.isa_sym() {
            if want.isa {
                put(isa, &[names.of(p.source), names.of(p.dest)])?;
            }
        } else if want.attr {
            let label = IVal::Sym(names.pooled(p.label));
            put(attr, &[names.of(p.source), label, names.of(p.dest)])?;
        }
    }
    Ok((db, duplicates))
}

/// How an export names the objects of one store in the datalog pool.
struct Names<'s> {
    store: &'s PropStore,
    /// The names of link endpoints by `PropId`, rendered once per
    /// export; allocated by the first link endpoint, so an export that
    /// meets none allocates nothing.
    links: Vec<Option<Symbol>>,
}

impl Names<'_> {
    /// The datalog symbol of a store name, remembered with the name.
    fn pooled(&self, sym: telos::Symbol) -> Symbol {
        Symbol::from_id(self.store.pooled(sym, |name| intern(name).id()))
    }

    /// The name of the object `id`: its label for an individual,
    /// `<src l dst>` for a link.
    fn of(&mut self, id: PropId) -> IVal {
        if let Some(p) = self.store.prop(id).filter(|p| p.is_individual()) {
            return IVal::Sym(self.pooled(p.label));
        }
        if self.links.is_empty() {
            self.links = vec![None; self.store.len()];
        }
        let store = self.store;
        let render = || intern(&store.display(id));
        IVal::Sym(match self.links.get_mut(id.idx()) {
            Some(slot) => *slot.get_or_insert_with(render),
            None => render(),
        })
    }
}

/// The extensional fact one proposition contributes: `in_(X, C)`,
/// `isa(C, D)` or `attr(X, L, Y)` keyed by display names, or `None`
/// for individuals (they reappear as the endpoints of their links).
/// Belief is *not* checked — the caller decides which belief state it
/// is mapping. This is the per-proposition delta unit the incremental
/// view-maintenance path feeds into registered views on TELL/UNTELL;
/// the whole KB at once goes through [`to_edb_counted`].
pub fn edb_fact_for(store: &PropStore, id: PropId) -> Option<(String, Vec<Value>)> {
    let p = store.prop(id)?;
    if p.is_individual() {
        return None;
    }
    let label = store.resolve_sym(p.label).to_string();
    let src = Value::sym(store.display(p.source));
    let dst = Value::sym(store.display(p.dest));
    Some(match label.as_str() {
        telos::kb::L_INSTANCEOF => (preds::IN.to_string(), vec![src, dst]),
        telos::kb::L_ISA => (preds::ISA.to_string(), vec![src, dst]),
        _ => (preds::ATTR.to_string(), vec![src, Value::sym(label), dst]),
    })
}

/// The CML closure rules: transitive isa and instance inheritance.
pub fn base_program() -> Program {
    base().clone()
}

fn base() -> &'static Program {
    static BASE: OnceLock<Program> = OnceLock::new();
    BASE.get_or_init(|| {
        Program::parse(
            "isaT(C, D) :- isa(C, D).\n\
             isaT(C, E) :- isa(C, D), isaT(D, E).\n\
             inT(X, C) :- in_(X, C).\n\
             inT(X, D) :- in_(X, C), isaT(C, D).",
        )
        .expect("base program parses")
    })
}

/// The deductive closure of one program over one belief state: the
/// model (extensional plus derived tuples) and the counters of the one
/// [`seminaive::evaluate`] run that built it.
#[derive(Debug)]
pub struct Closure {
    /// The full model.
    pub model: Database,
    /// What building it cost. Evaluation is deterministic, so these are
    /// the numbers any from-scratch run over the same state reports.
    pub stats: EvalStats,
}

/// One program's closure at a version: empty until the first read
/// builds it. The lock is held across the build, so concurrent readers
/// of a fresh version wait for one evaluation instead of each running
/// their own.
type Lemma = Arc<Mutex<Option<Arc<Closure>>>>;

/// What [`KbVersion::derived`] holds for this crate: per program (and
/// per set of exported predicates — a projected model must not answer
/// for a full one), its closure at the version's capture tick.
#[derive(Default)]
struct Lemmas(Mutex<Vec<(Exported, Program, Lemma)>>);

/// Exports `want` from `store` as filtered by `live` and evaluates
/// `program` over it.
fn build_closure(
    store: &PropStore,
    live: impl Fn(&Proposition) -> bool,
    want: Exported,
    program: &Program,
) -> ObResult<Arc<Closure>> {
    obs::counter!(
        "objectbase_closure_builds_total",
        "Deductive closures evaluated from scratch (one EDB export and one fixpoint each)"
    )
    .inc();
    let started = Instant::now();
    let (edb, _) = export(store, live, want)?;
    obs::histogram!(
        "objectbase_edb_export_seconds",
        "EDB exports for closures built from scratch (closure misses only)"
    )
    .observe(started.elapsed());
    let started = Instant::now();
    let (model, stats) = seminaive::evaluate(program, &edb)?;
    obs::histogram!(
        "objectbase_closure_eval_seconds",
        "Fixpoint evaluations for closures built from scratch (closure misses only)"
    )
    .observe(started.elapsed());
    Ok(Arc::new(Closure { model, stats }))
}

/// The closure of `program` over `version` as believed at `at`, read
/// from the version's lemmas when `at` is its capture tick — the only
/// tick a served session ever pins — and built unshared otherwise. A
/// failed evaluation stores nothing.
fn closure_at(
    version: &KbVersion,
    at: i64,
    want: Exported,
    program: &Program,
) -> ObResult<Arc<Closure>> {
    let build = || build_closure(version, |p| p.believed_at(at), want, program);
    if at != version.now() {
        return build();
    }
    let Some(lemmas) = version.derived::<Lemmas>() else {
        return build();
    };
    let lemma = {
        let mut all = lemmas.0.lock().unwrap_or_else(|e| e.into_inner());
        match all.iter().find(|(w, p, _)| *w == want && p == program) {
            Some((_, _, lemma)) => Arc::clone(lemma),
            None => {
                let lemma = Lemma::default();
                all.push((want, program.clone(), Arc::clone(&lemma)));
                lemma
            }
        }
    };
    let mut built = lemma.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(closure) = &*built {
        obs::counter!(
            "objectbase_closure_hits_total",
            "Closure reads served from the lemmas their pinned version already holds"
        )
        .inc();
        return Ok(Arc::clone(closure));
    }
    let closure = build()?;
    *built = Some(Arc::clone(&closure));
    Ok(closure)
}

/// The closure of `program` over everything `version` believed at tick
/// `at` (all three extensional predicates, like [`to_edb_at_store`]).
/// At the version's capture tick it is built once and then shared by
/// every reader of that version; this is how a session that fell off a
/// maintained view's model reads the view at its own pin.
pub fn version_closure(version: &KbVersion, at: i64, program: &Program) -> ObResult<Arc<Closure>> {
    closure_at(version, at, Exported::ALL, program)
}

/// Which inference engine evaluates a deductive query (the "various
/// proof strategies" of §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Bottom-up semi-naive evaluation of the whole program.
    BottomUp,
    /// Top-down SLD with tabling (lemma generation).
    TopDown,
    /// Magic-sets transformation, then bottom-up.
    Magic,
}

/// A deductive view: the KB's EDB plus the base rules plus user rules.
pub struct DeductiveView {
    edb: Database,
    program: Program,
}

impl DeductiveView {
    /// Builds the view from the current KB state with optional extra
    /// rules (datalog source).
    pub fn new(kb: &Kb, extra_rules: &str) -> ObResult<Self> {
        let edb = to_edb(kb)?;
        let mut program = base_program();
        if !extra_rules.trim().is_empty() {
            let extra = Program::parse(extra_rules)?;
            program.rules.extend(extra.rules);
        }
        program.validate()?;
        Ok(DeductiveView { edb, program })
    }

    /// The extensional database.
    pub fn edb(&self) -> &Database {
        &self.edb
    }

    /// The full rule program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Answers `query` with the chosen engine, returning sorted tuples.
    pub fn query(&self, query: &Atom, engine: Engine) -> ObResult<Vec<Vec<Value>>> {
        match engine {
            Engine::BottomUp => {
                let (model, _) = seminaive::evaluate(&self.program, &self.edb)?;
                // Indexed point probe on the query's bound positions
                // instead of scanning and filtering the whole relation.
                let pattern: Vec<Option<Value>> = query
                    .args
                    .iter()
                    .map(|a| match a {
                        Term::Const(c) => Some(c.clone()),
                        Term::Var(_) => None,
                    })
                    .collect();
                let mut out = model.probe(&query.pred, &pattern);
                out.sort();
                Ok(out)
            }
            Engine::TopDown => {
                let mut td = topdown::TopDown::new(&self.program, &self.edb);
                let answers = td.query(query)?;
                let mut out: Vec<Vec<Value>> = answers
                    .iter()
                    .map(|env| {
                        query
                            .args
                            .iter()
                            .map(|a| match a {
                                Term::Const(c) => c.clone(),
                                Term::Var(v) => {
                                    env.get(v).cloned().unwrap_or_else(|| Value::sym("?"))
                                }
                            })
                            .collect()
                    })
                    .collect();
                out.sort();
                out.dedup();
                Ok(out)
            }
            Engine::Magic => Ok(magic::magic_evaluate(&self.program, &self.edb, query)?),
        }
    }

    /// All instances of `class`, deductively (with inheritance).
    pub fn instances_of(&self, class: &str, engine: Engine) -> ObResult<Vec<String>> {
        let q = Atom::new("inT", vec![Term::var("X"), Term::sym(class)]);
        let mut out: Vec<String> = self
            .query(&q, engine)?
            .into_iter()
            .map(|t| t[0].to_string())
            .collect();
        out.sort();
        out.dedup();
        Ok(out)
    }
}

/// ASK with the assertion language: the believed instances of `class`
/// satisfying `body` (an open query, §3.1). Generic over [`KbRead`]:
/// pass a [`Kb`] for current-belief answers or a
/// [`telos::Snapshot`] for answers pinned at a belief tick (the
/// server's snapshot-isolated sessions).
pub fn ask<V: KbRead>(kb: &V, var: &str, class: &str, body: &str) -> ObResult<Vec<String>> {
    let expr = assertion::parse(body)?;
    let hits = assertion::find(kb, var, class, &expr)?;
    Ok(hits.into_iter().map(|h| kb.display(h)).collect())
}

/// ASK through the deductive-relational bridge at belief tick `at`,
/// reporting the [`EvalStats`] of the underlying join evaluation
/// (`index_probes`, `tuples_scanned`, …). Candidate instances of
/// `class` are enumerated by the semi-naive engine (the `inT` closure
/// over the snapshot EDB, [`to_edb_at_store`]), then filtered with the
/// assertion body against the [`telos::Snapshot`] view — so the answers
/// are snapshot-consistent and the stats reflect real index-probe work.
///
/// Every variant validates first — the body parses, the class is known
/// — and only then pays for a closure, so a typo costs no O(KB) export.
///
/// Answers are the closure's interned names in string order, borrowed
/// (`Cow::Borrowed`): nothing is allocated per answer, and the server
/// encodes them into a `Names` reply as they are.
pub fn ask_with_stats_at(
    kb: &Kb,
    at: i64,
    var: &str,
    class: &str,
    body: &str,
) -> ObResult<(Vec<Cow<'static, str>>, EvalStats)> {
    let snap = kb.snapshot_at(at);
    ask_deductive(&snap, var, class, body, |want, program| {
        build_closure(kb, |p| p.believed_at(at), want, program)
    })
}

/// [`ask_with_stats_at`] against an immutable [`KbVersion`]: identical
/// semantics, but the candidates and the assertion filter both read
/// the pinned version, so the query runs entirely without the writer
/// lock. This is the server's MVCC ASK path.
///
/// At the version's capture tick (`at == version.now()`, what every
/// session pins) the `inT` closure is read from the lemmas the version
/// holds — built by the first ASK against it, O(answer) for every later
/// one. The returned [`EvalStats`] are those of the evaluation that
/// built the closure the answer was read from; by determinism they
/// equal a from-scratch run over the same version.
pub fn ask_with_stats_version(
    version: &KbVersion,
    at: i64,
    var: &str,
    class: &str,
    body: &str,
) -> ObResult<(Vec<Cow<'static, str>>, EvalStats)> {
    let snap = version.snapshot_at(at);
    ask_deductive(&snap, var, class, body, |want, program| {
        closure_at(version, at, want, program)
    })
}

/// The steps every ASK variant shares: validate, obtain the base
/// closure through `closure` (given what to export and the program),
/// probe `inT(_, class)`, filter the candidates with the body.
fn ask_deductive<V: KbRead>(
    view: &V,
    var: &str,
    class: &str,
    body: &str,
    closure: impl FnOnce(Exported, &Program) -> ObResult<Arc<Closure>>,
) -> ObResult<(Vec<Cow<'static, str>>, EvalStats)> {
    let start = std::time::Instant::now();
    obs::counter!("objectbase_asks_total", "Deductive ASK queries evaluated").inc();
    let result = ask_deductive_inner(view, var, class, body, closure);
    obs::histogram!(
        "objectbase_ask_seconds",
        "Wall-clock latency of deductive ASK evaluation"
    )
    .observe(start.elapsed());
    if result.is_err() {
        obs::counter!(
            "objectbase_ask_errors_total",
            "Deductive ASK queries that failed (parse/eval errors)"
        )
        .inc();
    }
    result
}

fn ask_deductive_inner<V: KbRead>(
    view: &V,
    var: &str,
    class: &str,
    body: &str,
    closure: impl FnOnce(Exported, &Program) -> ObResult<Arc<Closure>>,
) -> ObResult<(Vec<Cow<'static, str>>, EvalStats)> {
    let expr = assertion::parse(body)?;
    if view.lookup(class).is_none() {
        return Err(TelosError::Assertion(format!("unknown class `{class}`")).into());
    }
    let program = base();
    let closure = closure(Exported::read_by(program), program)?;
    // A class name the export never interned has no instances. The
    // `(x, class)` rows are distinct, so their names are; the export
    // names every object by a symbol.
    let mut names: Vec<&'static str> = match datalog::intern::lookup(class) {
        None => Vec::new(),
        Some(c) => closure
            .model
            .probe_rows("inT", &[None, Some(IVal::Sym(c))])
            .rows()
            .filter_map(|row| match row[0] {
                IVal::Sym(x) => Some(x.as_str()),
                IVal::Int(_) => None,
            })
            .collect(),
    };
    names.sort_unstable();
    let mut out = Vec::new();
    let mut env = assertion::Env::new();
    for name in names {
        let Some(id) = view.lookup(name) else {
            continue;
        };
        match env.get_mut(var) {
            Some(bound) => *bound = id,
            None => {
                env.insert(var.to_string(), id);
            }
        }
        if assertion::eval(view, &expr, &mut env)? {
            out.push(Cow::Borrowed(name));
        }
    }
    Ok((out, closure.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ObjectFrame;
    use crate::transform::tell_all;
    use telos::Interval;

    fn scenario_kb() -> Kb {
        let mut kb = Kb::new();
        let frames = ObjectFrame::parse_all(
            "TELL Person end\n\
             TELL Paper end\n\
             TELL Invitation isA Paper end\n\
             TELL Minutes isA Paper end\n\
             TELL maria in Person end\n\
             TELL inv1 in Invitation end\n\
             TELL inv2 in Invitation end\n\
             TELL min1 in Minutes end",
        )
        .unwrap();
        tell_all(&mut kb, &frames).unwrap();
        let maria = kb.lookup("maria").unwrap();
        let inv1 = kb.lookup("inv1").unwrap();
        kb.put_attr(inv1, "sender", maria).unwrap();
        kb
    }

    #[test]
    fn edb_exports_believed_links() {
        let kb = scenario_kb();
        let (db, dropped) = to_edb_counted(&kb).unwrap();
        assert!(dropped.is_empty(), "no link of this KB is asserted twice");
        assert!(db.contains(preds::ISA, &[Value::sym("Invitation"), Value::sym("Paper")]));
        assert!(db.contains(preds::IN, &[Value::sym("inv1"), Value::sym("Invitation")]));
        assert!(db.contains(
            preds::ATTR,
            &[
                Value::sym("inv1"),
                Value::sym("sender"),
                Value::sym("maria")
            ]
        ));
    }

    /// `db` as `(pred, tuples in relation order)` for the three
    /// extensional predicates.
    fn listing(db: &Database) -> Vec<(&'static str, Vec<Vec<Value>>)> {
        [preds::IN, preds::ISA, preds::ATTR]
            .map(|pred| (pred, db.tuples(pred).collect()))
            .to_vec()
    }

    #[test]
    fn export_kernel_agrees_with_the_per_proposition_delta_unit() {
        // The bulk export and `edb_fact_for` (what TELL/UNTELL feed the
        // maintained views) are two codings of one mapping. Hold them
        // together on a KB with a duplicate fact, an untold fact and an
        // attribute *of a link*, whose endpoint displays as `<a l b>`.
        let mut kb = scenario_kb();
        let (maria, inv1, inv2) = (
            kb.lookup("maria").unwrap(),
            kb.lookup("inv1").unwrap(),
            kb.lookup("inv2").unwrap(),
        );
        let sender = kb.find_link(inv1, kb.lookup_sym("sender").unwrap(), maria);
        kb.put_attr(sender.expect("told by scenario_kb"), "via", inv2)
            .unwrap();
        let gone = kb.put_attr(inv2, "sender", maria).unwrap();
        kb.untell(gone).unwrap();
        kb.put_attr(inv2, "sender", maria).unwrap();
        kb.put_attr(inv2, "sender", maria).unwrap();

        // One fact per believed proposition, duplicates kept.
        let facts: Vec<(String, Vec<Value>)> = (0..kb.len())
            .map(|i| PropId(i as u32))
            .filter(|&id| kb.prop(id).is_some_and(Proposition::is_believed))
            .filter_map(|id| edb_fact_for(&kb, id))
            .collect();
        let twice = (
            preds::ATTR.to_string(),
            vec![
                Value::sym("inv2"),
                Value::sym("sender"),
                Value::sym("maria"),
            ],
        );
        assert_eq!(facts.iter().filter(|f| **f == twice).count(), 2);
        let link_name = Value::sym("<inv1 sender maria>");
        assert!(
            facts
                .iter()
                .any(|(pred, t)| pred == preds::ATTR && t[0] == link_name),
            "{facts:?}"
        );
        let want: Vec<(&str, Vec<Vec<Value>>)> = [preds::IN, preds::ISA, preds::ATTR]
            .map(|pred| {
                let mut firsts: Vec<Vec<Value>> = Vec::new();
                for (p, tuple) in &facts {
                    if p == pred && !firsts.contains(tuple) {
                        firsts.push(tuple.clone());
                    }
                }
                (pred, firsts)
            })
            .to_vec();
        let now = kb.now();
        assert_eq!(listing(&to_edb_at_store(&kb, now).unwrap()), want);
        assert_eq!(listing(&to_edb(&kb).unwrap()), want);
        // What the de-duplication dropped is reported, once per drop.
        let (counted, dropped) = to_edb_counted(&kb).unwrap();
        assert_eq!(listing(&counted), want);
        let row = twice.1.iter().map(IVal::from_value).collect();
        assert_eq!(dropped, vec![(intern(preds::ATTR), row)]);
        assert_eq!(listing(&to_edb_at_store(&kb.version(), now).unwrap()), want);

        // The program-aware export: the same, minus what no body reads.
        let mut projected = want.clone();
        projected[2].1.clear();
        assert_eq!(
            listing(&to_edb_for(&kb, now, &base_program()).unwrap()),
            projected
        );
        let reads_attr = Program::parse("hasSender(I) :- attr(I, sender, _S).").unwrap();
        let mut attr_only = want.clone();
        attr_only[0].1.clear();
        attr_only[1].1.clear();
        assert_eq!(
            listing(&to_edb_for(&kb, now, &reads_attr).unwrap()),
            attr_only
        );
    }

    /// The export without `attr` reads posting lists, not every
    /// proposition; it must still be the full walk's projection, row
    /// for row, at every tick — of the live store and of every version
    /// captured on the way, whose names share slots with it. The
    /// history untells and re-tells `in` and `isa` links, asserts an
    /// `in` link twice, classifies a link, and names individuals like
    /// the reserved labels (they file under those labels too).
    #[test]
    fn posting_list_export_is_the_projection_of_the_full_walk() {
        let mut kb = scenario_kb();
        let mut versions: Vec<KbVersion> = Vec::new();
        let check = |kb: &Kb, versions: &mut Vec<KbVersion>| {
            versions.push(kb.version());
            let stores = std::iter::once(&**kb).chain(versions.iter().map(|v| &**v));
            for store in stores {
                for t in 0..=store.now() {
                    let mut want = listing(&to_edb_at_store(store, t).unwrap());
                    want[2].1.clear();
                    let got = to_edb_for(store, t, &base_program()).unwrap();
                    assert_eq!(listing(&got), want, "tick {t} of {}", store.now());
                }
            }
            // The full walk still drops what an earlier believed
            // proposition already contributed, in id order.
            let mut seen = Vec::new();
            let mut dropped: Dropped = Vec::new();
            for id in (0..kb.len()).map(|i| PropId(i as u32)) {
                if !kb.prop(id).is_some_and(Proposition::is_believed) {
                    continue;
                }
                let Some((pred, tuple)) = edb_fact_for(kb, id) else {
                    continue;
                };
                let row: Vec<IVal> = tuple.iter().map(IVal::from_value).collect();
                let fact = (intern(&pred), row);
                if seen.contains(&fact) {
                    dropped.push(fact);
                } else {
                    seen.push(fact);
                }
            }
            assert_eq!(to_edb_counted(kb).unwrap().1, dropped);
        };
        let named = |kb: &Kb, name: &str| kb.lookup(name).unwrap();
        check(&kb, &mut versions);

        let (inv1, invitation) = (named(&kb, "inv1"), named(&kb, "Invitation"));
        let in_link = kb.find_link(inv1, kb.instanceof_sym(), invitation).unwrap();
        kb.untell(in_link).unwrap();
        check(&kb, &mut versions);
        kb.tick();
        kb.instantiate(inv1, invitation).unwrap();
        check(&kb, &mut versions);

        let (minutes, paper) = (named(&kb, "Minutes"), named(&kb, "Paper"));
        let isa_link = kb.find_link(minutes, kb.isa_sym(), paper).unwrap();
        kb.untell(isa_link).unwrap();
        check(&kb, &mut versions);
        kb.tick();
        kb.specialize(minutes, paper).unwrap();
        check(&kb, &mut versions);

        // A link that is an instance: `<inv1 sender maria>` in the
        // attribute class `<Invitation sender Person>`.
        kb.tick();
        let (maria, person) = (named(&kb, "maria"), named(&kb, "Person"));
        let sender = kb.find_link(inv1, kb.lookup_sym("sender").unwrap(), maria);
        let class = kb.put_attr(invitation, "sender", person).unwrap();
        let classified = kb.instantiate(sender.unwrap(), class).unwrap();
        check(&kb, &mut versions);

        // One `in` link asserted twice, and individuals filed under the
        // reserved labels.
        kb.tick();
        let inv2 = named(&kb, "inv2");
        for _ in 0..2 {
            kb.create_raw(inv2, kb.instanceof_sym(), minutes, Interval::always())
                .unwrap();
        }
        kb.individual(telos::kb::L_INSTANCEOF).unwrap();
        kb.individual(telos::kb::L_ISA).unwrap();
        check(&kb, &mut versions);
        assert!(!to_edb_counted(&kb).unwrap().1.is_empty());

        kb.untell(classified).unwrap();
        check(&kb, &mut versions);
        kb.tick();
        kb.instantiate(sender.unwrap(), class).unwrap();
        check(&kb, &mut versions);
    }

    #[test]
    fn racing_readers_of_a_fresh_version_build_its_closure_once() {
        const READERS: usize = 8;
        let kb = scenario_kb();
        let version = kb.version();
        let at = version.now();
        let program = base_program();
        let builds = || {
            obs::registry()
                .counter_value("objectbase_closure_builds_total")
                .unwrap_or(0)
        };
        let before = builds();
        let barrier = std::sync::Barrier::new(READERS);
        let closures: Vec<Arc<Closure>> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        version_closure(&version.clone(), at, &program).unwrap()
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for c in &closures {
            assert!(Arc::ptr_eq(c, &closures[0]), "two models for one version");
        }
        // Other tests of this process build closures of their own
        // versions concurrently, so only a lower bound is exact here;
        // pointer equality above is the proof of "once".
        assert!(builds() > before);
        // A projected model must not answer for the full one: the ASK
        // of the same program keeps a closure of its own (no `attr`).
        let asked = closure_at(&version, at, Exported::read_by(&program), &program).unwrap();
        assert!(!Arc::ptr_eq(&asked, &closures[0]));
        assert_eq!(asked.model.count(preds::ATTR), 0);
        assert!(closures[0].model.count(preds::ATTR) > 0);
        assert_eq!(asked.stats, closures[0].stats, "attr is never joined");
        // Off the capture tick nothing is remembered.
        let earlier = version_closure(&version, at - 1, &program).unwrap();
        let earlier_again = version_closure(&version, at - 1, &program).unwrap();
        assert!(!Arc::ptr_eq(&earlier, &earlier_again));
    }

    #[test]
    fn lemmas_are_freed_with_the_last_clone_of_their_version() {
        let kb = scenario_kb();
        let version = kb.version();
        let clone = version.clone();
        let program = base_program();
        let model = Arc::downgrade(&version_closure(&version, version.now(), &program).unwrap());
        ask_with_stats_version(&clone, clone.now(), "p", "Paper", "true").unwrap();
        drop(version);
        let held = model.upgrade().expect("a clone keeps the version alive");
        assert!(Arc::ptr_eq(
            &held,
            &version_closure(&clone, clone.now(), &program).unwrap()
        ));
        drop(held);
        drop(clone);
        assert!(
            model.upgrade().is_none(),
            "the version took its models along"
        );
    }

    #[test]
    fn a_failed_evaluation_stores_nothing() {
        let kb = scenario_kb();
        let version = kb.version();
        let at = version.now();
        // Unstratifiable: evaluation fails after the export.
        let bad = Program::parse("p(X) :- in_(X, _C), not p(X).").unwrap();
        assert!(version_closure(&version, at, &bad).is_err());
        assert!(version_closure(&version, at, &bad).is_err());
        let lemmas = version.derived::<Lemmas>().unwrap();
        let all = lemmas.0.lock().unwrap();
        assert!(all
            .iter()
            .all(|(_, _, lemma)| lemma.lock().unwrap().is_none()));
    }

    #[test]
    fn all_engines_agree_on_inheritance() {
        let kb = scenario_kb();
        let view = DeductiveView::new(&kb, "").unwrap();
        let expected = vec!["inv1".to_string(), "inv2".into(), "min1".into()];
        for engine in [Engine::BottomUp, Engine::TopDown, Engine::Magic] {
            let papers = view.instances_of("Paper", engine).unwrap();
            assert_eq!(papers, expected, "{engine:?}");
        }
    }

    #[test]
    fn deductive_matches_kb_closure() {
        let kb = scenario_kb();
        let view = DeductiveView::new(&kb, "").unwrap();
        let paper = kb.lookup("Paper").unwrap();
        let mut from_kb: Vec<String> = kb
            .all_instances_of(paper)
            .into_iter()
            .map(|x| kb.display(x))
            .collect();
        from_kb.sort();
        let from_dl = view.instances_of("Paper", Engine::BottomUp).unwrap();
        assert_eq!(from_kb, from_dl);
    }

    #[test]
    fn user_rules_extend_the_view() {
        let kb = scenario_kb();
        let view = DeductiveView::new(
            &kb,
            "senderOf(P, S) :- attr(I, sender, S), in_(I, P_CLASS), isaT(P_CLASS, Paper), in_(I, P_CLASS).\n\
             hasSender(I) :- attr(I, sender, _S).",
        );
        // The first rule is deliberately odd; validate separately with a
        // simpler one if it fails safety. hasSender is the useful one.
        let view = match view {
            Ok(v) => v,
            Err(_) => DeductiveView::new(&kb, "hasSender(I) :- attr(I, sender, _S).").unwrap(),
        };
        let q = Atom::new("hasSender", vec![Term::var("I")]);
        let hits = view.query(&q, Engine::BottomUp).unwrap();
        assert_eq!(hits, vec![vec![Value::sym("inv1")]]);
    }

    #[test]
    fn ask_open_queries() {
        let kb = scenario_kb();
        let with_sender = ask(&kb, "i", "Invitation", "i.sender defined").unwrap();
        assert_eq!(with_sender, vec!["inv1"]);
        let papers = ask(&kb, "p", "Paper", "true").unwrap();
        assert_eq!(papers.len(), 3);
        assert!(ask(&kb, "x", "Ghost", "true").is_err());
    }

    #[test]
    fn ask_against_snapshot_is_pinned() {
        let mut kb = scenario_kb();
        let t = kb.now();
        // TELL a new invitation after the watermark; the tick is the
        // transaction boundary that moves past the pinned watermark
        // (the server's write path does the same).
        kb.tick();
        let frames = ObjectFrame::parse_all("TELL inv3 in Invitation end").unwrap();
        tell_all(&mut kb, &frames).unwrap();
        let live = ask(&kb, "p", "Paper", "true").unwrap();
        assert_eq!(live.len(), 4);
        let snap = kb.snapshot_at(t);
        let pinned = ask(&snap, "p", "Paper", "true").unwrap();
        assert_eq!(pinned.len(), 3, "snapshot does not see the new TELL");
        assert!(!pinned.contains(&"inv3".into()));
    }

    #[test]
    fn snapshot_edb_is_pinned() {
        let mut kb = scenario_kb();
        let t = kb.now();
        kb.tick();
        let frames = ObjectFrame::parse_all("TELL inv3 in Invitation end").unwrap();
        tell_all(&mut kb, &frames).unwrap();
        let now_db = to_edb(&kb).unwrap();
        let then_db = to_edb_at_store(&kb, t).unwrap();
        let at_inv3 = [Value::sym("inv3"), Value::sym("Invitation")];
        assert!(now_db.contains(preds::IN, &at_inv3));
        assert!(!then_db.contains(preds::IN, &at_inv3));
    }

    #[test]
    fn ask_with_stats_matches_ask_and_counts_probes() {
        let kb = scenario_kb();
        let now = kb.now();
        let (hits, stats) = ask_with_stats_at(&kb, now, "p", "Paper", "true").unwrap();
        assert_eq!(hits, ask(&kb, "p", "Paper", "true").unwrap());
        assert!(stats.index_probes > 0, "join core probed indexes");
        assert!(stats.tuples_scanned > 0);
        let (with_sender, _) =
            ask_with_stats_at(&kb, now, "i", "Invitation", "i.sender defined").unwrap();
        assert_eq!(with_sender, vec!["inv1"]);
        assert!(ask_with_stats_at(&kb, now, "x", "Ghost", "true").is_err());
    }

    #[test]
    fn ask_with_stats_at_is_pinned() {
        let mut kb = scenario_kb();
        let t = kb.now();
        kb.tick();
        let frames = ObjectFrame::parse_all("TELL inv3 in Invitation end").unwrap();
        tell_all(&mut kb, &frames).unwrap();
        let (live, _) = ask_with_stats_at(&kb, kb.now(), "p", "Paper", "true").unwrap();
        assert_eq!(live.len(), 4);
        let (pinned, stats) = ask_with_stats_at(&kb, t, "p", "Paper", "true").unwrap();
        assert_eq!(pinned.len(), 3);
        assert!(!pinned.contains(&"inv3".into()));
        assert!(stats.index_probes > 0);
    }

    #[test]
    fn ask_with_stats_version_matches_live_kb() {
        let mut kb = scenario_kb();
        let t = kb.now();
        let version = kb.version();
        kb.tick();
        let frames = ObjectFrame::parse_all("TELL inv3 in Invitation end").unwrap();
        tell_all(&mut kb, &frames).unwrap();
        // The captured version answers at `t` byte-identically to a
        // temporal query against the live (now further evolved) KB.
        let (pinned_live, _) = ask_with_stats_at(&kb, t, "p", "Paper", "true").unwrap();
        let (pinned_version, stats) =
            ask_with_stats_version(&version, t, "p", "Paper", "true").unwrap();
        assert_eq!(pinned_version, pinned_live);
        assert_eq!(pinned_version.len(), 3);
        assert!(!pinned_version.contains(&"inv3".into()));
        assert!(stats.index_probes > 0);
        let (with_sender, _) =
            ask_with_stats_version(&version, t, "i", "Invitation", "i.sender defined").unwrap();
        assert_eq!(with_sender, vec!["inv1"]);
    }

    #[test]
    fn bound_queries_use_constants() {
        let kb = scenario_kb();
        let view = DeductiveView::new(&kb, "").unwrap();
        let q = Atom::new("inT", vec![Term::sym("inv1"), Term::var("C")]);
        for engine in [Engine::BottomUp, Engine::TopDown, Engine::Magic] {
            let classes: Vec<String> = view
                .query(&q, engine)
                .unwrap()
                .into_iter()
                .map(|t| t[1].to_string())
                .collect();
            assert!(classes.contains(&"Invitation".to_string()), "{engine:?}");
            assert!(classes.contains(&"Paper".to_string()), "{engine:?}");
        }
    }
}
