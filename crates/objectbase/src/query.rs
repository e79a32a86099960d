//! ASK evaluation and the deductive-relational bridge (§3.1).
//!
//! "The object processor understands the knowledge base as a deductive
//! relational database." [`to_edb_at_store`] exports the propositions
//! believed at a tick as datalog relations (`in_/2`, `isa/2`,
//! `attr/3`), [`edb_fact_for`] maps one proposition the same way (the
//! delta unit of the maintained views), and [`base_program`] supplies
//! the CML closure rules (transitive specialization, instance
//! inheritance). Everything is evaluated by the one bottom-up kernel,
//! [`seminaive::evaluate`].
//!
//! There are two ASKs. [`ask`] is the assertion language over any
//! [`KbRead`]; [`ask_with_stats_version`] is the served one, which
//! enumerates candidates from the `inT` closure of a pinned version
//! and filters them with the same assertion body.
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
//! once, not once per export. The ASK's export reads only the
//! `instanceof` and `isa` posting lists and sizes each relation before
//! its first row ([`Database::reserve`]).

use crate::error::ObResult;
use datalog::ast::{Program, Value};
use datalog::db::Database;
use datalog::intern::{intern, IVal, Symbol};
use datalog::seminaive::{self, EvalStats};
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

/// The rows an export dropped as duplicates, one entry per dropped row.
type Dropped = Vec<(Symbol, Vec<IVal>)>;

/// The believed network as an extensional database, plus what its
/// de-duplication dropped: one entry per believed proposition asserting
/// a link that an earlier one already contributed. A maintained view is
/// loaded from the pair ([`datalog::ivm::MaterializedView::load`]), so
/// that untelling one of two propositions asserting the same link
/// leaves the tuple present.
pub fn to_edb_counted(kb: &Kb) -> ObResult<(Database, Dropped)> {
    export(kb, Proposition::is_believed, true)
}

/// Exports the network as believed at tick `at` — the deductive view of
/// a belief-time snapshot. Objects are identified by their display
/// names; anonymous links are skipped (they reappear as `attr` tuples
/// of their endpoints). It takes the [`PropStore`] itself — a live
/// KB's or an immutable [`KbVersion`]'s, so the server's MVCC read path
/// builds its EDB from a pinned version without touching the live KB.
pub fn to_edb_at_store(store: &PropStore, at: i64) -> ObResult<Database> {
    export(store, |p| p.believed_at(at), true).map(|(edb, _)| edb)
}

/// The extensional relation a proposition feeds.
enum Rel {
    In,
    Isa,
    Attr,
}

/// Which relation `p` feeds, or `None` for an individual (it reappears
/// as the endpoint of its links). The one place that decides it, for
/// the bulk export and for [`edb_fact_for`] alike. Belief is *not*
/// checked — the caller decides which belief state it is mapping.
fn rel_of(store: &PropStore, p: &Proposition) -> Option<Rel> {
    if p.is_individual() {
        None
    } else if p.label == store.instanceof_sym() {
        Some(Rel::In)
    } else if p.label == store.isa_sym() {
        Some(Rel::Isa)
    } else {
        Some(Rel::Attr)
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
/// Without `with_attr` the export reads the `instanceof` and `isa` posting
/// lists instead of every proposition. A posting list is in id order,
/// so each relation gets the rows of the full walk in the same order,
/// and is sized from the list's length before its first row.
fn export(
    store: &PropStore,
    live: impl Fn(&Proposition) -> bool,
    with_attr: bool,
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
    let ids: Box<dyn Iterator<Item = PropId>> = if with_attr {
        Box::new((0..store.len() as u32).map(PropId))
    } else {
        let lists = [(store.instanceof_sym(), in_), (store.isa_sym(), isa)];
        for (label, pred) in lists {
            let len = store.postings_label(label).len();
            if len > 0 {
                db.reserve(pred, 2, len)?;
            }
        }
        Box::new(
            lists
                .into_iter()
                .flat_map(|(label, _)| store.postings_label(label).iter().copied()),
        )
    };
    let mut duplicates = Vec::new();
    let mut put = |pred: Symbol, row: &[IVal]| -> ObResult<()> {
        if !db.insert_ivals(pred, row)? {
            duplicates.push((pred, row.to_vec()));
        }
        Ok(())
    };
    for id in ids {
        let Some(p) = store.prop(id).filter(|p| live(p)) else {
            continue;
        };
        match rel_of(store, p) {
            Some(Rel::In) => put(in_, &[names.of(p.source), names.of(p.dest)])?,
            Some(Rel::Isa) => put(isa, &[names.of(p.source), names.of(p.dest)])?,
            Some(Rel::Attr) if with_attr => {
                let label = IVal::Sym(names.pooled(p.label));
                put(attr, &[names.of(p.source), label, names.of(p.dest)])?;
            }
            // An individual (one named like a reserved label is filed
            // under it), or an attribute the export leaves out.
            Some(Rel::Attr) | None => {}
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
/// for individuals. Belief is *not* checked (see [`rel_of`]). This is
/// the per-proposition delta unit the incremental view-maintenance path
/// feeds into registered views on TELL/UNTELL; the whole KB at once
/// goes through [`to_edb_counted`].
pub fn edb_fact_for(store: &PropStore, id: PropId) -> Option<(String, Vec<Value>)> {
    let p = store.prop(id)?;
    let rel = rel_of(store, p)?;
    let src = Value::sym(store.display(p.source));
    let dst = Value::sym(store.display(p.dest));
    Some(match rel {
        Rel::In => (preds::IN.to_string(), vec![src, dst]),
        Rel::Isa => (preds::ISA.to_string(), vec![src, dst]),
        Rel::Attr => {
            let label = Value::sym(store.resolve_sym(p.label));
            (preds::ATTR.to_string(), vec![src, label, dst])
        }
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
/// per export with or without `attr` — a projected model must not
/// answer for a full one), its closure at the version's capture tick.
#[derive(Default)]
struct Lemmas(Mutex<Vec<(bool, Program, Lemma)>>);

/// Exports `store` as believed at `at` (with `attr` or without) and
/// evaluates `program` over it.
fn build_closure(
    store: &PropStore,
    at: i64,
    with_attr: bool,
    program: &Program,
) -> ObResult<Arc<Closure>> {
    obs::counter!(
        "objectbase_closure_builds_total",
        "Deductive closures evaluated from scratch (one EDB export and one fixpoint each)"
    )
    .inc();
    let started = Instant::now();
    let (edb, _) = export(store, |p| p.believed_at(at), with_attr)?;
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
    with_attr: bool,
    program: &Program,
) -> ObResult<Arc<Closure>> {
    let build = || build_closure(version, at, with_attr, program);
    if at != version.now() {
        return build();
    }
    let Some(lemmas) = version.derived::<Lemmas>() else {
        return build();
    };
    let lemma = {
        let mut all = lemmas.0.lock().unwrap_or_else(|e| e.into_inner());
        match all.iter().find(|(a, p, _)| *a == with_attr && p == program) {
            Some((_, _, lemma)) => Arc::clone(lemma),
            None => {
                let lemma = Lemma::default();
                all.push((with_attr, program.clone(), Arc::clone(&lemma)));
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
    closure_at(version, at, true, program)
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

/// ASK through the deductive-relational bridge against an immutable
/// [`KbVersion`] at belief tick `at`, reporting the [`EvalStats`] of
/// the underlying join evaluation (`index_probes`, `tuples_scanned`,
/// …). Candidate instances of `class` are enumerated by the semi-naive
/// engine (the `inT` closure of [`base_program`] over the version's
/// `in_` and `isa` relations), then filtered with the assertion body
/// against the version's [`telos::Snapshot`] — so the answers are
/// snapshot-consistent, and the query runs entirely without the writer
/// lock. This is the server's MVCC ASK path.
///
/// It validates first — the body parses, the class is known — and only
/// then pays for a closure, so a typo costs no O(KB) export.
///
/// At the version's capture tick (`at == version.now()`, what every
/// session pins) the `inT` closure is read from the lemmas the version
/// holds — built by the first ASK against it, O(answer) for every later
/// one. The returned [`EvalStats`] are those of the evaluation that
/// built the closure the answer was read from; by determinism they
/// equal a from-scratch run over the same version.
///
/// Answers are the closure's interned names in string order, borrowed
/// (`Cow::Borrowed`): nothing is allocated per answer, and the server
/// encodes them into a `Names` reply as they are.
pub fn ask_with_stats_version(
    version: &KbVersion,
    at: i64,
    var: &str,
    class: &str,
    body: &str,
) -> ObResult<(Vec<Cow<'static, str>>, EvalStats)> {
    let start = Instant::now();
    obs::counter!("objectbase_asks_total", "Deductive ASK queries evaluated").inc();
    let result = ask_deductive(version, at, var, class, body);
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

fn ask_deductive(
    version: &KbVersion,
    at: i64,
    var: &str,
    class: &str,
    body: &str,
) -> ObResult<(Vec<Cow<'static, str>>, EvalStats)> {
    let view = version.snapshot_at(at);
    let expr = assertion::parse(body)?;
    if view.lookup(class).is_none() {
        return Err(TelosError::Assertion(format!("unknown class `{class}`")).into());
    }
    // The base program joins only `in_` and `isa`.
    let closure = closure_at(version, at, false, base())?;
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
        if assertion::eval(&view, &expr, &mut env)? {
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
        // What the de-duplication dropped is reported, once per drop.
        let (counted, dropped) = to_edb_counted(&kb).unwrap();
        assert_eq!(listing(&counted), want);
        let row = twice.1.iter().map(IVal::from_value).collect();
        assert_eq!(dropped, vec![(intern(preds::ATTR), row)]);
        assert_eq!(listing(&to_edb_at_store(&kb.version(), now).unwrap()), want);

        // The ASK's export: the same, minus `attr`.
        let mut projected = want.clone();
        projected[2].1.clear();
        let (asked, _) = export(&kb, |p| p.believed_at(now), false).unwrap();
        assert_eq!(listing(&asked), projected);
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
                    let (got, _) = export(store, |p| p.believed_at(t), false).unwrap();
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
        let asked = closure_at(&version, at, false, &program).unwrap();
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
        let now_db = to_edb_at_store(&kb, kb.now()).unwrap();
        let then_db = to_edb_at_store(&kb, t).unwrap();
        let at_inv3 = [Value::sym("inv3"), Value::sym("Invitation")];
        assert!(now_db.contains(preds::IN, &at_inv3));
        assert!(!then_db.contains(preds::IN, &at_inv3));
    }

    #[test]
    fn ask_with_stats_matches_ask_and_counts_probes() {
        let kb = scenario_kb();
        let version = kb.version();
        let now = version.now();
        let (hits, stats) = ask_with_stats_version(&version, now, "p", "Paper", "true").unwrap();
        assert_eq!(hits, ask(&kb, "p", "Paper", "true").unwrap());
        assert!(stats.index_probes > 0, "join core probed indexes");
        assert!(stats.tuples_scanned > 0);
        let (with_sender, _) =
            ask_with_stats_version(&version, now, "i", "Invitation", "i.sender defined").unwrap();
        assert_eq!(with_sender, vec!["inv1"]);
        assert!(ask_with_stats_version(&version, now, "x", "Ghost", "true").is_err());
    }

    #[test]
    fn ask_with_stats_version_is_pinned() {
        let mut kb = scenario_kb();
        let t = kb.now();
        let captured = kb.version();
        kb.tick();
        let frames = ObjectFrame::parse_all("TELL inv3 in Invitation end").unwrap();
        tell_all(&mut kb, &frames).unwrap();
        let version = kb.version();
        let (live, _) =
            ask_with_stats_version(&version, version.now(), "p", "Paper", "true").unwrap();
        assert_eq!(live.len(), 4);
        // A version answers at an earlier tick like the version captured
        // then, and like the assertion language over a snapshot of the
        // live (now further evolved) KB at that tick.
        let oracle = ask(&kb.snapshot_at(t), "p", "Paper", "true").unwrap();
        for v in [&version, &captured] {
            let (pinned, stats) = ask_with_stats_version(v, t, "p", "Paper", "true").unwrap();
            assert_eq!(pinned, oracle);
            assert_eq!(pinned.len(), 3);
            assert!(!pinned.contains(&"inv3".into()));
            assert!(stats.index_probes > 0);
        }
        let (with_sender, _) =
            ask_with_stats_version(&captured, t, "i", "Invitation", "i.sender defined").unwrap();
        assert_eq!(with_sender, vec!["inv1"]);
    }
}
