//! ASK evaluation and the deductive-relational bridge (§3.1).
//!
//! "The object processor understands the knowledge base as a deductive
//! relational database." [`to_edb_at_store`] exports the propositions
//! believed at a tick as datalog relations (`in_/2`, `isa/2`,
//! `attr/3`), [`edb_fact_for`] maps one proposition the same way (the
//! delta unit of a carried closure), and [`base_program`] supplies
//! the CML closure rules (transitive specialization, instance
//! inheritance). Everything is evaluated by the one bottom-up kernel,
//! [`datalog::seminaive::evaluate`].
//!
//! There are two ASKs. [`ask`] is the assertion language over a
//! [`Snapshot`]; [`ask_with_stats_version`] is the served one, which
//! enumerates candidates from the `inT` closure of a pinned version
//! and filters them with the same assertion body.
//!
//! # Lemmas live with their version
//!
//! The inference engines "may enhance their performance by lemma
//! generation" (§3.1): derived facts are kept, not re-derived. The unit
//! a set of lemmas is valid for is one immutable [`KbVersion`] — so
//! that is where they are kept. A version's derived-state slot
//! ([`KbVersion::derived`]) holds one lemma per program read at it: the
//! ASK's ([`ask_closure`], [`base_program`] over `in_` and `isa`) and
//! one per registered view's program ([`version_closure`], over all
//! three relations). Each is the [`Closure`] of its program (its model,
//! as a maintained view, and the [`EvalStats`] of the work that built
//! it), built by the first read at the version's capture tick, shared
//! by every later one, freed with the version. The ASK's closure holds
//! lemmas of its own: per class, its extent (the believed individuals
//! among the `inT(_, class)` rows, sorted by name), built by the first
//! ASK of the class. There is no cache to size or invalidate.
//!
//! A version's lemmas are its predecessor's moved by the write between
//! them, and one mechanism does it for every program. [`inherit`] hands
//! a fresh version the nearest earlier closure of each program, in O(1)
//! of their number, and its first read carries that closure over: the
//! store's delta since the closure's [`telos::Mark`]
//! ([`PropStore::delta_since`]) is mapped to facts, inserted if told and
//! deleted if untold, through [`MaterializedView::apply`] — the crate's
//! one maintenance algorithm. So at most one ancestor closure per
//! program is held for the versions nobody read. The class extents ride
//! along: the carried closure takes over every extent its seed held and
//! patches it by the `inT` rows the refresh inserted and deleted (and
//! the names whose individual the delta told or untold), so an extent
//! is built only for a class no version of the lineage asked before.
//!
//! # What a fresh closure costs
//!
//! A carried closure costs the delta: the facts of the ids the write
//! told and untold, and the derivations they add or remove — in place
//! when nothing else holds the predecessor's closure (the predecessor's
//! version is gone), or on a copy of its relations when a pinned
//! predecessor still reads them — and, per held class extent the delta
//! moved, a splice of the moved names (an extent it did not move stays
//! the same `Arc`). Each carry is counted and timed
//! (`objectbase_closures_carried_total`,
//! `objectbase_closure_carry_seconds`), and so is each patched extent
//! (`objectbase_class_extents_patched_total`). A carry that fails falls
//! back to a build from scratch, whose extents start empty
//! (`objectbase_closure_carry_failures_total`).
//!
//! A version without an ancestor closure — a bare [`telos::Kb::version`],
//! the first capture of a served state, any tick below the capture tick
//! — pays one export and one fixpoint; both are timed
//! (`objectbase_edb_export_seconds`, `objectbase_closure_eval_seconds`).
//! The export costs the tuples it writes, not the names it meets: the
//! store and the datalog engine intern names in two tables (a versioned
//! one per store in `telos`, one process-wide pool in `datalog`), and
//! each store name remembers its pooled id ([`PropStore::pooled`]), so a
//! name is hashed into the pool once, not once per export. The ASK's
//! export reads only the `instanceof` and `isa` posting lists and sizes
//! each relation before its first row ([`Database::reserve`]).

use crate::error::ObResult;
use datalog::ast::{Program, Value};
use datalog::db::Database;
use datalog::intern::{intern, IVal, Symbol};
use datalog::ivm::{Applied, Fact, MaterializedView};
use datalog::seminaive::EvalStats;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;
use telos::assertion;
use telos::{Delta, KbVersion, Mark, PropId, PropStore, Proposition, Snapshot, TelosError};

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

/// The network `snap` believes as an extensional database, plus what its
/// de-duplication dropped: one entry per believed proposition asserting
/// a link that an earlier one already contributed. A maintained view is
/// loaded from the pair ([`datalog::ivm::MaterializedView::load`]), so
/// that untelling one of two propositions asserting the same link
/// leaves the tuple present.
pub fn to_edb_counted(snap: Snapshot<'_>) -> ObResult<(Database, Dropped)> {
    export(snap.store(), |p| p.believed_at(snap.at()), true)
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
                .flat_map(|(label, _)| store.postings_label(label)),
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
/// for individuals. Belief is *not* checked: the caller decides which
/// belief state it is mapping. This is the per-proposition delta unit
/// a closure takes in when it is carried over to a later version; the
/// whole KB at once goes through [`to_edb_counted`].
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

/// The individuals of one class in a closure, as (name, id) sorted by
/// name.
pub type Extent = Arc<[(&'static str, PropId)]>;

/// The deductive closure of one program over one belief state: the
/// maintained view of the program (extensional plus derived tuples,
/// with the export's multiplicities) and the counters of the work that
/// built it.
#[derive(Debug)]
pub struct Closure {
    view: MaterializedView,
    /// What building it cost. A closure evaluated from scratch reports
    /// its [`datalog::seminaive::evaluate`] run, which by determinism is
    /// what any from-scratch run over the same state reports. A closure
    /// carried over from an earlier version's reports the refresh that
    /// moved it ([`datalog::ivm::ApplyStats`]): its derivations, index
    /// probes and tuples scanned, with `rounds` and `new_facts` 0.
    pub stats: EvalStats,
    /// Where in its store's lineage the state the view models stands.
    mark: Mark,
    /// Per class, its extent: lemmas of this closure, read by every
    /// ASK of the class. A carried closure starts with its seed's,
    /// patched by the carry's delta; the first ASK of a class no
    /// ancestor held builds it.
    extents: Mutex<HashMap<Symbol, Extent>>,
}

impl Closure {
    fn new(
        view: MaterializedView,
        stats: EvalStats,
        mark: Mark,
        extents: HashMap<Symbol, Extent>,
    ) -> Arc<Closure> {
        Arc::new(Closure {
            view,
            stats,
            mark,
            extents: Mutex::new(extents),
        })
    }

    /// The full model: extensional plus derived tuples.
    pub fn model(&self) -> &Database {
        self.view.model()
    }

    /// The `inT(_, class)` rows of this closure that name an individual
    /// believed in `view` — the snapshot the closure was built over —
    /// each with that individual, sorted by name: the candidates an ASK
    /// of `class` filters. Unless the closure took it over from its
    /// seed, the first read of a class builds it under the lock, so
    /// racing readers build it once; each `(x, class)` row sits in one
    /// extent, so all of them together are bounded by the closure's
    /// `inT` relation.
    pub fn extent(&self, view: &Snapshot<'_>, class: Symbol) -> Extent {
        let mut extents = lock(&self.extents);
        if let Some(extent) = extents.get(&class) {
            obs::counter!(
                "objectbase_class_extent_hits_total",
                "Class extents an ASK read from the closure that already held them"
            )
            .inc();
            return Arc::clone(extent);
        }
        obs::counter!(
            "objectbase_class_extents_built_total",
            "Class extents built from a closure's inT rows (one per class and closure)"
        )
        .inc();
        // The `(x, class)` rows are distinct, so their names are; the
        // export names every object by a symbol.
        let mut names: Vec<&'static str> = self
            .model()
            .probe_rows("inT", &[None, Some(IVal::Sym(class))])
            .rows()
            .filter_map(|row| match row[0] {
                IVal::Sym(x) => Some(x.as_str()),
                IVal::Int(_) => None,
            })
            .collect();
        names.sort_unstable();
        let extent: Extent = names
            .into_iter()
            .filter_map(|name| Some((name, view.lookup(name)?)))
            .collect();
        extents.insert(class, Arc::clone(&extent));
        extent
    }
}

/// What a lemma holds: until a read builds the closure, the seed a
/// build starts from — the nearest earlier version's closure of the
/// same program, if any — and then the closure.
enum Cell {
    Seed(Option<Arc<Closure>>),
    Built(Arc<Closure>),
}

/// One closure of a version, in one cell. A build holds the cell's
/// lock, so concurrent readers of a fresh version wait for one
/// evaluation instead of each running their own, and so does a
/// successor handed the lemma on.
struct Lemma(Mutex<Cell>);

impl Lemma {
    /// What a successor starts from: the closure if built, the seed if
    /// not.
    fn passed_on(&self) -> Option<Arc<Closure>> {
        match &*lock(&self.0) {
            Cell::Seed(seed) => seed.clone(),
            Cell::Built(closure) => Some(Arc::clone(closure)),
        }
    }
}

impl Default for Lemma {
    fn default() -> Lemma {
        Lemma(Mutex::new(Cell::Seed(None)))
    }
}

/// Per view program, the lemma of the state at a mark: the latest
/// version of the lineage, up to the holder, that read the program.
type ViewLemmas = Vec<(Arc<Program>, Mark, Arc<Lemma>)>;

/// What [`KbVersion::derived`] holds for this crate: its closures at
/// the version's capture tick.
#[derive(Default)]
struct Lemmas {
    /// The ASK's: [`base_program`] over `in_` and `isa` (a projected
    /// model must not answer for a full one).
    ask: Lemma,
    /// The views' closures over all three predicates: one list, shared
    /// with the versions captured next ([`inherit`]) and replaced, not
    /// changed, when a program is first read here.
    views: Mutex<Arc<ViewLemmas>>,
}

impl Lemmas {
    /// The lemma of view `program` at the version marked `at`. A first
    /// read here replaces the list with one whose entry for the program
    /// is a fresh lemma, seeded from the old entry. The old list goes
    /// with it unless another version shares it, so when nothing else
    /// holds the old entry the seed is the build's alone, and the build
    /// carries it in place.
    fn view(&self, at: Mark, program: &Program) -> Arc<Lemma> {
        let mut list = lock(&self.views);
        let entry = list.iter().find(|(p, ..)| **p == *program);
        if let Some((.., lemma)) = entry.filter(|(_, mark, _)| *mark == at) {
            return Arc::clone(lemma);
        }
        let seed = entry.and_then(|(.., lemma)| lemma.passed_on());
        let lemma = Arc::new(Lemma(Mutex::new(Cell::Seed(seed))));
        let shared = entry.map_or_else(|| Arc::new(program.clone()), |(p, ..)| Arc::clone(p));
        let others = list.iter().filter(|(p, ..)| **p != *program);
        let entries = others.cloned().chain([(shared, at, Arc::clone(&lemma))]);
        *list = Arc::new(entries.collect());
        lemma
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Exports `store` as believed at `at` (with `attr` or without) and
/// evaluates `program` over it: the from-scratch build, the base case
/// every carried closure starts from. Its mark is the store's, so only
/// one built at the store's tick may seed a carry ([`closure`]).
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
    let (edb, duplicates) = export(store, |p| p.believed_at(at), with_attr)?;
    obs::histogram!(
        "objectbase_edb_export_seconds",
        "EDB exports for closures built from scratch (closure misses only)"
    )
    .observe(started.elapsed());
    let started = Instant::now();
    let (view, stats) = MaterializedView::load_counted(program.clone(), &edb, &duplicates)?;
    obs::histogram!(
        "objectbase_closure_eval_seconds",
        "Fixpoint evaluations for closures built from scratch (closure misses only)"
    )
    .observe(started.elapsed());
    Ok(Closure::new(view, stats, store.mark(), HashMap::new()))
}

/// The extensional fact of proposition `id` in an export with `attr`
/// or without, if it feeds one.
fn exported_fact(store: &PropStore, id: PropId, with_attr: bool) -> Option<Fact> {
    match rel_of(store, store.prop(id)?)? {
        Rel::Attr if !with_attr => None,
        _ => edb_fact_for(store, id),
    }
}

/// `seed`, a closure of an earlier version of `version`'s lineage over
/// the export with `attr` or without, moved to `version`: the facts of
/// the ids told since the seed's mark are inserted and those of the ids
/// untold since are deleted ([`PropStore::delta_since`]), both through
/// [`MaterializedView::apply`], and the class extents the seed holds
/// are patched by what that changed ([`patch_extents`]). The view and
/// the extents are taken over when nothing else holds the seed, and
/// copied first otherwise (the extents by `Arc`).
fn carry(seed: Arc<Closure>, version: &KbVersion, with_attr: bool) -> ObResult<Arc<Closure>> {
    let started = Instant::now();
    let delta = version.delta_since(&seed.mark);
    let facts = |ids: &[PropId]| -> Vec<Fact> {
        (ids.iter())
            .filter_map(|&id| exported_fact(version, id, with_attr))
            .collect()
    };
    let (inserts, deletes) = (facts(&delta.told), facts(&delta.untold));
    let (mut view, mut extents) = match Arc::try_unwrap(seed) {
        Ok(owned) => (
            owned.view,
            owned
                .extents
                .into_inner()
                .unwrap_or_else(|e| e.into_inner()),
        ),
        Err(shared) => (shared.view.clone(), lock(&shared.extents).clone()),
    };
    let applied = view.apply(&inserts, &deletes)?;
    patch_extents(&mut extents, &applied, &delta, version);
    let stats = EvalStats {
        derivations: applied.stats.derivations,
        index_probes: applied.stats.index_probes,
        tuples_scanned: applied.stats.tuples_scanned,
        ..EvalStats::default()
    };
    obs::counter!(
        "objectbase_closures_carried_total",
        "Closures carried over from an earlier version's by the delta between them"
    )
    .inc();
    obs::histogram!(
        "objectbase_closure_carry_seconds",
        "Carrying an earlier version's closure over: delta, copy if shared, refresh and extent patch"
    )
    .observe(started.elapsed());
    Ok(Closure::new(view, stats, version.mark(), extents))
}

/// Moves the class extents a carried closure took over to `version`:
/// each extent of a class `C` gains the individuals of the `inT(x, C)`
/// rows the refresh inserted, loses those of the rows it deleted, and
/// re-resolves every name whose believed individual the delta told or
/// untold — one untold and told again nets out in the refresh, so no
/// row moves, yet the name's id does. That is what a rebuild from the
/// carried model would hold: an extent is the `inT(_, C)` rows whose
/// name a believed individual bears, each with that individual.
/// An extent nothing moved stays the same `Arc`.
///
/// A name whose individual was not believed while an `in` link from it
/// still was is the one thing the patch cannot see appear: its row does
/// not move when an individual of that name is told. Only a raw
/// [`telos::Kb::untell`] of an individual leaves such a link; every
/// served UNTELL cascades to the object's links.
fn patch_extents(
    extents: &mut HashMap<Symbol, Extent>,
    applied: &Applied,
    delta: &Delta,
    version: &KbVersion,
) {
    if extents.is_empty() {
        return;
    }
    let view = version.snapshot();
    // Per held class, the names of its inserted and its deleted rows.
    let mut moved: HashMap<Symbol, (Vec<&'static str>, Vec<&'static str>)> = HashMap::new();
    for (rows, inserted) in [(&applied.inserted, true), (&applied.deleted, false)] {
        for row in rows.rows("inT") {
            let (IVal::Sym(x), IVal::Sym(class)) = (row[0], row[1]) else {
                continue;
            };
            if extents.contains_key(&class) {
                let (ins, del) = moved.entry(class).or_default();
                if inserted { ins } else { del }.push(x.as_str());
            }
        }
    }
    let renamed: Vec<&str> = (delta.told.iter().chain(&delta.untold))
        .filter_map(|&id| version.prop(id).filter(|p| p.is_individual()))
        .map(|p| version.resolve_sym(p.label))
        .collect();
    for (class, extent) in extents.iter_mut() {
        let (mut ins, mut del) = moved.remove(class).unwrap_or_default();
        let stale =
            (renamed.iter()).any(|name| extent.binary_search_by_key(name, |&(n, _)| n).is_ok());
        if ins.is_empty() && del.is_empty() && !stale {
            continue;
        }
        // A name the delta renamed is looked up again: it stays under
        // the id it names now, or goes if it names none.
        for name in &renamed {
            let Ok(i) = extent.binary_search_by_key(name, |&(n, _)| n) else {
                continue;
            };
            let (name, id) = extent[i];
            if !del.contains(&name) && view.lookup(name) != Some(id) {
                del.push(name);
                ins.push(name);
            }
        }
        ins.sort_unstable();
        ins.dedup();
        del.sort_unstable();
        del.dedup();
        let ins: Vec<(&'static str, PropId)> = (ins.into_iter())
            .filter_map(|name| Some((name, view.lookup(name)?)))
            .collect();
        obs::counter!(
            "objectbase_class_extents_patched_total",
            "Class extents a carried closure patched by the rows and names its delta moved"
        )
        .inc();
        *extent = splice(extent, &ins, &del);
    }
}

/// `old` (sorted by name) with the names `del` (sorted) taken out and
/// `ins` (sorted, each in `old` only if also in `del`) merged in, built
/// straight into the new extent's one allocation: each change is placed
/// by binary search and the runs between changes are copied whole.
fn splice(
    old: &[(&'static str, PropId)],
    ins: &[(&'static str, PropId)],
    del: &[&'static str],
) -> Extent {
    let held = |name: &&&str| old.binary_search_by_key(*name, |&(n, _)| n).is_ok();
    let len = old.len() + ins.len() - del.iter().filter(held).count();
    let (mut rest, mut ins, mut del) = (old, ins, del);
    let (mut run, mut inserted): (&[_], _) = (&[], None);
    // An exact-length map, so the rows are written into the `Arc` as
    // they come, with no `Vec` in between.
    (0..len)
        .map(|_| loop {
            if let Some((&row, tail)) = run.split_first() {
                run = tail;
                break row;
            }
            if let Some(row) = inserted.take() {
                break row;
            }
            // The next change by name: an insert, or a delete.
            let next = match (ins.first(), del.first()) {
                (Some(&(i, _)), Some(&d)) => i.min(d),
                (Some(&(i, _)), None) => i,
                (None, Some(&d)) => d,
                (None, None) => {
                    assert!(!rest.is_empty(), "a splice runs past its length");
                    run = std::mem::take(&mut rest);
                    continue;
                }
            };
            (run, rest) = rest.split_at(rest.partition_point(|&(name, _)| name < next));
            if del.first() == Some(&next) {
                del = &del[1..];
                if rest.first().is_some_and(|&(name, _)| name == next) {
                    rest = &rest[1..];
                }
            } else {
                inserted = Some(ins[0]);
                ins = &ins[1..];
            }
        })
        .collect()
}

/// Hands `prev`'s closures on to `next` — the ASK's and every view's —
/// so that the first read of each at `next` refreshes the nearest
/// earlier closure of its program by the delta between them instead of
/// building one from scratch. `prev` must be an earlier version of
/// `next`'s lineage: captured from the same [`telos::Kb`], before it,
/// with nothing rolled back below it since.
///
/// The ASK's lemma is seeded with `prev`'s closure if built, `prev`'s
/// own seed if not (a build in progress is waited for). The views' list
/// is shared, one `Arc` for any number of programs, until a version's
/// first read of a view gives it a list of its own. So versions nobody
/// reads hold one ancestor closure per program, not a chain of them.
/// This is the one place a closure crosses versions.
pub fn inherit(next: &KbVersion, prev: &KbVersion) {
    let (Some(next), Some(prev)) = (next.derived::<Lemmas>(), prev.derived::<Lemmas>()) else {
        return;
    };
    *lock(&next.ask.0) = Cell::Seed(prev.ask.passed_on());
    let views = Arc::clone(&lock(&prev.views));
    *lock(&next.views) = views;
}

/// The closure of `program` over what `version` believed at tick `at`,
/// exported with `attr` or without, and whether this read built it
/// from scratch. At the version's capture tick — the only tick a
/// served session ever pins — it is read from `lemma`: the first read
/// carries the lemma's seed over ([`inherit`]) if it has one, and
/// builds from scratch if not (or if carrying fails); every later read
/// shares what it left. Off the capture tick, or without a lemma, it
/// is built unshared. A failed build stores nothing.
fn closure(
    version: &KbVersion,
    at: i64,
    with_attr: bool,
    program: &Program,
    lemma: Option<&Lemma>,
) -> ObResult<(Arc<Closure>, bool)> {
    let scratch = || build_closure(version, at, with_attr, program);
    let Some(lemma) = lemma.filter(|_| at == version.now()) else {
        return Ok((scratch()?, true));
    };
    let mut cell = lock(&lemma.0);
    let seed = match &mut *cell {
        Cell::Built(closure) => {
            obs::counter!(
                "objectbase_closure_hits_total",
                "Closure reads served from the lemmas their pinned version already holds"
            )
            .inc();
            return Ok((Arc::clone(closure), false));
        }
        Cell::Seed(seed) => seed.take(),
    };
    let (closure, fresh) = match seed.map(|seed| carry(seed, version, with_attr)) {
        Some(Ok(carried)) => (carried, false),
        Some(Err(_)) => {
            obs::counter!(
                "objectbase_closure_carry_failures_total",
                "Carries that failed and fell back to a build from scratch (its extents start empty)"
            )
            .inc();
            (scratch()?, true)
        }
        None => (scratch()?, true),
    };
    *cell = Cell::Built(Arc::clone(&closure));
    Ok((closure, fresh))
}

/// The closure [`ask_with_stats_version`] reads: [`base_program`] over
/// the `in_` and `isa` relations `version` believed at `at`, read from
/// the version's ASK lemma ([`closure`]).
pub fn ask_closure(version: &KbVersion, at: i64) -> ObResult<Arc<Closure>> {
    let lemmas = version.derived::<Lemmas>();
    let lemma = lemmas.as_deref().map(|l| &l.ask);
    closure(version, at, false, base(), lemma).map(|(closure, _)| closure)
}

/// The closure of `program` over everything `version` believed at tick
/// `at` (all three extensional predicates, like [`to_edb_at_store`]),
/// read from the version's lemma of that program ([`closure`]) — how a
/// registered view is read — and whether this read built it from
/// scratch.
pub fn version_closure(
    version: &KbVersion,
    at: i64,
    program: &Program,
) -> ObResult<(Arc<Closure>, bool)> {
    let lemmas = version.derived::<Lemmas>().filter(|_| at == version.now());
    let lemma = lemmas.map(|l| l.view(version.mark(), program));
    closure(version, at, true, program, lemma.as_deref())
}

/// ASK with the assertion language: the believed instances of `class`
/// satisfying `body` (an open query, §3.1), as `snap` believes them:
/// `kb.snapshot()` for current-belief answers, a pinned version's
/// snapshot for answers at its watermark.
pub fn ask(snap: &Snapshot<'_>, var: &str, class: &str, body: &str) -> ObResult<Vec<String>> {
    let expr = assertion::parse(body)?;
    let hits = assertion::find(snap, var, class, &expr)?;
    Ok(hits.into_iter().map(|h| snap.store().display(h)).collect())
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
/// holds — built by the first ASK against it, carried over from the
/// previous version's when the version inherited one ([`inherit`]) —
/// and the class's sorted extent from the lemmas that closure holds —
/// patched by the carry when an earlier version of the lineage held
/// it, built by the first ASK of the class otherwise. So the first ASK
/// after a write costs the write's delta, not the class's size. A body
/// that never mentions
/// `var` is evaluated once (and only if the class has a candidate, so
/// an unbound name errors exactly when a per-candidate run would); any
/// other body once per candidate. So every later ASK is O(answer).
///
/// The returned [`EvalStats`] are those of the work that built the
/// closure the answer was read from, the same for every ASK of the
/// version. For a closure built from scratch that is its fixpoint,
/// which by determinism equals a from-scratch run over the same
/// version. For a carried closure it is the refresh: the derivations,
/// index probes and tuples scanned of folding the delta in, with
/// `rounds` 0.
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
    let closure = ask_closure(version, at)?;
    // A class name the export never interned has no instances.
    let Some(class) = datalog::intern::lookup(class) else {
        return Ok((Vec::new(), closure.stats));
    };
    let extent = closure.extent(&view, class);
    let mut env = assertion::Env::new();
    if !expr.free_idents().iter().any(|v| v == var) {
        // A body that never reads the variable answers alike for every
        // candidate: evaluate it once, and only if there is one, so an
        // unbound name errors exactly when a per-candidate run would.
        let holds = !extent.is_empty() && assertion::eval(&view, &expr, &mut env)?;
        let names = if holds { &extent[..] } else { &[] };
        let out = names.iter().map(|&(name, _)| Cow::Borrowed(name)).collect();
        return Ok((out, closure.stats));
    }
    let mut out = Vec::new();
    for &(name, id) in extent.iter() {
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
    use telos::Kb;

    /// The counters are process-wide and the tests of this module move
    /// them, so each runs alone and a test can read an exact delta.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn count(name: &str) -> u64 {
        obs::registry().counter_value(name).unwrap_or(0)
    }

    fn tell_src(kb: &mut Kb, src: &str) {
        tell_all(kb, &ObjectFrame::parse_all(src).unwrap()).unwrap();
    }

    fn untell_named(kb: &mut Kb, name: &str) {
        crate::transform::untell_object(kb, name).unwrap();
    }

    /// `ask_with_stats_version` at `version`'s capture tick, owned.
    fn asked(version: &KbVersion, class: &str) -> (Vec<String>, EvalStats) {
        let (names, stats) =
            ask_with_stats_version(version, version.now(), "p", class, "true").unwrap();
        (names.into_iter().map(Cow::into_owned).collect(), stats)
    }

    /// The assertion language's answer over the live KB, sorted.
    fn oracle(kb: &Kb, class: &str) -> Vec<String> {
        oracle_where(kb, class, "true")
    }

    /// [`oracle`] of the ASK of `class` with `body` over `p`.
    fn oracle_where(kb: &Kb, class: &str, body: &str) -> Vec<String> {
        let mut names = ask(&kb.snapshot(), "p", class, body).unwrap();
        names.sort();
        names
    }

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

    /// A splice takes deletes, inserts and replacements (a name deleted
    /// and inserted again) in one pass, to exactly the rows it keeps.
    #[test]
    fn a_splice_applies_deletes_inserts_and_replacements() {
        let row = |n: &'static str, id| (n, PropId(id));
        let old = [row("a", 1), row("c", 3), row("e", 5)];
        let ins = [row("b", 2), row("c", 9), row("f", 6)];
        let got = splice(&old, &ins, &["a", "c", "z"]);
        assert_eq!(
            got[..],
            [row("b", 2), row("c", 9), row("e", 5), row("f", 6)]
        );
        assert_eq!(splice(&old, &[], &[])[..], old);
        assert!(splice(&old, &[], &["a", "c", "e"]).is_empty());
        assert_eq!(splice(&[], &ins, &["a"])[..], ins);
    }
    #[test]
    fn edb_exports_believed_links() {
        let _serial = serial();
        let kb = scenario_kb();
        let (db, dropped) = to_edb_counted(kb.snapshot()).unwrap();
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
        let _serial = serial();
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
        let sender = kb
            .snapshot()
            .find_link(inv1, kb.lookup_sym("sender").unwrap(), maria);
        kb.put_attr(sender.expect("told by scenario_kb"), "via", inv2)
            .unwrap();
        let gone = kb.put_attr(inv2, "sender", maria).unwrap();
        kb.untell(gone).unwrap();
        kb.put_attr(inv2, "sender", maria).unwrap();
        kb.put_attr(inv2, "sender", maria).unwrap();

        // One fact per believed proposition, duplicates kept.
        let facts: Vec<(String, Vec<Value>)> = (0..kb.len())
            .map(|i| PropId(i as u32))
            .filter(|&id| kb.snapshot().sees(id))
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
        let (counted, dropped) = to_edb_counted(kb.snapshot()).unwrap();
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
        let _serial = serial();
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
                if !kb.snapshot().sees(id) {
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
            assert_eq!(to_edb_counted(kb.snapshot()).unwrap().1, dropped);
        };
        let named = |kb: &Kb, name: &str| kb.lookup(name).unwrap();
        check(&kb, &mut versions);

        let (inv1, invitation) = (named(&kb, "inv1"), named(&kb, "Invitation"));
        let in_link = kb
            .snapshot()
            .find_link(inv1, kb.instanceof_sym(), invitation)
            .unwrap();
        kb.untell(in_link).unwrap();
        check(&kb, &mut versions);
        kb.tick();
        kb.instantiate(inv1, invitation).unwrap();
        check(&kb, &mut versions);

        let (minutes, paper) = (named(&kb, "Minutes"), named(&kb, "Paper"));
        let isa_link = kb
            .snapshot()
            .find_link(minutes, kb.isa_sym(), paper)
            .unwrap();
        kb.untell(isa_link).unwrap();
        check(&kb, &mut versions);
        kb.tick();
        kb.specialize(minutes, paper).unwrap();
        check(&kb, &mut versions);

        // A link that is an instance: `<inv1 sender maria>` in the
        // attribute class `<Invitation sender Person>`.
        kb.tick();
        let (maria, person) = (named(&kb, "maria"), named(&kb, "Person"));
        let sender = kb
            .snapshot()
            .find_link(inv1, kb.lookup_sym("sender").unwrap(), maria);
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
        assert!(!to_edb_counted(kb.snapshot()).unwrap().1.is_empty());

        kb.untell(classified).unwrap();
        check(&kb, &mut versions);
        kb.tick();
        kb.instantiate(sender.unwrap(), class).unwrap();
        check(&kb, &mut versions);
    }

    #[test]
    fn racing_readers_of_a_fresh_version_build_its_closure_once() {
        let _serial = serial();
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
                        version_closure(&version.clone(), at, &program).unwrap().0
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
        let asked = ask_closure(&version, at).unwrap();
        assert!(!Arc::ptr_eq(&asked, &closures[0]));
        assert_eq!(asked.model().count(preds::ATTR), 0);
        assert!(closures[0].model().count(preds::ATTR) > 0);
        assert_eq!(asked.stats, closures[0].stats, "attr is never joined");
        // Off the capture tick nothing is remembered.
        let earlier = version_closure(&version, at - 1, &program).unwrap().0;
        let earlier_again = version_closure(&version, at - 1, &program).unwrap().0;
        assert!(!Arc::ptr_eq(&earlier, &earlier_again));
    }

    #[test]
    fn racing_readers_of_a_fresh_version_build_one_extent() {
        let _serial = serial();
        const READERS: usize = 8;
        let kb = scenario_kb();
        let version = kb.version();
        let at = version.now();
        let paper = intern("Paper");
        let count = |name| obs::registry().counter_value(name).unwrap_or(0);
        let built = || count("objectbase_class_extents_built_total");
        let hits = || count("objectbase_class_extent_hits_total");
        let (built_before, hits_before) = (built(), hits());
        let barrier = std::sync::Barrier::new(READERS);
        // Each reader takes the ASK's own path to the extent.
        let extents: Vec<Extent> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let closure = ask_closure(&version, at).unwrap();
                        closure.extent(&version.snapshot_at(at), paper)
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for e in &extents {
            assert!(Arc::ptr_eq(e, &extents[0]), "two extents for one class");
        }
        // The counters are process-wide, so only lower bounds are exact.
        assert!(built() > built_before);
        assert!(hits() >= hits_before + READERS as u64 - 1);
        let names: Vec<&str> = extents[0].iter().map(|&(name, _)| name).collect();
        assert_eq!(names, ["inv1", "inv2", "min1"]);
        let (asked, _) = ask_with_stats_version(&version, at, "p", "Paper", "true").unwrap();
        assert_eq!(asked, names);
    }

    #[test]
    fn lemmas_are_freed_with_the_last_clone_of_their_version() {
        let _serial = serial();
        let kb = scenario_kb();
        let version = kb.version();
        let clone = version.clone();
        let program = base_program();
        let model = Arc::downgrade(
            &version_closure(&version, version.now(), &program)
                .unwrap()
                .0,
        );
        ask_with_stats_version(&clone, clone.now(), "p", "Paper", "true").unwrap();
        drop(version);
        let held = model.upgrade().expect("a clone keeps the version alive");
        assert!(Arc::ptr_eq(
            &held,
            &version_closure(&clone, clone.now(), &program).unwrap().0
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
        let _serial = serial();
        let kb = scenario_kb();
        let version = kb.version();
        let at = version.now();
        // Unstratifiable: evaluation fails after the export.
        let bad = Program::parse("p(X) :- in_(X, _C), not p(X).").unwrap();
        assert!(version_closure(&version, at, &bad).is_err());
        assert!(version_closure(&version, at, &bad).is_err());
        let lemmas = version.derived::<Lemmas>().unwrap();
        let all = lemmas.views.lock().unwrap();
        let unbuilt = |lemma: &Arc<Lemma>| matches!(*lock(&lemma.0), Cell::Seed(None));
        assert!(all.iter().all(|(.., lemma)| unbuilt(lemma)));
    }

    #[test]
    fn ask_open_queries() {
        let _serial = serial();
        let kb = scenario_kb();
        let with_sender = ask(&kb.snapshot(), "i", "Invitation", "i.sender defined").unwrap();
        assert_eq!(with_sender, vec!["inv1"]);
        let papers = ask(&kb.snapshot(), "p", "Paper", "true").unwrap();
        assert_eq!(papers.len(), 3);
        assert!(ask(&kb.snapshot(), "x", "Ghost", "true").is_err());
    }

    #[test]
    fn ask_against_snapshot_is_pinned() {
        let _serial = serial();
        let mut kb = scenario_kb();
        let t = kb.now();
        // TELL a new invitation after the watermark; the tick is the
        // transaction boundary that moves past the pinned watermark
        // (the server's write path does the same).
        kb.tick();
        let frames = ObjectFrame::parse_all("TELL inv3 in Invitation end").unwrap();
        tell_all(&mut kb, &frames).unwrap();
        let live = ask(&kb.snapshot(), "p", "Paper", "true").unwrap();
        assert_eq!(live.len(), 4);
        let snap = kb.snapshot_at(t);
        let pinned = ask(&snap, "p", "Paper", "true").unwrap();
        assert_eq!(pinned.len(), 3, "snapshot does not see the new TELL");
        assert!(!pinned.contains(&"inv3".into()));
    }

    #[test]
    fn snapshot_edb_is_pinned() {
        let _serial = serial();
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
        let _serial = serial();
        let kb = scenario_kb();
        let version = kb.version();
        let now = version.now();
        let (hits, stats) = ask_with_stats_version(&version, now, "p", "Paper", "true").unwrap();
        assert_eq!(hits, ask(&kb.snapshot(), "p", "Paper", "true").unwrap());
        assert!(stats.index_probes > 0, "join core probed indexes");
        assert!(stats.tuples_scanned > 0);
        let (with_sender, _) =
            ask_with_stats_version(&version, now, "i", "Invitation", "i.sender defined").unwrap();
        assert_eq!(with_sender, vec!["inv1"]);
        assert!(ask_with_stats_version(&version, now, "x", "Ghost", "true").is_err());
    }

    #[test]
    fn ask_with_stats_version_is_pinned() {
        let _serial = serial();
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

    /// A successor that builds its closure drops its seed: carried in
    /// place when nothing else holds the predecessor's closure, copied
    /// when a pinned predecessor does — which then answers as before,
    /// from the closure it built — and freed with the last holder.
    #[test]
    fn a_built_successor_frees_its_predecessors_closure() {
        let _serial = serial();
        let mut kb = scenario_kb();
        let v0 = kb.version();
        let before = asked(&v0, "Paper");
        let c0 = Arc::downgrade(&ask_closure(&v0, v0.now()).unwrap());

        kb.tick();
        tell_src(&mut kb, "TELL inv3 in Invitation end");
        let v1 = kb.version();
        inherit(&v1, &v0);
        let (builds, carried) = (
            count("objectbase_closure_builds_total"),
            count("objectbase_closures_carried_total"),
        );
        // The predecessor is still pinned: the successor copies.
        let (names, stats) = asked(&v1, "Paper");
        assert_eq!(names, oracle(&kb, "Paper"));
        assert!(names.contains(&"inv3".to_string()));
        assert_eq!(stats.rounds, 0, "a carried closure ran no fixpoint");
        assert!(stats.derivations > 0, "inv3 is an instance of Paper");
        assert_eq!(count("objectbase_closure_builds_total"), builds);
        assert_eq!(count("objectbase_closures_carried_total"), carried + 1);
        assert_eq!(asked(&v0, "Paper"), before, "the pinned predecessor");
        assert!(Arc::ptr_eq(
            &c0.upgrade().unwrap(),
            &ask_closure(&v0, v0.now()).unwrap()
        ));
        drop(v0);
        assert!(c0.upgrade().is_none(), "nothing holds the old closure");

        // Unpinned: the successor takes the closure over.
        let c1 = Arc::downgrade(&ask_closure(&v1, v1.now()).unwrap());
        kb.tick();
        untell_named(&mut kb, "inv1");
        let v2 = kb.version();
        inherit(&v2, &v1);
        drop(v1);
        assert_eq!(c1.strong_count(), 1, "held by the seed alone");
        assert_eq!(asked(&v2, "Paper").0, oracle(&kb, "Paper"));
        assert!(c1.upgrade().is_none());
    }

    /// A view's program: the base program plus `rules`.
    fn view_program(rules: &str) -> Program {
        let mut program = base_program();
        program.rules.extend(Program::parse(rules).unwrap().rules);
        program
    }

    /// The rows of every predicate `program` derives or reads in
    /// `closure`, against a from-scratch evaluation over `version`.
    fn same_model(closure: &Closure, version: &KbVersion, program: &Program, ctx: &str) {
        let edb = to_edb_at_store(version, version.now()).unwrap();
        let (scratch, _) = datalog::seminaive::evaluate(program, &edb).unwrap();
        let rows = |db: &Database, pred: &str| {
            let mut rows: Vec<Vec<Value>> = db.tuples(pred).collect();
            rows.sort();
            rows
        };
        let mut preds = scratch.preds();
        preds.extend(closure.model().preds());
        for pred in preds {
            assert_eq!(
                rows(closure.model(), pred),
                rows(&scratch, pred),
                "{ctx}: {pred}"
            );
        }
    }

    /// Versions nobody reads pass their views on in O(1): after K views
    /// are read at one version, each of 1 000 captures nobody reads
    /// hands on the one list that version holds, and each closure ever
    /// built — the ASK's and the K views' — is held once, by that list
    /// or the last version's seed. The first read of the last version
    /// carries each over in place, with no export.
    #[test]
    fn captures_nobody_reads_hand_their_views_on_in_one_list() {
        let _serial = serial();
        let mut kb = scenario_kb();
        let mut prev = kb.version();
        let views = [
            view_program("sent(X) :- attr(X, sender, _Y)."),
            view_program("sent(X) :- attr(X, sender, _Y).\nquiet(X) :- in_(X, _C), not sent(X)."),
            view_program("isaOf(X, C) :- in_(X, C).\nisaOf(X, D) :- isaOf(X, C), isa(C, D)."),
        ];
        let asked_closure = ask_closure(&prev, prev.now()).unwrap();
        let view_closures = views
            .iter()
            .map(|program| version_closure(&prev, prev.now(), program).unwrap().0);
        let built: Vec<std::sync::Weak<Closure>> = std::iter::once(asked_closure)
            .chain(view_closures)
            .map(|closure| Arc::downgrade(&closure))
            .collect();
        let handed = |v: &KbVersion| Arc::clone(&lock(&v.derived::<Lemmas>().unwrap().views));
        let list = handed(&prev);
        assert_eq!(list.len(), views.len());
        for i in 0..1_000 {
            kb.tick();
            if i % 3 == 2 {
                untell_named(&mut kb, &format!("p{}", i - 1));
            } else {
                tell_src(&mut kb, &format!("TELL p{i} in Minutes end"));
            }
            let next = kb.version();
            inherit(&next, &prev);
            prev = next;
            assert!(Arc::ptr_eq(&list, &handed(&prev)), "capture {i}");
            for (k, closure) in built.iter().enumerate() {
                assert_eq!(closure.strong_count(), 1, "closure {k} after capture {i}");
            }
        }
        drop(list);
        let counted = || {
            [
                "objectbase_edb_exports_total",
                "objectbase_closure_builds_total",
                "objectbase_closures_carried_total",
            ]
            .map(count)
        };
        let [exports, builds, carried] = counted();
        assert_eq!(asked(&prev, "Paper").0, oracle(&kb, "Paper"));
        let read: Vec<Arc<Closure>> = (views.iter())
            .map(|program| {
                let (closure, scratch) = version_closure(&prev, prev.now(), program).unwrap();
                assert!(!scratch, "carried");
                closure
            })
            .collect();
        assert_eq!(
            counted(),
            [exports, builds, carried + 1 + views.len() as u64]
        );
        assert!(
            built.iter().all(|c| c.upgrade().is_none()),
            "carried in place"
        );
        for (closure, program) in read.iter().zip(&views) {
            same_model(closure, &prev, program, "after 1 000 captures");
        }
        // The next capture hands on a list of the closures read here.
        let next = kb.version();
        inherit(&next, &prev);
        let list = handed(&next);
        assert!(list.iter().zip(&read).all(|((.., lemma), closure)| {
            matches!(&*lock(&lemma.0), Cell::Built(c) if Arc::ptr_eq(c, closure))
        }));
    }

    /// A write that fails and rolls back leaves no delta, so the next
    /// version's delta is what committed.
    #[test]
    fn a_rolled_back_write_leaves_no_delta() {
        let _serial = serial();
        let mut kb = scenario_kb();
        let v0 = kb.version();
        asked(&v0, "Paper");
        let mark = kb.mark();
        kb.begin();
        untell_named(&mut kb, "inv1");
        tell_src(&mut kb, "TELL inv4 in Invitation end");
        assert!(!kb.delta_since(&mark).untold.is_empty());
        kb.rollback();
        assert_eq!(kb.delta_since(&mark), telos::Delta::default());
        assert_eq!(kb.mark(), mark);

        kb.begin();
        untell_named(&mut kb, "min1");
        kb.commit();
        let v1 = kb.version();
        inherit(&v1, &v0);
        let (names, stats) = asked(&v1, "Paper");
        assert_eq!(names, oracle(&kb, "Paper"));
        assert_eq!(names, ["inv1", "inv2"]);
        assert_eq!(stats.rounds, 0, "carried");
    }

    /// A carry takes its seed's extents over. A write that moves none of
    /// a class's `inT` rows leaves its extent the same `Arc` and builds
    /// none; one that moves some patches that extent to what a build
    /// over the carried closure holds — on a copy of the extents while
    /// the pinned predecessor holds them (which keeps its own), in
    /// place once nothing does.
    #[test]
    fn a_carry_patches_the_extents_it_moves_and_shares_the_rest() {
        let _serial = serial();
        let mut kb = scenario_kb();
        let (person, paper) = (intern("Person"), intern("Paper"));
        let v0 = kb.version();
        let c0 = ask_closure(&v0, v0.now()).unwrap();
        let (people, papers) = (
            c0.extent(&v0.snapshot(), person),
            c0.extent(&v0.snapshot(), paper),
        );
        let counted = || {
            [
                "objectbase_class_extents_built_total",
                "objectbase_class_extents_patched_total",
            ]
            .map(count)
        };
        let names = |extent: &Extent| extent.iter().map(|&(n, _)| n).collect::<Vec<_>>();
        // Read while `v0` holds its closure, then after `v1` is gone.
        let wants = [
            ["inv1", "inv2", "inv3", "min1"],
            ["inv2", "inv3", "min1", "min2"],
        ];
        let mut prev = v0.clone();
        for (i, want) in wants.into_iter().enumerate() {
            kb.tick();
            if i == 0 {
                tell_src(&mut kb, "TELL inv3 in Invitation end");
            } else {
                untell_named(&mut kb, "inv1");
                tell_src(&mut kb, "TELL min2 in Minutes end");
            }
            let next = kb.version();
            inherit(&next, &prev);
            prev = next;
            let [built, patched] = counted();
            let closure = ask_closure(&prev, prev.now()).unwrap();
            let snap = prev.snapshot();
            assert!(
                Arc::ptr_eq(&closure.extent(&snap, person), &people),
                "step {i}"
            );
            let moved = closure.extent(&snap, paper);
            assert_eq!(counted(), [built, patched + 1], "step {i}");
            assert_eq!(names(&moved), want, "step {i}");
            let scratch = build_closure(&prev, prev.now(), false, base()).unwrap();
            assert_eq!(
                moved,
                scratch.extent(&snap, paper),
                "step {i}: names and ids"
            );
        }
        // The pinned predecessor kept its own.
        assert!(Arc::ptr_eq(&c0.extent(&v0.snapshot(), paper), &papers));
        assert_eq!(names(&papers), ["inv1", "inv2", "min1"]);
    }

    /// An individual untold at a version nobody reads and told again
    /// under its name at the next nets out in the refresh: no `inT` row
    /// moves, yet the name's id does, and an ASK whose body reads its
    /// variable must evaluate it against the new individual.
    #[test]
    fn a_name_told_again_is_asked_by_its_new_id() {
        let _serial = serial();
        let mut kb = scenario_kb();
        let v0 = kb.version();
        asked(&v0, "Paper");
        let old = kb.lookup("inv2").unwrap();
        kb.tick();
        untell_named(&mut kb, "inv2");
        let v1 = kb.version();
        inherit(&v1, &v0);
        kb.tick();
        tell_src(&mut kb, "TELL inv2 in Invitation end");
        let v2 = kb.version();
        inherit(&v2, &v1);
        let new = kb.lookup("inv2").unwrap();
        assert_ne!(old, new);
        let body = "p in Paper";
        let (names, stats) = ask_with_stats_version(&v2, v2.now(), "p", "Paper", body).unwrap();
        assert_eq!(stats.rounds, 0, "carried");
        assert_eq!(names, oracle_where(&kb, "Paper", body));
        assert_eq!(names, ["inv1", "inv2", "min1"]);
        let closure = ask_closure(&v2, v2.now()).unwrap();
        let extent = closure.extent(&v2.snapshot(), intern("Paper"));
        assert!(extent.contains(&("inv2", new)));
    }

    /// Carrying agrees with a from-scratch build — the ASK's closure and
    /// a view's — through specializations untold and told again and an
    /// `in` link asserted twice, one of which is untold (its
    /// multiplicity keeps the tuple).
    #[test]
    fn a_carried_closure_is_the_scratch_closure() {
        let _serial = serial();
        let mut kb = scenario_kb();
        let (inv2, minutes, paper) = (
            kb.lookup("inv2").unwrap(),
            kb.lookup("Minutes").unwrap(),
            kb.lookup("Paper").unwrap(),
        );
        let isa = kb
            .snapshot()
            .find_link(minutes, kb.isa_sym(), paper)
            .unwrap();
        let twice: Vec<PropId> = (0..2)
            .map(|_| {
                kb.create_raw(inv2, kb.instanceof_sym(), minutes, Interval::always())
                    .unwrap()
            })
            .collect();
        // Built from scratch over both: its export counts the duplicate.
        let mut prev = kb.version();
        asked(&prev, "Paper");
        // A view reading `attr`, recursively and under negation, carried
        // alongside.
        let view = view_program(
            "linked(X, Y) :- attr(X, _L, Y).\n\
             linked(X, Z) :- linked(X, Y), attr(Y, _L, Z).\n\
             linking(X) :- linked(X, _Y).\n\
             lone(X) :- in_(X, _C), not linking(X).",
        );
        version_closure(&prev, prev.now(), &view).unwrap();
        for i in 0..5 {
            kb.tick();
            match i {
                0 => kb.untell(isa).unwrap(),
                // The other `in` link keeps the tuple.
                1 => kb.untell(twice[0]).unwrap(),
                2 => {
                    kb.specialize(minutes, paper).unwrap();
                }
                3 => tell_src(&mut kb, "TELL Memo isA Minutes end\nTELL m1 in Memo end"),
                _ => untell_named(&mut kb, "Minutes"),
            }
            let next = kb.version();
            inherit(&next, &prev);
            prev = next;
            let carried = ask_closure(&prev, prev.now()).unwrap();
            let edb = to_edb_at_store(&prev, prev.now()).unwrap();
            let (scratch, _) = datalog::seminaive::evaluate(base(), &edb).unwrap();
            for pred in ["inT", "isaT", preds::IN, preds::ISA] {
                let rows = |db: &Database| {
                    let mut rows: Vec<Vec<Value>> = db.tuples(pred).collect();
                    rows.sort();
                    rows
                };
                assert_eq!(rows(carried.model()), rows(&scratch), "step {i}: {pred}");
            }
            for class in ["Paper", "Minutes", "Invitation"] {
                if kb.lookup(class).is_some() {
                    assert_eq!(asked(&prev, class).0, oracle(&kb, class), "step {i}");
                }
            }
            let (closure, scratch) = version_closure(&prev, prev.now(), &view).unwrap();
            assert!(!scratch, "step {i}: the view was carried");
            same_model(&closure, &prev, &view, &format!("step {i}"));
        }
    }
}
