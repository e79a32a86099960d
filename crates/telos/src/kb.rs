//! The proposition base and its operations.
//!
//! [`Kb`] writes the [`PropStore`] — every proposition ever told, with
//! four access paths (by id, by source, by label, by destination) — and
//! exposes the two operations of the paper's proposition-processor
//! interface, `create_proposition` and `retrieve_proposition`, in typed
//! form: TELL-style constructors ([`Kb::individual`],
//! [`Kb::instantiate`], [`Kb::specialize`], [`Kb::put_attr`]) and
//! retrieval that respects belief time and the
//! classification/specialization axioms.
//!
//! Retrieval is written once, on [`Snapshot`] — a store read at a
//! belief tick. `Kb`'s own retrieval methods are that read at `now`.
//! Nothing is ever destructively deleted: [`Kb::untell`] closes a
//! proposition's belief interval, so past states remain queryable
//! ([`PropStore::snapshot_at`]) — the basis of temporal navigation
//! (§3.3.1).
//!
//! # Write transactions
//!
//! [`Kb::begin`] opens a write transaction with one tick and marks the
//! store: its length, its clock and its symbol count. While it is open
//! the KB logs the intervals it closes on propositions older than the
//! mark — nothing else, so opening and committing cost O(1) plus one
//! entry per closed interval. [`Kb::commit`] hands the log back as a
//! [`Committed`] delta; [`Kb::rollback`] undoes everything since the
//! mark: the appended propositions with their postings and names, the
//! names interned, the closed intervals and the clock. A failed write
//! thus leaves the store exactly as it found it.

use crate::error::{TelosError, TelosResult};
use crate::omega::{self, Builtins};
use crate::prop::{PropId, Proposition};
use crate::symbols::Symbol;
use crate::time::interval::Interval;
use crate::version::{KbVersion, PropStore};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::{Deref, Range};

/// Reserved label of classification links.
pub const L_INSTANCEOF: &str = "instanceof";
/// Reserved label of specialization links.
pub const L_ISA: &str = "isa";

/// The knowledge base: the writer of a [`PropStore`], to which it
/// derefs for every raw read, `now()`, `len()`, `display()` and
/// `snapshot_at()`.
///
/// The store is persistent (chunked `Arc` spines — see [`crate::pvec`]),
/// so [`Kb::version`] freezes an immutable [`KbVersion`] by structural
/// sharing and later writes copy only the chunks they touch.
///
/// Current-belief retrieval (`classes_of`, `attr_values`, …) is the
/// same-named [`Snapshot`] read at `now`. That is sound because UNTELL
/// ticks *before* it closes an interval, so for every proposition at
/// every moment `is_believed() ≡ believed_at(now)`.
pub struct Kb {
    store: PropStore,
    /// Believed individuals by name: the O(1) path of [`Kb::lookup`].
    by_name: HashMap<Symbol, PropId>,
    builtins: Builtins,
    /// The open write transaction's log, if any (see the module doc).
    txn: Option<Txn>,
}

/// The log of an open write transaction: the mark [`Kb::begin`] took
/// and the intervals closed since on propositions below it.
#[derive(Debug)]
struct Txn {
    len: usize,
    clock: i64,
    symbols: usize,
    /// Each closed proposition with the belief it had and whether it
    /// was the believed individual of its name.
    closed: Vec<(PropId, Interval, bool)>,
}

/// What a committed write transaction changed.
#[derive(Debug, Default)]
pub struct Committed {
    /// The ids of the propositions it appended, believed or not by now.
    pub appended: Range<u32>,
    /// The propositions older than the transaction whose belief it
    /// closed, in the order closed.
    pub closed: Vec<PropId>,
}

impl Deref for Kb {
    type Target = PropStore;

    fn deref(&self) -> &PropStore {
        &self.store
    }
}

impl Kb {
    /// A fresh KB with the ω-level bootstrapped.
    pub fn new() -> Self {
        let mut kb = Kb {
            store: PropStore::new(),
            by_name: HashMap::new(),
            builtins: Builtins::placeholder(),
            txn: None,
        };
        kb.builtins = omega::bootstrap(&mut kb);
        kb
    }

    /// The id the next created proposition will get.
    pub(crate) fn next_id(&self) -> PropId {
        PropId(self.len() as u32)
    }

    /// Appends `<source, label, dest, history>`, believed from now on.
    /// Cannot fail: callers vouch that each endpoint exists or is
    /// [`Kb::next_id`] (the self-reference of an individual).
    pub(crate) fn append(
        &mut self,
        source: PropId,
        label: Symbol,
        dest: PropId,
        history: Interval,
    ) -> PropId {
        let id = self.next_id();
        let prop = Proposition {
            id,
            source,
            label,
            dest,
            history,
            belief: Interval::from_tick(self.store.clock),
        };
        self.store.by_source.insert(source, id);
        self.store.by_label.insert(label, id);
        self.store.by_dest.insert(dest, id);
        if prop.is_individual() {
            self.by_name.insert(label, id);
        }
        self.store.props.push(prop);
        id
    }

    fn apply_close(&mut self, id: PropId, at: i64) -> TelosResult<()> {
        let p = self
            .store
            .props
            .get_mut(id.idx())
            .ok_or(TelosError::UnknownProposition(id))?;
        let belief = p.belief;
        p.belief = belief.closed_at(at)?;
        let named = p.is_individual() && self.by_name.get(&p.label) == Some(&id);
        if named {
            self.by_name.remove(&p.label);
        }
        if let Some(txn) = self.txn.as_mut().filter(|t| id.idx() < t.len) {
            txn.closed.push((id, belief, named));
        }
        Ok(())
    }

    /// Advances the belief clock (one "transaction boundary") and
    /// returns the new tick.
    pub fn tick(&mut self) -> i64 {
        self.store.clock += 1;
        self.store.clock
    }

    // ----- write transactions ----------------------------------------------

    /// Opens a write transaction, marking the store and ticking once,
    /// unless one is open already: then the caller joins it and the
    /// clock stays. Returns the tick.
    pub fn begin(&mut self) -> i64 {
        if self.txn.is_none() {
            self.txn = Some(Txn {
                len: self.len(),
                clock: self.store.clock,
                symbols: self.store.symbols.len(),
                closed: Vec::new(),
            });
            self.tick();
        }
        self.store.clock
    }

    /// Closes the open transaction, keeping its changes, and returns
    /// them (an empty delta if none is open).
    pub fn commit(&mut self) -> Committed {
        let Some(txn) = self.txn.take() else {
            return Committed::default();
        };
        Committed {
            appended: txn.len as u32..self.len() as u32,
            closed: txn.closed.into_iter().map(|(id, ..)| id).collect(),
        }
    }

    /// Closes the open transaction, undoing every change since
    /// [`Kb::begin`] (a no-op if none is open).
    pub fn rollback(&mut self) {
        let Some(txn) = self.txn.take() else {
            return;
        };
        for i in (txn.len..self.len()).rev() {
            let p = self.store.props[i].clone();
            self.store.by_source.unfile(p.source, p.id);
            self.store.by_label.unfile(p.label, p.id);
            self.store.by_dest.unfile(p.dest, p.id);
            if self.by_name.get(&p.label) == Some(&p.id) {
                self.by_name.remove(&p.label);
            }
        }
        self.store.props.truncate(txn.len);
        for (id, belief, named) in txn.closed.into_iter().rev() {
            if let Some(p) = self.store.props.get_mut(id.idx()) {
                p.belief = belief;
                if named {
                    self.by_name.insert(p.label, id);
                }
            }
        }
        self.store.symbols.truncate(txn.symbols);
        self.store.clock = txn.clock;
    }

    // ----- symbols -------------------------------------------------------

    /// Interns a string as a symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.store.symbols.intern(s)
    }

    /// Resolves a symbol to its string.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.resolve_sym(sym)
    }

    /// The ω-level built-in objects.
    pub fn builtins(&self) -> &Builtins {
        &self.builtins
    }

    // ----- creation ------------------------------------------------------

    /// Low-level `create_proposition`: records `<id, source, label,
    /// dest, history>` believed from now on. Prefer the typed
    /// constructors below.
    pub fn create_raw(
        &mut self,
        source: PropId,
        label: Symbol,
        dest: PropId,
        history: Interval,
    ) -> TelosResult<PropId> {
        // Both endpoints must denote existing propositions; the
        // self-referential case of individual creation goes through
        // [`Kb::individual`], which does not call this path.
        if source.idx() >= self.len() {
            return Err(TelosError::UnknownProposition(source));
        }
        if dest.idx() >= self.len() {
            return Err(TelosError::UnknownProposition(dest));
        }
        Ok(self.append(source, label, dest, history))
    }

    /// Finds the believed individual named `name`, or creates a
    /// self-referential proposition for it (history `Always`).
    pub fn individual(&mut self, name: &str) -> TelosResult<PropId> {
        self.individual_during(name, Interval::always())
    }

    /// Like [`Kb::individual`], with an explicit history time.
    pub fn individual_during(&mut self, name: &str, history: Interval) -> TelosResult<PropId> {
        let sym = self.intern(name);
        if let Some(&id) = self.by_name.get(&sym) {
            return Ok(id);
        }
        let id = self.next_id();
        Ok(self.append(id, sym, id, history))
    }

    /// The believed individual named `name`, if any — what
    /// `self.snapshot().lookup(name)` answers, through the name index
    /// (this is on the TELL hot path).
    pub fn lookup(&self, name: &str) -> Option<PropId> {
        let sym = self.lookup_sym(name)?;
        self.by_name.get(&sym).copied()
    }

    /// Like [`Kb::lookup`] but an error if absent.
    pub fn expect(&self, name: &str) -> TelosResult<PropId> {
        self.lookup(name)
            .ok_or_else(|| TelosError::UnknownName(name.to_string()))
    }

    /// Creates (or finds) the believed classification link `x instanceof c`.
    pub fn instantiate(&mut self, x: PropId, c: PropId) -> TelosResult<PropId> {
        let label = self.instanceof_sym();
        if let Some(existing) = self.find_link(x, label, c) {
            return Ok(existing);
        }
        self.create_raw(x, label, c, Interval::always())
    }

    /// Creates (or finds) the believed specialization link `c isa d`.
    /// Rejects cycles (the specialization axiom requires a partial
    /// order).
    pub fn specialize(&mut self, c: PropId, d: PropId) -> TelosResult<PropId> {
        if c == d || self.isa_ancestors(d).contains(&c) {
            return Err(TelosError::AxiomViolation(format!(
                "isa cycle: `{}` isa `{}`",
                self.display(c),
                self.display(d)
            )));
        }
        let label = self.isa_sym();
        if let Some(existing) = self.find_link(c, label, d) {
            return Ok(existing);
        }
        self.create_raw(c, label, d, Interval::always())
    }

    /// Creates the attribute proposition `<x, label, y>` (history
    /// `Always`). `label` must not be one of the reserved link labels.
    pub fn put_attr(&mut self, x: PropId, label: &str, y: PropId) -> TelosResult<PropId> {
        self.put_attr_during(x, label, y, Interval::always())
    }

    /// Like [`Kb::put_attr`] with explicit history time.
    pub fn put_attr_during(
        &mut self,
        x: PropId,
        label: &str,
        y: PropId,
        history: Interval,
    ) -> TelosResult<PropId> {
        if label == L_INSTANCEOF || label == L_ISA {
            return Err(TelosError::AxiomViolation(format!(
                "`{label}` is a reserved link label"
            )));
        }
        let sym = self.intern(label);
        self.create_raw(x, sym, y, history)
    }

    /// Creates an attribute and classifies it under the attribute class
    /// `attr_class` (an attribute proposition on some class of `x`),
    /// materializing `<attr, instanceof, attr_class>` as fig 3-2 shows.
    pub fn put_attr_typed(
        &mut self,
        x: PropId,
        label: &str,
        y: PropId,
        attr_class: PropId,
    ) -> TelosResult<PropId> {
        let attr = self.put_attr(x, label, y)?;
        self.instantiate(attr, attr_class)?;
        Ok(attr)
    }

    // ----- untell --------------------------------------------------------

    /// Stops believing proposition `id` (closes its belief interval at
    /// the next tick). Links *about* `id` are untouched; see
    /// [`Kb::untell_cascade`].
    pub fn untell(&mut self, id: PropId) -> TelosResult<()> {
        let at = self.tick();
        if !self.get(id)?.is_believed() {
            return Err(TelosError::NotBelieved(id));
        }
        self.apply_close(id, at)
    }

    /// Stops believing `id` and, transitively, every believed link that
    /// has an untold proposition as source or destination. Returns the
    /// ids untold, in order.
    pub fn untell_cascade(&mut self, id: PropId) -> TelosResult<Vec<PropId>> {
        let at = self.tick();
        if !self.get(id)?.is_believed() {
            return Err(TelosError::NotBelieved(id));
        }
        let mut untold = Vec::new();
        let mut queue = VecDeque::from([id]);
        let mut seen = HashSet::from([id]);
        while let Some(cur) = queue.pop_front() {
            self.apply_close(cur, at)?;
            untold.push(cur);
            let dependents: Vec<PropId> = self
                .postings_from(cur)
                .iter()
                .chain(self.postings_to(cur))
                .copied()
                .filter(|&p| p != cur && self.prop(p).is_some_and(|p| p.is_believed()))
                .collect();
            for d in dependents {
                if seen.insert(d) {
                    queue.push_back(d);
                }
            }
        }
        Ok(untold)
    }

    // ----- retrieval: each a `Snapshot` read at `now` ---------------------

    /// The proposition with the given id.
    pub fn get(&self, id: PropId) -> TelosResult<&Proposition> {
        self.prop(id).ok_or(TelosError::UnknownProposition(id))
    }

    /// Number of currently believed propositions.
    pub fn believed_count(&self) -> usize {
        self.snapshot().believed_count()
    }

    /// Finds a believed link `<x, label, y>`.
    pub fn find_link(&self, x: PropId, label: Symbol, y: PropId) -> Option<PropId> {
        self.snapshot().find_link(x, label, y)
    }

    /// All believed propositions with source `x`.
    pub fn links_from(&self, x: PropId) -> Vec<PropId> {
        self.snapshot().links_from(x)
    }

    /// All believed propositions with destination `y`.
    pub fn links_to(&self, y: PropId) -> Vec<PropId> {
        self.snapshot().links_to(y)
    }

    /// All believed propositions carrying `label`.
    pub fn props_with_label(&self, label: &str) -> Vec<PropId> {
        self.snapshot().props_with_label(label)
    }

    /// Direct classes of `x` (believed `instanceof` links).
    pub fn classes_of(&self, x: PropId) -> Vec<PropId> {
        self.snapshot().classes_of(x)
    }

    /// Direct believed instances of class `c`.
    pub fn instances_of(&self, c: PropId) -> Vec<PropId> {
        self.snapshot().instances_of(c)
    }

    /// Direct isa parents of `c`.
    pub fn isa_parents(&self, c: PropId) -> Vec<PropId> {
        self.snapshot().isa_parents(c)
    }

    /// Direct isa children of `c`.
    pub fn isa_children(&self, c: PropId) -> Vec<PropId> {
        self.snapshot().isa_children(c)
    }

    /// Transitive isa ancestors of `c` (excluding `c`), breadth-first,
    /// deduplicated.
    pub fn isa_ancestors(&self, c: PropId) -> Vec<PropId> {
        self.snapshot().isa_ancestors(c)
    }

    /// Transitive isa descendants of `c` (excluding `c`).
    pub fn isa_descendants(&self, c: PropId) -> Vec<PropId> {
        self.snapshot().isa_descendants(c)
    }

    /// Classes of `x` closed under specialization: if `x in c` and
    /// `c isa d` then `x` is also an instance of `d` (the instance-
    /// inheritance axiom).
    pub fn all_classes_of(&self, x: PropId) -> Vec<PropId> {
        self.snapshot().all_classes_of(x)
    }

    /// Instances of `c` including those of all isa descendants.
    pub fn all_instances_of(&self, c: PropId) -> Vec<PropId> {
        self.snapshot().all_instances_of(c)
    }

    /// True if `x` is an instance of `c`, directly or through
    /// specialization.
    pub fn is_instance_of(&self, x: PropId, c: PropId) -> bool {
        self.snapshot().is_instance_of(x, c)
    }

    /// Believed attribute propositions of `x` (links from `x` that are
    /// neither instanceof nor isa).
    pub fn attrs_of(&self, x: PropId) -> Vec<PropId> {
        self.snapshot().attrs_of(x)
    }

    /// Values of the believed attribute `label` on `x`.
    pub fn attr_values(&self, x: PropId, label: &str) -> Vec<PropId> {
        self.snapshot().attr_values(x, label)
    }

    /// The attribute class an attribute proposition was classified
    /// under, if materialized.
    pub fn attr_class_of(&self, attr: PropId) -> Option<PropId> {
        self.classes_of(attr).into_iter().next()
    }

    /// Searches the classes of `x` (transitively, through isa) for an
    /// attribute class whose label is `label`.
    pub fn find_attr_class(&self, x: PropId, label: &str) -> Option<PropId> {
        self.snapshot().find_attr_class(x, label)
    }

    // ----- temporal retrieval ---------------------------------------------

    /// Direct classes of `x` as believed at tick `t`.
    pub fn classes_of_at(&self, x: PropId, t: i64) -> Vec<PropId> {
        self.snapshot_at(t).classes_of(x)
    }

    /// Values of attribute `label` on `x` as believed at tick `t`.
    pub fn attr_values_at(&self, x: PropId, label: &str, t: i64) -> Vec<PropId> {
        self.snapshot_at(t).attr_values(x, label)
    }

    /// All propositions believed at tick `t`.
    pub fn believed_at(&self, t: i64) -> Vec<PropId> {
        self.snapshot_at(t).believed().collect()
    }

    // ----- versions -------------------------------------------------------

    /// Freezes an immutable [`KbVersion`] of the current state by
    /// structural sharing: every field of the store is persistent, so
    /// the capture bumps one `Arc` per 512-element chunk (propositions,
    /// strings, index slots) and per symbol-map shard, O(len / 512)
    /// with no per-key work. The next write copies what it touches: the
    /// tail chunks, one slot chunk and posting list per index key, and
    /// for a new name one shard. The version is `Send + Sync`, never
    /// changes, and answers `snapshot_at(w)` byte-identically to this
    /// KB for every `w ≤ self.now()` — the server's MVCC read path
    /// hands one to each session so reads never take the writer lock.
    pub fn version(&self) -> KbVersion {
        KbVersion::freeze(self.store.clone())
    }
}

/// The uniform read-only query surface the assertion evaluator and ASK
/// are generic over. There is one implementation — the provided
/// methods below, each the same-named [`Snapshot`] read of
/// [`KbRead::view`]; an implementor only says which view it is: a
/// [`Snapshot`] is itself, a [`Kb`] or [`KbVersion`] its `snapshot()`.
pub trait KbRead {
    /// The belief-time view every other method answers from.
    fn view(&self) -> Snapshot<'_>;

    /// The individual named `name` believed in this view, if any.
    fn lookup(&self, name: &str) -> Option<PropId> {
        self.view().lookup(name)
    }
    /// Human-readable name of a proposition.
    fn display(&self, id: PropId) -> String {
        self.view().store().display(id)
    }
    /// True if `x` is an instance of `c` in this view, directly or
    /// through specialization.
    fn is_instance_of(&self, x: PropId, c: PropId) -> bool {
        self.view().is_instance_of(x, c)
    }
    /// Transitive isa ancestors of `c` (excluding `c`) in this view.
    fn isa_ancestors(&self, c: PropId) -> Vec<PropId> {
        self.view().isa_ancestors(c)
    }
    /// Instances of `c` in this view, including those of all isa
    /// descendants.
    fn all_instances_of(&self, c: PropId) -> Vec<PropId> {
        self.view().all_instances_of(c)
    }
    /// Values of the attribute `label` on `x` in this view.
    fn attr_values(&self, x: PropId, label: &str) -> Vec<PropId> {
        self.view().attr_values(x, label)
    }
}

impl KbRead for Kb {
    fn view(&self) -> Snapshot<'_> {
        self.snapshot()
    }
    fn lookup(&self, name: &str) -> Option<PropId> {
        Kb::lookup(self, name)
    }
}

impl KbRead for Snapshot<'_> {
    fn view(&self) -> Snapshot<'_> {
        *self
    }
}

/// A [`PropStore`] read at a belief tick (see
/// [`PropStore::snapshot_at`]): every retrieval method answers as of
/// the pinned tick, so a proposition told or untold after it is
/// invisible. This is the one place belief-time retrieval is written;
/// it runs alike over the live [`Kb`]'s store (under whatever lock
/// guards the `Kb`) and over an immutable [`KbVersion`] (no lock).
#[derive(Clone, Copy)]
pub struct Snapshot<'a> {
    store: &'a PropStore,
    at: i64,
}

impl<'a> Snapshot<'a> {
    /// Pins a view of `store` at belief tick `at`.
    pub(crate) fn over(store: &'a PropStore, at: i64) -> Self {
        Snapshot { store, at }
    }

    /// The store this snapshot reads (its raw, belief-blind surface).
    pub fn store(&self) -> &'a PropStore {
        self.store
    }

    /// The pinned belief tick (the snapshot's watermark).
    pub fn at(&self) -> i64 {
        self.at
    }

    /// True if proposition `id` is believed in this snapshot.
    pub fn sees(&self, id: PropId) -> bool {
        self.store.prop(id).is_some_and(|p| p.believed_at(self.at))
    }

    /// Those of `ids` this snapshot sees.
    fn seen(&self, ids: &'a [PropId]) -> impl DoubleEndedIterator<Item = &'a Proposition> + 'a {
        let (store, at) = (self.store, self.at);
        let prop = move |&id: &PropId| store.prop(id);
        ids.iter()
            .filter_map(prop)
            .filter(move |p| p.believed_at(at))
    }

    /// Ids of all propositions believed at the pinned tick.
    pub fn believed(&self) -> impl Iterator<Item = PropId> + 'a {
        let at = self.at;
        let believed = move |p: &&Proposition| p.believed_at(at);
        self.store.props.iter().filter(believed).map(|p| p.id)
    }

    /// Number of propositions believed at the pinned tick.
    pub fn believed_count(&self) -> usize {
        self.believed().count()
    }

    /// The individual named `name` believed at the pinned tick, found
    /// through the label's postings; the latest generation believed at
    /// the tick wins.
    pub fn lookup(&self, name: &str) -> Option<PropId> {
        let sym = self.store.lookup_sym(name)?;
        let mut named = self.seen(self.store.postings_label(sym));
        named.rfind(|p| p.is_individual()).map(|p| p.id)
    }

    /// Finds a link `<x, label, y>` believed at the pinned tick.
    pub fn find_link(&self, x: PropId, label: Symbol, y: PropId) -> Option<PropId> {
        self.seen(self.store.postings_from(x))
            .find(|p| p.label == label && p.dest == y && p.id != x)
            .map(|p| p.id)
    }

    /// All propositions with source `x` believed at the pinned tick.
    pub fn links_from(&self, x: PropId) -> Vec<PropId> {
        let from = self.seen(self.store.postings_from(x));
        from.map(|p| p.id).filter(|&id| id != x).collect()
    }

    /// All propositions with destination `y` believed at the pinned tick.
    pub fn links_to(&self, y: PropId) -> Vec<PropId> {
        let to = self.seen(self.store.postings_to(y));
        to.map(|p| p.id).filter(|&id| id != y).collect()
    }

    /// All propositions carrying `label` believed at the pinned tick.
    pub fn props_with_label(&self, label: &str) -> Vec<PropId> {
        let Some(sym) = self.store.lookup_sym(label) else {
            return Vec::new();
        };
        let with = self.seen(self.store.postings_label(sym));
        with.map(|p| p.id).collect()
    }

    /// Destinations of the links `<x, label, _>` believed at the tick.
    fn dests(&self, x: PropId, label: Symbol) -> Vec<PropId> {
        self.seen(self.store.postings_from(x))
            .filter(|p| p.label == label && p.id != x)
            .map(|p| p.dest)
            .collect()
    }

    /// Sources of the links `<_, label, y>` believed at the tick.
    fn sources(&self, y: PropId, label: Symbol) -> Vec<PropId> {
        self.seen(self.store.postings_to(y))
            .filter(|p| p.label == label && p.id != y)
            .map(|p| p.source)
            .collect()
    }

    /// Direct classes of `x` at the pinned tick.
    pub fn classes_of(&self, x: PropId) -> Vec<PropId> {
        self.dests(x, self.store.instanceof_sym())
    }

    /// Direct instances of class `c` at the pinned tick.
    pub fn instances_of(&self, c: PropId) -> Vec<PropId> {
        self.sources(c, self.store.instanceof_sym())
    }

    /// Direct isa parents of `c` at the pinned tick.
    pub fn isa_parents(&self, c: PropId) -> Vec<PropId> {
        self.dests(c, self.store.isa_sym())
    }

    /// Direct isa children of `c` at the pinned tick.
    pub fn isa_children(&self, c: PropId) -> Vec<PropId> {
        self.sources(c, self.store.isa_sym())
    }

    /// Everything reachable from `start` by `step` (excluding `start`),
    /// breadth-first, deduplicated.
    fn closure(&self, start: PropId, step: impl Fn(&Self, PropId) -> Vec<PropId>) -> Vec<PropId> {
        let mut out = Vec::new();
        let mut seen = HashSet::from([start]);
        let mut queue = VecDeque::from([start]);
        while let Some(cur) = queue.pop_front() {
            for next in step(self, cur) {
                if seen.insert(next) {
                    out.push(next);
                    queue.push_back(next);
                }
            }
        }
        out
    }

    /// Transitive isa ancestors of `c` at the pinned tick.
    pub fn isa_ancestors(&self, c: PropId) -> Vec<PropId> {
        self.closure(c, |s, x| s.isa_parents(x))
    }

    /// Transitive isa descendants of `c` at the pinned tick.
    pub fn isa_descendants(&self, c: PropId) -> Vec<PropId> {
        self.closure(c, |s, x| s.isa_children(x))
    }

    /// Classes of `x` closed under specialization, at the pinned tick.
    pub fn all_classes_of(&self, x: PropId) -> Vec<PropId> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for c in self.classes_of(x) {
            if seen.insert(c) {
                out.push(c);
            }
            for a in self.isa_ancestors(c) {
                if seen.insert(a) {
                    out.push(a);
                }
            }
        }
        out
    }

    /// Instances of `c` including those of all isa descendants, at the
    /// pinned tick.
    pub fn all_instances_of(&self, c: PropId) -> Vec<PropId> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for class in std::iter::once(c).chain(self.isa_descendants(c)) {
            for i in self.instances_of(class) {
                if seen.insert(i) {
                    out.push(i);
                }
            }
        }
        out
    }

    /// True if `x` is an instance of `c` at the pinned tick.
    pub fn is_instance_of(&self, x: PropId, c: PropId) -> bool {
        self.classes_of(x)
            .into_iter()
            .any(|d| d == c || self.isa_ancestors(d).contains(&c))
    }

    /// Values of attribute `label` on `x` at the pinned tick.
    pub fn attr_values(&self, x: PropId, label: &str) -> Vec<PropId> {
        match self.store.lookup_sym(label) {
            Some(sym) if !self.store.is_link_sym(sym) => self.dests(x, sym),
            _ => Vec::new(),
        }
    }

    /// Attribute propositions of `x` believed at the pinned tick.
    pub fn attrs_of(&self, x: PropId) -> Vec<PropId> {
        self.seen(self.store.postings_from(x))
            .filter(|p| p.id != x && !self.store.is_link_sym(p.label))
            .map(|p| p.id)
            .collect()
    }

    /// Searches the classes of `x` (transitively, through isa) for an
    /// attribute class whose label is `label`.
    pub fn find_attr_class(&self, x: PropId, label: &str) -> Option<PropId> {
        let sym = self.store.lookup_sym(label)?;
        if self.store.is_link_sym(sym) {
            return None;
        }
        self.all_classes_of(x).into_iter().find_map(|class| {
            let mut attrs = self.seen(self.store.postings_from(class));
            attrs.find(|p| p.label == sym).map(|p| p.id)
        })
    }
}

impl Default for Kb {
    fn default() -> Self {
        Kb::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> Kb {
        Kb::new()
    }

    #[test]
    fn bootstrap_creates_omega_level() {
        let kb = kb();
        assert!(kb.lookup("Proposition").is_some());
        assert!(kb.lookup("Class").is_some());
        assert!(!kb.is_empty());
    }

    #[test]
    fn individual_is_idempotent() {
        let mut kb = kb();
        let a = kb.individual("Paper").unwrap();
        let b = kb.individual("Paper").unwrap();
        assert_eq!(a, b);
        assert!(kb.get(a).unwrap().is_individual());
        assert_eq!(kb.display(a), "Paper");
    }

    #[test]
    fn instantiate_and_query() {
        let mut kb = kb();
        let paper = kb.individual("Paper").unwrap();
        let class = kb.builtins().simple_class;
        kb.instantiate(paper, class).unwrap();
        assert!(kb.classes_of(paper).contains(&class));
        assert!(kb.instances_of(class).contains(&paper));
        // Dedup: instantiating twice creates no new link.
        let n = kb.len();
        kb.instantiate(paper, class).unwrap();
        assert_eq!(kb.len(), n);
    }

    #[test]
    fn specialization_closes_instances() {
        let mut kb = kb();
        let paper = kb.individual("Paper").unwrap();
        let invitation = kb.individual("Invitation").unwrap();
        let inv42 = kb.individual("inv42").unwrap();
        kb.specialize(invitation, paper).unwrap();
        kb.instantiate(inv42, invitation).unwrap();
        assert!(kb.is_instance_of(inv42, invitation));
        assert!(kb.is_instance_of(inv42, paper), "instance inheritance");
        assert!(kb.all_instances_of(paper).contains(&inv42));
        assert!(kb.all_classes_of(inv42).contains(&paper));
        assert!(!kb.is_instance_of(paper, invitation));
    }

    #[test]
    fn isa_cycles_rejected() {
        let mut kb = kb();
        let a = kb.individual("A").unwrap();
        let b = kb.individual("B").unwrap();
        let c = kb.individual("C").unwrap();
        kb.specialize(a, b).unwrap();
        kb.specialize(b, c).unwrap();
        assert!(matches!(
            kb.specialize(c, a),
            Err(TelosError::AxiomViolation(_))
        ));
        assert!(matches!(
            kb.specialize(a, a),
            Err(TelosError::AxiomViolation(_))
        ));
    }

    #[test]
    fn deep_isa_closure() {
        let mut kb = kb();
        let mut prev = kb.individual("C0").unwrap();
        let bottom = prev;
        for i in 1..50 {
            let c = kb.individual(&format!("C{i}")).unwrap();
            kb.specialize(prev, c).unwrap();
            prev = c;
        }
        assert_eq!(kb.isa_ancestors(bottom).len(), 49);
        assert_eq!(kb.isa_descendants(prev).len(), 49);
    }

    #[test]
    fn attributes_and_attribute_classes() {
        let mut kb = kb();
        let invitation = kb.individual("Invitation").unwrap();
        let person = kb.individual("Person").unwrap();
        let inv42 = kb.individual("inv42").unwrap();
        let maria = kb.individual("maria").unwrap();
        kb.instantiate(inv42, invitation).unwrap();
        // attribute class on the class …
        let sender_class = kb.put_attr(invitation, "sender", person).unwrap();
        // … found through classification:
        assert_eq!(kb.find_attr_class(inv42, "sender"), Some(sender_class));
        // typed token-level attribute:
        let attr = kb
            .put_attr_typed(inv42, "sender", maria, sender_class)
            .unwrap();
        assert_eq!(kb.attr_values(inv42, "sender"), vec![maria]);
        assert_eq!(kb.attr_class_of(attr), Some(sender_class));
        assert_eq!(kb.attrs_of(inv42), vec![attr]);
        assert_eq!(kb.display(attr), "<inv42 sender maria>");
    }

    #[test]
    fn attr_class_found_through_isa() {
        let mut kb = kb();
        let paper = kb.individual("Paper").unwrap();
        let invitation = kb.individual("Invitation").unwrap();
        let person = kb.individual("Person").unwrap();
        let inv42 = kb.individual("inv42").unwrap();
        kb.specialize(invitation, paper).unwrap();
        kb.instantiate(inv42, invitation).unwrap();
        let author_class = kb.put_attr(paper, "author", person).unwrap();
        assert_eq!(kb.find_attr_class(inv42, "author"), Some(author_class));
    }

    #[test]
    fn reserved_labels_rejected_as_attributes() {
        let mut kb = kb();
        let a = kb.individual("A").unwrap();
        let b = kb.individual("B").unwrap();
        assert!(kb.put_attr(a, "instanceof", b).is_err());
        assert!(kb.put_attr(a, "isa", b).is_err());
    }

    #[test]
    fn untell_closes_belief_and_history_remains() {
        let mut kb = kb();
        let a = kb.individual("A").unwrap();
        let b = kb.individual("B").unwrap();
        let attr = kb.put_attr(a, "rel", b).unwrap();
        let before = kb.now();
        kb.untell(attr).unwrap();
        assert!(!kb.get(attr).unwrap().is_believed());
        assert!(kb.attr_values(a, "rel").is_empty());
        // Temporal query still sees it.
        assert_eq!(kb.attr_values_at(a, "rel", before), vec![b]);
        // Double-untell is an error.
        assert!(matches!(kb.untell(attr), Err(TelosError::NotBelieved(_))));
    }

    #[test]
    fn untell_individual_frees_name() {
        let mut kb = kb();
        let a = kb.individual("Ghost").unwrap();
        kb.untell(a).unwrap();
        assert_eq!(kb.lookup("Ghost"), None);
        let a2 = kb.individual("Ghost").unwrap();
        assert_ne!(a, a2, "a fresh proposition is created");
    }

    #[test]
    fn untell_cascade_takes_dependents() {
        let mut kb = kb();
        let a = kb.individual("A").unwrap();
        let b = kb.individual("B").unwrap();
        let c = kb.individual("C").unwrap();
        let ab = kb.put_attr(a, "x", b).unwrap();
        // a link about the link:
        let meta = kb.put_attr(ab, "why", c).unwrap();
        let bc = kb.put_attr(b, "y", c).unwrap();
        let untold = kb.untell_cascade(ab).unwrap();
        assert!(untold.contains(&ab));
        assert!(untold.contains(&meta), "dependent link cascades");
        assert!(!untold.contains(&bc), "unrelated link survives");
        assert!(kb.get(bc).unwrap().is_believed());
    }

    #[test]
    fn believed_count_tracks_untell() {
        let mut kb = kb();
        let base = kb.believed_count();
        let a = kb.individual("A").unwrap();
        assert_eq!(kb.believed_count(), base + 1);
        kb.untell(a).unwrap();
        assert_eq!(kb.believed_count(), base);
        assert_eq!(kb.len(), base + 1, "nothing destroyed");
    }

    #[test]
    fn links_from_to_and_labels() {
        let mut kb = kb();
        let a = kb.individual("A").unwrap();
        let b = kb.individual("B").unwrap();
        let l1 = kb.put_attr(a, "uses", b).unwrap();
        let l2 = kb.put_attr(b, "uses", a).unwrap();
        assert_eq!(kb.links_from(a), vec![l1]);
        assert!(kb.links_to(a).contains(&l2));
        let with_label = kb.props_with_label("uses");
        assert_eq!(with_label.len(), 2);
        assert!(kb.props_with_label("nosuch").is_empty());
    }

    #[test]
    fn temporal_class_membership() {
        let mut kb = kb();
        let c = kb.individual("C").unwrap();
        let x = kb.individual("x").unwrap();
        let link = kb.instantiate(x, c).unwrap();
        let t_in = kb.now();
        kb.untell(link).unwrap();
        assert!(kb.classes_of(x).is_empty());
        assert_eq!(kb.classes_of_at(x, t_in), vec![c]);
    }

    #[test]
    fn create_raw_validates_both_endpoints() {
        let mut kb = kb();
        let a = kb.individual("A").unwrap();
        let label = kb.intern("r");
        let bogus = PropId(kb.len() as u32 + 7);
        let at_len = PropId(kb.len() as u32);
        assert!(matches!(
            kb.create_raw(bogus, label, a, crate::Interval::always()),
            Err(TelosError::UnknownProposition(_))
        ));
        assert!(matches!(
            kb.create_raw(at_len, label, a, crate::Interval::always()),
            Err(TelosError::UnknownProposition(_))
        ));
        assert!(matches!(
            kb.create_raw(a, label, bogus, crate::Interval::always()),
            Err(TelosError::UnknownProposition(_))
        ));
    }

    #[test]
    fn expect_reports_unknown_names() {
        let kb = kb();
        assert!(matches!(
            kb.expect("Nonexistent"),
            Err(TelosError::UnknownName(_))
        ));
    }

    #[test]
    fn snapshot_pins_belief_time() {
        let mut kb = kb();
        let c = kb.individual("C").unwrap();
        let x = kb.individual("x").unwrap();
        kb.instantiate(x, c).unwrap();
        kb.tick();
        let snap_tick = kb.now();
        // A later TELL is invisible to a snapshot pinned here …
        kb.tick();
        let y = kb.individual("y").unwrap();
        kb.instantiate(y, c).unwrap();
        let snap = kb.snapshot_at(snap_tick);
        assert_eq!(snap.lookup("y"), None);
        assert_eq!(snap.all_instances_of(c), vec![x]);
        // … while the live view and a fresh snapshot see it.
        assert_eq!(kb.all_instances_of(c).len(), 2);
        assert_eq!(kb.snapshot().all_instances_of(c).len(), 2);
        assert_eq!(kb.snapshot().lookup("y"), Some(y));
    }

    #[test]
    fn snapshot_survives_untell() {
        let mut kb = kb();
        let a = kb.individual("A").unwrap();
        let b = kb.individual("B").unwrap();
        let attr = kb.put_attr(a, "rel", b).unwrap();
        let before = kb.now();
        kb.untell(attr).unwrap();
        let snap = kb.snapshot_at(before);
        assert!(snap.sees(attr));
        assert_eq!(snap.attr_values(a, "rel"), vec![b]);
        assert!(kb.attr_values(a, "rel").is_empty());
        // An untold individual is still resolvable in an old snapshot.
        let ghost = kb.individual("Ghost").unwrap();
        let t = kb.now();
        kb.untell(ghost).unwrap();
        assert_eq!(kb.lookup("Ghost"), None);
        assert_eq!(kb.snapshot_at(t).lookup("Ghost"), Some(ghost));
    }

    #[test]
    fn snapshot_isa_closure_and_classes() {
        let mut kb = kb();
        let paper = kb.individual("Paper").unwrap();
        let inv = kb.individual("Invitation").unwrap();
        let inv1 = kb.individual("inv1").unwrap();
        let link = kb.specialize(inv, paper).unwrap();
        kb.instantiate(inv1, inv).unwrap();
        kb.tick();
        let t = kb.now();
        kb.untell(link).unwrap();
        let snap = kb.snapshot_at(t);
        assert!(snap.is_instance_of(inv1, paper), "isa held at t");
        assert!(snap.all_classes_of(inv1).contains(&paper));
        assert_eq!(snap.isa_ancestors(inv), vec![paper]);
        assert_eq!(snap.isa_descendants(paper), vec![inv]);
        assert!(!kb.is_instance_of(inv1, paper), "isa gone now");
        assert!(snap.believed_count() > kb.snapshot_at(0).believed_count());
    }

    /// Everything a rollback must restore, as the read surface shows it.
    fn observe(kb: &Kb, names: &[&str]) -> impl PartialEq + std::fmt::Debug {
        let props: Vec<Proposition> = (0..kb.len()).map(|i| kb.props[i].clone()).collect();
        let postings = |id: PropId| (kb.postings_from(id).to_vec(), kb.postings_to(id).to_vec());
        let looked: Vec<_> = names
            .iter()
            .map(|n| (kb.lookup(n), kb.lookup_sym(n)))
            .collect();
        let syms = kb.symbol_count() as u32;
        let labels: Vec<Vec<PropId>> = (0..syms)
            .map(|s| kb.postings_label(Symbol(s)).to_vec())
            .collect();
        let ids = (0..kb.len() as u32).map(|i| postings(PropId(i)));
        (kb.now(), props, looked, labels, ids.collect::<Vec<_>>())
    }

    #[test]
    fn rollback_restores_the_mark_and_commit_reports_the_delta() {
        let mut kb = kb();
        let a = kb.individual("A").unwrap();
        let b = kb.individual("B").unwrap();
        let ab = kb.put_attr(a, "rel", b).unwrap();
        let frozen = kb.version();
        let names = ["A", "B", "C", "rel", "fresh"];
        let before = observe(&kb, &names);
        let tick = kb.begin();
        assert_eq!(kb.begin(), tick, "a second begin joins");
        let c = kb.individual("C").unwrap();
        kb.put_attr(c, "fresh", a).unwrap();
        kb.untell(ab).unwrap();
        kb.untell_cascade(a).unwrap();
        let a2 = kb.individual("A").unwrap();
        assert_ne!(a2, a);
        kb.rollback();
        assert_eq!(observe(&kb, &names), before);
        assert_eq!(kb.lookup("A"), Some(a));
        assert_eq!(frozen.len(), kb.len());
        assert!(
            frozen.prop(ab).unwrap().is_believed(),
            "the version is untouched"
        );

        kb.begin();
        let c = kb.individual("C").unwrap();
        kb.untell(ab).unwrap();
        let done = kb.commit();
        assert_eq!(done.appended, c.0..c.0 + 1);
        assert_eq!(done.closed, [ab]);
        assert!(kb.commit().appended.is_empty(), "nothing left open");
    }

    #[test]
    fn display_of_nested_links() {
        let mut kb = kb();
        let a = kb.individual("A").unwrap();
        let b = kb.individual("B").unwrap();
        let ab = kb.put_attr(a, "r", b).unwrap();
        let c = kb.individual("C").unwrap();
        let meta = kb.put_attr(ab, "s", c).unwrap();
        assert_eq!(kb.display(meta), "<<A r B> s C>");
    }
}
