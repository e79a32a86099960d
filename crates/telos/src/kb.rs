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
//! Retrieval is [`Snapshot`] — a store read at a belief tick — and
//! nothing else: the live KB reads through `kb.snapshot()`, a past
//! state through `kb.snapshot_at(t)`, a pinned version through its own
//! `snapshot_at(w)`. `Kb` keeps only what a writer needs: the name
//! index ([`Kb::lookup`], the TELL hot path), [`Kb::get`], creation,
//! the transaction and [`Kb::version`]. Nothing is ever destructively
//! deleted: [`Kb::untell`] closes a proposition's belief interval, so
//! past states remain queryable — the basis of temporal navigation
//! (§3.3.1).
//!
//! # Write transactions
//!
//! [`Kb::begin`] opens a write transaction with one tick, and the
//! transaction is just the [`Mark`] it took, O(1) to open and commit:
//! what the write changed is [`PropStore::delta_since`] the mark.
//! [`Kb::rollback`] undoes it in O(what it touched): the propositions
//! appended since go with their postings and names, the intervals
//! closed since are reopened, and the closed log, the names interned
//! and the clock are cut back. A failed write thus leaves the store
//! exactly as it found it.

use crate::error::{TelosError, TelosResult};
use crate::omega::{self, Builtins};
use crate::prop::{PropId, Proposition};
use crate::store::{Postings, Writer};
use crate::symbols::Symbol;
use crate::time::interval::Interval;
use crate::version::{KbVersion, Mark, PropStore};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Deref;

/// Reserved label of classification links.
pub const L_INSTANCEOF: &str = "instanceof";
/// Reserved label of specialization links.
pub const L_ISA: &str = "isa";

/// The knowledge base: the writer of a [`PropStore`], to which it
/// derefs for every raw read, `now()`, `len()`, `display()`,
/// `snapshot()` and `snapshot_at()`.
///
/// The store is append-only (see [`crate::store`]), so [`Kb::version`]
/// captures an immutable [`KbVersion`] in O(1) and later writes append
/// above it, copying nothing.
///
/// Current-belief retrieval is `kb.snapshot()`, the [`Snapshot`] at
/// `now`. That is sound because UNTELL ticks *before* it closes an
/// interval, so a proposition is believed now exactly if its interval
/// is still open.
pub struct Kb {
    store: Writer,
    /// Believed individuals by name: the O(1) path of [`Kb::lookup`].
    by_name: HashMap<Symbol, PropId>,
    builtins: Builtins,
    /// The open write transaction's mark, if any (see the module doc).
    txn: Option<Mark>,
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
            store: Writer::new(),
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
        let id = self.store.append(source, label, dest, history);
        if source == id && dest == id {
            self.by_name.insert(label, id);
        }
        id
    }

    fn apply_close(&mut self, id: PropId, at: i64) -> TelosResult<()> {
        let p = self.store.close(id, at)?;
        if p.is_individual() && self.by_name.get(&p.label) == Some(&id) {
            self.by_name.remove(&p.label);
        }
        Ok(())
    }

    /// True if proposition `id` is believed now: told, and its interval
    /// not closed.
    fn believes(&self, id: PropId) -> bool {
        self.prop(id).is_some_and(|p| p.believed_at(self.now()))
    }

    /// Advances the belief clock (one "transaction boundary") and
    /// returns the new tick.
    pub fn tick(&mut self) -> i64 {
        self.store.tick()
    }

    // ----- write transactions ----------------------------------------------

    /// Opens a write transaction, marking the store and ticking once,
    /// unless one is open already: then the caller joins it and the
    /// clock stays. Returns the tick.
    pub fn begin(&mut self) -> i64 {
        if self.txn.is_none() {
            self.txn = Some(self.store.mark());
            self.tick();
        }
        self.now()
    }

    /// The mark the open transaction took, if one is open: what the
    /// write has changed so far is [`PropStore::delta_since`] it.
    pub fn txn_mark(&self) -> Option<Mark> {
        self.txn
    }

    /// Closes the open transaction, keeping its changes (a no-op if
    /// none is open).
    pub fn commit(&mut self) {
        self.txn = None;
    }

    /// Closes the open transaction, undoing every change since
    /// [`Kb::begin`] (a no-op if none is open). Only a believed
    /// (open-ended) interval is ever closed, so each is reopened to
    /// `[start, +∞)`; a reopened individual is its name's believed one
    /// again (only [`Kb::individual_during`] creates one, when none is).
    ///
    /// # Panics
    /// Panics if a version was captured while the transaction was open:
    /// the undo would change what it reads.
    pub fn rollback(&mut self) {
        let Some(mark) = self.txn.take() else {
            return;
        };
        let store = &self.store;
        let appended = (mark.len..store.len()).filter_map(|i| store.prop(PropId(i as u32)));
        for p in appended {
            if self.by_name.get(&p.label) == Some(&p.id) {
                self.by_name.remove(&p.label);
            }
        }
        let reopened = store
            .closed_from(mark.closed)
            .filter(|id| id.idx() < mark.len);
        for p in reopened.filter_map(|id| self.store.prop(id)) {
            if p.is_individual() {
                self.by_name.insert(p.label, p.id);
            }
        }
        self.store.rollback(mark);
    }

    // ----- symbols -------------------------------------------------------

    /// Interns a string as a symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.store.intern(s)
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
        if let Some(existing) = self.snapshot().find_link(x, label, c) {
            return Ok(existing);
        }
        self.create_raw(x, label, c, Interval::always())
    }

    /// Creates (or finds) the believed specialization link `c isa d`.
    /// Rejects cycles (the specialization axiom requires a partial
    /// order).
    pub fn specialize(&mut self, c: PropId, d: PropId) -> TelosResult<PropId> {
        if c == d || self.snapshot().isa_ancestors(d).contains(&c) {
            return Err(TelosError::AxiomViolation(format!(
                "isa cycle: `{}` isa `{}`",
                self.display(c),
                self.display(d)
            )));
        }
        let label = self.isa_sym();
        if let Some(existing) = self.snapshot().find_link(c, label, d) {
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
        self.get(id)?;
        if !self.believes(id) {
            return Err(TelosError::NotBelieved(id));
        }
        self.apply_close(id, at)
    }

    /// Stops believing `id` and, transitively, every believed link that
    /// has an untold proposition as source or destination. Returns the
    /// ids untold, in order.
    pub fn untell_cascade(&mut self, id: PropId) -> TelosResult<Vec<PropId>> {
        let at = self.tick();
        self.get(id)?;
        if !self.believes(id) {
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
                .chain(self.postings_to(cur))
                .filter(|&p| p != cur && self.believes(p))
                .collect();
            for d in dependents {
                if seen.insert(d) {
                    queue.push_back(d);
                }
            }
        }
        Ok(untold)
    }

    // ----- raw access -----------------------------------------------------

    /// The proposition with the given id.
    pub fn get(&self, id: PropId) -> TelosResult<&Proposition> {
        self.prop(id).ok_or(TelosError::UnknownProposition(id))
    }

    // ----- versions -------------------------------------------------------

    /// Captures an immutable [`KbVersion`] of the current state: a
    /// handle on the store's one append-only storage and its current
    /// mark, O(1). Later writes append above the mark and copy nothing
    /// the version reads. The version is `Send + Sync`, never changes,
    /// and answers `snapshot_at(w)` byte-identically to this KB for
    /// every `w ≤ self.now()` — the server's MVCC read path hands one to
    /// each session so reads never take the writer lock. No rollback
    /// may cut below it: capture between write transactions.
    pub fn version(&self) -> KbVersion {
        KbVersion::freeze(PropStore::clone(&self.store))
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
    fn seen(&self, ids: Postings<'a>) -> impl DoubleEndedIterator<Item = &'a Proposition> + 'a {
        let (store, at) = (self.store, self.at);
        ids.filter_map(move |id| store.prop(id))
            .filter(move |p| p.believed_at(at))
    }

    /// Ids of all propositions believed at the pinned tick.
    pub fn believed(&self) -> impl Iterator<Item = PropId> + 'a {
        let at = self.at;
        let believed = move |p: &&Proposition| p.believed_at(at);
        self.store.props().filter(believed).map(|p| p.id)
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
        self.attr_class_among(&self.all_classes_of(x), label)
    }

    /// The attribute class labelled `label` of the first of `classes`
    /// that carries one.
    fn attr_class_among(&self, classes: &[PropId], label: &str) -> Option<PropId> {
        let sym = self.store.lookup_sym(label)?;
        if self.store.is_link_sym(sym) {
            return None;
        }
        classes.iter().find_map(|&class| {
            let mut attrs = self.seen(self.store.postings_from(class));
            attrs.find(|p| p.label == sym).map(|p| p.id)
        })
    }
}

/// [`Snapshot::all_classes_of`] memoized per object: a batch check
/// whose propositions share endpoints — a decision is the source of
/// most of what it tells — walks each endpoint's class closure once.
/// It caches only what the snapshot answers, so it stays valid as long
/// as the snapshot does; one lives for one batch.
pub struct ClassClosures<'a> {
    snap: Snapshot<'a>,
    memo: HashMap<PropId, Vec<PropId>>,
}

impl<'a> ClassClosures<'a> {
    /// An empty memo over `snap`.
    pub fn new(snap: Snapshot<'a>) -> Self {
        ClassClosures {
            snap,
            memo: HashMap::new(),
        }
    }

    /// The snapshot the memo reads.
    pub fn snapshot(&self) -> Snapshot<'a> {
        self.snap
    }

    /// `snapshot().all_classes_of(x)`, walked on the first call for `x`.
    pub fn of(&mut self, x: PropId) -> &[PropId] {
        let snap = self.snap;
        self.memo.entry(x).or_insert_with(|| snap.all_classes_of(x))
    }

    /// `snapshot().is_instance_of(x, c)`: `c` is among `x`'s classes
    /// closed under specialization.
    pub(crate) fn is_instance_of(&mut self, x: PropId, c: PropId) -> bool {
        self.of(x).contains(&c)
    }

    /// `snapshot().find_attr_class(x, label)`.
    pub(crate) fn find_attr_class(&mut self, x: PropId, label: &str) -> Option<PropId> {
        let snap = self.snap;
        snap.attr_class_among(self.of(x), label)
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

    use crate::version::Delta;

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
        assert!(kb.snapshot().classes_of(paper).contains(&class));
        assert!(kb.snapshot().instances_of(class).contains(&paper));
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
        assert!(kb.snapshot().is_instance_of(inv42, invitation));
        assert!(
            kb.snapshot().is_instance_of(inv42, paper),
            "instance inheritance"
        );
        assert!(kb.snapshot().all_instances_of(paper).contains(&inv42));
        assert!(kb.snapshot().all_classes_of(inv42).contains(&paper));
        assert!(!kb.snapshot().is_instance_of(paper, invitation));
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
        assert_eq!(kb.snapshot().isa_ancestors(bottom).len(), 49);
        assert_eq!(kb.snapshot().isa_descendants(prev).len(), 49);
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
        assert_eq!(
            kb.snapshot().find_attr_class(inv42, "sender"),
            Some(sender_class)
        );
        // typed token-level attribute:
        let attr = kb
            .put_attr_typed(inv42, "sender", maria, sender_class)
            .unwrap();
        assert_eq!(kb.snapshot().attr_values(inv42, "sender"), vec![maria]);
        assert_eq!(
            kb.snapshot().classes_of(attr).first().copied(),
            Some(sender_class)
        );
        assert_eq!(kb.snapshot().attrs_of(inv42), vec![attr]);
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
        assert_eq!(
            kb.snapshot().find_attr_class(inv42, "author"),
            Some(author_class)
        );
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
        assert!(!kb.snapshot().sees(attr));
        assert!(kb.snapshot().attr_values(a, "rel").is_empty());
        // Temporal query still sees it.
        assert_eq!(kb.snapshot_at(before).attr_values(a, "rel"), vec![b]);
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
        assert!(kb.snapshot().sees(bc));
    }

    #[test]
    fn believed_count_tracks_untell() {
        let mut kb = kb();
        let base = kb.snapshot().believed_count();
        let a = kb.individual("A").unwrap();
        assert_eq!(kb.snapshot().believed_count(), base + 1);
        kb.untell(a).unwrap();
        assert_eq!(kb.snapshot().believed_count(), base);
        assert_eq!(kb.len(), base + 1, "nothing destroyed");
    }

    #[test]
    fn links_from_to_and_labels() {
        let mut kb = kb();
        let a = kb.individual("A").unwrap();
        let b = kb.individual("B").unwrap();
        let l1 = kb.put_attr(a, "uses", b).unwrap();
        let l2 = kb.put_attr(b, "uses", a).unwrap();
        assert_eq!(kb.snapshot().links_from(a), vec![l1]);
        assert!(kb.snapshot().links_to(a).contains(&l2));
        let with_label = kb.snapshot().props_with_label("uses");
        assert_eq!(with_label.len(), 2);
        assert!(kb.snapshot().props_with_label("nosuch").is_empty());
    }

    #[test]
    fn temporal_class_membership() {
        let mut kb = kb();
        let c = kb.individual("C").unwrap();
        let x = kb.individual("x").unwrap();
        let link = kb.instantiate(x, c).unwrap();
        let t_in = kb.now();
        kb.untell(link).unwrap();
        assert!(kb.snapshot().classes_of(x).is_empty());
        assert_eq!(kb.snapshot_at(t_in).classes_of(x), vec![c]);
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
        assert_eq!(kb.snapshot().all_instances_of(c).len(), 2);
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
        assert!(kb.snapshot().attr_values(a, "rel").is_empty());
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
        assert!(!kb.snapshot().is_instance_of(inv1, paper), "isa gone now");
        assert!(snap.believed_count() > kb.snapshot_at(0).believed_count());
    }

    /// Everything a rollback must restore, as the read surface shows it.
    fn observe(kb: &Kb, names: &[&str]) -> impl PartialEq + std::fmt::Debug {
        let prop = |p: &Proposition| {
            (
                p.id,
                p.source,
                p.label,
                p.dest,
                p.history,
                p.belief(kb.now()),
            )
        };
        let props: Vec<_> = kb.props().map(prop).collect();
        let postings = |id: PropId| {
            let from: Vec<PropId> = kb.postings_from(id).collect();
            (from, kb.postings_to(id).collect::<Vec<_>>())
        };
        let looked: Vec<_> = names
            .iter()
            .map(|n| (kb.lookup(n), kb.lookup_sym(n)))
            .collect();
        let syms = kb.symbol_count() as u32;
        let labels: Vec<Vec<PropId>> = (0..syms)
            .map(|s| kb.postings_label(Symbol(s)).collect())
            .collect();
        let ids = (0..kb.len() as u32).map(|i| postings(PropId(i)));
        (kb.now(), props, looked, labels, ids.collect::<Vec<_>>())
    }

    #[test]
    fn rollback_restores_the_mark_and_commit_keeps_the_closed_log() {
        let mut kb = kb();
        let a = kb.individual("A").unwrap();
        let b = kb.individual("B").unwrap();
        let ab = kb.put_attr(a, "rel", b).unwrap();
        let frozen = kb.version();
        let names = ["A", "B", "C", "rel", "fresh"];
        let before = observe(&kb, &names);
        let logged = kb.mark();
        let tick = kb.begin();
        assert_eq!(kb.begin(), tick, "a second begin joins");
        let c = kb.individual("C").unwrap();
        kb.put_attr(c, "fresh", a).unwrap();
        kb.untell(ab).unwrap();
        kb.untell_cascade(a).unwrap();
        let a2 = kb.individual("A").unwrap();
        assert_ne!(a2, a);
        // The cascade's link to `c` was told since: it is in neither.
        assert_eq!(kb.delta_since(&logged).untold, [ab, a]);
        kb.rollback();
        assert_eq!(observe(&kb, &names), before);
        assert_eq!(kb.mark(), logged, "the closed log is truncated");
        assert_eq!(kb.lookup("A"), Some(a));
        assert_eq!(frozen.len(), kb.len());
        assert!(frozen.snapshot().sees(ab), "the version is untouched");

        kb.begin();
        let mark = kb.txn_mark().expect("open");
        let c = kb.individual("C").unwrap();
        kb.untell(ab).unwrap();
        kb.commit();
        assert_eq!(kb.len(), c.idx() + 1);
        let delta = kb.delta_since(&mark);
        assert_eq!((delta.told, delta.untold), (vec![c], vec![ab]));
        assert_eq!(frozen.mark(), logged, "a version's log is frozen");
        assert_eq!(frozen.delta_since(&mark), Delta::default());
        kb.rollback();
        assert_eq!(kb.len(), c.idx() + 1, "nothing left open");
        assert_eq!(kb.txn_mark(), None);
    }

    /// An aborted write that untells an individual, tells a new one of
    /// the same name and cascades an object with links: the rollback
    /// restores the original as the believed individual of its name,
    /// in the name index and by belief time alike, and the links.
    #[test]
    fn rollback_restores_a_name_re_told_in_the_aborted_write() {
        let mut kb = kb();
        let x = kb.individual("x").unwrap();
        let (a, b) = (kb.individual("A").unwrap(), kb.individual("B").unwrap());
        let links = [
            kb.put_attr(a, "r", b).unwrap(),
            kb.put_attr(b, "s", a).unwrap(),
        ];
        kb.begin();
        let mark = kb.txn_mark().expect("open");
        kb.untell(x).unwrap();
        let x2 = kb.individual("x").unwrap();
        assert_ne!(x2, x, "a new x");
        let cascaded = kb.untell_cascade(a).unwrap();
        assert!(links.iter().all(|l| cascaded.contains(l)));
        assert_ne!(kb.delta_since(&mark), Delta::default());
        kb.rollback();
        assert_eq!(kb.lookup("x"), Some(x));
        assert_eq!(kb.snapshot().lookup("x"), Some(x));
        assert!(kb.snapshot().sees(x));
        assert_eq!(kb.lookup("A"), Some(a));
        for id in links.into_iter().chain([a]) {
            assert!(kb.snapshot().sees(id), "{}", kb.display(id));
        }
        assert_eq!(kb.len(), x2.idx());
        assert_eq!(kb.delta_since(&mark), Delta::default());
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
