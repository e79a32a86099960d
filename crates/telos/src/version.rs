//! Immutable, shareable versions of the proposition store.
//!
//! [`KbVersion`] is an owned, `Send + Sync` copy of everything a
//! belief-time read needs: the propositions, the three access-path
//! indexes, the symbol table and the clock. It is built by
//! [`crate::Kb::version`] through structural sharing — the proposition
//! chunks ([`PVec`]) and index postings ([`PIndex`]) are behind `Arc`s,
//! so capturing a version costs one pointer bump per chunk/posting
//! list, not a deep copy — and once captured it never changes: the
//! writer's later TELLs and UNTELLs copy the chunks they touch instead
//! of mutating shared memory.
//!
//! The read logic itself lives in the [`PropStore`] trait, implemented
//! by both the live [`crate::Kb`] and [`KbVersion`], so
//! [`crate::Snapshot`] evaluates identically over either: a snapshot of
//! a version pinned at watermark `w` answers byte-identically to a
//! snapshot of the live KB at `w`. That equivalence is what lets the
//! server serve ASK from a pinned version without the writer lock.

use crate::kb::{KbRead, Snapshot};
use crate::prop::{PropId, Proposition};
use crate::pvec::PVec;
use crate::symbols::{Symbol, SymbolTable};
use std::any::Any;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

/// A persistent postings index: key → ids of propositions filed under
/// it, in insertion (= id) order. The map spine is cloned per version;
/// the posting lists are shared `Arc`s, copied on write only when a
/// shared list grows.
#[derive(Debug, Clone)]
pub struct PIndex<K: Eq + Hash> {
    map: HashMap<K, Arc<Vec<PropId>>>,
}

impl<K: Eq + Hash> PIndex<K> {
    /// An empty index.
    pub fn new() -> Self {
        PIndex {
            map: HashMap::new(),
        }
    }

    /// Files `value` under `key`. Values are only ever appended with
    /// increasing ids, so each posting list stays sorted by
    /// construction.
    pub fn insert(&mut self, key: K, value: PropId) {
        Arc::make_mut(self.map.entry(key).or_default()).push(value);
    }

    /// The posting list for `key` (empty if absent).
    pub fn get(&self, key: &K) -> &[PropId] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

impl<K: Eq + Hash> Default for PIndex<K> {
    fn default() -> Self {
        PIndex::new()
    }
}

/// The raw read surface shared by the live [`crate::Kb`] and an
/// immutable [`KbVersion`]: dense proposition access, the three access
/// paths, and symbol resolution. [`Snapshot`] is generic over this
/// trait, so belief-time query logic is written once.
pub trait PropStore {
    /// Total number of propositions ever told.
    fn prop_count(&self) -> usize;
    /// The proposition with the given id, if in bounds.
    fn prop(&self, id: PropId) -> Option<&Proposition>;
    /// Resolves a symbol to its string.
    fn resolve_sym(&self, sym: Symbol) -> &str;
    /// Looks up an existing symbol without interning.
    fn lookup_sym(&self, s: &str) -> Option<Symbol>;
    /// Ids of propositions with source `x`.
    fn postings_from(&self, x: PropId) -> &[PropId];
    /// Ids of propositions carrying `label`.
    fn postings_label(&self, label: Symbol) -> &[PropId];
    /// Ids of propositions with destination `y`.
    fn postings_to(&self, y: PropId) -> &[PropId];
    /// The interned `instanceof` symbol.
    fn instanceof_sym(&self) -> Symbol;
    /// The interned `isa` symbol.
    fn isa_sym(&self) -> Symbol;

    /// True if `l` is one of the reserved link labels.
    fn is_link_sym(&self, l: Symbol) -> bool {
        l == self.instanceof_sym() || l == self.isa_sym()
    }

    /// Human-readable name: an individual's label, or `<src label dst>`.
    fn display_prop(&self, id: PropId) -> String {
        match self.prop(id) {
            None => format!("?{}", id.0),
            Some(p) if p.is_individual() => self.resolve_sym(p.label).to_string(),
            Some(p) => format!(
                "<{} {} {}>",
                self.display_prop(p.source),
                self.resolve_sym(p.label),
                self.display_prop(p.dest)
            ),
        }
    }

    /// Destinations of links `<x, label, _>` live in the given belief
    /// view (`None` = believed now, `Some(t)` = believed at tick `t`).
    fn typed_dests_at(&self, x: PropId, label: Symbol, at: Option<i64>) -> Vec<PropId> {
        self.postings_from(x)
            .iter()
            .copied()
            .filter_map(|p| {
                let prop = self.prop(p)?;
                let live = match at {
                    None => prop.is_believed(),
                    Some(t) => prop.believed_at(t),
                };
                (live && prop.label == label && p != x).then_some(prop.dest)
            })
            .collect()
    }

    /// Sources of links `<_, label, y>` live in the given belief view.
    fn typed_sources_at(&self, y: PropId, label: Symbol, at: Option<i64>) -> Vec<PropId> {
        self.postings_to(y)
            .iter()
            .copied()
            .filter_map(|p| {
                let prop = self.prop(p)?;
                let live = match at {
                    None => prop.is_believed(),
                    Some(t) => prop.believed_at(t),
                };
                (live && prop.label == label && p != y).then_some(prop.source)
            })
            .collect()
    }
}

/// An immutable version of the knowledge base, captured at a belief
/// tick by [`crate::Kb::version`]. `Send + Sync` and self-contained:
/// readers holding a version never touch the live KB or any lock.
#[derive(Debug, Clone)]
pub struct KbVersion {
    pub(crate) symbols: SymbolTable,
    pub(crate) props: PVec<Proposition>,
    pub(crate) by_source: PIndex<PropId>,
    pub(crate) by_label: PIndex<Symbol>,
    pub(crate) by_dest: PIndex<PropId>,
    pub(crate) clock: i64,
    pub(crate) sym_instanceof: Symbol,
    pub(crate) sym_isa: Symbol,
    /// What a layer above has derived from this version (see
    /// [`KbVersion::derived`]). Created empty at capture and shared by
    /// clones, so it lives exactly as long as the version does.
    pub(crate) derived: Arc<OnceLock<Arc<dyn Any + Send + Sync>>>,
}

impl KbVersion {
    /// The version's one slot for state derived from it — lemmas that
    /// are valid for this version and no other, such as the deductive
    /// closure of its believed network. The first caller's type claims
    /// the slot (initialised to `T::default()`, exactly once even under
    /// racing callers); every later call with that type gets the same
    /// `Arc`, from any clone of the version. `None` means the slot is
    /// held under another type: the caller then works without it.
    ///
    /// A version never changes, so nothing stored here can go stale; it
    /// is freed with the last clone of the version, which is all the
    /// eviction policy there is.
    pub fn derived<T: Any + Send + Sync + Default>(&self) -> Option<Arc<T>> {
        let slot = self.derived.get_or_init(|| Arc::new(T::default()));
        Arc::clone(slot).downcast::<T>().ok()
    }

    /// The belief tick at which this version was captured. All belief
    /// ticks ≤ this are fully answerable from this version.
    pub fn now(&self) -> i64 {
        self.clock
    }

    /// Total number of propositions ever told, as of capture.
    pub fn len(&self) -> usize {
        self.props.len()
    }

    /// True if the version holds no propositions.
    pub fn is_empty(&self) -> bool {
        self.props.is_empty()
    }

    /// The proposition with the given id, if present in this version.
    pub fn get(&self, id: PropId) -> Option<&Proposition> {
        self.props.get(id.idx())
    }

    /// Human-readable name of a proposition.
    pub fn display(&self, id: PropId) -> String {
        self.display_prop(id)
    }

    /// A read-only view pinned at the capture tick.
    pub fn snapshot(&self) -> Snapshot<'_, KbVersion> {
        self.snapshot_at(self.clock)
    }

    /// A read-only view pinned at belief tick `at` (≤ the capture tick
    /// for full fidelity). Answers are byte-identical to
    /// `Kb::snapshot_at(at)` on the KB this version was captured from.
    pub fn snapshot_at(&self, at: i64) -> Snapshot<'_, KbVersion> {
        Snapshot::over(self, at)
    }
}

impl PropStore for KbVersion {
    fn prop_count(&self) -> usize {
        self.props.len()
    }
    fn prop(&self, id: PropId) -> Option<&Proposition> {
        self.props.get(id.idx())
    }
    fn resolve_sym(&self, sym: Symbol) -> &str {
        self.symbols.resolve(sym)
    }
    fn lookup_sym(&self, s: &str) -> Option<Symbol> {
        self.symbols.lookup(s)
    }
    fn postings_from(&self, x: PropId) -> &[PropId] {
        self.by_source.get(&x)
    }
    fn postings_label(&self, label: Symbol) -> &[PropId] {
        self.by_label.get(&label)
    }
    fn postings_to(&self, y: PropId) -> &[PropId] {
        self.by_dest.get(&y)
    }
    fn instanceof_sym(&self) -> Symbol {
        self.sym_instanceof
    }
    fn isa_sym(&self) -> Symbol {
        self.sym_isa
    }
}

/// Current-belief reads against a version answer as of its capture
/// tick, matching what `KbRead for Kb` answered at that moment.
impl KbRead for KbVersion {
    fn lookup(&self, name: &str) -> Option<PropId> {
        self.snapshot().lookup(name)
    }
    fn display(&self, id: PropId) -> String {
        self.display_prop(id)
    }
    fn is_instance_of(&self, x: PropId, c: PropId) -> bool {
        self.snapshot().is_instance_of(x, c)
    }
    fn isa_ancestors(&self, c: PropId) -> Vec<PropId> {
        self.snapshot().isa_ancestors(c)
    }
    fn all_instances_of(&self, c: PropId) -> Vec<PropId> {
        self.snapshot().all_instances_of(c)
    }
    fn attr_values(&self, x: PropId, label: &str) -> Vec<PropId> {
        self.snapshot().attr_values(x, label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kb;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn version_is_send_sync() {
        assert_send_sync::<KbVersion>();
    }

    #[test]
    fn version_answers_like_the_kb_it_was_captured_from() {
        let mut kb = Kb::new();
        let c = kb.individual("C").unwrap();
        let x = kb.individual("x").unwrap();
        kb.instantiate(x, c).unwrap();
        let v = kb.version();
        assert_eq!(v.now(), kb.now());
        assert_eq!(v.len(), kb.len());
        assert_eq!(v.lookup("x"), Some(x));
        assert_eq!(v.display(x), "x");
        assert_eq!(
            v.snapshot().all_instances_of(c),
            kb.snapshot().all_instances_of(c)
        );
    }

    #[test]
    fn derived_slot_is_per_version_shared_by_clones_and_typed() {
        use std::sync::Mutex;
        let mut kb = Kb::new();
        kb.individual("C").unwrap();
        let v = kb.version();
        let notes = v.derived::<Mutex<Vec<i64>>>().expect("first claim");
        notes.lock().unwrap().push(v.now());
        // The same slot through a clone; a different type is refused.
        let again = v.clone().derived::<Mutex<Vec<i64>>>().unwrap();
        assert!(Arc::ptr_eq(&notes, &again));
        assert!(v.derived::<Mutex<String>>().is_none());
        // The next capture starts empty, whatever the first one holds.
        let next = kb.version();
        assert!(next
            .derived::<Mutex<Vec<i64>>>()
            .unwrap()
            .lock()
            .unwrap()
            .is_empty());
        // Freed with the last clone of its version.
        let weak = Arc::downgrade(&notes);
        drop((notes, again, v));
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn version_is_immutable_under_later_writes() {
        let mut kb = Kb::new();
        let c = kb.individual("C").unwrap();
        let x = kb.individual("x").unwrap();
        let link = kb.instantiate(x, c).unwrap();
        let w = kb.now();
        let v = kb.version();

        // Later TELL and UNTELL do not leak into the captured version.
        // (As in the server's begin_write, the clock ticks before the
        // mutation, so the new belief intervals start above `w`.)
        kb.tick();
        let y = kb.individual("y").unwrap();
        kb.instantiate(y, c).unwrap();
        kb.untell(link).unwrap();

        assert_eq!(v.snapshot_at(w).all_instances_of(c), vec![x]);
        assert_eq!(v.lookup("y"), None);
        assert_eq!(v.len() + 2, kb.len());
        // And the version agrees with a live temporal query at w.
        assert_eq!(
            v.snapshot_at(w).all_instances_of(c),
            kb.snapshot_at(w).all_instances_of(c)
        );
    }

    #[test]
    fn pindex_append_and_miss() {
        let mut ix: PIndex<Symbol> = PIndex::new();
        assert!(ix.get(&Symbol(0)).is_empty());
        ix.insert(Symbol(0), PropId(1));
        ix.insert(Symbol(0), PropId(4));
        ix.insert(Symbol(2), PropId(5));
        assert_eq!(ix.get(&Symbol(0)), &[PropId(1), PropId(4)]);
        assert_eq!(ix.get(&Symbol(2)), &[PropId(5)]);
        let snap = ix.clone();
        ix.insert(Symbol(0), PropId(9));
        assert_eq!(snap.get(&Symbol(0)), &[PropId(1), PropId(4)]);
        assert_eq!(ix.get(&Symbol(0)), &[PropId(1), PropId(4), PropId(9)]);
    }
}
