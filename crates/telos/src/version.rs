//! The persistent proposition store and its immutable versions.
//!
//! [`PropStore`] is everything a belief-time read needs: the
//! propositions, the three access-path indexes, the symbol table and
//! the clock. It is declared once. [`crate::Kb`] is its writer (the
//! store plus what only TELL needs); [`KbVersion`] is a frozen clone of
//! it, built by [`crate::Kb::version`] through structural sharing.
//! Every field is persistent: the propositions and interned strings
//! are [`PVec`]s, each index is a [`PVec`] of posting-list slots
//! (`PIndex`), and the string → symbol map is a fixed set of
//! copy-on-write shards. So capturing a version bumps one `Arc` per
//! 512-element chunk and per shard — O(len / 512), with no per-key
//! work — and dropping a superseded one undoes exactly those bumps.
//!
//! Once captured, a version never changes: the writer's later TELLs
//! and UNTELLs copy what they touch instead of mutating shared memory.
//! The first write after a capture copies the tail chunk of the
//! propositions, one slot chunk and one posting list per index key it
//! files under, and, for a new name, the tail chunk of strings and one
//! id shard. A hub's posting list (the `instanceof` label, a class with
//! many instances) is copied whole on that first write.
//!
//! Both deref to the store, and every belief-time read is a
//! [`Snapshot`] of it, so a snapshot of a version pinned at watermark
//! `w` answers byte-identically to a snapshot of the live KB at `w` —
//! it is the same code over the same memory. That is what lets the
//! server serve reads from a pinned version without the writer lock.

use crate::kb::{KbRead, Snapshot, L_INSTANCEOF, L_ISA};
use crate::prop::{PropId, Proposition};
use crate::pvec::{self, PVec};
use crate::symbols::{Symbol, SymbolTable};
use std::any::Any;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A dense id that numbers a [`PIndex`] slot.
pub(crate) trait DenseKey: Copy {
    /// The slot this key's posting list lives in.
    fn slot(self) -> usize;
}

impl DenseKey for PropId {
    fn slot(self) -> usize {
        self.idx()
    }
}

impl DenseKey for Symbol {
    fn slot(self) -> usize {
        self.0 as usize
    }
}

/// A persistent postings index over a dense key: slot `k` holds the
/// ids of the propositions filed under the key numbered `k`, in
/// insertion (= id) order. The slots are a [`PVec`], so a clone bumps
/// one `Arc` per 512 slots. A write copies the slot chunk it touches
/// and the posting list it grows, each only while a clone still shares
/// it.
#[derive(Debug, Clone)]
pub(crate) struct PIndex<K> {
    slots: PVec<Option<Arc<Vec<PropId>>>>,
    key: PhantomData<K>,
}

impl<K: DenseKey> PIndex<K> {
    /// An empty index.
    pub(crate) fn new() -> Self {
        PIndex {
            slots: PVec::new(),
            key: PhantomData,
        }
    }

    /// Files `value` under `key`, growing the slots to reach it. Values
    /// are only ever appended with increasing ids, so each posting list
    /// stays sorted by construction.
    pub(crate) fn insert(&mut self, key: K, value: PropId) {
        let slot = key.slot();
        while self.slots.len() <= slot {
            self.slots.push(None);
        }
        let list = self.slots.get_mut(slot).expect("slots reach the key");
        let list = list.get_or_insert_with(Arc::default);
        // A shared list is copied at the capacity pushes would have
        // grown it to, so the push below does not reallocate the copy.
        let capacity = (list.len() + 1).next_power_of_two().max(4);
        pvec::unshare(list, capacity).push(value);
    }

    /// Unfiles `value` if it is the last value filed under `key`: the
    /// undo of the latest [`PIndex::insert`] under the key.
    pub(crate) fn unfile(&mut self, key: K, value: PropId) {
        let Some(slot) = self.slots.get_mut(key.slot()) else {
            return;
        };
        let Some(list) = slot else { return };
        let list = pvec::unshare(list, list.len());
        if list.last() == Some(&value) {
            list.pop();
        }
        if list.is_empty() {
            *slot = None;
        }
    }

    /// The posting list for `key` (empty if nothing is filed under it).
    pub(crate) fn get(&self, key: K) -> &[PropId] {
        match self.slots.get(key.slot()) {
            Some(Some(list)) => list,
            _ => &[],
        }
    }
}

/// The proposition store: every proposition ever told, its three
/// access paths, the symbol table and the belief clock. `Clone` is
/// structural sharing, O(len / 512) (see the module doc); the raw read
/// surface below is the one retrieval interface, and
/// [`PropStore::snapshot_at`] the one way to read it by belief time.
#[derive(Debug, Clone)]
pub struct PropStore {
    pub(crate) symbols: SymbolTable,
    pub(crate) props: PVec<Proposition>,
    pub(crate) by_source: PIndex<PropId>,
    pub(crate) by_label: PIndex<Symbol>,
    pub(crate) by_dest: PIndex<PropId>,
    /// Belief-time clock: advanced by [`crate::Kb::tick`].
    pub(crate) clock: i64,
    sym_instanceof: Symbol,
    sym_isa: Symbol,
}

impl PropStore {
    /// An empty store at tick 0 with the reserved link labels interned.
    pub(crate) fn new() -> Self {
        let mut symbols = SymbolTable::new();
        PropStore {
            sym_instanceof: symbols.intern(L_INSTANCEOF),
            sym_isa: symbols.intern(L_ISA),
            symbols,
            props: PVec::new(),
            by_source: PIndex::new(),
            by_label: PIndex::new(),
            by_dest: PIndex::new(),
            clock: 0,
        }
    }

    /// The current belief tick — for a [`KbVersion`], the tick it was
    /// captured at: all belief ticks ≤ this are fully answerable.
    pub fn now(&self) -> i64 {
        self.clock
    }

    /// Total number of propositions ever told.
    pub fn len(&self) -> usize {
        self.props.len()
    }

    /// True if the store holds no propositions.
    pub fn is_empty(&self) -> bool {
        self.props.is_empty()
    }

    /// The proposition with the given id, if in bounds.
    pub fn prop(&self, id: PropId) -> Option<&Proposition> {
        self.props.get(id.idx())
    }

    /// Resolves a symbol to its string.
    pub fn resolve_sym(&self, sym: Symbol) -> &str {
        self.symbols.resolve(sym)
    }

    /// `sym`'s id in a second string pool, remembered with the name
    /// ([`SymbolTable::pooled`]): `pool` runs only if no version sharing
    /// the name's chunk has asked before. Pass the same pool every time.
    pub fn pooled(&self, sym: Symbol, pool: impl FnOnce(&str) -> u32) -> u32 {
        self.symbols.pooled(sym, pool)
    }

    /// Looks up an existing symbol without interning.
    pub fn lookup_sym(&self, s: &str) -> Option<Symbol> {
        self.symbols.lookup(s)
    }

    /// Number of interned symbols: exactly the `Symbol`s below it
    /// resolve.
    pub fn symbol_count(&self) -> usize {
        self.symbols.len()
    }

    /// Ids of propositions with source `x`.
    pub fn postings_from(&self, x: PropId) -> &[PropId] {
        self.by_source.get(x)
    }

    /// Ids of propositions carrying `label`.
    pub fn postings_label(&self, label: Symbol) -> &[PropId] {
        self.by_label.get(label)
    }

    /// Ids of propositions with destination `y`.
    pub fn postings_to(&self, y: PropId) -> &[PropId] {
        self.by_dest.get(y)
    }

    /// The interned `instanceof` symbol.
    pub fn instanceof_sym(&self) -> Symbol {
        self.sym_instanceof
    }

    /// The interned `isa` symbol.
    pub fn isa_sym(&self) -> Symbol {
        self.sym_isa
    }

    /// True if `l` is one of the reserved link labels.
    pub fn is_link_sym(&self, l: Symbol) -> bool {
        l == self.sym_instanceof || l == self.sym_isa
    }

    /// Human-readable name: an individual's label, or `<src label dst>`.
    pub fn display(&self, id: PropId) -> String {
        match self.prop(id) {
            None => format!("?{}", id.0),
            Some(p) if p.is_individual() => self.resolve_sym(p.label).to_string(),
            Some(p) => format!(
                "<{} {} {}>",
                self.display(p.source),
                self.resolve_sym(p.label),
                self.display(p.dest)
            ),
        }
    }

    /// A read-only view pinned at the current belief tick.
    pub fn snapshot(&self) -> Snapshot<'_> {
        self.snapshot_at(self.clock)
    }

    /// A read-only view pinned at belief tick `at`. Because the store
    /// never destroys propositions — UNTELL only closes belief
    /// intervals — the view is a *consistent snapshot*: it sees exactly
    /// the propositions believed at `at`, regardless of TELLs and
    /// UNTELLs applied afterwards. This is the basis of the server's
    /// snapshot-isolated read sessions.
    pub fn snapshot_at(&self, at: i64) -> Snapshot<'_> {
        Snapshot::over(self, at)
    }
}

/// An immutable version of the knowledge base: the store as
/// [`crate::Kb::version`] froze it, plus one slot for what a layer
/// above derives from it. `Send + Sync` and self-contained: readers
/// holding a version never touch the live KB or any lock.
#[derive(Debug, Clone)]
pub struct KbVersion {
    store: PropStore,
    /// What a layer above has derived from this version (see
    /// [`KbVersion::derived`]). Created empty at capture and shared by
    /// clones, so it lives exactly as long as the version does.
    derived: Arc<OnceLock<Arc<dyn Any + Send + Sync>>>,
}

impl Deref for KbVersion {
    type Target = PropStore;

    fn deref(&self) -> &PropStore {
        &self.store
    }
}

impl KbVersion {
    /// Freezes `store` (a structural-sharing clone made by the caller)
    /// with an empty lemma slot.
    pub(crate) fn freeze(store: PropStore) -> Self {
        KbVersion {
            store,
            derived: Arc::default(),
        }
    }

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
}

/// Reads against a version answer as of its capture tick.
impl KbRead for KbVersion {
    fn view(&self) -> Snapshot<'_> {
        self.snapshot()
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

    /// How many of `live`'s allocations are not the one `frozen` holds
    /// at the same position: created or copied since the capture.
    fn fresh<T>(live: &[Arc<T>], frozen: &[Arc<T>]) -> usize {
        let kept = |i: usize, a: &Arc<T>| frozen.get(i).is_some_and(|b| Arc::ptr_eq(a, b));
        (0..live.len()).filter(|&i| !kept(i, &live[i])).count()
    }

    /// The slot chunks and the posting lists of `live` that `frozen`
    /// does not share.
    fn fresh_index<K>(live: &PIndex<K>, frozen: &PIndex<K>) -> [usize; 2] {
        let kept = |i, a| matches!(frozen.slots.get(i), Some(Some(b)) if Arc::ptr_eq(a, b));
        let lists = live.slots.iter().enumerate();
        let lists = lists.filter(|(i, list)| list.as_ref().is_some_and(|a| !kept(*i, a)));
        [
            fresh(live.slots.chunks(), frozen.slots.chunks()),
            lists.count(),
        ]
    }

    /// Per structure of the store, the allocations `live` holds that
    /// `frozen` does not: proposition chunks, string chunks, id shards,
    /// and slot chunks and posting lists of each index.
    fn fresh_counts(live: &PropStore, frozen: &PropStore) -> [(&'static str, usize); 9] {
        let (ls, fs) = (&live.symbols, &frozen.symbols);
        let [source_chunks, source_lists] = fresh_index(&live.by_source, &frozen.by_source);
        let [label_chunks, label_lists] = fresh_index(&live.by_label, &frozen.by_label);
        let [dest_chunks, dest_lists] = fresh_index(&live.by_dest, &frozen.by_dest);
        [
            ("props", fresh(live.props.chunks(), frozen.props.chunks())),
            (
                "strings",
                fresh(ls.strings().chunks(), fs.strings().chunks()),
            ),
            ("id shards", fresh(ls.shards(), fs.shards())),
            ("by_source chunks", source_chunks),
            ("by_label chunks", label_chunks),
            ("by_dest chunks", dest_chunks),
            ("by_source lists", source_lists),
            ("by_label lists", label_lists),
            ("by_dest lists", dest_lists),
        ]
    }

    /// `version()` is O(spine): at capture, every proposition chunk,
    /// index chunk, posting list, id shard and interned string of the
    /// version is the very allocation the live store holds. One
    /// TELL-shaped write afterwards (a new individual, its
    /// classification under an existing class, an attribute with a
    /// fresh label) copies or creates a constant number of each, the
    /// same for a store ten times larger.
    #[test]
    fn capture_shares_everything_and_a_write_copies_a_constant() {
        // Under Miri, which interprets every step, a smaller store that
        // still spans three times the chunks of the first.
        let big = if cfg!(miri) { 1_800 } else { 6_000 };
        let after_write = [600, big].map(|n| {
            let mut kb = Kb::new();
            let c = kb.individual("C").unwrap();
            for i in 0..n {
                let x = kb.individual(&format!("x{i}")).unwrap();
                kb.instantiate(x, c).unwrap();
            }
            let v = kb.version();
            let (live, frozen): (&PropStore, &PropStore) = (&kb, &v);
            assert!(live.props.chunks().len() > 2, "more than one chunk");
            let both_ways = fresh_counts(live, frozen).into_iter();
            for (what, n) in both_ways.chain(fresh_counts(frozen, live)) {
                assert_eq!(n, 0, "capture copied {what}");
            }
            for i in 0..live.symbol_count() as u32 {
                let (a, b) = (live.resolve_sym(Symbol(i)), frozen.resolve_sym(Symbol(i)));
                assert!(std::ptr::eq(a, b), "interned string copied");
            }

            kb.tick();
            let y = kb.individual("y").unwrap();
            kb.instantiate(y, c).unwrap();
            kb.put_attr(y, "fresh", c).unwrap();
            fresh_counts(&kb, &v)
        });
        for (what, n) in after_write[0] {
            assert!(n <= 3, "one write copied {n} {what}");
        }
        assert_eq!(
            after_write[0], after_write[1],
            "a write's copying grew with the store"
        );
    }

    #[test]
    fn version_is_immutable_under_later_writes() {
        let mut kb = Kb::new();
        let c = kb.individual("C").unwrap();
        let x = kb.individual("x").unwrap();
        let link = kb.instantiate(x, c).unwrap();
        let attr = kb.put_attr(x, "rel", c).unwrap();
        let w = kb.now();
        let v = kb.version();
        let rel = v.lookup_sym("rel").unwrap();
        // Everything the three indexes and the symbol table answer for
        // the keys the writes below will touch.
        let observe = |v: &KbVersion| {
            (
                v.len(),
                v.prop(link).cloned(),
                v.postings_from(x).to_vec(),
                v.postings_to(c).to_vec(),
                v.postings_label(v.instanceof_sym()).to_vec(),
                v.postings_label(rel).to_vec(),
                (v.lookup_sym("y"), v.lookup_sym("fresh"), v.symbols.len()),
                v.snapshot_at(w).all_instances_of(c),
                v.snapshot_at(w).attr_values(x, "rel"),
            )
        };
        let before = observe(&v);

        // Later TELL and UNTELL do not leak into the captured version.
        // (As a write transaction opens, the clock ticks before the
        // mutation, so the new belief intervals start above `w`.)
        kb.tick();
        let y = kb.individual("y").unwrap();
        kb.instantiate(y, c).unwrap();
        kb.put_attr(x, "rel", y).unwrap();
        kb.put_attr(x, "fresh", c).unwrap();
        kb.untell(link).unwrap();
        kb.untell(attr).unwrap();

        assert_eq!(observe(&v), before);
        assert_eq!(before.7, vec![x]);
        assert_eq!(v.lookup("y"), None);
        assert_eq!(v.len() + 4, kb.len());
        assert!(
            v.prop(link).unwrap().is_believed(),
            "untell copied its chunk"
        );
        // And the version agrees with a live temporal query at w.
        assert_eq!(
            v.snapshot_at(w).all_instances_of(c),
            kb.snapshot_at(w).all_instances_of(c)
        );
        assert_eq!(
            v.snapshot_at(w).attr_values(x, "rel"),
            kb.snapshot_at(w).attr_values(x, "rel")
        );
    }

    #[test]
    fn pindex_append_and_miss() {
        let mut ix: PIndex<Symbol> = PIndex::new();
        assert!(ix.get(Symbol(0)).is_empty());
        ix.insert(Symbol(0), PropId(1));
        ix.insert(Symbol(0), PropId(4));
        ix.insert(Symbol(2), PropId(5));
        assert_eq!(ix.get(Symbol(0)), &[PropId(1), PropId(4)]);
        assert!(ix.get(Symbol(1)).is_empty(), "an empty slot");
        assert_eq!(ix.get(Symbol(2)), &[PropId(5)]);
        assert!(ix.get(Symbol(3)).is_empty(), "past the end");
        let snap = ix.clone();
        ix.insert(Symbol(0), PropId(9));
        ix.insert(Symbol(1_000), PropId(10));
        assert_eq!(snap.get(Symbol(0)), &[PropId(1), PropId(4)]);
        assert!(snap.get(Symbol(1_000)).is_empty());
        assert_eq!(ix.get(Symbol(0)), &[PropId(1), PropId(4), PropId(9)]);
        assert_eq!(ix.get(Symbol(1_000)), &[PropId(10)]);
    }

    /// A shared posting list is copied once, at the capacity pushes
    /// would have grown it to: the push does not reallocate the copy.
    #[test]
    fn pindex_copies_a_shared_list_once() {
        let mut ix: PIndex<PropId> = PIndex::new();
        for i in 0..5 {
            ix.insert(PropId(0), PropId(i));
        }
        let snap = ix.clone();
        ix.insert(PropId(0), PropId(5));
        let list = ix.slots[0].as_ref().unwrap();
        assert!(!Arc::ptr_eq(list, snap.slots[0].as_ref().unwrap()));
        assert_eq!(list.capacity(), 8);
        assert_eq!(snap.get(PropId(0)).len(), 5, "older clone unaffected");
    }
}
