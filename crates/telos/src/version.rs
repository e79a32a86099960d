//! The proposition store's versions.
//!
//! [`PropStore`] is everything a belief-time read needs: the
//! propositions, the three access-path indexes, the interned names and
//! the clock. It is declared once, in [`crate::store`]: a handle on one
//! append-only storage plus the [`Mark`] it reads below. [`crate::Kb`]
//! is its writer (the store plus what only TELL needs); [`KbVersion`] is
//! a handle [`crate::Kb::version`] captured, O(1) — one `Arc` bump and
//! the mark — plus one slot for what a layer above derives from it.
//!
//! Once captured, a version never changes: the writer's later TELLs
//! append above its mark, and its UNTELLs write end ticks later than its
//! tick, which it reads as open. So a write after a capture copies
//! nothing, and dropping a superseded version frees only its handle
//! (and its lemmas).
//!
//! The store also keeps the closed log: every id whose belief interval
//! was closed, in the order closed. Propositions are only ever appended
//! and intervals only ever closed, so a [`Mark`] (length, log length,
//! symbol count, tick) is a position in the store's lineage, and what a
//! write changed since one is two ranges, read by
//! [`PropStore::delta_since`]. That one record is what a rollback undoes
//! and what a layer above carries what it derived from one version over
//! to the next by. A version at any mark of the lineage is as cheap as
//! one at the head.
//!
//! Both deref to the store, and every belief-time read is a
//! [`Snapshot`] of it, so a snapshot of a version pinned at watermark
//! `w` answers byte-identically to a snapshot of the live KB at `w` —
//! it is the same code over the same memory. That is what lets the
//! server serve reads from a pinned version without the writer lock.

use crate::kb::Snapshot;
use crate::prop::PropId;
pub use crate::store::{Postings, PropStore};
use std::any::Any;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

impl PropStore {
    /// What changed since `mark`, a position earlier in this store's
    /// lineage (taken from it, or from a version captured from the same
    /// [`crate::Kb`] before it, with nothing rolled back below the mark
    /// since). Costs the ids appended and closed since, not the store.
    pub fn delta_since(&self, mark: &Mark) -> Delta {
        let believed = |id: &PropId, at| self.prop(*id).is_some_and(|p| p.believed_at(at));
        let appended = (mark.len..self.len()).map(|i| PropId(i as u32));
        Delta {
            told: appended.filter(|id| believed(id, self.now())).collect(),
            untold: (self.closed_from(mark.closed))
                .filter(|id| id.idx() < mark.len && believed(id, mark.tick))
                .collect(),
        }
    }

    /// True if `l` is one of the reserved link labels.
    pub fn is_link_sym(&self, l: crate::Symbol) -> bool {
        l == self.instanceof_sym() || l == self.isa_sym()
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
        self.snapshot_at(self.now())
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

/// A position in a store's lineage ([`PropStore::mark`]): what a write
/// transaction opens at, what a version reads below, and what a closure
/// derived from a version records of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    pub(crate) len: usize,
    pub(crate) closed: usize,
    pub(crate) symbols: usize,
    pub(crate) tick: i64,
}

/// What changed since a [`Mark`] ([`PropStore::delta_since`]). An id
/// both appended and closed since is in neither set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    /// The ids appended since the mark and believed now, in id order.
    pub told: Vec<PropId>,
    /// The ids believed at the mark and closed since, in closing order.
    pub untold: Vec<PropId>,
}

/// An immutable version of the knowledge base: the store as
/// [`crate::Kb::version`] captured it, plus one slot for what a layer
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
    /// Freezes `store` (a handle the writer captured) with an empty
    /// lemma slot.
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
        assert_eq!(v.snapshot().lookup("x"), Some(x));
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

    /// The words `store` reads under every key of `index` (0 from,
    /// 1 label, 2 to) up to `keys`.
    fn posting_cells(store: &PropStore, index: usize, keys: usize) -> Vec<Vec<usize>> {
        let list = |k: usize| match index {
            0 => store.postings_from(PropId(k as u32)),
            1 => store.postings_label(crate::Symbol(k as u32)),
            _ => store.postings_to(PropId(k as u32)),
        };
        let cells = |k| list(k).cells().into_iter().map(|c| c as usize).collect();
        (0..keys).map(cells).collect()
    }

    /// After a capture and one TELL-shaped write (a new individual, its
    /// classification under the hub class, an attribute with a fresh
    /// label), every proposition, posting entry and name the version
    /// reads is the very one the live store holds, at the same address:
    /// the write copied nothing, for a hub list of 600 ids as for one of
    /// 6 000.
    #[test]
    fn a_write_after_a_capture_copies_nothing_the_version_holds() {
        // Under Miri, which interprets every step, a smaller store that
        // still spans several chunks and blocks.
        let big = if cfg!(miri) { 900 } else { 6_000 };
        for n in [600, big] {
            let mut kb = Kb::new();
            let c = kb.individual("C").unwrap();
            for i in 0..n {
                let x = kb.individual(&format!("x{i}")).unwrap();
                kb.instantiate(x, c).unwrap();
            }
            let v = kb.version();
            kb.tick();
            let y = kb.individual("y").unwrap();
            kb.instantiate(y, c).unwrap();
            kb.put_attr(y, "fresh", c).unwrap();
            assert_eq!(v.postings_to(c).len(), n + 1, "the hub list and C itself");

            for id in (0..v.len() as u32).map(PropId) {
                let (held, live) = (v.prop(id).unwrap(), kb.prop(id).unwrap());
                assert!(std::ptr::eq(held, live), "proposition {id:?} copied");
            }
            for (index, keys) in [(0, v.len()), (1, v.symbol_count()), (2, v.len())] {
                let (held, live) = (
                    posting_cells(&v, index, keys),
                    posting_cells(&kb, index, keys),
                );
                for (k, (held, live)) in held.iter().zip(&live).enumerate() {
                    assert_eq!(
                        held[..],
                        live[..held.len()],
                        "index {index}, key {k} copied"
                    );
                }
            }
            for sym in (0..v.symbol_count() as u32).map(crate::Symbol) {
                let (held, live) = (v.resolve_sym(sym), kb.resolve_sym(sym));
                assert!(std::ptr::eq(held, live), "name {held} copied");
            }
        }
    }

    /// A reader thread reads a captured version while the writer
    /// appends, closes intervals (of propositions the version believes
    /// too) and rolls back: it reads the same answers throughout.
    #[test]
    fn a_reader_thread_reads_a_version_while_the_writer_moves_on() {
        let (n, rounds) = if cfg!(miri) { (24, 12) } else { (300, 200) };
        let mut kb = Kb::new();
        let c = kb.individual("C").unwrap();
        let links: Vec<PropId> = (0..n)
            .map(|i| {
                let x = kb.individual(&format!("x{i}")).unwrap();
                kb.instantiate(x, c).unwrap()
            })
            .collect();
        let v = kb.version();
        let observe = |v: &KbVersion| {
            let names: Vec<&str> = (0..v.symbol_count() as u32)
                .map(|s| v.resolve_sym(crate::Symbol(s)))
                .collect();
            (
                v.snapshot().all_instances_of(c),
                v.postings_label(v.instanceof_sym()).collect::<Vec<_>>(),
                v.postings_to(c).rev().collect::<Vec<_>>(),
                (v.lookup_sym("y1"), v.lookup_sym("x1"), names.join(",")),
                v.snapshot().believed_count(),
            )
        };
        let want = observe(&v);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                for _ in 0..rounds / 4 {
                    assert_eq!(observe(&v), want);
                }
            });
            for i in 0..rounds {
                kb.begin();
                let y = kb.individual(&format!("y{i}")).unwrap();
                kb.instantiate(y, c).unwrap();
                kb.put_attr(y, &format!("l{i}"), c).unwrap();
                kb.untell(links[i % n]).unwrap_or_default();
                if i % 3 == 0 {
                    kb.rollback();
                } else {
                    kb.commit();
                }
            }
            reader.join().unwrap();
        });
        assert_eq!(observe(&v), want);
        assert!(kb.len() > v.len());
    }

    /// A rollback never cuts below a captured version.
    #[test]
    #[should_panic(expected = "rollback below a captured version")]
    fn a_capture_inside_a_write_transaction_forbids_its_rollback() {
        let mut kb = Kb::new();
        kb.begin();
        kb.individual("x").unwrap();
        let _v = kb.version();
        kb.rollback();
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
                v.prop(link)
                    .map(|p| (p.id, p.source, p.dest, p.belief(v.now()))),
                v.postings_from(x).collect::<Vec<_>>(),
                v.postings_to(c).collect::<Vec<_>>(),
                v.postings_label(v.instanceof_sym()).collect::<Vec<_>>(),
                v.postings_label(rel).collect::<Vec<_>>(),
                (v.lookup_sym("y"), v.lookup_sym("fresh"), v.symbol_count()),
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
        assert_eq!(v.snapshot().lookup("y"), None);
        assert_eq!(v.len() + 4, kb.len());
        // The UNTELL closed the interval in place, after the version's
        // tick: the version reads it open.
        assert!(v.prop(link).unwrap().belief(v.now()).is_open_ended());
        assert!(!kb.prop(link).unwrap().belief(kb.now()).is_open_ended());
        assert!(std::ptr::eq(v.prop(link).unwrap(), kb.prop(link).unwrap()));
        assert!(v.snapshot().sees(link));
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
}
