//! Interned strings for proposition labels and individual names.
//!
//! Propositions store a [`Symbol`] (a `u32`) instead of a `String`; the
//! [`SymbolTable`] owns the strings and guarantees one id per distinct
//! string. Indexing and comparison thus never touch string data.
//!
//! Both directions are persistent, so cloning the table for an
//! immutable [`crate::KbVersion`] is O(spine): strings are held as
//! `Arc<str>` in a chunked vector ([`PVec`]), and the string → symbol
//! map is `SHARDS` copy-on-write hash maps, so a clone bumps one
//! `Arc` per chunk and per shard. Interning a new name afterwards
//! copies the tail chunk of strings and the one shard the name hashes
//! to (≈ n / `SHARDS` entries); every string stays shared between the
//! live table and all captured versions.
//!
//! # The pooled id
//!
//! A layer above may intern the same names a second time, in a pool of
//! its own (the datalog engine's process-wide pool, which telos does not
//! depend on). Each name therefore carries a write-once slot for its id
//! in that pool, stored beside the string in the same chunk
//! ([`SymbolTable::pooled`]). Every version that shares the chunk shares
//! the slot, so a name is looked up in the other pool once per chunk
//! copy, not once per export. A tail chunk copied while a slot was
//! still empty loses the fill the older copy receives later; the live
//! table then fills its own slot again, with the same id.
//!
//! The slot is an atomic word, not a `OnceLock`: copying a tail chunk
//! clones every name in it, and a `OnceLock` clone runs an
//! initialisation per filled slot, which made interning a name after a
//! capture (the write path) about 1.5× as slow.

use crate::pvec::PVec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// How many shards the string → symbol map is split into.
const SHARDS: usize = 256;

/// One shard of the string → symbol map.
type Shard = Arc<HashMap<Arc<str>, Symbol>>;

/// The shard `name` is filed in: the top bits of an Fx-style hash over
/// its bytes, a word at a time. It only spreads names over shards (the
/// shard's own map does the collision-resistant hashing), so it is
/// chosen to add next to nothing to a lookup.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0;
    for word in name.as_bytes().chunks(8) {
        let mut buf = [0u8; 8];
        buf[..word.len()].copy_from_slice(word);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(buf)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    (h >> (u64::BITS - SHARDS.ilog2())) as usize
}

/// An interned string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// An empty pooled-id slot. The datalog pool never hands out this id;
/// a pool that did would only leave the slot empty.
const UNPOOLED: u32 = u32::MAX;

/// One interned name: its string and the write-once slot of its id in
/// the pool of a layer above (see the module doc).
#[derive(Debug)]
pub(crate) struct Name {
    text: Arc<str>,
    /// The pooled id, or [`UNPOOLED`]. Filled with `Release` and read
    /// with `Acquire`, so a reader of the id also sees what the pool
    /// published before handing it out.
    pooled: AtomicU32,
}

impl Clone for Name {
    fn clone(&self) -> Self {
        Name {
            text: Arc::clone(&self.text),
            pooled: AtomicU32::new(self.pooled.load(Ordering::Acquire)),
        }
    }
}

/// The intern table mapping strings to [`Symbol`]s and back.
#[derive(Debug, Clone)]
pub struct SymbolTable {
    strings: PVec<Name>,
    /// `SHARDS` maps; `name` lives in `ids[shard_of(name)]`.
    ids: Vec<Shard>,
}

impl Default for SymbolTable {
    fn default() -> Self {
        SymbolTable {
            strings: PVec::new(),
            // One empty map, shared until a shard's first insert.
            ids: vec![Shard::default(); SHARDS],
        }
    }
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Interns `s`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, s: &str) -> Symbol {
        let shard = &mut self.ids[shard_of(s)];
        if let Some(&sym) = shard.get(s) {
            return sym;
        }
        let sym = Symbol(self.strings.len() as u32);
        let owned: Arc<str> = Arc::from(s);
        self.strings.push(Name {
            text: owned.clone(),
            pooled: AtomicU32::new(UNPOOLED),
        });
        Arc::make_mut(shard).insert(owned, sym);
        sym
    }

    /// Looks up an existing symbol without interning.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.ids[shard_of(s)].get(s).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this table — that is a logic
    /// error, not a recoverable condition.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.0 as usize].text
    }

    /// The id of `sym`'s string in a second pool: read from the name's
    /// slot, or filled by `pool` (given the string) on the first call
    /// against this chunk. Every call must pass the same pool — the
    /// slot remembers one id per name, not one per pool. Callers racing
    /// on an empty slot may each ask the pool, but the first fill wins
    /// and every caller returns it; copies of a chunk each fill their
    /// own slot, and a pool that gives one string one id keeps them
    /// equal.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this table, like
    /// [`SymbolTable::resolve`].
    pub fn pooled(&self, sym: Symbol, pool: impl FnOnce(&str) -> u32) -> u32 {
        let name = &self.strings[sym.0 as usize];
        let known = name.pooled.load(Ordering::Acquire);
        if known != UNPOOLED {
            return known;
        }
        let id = pool(&name.text);
        match name
            .pooled
            .compare_exchange(UNPOOLED, id, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => id,
            Err(winner) => winner,
        }
    }

    /// Forgets every name interned after the first `len`: their symbols
    /// stop resolving, and interning one again numbers it anew.
    pub fn truncate(&mut self, len: usize) {
        for i in len..self.strings.len() {
            let name = Arc::clone(&self.strings[i].text);
            Arc::make_mut(&mut self.ids[shard_of(&name)]).remove(&name);
        }
        self.strings.truncate(len);
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SymbolTable {
        /// The id shards, for tests (here and in `version`) that prove
        /// sharing by `Arc::ptr_eq`.
        pub(crate) fn shards(&self) -> &[Shard] {
            &self.ids
        }

        /// The string spine, for the same tests.
        pub(crate) fn strings(&self) -> &PVec<Name> {
            &self.strings
        }
    }

    /// A clone shares every shard; interning one new name afterwards
    /// copies exactly the shard it hashes to, and both tables keep
    /// answering for every name they hold.
    #[test]
    fn interning_after_a_clone_copies_one_shard() {
        let mut t = SymbolTable::new();
        let names: Vec<String> = (0..2_000).map(|i| format!("name{i}")).collect();
        let syms: Vec<Symbol> = names.iter().map(|n| t.intern(n)).collect();
        let used = t.ids.iter().filter(|s| !s.is_empty()).count();
        assert!(used > SHARDS * 9 / 10, "names spread over shards: {used}");
        let snap = t.clone();
        let fresh = t.intern("fresh");
        let copied: Vec<usize> = (0..SHARDS)
            .filter(|&i| !Arc::ptr_eq(&t.ids[i], &snap.ids[i]))
            .collect();
        assert_eq!(copied, vec![shard_of("fresh")]);
        for (name, &sym) in names.iter().zip(&syms) {
            assert_eq!(t.lookup(name), Some(sym));
            assert_eq!(snap.lookup(name), Some(sym));
            assert_eq!(snap.resolve(sym), name);
        }
        assert_eq!(t.lookup("fresh"), Some(fresh));
        assert_eq!(snap.lookup("fresh"), None);
    }

    /// A pool that numbers names in order of first request, counting
    /// every request it serves.
    #[derive(Default)]
    struct CountingPool {
        ids: std::sync::Mutex<HashMap<String, u32>>,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl CountingPool {
        fn id(&self, s: &str) -> u32 {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let mut ids = self.ids.lock().unwrap();
            let next = ids.len() as u32;
            *ids.entry(s.to_string()).or_insert(next)
        }

        fn calls(&self) -> usize {
            self.calls.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    /// One fill serves every table that shares the chunk: a clone taken
    /// before the fill, one taken after it and the live table.
    #[test]
    fn a_pooled_id_is_filled_once_per_shared_slot() {
        let pool = CountingPool::default();
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        let older = t.clone();
        let id = t.pooled(b, |s| pool.id(s));
        assert_eq!(pool.calls(), 1);
        let newer = t.clone();
        let never = |_: &str| -> u32 { panic!("the slot was filled") };
        assert_eq!(older.pooled(b, never), id);
        assert_eq!(newer.pooled(b, never), id);
        assert_eq!(t.pooled(b, never), id);
        // Another name has a slot of its own.
        assert_ne!(t.pooled(a, |s| pool.id(s)), id);
        assert_eq!(pool.calls(), 2);
        assert_eq!(older.pooled(a, never), t.pooled(a, never));
    }

    /// A tail chunk copied while a slot is empty takes an empty slot
    /// along: the older table's fill does not reach the live one, which
    /// fills its own copy to the same id. A slot filled before the copy
    /// is carried over.
    #[test]
    fn a_tail_copy_refills_the_slot_to_the_same_id() {
        let pool = CountingPool::default();
        let mut t = SymbolTable::new();
        let (a, b) = (t.intern("alpha"), t.intern("beta"));
        let filled = t.pooled(a, |s| pool.id(s));
        let older = t.clone();
        t.intern("gamma"); // copies the shared tail chunk
        assert_eq!(t.strings().shared_chunks(), 0);
        let id = older.pooled(b, |s| pool.id(s));
        assert_eq!(pool.calls(), 2);
        assert_eq!(t.pooled(b, |s| pool.id(s)), id, "refilled alike");
        assert_eq!(pool.calls(), 3, "the copy's slot was empty");
        let never = |_: &str| -> u32 { panic!("filled before the copy") };
        assert_eq!(t.pooled(a, never), filled);
    }

    /// Threads racing to fill one slot agree on the first fill, even
    /// with a pool that answers each of them anew.
    #[test]
    fn racing_fills_of_one_slot_agree() {
        const THREADS: usize = 4;
        let mut t = SymbolTable::new();
        let sym = t.intern("contended");
        let next = std::sync::atomic::AtomicU32::new(0);
        let barrier = std::sync::Barrier::new(THREADS);
        let ids: Vec<u32> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        t.pooled(sym, |_| {
                            next.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
                        })
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(ids.iter().all(|&id| id == ids[0]), "{ids:?}");
        assert_eq!(t.pooled(sym, |_| unreachable!("filled")), ids[0]);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("Invitation");
        let b = t.intern("Invitation");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let mut t = SymbolTable::new();
        let a = t.intern("Paper");
        let b = t.intern("Minutes");
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "Paper");
        assert_eq!(t.resolve(b), "Minutes");
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut t = SymbolTable::new();
        assert_eq!(t.lookup("sender"), None);
        let s = t.intern("sender");
        assert_eq!(t.lookup("sender"), Some(s));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_table() {
        let t = SymbolTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn clone_shares_strings_and_stays_isolated() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        let snap = t.clone();
        let b = t.intern("beta");
        assert_eq!(snap.resolve(a), "alpha");
        assert_eq!(snap.lookup("beta"), None, "clone unaffected");
        assert_eq!(t.resolve(b), "beta");
        assert_eq!(snap.len() + 1, t.len());
    }
}
