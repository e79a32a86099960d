//! String interning: `Symbol`s for predicate names and symbolic
//! constants, and `IVal` — the interned, `Copy` form of [`Value`] that
//! relations store and the join cores compare.
//!
//! The paper's object processor "understands the knowledge base as a
//! deductive relational database; in this way, large sets of similarly
//! structured objects can be managed more efficiently" (§3.1). Set-
//! oriented processing lives or dies on cheap tuple comparison:
//! interning turns every string equality in the inner join loops into
//! a `u32` compare and every tuple hash into a few word hashes.
//!
//! The pool is process-global and append-only; interned strings are
//! leaked to give `Symbol::as_str` a `'static` lifetime. Memory is
//! bounded by the number of *distinct* names the process ever sees,
//! which for a KBMS workload is small compared to the fact sets.
//!
//! **Thread safety and scaling.** The pool is shared by every thread
//! in the process — in particular by the server's concurrent worker
//! threads, where many read sessions resolve symbols while a writer
//! interns new ones. The pool was a single `RwLock` and the second
//! contention chokepoint after the store lock (ISSUE 6); it is now
//! split in two:
//!
//! * **string → id** is striped across [`SHARD_COUNT`] shards, each its
//!   own `RwLock<HashMap>` keyed by string hash. Readers of different
//!   strings take different locks; `intern` of a *new* string write-
//!   locks only its shard.
//! * **id → string** is an append-only chunked table of atomic slots
//!   with doubling chunk sizes. `Symbol::as_str` is entirely lock-free:
//!   two `Acquire` loads, no guard, no serialization against interning
//!   threads. Slots are written exactly once (`Release`) before the id
//!   escapes the interning thread, so any thread legitimately holding a
//!   `Symbol` finds its slot published.
//!
//! Symbols are plain `u32`s drawn from a global counter and the
//! interned strings are `'static`, so once obtained they are freely
//! sendable across threads. A panic while holding a shard guard
//! poisons only that shard; since the pool is append-only it can never
//! be observed in a torn state, so poisoning is deliberately ignored
//! rather than propagated.

use crate::ast::Value;
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::{OnceLock, RwLock};

/// An interned string: predicate name or symbolic constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// Number of string→id shards. A power of two so the shard pick is a
/// mask; 16 is far beyond the server's worker parallelism for writes.
const SHARD_COUNT: usize = 16;

/// log2 of the first chunk's capacity (1024 slots). Chunk `c` holds
/// `1024 << c` slots, so 23 chunks cover the full `u32` id space.
const BASE_BITS: u32 = 10;
/// Number of chunk slots in the id→string table.
const CHUNK_COUNT: usize = 23;

type Shard = RwLock<HashMap<&'static str, u32>>;

struct Pool {
    shards: [Shard; SHARD_COUNT],
    hasher: RandomState,
    next_id: AtomicU32,
    /// Chunk `c` is null until allocated, then points at the first of
    /// `1024 << c` slots; each slot is null until its string (a boxed
    /// `&'static str`, leaked) is published with `Release`.
    chunks: [AtomicPtr<AtomicPtr<&'static str>>; CHUNK_COUNT],
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        #[allow(clippy::declare_interior_mutable_const)]
        const NULL_CHUNK: AtomicPtr<AtomicPtr<&'static str>> = AtomicPtr::new(ptr::null_mut());
        Pool {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hasher: RandomState::new(),
            next_id: AtomicU32::new(0),
            chunks: [NULL_CHUNK; CHUNK_COUNT],
        }
    })
}

/// Splits an id into (chunk index, offset within chunk).
#[inline]
fn locate(id: u32) -> (usize, usize) {
    let adjusted = id as u64 + (1 << BASE_BITS);
    let chunk = (63 - adjusted.leading_zeros()) as usize - BASE_BITS as usize;
    let offset = (adjusted - (1u64 << (chunk as u32 + BASE_BITS))) as usize;
    (chunk, offset)
}

/// Capacity of chunk `c`.
#[inline]
fn chunk_len(chunk: usize) -> usize {
    1usize << (chunk as u32 + BASE_BITS)
}

impl Pool {
    fn shard(&self, s: &str) -> &Shard {
        let h = self.hasher.hash_one(s) as usize;
        &self.shards[h & (SHARD_COUNT - 1)]
    }

    /// Returns the chunk base pointer, allocating the chunk on first
    /// use. Concurrent allocators race on a CAS; the loser frees its
    /// allocation.
    fn chunk(&self, chunk: usize) -> *mut AtomicPtr<&'static str> {
        let slot = &self.chunks[chunk];
        let existing = slot.load(Ordering::Acquire);
        if !existing.is_null() {
            return existing;
        }
        let len = chunk_len(chunk);
        let fresh: Box<[AtomicPtr<&'static str>]> =
            (0..len).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
        let fresh = Box::into_raw(fresh) as *mut AtomicPtr<&'static str>;
        match slot.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => fresh,
            Err(winner) => {
                // SAFETY: `fresh` came from `Box::into_raw` above with
                // exactly `len` elements and lost the race unpublished,
                // so reconstructing and dropping it is sound.
                unsafe {
                    drop(Box::from_raw(ptr::slice_from_raw_parts_mut(fresh, len)));
                }
                winner
            }
        }
    }

    /// Publishes `id → s` in the lock-free table. Called once per id,
    /// under the owning shard's write guard, before the id is handed to
    /// any caller.
    fn publish(&self, id: u32, s: &'static str) {
        let (chunk, offset) = locate(id);
        let base = self.chunk(chunk);
        let boxed = Box::into_raw(Box::new(s));
        // SAFETY: `offset < chunk_len(chunk)` by construction of
        // `locate`, and `base` points at a live chunk of that length
        // (chunks are never freed once published).
        let cell = unsafe { &*base.add(offset) };
        cell.store(boxed, Ordering::Release);
    }

    /// Lock-free id → string resolution.
    fn resolve(&self, id: u32) -> &'static str {
        let (chunk, offset) = locate(id);
        let base = self.chunks[chunk].load(Ordering::Acquire);
        assert!(
            !base.is_null(),
            "symbol {id} resolved before its chunk was published"
        );
        // SAFETY: a non-null chunk pointer is valid for its full length
        // forever, and `offset` is in bounds (see `locate`).
        let cell = unsafe { &*base.add(offset) };
        let p = cell.load(Ordering::Acquire);
        assert!(!p.is_null(), "symbol {id} resolved before it was published");
        // SAFETY: a non-null slot was written exactly once by `publish`
        // from `Box::into_raw` and never touched again; the `Release`
        // store / `Acquire` load pair makes the boxed `&'static str`
        // visible.
        unsafe { *p }
    }
}

/// Interns `s`, returning its canonical [`Symbol`]. Safe to call from
/// any thread; the common already-interned case takes only the shared
/// read guard of one shard, and distinct strings usually hit distinct
/// shards.
pub fn intern(s: &str) -> Symbol {
    let pool = pool();
    let shard = pool.shard(s);
    if let Some(&id) = shard.read().unwrap_or_else(|e| e.into_inner()).get(s) {
        return Symbol(id);
    }
    let mut map = shard.write().unwrap_or_else(|e| e.into_inner());
    // Re-check under the write guard: another thread may have interned
    // `s` between our read and write acquisitions.
    if let Some(&id) = map.get(s) {
        return Symbol(id);
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    let id = pool.next_id.fetch_add(1, Ordering::Relaxed);
    assert!(id != u32::MAX, "fewer than 2^32 symbols");
    // Publish id→str before the map insert makes the id discoverable,
    // so every path that can learn the id finds the slot filled.
    pool.publish(id, leaked);
    map.insert(leaked, id);
    Symbol(id)
}

/// Looks `s` up without interning it. `None` means no tuple anywhere
/// can contain `s` — useful for negative membership tests.
pub fn lookup(s: &str) -> Option<Symbol> {
    let pool = pool();
    pool.shard(s)
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .get(s)
        .copied()
        .map(Symbol)
}

impl Symbol {
    /// The interned string. Lock-free: never serializes against
    /// concurrent interning.
    pub fn as_str(self) -> &'static str {
        pool().resolve(self.0)
    }

    /// The raw pool id.
    pub fn id(self) -> u32 {
        self.0
    }

    /// The symbol whose [`Symbol::id`] is `id`: how a layer that keeps
    /// pool ids beside its own names (telos's `PropStore::pooled`) reads
    /// one back without hashing the string again. `id` must have come
    /// from [`Symbol::id`] in this process; any other number names no
    /// string, and resolving it panics.
    pub fn from_id(id: u32) -> Symbol {
        Symbol(id)
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Interned value: the `Copy` twin of [`Value`] used inside relations
/// and join cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IVal {
    /// An interned symbolic constant.
    Sym(Symbol),
    /// An integer constant.
    Int(i64),
}

impl IVal {
    /// Interns a [`Value`].
    pub fn from_value(v: &Value) -> IVal {
        match v {
            Value::Sym(s) => IVal::Sym(intern(s)),
            Value::Int(i) => IVal::Int(*i),
        }
    }

    /// The interned form of `v` if it is already known; `None` for a
    /// never-seen symbol (which therefore matches no stored tuple).
    pub fn from_value_if_known(v: &Value) -> Option<IVal> {
        match v {
            Value::Sym(s) => lookup(s).map(IVal::Sym),
            Value::Int(i) => Some(IVal::Int(*i)),
        }
    }

    /// Decodes back to a [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            IVal::Sym(s) => Value::Sym(s.as_str().to_string()),
            IVal::Int(i) => Value::Int(i),
        }
    }

    /// Decodes to a [`ValueRef`]: the symbol's interned string,
    /// borrowed, so nothing is allocated.
    pub fn resolve(self) -> ValueRef {
        match self {
            IVal::Sym(s) => ValueRef::Sym(s.as_str()),
            IVal::Int(i) => ValueRef::Int(i),
        }
    }
}

/// A decoded value that borrows its symbol's interned string: a
/// [`Value`] without the allocation.
///
/// Its derived order is the *value order* of interned rows: symbols by
/// their strings, integers by value, every symbol before every
/// integer — exactly [`Value`]'s derived `Ord`, so a row of these
/// compares like its decoded tuple. (`IVal`'s own derived order is by
/// symbol id, which is interning order, not string order.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ValueRef {
    /// An interned symbolic constant's string.
    Sym(&'static str),
    /// An integer constant.
    Int(i64),
}

impl ValueRef {
    /// Decodes to an owned [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Sym(s) => Value::Sym(s.to_string()),
            ValueRef::Int(i) => Value::Int(i),
        }
    }
}

impl std::fmt::Display for ValueRef {
    /// Renders like the decoded [`Value`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValueRef::Sym(s) => f.write_str(s),
            ValueRef::Int(i) => write!(f, "{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = intern("edge");
        let b = intern("edge");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "edge");
        assert_ne!(intern("node"), a);
    }

    #[test]
    fn lookup_does_not_intern() {
        assert!(lookup("never-seen-symbol-xyzzy").is_none());
        let s = intern("now-seen-xyzzy");
        assert_eq!(lookup("now-seen-xyzzy"), Some(s));
    }

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(3071), (1, 2047));
        assert_eq!(locate(3072), (2, 0));
        let (c, o) = locate(u32::MAX - 1);
        assert!(c < CHUNK_COUNT);
        assert!(o < chunk_len(c));
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        // Server worker threads intern overlapping and distinct names
        // concurrently; every thread must agree on the canonical
        // symbol, and every symbol must round-trip through as_str.
        let shared: Vec<String> = (0..32).map(|i| format!("mt-shared-{i}")).collect();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    for round in 0..50 {
                        for s in &shared {
                            seen.push((s.clone(), intern(s)));
                        }
                        let private = format!("mt-private-{t}-{round}");
                        let sym = intern(&private);
                        assert_eq!(sym.as_str(), private);
                        assert_eq!(lookup(&private), Some(sym));
                    }
                    seen
                })
            })
            .collect();
        let mut canonical: HashMap<String, Symbol> = HashMap::new();
        for h in handles {
            for (s, sym) in h.join().expect("interner thread") {
                assert_eq!(sym.as_str(), s);
                match canonical.get(&s) {
                    None => {
                        canonical.insert(s, sym);
                    }
                    Some(&prev) => assert_eq!(prev, sym, "two canonical symbols for `{s}`"),
                }
            }
        }
    }

    #[test]
    fn racing_ival_interns_agree_on_one_symbol() {
        // ISSUE 6 satellite: a symbol must never get two IVals, even
        // when many threads race to intern the same fresh string — the
        // sharded table's double-checked write path must collapse the
        // race to a single canonical id.
        for round in 0..10 {
            let name = format!("ival-race-{round}");
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let v = Value::sym(name.clone());
                    std::thread::spawn(move || IVal::from_value(&v))
                })
                .collect();
            let ivals: Vec<IVal> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for iv in &ivals {
                assert_eq!(*iv, ivals[0], "two IVals for `{name}`");
            }
            match ivals[0] {
                IVal::Sym(s) => assert_eq!(s.as_str(), name),
                IVal::Int(_) => unreachable!(),
            }
        }
    }

    #[test]
    fn never_interned_symbol_probe_misses() {
        // Mirrors db.rs's probe_unknown_symbol_is_empty: a probe for a
        // symbol no thread ever interned must answer "no match" (None),
        // not allocate an id — otherwise every negative membership test
        // would grow the pool.
        let ghost = "sharded-ghost-never-interned";
        assert_eq!(lookup(ghost), None);
        assert_eq!(IVal::from_value_if_known(&Value::sym(ghost)), None);
        // Interning unrelated strings in parallel must not conjure it.
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..64 {
                        intern(&format!("sharded-other-{t}-{i}"));
                        assert_eq!(lookup("sharded-ghost-never-interned"), None);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lookup(ghost), None);
    }

    #[test]
    fn an_id_reads_back_as_its_symbol() {
        let s = intern("from-id-roundtrip");
        assert_eq!(Symbol::from_id(s.id()), s);
        assert_eq!(Symbol::from_id(s.id()).as_str(), "from-id-roundtrip");
    }

    #[test]
    fn ival_roundtrips() {
        let v = Value::sym("maria");
        let iv = IVal::from_value(&v);
        assert_eq!(iv.to_value(), v);
        let n = Value::Int(-7);
        assert_eq!(IVal::from_value(&n).to_value(), n);
        assert_eq!(
            IVal::from_value_if_known(&Value::Int(3)),
            Some(IVal::Int(3))
        );
    }
}
